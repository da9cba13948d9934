"""Flow-level traffic assignment onto resolved routes.

Demand comes in blocks, each server of a source group sending one rate
to each server of a destination group but itself: a traffic pattern is
one block per rack pair with demand, made from the spec alone
(``RackBlocks``), and a flow line is a 1x1 block (``TrafficMatrix``).
Demands are fluid: a block's rate is added to every link of its routes,
in exact rational arithmetic.  Demands exceeding capacity are reported
as utilization above one, never dropped; this is an analyzer, not an
admission controller.

Sums run over integer numerators scaled to the least common multiple of
the rates' denominators and are divided once at the end, which is exact
and avoids one ``Fraction`` normalisation per hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import RoutingError, ScenarioError, UnknownRack, in_pair
from .routing import Memo, RouteTable, RoutingPolicy
from .routing import resolve_route  # noqa: F401  (perfbench/traced.py wraps traffic.resolve_route)
from .topology import FabricSpec, LinkKind, NetworkGraph

#: (sources, destinations, Gb/s): each source sends the rate to each
#: destination but itself.  A group is one server or one rack's servers;
#: a block's two groups are the same rack's or disjoint.
Block = tuple[tuple[str, ...], tuple[str, ...], Fraction]

#: Most rack-pair blocks a traffic pattern may make (1,024 racks under
#: uniform traffic make 1,048,576).
DEMAND_BUDGET = 2_000_000


@dataclass(frozen=True)
class TrafficMatrix:
    """Sparse (src server, dst server) -> demand map in Gb/s: explicit flow
    lines, each entry a 1x1 block."""

    demands: Mapping[tuple[str, str], Fraction]

    def __post_init__(self):
        frozen = {}
        for (src, dst), value in self.demands.items():
            rate = value if isinstance(value, Fraction) else Fraction(value)
            if rate.numerator < 0:
                raise ValueError(f"negative demand for {src} -> {dst}")
            frozen[(src, dst)] = rate
        object.__setattr__(self, "demands", frozen)

    def blocks(self) -> list[Block]:
        """A 1x1 block per entry with demand between two servers, sorted."""
        entries = sorted(self.demands.items())
        return [((src,), (dst,), rate) for (src, dst), rate in entries if rate and src != dst]

    def demand_entries(self) -> int:
        return len(self.demands)

    def total_demand(self) -> Fraction:
        rates = self.demands.values()
        scale = lcm(*(rate.denominator for rate in rates))
        return Fraction(sum(rate.numerator * (scale // rate.denominator) for rate in rates), scale)


class RackBlocks(NamedTuple):
    """Pattern demand: every server of rack ``a`` sends ``demands[(a, b)]``
    Gb/s to every server of rack ``b`` but itself.  ``demands`` holds the
    blocks with demand in the sorted order of their first entries,
    ``(rack{a}/server0, rack{b}/server0)``, as ``generate_traffic`` builds
    it; server ids follow the graphs' ``rack{r}/server{i}``; ``entries``
    and ``total`` count the server pairs and sum their Gb/s.  A named
    tuple, not a dataclass, which costs every CLI process a millisecond."""

    servers_per_rack: int
    demands: Mapping[tuple[int, int], Fraction]
    entries: int
    total: Fraction

    def blocks(self) -> Iterable[Block]:
        n = self.servers_per_rack
        # one tuple per rack, shared by its blocks
        servers = Memo(lambda rack: tuple(f"rack{rack}/server{i}" for i in range(n)))
        for (a, b), rate in self.demands.items():
            yield servers[a], servers[b], rate

    def demand_entries(self) -> int:
        return self.entries

    def total_demand(self) -> Fraction:
        return self.total


@dataclass(frozen=True)
class UniformPattern:
    """Every ordered pair of distinct servers sends ``gbps``."""

    gbps: Fraction


@dataclass(frozen=True)
class HotspotRackPattern:
    """Every server outside ``rack`` sends ``gbps`` to each of its servers."""

    rack: int
    gbps: Fraction


@dataclass(frozen=True)
class IntraRackHeavyPattern:
    """Ordered pairs send ``gbps * intra_fraction`` within a rack and
    ``gbps * (1 - intra_fraction)`` across racks."""

    intra_fraction: Fraction
    gbps: Fraction

    def __post_init__(self):
        if not 0 <= self.intra_fraction <= 1:
            raise ValueError("intra_fraction must be within [0, 1]")


TrafficPattern = Union[UniformPattern, HotspotRackPattern, IntraRackHeavyPattern]


def generate_traffic(pattern: TrafficPattern, spec: FabricSpec) -> RackBlocks:
    """The blocks of a named pattern on the fabric ``spec`` builds, one per
    rack pair with demand (no randomness, no per-server demand).  They are
    counted first: more than ``DEMAND_BUDGET`` is refused before any is made."""
    racks, servers = spec.num_racks, spec.servers_per_rack
    sink = None  # the one destination rack, if any
    if isinstance(pattern, UniformPattern):
        intra = inter = pattern.gbps
    elif isinstance(pattern, HotspotRackPattern):
        if not 0 <= pattern.rack < racks:
            raise UnknownRack(pattern.rack)
        intra, inter, sink = 0, pattern.gbps, pattern.rack
    elif isinstance(pattern, IntraRackHeavyPattern):
        intra = pattern.gbps * pattern.intra_fraction
        inter = pattern.gbps - intra
    else:
        raise TypeError(f"unsupported traffic pattern: {pattern!r}")
    if pattern.gbps < 0:
        raise ValueError(f"negative demand rate {pattern.gbps}")
    intra, inter = Fraction(intra), Fraction(inter)
    intra_blocks = racks if intra and servers > 1 else 0
    inter_blocks = (racks - 1) * (racks if sink is None else 1) if inter and servers else 0
    if intra_blocks + inter_blocks > DEMAND_BUDGET:
        raise ScenarioError(
            f"traffic pattern would make {intra_blocks + inter_blocks} rack-pair blocks, "
            f"over the {DEMAND_BUDGET} budget"
        )

    order = sorted(range(racks), key=str) if servers else []  # as rack{r}/server0 sorts
    demands = {}
    for a in order:
        for b in order if sink is None else (sink,):
            rate = intra if a == b else inter
            if rate and (a != b or servers > 1):
                demands[(a, b)] = rate
    intra_pairs = intra_blocks * servers * (servers - 1)  # n(n-1) per rack
    inter_pairs = inter_blocks * servers * servers
    total = intra * intra_pairs + inter * inter_pairs
    return RackBlocks(servers, demands, intra_pairs + inter_pairs, total)


@dataclass(frozen=True)
class LinkLoad:
    link_id: str
    kind: LinkKind
    capacity: Fraction
    load: Fraction
    utilization: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "utilization", self.load / self.capacity)


@dataclass(frozen=True)
class LinkLoadReport:
    """Per-link aggregate loads, one row per link, sorted by link id."""

    rows: tuple[LinkLoad, ...]
    max_utilization: Fraction
    saturated: tuple[str, ...]


def assign(
    graph: NetworkGraph,
    matrix: TrafficMatrix | RackBlocks,
    policy: RoutingPolicy = RoutingPolicy(),
) -> LinkLoadReport:
    """Route every block of demand and accumulate per-link loads.

    A block is routed once, through its first entry: each stretch of that
    route between the leaves (half-routes, a direct link) carries rate x
    sources x destinations, and each server's edge link the rate times its
    count of peers in the block.  Stretches become links once, at the end.
    So a pattern costs O(rack pairs) sums plus O(racks + direct links)
    expansions, and a flow line what routing it alone costs.
    Expects a graph that keeps its spec's construction rules, where a
    rack's servers share one leaf (``NoRoute`` if not).  Blocks run in the
    sorted order of their first entries, so a routing error names the
    first failing ``src -> dst`` entry in sorted order.
    """
    table = RouteTable(graph, policy)
    scale = lcm(*(rate.denominator for rate in matrix.demands.values()))
    # Groups are keyed by their first server, which names one group only.
    edges: dict[str, tuple[str, ...]] = {}  # the group's edge links
    group_units: dict[str, int] = {}
    stretch_units: dict[tuple[str, ...], int] = {}  # keyed by the stretch's link ids
    last_rate = None  # pattern blocks share their rate objects
    for srcs, dsts, rate in matrix.blocks():
        src, first_dst = srcs[0], dsts[0]
        own = src == first_dst  # a rack to itself: no server sends to itself
        dst = dsts[own]  # (src, dst) is the block's first entry
        try:
            stretches = table.parts(src, dst)[2]
            if src not in edges:
                edges[src] = table.edge_links(srcs)
            if first_dst not in edges:
                edges[first_dst] = table.edge_links(dsts)
        except RoutingError as exc:
            raise in_pair(exc, src, dst) from exc
        if rate is not last_rate:
            last_rate, units = rate, rate.numerator * (scale // rate.denominator)
        peers_of_src, peers_of_dst = len(dsts) - own, len(srcs) - own
        group_units[src] = group_units.get(src, 0) + units * peers_of_src
        group_units[first_dst] = group_units.get(first_dst, 0) + units * peers_of_dst
        pair_units = units * len(srcs) * peers_of_src
        for _, links in stretches:
            stretch_units[links] = stretch_units.get(links, 0) + pair_units

    link_units: dict[str, int] = {}
    for group, units in group_units.items():
        for link_id in edges[group]:
            link_units[link_id] = link_units.get(link_id, 0) + units
    for links, units in stretch_units.items():
        for link_id in links:
            link_units[link_id] = link_units.get(link_id, 0) + units
    rows = tuple(
        LinkLoad(link.id, link.kind, link.capacity, Fraction(link_units.get(link.id, 0), scale))
        for link in sorted(graph.links, key=lambda l: l.id)
    )
    max_utilization = max((row.utilization for row in rows), default=Fraction(0))
    saturated = tuple(row.link_id for row in rows if row.utilization > 1)
    return LinkLoadReport(rows, max_utilization, saturated)


def bottlenecks(report: LinkLoadReport, top_n: int) -> list[LinkLoad]:
    """The ``top_n`` loaded links by utilization, descending.

    Ties break by ascending link id; links without load never appear.
    """
    from heapq import nsmallest  # here, so only simulate pays for importing it

    loaded = [row for row in report.rows if row.load > 0]
    return nsmallest(max(top_n, 0), loaded, key=lambda row: (-row.utilization, row.link_id))
