"""Flow-level traffic assignment onto resolved routes.

Demand comes in blocks, each server of a source group sending one rate
to each server of a destination group but itself: a traffic pattern is
one block per rack pair with demand, made from the spec alone
(``RackBlocks``), and a flow line is a 1x1 block (``TrafficMatrix``).
No id is spelled here: servers are named by ``topology.server_id``, the
stretches of a route are link ids that a ``RouteTable`` of the fabric's
spec names through ``topology`` (see ``routing``), and loads are
reported on the links that spec builds, listed by
``graph.fabric_links``.  No graph is built.  Demands are fluid: a
block's rate is added to every link of its routes, in exact rational
arithmetic.  Demands exceeding capacity are reported as utilization
above one, never dropped; this is an analyzer, not an admission
controller.

Sums run over integer numerators scaled to the least common multiple of
the rates' denominators and are divided once at the end, which is exact
and avoids one ``Fraction`` normalisation per hop.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import RoutingError, ScenarioError, UnknownRack, in_pair
from .graph import fabric_links
from .route_table import RouteTable
from .route_table import resolve_route  # noqa: F401  (perfbench/traced.py wraps traffic.resolve_route)
# The pattern records are defined with the scenario that holds them.
from .scenario import HotspotRackPattern, IntraRackHeavyPattern, TrafficPattern, UniformPattern
from .topology import FabricSpec, LinkCapacities, LinkKind, check_count, check_rate, checked, server_id

#: (sources, destinations, Gb/s): each source sends the rate to each
#: destination but itself.  A group is one server or one rack's servers;
#: a block's two groups are the same rack's or disjoint.
Block = tuple[tuple[str, ...], tuple[str, ...], Fraction]

#: Most rack-pair blocks a traffic pattern may make (1,024 racks under
#: uniform traffic make 1,048,576).
DEMAND_BUDGET = 2_000_000


@checked
class TrafficMatrix(NamedTuple):
    """Sparse (src server, dst server) -> demand map: explicit flow lines,
    each entry a 1x1 block of ``demands[pair] / scale`` Gb/s, its demand
    an int or a ``Fraction`` (``scale=1000`` takes Mb/s).  The entries are
    kept in sorted pair order."""

    demands: Mapping[tuple[str, str], int | Fraction]
    scale: int = 1

    def _checked(self) -> TrafficMatrix:
        check_count(self.scale, "scale", minimum=1)
        demands = self.demands
        rates = demands.values()
        if not {int, Fraction}.issuperset(map(type, rates)) or min(rates, default=0) < 0:
            for (src, dst), rate in demands.items():
                if check_rate(rate, f"demand for {src} -> {dst}") < 0:
                    raise ValueError(f"negative demand for {src} -> {dst}")
        pairs = sorted(demands)
        if pairs == list(demands):  # as parsed flow lines come
            return self._make((dict(demands), self.scale))
        return self._make(({pair: demands[pair] for pair in pairs}, self.scale))

    def blocks(self) -> Iterable[Block]:
        """A 1x1 block per entry with demand between two servers, sorted."""
        entries = self.demands.items()
        return (((src,), (dst,), rate) for (src, dst), rate in entries if rate and src != dst)

    def demand_entries(self) -> int:
        return len(self.demands)

    def total_demand(self) -> Fraction:
        return Fraction(sum(self.demands.values()), self.scale)


class RackBlocks(NamedTuple):
    """Pattern demand: every server of rack ``a`` sends ``demands[(a, b)]``
    Gb/s to every server of rack ``b`` but itself.  ``demands`` holds the
    blocks with demand in the sorted order of their first entries,
    ``(server_id(a, 0), server_id(b, 0))``, as ``generate_traffic`` builds
    it; ``blocks`` names the servers by ``topology.server_id``; ``entries``
    and ``total`` count the server pairs and sum their Gb/s."""

    servers_per_rack: int
    demands: Mapping[tuple[int, int], Fraction]
    entries: int
    total: Fraction
    scale = 1  # demands are in Gb/s

    def blocks(self) -> Iterable[Block]:
        n = self.servers_per_rack
        # one tuple per rack, shared by its blocks
        racks = set(chain.from_iterable(self.demands))
        servers = {rack: tuple(server_id(rack, i) for i in range(n)) for rack in racks}
        for (a, b), rate in self.demands.items():
            yield servers[a], servers[b], rate

    def demand_entries(self) -> int:
        return self.entries

    def total_demand(self) -> Fraction:
        return self.total


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

    order = sorted(range(racks), key=lambda r: server_id(r, 0)) if servers else []
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


class LinkLoad(namedtuple("LinkLoad", "link_id kind capacity load utilization")):
    """One link's load, and its ``utilization``, the ``Fraction`` ``load /
    capacity``, which neither ``LinkLoad(...)`` nor ``_replace`` takes."""

    __slots__ = ()

    def __new__(cls, link_id: str, kind: LinkKind, capacity: Fraction, load: Fraction):
        return tuple.__new__(cls, (link_id, kind, capacity, load, load / capacity))

    def _replace(self, **changes) -> LinkLoad:
        return LinkLoad(**dict(zip(self._fields[:4], self), **changes))

    def __getnewargs__(self) -> tuple:  # what ``pickle`` and ``copy`` pass to ``__new__``
        return self[:4]


class LinkLoadReport(NamedTuple):
    """Per-link aggregate loads, one row per link, sorted by link id."""

    rows: tuple[LinkLoad, ...]
    max_utilization: Fraction
    saturated: tuple[str, ...]


def assign(
    table: RouteTable,
    matrix: TrafficMatrix | RackBlocks,
    capacities: LinkCapacities = LinkCapacities(),
) -> LinkLoadReport:
    """Route every block of demand through ``table`` and accumulate per-link
    loads, one row for each link ``table.spec`` builds, at ``capacities``.

    A block is routed once, through its first entry: each stretch of that
    route between the leaves (half-routes, a direct link) carries rate x
    sources x destinations, and each server's edge link the rate times its
    count of peers in the block.  Stretches become links once, at the end.
    So a pattern costs O(rack pairs) sums plus O(racks + direct links)
    expansions, and a flow line what routing it alone costs.  Blocks run
    in the sorted order of their first entries, so a routing error names
    the first failing ``src -> dst`` entry in sorted order.
    """
    # every demand is a whole number of units of 1/step
    step = lcm(*{rate.denominator for rate in matrix.demands.values()})
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
            last_rate, units = rate, rate.numerator * (step // rate.denominator)
        peers_of_src, peers_of_dst = len(dsts) - own, len(srcs) - own
        group_units[src] = group_units.get(src, 0) + units * peers_of_src
        group_units[first_dst] = group_units.get(first_dst, 0) + units * peers_of_dst
        pair_units = units * len(srcs) * peers_of_src
        for links in stretches:
            stretch_units[links] = stretch_units.get(links, 0) + pair_units

    link_units: dict[str, int] = {}
    for group, units in group_units.items():
        for link_id in edges[group]:
            link_units[link_id] = link_units.get(link_id, 0) + units
    for links, units in stretch_units.items():
        for link_id in links:
            link_units[link_id] = link_units.get(link_id, 0) + units
    links = sorted(fabric_links(table.spec, capacities), key=lambda link: link.id)
    scale = step * matrix.scale  # units per Gb/s
    rows, saturated, top = [], [], (0, 1)  # top: the highest utilization, in ints
    for link_id, _, _, kind, capacity in links:
        units = link_units.get(link_id, 0)
        over, under = units * capacity.denominator, scale * capacity.numerator  # utilization
        load, utilization = Fraction(units, scale), Fraction(over, under)
        rows.append(LinkLoad._make((link_id, kind, capacity, load, utilization)))
        if over > under:
            saturated.append(link_id)
        if over * top[1] > top[0] * under:
            top = over, under
    return LinkLoadReport(tuple(rows), Fraction(*top), tuple(saturated))


def bottlenecks(report: LinkLoadReport, top_n: int) -> list[LinkLoad]:
    """The ``top_n`` loaded links by utilization, descending.

    Ties break by ascending link id; links without load never appear.
    """
    from heapq import nlargest  # here, so only simulate pays for importing it

    loaded = sorted((row for row in report.rows if row.load > 0), key=attrgetter("link_id"))
    # ``nlargest`` is stable: rows of equal utilization keep their id order
    return nlargest(max(top_n, 0), loaded, key=attrgetter("utilization"))
