"""Flow-level traffic assignment onto resolved routes.

Demands are fluid: each matrix entry is routed along its rule-chain route
and its full rate is added to every link on the way, in exact rational
arithmetic.  Demands exceeding capacity are reported as utilization above
one, never dropped; this is an analyzer, not an admission controller.

Sums run over integer numerators scaled to the least common multiple of
the rates' denominators and are divided once at the end, which is exact
and avoids one ``Fraction`` normalisation per hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

from .errors import RoutingError, UnknownRack, in_pair
from .routing import CoreChain, RouteTable, RoutingPolicy
from .routing import resolve_route  # noqa: F401  (perfbench/traced.py wraps traffic.resolve_route)
from .topology import DeviceKind, LinkKind, NetworkGraph


def _common_denominator(rates: Iterable[Fraction]) -> int:
    return lcm(*(rate.denominator for rate in rates))


@dataclass(frozen=True)
class TrafficMatrix:
    """Sparse (src server, dst server) -> demand map in Gb/s."""

    demands: Mapping[tuple[str, str], Fraction]

    def __post_init__(self):
        frozen = {}
        for (src, dst), value in self.demands.items():
            rate = value if isinstance(value, Fraction) else Fraction(value)
            if rate < 0:
                raise ValueError(f"negative demand for {src} -> {dst}")
            frozen[(src, dst)] = rate
        object.__setattr__(self, "demands", frozen)

    def entries(self) -> list[tuple[str, str, Fraction]]:
        return [
            (src, dst, self.demands[(src, dst)])
            for src, dst in sorted(self.demands)
        ]

    def total_demand(self) -> Fraction:
        rates = self.demands.values()
        scale = _common_denominator(rates)
        return Fraction(sum(r.numerator * (scale // r.denominator) for r in rates), scale)


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


def generate_traffic(pattern: TrafficPattern, graph: NetworkGraph) -> TrafficMatrix:
    """Deterministic matrix for a named pattern (no randomness)."""
    servers = sorted(graph.nodes_of_kind(DeviceKind.SERVER), key=lambda n: n.id)
    demands: dict[tuple[str, str], Fraction] = {}

    if isinstance(pattern, UniformPattern):
        if pattern.gbps > 0:
            for src in servers:
                for dst in servers:
                    if src.id != dst.id:
                        demands[(src.id, dst.id)] = pattern.gbps
    elif isinstance(pattern, HotspotRackPattern):
        racks = {node.rack for node in graph.nodes if node.rack is not None}
        if pattern.rack not in racks:
            raise UnknownRack(pattern.rack)
        targets = [s for s in servers if s.rack == pattern.rack]
        if pattern.gbps > 0:
            for src in servers:
                if src.rack == pattern.rack:
                    continue
                for dst in targets:
                    demands[(src.id, dst.id)] = pattern.gbps
    elif isinstance(pattern, IntraRackHeavyPattern):
        intra = pattern.gbps * pattern.intra_fraction
        inter = pattern.gbps * (1 - pattern.intra_fraction)
        for src in servers:
            for dst in servers:
                if src.id == dst.id:
                    continue
                rate = intra if src.rack == dst.rack else inter
                if rate > 0:
                    demands[(src.id, dst.id)] = rate
    else:
        raise TypeError(f"unsupported traffic pattern: {pattern!r}")

    return TrafficMatrix(demands)


@dataclass(frozen=True)
class LinkLoad:
    link_id: str
    kind: LinkKind
    capacity: Fraction
    load: Fraction

    @property
    def utilization(self) -> Fraction:
        return self.load / self.capacity


@dataclass(frozen=True)
class LinkLoadReport:
    """Per-link aggregate loads, one row per link, sorted by link id."""

    rows: tuple[LinkLoad, ...]
    max_utilization: Fraction
    saturated: tuple[str, ...]
    _by_id: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {row.link_id: row for row in self.rows})

    def load_of(self, link_id: str) -> Fraction:
        return self._by_id[link_id].load


def assign(
    graph: NetworkGraph,
    matrix: TrafficMatrix,
    policy: RoutingPolicy = RoutingPolicy(),
) -> LinkLoadReport:
    """Route every demand and accumulate per-link loads.

    The result is a pure sum over matrix entries, so it is independent of
    iteration order.  Demand is summed once per edge link and once per
    core chain (leaf pair) of a shared ``RouteTable``, and spread over the
    chain's links afterwards.  Expects a graph that passes ``validate_graph``; a
    routing error names the first failing ``src -> dst`` entry in sorted
    order.
    """
    table = RouteTable(graph, policy)
    demands = [(src, dst, rate) for src, dst, rate in matrix.entries() if rate and src != dst]
    scale = _common_denominator(rate for _, _, rate in demands)
    link_units: dict[str, int] = {}  # edge links now, core links below
    core_units: dict[CoreChain, int] = {}
    for src, dst, rate in demands:
        try:
            out_link, core, in_link = table.parts(src, dst)
        except RoutingError as exc:
            raise in_pair(exc, src, dst) from exc
        units = rate.numerator * (scale // rate.denominator)
        link_units[out_link] = link_units.get(out_link, 0) + units
        link_units[in_link] = link_units.get(in_link, 0) + units
        core_units[core] = core_units.get(core, 0) + units

    for core, units in core_units.items():
        for link_id in core.links:
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
    loaded = [row for row in report.rows if row.load > 0]
    loaded.sort(key=lambda row: (-row.utilization, row.link_id))
    return loaded[: max(top_n, 0)]
