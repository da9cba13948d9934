"""Flow-level traffic assignment onto resolved routes.

Demand maps (src server, dst server) pairs to rates: flow entries, one
server sending a rate to another (``TrafficMatrix``), or blocks keyed by
their first entry, each server of a source rack sending one rate to each
server of a destination rack but itself: a traffic pattern is one block per
rack pair with demand, made from the spec alone (``RackBlocks``).  No id is
spelled here: servers are named by ``topology.server_id``, routes are read
as keys that a ``RouteTable`` of the fabric's spec resolves (see
``routing``), their links are named through ``topology``, and loads are
reported on the links that spec builds, listed by ``graph.wire``.  No graph
is built.  Demands are fluid: an entry's rate is added to every link of its
route, exactly.  Demands exceeding capacity are reported as utilization
above one, never dropped; this is an analyzer, not an admission controller.

Sums run over integer numerators scaled to the least common multiple of
the rates' denominators, per edge link, per rack and junction and per
direct link, and each link's load stays in those integer units: the
report's rows (``LinkRows``) make a ``LinkLoad`` only when one is read,
utilizations are compared as integers, and ``load_tables`` writes the
texts of each distinct (units, kind) once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat, starmap
from math import lcm
from operator import itemgetter
from typing import Mapping, NamedTuple

from .document import Table, format_ratio, format_rational
from .errors import RoutingError, ScenarioError, UnknownRack, in_pair
from .graph import wire
from .route_table import RouteTable
from .route_table import resolve_route  # noqa: F401  (perfbench/traced.py wraps traffic.resolve_route)
# The pattern records are defined with the scenario that holds them.
from .scenario import HotspotRackPattern, IntraRackHeavyPattern, TrafficPattern, UniformPattern
from .topology import FabricSpec, LinkCapacities, LinkKind, check_count, check_rate, checked
from .topology import direct_link, edge_link, link_id, server_id, uplinks

#: Most rack-pair blocks a traffic pattern may make (1,024 racks under
#: uniform traffic make 1,048,576).
DEMAND_BUDGET = 2_000_000


@checked
class TrafficMatrix(NamedTuple):
    """Sparse (src server, dst server) -> demand map: explicit flow lines,
    each entry ``demands[pair] / scale`` Gb/s, its demand
    an int or a ``Fraction`` (``scale=1000`` takes Mb/s).  The entries are
    kept as given, in their order: neither sorted nor copied."""

    demands: Mapping[tuple[str, str], int | Fraction]
    scale: int = 1

    def _checked(self) -> None:
        check_count(self.scale, "scale", minimum=1)
        demands = self.demands
        rates = demands.values()
        if not {int, Fraction}.issuperset(map(type, rates)) or min(rates, default=0) < 0:
            for (src, dst), rate in demands.items():
                if check_rate(rate, f"demand for {src} -> {dst}") < 0:
                    raise ValueError(f"negative demand for {src} -> {dst}")

    def demand_entries(self) -> int:
        return len(self.demands)

    def total_demand(self) -> Fraction:
        return Fraction(sum(self.demands.values()), self.scale)


class RackBlocks(NamedTuple):
    """Pattern demand: every server of rack ``a`` sends ``demands[first]``
    Gb/s to every server of rack ``b`` but itself, keyed and sorted by the
    block's first entry, ``first``: ``(server_id(a, 0), server_id(b, 0))``,
    or ``server_id(a, 1)`` within a rack, as ``generate_traffic`` builds it;
    ``entries`` and ``total`` count the server pairs and sum their Gb/s."""

    servers_per_rack: int
    demands: Mapping[tuple[str, str], Fraction]
    entries: int
    total: Fraction
    scale = 1  # demands are in Gb/s

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

    order = sorted((server_id(r, 0), r) for r in range(racks)) if servers else []
    demands = {}
    for src, a in order:
        for dst, b in order if sink is None else ((server_id(sink, 0), sink),):
            rate = intra if a == b else inter
            if rate and (a != b or servers > 1):
                demands[(src, dst if a != b else server_id(a, 1))] = rate
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


#: The link kinds, in the order of ``LinkCapacities``' fields, which
#: ``LinkRows`` indexes them by.
KINDS = tuple(map(LinkKind, LinkCapacities._fields))


class LinkRows:
    """``assign``'s rows, one ``LinkLoad`` per link in link id order, each
    made when it is read.  ``links`` holds each link's id and the index of
    its kind in ``KINDS``, ``units`` its load in units of 1/``scale`` Gb/s,
    and ``capacities`` each kind's capacity.  The rows compare, hash and
    print as the tuple of the ``LinkLoad``s they stand for."""

    __slots__ = ("links", "units", "scale", "capacities")

    def __init__(self, links: list, units: list[int], scale: int, capacities: LinkCapacities):
        self.links, self.units, self.scale, self.capacities = links, units, scale, capacities

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        link_id, kind = self.links[index]
        load = Fraction(self.units[index], self.scale)
        return LinkLoad(link_id, KINDS[kind], self.capacities[kind], load)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.links)))

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, LinkRows) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class LinkLoadReport(NamedTuple):
    """Per-link aggregate loads, one row per link, sorted by link id;
    ``assign`` gives its rows as a ``LinkRows``."""

    rows: tuple[LinkLoad, ...] | LinkRows
    max_utilization: Fraction
    saturated: tuple[str, ...]


def _weights(capacities: LinkCapacities) -> tuple[list[int], int]:
    """Each link kind's weight, by its index in ``KINDS``, and a whole: a
    link of a kind carrying ``units`` of 1/scale Gb/s is at the utilization
    ``units * weight / (scale * whole)``, so utilizations compare as
    integers."""
    whole = lcm(*(capacity.numerator for capacity in capacities))
    return [capacity.denominator * (whole // capacity.numerator) for capacity in capacities], whole


def _id_and_kind(kind: LinkKind, capacity: Fraction):
    """``wire``'s maker of the (id, kind index) of ``kind`` links."""
    index = repeat(KINDS.index(kind))
    return lambda ends: zip(starmap(link_id, ends), index)


def assign(
    table: RouteTable,
    matrix: TrafficMatrix | RackBlocks,
    capacities: LinkCapacities = LinkCapacities(),
) -> LinkLoadReport:
    """Route every flow or block of demand through ``table`` and accumulate
    per-link loads, one row for each link ``table.spec`` builds, at
    ``capacities``.

    An entry's route is read as keys (``RouteTable.keys``), and its rate is
    added, in integer units, to its two edge links, to its source and
    destination racks in the list of its junction, indexed by rack, and to
    its direct link, if any.  A link's load is undirected, so one list per
    junction takes both directions.  A block is routed once, through its
    first entry, which stands for its n x n server pairs between racks; each
    server's edge link then carries n entries' rate per block between racks
    and n - 1 per direction within one.  Each (rack, junction) and each
    direct link with units becomes its links once, at the end.  So a flow
    costs a handful of integer sums, a pattern O(rack pairs) of them, and
    the links O(servers + racks + direct links) expansions.  The links keep
    their units: ``max_utilization`` and ``saturated`` come from one
    integer pass over them, and the rows are a ``LinkRows``.

    Both ends of every entry must be servers; an entry with no rate, or
    from a server to itself, takes no route, so no policy fails it.
    Entries run in the order given, blocks in the sorted order of their
    first entries; when one fails, flow entries run again in sorted order,
    so a routing error names the first failing ``src -> dst`` entry in
    sorted order.
    """
    # every demand is a whole number of units of 1/step
    step = lcm(*{rate.denominator for rate in matrix.demands.values()})
    spec, flows = table.spec, isinstance(matrix, TrafficMatrix)
    # units per rack, up or down, by junction (None within a rack)
    halves = {junction: [0] * spec.num_racks for junction in (None, "switch", "nic", "olt")}
    link_units: dict[str, int] = {}  # per link: flows' edge links first
    direct_units: dict[tuple[int, int], int] = {}  # per direct link, by its racks
    entries = matrix.demands.items()
    accumulators = table, step, flows, halves, link_units, direct_units
    try:
        _add_units(entries, *accumulators)
    except RoutingError:
        if flows:  # the entries ran as given: fail on the first in sorted order
            _add_units(sorted(entries), *accumulators)
        raise

    within, weight = halves.pop(None), 1  # weight: the server pairs an entry stands for
    if not flows:
        n = matrix.servers_per_rack
        weight, servers = n * n, range(n)
        for rack, units in enumerate(within):
            units = n * sum(per_rack[rack] for per_rack in halves.values()) + (n - 1) * units
            for i in servers if units else ():
                link_units[edge_link(spec, server_id(rack, i))[1]] = units
    for junction, sums in halves.items():
        for rack, units in enumerate(sums):
            for link_id in uplinks(spec, rack, junction) if units else ():
                link_units[link_id] = link_units.get(link_id, 0) + units * weight
    for racks, units in direct_units.items():
        link_id = direct_link(spec, *racks)
        link_units[link_id] = link_units.get(link_id, 0) + units * weight
    links = sorted(wire(spec, capacities, _id_and_kind)[1], key=itemgetter(0))
    loads = [link_units.get(link_id, 0) for link_id, _ in links]
    weights, whole = _weights(capacities)
    scale = step * matrix.scale  # units per Gb/s
    full, peak, saturated = scale * whole, 0, []  # utilizations of 1 and the highest, over scale * whole
    for (link_id, kind), units in zip(links, loads):
        utilization = units * weights[kind]
        if utilization > full:
            saturated.append(link_id)
        if utilization > peak:
            peak = utilization
    rows = LinkRows(links, loads, scale, capacities)
    return LinkLoadReport(rows, Fraction(peak, full), tuple(saturated))


def _add_units(entries, table, step, flows, halves, link_units, direct_units) -> None:
    """Add each entry of ``entries`` to ``assign``'s sums, in units of
    1/``step``; raises for the first that fails, naming it."""
    keys, server = table.keys, table.server
    last_rate = None  # pattern blocks share their rate objects
    for (src, dst), rate in entries:
        try:
            if not rate or src == dst:  # no route, but both ends must be servers
                server(src), server(dst)
                continue
            out_link, _, rack_a, rack_b, junction, direct, in_link = keys(src, dst)
        except RoutingError as exc:
            raise in_pair(exc, src, dst) from exc
        if rate is not last_rate:
            last_rate, units = rate, rate.numerator * (step // rate.denominator)
        if flows:
            link_units[out_link] = link_units.get(out_link, 0) + units
            link_units[in_link] = link_units.get(in_link, 0) + units
        sums = halves[junction]
        sums[rack_a] += units
        sums[rack_b] += units
        if direct:
            direct_units[direct] = direct_units.get(direct, 0) + units


def bottlenecks(report: LinkLoadReport, top_n: int) -> list[LinkLoad]:
    """The ``top_n`` loaded links of ``assign``'s report by utilization,
    descending.

    Ties break by ascending link id; links without load never appear.
    """
    rows = report.rows
    return [rows[i] for i in _ranked(rows, top_n)]


def _ranked(rows: LinkRows, top_n: int) -> list[int]:
    """The indices of ``bottlenecks``' rows.  Utilizations compare as
    integers (``_weights``): the links at least as loaded as the
    ``top_n``-th, in link id order, then sorted by utilization, which keeps
    the id order of ties."""
    weights = _weights(rows.capacities)[0]
    keys = [units * weights[kind] for (_, kind), units in zip(rows.links, rows.units)]
    top = sorted(keys, reverse=True)[: max(top_n, 0)]
    if not top:
        return []
    least = max(top[-1], 1)  # a link without load is no bottleneck
    chosen = [i for i, key in enumerate(keys) if key >= least]
    chosen.sort(key=keys.__getitem__, reverse=True)  # stable: ties keep their id order
    return chosen[:top_n]


def load_tables(report: LinkLoadReport, top_n: int) -> tuple[Table, Table]:
    """``simulate``'s ``link_loads`` and ``bottlenecks`` tables of
    ``assign``'s report.  A row's kind, capacity, load and utilization
    texts are made once per distinct (units, kind) and shared by every
    link that has them, and a bottleneck's utilization text is its row's."""
    rows = report.rows
    scale = rows.scale
    # per kind: its texts, its capacity's denominator and scale * numerator
    kinds = [
        (kind.value, format_rational(capacity), capacity.denominator, scale * capacity.numerator)
        for kind, capacity in zip(KINDS, rows.capacities)
    ]
    texts: list[dict[int, tuple[str, str, str, str]]] = [{} for _ in KINDS]  # per kind, by units
    cells = []
    for (link_id, kind), units in zip(rows.links, rows.units):
        row = texts[kind].get(units)
        if row is None:
            kind_text, capacity_text, den, under = kinds[kind]
            load, utilization = format_ratio(units, scale), format_ratio(units * den, under)
            row = texts[kind][units] = kind_text, capacity_text, load, utilization
        cells.append((link_id, *row))
    columns = ("link", "kind", "capacity_gbps", "load_gbps", "utilization")
    top = tuple((cells[i][0], cells[i][4]) for i in _ranked(rows, top_n))
    return Table("link_loads", columns, tuple(cells)), Table("bottlenecks", ("link", "utilization"), top)
