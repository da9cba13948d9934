"""Independent oracles for the test suite.

Nothing here reuses the package's routing or assignment logic: expected
classes come from rack/group arithmetic alone, expected hop counts from a
networkx breadth-first search over the per-pair permitted subgraph, and
expected link loads from per-pair accumulation over those search paths.

``reference_find_nodes`` is the node lookup that scans every node of a
kind and filters on its rack, group, AP and gateway flag; the oracles
below look nodes up through it, so they do not share routing's lookups
with the code they check.

The per-pair reference (``reference_route``, ``reference_route_to_external``,
``reference_all_pairs`` and ``reference_assign``) is the graph walk that
routes named from the spec replaced: one chain walk per ordered server
pair, neighbour scans for every lookup, and one ``Fraction`` addition
per hop.  It looks nodes and neighbours up through ``index``, a
``GraphIndex`` of each graph, since a built graph keeps no index.
``reference_generate_traffic`` is the per-server pattern matrix that
rack-pair blocks replaced: one ``Fraction`` per ordered server pair with
demand.  The differential tests hold the package's route table and
aggregated sums to them, the block ``assign``
of a pattern to ``reference_assign`` of its per-server matrix, and the
closed-form ``all_pairs_summary`` to ``reference_all_pairs`` on the built
graph, errors included; ``outcome`` turns a raised error into a
comparable value.

``reference_format_rational`` is the ``Fraction`` arithmetic that
``render.format_rational`` replaced with integer arithmetic on the
numerator and denominator.  ``reference_render_json`` is the
``json.dumps`` call that ``render._render_json``'s row templates replaced;
``tests/test_render.py`` holds the templates to it.

``reference_parse_scenario`` and ``reference_serialize_scenario`` are the
hand-written scenario parser and serializer that the key table replaced;
the scenario differential tests hold the table to them.

``reference_census``, ``reference_validate``, ``reference_run_benchmark``,
``reference_cmd_power``, ``reference_cmd_validate`` and
``reference_scaling_sweep`` are the graph path that the closed-form
census and verdict replaced: build each fabric, validate it with
per-rack, per-group and per-AP scans, and count its nodes.
``reference_scaling_sweep`` splits racks into groups by the current
rule: zero groups fail only when there are racks, and a negative group
count is left to ``OwcPonSpec`` to reject.  The census tests hold
``device_census`` and ``validate`` on the spec, and the closed-form
pipelines and commands, to them; every test that counts a built graph
counts it with ``reference_census``.  ``reference_validate`` is the only
checker of built graphs: every test that checks a built or damaged graph
checks it with this.  ``per_node_power`` prices a built graph node by
node, the gate on the closed-form power.
"""

import json
import re
import weakref
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import networkx as nx

from ponfabric import (
    OWC_PON_CATALOG,
    PROFILES,
    TRADITIONAL_CATALOG,
    Architecture,
    DeviceKind,
    Document,
    ExplicitPairs,
    HotspotRackPattern,
    IndexMatched,
    IntraRackHeavyPattern,
    LinkCapacities,
    LinkKind,
    LinkLoad,
    LinkLoadReport,
    NetworkGraph,
    NicCountMode,
    NoDirectLinks,
    OutputFormat,
    OwcPonSpec,
    PathClass,
    PowerCatalog,
    PowerOptions,
    PowerReport,
    Route,
    RoutingPolicy,
    Scenario,
    SweepPoint,
    SweepResult,
    Table,
    TraditionalSpec,
    TrafficMatrix,
    TrafficSection,
    UniformPattern,
    Violation,
    build_owc_pon,
    build_traditional,
    format_percent,
    format_rational,
    owc_pon_power,
    power_reduction,
    resolved_catalogs,
    serialize_scenario,
    traditional_power,
)
from ponfabric.benchmark import census_table, power_table
from ponfabric.cli import EXIT_OK, EXIT_VALIDATION
from ponfabric.errors import (
    InvalidValue,
    MissingCatalogEntry,
    NoRoute,
    ParseError,
    PolicyExcluded,
    PonFabricError,
    RoutingError,
    ScenarioError,
    SpecMismatch,
    UnknownKey,
    UnknownRack,
    UnknownServer,
    ValidationFailed,
    in_pair,
)
from ponfabric.power import STRUCTURAL_KINDS, _report
from ponfabric.render import SCHEMA
from ponfabric.version import __version__
from ponfabric.traffic import TrafficPattern


def outcome(call):
    """The call's result, or the type and message of what it raised, so a
    differential test compares both sides' errors as well as their values."""
    try:
        return call()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)


def arithmetic_class_and_hops(spec, rack_a, rack_b, same_server, *, index_matched=True):
    """Expected (class, hops) for a server pair, from construction rules.

    Assumes the index-matched adjacency unless told otherwise; with no
    direct links every cross-group pair relays.
    """
    if same_server:
        return PathClass.SAME_SERVER, 0
    if rack_a == rack_b:
        return PathClass.INTRA_RACK, 2
    g1, a1 = divmod(rack_a, spec.aps_per_group)
    g2, a2 = divmod(rack_b, spec.aps_per_group)
    if g1 == g2:
        return PathClass.INTER_RACK_INTRA_GROUP, 10
    if index_matched and a1 == a2:
        return PathClass.INTER_GROUP_DIRECT, 9
    gateway_ends = int(a1 == spec.gateway_ap_index) + int(a2 == spec.gateway_ap_index)
    return PathClass.INTER_GROUP_RELAYED, 14 - 2 * gateway_ends


def to_networkx(graph) -> nx.Graph:
    g = nx.Graph()
    for node in graph.nodes:
        g.add_node(node.id)
    for link in graph.links:
        g.add_edge(link.endpoint_a, link.endpoint_b, link_id=link.id)
    return g


def _rack_side(graph, rack):
    allowed = set()
    for node in graph.nodes:
        if node.rack == rack and node.kind in (
            DeviceKind.SERVER,
            DeviceKind.LEAF_SWITCH,
            DeviceKind.RACK_TRANSCEIVER,
        ):
            allowed.add(node.id)
    return allowed


def _ap_side(graph, group, ap):
    allowed, nics = set(), set()
    for node in graph.nodes:
        if node.group == group and node.ap == ap and node.kind in (
            DeviceKind.AP_TRANSCEIVER,
            DeviceKind.NIC,
        ):
            allowed.add(node.id)
            if node.kind is DeviceKind.NIC:
                nics.add(node.id)
    return allowed, nics


def _group_side(graph, group):
    allowed = set()
    for node in graph.nodes:
        if node.group == group and node.kind is DeviceKind.OPTICAL_SWITCH:
            allowed.add(node.id)
        if node.group == group and node.kind is DeviceKind.NIC and node.is_gateway:
            allowed.add(node.id)
    return allowed


def permitted_view(graph, nxg, src, dst):
    """The subgraph a src->dst route may use, as a networkx view.

    Only the endpoints' racks and APs, their groups' optical switches and
    gateway NICs, and the OLT are reachable, and the only usable direct
    inter-group link is the one between the endpoints' own NICs.
    """
    spec = graph.spec
    rack_a, rack_b = index(graph).node(src).rack, index(graph).node(dst).rack
    allowed = {src, dst}
    allowed |= _rack_side(graph, rack_a) | _rack_side(graph, rack_b)
    endpoint_nics = set()
    groups = set()
    for rack in (rack_a, rack_b):
        group, ap = divmod(rack, spec.aps_per_group)
        groups.add(group)
        side, nics = _ap_side(graph, group, ap)
        allowed |= side
        endpoint_nics |= nics
    for group in groups:
        allowed |= _group_side(graph, group)
    allowed |= {n.id for n in index(graph).nodes_of_kind(DeviceKind.OLT)}

    forbidden_edges = []
    for link in graph.links:
        if not (index(graph).has_node(link.endpoint_a) and index(graph).has_node(link.endpoint_b)):
            continue
        a, b = index(graph).node(link.endpoint_a), index(graph).node(link.endpoint_b)
        if a.kind is DeviceKind.NIC and b.kind is DeviceKind.NIC:
            if not (link.endpoint_a in endpoint_nics and link.endpoint_b in endpoint_nics):
                forbidden_edges.append((link.endpoint_a, link.endpoint_b))

    hidden = [node for node in nxg.nodes if node not in allowed]
    return nx.restricted_view(nxg, hidden, forbidden_edges)


def oracle_hop_count(graph, nxg, src, dst) -> int:
    if src == dst:
        return 0
    return nx.shortest_path_length(permitted_view(graph, nxg, src, dst), src, dst)


def oracle_path(graph, nxg, src, dst) -> list[str]:
    return nx.shortest_path(permitted_view(graph, nxg, src, dst), src, dst)


def oracle_external_hop_count(graph, nxg, src) -> int:
    spec = graph.spec
    rack = index(graph).node(src).rack
    group, ap = divmod(rack, spec.aps_per_group)
    allowed = {src} | _rack_side(graph, rack)
    side, _ = _ap_side(graph, group, ap)
    allowed |= side | _group_side(graph, group)
    allowed |= {n.id for n in index(graph).nodes_of_kind(DeviceKind.OLT)}
    allowed |= {n.id for n in index(graph).nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)}
    hidden = [node for node in nxg.nodes if node not in allowed]
    view = nx.restricted_view(nxg, hidden, [])
    external = index(graph).nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)[0].id
    return nx.shortest_path_length(view, src, external)


def accumulate_uniform_loads(graph, rate: Fraction) -> dict[str, Fraction]:
    """Per-link loads of uniform all-to-all traffic, via search paths.

    On the default-shaped graph every permitted path is unique, so the
    breadth-first search recovers exactly the architecture's route.
    """
    nxg = to_networkx(graph)
    link_of_edge = {
        frozenset((link.endpoint_a, link.endpoint_b)): link.id for link in graph.links
    }
    servers = sorted(
        (node.id for node in index(graph).nodes_of_kind(DeviceKind.SERVER))
    )
    loads: dict[str, Fraction] = {}
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            path = oracle_path(graph, nxg, src, dst)
            for a, b in zip(path, path[1:]):
                link_id = link_of_edge[frozenset((a, b))]
                loads[link_id] = loads.get(link_id, Fraction(0)) + rate
    return loads


# --- node and adjacency index -------------------------------------------------


class GraphIndex:
    """Lookups by node id and by neighbour on a built graph, which keeps no
    index of its own.  Adjacency skips links whose endpoints are missing."""

    def __init__(self, graph: NetworkGraph):
        self._by_id = {node.id: node for node in graph.nodes}
        self._by_kind: dict[DeviceKind, list] = {kind: [] for kind in DeviceKind}
        for node in graph.nodes:
            self._by_kind[node.kind].append(node)
        self._adjacency: dict[str, list] = {node_id: [] for node_id in self._by_id}
        for link in graph.links:
            a, b = link.endpoint_a, link.endpoint_b
            if a in self._adjacency and b in self._adjacency:
                self._adjacency[a].append((self._by_id[b], link))
                self._adjacency[b].append((self._by_id[a], link))

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def node(self, node_id: str):
        return self._by_id[node_id]

    def nodes_of_kind(self, kind: DeviceKind) -> tuple:
        return tuple(self._by_kind[kind])

    def neighbors(self, node_id: str) -> tuple:
        """(node, link) for each link at ``node_id``, in link order."""
        return tuple(self._adjacency.get(node_id, ()))

    def link_between(self, a: str, b: str):
        """The first link joining ``a`` and ``b`` in adjacency order, if any."""
        return next((link for other, link in self._adjacency.get(a, ()) if other.id == b), None)


_INDEXES: "weakref.WeakKeyDictionary[NetworkGraph, GraphIndex]" = weakref.WeakKeyDictionary()


def index(graph: NetworkGraph) -> GraphIndex:
    """``graph``'s index, built on first use."""
    found = _INDEXES.get(graph)
    if found is None:
        found = _INDEXES[graph] = GraphIndex(graph)
    return found


# --- node lookup by scan ------------------------------------------------------


def reference_find_nodes(
    graph: NetworkGraph,
    kind: DeviceKind,
    *,
    rack: int | None = None,
    group: int | None = None,
    ap: int | None = None,
    gateway: bool | None = None,
) -> tuple:
    """Nodes of ``kind`` matching every given attribute filter."""
    out = []
    for node in index(graph).nodes_of_kind(kind):
        if rack is not None and node.rack != rack:
            continue
        if group is not None and node.group != group:
            continue
        if ap is not None and node.ap != ap:
            continue
        if gateway is not None and node.is_gateway != gateway:
            continue
        out.append(node)
    return tuple(out)


# --- per-pair reference resolver ---------------------------------------------


def _server(graph, node_id):
    if not index(graph).has_node(node_id):
        raise UnknownServer(node_id)
    node = index(graph).node(node_id)
    if node.kind is not DeviceKind.SERVER:
        raise UnknownServer(node_id)
    return node


def _sole(nodes, what):
    if not nodes:
        raise NoRoute(f"graph has no {what}")
    return min(nodes, key=lambda n: n.id)


def _scan_link(graph, a, b):
    """First link from ``a`` to ``b`` in adjacency order, by a full scan."""
    for other, link in index(graph).neighbors(a):
        if other.id == b:
            return link
    return None


def _leaf_of(graph, server):
    for other, _ in index(graph).neighbors(server.id):
        if other.kind is DeviceKind.LEAF_SWITCH:
            return other
    raise NoRoute(f"server {server.id} is not wired to a leaf switch")


def _neighbours_of_kind(graph, node, kind):
    return tuple(other for other, _ in index(graph).neighbors(node.id) if other.kind is kind)


def _uplink_of(graph, leaf):
    rtx = _sole(
        _neighbours_of_kind(graph, leaf, DeviceKind.RACK_TRANSCEIVER),
        f"rooftop transceiver on {leaf.id}",
    )
    atx = _sole(
        _neighbours_of_kind(graph, rtx, DeviceKind.AP_TRANSCEIVER),
        f"AP transceiver beamed from {rtx.id}",
    )
    nic = _sole(_neighbours_of_kind(graph, atx, DeviceKind.NIC), f"NIC behind {atx.id}")
    return rtx, atx, nic


def _group_switch(graph, group):
    return _sole(
        reference_find_nodes(graph, DeviceKind.OPTICAL_SWITCH, group=group),
        f"optical switch in group {group}",
    )


def _gateway_nic(graph, group):
    return _sole(
        reference_find_nodes(graph, DeviceKind.NIC, group=group, gateway=True),
        f"gateway NIC in group {group}",
    )


def _chain(graph, node_ids, path_class):
    links = []
    for a, b in zip(node_ids, node_ids[1:]):
        link = _scan_link(graph, a, b)
        if link is None:
            raise NoRoute(f"missing link {a} -- {b}")
        links.append(link.id)
    return Route(tuple(node_ids), tuple(links), path_class)


def reference_route(graph, src, dst, policy=RoutingPolicy()):
    """The rule-chain route of one server pair, with nothing memoised."""
    a = _server(graph, src)
    b = _server(graph, dst)
    if src == dst:
        return Route((src,), (), PathClass.SAME_SERVER)

    leaf_a = _leaf_of(graph, a)
    if a.rack == b.rack:
        return _chain(graph, [src, leaf_a.id, dst], PathClass.INTRA_RACK)

    if graph.architecture is Architecture.TRADITIONAL:
        raise NoRoute("inter-rack paths are only modeled for the optical-wireless fabric")

    rtx_a, atx_a, nic_a = _uplink_of(graph, leaf_a)
    ascent = [src, leaf_a.id, rtx_a.id, atx_a.id, nic_a.id]
    leaf_b = _leaf_of(graph, b)
    rtx_b, atx_b, nic_b = _uplink_of(graph, leaf_b)
    descent = [nic_b.id, atx_b.id, rtx_b.id, leaf_b.id, dst]
    group_a, group_b = atx_a.group, nic_b.group

    if group_a == group_b:
        switch = _group_switch(graph, group_a)
        return _chain(graph, ascent + [switch.id] + descent, PathClass.INTER_RACK_INTRA_GROUP)

    if not policy.prefer_direct_inter_group and not policy.allow_relay_fallback:
        raise PolicyExcluded("both inter-group mechanisms are disabled")

    direct = _scan_link(graph, nic_a.id, nic_b.id)
    if direct is not None and policy.prefer_direct_inter_group:
        return _chain(graph, ascent + descent, PathClass.INTER_GROUP_DIRECT)
    if not policy.allow_relay_fallback:
        raise PolicyExcluded(
            f"no direct link between the APs of {src} and {dst}, "
            "and relay fallback is disabled"
        )

    olt = _sole(index(graph).nodes_of_kind(DeviceKind.OLT), "OLT")
    middle = []
    if not nic_a.is_gateway:
        middle += [_group_switch(graph, group_a).id, _gateway_nic(graph, group_a).id]
    middle.append(olt.id)
    if not nic_b.is_gateway:
        middle += [_gateway_nic(graph, group_b).id, _group_switch(graph, group_b).id]
    return _chain(graph, ascent + middle + descent, PathClass.INTER_GROUP_RELAYED)


def reference_route_to_external(graph, src):
    """The rule-chain route from one server to the external gateway: up to
    the OLT through the group's gateway NIC unless the AP is the gateway."""
    a = _server(graph, src)
    if graph.architecture is Architecture.TRADITIONAL:
        raise NoRoute("the traditional fabric has no modeled external gateway")
    external = _sole(index(graph).nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY), "external gateway")
    olt = _sole(index(graph).nodes_of_kind(DeviceKind.OLT), "OLT")
    leaf = _leaf_of(graph, a)
    rtx, atx, nic = _uplink_of(graph, leaf)
    middle = []
    if not nic.is_gateway:
        middle += [_group_switch(graph, atx.group).id, _gateway_nic(graph, atx.group).id]
    chain = [src, leaf.id, rtx.id, atx.id, nic.id, *middle, olt.id, external.id]
    return _chain(graph, chain, PathClass.EXTERNAL)


def reference_all_pairs(graph, policy=RoutingPolicy()):
    """(class, hop count) histogram by resolving every ordered server pair."""
    servers = sorted(node.id for node in index(graph).nodes_of_kind(DeviceKind.SERVER))
    histogram = Counter()
    for src in servers:
        for dst in servers:
            route = reference_route(graph, src, dst, policy)
            histogram[(route.path_class, route.hop_count)] += 1
    return dict(histogram)


def reference_generate_traffic(pattern: TrafficPattern, graph: NetworkGraph) -> TrafficMatrix:
    """Deterministic matrix for a named pattern (no randomness)."""
    servers = sorted(index(graph).nodes_of_kind(DeviceKind.SERVER), key=lambda n: n.id)
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


def reference_assign(graph, matrix, policy=RoutingPolicy()):
    """Link loads by routing each demand entry and adding its rate per hop."""
    loads = {}
    for (src, dst), rate in sorted(matrix.demands.items()):
        if rate == 0 or src == dst:
            continue
        try:
            route = reference_route(graph, src, dst, policy)
        except RoutingError as exc:
            raise in_pair(exc, src, dst) from exc
        for link_id in route.links:
            loads[link_id] = loads.get(link_id, Fraction(0)) + rate

    rows = tuple(
        LinkLoad(link.id, link.kind, link.capacity, loads.get(link.id, Fraction(0)))
        for link in sorted(graph.links, key=lambda l: l.id)
    )
    max_utilization = max((row.utilization for row in rows), default=Fraction(0))
    saturated = tuple(row.link_id for row in rows if row.utilization > 1)
    return LinkLoadReport(rows, max_utilization, saturated)


def reference_render_json(doc: Document) -> str:
    payload = {
        "schema": SCHEMA,
        "title": doc.title,
        "meta": {key: value for key, value in doc.meta},
        "tables": {
            table.name: [dict(zip(table.columns, row)) for row in table.rows]
            for table in doc.tables
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_format_rational(value: Fraction) -> str:
    """Exact decimal when the value terminates, ``p/q`` otherwise."""
    value = Fraction(value)
    if value == 0:
        return "0"
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value * 10**digits
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(int(scaled)), 10**digits)
    if digits == 0 or frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits).rstrip('0')}"


# --- scenario parser and serializer -------------------------------------------
#
# The hand-written ``parse_scenario``/``serialize_scenario`` that the
# declarative key table in ``ponfabric.scenario`` replaced, kept verbatim
# (helpers included) as the reference for the differential tests.

_SECTIONS = ("architecture", "options", "catalog", "traffic")

_ARCHITECTURE_KEYS = frozenset(
    {
        "select",
        "traditional.spines",
        "traditional.racks",
        "traditional.servers_per_rack",
        "owcpon.racks",
        "owcpon.servers_per_rack",
        "owcpon.groups",
        "owcpon.aps_per_group",
        "owcpon.adjacency",
        "owcpon.pairs",
        "owcpon.gateway_ap",
        "owcpon.transceiver_multiplier",
        "capacity.wired",
        "capacity.owc",
        "capacity.fiber",
    }
)

_OPTIONS_KEYS = frozenset(
    {
        "profile",
        "include_owc_transceivers",
        "include_server_transceivers",
        "nic_count_mode",
        "prefer_direct_inter_group",
        "relay_fallback",
        "format",
    }
)

#: Catalog keys map to the device kinds they override; ``owc_transceiver``
#: is shorthand for both free-space transceiver kinds.  Structural kinds
#: (servers, the external gateway) are never priced, so they are not
#: overridable.
CATALOG_KEYS: dict[str, tuple[DeviceKind, ...]] = {
    **{
        kind.value: (kind,)
        for kind in DeviceKind
        if kind not in (DeviceKind.SERVER, DeviceKind.EXTERNAL_GATEWAY)
    },
    "owc_transceiver": (DeviceKind.RACK_TRANSCEIVER, DeviceKind.AP_TRANSCEIVER),
}

_TRAFFIC_KEYS = frozenset({"pattern", "flow"})

_DECIMAL_RE = re.compile(r"^\d+(\.\d{1,3})?$")
_PAIR_RE = re.compile(r"^(\d+)\.(\d+)-(\d+)\.(\d+)$")


def _scan(text: str):
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    flows: list[tuple[str, int]] = []
    section: str | None = None
    allowed = {
        "architecture": _ARCHITECTURE_KEYS,
        "options": _OPTIONS_KEYS,
        "catalog": frozenset(CATALOG_KEYS),
        "traffic": _TRAFFIC_KEYS,
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise UnknownKey(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ParseError("key outside any section", lineno)
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError("expected 'key = value'", lineno)
        if not value:
            raise ParseError(f"empty value for '{key}'", lineno)
        if key not in allowed[section]:
            raise UnknownKey(f"unknown key '{key}' in [{section}]", lineno)
        if section == "traffic" and key == "flow":
            flows.append((value, lineno))
            continue
        if (section, key) in entries:
            raise ParseError(f"duplicate key '{key}'", lineno)
        entries[(section, key)] = (value, lineno)
    return entries, flows


def _parse_int(value: str, lineno: int, minimum: int = 0) -> int:
    if not re.fullmatch(r"-?\d+", value):
        raise InvalidValue(f"expected an integer, got {value!r}", lineno)
    number = int(value)
    if number < minimum:
        raise InvalidValue(f"value must be >= {minimum}, got {number}", lineno)
    return number


def _parse_bool(value: str, lineno: int) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise InvalidValue(f"expected 'true' or 'false', got {value!r}", lineno)


def _parse_decimal(value: str, lineno: int) -> Fraction:
    if not _DECIMAL_RE.fullmatch(value):
        raise InvalidValue(
            f"expected a non-negative decimal with at most 3 fractional digits, got {value!r}",
            lineno,
        )
    return Fraction(value)


def _parse_choice(value: str, lineno: int, choices: dict):
    if value not in choices:
        raise InvalidValue(
            f"expected one of {sorted(choices)}, got {value!r}", lineno
        )
    return choices[value]


class _Entries:
    """Typed access to scanned key-value pairs."""

    def __init__(self, entries):
        self._entries = entries

    def raw(self, section: str, key: str) -> tuple[str, int] | None:
        return self._entries.get((section, key))

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self._entries

    def integer(self, section, key, default, minimum=0):
        found = self.raw(section, key)
        if found is None:
            return default
        return _parse_int(found[0], found[1], minimum)

    def boolean(self, section, key, default):
        found = self.raw(section, key)
        if found is None:
            return default
        return _parse_bool(found[0], found[1])

    def decimal(self, section, key, default: Fraction) -> Fraction:
        found = self.raw(section, key)
        if found is None:
            return default
        return _parse_decimal(found[0], found[1])

    def choice(self, section, key, default, choices: dict):
        found = self.raw(section, key)
        if found is None:
            return default
        return _parse_choice(found[0], found[1], choices)


def _parse_pairs(value: str, lineno: int) -> ExplicitPairs:
    pairs = []
    for item in (part.strip() for part in value.split(",")):
        match = _PAIR_RE.fullmatch(item)
        if match is None:
            raise InvalidValue(
                f"expected pairs like '0.0-1.2' (group.ap-group.ap), got {item!r}",
                lineno,
            )
        g1, a1, g2, a2 = (int(part) for part in match.groups())
        pairs.append(((g1, a1), (g2, a2)))
    return ExplicitPairs(tuple(pairs))


def _parse_pattern(value: str, lineno: int) -> TrafficPattern:
    tokens = value.split()
    try:
        if tokens[0] == "uniform" and len(tokens) == 2:
            return UniformPattern(_parse_decimal(tokens[1], lineno))
        if tokens[0] == "hotspot_rack" and len(tokens) == 3:
            return HotspotRackPattern(
                _parse_int(tokens[1], lineno), _parse_decimal(tokens[2], lineno)
            )
        if tokens[0] == "intra_rack_heavy" and len(tokens) == 3:
            fraction = _parse_decimal(tokens[1], lineno)
            if fraction > 1:
                raise InvalidValue("intra fraction must be within [0, 1]", lineno)
            return IntraRackHeavyPattern(fraction, _parse_decimal(tokens[2], lineno))
    except IndexError:
        pass
    raise InvalidValue(
        "expected 'uniform <gbps>', 'hotspot_rack <rack> <gbps>', or "
        "'intra_rack_heavy <fraction> <gbps>'",
        lineno,
    )


def _watts_to_milliwatts(value: str, lineno: int) -> int:
    watts = _parse_decimal(value, lineno)
    milliwatts = watts * 1000
    return int(milliwatts)


def reference_parse_scenario(text: str) -> Scenario:
    """The hand-written parser the key table replaced.

    A file holding only ``profile = reproduction`` under ``[options]``
    resolves to the complete benchmark scenario; an empty file is an
    error because nothing selects an architecture.
    """
    entries, raw_flows = _scan(text)
    table = _Entries(entries)

    profile_entry = table.raw("options", "profile")
    options = PowerOptions()
    if profile_entry is not None:
        value, lineno = profile_entry
        if value not in PROFILES:
            raise InvalidValue(
                f"unknown profile {value!r}; named profiles: {sorted(PROFILES)}", lineno
            )
        options = PROFILES[value]

    select_entry = table.raw("architecture", "select")
    if select_entry is not None:
        selection = _parse_choice(
            select_entry[0],
            select_entry[1],
            {
                "traditional": (Architecture.TRADITIONAL,),
                "owcpon": (Architecture.OWC_PON,),
                "both": (Architecture.TRADITIONAL, Architecture.OWC_PON),
            },
        )
    elif profile_entry is not None:
        selection = (Architecture.TRADITIONAL, Architecture.OWC_PON)
    else:
        raise ParseError(
            "architecture selector required: set [architecture] select "
            "or pick an [options] profile"
        )

    options = options._replace(
        include_owc_transceivers=table.boolean(
            "options", "include_owc_transceivers", options.include_owc_transceivers
        ),
        include_server_transceivers=table.boolean(
            "options",
            "include_server_transceivers",
            options.include_server_transceivers,
        ),
        nic_count_mode=table.choice(
            "options",
            "nic_count_mode",
            options.nic_count_mode,
            {mode.value: mode for mode in NicCountMode},
        ),
    )
    policy = RoutingPolicy(
        prefer_direct_inter_group=table.boolean(
            "options", "prefer_direct_inter_group", True
        ),
        allow_relay_fallback=table.boolean("options", "relay_fallback", True),
    )
    out_format = table.choice(
        "options",
        "format",
        OutputFormat.TABLE,
        {fmt.value: fmt for fmt in OutputFormat},
    )

    traditional = TraditionalSpec(
        num_spine=table.integer("architecture", "traditional.spines", 8),
        num_racks=table.integer("architecture", "traditional.racks", 8),
        servers_per_rack=table.integer("architecture", "traditional.servers_per_rack", 8),
    )

    adjacency = table.choice(
        "architecture",
        "owcpon.adjacency",
        "index_matched",
        {"index_matched": "index_matched", "none": "none", "explicit": "explicit"},
    )
    pairs_entry = table.raw("architecture", "owcpon.pairs")
    if adjacency == "explicit":
        if pairs_entry is None:
            raise InvalidValue("owcpon.pairs is required when adjacency = explicit")
        adjacency_obj = _parse_pairs(*pairs_entry)
    else:
        if pairs_entry is not None:
            raise InvalidValue(
                "owcpon.pairs is only valid with adjacency = explicit", pairs_entry[1]
            )
        adjacency_obj = IndexMatched() if adjacency == "index_matched" else NoDirectLinks()

    owcpon = OwcPonSpec(
        num_racks=table.integer("architecture", "owcpon.racks", 8),
        servers_per_rack=table.integer("architecture", "owcpon.servers_per_rack", 8),
        num_groups=table.integer("architecture", "owcpon.groups", 2),
        aps_per_group=table.integer("architecture", "owcpon.aps_per_group", 4),
        adjacency=adjacency_obj,
        gateway_ap_index=table.integer("architecture", "owcpon.gateway_ap", 0),
        transceiver_multiplier=table.integer(
            "architecture", "owcpon.transceiver_multiplier", 1, minimum=1
        ),
    )

    capacities = {}
    for name, default in (("wired", Fraction(10)), ("owc", Fraction(10)), ("fiber", Fraction(40))):
        value = table.decimal("architecture", f"capacity.{name}", default)
        found = table.raw("architecture", f"capacity.{name}")
        if value <= 0:
            raise InvalidValue(
                f"capacity.{name} must be positive", found[1] if found else None
            )
        capacities[name] = value
    link_capacities = LinkCapacities(**capacities)

    overrides: dict[str, int] = {}
    for key, kinds in CATALOG_KEYS.items():
        found = table.raw("catalog", key)
        if found is None:
            continue
        milliwatts = _watts_to_milliwatts(*found)
        for kind in kinds:
            if kind.value in overrides:
                raise InvalidValue(
                    f"'{key}' collides with an earlier override of {kind.value}",
                    found[1],
                )
            overrides[kind.value] = milliwatts

    pattern_entry = table.raw("traffic", "pattern")
    flows: dict[tuple[str, str], Fraction] = {}
    for value, lineno in raw_flows:
        tokens = value.split()
        if len(tokens) != 3:
            raise InvalidValue("expected 'flow = <src> <dst> <gbps>'", lineno)
        src, dst, rate = tokens[0], tokens[1], _parse_decimal(tokens[2], lineno)
        flows[(src, dst)] = flows.get((src, dst), Fraction(0)) + rate
    if pattern_entry is not None and flows:
        raise InvalidValue(
            "a traffic section takes either a pattern or flow lines, not both",
            pattern_entry[1],
        )
    traffic: TrafficSection | None = None
    if pattern_entry is not None:
        traffic = TrafficSection(pattern=_parse_pattern(*pattern_entry))
    elif flows:
        traffic = TrafficSection(
            flows=tuple((src, dst, flows[(src, dst)]) for src, dst in sorted(flows))
        )

    return Scenario(
        architectures=selection,
        traditional=traditional,
        owcpon=owcpon,
        capacities=link_capacities,
        options=options,
        policy=policy,
        catalog_overrides=tuple(sorted(overrides.items())),
        traffic=traffic,
        out_format=out_format,
    )


def format_decimal(value: Fraction) -> str:
    """Canonical decimal text for an exact multiple of 1/1000."""
    milli = value * 1000
    if milli.denominator != 1:
        raise ValueError(f"{value} is not representable with 3 fractional digits")
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(int(milli)), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(3).rstrip('0')}"


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def reference_serialize_scenario(scenario: Scenario) -> str:
    """The hand-written serializer the key table replaced."""
    if len(scenario.architectures) == 2:
        select = "both"
    else:
        select = scenario.architectures[0].value

    spec = scenario.owcpon
    if isinstance(spec.adjacency, IndexMatched):
        adjacency = "index_matched"
    elif isinstance(spec.adjacency, NoDirectLinks):
        adjacency = "none"
    else:
        adjacency = "explicit"

    lines = [
        "[architecture]",
        f"select = {select}",
        f"traditional.spines = {scenario.traditional.num_spine}",
        f"traditional.racks = {scenario.traditional.num_racks}",
        f"traditional.servers_per_rack = {scenario.traditional.servers_per_rack}",
        f"owcpon.racks = {spec.num_racks}",
        f"owcpon.servers_per_rack = {spec.servers_per_rack}",
        f"owcpon.groups = {spec.num_groups}",
        f"owcpon.aps_per_group = {spec.aps_per_group}",
        f"owcpon.adjacency = {adjacency}",
    ]
    if isinstance(spec.adjacency, ExplicitPairs):
        rendered = ", ".join(
            f"{g1}.{a1}-{g2}.{a2}" for (g1, a1), (g2, a2) in spec.adjacency.pairs
        )
        lines.append(f"owcpon.pairs = {rendered}")
    lines += [
        f"owcpon.gateway_ap = {spec.gateway_ap_index}",
        f"owcpon.transceiver_multiplier = {spec.transceiver_multiplier}",
        f"capacity.wired = {format_decimal(scenario.capacities.wired)}",
        f"capacity.owc = {format_decimal(scenario.capacities.owc)}",
        f"capacity.fiber = {format_decimal(scenario.capacities.fiber)}",
        "",
        "[options]",
        f"include_owc_transceivers = {_bool_text(scenario.options.include_owc_transceivers)}",
        f"include_server_transceivers = {_bool_text(scenario.options.include_server_transceivers)}",
        f"nic_count_mode = {scenario.options.nic_count_mode.value}",
        f"prefer_direct_inter_group = {_bool_text(scenario.policy.prefer_direct_inter_group)}",
        f"relay_fallback = {_bool_text(scenario.policy.allow_relay_fallback)}",
        f"format = {scenario.out_format.value}",
    ]

    if scenario.catalog_overrides:
        lines += ["", "[catalog]"]
        for key, milliwatts in scenario.catalog_overrides:
            lines.append(f"{key} = {format_decimal(Fraction(milliwatts, 1000))}")

    if scenario.traffic is not None:
        lines += ["", "[traffic]"]
        pattern = scenario.traffic.pattern
        if isinstance(pattern, UniformPattern):
            lines.append(f"pattern = uniform {format_decimal(pattern.gbps)}")
        elif isinstance(pattern, HotspotRackPattern):
            lines.append(
                f"pattern = hotspot_rack {pattern.rack} {format_decimal(pattern.gbps)}"
            )
        elif isinstance(pattern, IntraRackHeavyPattern):
            lines.append(
                "pattern = intra_rack_heavy "
                f"{format_decimal(pattern.intra_fraction)} {format_decimal(pattern.gbps)}"
            )
        for src, dst, rate in scenario.traffic.flows:
            lines.append(f"flow = {src} {dst} {format_decimal(rate)}")

    return "\n".join(lines) + "\n"


# --- the graph path that the closed form replaced ---------------------------
#
# ``reference_census`` counts a built graph's nodes and
# ``reference_validate`` is the scan-per-rack/group/AP validator; the
# pipelines below build and validate full graphs and count their nodes,
# as ``run_benchmark``, ``scaling_sweep`` and the ``power``, ``validate``
# and ``build`` commands did before they worked from the specs.


def reference_census(graph: NetworkGraph) -> dict[DeviceKind, int]:
    """Exact node count per device kind of a built graph."""
    counts = Counter(node.kind for node in graph.nodes)
    return {kind: counts.get(kind, 0) for kind in DeviceKind}


def links_between(graph: NetworkGraph, a: str, b: str) -> list:
    """Every link joining ``a`` and ``b``, in ``a``'s adjacency order."""
    return [link for other, link in index(graph).neighbors(a) if other.id == b]


def _check_endpoints(graph: NetworkGraph, out: list[Violation]) -> None:
    for link in graph.links:
        for endpoint in (link.endpoint_a, link.endpoint_b):
            if not index(graph).has_node(endpoint):
                out.append(
                    Violation(
                        "dangling_link",
                        f"link:{link.id}",
                        f"link {link.id!r} references missing node {endpoint!r}",
                    )
                )


def _check_rack(graph: NetworkGraph, rack: int, servers_expected: int, out) -> None:
    leaves = reference_find_nodes(graph, DeviceKind.LEAF_SWITCH, rack=rack)
    if len(leaves) != 1:
        code = "missing_leaf" if not leaves else "duplicate_leaf"
        out.append(Violation(code, f"rack:{rack}", f"rack {rack} has {len(leaves)} leaf switches"))
        return
    leaf = leaves[0]
    servers = reference_find_nodes(graph, DeviceKind.SERVER, rack=rack)
    if len(servers) != servers_expected:
        out.append(
            Violation(
                "server_count",
                f"rack:{rack}",
                f"rack {rack} has {len(servers)} servers, expected {servers_expected}",
            )
        )
    for server in servers:
        txrx_id = f"{server.id}/txrx"
        if not index(graph).has_node(txrx_id) or index(graph).node(txrx_id).kind is not DeviceKind.SERVER_TRANSCEIVER:
            out.append(
                Violation(
                    "missing_server_transceiver",
                    server.id,
                    f"server {server.id} has no transceiver node",
                )
            )
        wired = [
            link
            for link in links_between(graph, server.id, leaf.id)
            if link.kind is LinkKind.WIRED
        ]
        if len(wired) != 1:
            out.append(
                Violation(
                    "server_wiring",
                    server.id,
                    f"server {server.id} has {len(wired)} wired links to its leaf",
                )
            )


def _check_rack_transceivers(graph: NetworkGraph, spec: OwcPonSpec, out) -> None:
    expected = spec.transceiver_multiplier
    for rack in range(spec.num_racks):
        rtxs = reference_find_nodes(graph, DeviceKind.RACK_TRANSCEIVER, rack=rack)
        if len(rtxs) != expected:
            code = (
                "missing_rack_transceiver"
                if len(rtxs) < expected
                else "extra_rack_transceiver"
            )
            out.append(
                Violation(
                    code,
                    f"rack:{rack}",
                    f"rack {rack} has {len(rtxs)} rooftop transceivers, expected {expected}",
                )
            )
            continue
        g, a = divmod(rack, spec.aps_per_group)
        leaves = reference_find_nodes(graph, DeviceKind.LEAF_SWITCH, rack=rack)
        for rtx in rtxs:
            if leaves and not any(
                link.kind is LinkKind.WIRED
                for link in links_between(graph, rtx.id, leaves[0].id)
            ):
                out.append(
                    Violation(
                        "rack_uplink",
                        rtx.id,
                        f"{rtx.id} is not wired to its leaf switch",
                    )
                )
            lands_on_ap = [
                link
                for other, link in index(graph).neighbors(rtx.id)
                if link.kind is LinkKind.OWC
                and other.kind is DeviceKind.AP_TRANSCEIVER
                and other.group == g
                and other.ap == a
            ]
            if len(lands_on_ap) != 1:
                out.append(
                    Violation(
                        "owc_wiring",
                        rtx.id,
                        f"{rtx.id} has {len(lands_on_ap)} free-space links to its AP",
                    )
                )


def _check_groups(graph: NetworkGraph, spec: OwcPonSpec, out) -> None:
    olts = index(graph).nodes_of_kind(DeviceKind.OLT)
    for g in range(spec.num_groups):
        switches = reference_find_nodes(graph, DeviceKind.OPTICAL_SWITCH, group=g)
        if len(switches) != 1:
            code = "missing_optical_switch" if not switches else "duplicate_optical_switch"
            out.append(
                Violation(
                    code,
                    f"group:{g}",
                    f"group {g} has {len(switches)} optical switches",
                )
            )
        switch = switches[0] if len(switches) == 1 else None

        for a in range(spec.aps_per_group):
            nics = reference_find_nodes(graph, DeviceKind.NIC, group=g, ap=a)
            if len(nics) != 1:
                code = "missing_ap_nic" if not nics else "duplicate_ap_nic"
                out.append(
                    Violation(
                        code,
                        f"group:{g}/ap:{a}",
                        f"AP {a} of group {g} has {len(nics)} NICs",
                    )
                )
                continue
            nic = nics[0]
            atxs = reference_find_nodes(graph, DeviceKind.AP_TRANSCEIVER, group=g, ap=a)
            if len(atxs) != spec.transceiver_multiplier:
                out.append(
                    Violation(
                        "ap_transceiver_count",
                        f"group:{g}/ap:{a}",
                        f"AP {a} of group {g} has {len(atxs)} transceivers, "
                        f"expected {spec.transceiver_multiplier}",
                    )
                )
            for atx in atxs:
                if index(graph).link_between(atx.id, nic.id) is None:
                    out.append(
                        Violation(
                            "ap_wiring",
                            atx.id,
                            f"{atx.id} has no fiber link to its NIC",
                        )
                    )
            if switch is not None:
                to_switch = links_between(graph, nic.id, switch.id)
                if len(to_switch) != 1:
                    out.append(
                        Violation(
                            "orphan_nic",
                            nic.id,
                            f"{nic.id} has {len(to_switch)} links to its group's "
                            "optical switch, expected 1",
                        )
                    )

        gateways = reference_find_nodes(graph, DeviceKind.NIC, group=g, gateway=True)
        if len(gateways) != 1:
            code = "missing_gateway" if not gateways else "duplicate_gateway"
            out.append(
                Violation(
                    code,
                    f"group:{g}",
                    f"group {g} has {len(gateways)} gateway NICs",
                )
            )
        elif len(olts) == 1:
            if index(graph).link_between(gateways[0].id, olts[0].id) is None:
                out.append(
                    Violation(
                        "missing_olt_uplink",
                        f"group:{g}",
                        f"gateway NIC of group {g} has no link to the OLT",
                    )
                )


def _check_backhaul_core(graph: NetworkGraph, spec: OwcPonSpec, out) -> None:
    olts = index(graph).nodes_of_kind(DeviceKind.OLT)
    if len(olts) != 1:
        code = "missing_olt" if not olts else "duplicate_olt"
        out.append(Violation(code, "olt", f"graph has {len(olts)} OLT nodes"))
    externals = index(graph).nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)
    if len(externals) != 1:
        code = "missing_external" if not externals else "duplicate_external"
        out.append(
            Violation(code, "external", f"graph has {len(externals)} external gateways")
        )
    if len(olts) == 1 and len(externals) == 1:
        if index(graph).link_between(olts[0].id, externals[0].id) is None:
            out.append(
                Violation(
                    "missing_external_uplink",
                    "olt",
                    "the OLT has no link to the external gateway",
                )
            )

    for link in graph.links:
        if link.kind is not LinkKind.OWC:
            continue
        kinds = set()
        for endpoint in (link.endpoint_a, link.endpoint_b):
            if index(graph).has_node(endpoint):
                kinds.add(index(graph).node(endpoint).kind)
        if kinds != {DeviceKind.RACK_TRANSCEIVER, DeviceKind.AP_TRANSCEIVER}:
            out.append(
                Violation(
                    "bad_owc_endpoints",
                    f"link:{link.id}",
                    "free-space links must pair a rooftop transceiver with an AP transceiver",
                )
            )

    for link in graph.links:
        if link.kind is not LinkKind.FIBER:
            continue
        if not (index(graph).has_node(link.endpoint_a) and index(graph).has_node(link.endpoint_b)):
            continue
        a, b = index(graph).node(link.endpoint_a), index(graph).node(link.endpoint_b)
        if a.kind is DeviceKind.NIC and b.kind is DeviceKind.NIC and a.group == b.group:
            out.append(
                Violation(
                    "same_group_direct_link",
                    f"link:{link.id}",
                    "direct NIC-to-NIC links must cross groups",
                )
            )


def _check_spine_mesh(graph: NetworkGraph, spec: TraditionalSpec, out) -> None:
    spines = index(graph).nodes_of_kind(DeviceKind.SPINE_SWITCH)
    if len(spines) != spec.num_spine:
        out.append(
            Violation(
                "spine_count",
                "spine",
                f"graph has {len(spines)} spine switches, expected {spec.num_spine}",
            )
        )
    for rack in range(spec.num_racks):
        leaves = reference_find_nodes(graph, DeviceKind.LEAF_SWITCH, rack=rack)
        if len(leaves) != 1:
            continue  # already reported by the rack check
        for spine in spines:
            count = len(links_between(graph, leaves[0].id, spine.id))
            if count != 1:
                out.append(
                    Violation(
                        "spine_mesh",
                        f"rack:{rack}",
                        f"leaf of rack {rack} has {count} links to {spine.id}",
                    )
                )


def _check_connected(graph: NetworkGraph, out) -> None:
    # Server transceivers are linkless accounting nodes; reachability is
    # asserted over everything else.
    relevant = [n.id for n in graph.nodes if n.kind is not DeviceKind.SERVER_TRANSCEIVER]
    if not relevant:
        return
    seen = {relevant[0]}
    queue = deque([relevant[0]])
    while queue:
        current = queue.popleft()
        for other, _ in index(graph).neighbors(current):
            if other.id not in seen:
                seen.add(other.id)
                queue.append(other.id)
    unreachable = [node_id for node_id in relevant if node_id not in seen]
    if unreachable:
        out.append(
            Violation(
                "disconnected",
                unreachable[0],
                f"{len(unreachable)} nodes unreachable from {relevant[0]!r}",
            )
        )


def reference_validate(graph: NetworkGraph) -> list[Violation]:
    """Check the graph against its spec's construction rules.

    Returns an empty list for a well-formed graph.  Violations are data,
    not exceptions.  Global connectivity is asserted only when every
    structural rule passed; on broken graphs a reachability failure is a
    consequence of the structural breach, not a second finding.
    """
    out: list[Violation] = []
    _check_endpoints(graph, out)
    spec = graph.spec

    if graph.architecture is Architecture.TRADITIONAL:
        assert isinstance(spec, TraditionalSpec)
        for rack in range(spec.num_racks):
            _check_rack(graph, rack, spec.servers_per_rack, out)
        _check_spine_mesh(graph, spec, out)
    else:
        assert isinstance(spec, OwcPonSpec)
        for rack in range(spec.num_racks):
            _check_rack(graph, rack, spec.servers_per_rack, out)
        _check_rack_transceivers(graph, spec, out)
        _check_groups(graph, spec, out)
        _check_backhaul_core(graph, spec, out)

    if not out and getattr(spec, "num_racks", 0) > 0:
        _check_connected(graph, out)
    return out


def reference_build_graphs(scenario: Scenario) -> dict[Architecture, NetworkGraph]:
    """Build every architecture the scenario selects."""
    graphs: dict[Architecture, NetworkGraph] = {}
    if scenario.selects(Architecture.TRADITIONAL):
        graphs[Architecture.TRADITIONAL] = build_traditional(
            scenario.traditional, scenario.capacities
        )
    if scenario.selects(Architecture.OWC_PON):
        graphs[Architecture.OWC_PON] = build_owc_pon(
            scenario.owcpon, scenario.capacities
        )
    return graphs


def reference_validated_graphs(scenario: Scenario) -> dict[Architecture, NetworkGraph]:
    graphs = reference_build_graphs(scenario)
    for architecture, graph in graphs.items():
        violations = reference_validate(graph)
        if violations:
            raise ValidationFailed(architecture, violations)
    return graphs


def reference_run_benchmark(scenario: Scenario) -> Document:
    """Evaluate both architectures under one scenario and compare them."""
    if len(scenario.architectures) != 2:
        raise ScenarioError("the benchmark needs both architectures selected")
    traditional_catalog, owc_catalog = resolved_catalogs(scenario)
    graphs = reference_validated_graphs(scenario)

    trad_census = reference_census(graphs[Architecture.TRADITIONAL])
    owc_census = reference_census(graphs[Architecture.OWC_PON])
    trad_report = traditional_power(trad_census, traditional_catalog, scenario.options)
    owc_report = owc_pon_power(owc_census, owc_catalog, scenario.options)
    reduction = power_reduction(trad_report, owc_report)

    notes = []
    if scenario.options.nic_count_mode is NicCountMode.PER_SERVER:
        notes.append(
            "non-reproducing: per-server NIC counting inflates the NIC term; "
            "the headline reduction assumes one NIC per AP"
        )

    meta = (
        ("version", __version__),
        ("traditional_total_mw", trad_report.total_mw),
        ("proposed_total_mw", owc_report.total_mw),
        ("reduction_percent", format_percent(reduction)),
        ("reduction_fraction", format_rational(reduction)),
    )
    tables = [
        census_table("census_traditional", trad_census),
        census_table("census_owcpon", owc_census),
        power_table("power_traditional", trad_report),
        power_table("power_owcpon", owc_report),
    ]
    if notes:
        tables.append(Table("notes", ("note",), tuple((note,) for note in notes)))
    tables.append(
        Table(
            "scenario",
            ("line",),
            tuple((line,) for line in serialize_scenario(scenario).splitlines()),
        )
    )
    return Document("power consumption benchmark", meta, tuple(tables))


def reference_closed_form_power(
    graph: NetworkGraph,
    catalog: PowerCatalog,
    options: PowerOptions = PowerOptions(),
) -> PowerReport:
    """Dispatch to the architecture's closed-form evaluator."""
    census = reference_census(graph)
    if graph.architecture is Architecture.TRADITIONAL:
        return traditional_power(census, catalog, options)
    return owc_pon_power(census, catalog, options)


def per_node_power(
    graph: NetworkGraph,
    catalog: PowerCatalog,
    options: PowerOptions = PowerOptions(),
) -> PowerReport:
    """Brute-force power: walk every node and add its catalog entry.

    Honors the same inclusion flags as the closed forms and, like them,
    never prices the structural kinds.  Its total equals the closed forms
    exactly (with per-AP NIC counting; the per-server mode is a
    closed-form what-if with no node-level counterpart).  Every priced
    kind present in the graph needs a catalog entry.
    """
    excluded = set(STRUCTURAL_KINDS)
    if not options.include_owc_transceivers:
        excluded.update({DeviceKind.RACK_TRANSCEIVER, DeviceKind.AP_TRANSCEIVER})
    if not options.include_server_transceivers:
        excluded.add(DeviceKind.SERVER_TRANSCEIVER)

    quantities: dict[DeviceKind, int] = {}
    for node in graph.nodes:
        quantities[node.kind] = quantities.get(node.kind, 0) + 1
        if node.kind not in excluded and catalog.get(node.kind) is None:
            raise MissingCatalogEntry(node.kind)

    terms = [(kind, kind not in excluded) for kind in DeviceKind if kind in quantities]
    return _report(quantities, terms, catalog)


def reference_scaling_sweep(
    rack_counts: Sequence[int],
    *,
    servers_per_rack: int = 8,
    num_groups: int = 2,
    spine_counts: Sequence[int] | None = None,
    traditional_catalog: PowerCatalog = TRADITIONAL_CATALOG,
    owc_pon_catalog: PowerCatalog = OWC_PON_CATALOG,
    options: PowerOptions = PowerOptions(),
    capacities: LinkCapacities = LinkCapacities(),
) -> tuple[SweepResult, ...]:
    """Evaluate both architectures across a family of rack counts.

    Spine counts default to the rack count (one spine per leaf, the
    benchmark pairing).  A point whose parameters are inadmissible is
    marked failed without aborting the rest of the sweep.
    """
    if spine_counts is not None and len(spine_counts) != len(rack_counts):
        raise ValueError("spine_counts must match rack_counts in length")

    results = []
    for index, racks in enumerate(rack_counts):
        spines = spine_counts[index] if spine_counts is not None else racks
        point = SweepPoint(racks, servers_per_rack, num_groups, spines)
        try:
            if num_groups == 0 and racks > 0:
                raise SpecMismatch(f"{racks} racks cannot be split into zero groups")
            aps = racks // num_groups if num_groups > 0 else 0
            trad_graph = build_traditional(
                TraditionalSpec(spines, racks, servers_per_rack), capacities
            )
            owc_graph = build_owc_pon(
                OwcPonSpec(racks, servers_per_rack, num_groups, aps), capacities
            )
            trad = traditional_power(
                reference_census(trad_graph), traditional_catalog, options
            )
            owc = owc_pon_power(reference_census(owc_graph), owc_pon_catalog, options)
            reduction = power_reduction(trad, owc)
        except (PonFabricError, ValueError) as exc:
            results.append(SweepResult(point, None, None, None, str(exc)))
            continue
        results.append(SweepResult(point, trad, owc, reduction, None))
    return tuple(results)


def reference_cmd_validate(scenario: Scenario, args) -> tuple[Document, int]:
    graphs = reference_build_graphs(scenario)
    tables = []
    meta = []
    total = 0
    for architecture, graph in graphs.items():
        violations = reference_validate(graph)
        total += len(violations)
        meta.append((f"{architecture.value}_violations", len(violations)))
        tables.append(
            Table(
                f"violations_{architecture.value}",
                ("code", "subject", "message"),
                tuple((v.code, v.subject, v.message) for v in violations),
            )
        )
    doc = Document("structural validation", tuple(meta), tuple(tables))
    return doc, (EXIT_VALIDATION if total else EXIT_OK)


def reference_cmd_power(scenario: Scenario, args) -> tuple[Document, int]:
    catalogs = dict(zip((Architecture.TRADITIONAL, Architecture.OWC_PON), resolved_catalogs(scenario)))
    graphs = reference_validated_graphs(scenario)
    meta = []
    tables = []
    for architecture, graph in graphs.items():
        report = reference_closed_form_power(graph, catalogs[architecture], scenario.options)
        meta.append((f"{architecture.value}_total_mw", report.total_mw))
        tables.append(census_table(f"census_{architecture.value}", reference_census(graph)))
        tables.append(power_table(f"power_{architecture.value}", report))
    return Document("power evaluation", tuple(meta), tuple(tables)), EXIT_OK
