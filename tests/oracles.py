"""Independent oracles for the test suite.

Nothing here reuses the package's routing or assignment logic: expected
classes come from rack/group arithmetic alone, expected hop counts from a
networkx breadth-first search over the per-pair permitted subgraph, and
expected link loads from per-pair accumulation over those search paths.

The per-pair reference (``reference_route``, ``reference_all_pairs`` and
``reference_assign``) is the slow path the route table replaced: one chain
walk per ordered server pair, neighbour scans for every lookup, and one
``Fraction`` addition per hop.  The differential tests hold the package's
route table and aggregated sums to it, errors included.
"""

from collections import Counter
from fractions import Fraction

import networkx as nx

from ponfabric import (
    Architecture,
    DeviceKind,
    LinkLoad,
    LinkLoadReport,
    PathClass,
    Route,
    RoutingPolicy,
)
from ponfabric.errors import NoRoute, PolicyExcluded, RoutingError, UnknownServer, in_pair


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
    rack_a, rack_b = graph.node(src).rack, graph.node(dst).rack
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
    allowed |= {n.id for n in graph.nodes_of_kind(DeviceKind.OLT)}

    forbidden_edges = []
    for link in graph.links:
        if not (graph.has_node(link.endpoint_a) and graph.has_node(link.endpoint_b)):
            continue
        a, b = graph.node(link.endpoint_a), graph.node(link.endpoint_b)
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
    rack = graph.node(src).rack
    group, ap = divmod(rack, spec.aps_per_group)
    allowed = {src} | _rack_side(graph, rack)
    side, _ = _ap_side(graph, group, ap)
    allowed |= side | _group_side(graph, group)
    allowed |= {n.id for n in graph.nodes_of_kind(DeviceKind.OLT)}
    allowed |= {n.id for n in graph.nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)}
    hidden = [node for node in nxg.nodes if node not in allowed]
    view = nx.restricted_view(nxg, hidden, [])
    external = graph.nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)[0].id
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
        (node.id for node in graph.nodes_of_kind(DeviceKind.SERVER))
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


# --- per-pair reference resolver ---------------------------------------------


def _server(graph, node_id):
    if not graph.has_node(node_id):
        raise UnknownServer(node_id)
    node = graph.node(node_id)
    if node.kind is not DeviceKind.SERVER:
        raise UnknownServer(node_id)
    return node


def _sole(nodes, what):
    if not nodes:
        raise NoRoute(f"graph has no {what}")
    return min(nodes, key=lambda n: n.id)


def _scan_link(graph, a, b):
    """First link from ``a`` to ``b`` in adjacency order, by a full scan."""
    for other, link in graph.neighbors(a):
        if other.id == b:
            return link
    return None


def _leaf_of(graph, server):
    for other, _ in graph.neighbors(server.id):
        if other.kind is DeviceKind.LEAF_SWITCH:
            return other
    raise NoRoute(f"server {server.id} is not wired to a leaf switch")


def _neighbours_of_kind(graph, node, kind):
    return tuple(other for other, _ in graph.neighbors(node.id) if other.kind is kind)


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
        graph.find_nodes(DeviceKind.OPTICAL_SWITCH, group=group),
        f"optical switch in group {group}",
    )


def _gateway_nic(graph, group):
    return _sole(
        graph.find_nodes(DeviceKind.NIC, group=group, gateway=True),
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

    olt = _sole(graph.nodes_of_kind(DeviceKind.OLT), "OLT")
    middle = []
    if not nic_a.is_gateway:
        middle += [_group_switch(graph, group_a).id, _gateway_nic(graph, group_a).id]
    middle.append(olt.id)
    if not nic_b.is_gateway:
        middle += [_gateway_nic(graph, group_b).id, _group_switch(graph, group_b).id]
    return _chain(graph, ascent + middle + descent, PathClass.INTER_GROUP_RELAYED)


def reference_all_pairs(graph, policy=RoutingPolicy()):
    """(class, hop count) histogram by resolving every ordered server pair."""
    servers = sorted(node.id for node in graph.nodes_of_kind(DeviceKind.SERVER))
    histogram = Counter()
    for src in servers:
        for dst in servers:
            route = reference_route(graph, src, dst, policy)
            histogram[(route.path_class, route.hop_count)] += 1
    return dict(histogram)


def reference_assign(graph, matrix, policy=RoutingPolicy()):
    """Link loads by routing each demand entry and adding its rate per hop."""
    loads = {}
    for src, dst, rate in matrix.entries():
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
