"""Rule-chain route resolution between servers and to the external gateway.

Routes are deterministic chains prescribed by the architecture, not
shortest-path searches: each traffic class has exactly one sequence of
elements that may carry it, and resolution verifies every hop exists in
the graph.  Traffic between racks of the same group crosses the group's
optical switch; traffic between groups uses the direct NIC-to-NIC link
when one exists (and the policy prefers it) or relays through the OLT via
each group's gateway NIC.  When an endpoint AP is itself the gateway, its
NIC enters the OLT directly with no optical-switch detour.

Hop counts per class on a well-formed graph:

======================  =========================================
same server             0
same rack               2
same group, other rack  10
other group, direct     9
other group, relayed    14 (no gateway endpoint), 12 (one), 10 (both)
external                8 (6 from the gateway AP's rack)
======================  =========================================

Between its two edge links (server to leaf) every inter-rack chain is
the source leaf's half-route up to where routes of its class meet (the
group's optical switch, the OLT, or its own NIC, then the direct link to
the other NIC) and the destination leaf's half-route down.  A
``RouteTable`` memoises, per graph and policy and on first use, each
server's leaf and edge link, each leaf's uplink and half-routes (at most
three up and three down), each group's optical switch and gateway NIC,
and the OLT: O(servers + racks) pieces, whichever pairs are routed.
``traffic.assign`` routes one pair per block of demand (a rack pair of a
pattern, or one flow line) and sums per edge link, half-route and direct
link, so ``simulate`` costs O(blocks) sums plus O(racks + direct links)
half expansions.  ``all_pairs_summary`` counts the classes above from
the spec and the policy alone, with no graph and no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .errors import NoRoute, PolicyExcluded, UnknownServer
from .topology import Architecture, DeviceKind, IndexMatched, NetworkGraph, Node, OwcPonSpec
from .topology import _check_owc_pon  # the builder's spec checks, which summary shares


_UNLINKED = "no direct link between the APs of {} and {}, and relay fallback is disabled"


class PathClass(Enum):
    SAME_SERVER = "same_server"
    INTRA_RACK = "intra_rack"
    INTER_RACK_INTRA_GROUP = "inter_rack_intra_group"
    INTER_GROUP_DIRECT = "inter_group_direct"
    INTER_GROUP_RELAYED = "inter_group_relayed"
    EXTERNAL = "external"


@dataclass(frozen=True)
class RoutingPolicy:
    """Path selection knobs for inter-group traffic.

    With ``prefer_direct_inter_group`` a pair whose APs share a direct
    fiber link uses it; otherwise (or when no such link exists) the pair
    relays through the OLT if ``allow_relay_fallback`` permits.
    """

    prefer_direct_inter_group: bool = True
    allow_relay_fallback: bool = True


@dataclass(frozen=True)
class Route:
    """An ordered simple path: node ids plus the link ids joining them."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]
    path_class: PathClass

    @property
    def hop_count(self) -> int:
        return len(self.links)


def _server(graph: NetworkGraph, node_id: str) -> Node:
    try:
        node = graph.node(node_id)
    except KeyError:
        raise UnknownServer(node_id) from None
    if node.kind is not DeviceKind.SERVER:
        raise UnknownServer(node_id)
    return node


def _sole(nodes: tuple[Node, ...], what: str) -> Node:
    if not nodes:
        raise NoRoute(f"graph has no {what}")
    # Of several candidates (e.g. parallel transceiver planes) the lowest
    # id, for determinism.
    return min(nodes, key=lambda n: n.id)


def _leaf_of(graph: NetworkGraph, server: Node) -> Node:
    for other, _ in graph.neighbors(server.id):
        if other.kind is DeviceKind.LEAF_SWITCH:
            return other
    raise NoRoute(f"server {server.id} is not wired to a leaf switch")


def _uplink_of(graph: NetworkGraph, leaf: Node) -> tuple[Node, Node, Node]:
    """The leaf's backhaul chain: rooftop transceiver, AP transceiver, NIC."""
    rtxs = tuple(
        other
        for other, _ in graph.neighbors(leaf.id)
        if other.kind is DeviceKind.RACK_TRANSCEIVER
    )
    rtx = _sole(rtxs, f"rooftop transceiver on {leaf.id}")
    atxs = tuple(
        other
        for other, _ in graph.neighbors(rtx.id)
        if other.kind is DeviceKind.AP_TRANSCEIVER
    )
    atx = _sole(atxs, f"AP transceiver beamed from {rtx.id}")
    nics = tuple(
        other for other, _ in graph.neighbors(atx.id) if other.kind is DeviceKind.NIC
    )
    nic = _sole(nics, f"NIC behind {atx.id}")
    return rtx, atx, nic


def _group_switch(graph: NetworkGraph, group: int) -> Node:
    switches = graph.nodes_of_kind(DeviceKind.OPTICAL_SWITCH)
    found = tuple(n for n in switches if n.group == group)
    return _sole(found, f"optical switch in group {group}")


def _gateway_nic(graph: NetworkGraph, group: int) -> Node:
    nics = graph.nodes_of_kind(DeviceKind.NIC)
    found = tuple(n for n in nics if n.group == group and n.is_gateway)
    return _sole(found, f"gateway NIC in group {group}")


def _olt(graph: NetworkGraph) -> Node:
    return _sole(graph.nodes_of_kind(DeviceKind.OLT), "OLT")


def _links(graph: NetworkGraph, node_ids: list[str]) -> tuple[str, ...]:
    """Ids of the links joining consecutive nodes; the first gap raises."""
    links = []
    for a, b in zip(node_ids, node_ids[1:]):
        link = graph.link_between(a, b)
        if link is None:
            raise NoRoute(f"missing link {a} -- {b}")
        links.append(link.id)
    return tuple(links)


#: A stretch of a route: node ids, and the link ids reaching each from the last.
Stretch = tuple[tuple[str, ...], tuple[str, ...]]


class Memo(dict):
    """A dict that fills a missing key with ``make(key)``; when ``make``
    raises, the key stays missing."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class RouteTable:
    """Memoised route pieces of one graph under one routing policy.

    Pieces are resolved on first use and kept: each server's leaf and edge
    link, each leaf's uplink, each group's optical switch and gateway NIC,
    the OLT, and each leaf's half-routes, up and down, by how far up they
    reach (``nic``, ``switch`` or ``olt``).  A piece that cannot be
    resolved raises and is not kept, so a failing pair always raises what
    resolving it alone would raise.
    """

    def __init__(self, graph: NetworkGraph, policy: RoutingPolicy = RoutingPolicy()):
        self.graph = graph
        self.policy = policy
        self._servers = Memo(lambda node_id: _server(graph, node_id))  # id -> node
        self._leaves = Memo(self._leaf)  # server id -> (leaf, edge link id)
        self._uplinks = Memo(lambda leaf_id: _uplink_of(graph, graph.node(leaf_id)))
        self._found = Memo(lambda key: key[0](graph, *key[1:]))  # (find, *args) -> node
        self._halves: dict[tuple[str, str, bool], Stretch] = {}

    def route(self, src: str, dst: str) -> Route:
        """The src -> dst route; raises as ``resolve_route`` documents."""
        parts = self.parts(src, dst)
        if parts is None:
            return Route((src,), (), PathClass.SAME_SERVER)
        out_link, path_class, stretches, in_link = parts
        nodes, links = zip(*stretches)
        return Route((src, *sum(nodes, ()), dst), (out_link, *sum(links, ()), in_link), path_class)

    def parts(self, src: str, dst: str) -> tuple[str, PathClass, tuple[Stretch, ...], str] | None:
        """The src -> dst route as (edge link out of ``src``, class,
        stretches, edge link into ``dst``), None when ``src == dst``: the
        source leaf alone within a rack, else its up half-route, any direct
        NIC link and the destination leaf's down half-route.

        Checks run in the order of the chain rules, so the first missing
        piece of the pair decides the error.
        """
        graph, policy = self.graph, self.policy
        a = self._servers[src]
        b = self._servers[dst]
        if src == dst:
            return None
        leaf_a, out_link = self._leaves[src]
        if a.rack == b.rack:
            link = graph.link_between(leaf_a.id, dst)
            if link is None:
                raise NoRoute(f"missing link {leaf_a.id} -- {dst}")
            return out_link, PathClass.INTRA_RACK, (((leaf_a.id,), ()),), link.id
        if graph.architecture is Architecture.TRADITIONAL:
            raise NoRoute(
                "inter-rack paths are only modeled for the optical-wireless fabric"
            )
        _, atx_a, nic_a = self._uplinks[leaf_a.id]  # the source side fails first
        leaf_b, in_link = self._leaves[dst]
        nic_b = self._uplinks[leaf_b.id][2]

        if atx_a.group == nic_b.group:
            up, down = self._pair(leaf_a, leaf_b, "switch")
            return out_link, PathClass.INTER_RACK_INTRA_GROUP, (up, down), in_link
        if not policy.prefer_direct_inter_group and not policy.allow_relay_fallback:
            raise PolicyExcluded("both inter-group mechanisms are disabled")
        direct = policy.prefer_direct_inter_group and graph.link_between(nic_a.id, nic_b.id)
        if direct:
            up, down = self._pair(leaf_a, leaf_b, "nic")
            stretches = (up, ((nic_b.id,), (direct.id,)), down)
            return out_link, PathClass.INTER_GROUP_DIRECT, stretches, in_link
        if not policy.allow_relay_fallback:
            raise PolicyExcluded(_UNLINKED.format(src, dst))
        up, down = self._pair(leaf_a, leaf_b, "olt")
        return out_link, PathClass.INTER_GROUP_RELAYED, (up, down), in_link

    def edge_links(self, servers: tuple[str, ...]) -> tuple[str, ...]:
        """Each server's link to its leaf; the servers must share one leaf,
        as a rack's do, so that one route serves them all."""
        hits = [self._leaves[server_id] for server_id in servers]
        for server_id, (leaf, _) in zip(servers, hits):
            if leaf is not hits[0][0]:
                raise NoRoute(f"server {server_id} is not wired to {hits[0][0].id}")
        return tuple(link for _, link in hits)

    def _leaf(self, server_id: str) -> tuple[Node, str]:
        leaf = _leaf_of(self.graph, self._servers[server_id])
        return leaf, self.graph.link_between(server_id, leaf.id).id

    def _pair(self, leaf_a: Node, leaf_b: Node, kind: str) -> tuple[Stretch, Stretch]:
        """``leaf_a``'s up and ``leaf_b``'s down half-route of ``kind``.

        The nodes of both are found before any link is checked, and the
        links in chain order, as resolving the whole chain at once would.
        """
        halves, up_key, down_key = self._halves, (leaf_a.id, kind, True), (leaf_b.id, kind, False)
        if up_key not in halves or down_key not in halves:
            chains = [
                (key, self._chain(leaf, kind, key[2]))
                for key, leaf in ((up_key, leaf_a), (down_key, leaf_b))
                if key not in halves
            ]
            for key, chain in chains:
                nodes = chain if key[2] else chain[1:]  # a down half starts past the junction
                halves[key] = (tuple(nodes), _links(self.graph, chain))
        return halves[up_key], halves[down_key]

    def _chain(self, leaf: Node, kind: str, up: bool) -> list[str]:
        """Node ids from ``leaf`` up to the junction of ``kind`` (its NIC,
        its group's optical switch, or the OLT), or down from there."""
        rtx, atx, nic = self._uplinks[leaf.id]
        group = atx.group if up else nic.group
        core: list[str] = []
        if kind == "switch":
            core = [self._found[_group_switch, group].id]
        elif kind == "olt":
            olt = self._found[_olt,].id  # the OLT is found before the group's pieces
            if not nic.is_gateway:
                finds = (_group_switch, _gateway_nic) if up else (_gateway_nic, _group_switch)
                core = [self._found[find, group].id for find in finds]
            core = core + [olt] if up else [olt] + core
        rack_side = [leaf.id, rtx.id, atx.id, nic.id]
        return rack_side + core if up else core + rack_side[::-1]


def resolve_route(
    graph: NetworkGraph,
    src: str,
    dst: str,
    policy: RoutingPolicy = RoutingPolicy(),
) -> Route:
    """The unique rule-chain route between two servers.

    Raises ``NoRoute`` when a required element is missing (a graph that
    breaks its spec's construction rules), ``PolicyExcluded`` when the
    policy forbids every mechanism available for an inter-group pair, and
    ``UnknownServer`` for endpoints that are not server nodes.  Resolving
    many pairs is cheaper through one ``RouteTable``.
    """
    return RouteTable(graph, policy).route(src, dst)


def route_to_external(graph: NetworkGraph, src: str) -> Route:
    """Route from a server to the external gateway: its leaf's up
    half-route to the OLT, then the gateway."""
    a = _server(graph, src)
    if graph.architecture is Architecture.TRADITIONAL:
        raise NoRoute("the traditional fabric has no modeled external gateway")
    external = _sole(graph.nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY), "external gateway")
    table = RouteTable(graph)
    table._found[_olt,]  # found before the rack's pieces
    chain = [src, *table._chain(_leaf_of(graph, a), "olt", True), external.id]
    return Route(tuple(chain), _links(graph, chain), PathClass.EXTERNAL)


def _least_by_text(spans: list[tuple[int, int]], excluded) -> int:
    """The number in the half-open intervals ``spans``, bar ``excluded``,
    whose decimal text sorts first.  Numbers of one length sort by text as
    by value, so the first one not excluded of each length is a candidate."""
    candidates: list[int] = []
    for lo, hi in spans:
        while lo < hi:
            top = min(hi, 10 ** len(str(lo)))  # up to the first number one digit longer
            candidates += islice((n for n in range(lo, top) if n not in excluded), 1)
            lo = top
    return min(candidates, key=str)


def _first_unlinked_pair(spec: OwcPonSpec) -> PolicyExcluded:
    """The error of the first server pair, in sorted (src, dst) order, whose
    APs share no direct link: ``rack{R}/server0 -> rack{S}/server0``, with
    R least by text among racks missing a link to another group and S the
    least such rack for R (``rack10`` sorts before ``rack9``)."""
    racks, aps = spec.num_racks, spec.aps_per_group
    partners: dict[int, set[int]] = {}  # rack -> racks its AP has direct links to
    for (g1, a1), (g2, a2) in getattr(spec.adjacency, "pairs", ()):
        partners.setdefault(g1 * aps + a1, set()).add(g2 * aps + a2)
        partners.setdefault(g2 * aps + a2, set()).add(g1 * aps + a1)
    linked_to_all = {r for r, ends in partners.items() if len(ends) == racks - aps}
    src = _least_by_text([(0, racks)], linked_to_all)
    if isinstance(spec.adjacency, IndexMatched):
        partners[src] = range(src % aps, racks, aps)
    start, end = src // aps * aps, (src // aps + 1) * aps  # src's group
    dst = _least_by_text([(0, start), (end, racks)], partners.get(src, ()))
    return PolicyExcluded(_UNLINKED.format(f"rack{src}/server0", f"rack{dst}/server0"))


def all_pairs_summary(
    spec: OwcPonSpec, policy: RoutingPolicy = RoutingPolicy()
) -> dict[tuple[PathClass, int], int]:
    """Histogram of (class, hop count) over all ordered server pairs of the
    fabric ``spec`` builds, by arithmetic on the spec, keyed in class then
    hop order, empty classes left out.  Raises what building the fabric,
    then routing the first failing pair in sorted (src, dst) order, would."""
    direct = _check_owc_pon(spec)
    racks, servers, aps = spec.num_racks, spec.servers_per_rack, spec.aps_per_group
    group_pairs, gateway = spec.num_groups * (spec.num_groups - 1), spec.gateway_ap_index
    # ordered inter-group rack pairs by hops: two, one or no gateway-AP ends
    relayed = {10: group_pairs, 12: 2 * group_pairs * (aps - 1), 14: group_pairs * (aps - 1) ** 2}
    if not policy.prefer_direct_inter_group:
        direct = 0
    elif isinstance(spec.adjacency, IndexMatched):  # links join same-index APs
        relayed[10], relayed[14] = 0, group_pairs * (aps - 1) * (aps - 2)
    else:
        for (_, a1), (_, a2) in getattr(spec.adjacency, "pairs", ()):
            relayed[14 - 2 * ((a1 == gateway) + (a2 == gateway))] -= 2
    if servers and group_pairs:
        if not policy.prefer_direct_inter_group and not policy.allow_relay_fallback:
            raise PolicyExcluded("both inter-group mechanisms are disabled")
        if not policy.allow_relay_fallback and any(relayed.values()):
            raise _first_unlinked_pair(spec)
    block = servers * servers  # server pairs per ordered rack pair
    histogram = {
        (PathClass.SAME_SERVER, 0): racks * servers,
        (PathClass.INTRA_RACK, 2): racks * servers * (servers - 1),
        (PathClass.INTER_RACK_INTRA_GROUP, 10): racks * (aps - 1) * block,
        (PathClass.INTER_GROUP_DIRECT, 9): 2 * direct * block,
        **{(PathClass.INTER_GROUP_RELAYED, hops): n * block for hops, n in relayed.items()},
    }
    return {key: pairs for key, pairs in histogram.items() if pairs}
