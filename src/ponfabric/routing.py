"""Rule-chain route resolution between servers and to the external gateway.

Routes are deterministic chains prescribed by the architecture, not
shortest-path searches: each traffic class has exactly one sequence of
elements that may carry it.  Traffic between racks of the same group
crosses the group's optical switch; traffic between groups uses the
direct NIC-to-NIC link when one exists (and the policy prefers it) or
relays through the OLT via each group's gateway NIC.  When an endpoint AP
is itself the gateway, its NIC enters the OLT directly with no
optical-switch detour.

Hop counts per class:

======================  =========================================
same server             0
same rack               2
same group, other rack  10
other group, direct     9
other group, relayed    14 (no gateway endpoint), 12 (one), 10 (both)
external                8 (6 from the gateway AP's rack)
======================  =========================================

Every node and link on a route follows from the spec, so routes are
named by the builders' id scheme and no graph is read: a server's rack
comes from its id, every rack uses its first transceiver plane, and a
direct link keeps the orientation the spec lists.  Between its two edge
links (server to leaf) every inter-rack chain is the source leaf's
half-route up to where routes of its class meet (the group's optical
switch, the OLT, or its own NIC, then the direct link to the other NIC)
and the destination leaf's half-route down.  A ``RouteTable`` keeps, per
spec and policy, each server's rack and edge link and each rack's
half-routes once used: O(servers + racks) pieces.  ``traffic.assign``
routes one pair per block of demand and sums per edge link, half-route
and direct link.  ``all_pairs_summary`` counts the classes above from
the spec and the policy alone.  The graph walk that checks the table is
``reference_route`` in the test oracles.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
from typing import NamedTuple

from .errors import NoRoute, PolicyExcluded, UnknownServer
from .topology import FabricSpec, IndexMatched, OwcPonSpec
from .topology import _check_owc_pon  # the builder's spec checks, which routes share


_UNLINKED = "no direct link between the APs of {} and {}, and relay fallback is disabled"


class PathClass(Enum):
    SAME_SERVER = "same_server"
    INTRA_RACK = "intra_rack"
    INTER_RACK_INTRA_GROUP = "inter_rack_intra_group"
    INTER_GROUP_DIRECT = "inter_group_direct"
    INTER_GROUP_RELAYED = "inter_group_relayed"
    EXTERNAL = "external"


# A member read such as ``PathClass.INTRA_RACK`` runs Python code on Python
# 3.11, about three times the cost of a plain name.  ``RouteTable.parts``
# runs once per block of demand, so it takes its members from these names.
_INTRA_RACK, _INTRA_GROUP = PathClass.INTRA_RACK, PathClass.INTER_RACK_INTRA_GROUP
_DIRECT, _RELAYED = PathClass.INTER_GROUP_DIRECT, PathClass.INTER_GROUP_RELAYED


class RoutingPolicy(NamedTuple):
    """Path selection knobs for inter-group traffic.

    With ``prefer_direct_inter_group`` a pair whose APs share a direct
    fiber link uses it; otherwise (or when no such link exists) the pair
    relays through the OLT if ``allow_relay_fallback`` permits.
    """

    prefer_direct_inter_group: bool = True
    allow_relay_fallback: bool = True


class Route(NamedTuple):
    """An ordered simple path: node ids plus the link ids joining them."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]
    path_class: PathClass

    @property
    def hop_count(self) -> int:
        return len(self.links)


#: A stretch of a route: node ids, and the link ids reaching each from the last.
Stretch = tuple[tuple[str, ...], tuple[str, ...]]

# A server id as the builders make it: decimal rack and server numbers in
# ASCII digits, without leading zeros.
_SERVER_ID = re.compile(r"rack(0|[1-9][0-9]*)/server(0|[1-9][0-9]*)")


class RouteTable:
    """Route pieces of the fabric one spec builds, under one routing
    policy, named on first use and kept: each server's rack and edge link,
    and each rack's half-routes, up and down, by how far up they reach
    (``nic``, ``switch`` or ``olt``).  Raises the builder's errors for an
    inadmissible spec.
    """

    def __init__(self, spec: FabricSpec, policy: RoutingPolicy = RoutingPolicy()):
        self.spec = spec
        self.policy = policy
        self._servers: dict[str, tuple[int, str]] = {}  # id -> (rack, edge link id)
        self._halves: dict[tuple[int, str, bool], Stretch] = {}
        self._owcpon = isinstance(spec, OwcPonSpec)
        # rack pair -> the racks of its direct link in the order the spec
        # lists them; None for index-matched links, named by arithmetic
        self._pairs: dict[tuple[int, int], tuple[int, int]] | None = {}
        if self._owcpon:
            _check_owc_pon(spec)
            if isinstance(spec.adjacency, IndexMatched):
                self._pairs = None
            for (g1, a1), (g2, a2) in getattr(spec.adjacency, "pairs", ()):
                ends = g1 * spec.aps_per_group + a1, g2 * spec.aps_per_group + a2
                self._pairs[ends] = self._pairs[ends[::-1]] = ends

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

        Checks run in the order of the chain rules, so the first rule the
        pair breaks decides the error.
        """
        servers, policy = self._servers, self.policy
        rack_a, out_link = servers.get(src) or self._server(src)
        rack_b, in_link = servers.get(dst) or self._server(dst)
        if src == dst:
            return None
        if rack_a == rack_b:
            return out_link, _INTRA_RACK, (((f"rack{rack_a}/leaf",), ()),), in_link
        if not self._owcpon:
            raise NoRoute("inter-rack paths are only modeled for the optical-wireless fabric")
        aps = self.spec.aps_per_group
        if rack_a // aps == rack_b // aps:
            stretches = self._half(rack_a, "switch", True), self._half(rack_b, "switch", False)
            return out_link, _INTRA_GROUP, stretches, in_link
        if not policy.prefer_direct_inter_group and not policy.allow_relay_fallback:
            raise PolicyExcluded("both inter-group mechanisms are disabled")
        direct = policy.prefer_direct_inter_group and self._direct(rack_a, rack_b)
        if direct:
            up, down = self._half(rack_a, "nic", True), self._half(rack_b, "nic", False)
            return out_link, _DIRECT, (up, direct, down), in_link
        if not policy.allow_relay_fallback:
            raise PolicyExcluded(_UNLINKED.format(src, dst))
        stretches = self._half(rack_a, "olt", True), self._half(rack_b, "olt", False)
        return out_link, _RELAYED, stretches, in_link

    def edge_links(self, servers: tuple[str, ...]) -> tuple[str, ...]:
        """Each server's link to its leaf."""
        return tuple((self._servers.get(server) or self._server(server))[1] for server in servers)

    def _server(self, server_id: str) -> tuple[int, str]:
        """(rack, edge link id) of a server of the fabric, from its id."""
        match = isinstance(server_id, str) and _SERVER_ID.fullmatch(server_id)
        if match:
            rack, index = match.groups()
            racks, servers = self.spec.num_racks, self.spec.servers_per_rack
            # digit counts first: ``int`` refuses texts of over 4,300 digits
            if len(rack) <= len(str(racks)) and len(index) <= len(str(servers)) and (
                int(rack) < racks and int(index) < servers
            ):
                found = self._servers[server_id] = int(rack), f"{server_id}--rack{rack}/leaf"
                return found
        raise UnknownServer(server_id)

    def _direct(self, rack_a: int, rack_b: int) -> Stretch | None:
        """The direct link from rack_a's NIC to rack_b's, if any, as a stretch."""
        aps = self.spec.aps_per_group
        if self._pairs is not None:
            ends = self._pairs.get((rack_a, rack_b))
        else:  # same-index APs, named lower group first
            ends = sorted((rack_a, rack_b)) if rack_a % aps == rack_b % aps else None
        if ends is None:
            return None
        nic1, nic2 = (f"group{r // aps}/ap{r % aps}/nic" for r in ends)
        return (nic2 if ends[1] == rack_b else nic1,), (f"{nic1}--{nic2}",)

    def _half(self, rack: int, kind: str, up: bool) -> Stretch:
        """``rack``'s half-route of ``kind``: up from its leaf to the
        junction, or down from past the junction to its leaf."""
        key = rack, kind, up
        half = self._halves.get(key)
        if half is None:
            nodes, links = self._chain(rack, kind)
            if not up:  # a down half starts past the junction
                nodes, links = nodes[-2::-1], links[::-1]
            half = self._halves[key] = tuple(nodes), tuple(links)
        return half

    def _chain(self, rack: int, kind: str) -> tuple[list[str], list[str]]:
        """Node ids from ``rack``'s leaf up to the junction of ``kind`` (its
        NIC, its group's optical switch, or the OLT) on the first plane,
        and the link ids joining them, each named as the builder names it."""
        group, ap = divmod(rack, self.spec.aps_per_group)
        gateway = self.spec.gateway_ap_index
        leaf, rtx = f"rack{rack}/leaf", f"rack{rack}/txrx0"
        atx, nic = f"group{group}/ap{ap}/txrx0", f"group{group}/ap{ap}/nic"
        nodes = [leaf, rtx, atx, nic]
        links = [f"{rtx}--{leaf}", f"{rtx}--{atx}", f"{atx}--{nic}"]
        if kind == "switch" or (kind == "olt" and ap != gateway):
            switch = f"group{group}/switch"
            nodes.append(switch)
            links.append(f"{nic}--{switch}")
        if kind == "olt":
            if ap != gateway:
                nic = f"group{group}/ap{gateway}/nic"
                nodes.append(nic)
                links.append(f"{nic}--{switch}")
            nodes.append("olt")
            links.append(f"{nic}--olt")
        return nodes, links


def resolve_route(
    spec: FabricSpec, src: str, dst: str, policy: RoutingPolicy = RoutingPolicy()
) -> Route:
    """The unique rule-chain route between two servers of the fabric
    ``spec`` builds.

    Raises the builder's errors for an inadmissible spec, ``UnknownServer``
    for endpoints that are not server ids of the fabric, ``NoRoute`` for
    racks of a traditional fabric, whose inter-rack paths are not modeled,
    and ``PolicyExcluded`` when the policy forbids every mechanism
    available for an inter-group pair.  Resolving many pairs is cheaper
    through one ``RouteTable``.
    """
    return RouteTable(spec, policy).route(src, dst)


def route_to_external(spec: FabricSpec, src: str) -> Route:
    """Route from a server to the external gateway: its leaf's up
    half-route to the OLT, then the gateway."""
    table = RouteTable(spec)
    rack, edge_link = table._server(src)
    if not table._owcpon:
        raise NoRoute("the traditional fabric has no modeled external gateway")
    nodes, links = table._half(rack, "olt", True)
    links = (edge_link, *links, "olt--external")
    return Route((src, *nodes, "external"), links, PathClass.EXTERNAL)


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
