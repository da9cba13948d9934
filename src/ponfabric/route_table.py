"""Routes as link and node ids: the route table and the one-pair resolver.

The routes follow the chain rules ``routing`` sets out, which
``RouteTable.keys`` alone applies.  A table keeps, per spec and policy,
each server's rack and edge link once used and each explicit direct
link's racks: O(servers + direct links) pieces.  ``traffic.assign`` takes
one pair's keys per flow or block of demand and sums per edge link, per
rack and junction and per direct link.  Only ``route`` and ``simulate``
load this module; ``routing`` keeps the path classes and ``summary``'s
arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NoRoute, PolicyExcluded
from .routing import _UNLINKED, PathClass
from .scenario import RoutingPolicy  # defined with the scenario that holds it
from .topology import EXTERNAL, OLT, FabricSpec, IndexMatched, OwcPonSpec
from .topology import direct_link, edge_link, link_ends, link_id, uplinks
from .topology import _check_owc_pon  # the builder's spec checks, which routes share


# A member read such as ``PathClass.INTRA_RACK`` runs Python code on Python
# 3.11, about three times the cost of a plain name.  ``RouteTable.keys``
# runs once per flow or block of demand, so it takes its members from these names.
_INTRA_RACK, _INTRA_GROUP = PathClass.INTRA_RACK, PathClass.INTER_RACK_INTRA_GROUP
_DIRECT, _RELAYED = PathClass.INTER_GROUP_DIRECT, PathClass.INTER_GROUP_RELAYED


class Route(NamedTuple):
    """An ordered simple path: node ids plus the link ids joining them."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]
    path_class: PathClass

    @property
    def hop_count(self) -> int:
        return len(self.links)


#: A route as keys: (edge link out of the source, class, source rack,
#: destination rack, junction, direct link's racks, edge link into the
#: destination); see ``RouteTable.keys``.
Keys = tuple[str, PathClass, int, int, str | None, tuple[int, int] | None, str]


def _walked(src: str, links: tuple[str, ...], path_class: PathClass) -> Route:
    """The route from ``src`` along ``links``, its nodes walked from their ids."""
    nodes = [src]
    for a, b in map(link_ends, links):
        nodes.append(b if a == nodes[-1] else a)
    return Route(tuple(nodes), links, path_class)


class RouteTable:
    """Routes of the fabric one spec builds, under one routing policy, as
    keys: each server's rack and edge link, named on first use and kept,
    and each inter-rack pair's racks, the junction its class meets at
    (``switch``, ``nic`` or ``olt``) and its direct link's racks, if any.
    ``route`` alone names the links between the edge links from these
    keys.  Raises the builder's errors for an inadmissible spec.
    """

    def __init__(self, spec: FabricSpec, policy: RoutingPolicy = RoutingPolicy()):
        self.spec = spec
        self.policy = policy
        self._servers: dict[str, tuple[int, str]] = {}  # id -> (rack, edge link id)
        self._owcpon = isinstance(spec, OwcPonSpec)
        # rack pair -> its direct link's racks, in the orientation the spec
        # lists; None for index-matched links, which join racks of one AP index
        self._pairs: dict[tuple[int, int], tuple[int, int]] | None = {}
        if self._owcpon:
            _check_owc_pon(spec)
            if isinstance(spec.adjacency, IndexMatched):
                self._pairs = None
            for (g1, a1), (g2, a2) in getattr(spec.adjacency, "pairs", ()):
                ends = g1 * spec.aps_per_group + a1, g2 * spec.aps_per_group + a2
                self._pairs[ends] = self._pairs[ends[::-1]] = ends

    def route(self, src: str, dst: str) -> Route:
        """The src -> dst route, ``dst`` a server or ``EXTERNAL``; raises as
        ``resolve_route`` documents.  Between its edge links, a route between
        racks takes the source leaf's links up to the junction, any direct
        NIC link and the destination leaf's links down from the junction;
        one to the gateway takes the links up to the OLT, then the OLT's."""
        spec = self.spec
        if dst == EXTERNAL:  # the policy has no say: there is one way out
            rack, out_link = self.server(src)
            if not self._owcpon:
                raise NoRoute("the traditional fabric has no modeled external gateway")
            links = (out_link, *uplinks(spec, rack, "olt"), link_id(OLT, EXTERNAL))
            return _walked(src, links, PathClass.EXTERNAL)
        keys = self.keys(src, dst)
        if keys is None:
            return _walked(src, (), PathClass.SAME_SERVER)
        out_link, path_class, rack_a, rack_b, junction, direct, in_link = keys
        links = [out_link]
        if junction is not None:
            links += uplinks(spec, rack_a, junction)
            links += [direct_link(spec, *direct)] if direct else []
            links += uplinks(spec, rack_b, junction)[::-1]
        return _walked(src, (*links, in_link), path_class)

    def keys(self, src: str, dst: str) -> Keys | None:
        """The src -> dst route as keys, None when ``src == dst``: (edge
        link out of ``src``, class, source rack, destination rack, junction,
        the racks of the direct link in the orientation ``direct_link``
        names it, edge link into ``dst``).  The junction is None within a
        rack, and the direct link None unless the class is direct.

        Checks run in the order of the chain rules, so the first rule the
        pair breaks decides the error.
        """
        servers, policy = self._servers, self.policy
        rack_a, out_link = servers.get(src) or self.server(src)
        rack_b, in_link = servers.get(dst) or self.server(dst)
        if src == dst:
            return None
        if rack_a == rack_b:
            return out_link, _INTRA_RACK, rack_a, rack_b, None, None, in_link
        if not self._owcpon:
            raise NoRoute("inter-rack paths are only modeled for the optical-wireless fabric")
        direct, aps = None, self.spec.aps_per_group
        if rack_a // aps == rack_b // aps:
            path_class, junction = _INTRA_GROUP, "switch"
        elif policy.prefer_direct_inter_group and (direct := self._direct(rack_a, rack_b)):
            path_class, junction = _DIRECT, "nic"
        elif policy.allow_relay_fallback:
            path_class, junction = _RELAYED, "olt"
        elif policy.prefer_direct_inter_group:
            raise PolicyExcluded(_UNLINKED.format(src, dst))
        else:
            raise PolicyExcluded("both inter-group mechanisms are disabled")
        return out_link, path_class, rack_a, rack_b, junction, direct, in_link

    def server(self, server: str) -> tuple[int, str]:
        """(rack, edge link id) of a server of the fabric, from its id;
        raises ``UnknownServer`` for an id that names none."""
        return self._servers.setdefault(server, edge_link(self.spec, server))

    def _direct(self, rack_a: int, rack_b: int) -> tuple[int, int] | None:
        """The racks of the direct link between rack_a's NIC and rack_b's,
        if any, in the orientation it is named."""
        if self._pairs is not None:
            return self._pairs.get((rack_a, rack_b))
        if rack_a % self.spec.aps_per_group == rack_b % self.spec.aps_per_group:
            return (rack_a, rack_b) if rack_a < rack_b else (rack_b, rack_a)  # lower group first
        return None


def resolve_route(
    spec: FabricSpec, src: str, dst: str, policy: RoutingPolicy = RoutingPolicy()
) -> Route:
    """The unique rule-chain route between two servers of the fabric
    ``spec`` builds, or from a server to the external gateway when ``dst``
    is ``EXTERNAL``, which no policy changes.

    Raises the builder's errors for an inadmissible spec, ``UnknownServer``
    for endpoints that are not server ids of the fabric, ``NoRoute`` for
    racks of a traditional fabric, whose inter-rack paths and gateway are
    not modeled, and ``PolicyExcluded`` when the policy forbids every
    mechanism available for an inter-group pair.  Resolving many pairs is
    cheaper through one ``RouteTable``.
    """
    return RouteTable(spec, policy).route(src, dst)
