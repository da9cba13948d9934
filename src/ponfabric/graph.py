"""The fabric walk and the graph API built from it.

A fabric's nodes and links come from its spec alone, by one walk
(``wire``) that the builders, ``build``'s rows and ``simulate``'s link
list all share; its ids are spelled by ``topology``'s id scheme.  Graphs
are immutable once built, and identical specs build identical graphs.  Only
``build``, ``simulate`` and library callers load this module: every
other command reads the spec through ``topology``'s arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product, repeat, starmap
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .topology import EXTERNAL, OLT, Architecture, DeviceKind, FabricSpec, IndexMatched
from .topology import LinkCapacities, LinkKind, OwcPonSpec, TraditionalSpec, checked
from .topology import ceiling_id, leaf_id, link_id, nic_id, rooftop_id, server_id, server_txrx_id
from .topology import spine_id, switch_id
from .topology import _check_owc_pon  # the spec checks, which the census and routes share


class Node(NamedTuple):
    """A single device in the fabric.

    ``rack``/``group``/``ap`` are set only for the kinds scoped to them;
    ``ap`` is the within-group AP index.  ``is_gateway`` marks the one AP
    per group (its NIC and its transceivers) that uplinks to the OLT.
    Server transceivers are linkless accounting nodes attached 1:1 to
    their server through the id scheme (``<server id>/txrx``).
    """

    id: str
    kind: DeviceKind
    rack: int | None = None
    group: int | None = None
    ap: int | None = None
    is_gateway: bool = False


@checked
class Link(NamedTuple):
    """An undirected connection between two nodes.

    ``Link(...)`` and ``_replace`` reject a self-loop and a capacity that
    is not positive.  ``Link._make`` skips both checks; the builders make
    their links with it, since their distinct endpoint ids and
    ``LinkCapacities``' positive values cannot fail them.
    """

    id: str
    endpoint_a: str
    endpoint_b: str
    kind: LinkKind
    capacity: Fraction

    def _checked(self) -> None:
        if self.endpoint_a == self.endpoint_b:
            raise ValueError(f"link {self.id!r} connects a node to itself")
        if self.capacity <= 0:
            raise ValueError(f"link {self.id!r} needs a positive capacity")


class NetworkGraph:
    """Immutable typed multigraph of one fabric instance: its nodes, its
    links and the spec that built it.

    The architecture follows from the spec's type, and each link carries
    its own capacity.  Construction is permissive about structure but
    rejects duplicate node ids.  Routing names its nodes and links from
    the spec, so the graph keeps no index by id, kind or neighbour.
    """

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link], spec: FabricSpec):
        self._nodes = tuple(nodes)
        self._links = tuple(links)
        self._spec = spec
        traditional = isinstance(spec, TraditionalSpec)
        self._architecture = Architecture.TRADITIONAL if traditional else Architecture.OWC_PON
        if len({node.id for node in self._nodes}) < len(self._nodes):
            seen: set[str] = set()
            for node in self._nodes:
                if node.id in seen:
                    raise ValueError(f"duplicate node id {node.id!r}")
                seen.add(node.id)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def architecture(self) -> Architecture:
        return self._architecture

    @property
    def spec(self) -> FabricSpec:
        return self._spec

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({self._architecture.value}, "
            f"{len(self._nodes)} nodes, {len(self._links)} links)"
        )


# A ``DeviceKind.X`` read runs Python code on Python 3.11, about three times
# the cost of a plain name, so the builders take the kinds they place per
# rack, AP or server from these names, read once.
_SPINE, _LEAF, _SERVER = DeviceKind.SPINE_SWITCH, DeviceKind.LEAF_SWITCH, DeviceKind.SERVER
_SERVER_TXRX, _RACK_TXRX = DeviceKind.SERVER_TRANSCEIVER, DeviceKind.RACK_TRANSCEIVER
_AP_TXRX, _NIC, _SWITCH = DeviceKind.AP_TRANSCEIVER, DeviceKind.NIC, DeviceKind.OPTICAL_SWITCH


def _linker(kind: LinkKind, capacity: Fraction) -> Callable[[Iterable], list[Link]]:
    """``wire``'s maker of ``kind`` links at ``capacity``, from ``a`` to
    ``b`` for each ``(a, b)``; its links skip ``Link``'s checks (see ``Link``)."""
    make = Link._make
    return lambda ends: [make((link_id(a, b), a, b, kind, capacity)) for a, b in ends]


def build_traditional(
    spec: TraditionalSpec, capacities: LinkCapacities = LinkCapacities()
) -> NetworkGraph:
    """Construct the spine-and-leaf graph.

    Every leaf connects to every spine (full bipartite mesh); each server
    is wired to its rack's leaf and carries one linkless transceiver node.
    Zero counts simply yield an empty or partial graph.
    """
    return NetworkGraph(*wire(spec, capacities, _linker, Node), spec)


def build_owc_pon(
    spec: OwcPonSpec, capacities: LinkCapacities = LinkCapacities()
) -> NetworkGraph:
    """Construct the optical-wireless graph with the PON backhaul.

    Per rack: a leaf, wired servers with transceiver nodes, and rooftop
    transceiver(s) wired to the leaf and beamed to the assigned AP.  Per
    AP: ceiling transceiver(s) and one NIC.  Per group: one optical switch
    fiber-linked to every NIC, and one gateway NIC uplinked to the single
    OLT.  Direct NIC-to-NIC fiber links follow the adjacency policy, and
    one external gateway hangs off the OLT.
    """
    return NetworkGraph(*wire(spec, capacities, _linker, Node), spec)


def wire(
    spec: FabricSpec, capacities: LinkCapacities, link: Callable, node: Callable | None = None
) -> tuple[list, list]:
    """The (nodes, links) of the fabric ``spec`` builds, in the builder's
    order, from the given makers: ``link(kind, capacity)`` is called once
    per link kind and returns the maker of its links, which takes the
    ``(a, b)`` ends of a run of them and returns the links from ``a`` to
    ``b`` in that order;
    ``node`` takes ``Node``'s fields, the unset ones left out by name (no
    nodes without it).  Node ids are the very strings the links are made
    from.  Raises the builder's errors for an inadmissible spec."""
    traditional = isinstance(spec, TraditionalSpec)
    if not traditional:
        _check_owc_pon(spec)
    # the capacities' fields are named by the kinds' values, in their order
    wired, owc, fiber = (link(LinkKind(name), c) for name, c in zip(capacities._fields, capacities))
    planes = () if traditional else range(spec.transceiver_multiplier)
    # Ids made once and shared by every link and node that names them.
    racks = range(spec.num_racks)
    leaves = list(map(leaf_id, racks))
    servers = [[server_id(r, i) for i in range(spec.servers_per_rack)] for r in racks]
    rooftops = [[rooftop_id(r, p) for p in planes] for r in racks]
    spines = list(map(spine_id, range(spec.num_spine))) if traditional else []
    nodes = []
    if node is not None:
        nodes += [node(spine, _SPINE) for spine in spines]
        for r, (leaf, rack_servers, rtxs) in enumerate(zip(leaves, servers, rooftops)):
            nodes.append(node(leaf, _LEAF, r))
            for server in rack_servers:
                nodes += [node(server, _SERVER, r), node(server_txrx_id(server), _SERVER_TXRX, r)]
            nodes += [node(rtx, _RACK_TXRX, r) for rtx in rtxs]
    links = []
    for leaf, rack_servers, rtxs in zip(leaves, servers, rooftops):
        links += wired(zip(rack_servers + rtxs, repeat(leaf)))
    if traditional:
        return nodes, links + list(wired(product(leaves, spines)))

    per_group, gateway = spec.aps_per_group, spec.gateway_ap_index
    aps = [(g, a) for g in range(spec.num_groups) for a in range(per_group)]
    ceilings = [[ceiling_id(g, a, p) for p in planes] for g, a in aps]
    nics = [nic_id(g, a) for g, a in aps]
    groups = [nics[g * per_group : (g + 1) * per_group] for g in range(spec.num_groups)]
    switches = list(map(switch_id, range(spec.num_groups)))
    if node is not None:
        for g, switch in enumerate(switches):
            for a, atxs in enumerate(ceilings[g * per_group : (g + 1) * per_group]):
                on_gateway = a == gateway
                nodes.append(node(groups[g][a], _NIC, group=g, ap=a, is_gateway=on_gateway))
                nodes += [node(atx, _AP_TXRX, group=g, ap=a, is_gateway=on_gateway) for atx in atxs]
            nodes.append(node(switch, _SWITCH, group=g))
        nodes += [node(OLT, DeviceKind.OLT), node(EXTERNAL, DeviceKind.EXTERNAL_GATEWAY)]
    links += fiber(chain.from_iterable(map(zip, ceilings, map(repeat, nics))))
    links += owc(chain.from_iterable(map(zip, rooftops, ceilings)))  # rack r beams to AP r
    links += fiber(chain.from_iterable(map(zip, groups, map(repeat, switches))))
    links += fiber(zip(map(itemgetter(gateway), groups), repeat(OLT)))
    if isinstance(spec.adjacency, IndexMatched):  # same-index APs of every group pair
        links += fiber(chain.from_iterable(starmap(zip, combinations(groups, 2))))
    else:
        pairs = getattr(spec.adjacency, "pairs", ())
        links += fiber((groups[g1][a1], groups[g2][a2]) for (g1, a1), (g2, a2) in pairs)
    links += fiber([(OLT, EXTERNAL)])
    return nodes, links
