"""Fabric graph construction, device census, and structural validation.

Two architectures are modeled.  The traditional one is a two-tier
spine-and-leaf fabric: one leaf switch per rack, servers wired to their
leaf, and a full bipartite mesh between leaves and spines.  The proposed
one drops the spine layer: each rack carries a rooftop transceiver with a
free-space optical link up to a ceiling access point (AP), and the APs are
backhauled by a passive optical network (one optical switch per AP group,
direct AP-to-AP fiber links between groups, and a single OLT that relays
between groups and uplinks to the outside).

Graphs are immutable once built; every operation here is a pure function
of its inputs, so identical specs always produce identical graphs.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import BadAdjacency, SpecMismatch


class DeviceKind(Enum):
    SPINE_SWITCH = "spine_switch"
    LEAF_SWITCH = "leaf_switch"
    SERVER = "server"
    SERVER_TRANSCEIVER = "server_transceiver"
    RACK_TRANSCEIVER = "rack_transceiver"
    AP_TRANSCEIVER = "ap_transceiver"
    NIC = "nic"
    OPTICAL_SWITCH = "optical_switch"
    OLT = "olt"
    EXTERNAL_GATEWAY = "external_gateway"


class LinkKind(Enum):
    WIRED = "wired"
    OWC = "owc"
    FIBER = "fiber"


class Architecture(Enum):
    TRADITIONAL = "traditional"
    OWC_PON = "owcpon"


@dataclass(frozen=True)
class Node:
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


@dataclass(frozen=True)
class Link:
    """An undirected connection between two nodes."""

    id: str
    endpoint_a: str
    endpoint_b: str
    kind: LinkKind
    capacity: Fraction

    def __post_init__(self):
        if self.endpoint_a == self.endpoint_b:
            raise ValueError(f"link {self.id!r} connects a node to itself")
        if self.capacity <= 0:
            raise ValueError(f"link {self.id!r} needs a positive capacity")

    def other(self, node_id: str) -> str:
        if node_id == self.endpoint_a:
            return self.endpoint_b
        if node_id == self.endpoint_b:
            return self.endpoint_a
        raise KeyError(f"{node_id!r} is not an endpoint of {self.id!r}")

    def touches(self, node_id: str) -> bool:
        return node_id in (self.endpoint_a, self.endpoint_b)


@dataclass(frozen=True)
class LinkCapacities:
    """Default per-kind link capacities in Gb/s, overridable per scenario."""

    wired: Fraction = Fraction(10)
    owc: Fraction = Fraction(10)
    fiber: Fraction = Fraction(40)

    def __post_init__(self):
        for name in ("wired", "owc", "fiber"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} capacity must be positive")

    def for_kind(self, kind: LinkKind) -> Fraction:
        return getattr(self, kind.value)  # the fields are named by the kinds' values


@dataclass(frozen=True)
class TraditionalSpec:
    """Parameters of the spine-and-leaf fabric (one leaf per rack)."""

    num_spine: int = 8
    num_racks: int = 8
    servers_per_rack: int = 8

    def __post_init__(self):
        for name in ("num_racks", "servers_per_rack", "num_spine"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class IndexMatched:
    """Direct inter-group links between same-index APs of every group pair."""


@dataclass(frozen=True)
class NoDirectLinks:
    """No direct inter-group links; cross-group traffic relays via the OLT."""


@dataclass(frozen=True)
class ExplicitPairs:
    """Direct inter-group links between explicitly listed AP pairs.

    Each pair is ``((group_a, ap_a), (group_b, ap_b))`` with the two APs in
    distinct groups.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


InterGroupAdjacency = Union[IndexMatched, ExplicitPairs, NoDirectLinks]


@dataclass(frozen=True)
class OwcPonSpec:
    """Parameters of the optical-wireless fabric with PON backhaul.

    ``num_groups * aps_per_group`` must equal ``num_racks``: each AP serves
    exactly one rack (rack ``r`` maps to group ``r // aps_per_group``, AP
    ``r % aps_per_group``).  ``transceiver_multiplier`` creates that many
    parallel rack/AP transceiver pairs per rack; routing always uses the
    first pair.
    """

    num_racks: int = 8
    servers_per_rack: int = 8
    num_groups: int = 2
    aps_per_group: int = 4
    adjacency: InterGroupAdjacency = IndexMatched()
    gateway_ap_index: int = 0
    transceiver_multiplier: int = 1

    def __post_init__(self):
        for name in ("num_racks", "servers_per_rack", "num_groups", "aps_per_group"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.gateway_ap_index < 0:
            raise ValueError("gateway_ap_index must be >= 0")
        if self.transceiver_multiplier < 1:
            raise ValueError("transceiver_multiplier must be >= 1")


FabricSpec = Union[TraditionalSpec, OwcPonSpec]


class NetworkGraph:
    """Immutable typed multigraph of one fabric instance.

    Construction is permissive about structure (validation is a separate,
    reporting operation) but rejects duplicate node ids.  Adjacency skips
    links whose endpoints are missing; ``validate_graph`` reports those.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        links: Iterable[Link],
        architecture: Architecture,
        spec: FabricSpec,
        capacities: LinkCapacities = LinkCapacities(),
    ):
        self._nodes = tuple(nodes)
        self._links = tuple(links)
        self._architecture = architecture
        self._spec = spec
        self._capacities = capacities

        self._node_by_id: dict[str, Node] = {}
        for node in self._nodes:
            if node.id in self._node_by_id:
                raise ValueError(f"duplicate node id {node.id!r}")
            self._node_by_id[node.id] = node

        self._by_kind: dict[DeviceKind, list[Node]] = {k: [] for k in DeviceKind}
        for node in self._nodes:
            self._by_kind[node.kind].append(node)

        self._adjacency: dict[str, list[tuple[str, Link]]] = {
            node.id: [] for node in self._nodes
        }
        for link in self._links:
            if link.endpoint_a in self._node_by_id and link.endpoint_b in self._node_by_id:
                self._adjacency[link.endpoint_a].append((link.endpoint_b, link))
                self._adjacency[link.endpoint_b].append((link.endpoint_a, link))
        # node id -> {neighbour id: first link to it in adjacency order},
        # filled per node on its first ``link_between`` lookup.
        self._link_index: dict[str, dict[str, Link]] = {}

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

    @property
    def capacities(self) -> LinkCapacities:
        return self._capacities

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_by_id

    def node(self, node_id: str) -> Node:
        return self._node_by_id[node_id]

    def nodes_of_kind(self, kind: DeviceKind) -> tuple[Node, ...]:
        return tuple(self._by_kind[kind])

    def find_nodes(
        self,
        kind: DeviceKind,
        *,
        rack: int | None = None,
        group: int | None = None,
        ap: int | None = None,
        gateway: bool | None = None,
    ) -> tuple[Node, ...]:
        """Nodes of ``kind`` matching every given attribute filter, in node order."""
        out = []
        for node in self._by_kind[kind]:
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

    def neighbors(self, node_id: str) -> tuple[tuple[Node, Link], ...]:
        return tuple(
            (self._node_by_id[other], link)
            for other, link in self._adjacency.get(node_id, [])
        )

    def links_of(self, node_id: str) -> tuple[Link, ...]:
        return tuple(link for _, link in self._adjacency.get(node_id, []))

    def link_between(self, a: str, b: str) -> Link | None:
        """The first link joining ``a`` and ``b`` in adjacency order, if any."""
        index = self._link_index.get(a)
        if index is None:
            index = {}
            for other, link in self._adjacency.get(a, ()):
                index.setdefault(other, link)
            self._link_index[a] = index
        return index.get(b)

    def replace(
        self,
        nodes: Iterable[Node] | None = None,
        links: Iterable[Link] | None = None,
    ) -> "NetworkGraph":
        """A copy with substituted node or link sets (spec echo unchanged)."""
        return NetworkGraph(
            self._nodes if nodes is None else nodes,
            self._links if links is None else links,
            self._architecture,
            self._spec,
            self._capacities,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._links == other._links
            and self._architecture == other._architecture
            and self._spec == other._spec
            and self._capacities == other._capacities
        )

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({self._architecture.value}, "
            f"{len(self._nodes)} nodes, {len(self._links)} links)"
        )


def _link(a: str, b: str, kind: LinkKind, capacities: LinkCapacities) -> Link:
    return Link(f"{a}--{b}", a, b, kind, capacities.for_kind(kind))


def build_traditional(
    spec: TraditionalSpec, capacities: LinkCapacities = LinkCapacities()
) -> NetworkGraph:
    """Construct the spine-and-leaf graph.

    Every leaf connects to every spine (full bipartite mesh); each server
    is wired to its rack's leaf and carries one linkless transceiver node.
    Zero counts simply yield an empty or partial graph.
    """
    nodes: list[Node] = []
    links: list[Link] = []

    for s in range(spec.num_spine):
        nodes.append(Node(f"spine{s}", DeviceKind.SPINE_SWITCH))

    for r in range(spec.num_racks):
        leaf = f"rack{r}/leaf"
        nodes.append(Node(leaf, DeviceKind.LEAF_SWITCH, rack=r))
        for i in range(spec.servers_per_rack):
            server = f"rack{r}/server{i}"
            nodes.append(Node(server, DeviceKind.SERVER, rack=r))
            nodes.append(Node(f"{server}/txrx", DeviceKind.SERVER_TRANSCEIVER, rack=r))
            links.append(_link(server, leaf, LinkKind.WIRED, capacities))

    for r in range(spec.num_racks):
        for s in range(spec.num_spine):
            links.append(_link(f"rack{r}/leaf", f"spine{s}", LinkKind.WIRED, capacities))

    return NetworkGraph(nodes, links, Architecture.TRADITIONAL, spec, capacities)


def _check_owc_pon(spec: OwcPonSpec) -> int:
    """Raise what ``build_owc_pon`` raises for ``spec``, in the same order,
    and return the number of direct inter-group links it would build."""
    if spec.num_groups * spec.aps_per_group != spec.num_racks:
        raise SpecMismatch(
            f"num_groups ({spec.num_groups}) x aps_per_group "
            f"({spec.aps_per_group}) must equal num_racks ({spec.num_racks})"
        )
    if spec.num_groups > 0 and spec.gateway_ap_index >= spec.aps_per_group:
        raise SpecMismatch(
            f"gateway_ap_index {spec.gateway_ap_index} is outside the "
            f"{spec.aps_per_group} APs of each group"
        )
    adjacency = spec.adjacency
    if isinstance(adjacency, NoDirectLinks):
        return 0
    if isinstance(adjacency, IndexMatched):
        return spec.num_groups * (spec.num_groups - 1) // 2 * spec.aps_per_group
    if isinstance(adjacency, ExplicitPairs):
        seen: set[frozenset[tuple[int, int]]] = set()
        for first, second in adjacency.pairs:
            for group, ap in (first, second):
                if not (0 <= group < spec.num_groups) or not (
                    0 <= ap < spec.aps_per_group
                ):
                    raise BadAdjacency(
                        f"pair references missing AP group{group}/ap{ap}"
                    )
            if first[0] == second[0]:
                raise BadAdjacency(
                    f"pair {first}-{second} connects APs of the same group"
                )
            key = frozenset((first, second))
            if key in seen:
                raise BadAdjacency(f"duplicate pair {first}-{second}")
            seen.add(key)
        return len(adjacency.pairs)
    raise TypeError(f"unsupported adjacency policy: {adjacency!r}")


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
    _check_owc_pon(spec)
    if isinstance(spec.adjacency, IndexMatched):
        direct_pairs = [
            ((g1, a), (g2, a))
            for g1, g2 in itertools.combinations(range(spec.num_groups), 2)
            for a in range(spec.aps_per_group)
        ]
    else:
        direct_pairs = getattr(spec.adjacency, "pairs", ())

    nodes: list[Node] = []
    links: list[Link] = []
    planes = range(spec.transceiver_multiplier)

    for r in range(spec.num_racks):
        leaf = f"rack{r}/leaf"
        nodes.append(Node(leaf, DeviceKind.LEAF_SWITCH, rack=r))
        for i in range(spec.servers_per_rack):
            server = f"rack{r}/server{i}"
            nodes.append(Node(server, DeviceKind.SERVER, rack=r))
            nodes.append(Node(f"{server}/txrx", DeviceKind.SERVER_TRANSCEIVER, rack=r))
            links.append(_link(server, leaf, LinkKind.WIRED, capacities))
        for p in planes:
            nodes.append(Node(f"rack{r}/txrx{p}", DeviceKind.RACK_TRANSCEIVER, rack=r))
            links.append(_link(f"rack{r}/txrx{p}", leaf, LinkKind.WIRED, capacities))

    for g in range(spec.num_groups):
        for a in range(spec.aps_per_group):
            gateway = a == spec.gateway_ap_index
            nic = f"group{g}/ap{a}/nic"
            nodes.append(Node(nic, DeviceKind.NIC, group=g, ap=a, is_gateway=gateway))
            for p in planes:
                atx = f"group{g}/ap{a}/txrx{p}"
                nodes.append(
                    Node(
                        atx,
                        DeviceKind.AP_TRANSCEIVER,
                        group=g,
                        ap=a,
                        is_gateway=gateway,
                    )
                )
                links.append(_link(atx, nic, LinkKind.FIBER, capacities))
        nodes.append(Node(f"group{g}/switch", DeviceKind.OPTICAL_SWITCH, group=g))

    # Free-space hop: rack r's transceivers beam to its assigned AP.
    for r in range(spec.num_racks):
        g, a = divmod(r, spec.aps_per_group)
        for p in planes:
            links.append(
                _link(
                    f"rack{r}/txrx{p}",
                    f"group{g}/ap{a}/txrx{p}",
                    LinkKind.OWC,
                    capacities,
                )
            )

    for g in range(spec.num_groups):
        for a in range(spec.aps_per_group):
            links.append(
                _link(f"group{g}/ap{a}/nic", f"group{g}/switch", LinkKind.FIBER, capacities)
            )

    nodes.append(Node("olt", DeviceKind.OLT))
    nodes.append(Node("external", DeviceKind.EXTERNAL_GATEWAY))

    for g in range(spec.num_groups):
        gateway_nic = f"group{g}/ap{spec.gateway_ap_index}/nic"
        links.append(_link(gateway_nic, "olt", LinkKind.FIBER, capacities))

    for (g1, a1), (g2, a2) in direct_pairs:
        links.append(
            _link(
                f"group{g1}/ap{a1}/nic",
                f"group{g2}/ap{a2}/nic",
                LinkKind.FIBER,
                capacities,
            )
        )

    links.append(_link("olt", "external", LinkKind.FIBER, capacities))

    return NetworkGraph(nodes, links, Architecture.OWC_PON, spec, capacities)


def _census_and_links(spec: FabricSpec) -> tuple[dict[DeviceKind, int], int]:
    """The census and link count of the graph built from ``spec``, by
    arithmetic; raises what the builder raises."""
    counts = dict.fromkeys(DeviceKind, 0)
    racks, servers = spec.num_racks, spec.num_racks * spec.servers_per_rack
    counts[DeviceKind.LEAF_SWITCH] = racks
    counts[DeviceKind.SERVER] = counts[DeviceKind.SERVER_TRANSCEIVER] = servers
    if isinstance(spec, TraditionalSpec):
        counts[DeviceKind.SPINE_SWITCH] = spec.num_spine
        return counts, servers + racks * spec.num_spine
    direct = _check_owc_pon(spec)
    planes, aps = spec.transceiver_multiplier, spec.num_groups * spec.aps_per_group
    counts[DeviceKind.RACK_TRANSCEIVER] = racks * planes
    counts[DeviceKind.AP_TRANSCEIVER] = aps * planes
    counts[DeviceKind.NIC] = aps
    counts[DeviceKind.OPTICAL_SWITCH] = spec.num_groups
    counts[DeviceKind.OLT] = counts[DeviceKind.EXTERNAL_GATEWAY] = 1
    # server, rooftop uplink, free-space, AP-to-NIC, NIC-to-switch,
    # gateway-to-OLT, direct and OLT-to-external links
    links = servers + 2 * racks * planes + aps * planes + aps + spec.num_groups + direct + 1
    return counts, links


def device_census(spec: FabricSpec) -> dict[DeviceKind, int]:
    """Exact node count per device kind of the graph ``spec`` builds,
    without building it; the power model's only input.

    Raises the builder's ``SpecMismatch``/``BadAdjacency`` for an
    inadmissible spec.
    """
    return _census_and_links(spec)[0]


def fabric_size(spec: FabricSpec) -> tuple[int, int]:
    """(nodes, links) of the graph ``spec`` builds, without building it."""
    census, links = _census_and_links(spec)
    return sum(census.values()), links


@dataclass(frozen=True)
class Violation:
    """One structural rule breach found by ``validate`` or ``validate_graph``."""

    code: str
    subject: str
    message: str


def _check_endpoints(graph: NetworkGraph, out: list[Violation]) -> None:
    for link in graph.links:
        for endpoint in (link.endpoint_a, link.endpoint_b):
            if not graph.has_node(endpoint):
                out.append(
                    Violation(
                        "dangling_link",
                        f"link:{link.id}",
                        f"link {link.id!r} references missing node {endpoint!r}",
                    )
                )


def _check_rack(graph: NetworkGraph, rack: int, servers_expected: int, out) -> None:
    leaves = graph.find_nodes(DeviceKind.LEAF_SWITCH, rack=rack)
    if len(leaves) != 1:
        code = "missing_leaf" if not leaves else "duplicate_leaf"
        out.append(Violation(code, f"rack:{rack}", f"rack {rack} has {len(leaves)} leaf switches"))
        return
    leaf = leaves[0]
    servers = graph.find_nodes(DeviceKind.SERVER, rack=rack)
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
        if not graph.has_node(txrx_id) or graph.node(txrx_id).kind is not DeviceKind.SERVER_TRANSCEIVER:
            out.append(
                Violation(
                    "missing_server_transceiver",
                    server.id,
                    f"server {server.id} has no transceiver node",
                )
            )
        wired = [
            link
            for link in graph.links_of(server.id)
            if link.kind is LinkKind.WIRED and link.touches(leaf.id)
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
        rtxs = graph.find_nodes(DeviceKind.RACK_TRANSCEIVER, rack=rack)
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
        leaves = graph.find_nodes(DeviceKind.LEAF_SWITCH, rack=rack)
        for rtx in rtxs:
            if leaves and not any(
                link.kind is LinkKind.WIRED and link.touches(leaves[0].id)
                for link in graph.links_of(rtx.id)
            ):
                out.append(
                    Violation(
                        "rack_uplink",
                        rtx.id,
                        f"{rtx.id} is not wired to its leaf switch",
                    )
                )
            owc = [link for link in graph.links_of(rtx.id) if link.kind is LinkKind.OWC]
            lands_on_ap = [
                link
                for link in owc
                if graph.has_node(link.other(rtx.id))
                and graph.node(link.other(rtx.id)).kind is DeviceKind.AP_TRANSCEIVER
                and graph.node(link.other(rtx.id)).group == g
                and graph.node(link.other(rtx.id)).ap == a
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
    olts = graph.nodes_of_kind(DeviceKind.OLT)
    for g in range(spec.num_groups):
        switches = graph.find_nodes(DeviceKind.OPTICAL_SWITCH, group=g)
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
            nics = graph.find_nodes(DeviceKind.NIC, group=g, ap=a)
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
            atxs = graph.find_nodes(DeviceKind.AP_TRANSCEIVER, group=g, ap=a)
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
                if graph.link_between(atx.id, nic.id) is None:
                    out.append(
                        Violation(
                            "ap_wiring",
                            atx.id,
                            f"{atx.id} has no fiber link to its NIC",
                        )
                    )
            if switch is not None:
                to_switch = [
                    link for link in graph.links_of(nic.id) if link.touches(switch.id)
                ]
                if len(to_switch) != 1:
                    out.append(
                        Violation(
                            "orphan_nic",
                            nic.id,
                            f"{nic.id} has {len(to_switch)} links to its group's "
                            "optical switch, expected 1",
                        )
                    )

        gateways = graph.find_nodes(DeviceKind.NIC, group=g, gateway=True)
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
            if graph.link_between(gateways[0].id, olts[0].id) is None:
                out.append(
                    Violation(
                        "missing_olt_uplink",
                        f"group:{g}",
                        f"gateway NIC of group {g} has no link to the OLT",
                    )
                )


def _check_backhaul_core(graph: NetworkGraph, spec: OwcPonSpec, out) -> None:
    olts = graph.nodes_of_kind(DeviceKind.OLT)
    if len(olts) != 1:
        code = "missing_olt" if not olts else "duplicate_olt"
        out.append(Violation(code, "olt", f"graph has {len(olts)} OLT nodes"))
    externals = graph.nodes_of_kind(DeviceKind.EXTERNAL_GATEWAY)
    if len(externals) != 1:
        code = "missing_external" if not externals else "duplicate_external"
        out.append(
            Violation(code, "external", f"graph has {len(externals)} external gateways")
        )
    if len(olts) == 1 and len(externals) == 1:
        if graph.link_between(olts[0].id, externals[0].id) is None:
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
            if graph.has_node(endpoint):
                kinds.add(graph.node(endpoint).kind)
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
        if not (graph.has_node(link.endpoint_a) and graph.has_node(link.endpoint_b)):
            continue
        a, b = graph.node(link.endpoint_a), graph.node(link.endpoint_b)
        if a.kind is DeviceKind.NIC and b.kind is DeviceKind.NIC and a.group == b.group:
            out.append(
                Violation(
                    "same_group_direct_link",
                    f"link:{link.id}",
                    "direct NIC-to-NIC links must cross groups",
                )
            )


def _check_spine_mesh(graph: NetworkGraph, spec: TraditionalSpec, out) -> None:
    spines = graph.nodes_of_kind(DeviceKind.SPINE_SWITCH)
    if len(spines) != spec.num_spine:
        out.append(
            Violation(
                "spine_count",
                "spine",
                f"graph has {len(spines)} spine switches, expected {spec.num_spine}",
            )
        )
    for rack in range(spec.num_racks):
        leaves = graph.find_nodes(DeviceKind.LEAF_SWITCH, rack=rack)
        if len(leaves) != 1:
            continue  # already reported by the rack check
        leaf = leaves[0].id
        neighbours = Counter(link.other(leaf) for link in graph.links_of(leaf))
        for spine in spines:
            count = neighbours[spine.id]
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
        for other, _ in graph.neighbors(current):
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


def validate_graph(graph: NetworkGraph) -> list[Violation]:
    """Check the graph against its spec's construction rules.

    Returns an empty list for a well-formed graph.  Violations are data,
    not exceptions.  Global connectivity is asserted only when every
    structural rule passed; on broken graphs a reachability failure is a
    consequence of the structural breach, not a second finding.
    """
    out: list[Violation] = []
    _check_endpoints(graph, out)
    spec = graph.spec
    for rack in range(spec.num_racks):
        _check_rack(graph, rack, spec.servers_per_rack, out)
    if graph.architecture is Architecture.TRADITIONAL:
        _check_spine_mesh(graph, spec, out)
    else:
        _check_rack_transceivers(graph, spec, out)
        _check_groups(graph, spec, out)
        _check_backhaul_core(graph, spec, out)

    if not out and spec.num_racks > 0:
        _check_connected(graph, out)
    return out


def validate(spec: FabricSpec) -> list[Violation]:
    """``validate_graph`` of the graph ``spec`` builds, without building it.

    Built graphs keep every construction rule, so the only finding is
    reachability: without spines, every traditional rack but the first is
    cut off from rack 0's leaf.  Raises the builder's errors for an
    inadmissible spec.
    """
    if isinstance(spec, OwcPonSpec):
        _check_owc_pon(spec)
    elif spec.num_spine == 0 and spec.num_racks >= 2:
        unreachable = (spec.num_racks - 1) * (1 + spec.servers_per_rack)
        message = f"{unreachable} nodes unreachable from 'rack0/leaf'"
        return [Violation("disconnected", "rack1/leaf", message)]
    return []
