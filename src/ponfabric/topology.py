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

    The architecture follows from the spec's type, and each link carries
    its own capacity.  Construction is permissive about structure but
    rejects duplicate node ids.  Adjacency skips links whose endpoints are
    missing.
    """

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link], spec: FabricSpec):
        self._nodes = tuple(nodes)
        self._links = tuple(links)
        self._spec = spec
        traditional = isinstance(spec, TraditionalSpec)
        self._architecture = Architecture.TRADITIONAL if traditional else Architecture.OWC_PON

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

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_by_id

    def node(self, node_id: str) -> Node:
        return self._node_by_id[node_id]

    def nodes_of_kind(self, kind: DeviceKind) -> tuple[Node, ...]:
        return tuple(self._by_kind[kind])

    def neighbors(self, node_id: str) -> tuple[tuple[Node, Link], ...]:
        return tuple(
            (self._node_by_id[other], link)
            for other, link in self._adjacency.get(node_id, [])
        )

    def link_between(self, a: str, b: str) -> Link | None:
        """The first link joining ``a`` and ``b`` in adjacency order, if any."""
        index = self._link_index.get(a)
        if index is None:
            index = {}
            for other, link in self._adjacency.get(a, ()):
                index.setdefault(other, link)
            self._link_index[a] = index
        return index.get(b)

    def __repr__(self) -> str:
        return (
            f"NetworkGraph({self._architecture.value}, "
            f"{len(self._nodes)} nodes, {len(self._links)} links)"
        )


def _link(a: str, b: str, kind: LinkKind, capacities: LinkCapacities) -> Link:
    return Link(f"{a}--{b}", a, b, kind, capacities.for_kind(kind))


def _wire_rack(
    r: int, servers_per_rack: int, capacities: LinkCapacities, nodes: list[Node], links: list[Link]
) -> str:
    """Append rack ``r``'s leaf, its servers with their transceiver nodes,
    and the servers' wired links; return the leaf's id."""
    leaf = f"rack{r}/leaf"
    nodes.append(Node(leaf, DeviceKind.LEAF_SWITCH, rack=r))
    for i in range(servers_per_rack):
        server = f"rack{r}/server{i}"
        nodes.append(Node(server, DeviceKind.SERVER, rack=r))
        nodes.append(Node(f"{server}/txrx", DeviceKind.SERVER_TRANSCEIVER, rack=r))
        links.append(_link(server, leaf, LinkKind.WIRED, capacities))
    return leaf


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
        _wire_rack(r, spec.servers_per_rack, capacities, nodes, links)

    for r in range(spec.num_racks):
        for s in range(spec.num_spine):
            links.append(_link(f"rack{r}/leaf", f"spine{s}", LinkKind.WIRED, capacities))

    return NetworkGraph(nodes, links, spec)


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
        leaf = _wire_rack(r, spec.servers_per_rack, capacities, nodes, links)
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

    return NetworkGraph(nodes, links, spec)


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
    """One structural rule breach found by ``validate``."""

    code: str
    subject: str
    message: str


def validate(spec: FabricSpec) -> list[Violation]:
    """The structural rule breaches of the graph ``spec`` builds, without
    building it.

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
