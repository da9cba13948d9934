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
of its inputs, so identical specs always produce identical graphs.  A
fabric's links come from its spec alone (``fabric_links``), and the
builders take theirs from there.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, NamedTuple, Union

from .errors import BadAdjacency, SpecMismatch


def checked(record: type) -> type:
    """The named tuple class ``record``, with ``record(...)`` and ``_replace``
    passing each new value to its ``_checked``, which raises, or returns a
    normalised copy made with ``_make`` (which skips it), or None to keep it."""
    new, replace = record.__new__, record._replace

    @wraps(new)  # keeps the fields' signature for ``help`` and ``inspect``
    def checked_new(cls, *args, **kwargs):
        value = new(cls, *args, **kwargs)
        return value._checked() or value

    record.__new__ = checked_new
    record._replace = lambda self, **changes: record(*replace(self, **changes))
    return record


def check_count(value: object, name: str, minimum: int | None = None) -> int:
    """``value`` if an int, not a bool, of at least ``minimum``, else an error naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def check_rate(value: object, name: str) -> int | Fraction:
    """``value`` if an int, not a bool, or a ``Fraction``, else an error naming ``name``."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int or a Fraction, not {type(value).__name__}")
    return value


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


@checked
class LinkCapacities(NamedTuple):
    """Per-kind link capacities in Gb/s, ints or ``Fraction``s, kept as ``Fraction``s."""

    wired: Fraction = Fraction(10)
    owc: Fraction = Fraction(10)
    fiber: Fraction = Fraction(40)

    def _checked(self) -> LinkCapacities:
        for name, value in zip(self._fields, self):
            if check_rate(value, name) <= 0:
                raise ValueError(f"{name} capacity must be positive")
        return self._make(map(Fraction, self))

    def for_kind(self, kind: LinkKind) -> Fraction:
        return getattr(self, kind.value)  # the fields are named by the kinds' values


@checked
class TraditionalSpec(NamedTuple):
    """Parameters of the spine-and-leaf fabric (one leaf per rack)."""

    num_spine: int = 8
    num_racks: int = 8
    servers_per_rack: int = 8

    def _checked(self) -> None:
        for name in ("num_racks", "servers_per_rack", "num_spine"):
            check_count(getattr(self, name), name, 0)


class _Marker:
    """A parameterless adjacency policy, equal to its class's instances only."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IndexMatched(_Marker):
    """Direct inter-group links between same-index APs of every group pair."""

    __slots__ = ()


class NoDirectLinks(_Marker):
    """No direct inter-group links; cross-group traffic relays via the OLT."""

    __slots__ = ()


@checked
class ExplicitPairs(NamedTuple):
    """Direct inter-group links between explicitly listed AP pairs.

    Each pair is ``((group_a, ap_a), (group_b, ap_b))`` of ints, with the
    two APs in distinct groups (the fabric's checks hold the second rule).
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def _checked(self) -> None:
        for first, second in self.pairs:
            for index in (*first, *second):
                check_count(index, "each index in pairs")


InterGroupAdjacency = Union[IndexMatched, ExplicitPairs, NoDirectLinks]


@checked
class OwcPonSpec(NamedTuple):
    """Parameters of the optical-wireless fabric with PON backhaul.

    ``num_groups * aps_per_group`` must equal ``num_racks``: each AP serves
    exactly one rack (rack ``r`` maps to group ``r // aps_per_group``, AP
    ``r % aps_per_group``).  ``transceiver_multiplier`` creates that many
    parallel rack/AP transceiver pairs per rack; routing always uses the
    first pair.  Every count is an int.
    """

    num_racks: int = 8
    servers_per_rack: int = 8
    num_groups: int = 2
    aps_per_group: int = 4
    adjacency: InterGroupAdjacency = IndexMatched()
    gateway_ap_index: int = 0
    transceiver_multiplier: int = 1

    def _checked(self) -> None:
        for name, value in zip(self._fields, self):
            if name != "adjacency":
                check_count(value, name, 1 if name == "transceiver_multiplier" else 0)


FabricSpec = Union[TraditionalSpec, OwcPonSpec]


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


def _linker(kind: LinkKind, capacities: LinkCapacities) -> Callable[[str, str], Link]:
    """A maker of ``kind`` links from ``a`` to ``b`` at that kind's
    capacity, read once; its links skip ``Link``'s checks (see ``Link``)."""
    capacity, make = capacities.for_kind(kind), Link._make
    return lambda a, b: make((f"{a}--{b}", a, b, kind, capacity))


def _rack_nodes(r: int, servers_per_rack: int) -> list[Node]:
    """Rack ``r``'s leaf, then its servers, each with its transceiver node."""
    nodes = [Node(f"rack{r}/leaf", _LEAF, r)]
    for i in range(servers_per_rack):
        server = f"rack{r}/server{i}"
        nodes += [Node(server, _SERVER, r), Node(f"{server}/txrx", _SERVER_TXRX, r)]
    return nodes


def build_traditional(
    spec: TraditionalSpec, capacities: LinkCapacities = LinkCapacities()
) -> NetworkGraph:
    """Construct the spine-and-leaf graph.

    Every leaf connects to every spine (full bipartite mesh); each server
    is wired to its rack's leaf and carries one linkless transceiver node.
    Zero counts simply yield an empty or partial graph.
    """
    nodes = [Node(f"spine{s}", _SPINE) for s in range(spec.num_spine)]
    for r in range(spec.num_racks):
        nodes += _rack_nodes(r, spec.servers_per_rack)
    return NetworkGraph(nodes, fabric_links(spec, capacities), spec)


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
                # a bool or a float would name an AP the builder never makes;
                # ``ExplicitPairs`` refuses them, but its ``_make`` does not
                if type(group) is not int or type(ap) is not int or not (
                    0 <= group < spec.num_groups and 0 <= ap < spec.aps_per_group
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
    links = fabric_links(spec, capacities)  # checks the spec first
    planes = range(spec.transceiver_multiplier)
    nodes: list[Node] = []
    for r in range(spec.num_racks):
        nodes += _rack_nodes(r, spec.servers_per_rack)
        nodes += [Node(f"rack{r}/txrx{p}", _RACK_TXRX, r) for p in planes]
    for g in range(spec.num_groups):
        for a in range(spec.aps_per_group):
            gateway = a == spec.gateway_ap_index
            nodes.append(Node(f"group{g}/ap{a}/nic", _NIC, group=g, ap=a, is_gateway=gateway))
            nodes += [
                Node(f"group{g}/ap{a}/txrx{p}", _AP_TXRX, group=g, ap=a, is_gateway=gateway)
                for p in planes
            ]
        nodes.append(Node(f"group{g}/switch", _SWITCH, group=g))
    nodes.append(Node("olt", DeviceKind.OLT))
    nodes.append(Node("external", DeviceKind.EXTERNAL_GATEWAY))
    return NetworkGraph(nodes, links, spec)


def fabric_links(spec: FabricSpec, capacities: LinkCapacities = LinkCapacities()) -> list[Link]:
    """The links of the fabric ``spec`` builds, in the builder's order and
    by its ids, without its nodes; raises the builder's errors for an
    inadmissible spec."""
    traditional = isinstance(spec, TraditionalSpec)
    if not traditional:
        _check_owc_pon(spec)
    wired, owc, fiber = (_linker(kind, capacities) for kind in LinkKind)
    planes = () if traditional else range(spec.transceiver_multiplier)
    # Ids made once and shared by every link that names them.
    leaves = [f"rack{r}/leaf" for r in range(spec.num_racks)]
    rooftops = [[f"rack{r}/txrx{p}" for p in planes] for r in range(spec.num_racks)]
    links: list[Link] = []
    for r, (leaf, rtxs) in enumerate(zip(leaves, rooftops)):
        links += [wired(f"rack{r}/server{i}", leaf) for i in range(spec.servers_per_rack)]
        links += [wired(rtx, leaf) for rtx in rtxs]
    if traditional:
        spines = [f"spine{s}" for s in range(spec.num_spine)]
        return links + [wired(leaf, spine) for leaf in leaves for spine in spines]

    per_group = spec.aps_per_group
    aps = [f"group{g}/ap{a}" for g in range(spec.num_groups) for a in range(per_group)]
    ceilings = [[f"{ap}/txrx{p}" for p in planes] for ap in aps]
    nics = [f"{ap}/nic" for ap in aps]
    groups = [nics[g * per_group : (g + 1) * per_group] for g in range(spec.num_groups)]
    for atxs, nic in zip(ceilings, nics):
        links += [fiber(atx, nic) for atx in atxs]
    for rtxs, atxs in zip(rooftops, ceilings):  # rack r beams to AP r, in group-major order
        links += map(owc, rtxs, atxs)
    for g, group_nics in enumerate(groups):
        links += [fiber(nic, f"group{g}/switch") for nic in group_nics]
    links += [fiber(group_nics[spec.gateway_ap_index], "olt") for group_nics in groups]
    if isinstance(spec.adjacency, IndexMatched):  # same-index APs of every group pair
        pairs = itertools.combinations(groups, 2)
        links += [fiber(a, b) for g1, g2 in pairs for a, b in zip(g1, g2)]
    else:
        pairs = getattr(spec.adjacency, "pairs", ())
        links += [fiber(groups[g1][a1], groups[g2][a2]) for (g1, a1), (g2, a2) in pairs]
    links.append(fiber("olt", "external"))
    return links


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


class Violation(NamedTuple):
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
