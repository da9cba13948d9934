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
fabric's nodes and links come from its spec alone, by one walk (``wire``)
that the builders, ``fabric_links`` and ``build``'s rows all share.

This module is the only one that knows the id scheme: the node id
templates, the link id rule ``a--b`` and its inverse (``link_ends``),
and the three route pieces named from a spec, as link ids only: a
server's edge link (``edge_link``), a rack's links up to a junction on
its first plane (``uplinks``) and the direct link between two racks'
NICs (``direct_link``).  Routes and traffic name every id through these.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, NamedTuple, Union

from .errors import BadAdjacency, ScenarioError, SpecMismatch, UnknownServer
from .render import Table


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
    The list is not empty: ``NoDirectLinks()`` is the fabric without one.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def _checked(self) -> None:
        if not self.pairs:
            raise ValueError("pairs is empty; NoDirectLinks() builds that fabric")
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


# The id scheme: the one place that spells node and link ids.  Each node
# id is filled in from the indices of its spine, rack, server, group, AP
# and transceiver plane, and each link id joins the ids of its two ends,
# in the order the builder lists them; other modules name ids through
# these.  They are plain functions, one line each: a bound ``str.format``
# would cost about three times as much per call, once per node and link.
OLT, EXTERNAL = "olt", "external"
spine_id = lambda spine: f"spine{spine}"
leaf_id = lambda rack: f"rack{rack}/leaf"
server_id = lambda rack, index: f"rack{rack}/server{index}"
server_txrx_id = lambda server: f"{server}/txrx"  # the server's linkless transceiver
rooftop_id = lambda rack, plane: f"rack{rack}/txrx{plane}"
ap_id = lambda group, ap: f"group{group}/ap{ap}"  # an AP's name, which the next two extend
ceiling_id = lambda group, ap, plane: f"{ap_id(group, ap)}/txrx{plane}"
nic_id = lambda group, ap: f"{ap_id(group, ap)}/nic"
switch_id = lambda group: f"group{group}/switch"
link_id = lambda a, b: f"{a}--{b}"  # ``link_ends`` inverts it


def link_ends(link: str) -> list[str]:
    return link.split("--")  # no node id holds ``--``


# A server id as ``server_id`` makes it: decimal rack and server numbers in
# ASCII digits, without leading zeros.
_SERVER_ID = re.compile(r"rack(0|[1-9][0-9]*)/server(0|[1-9][0-9]*)")


def _below(digits: str, count: int) -> bool:
    """Whether the decimal ``digits`` name a number below ``count``; their
    length is compared first, since ``int`` refuses over 4,300 digits."""
    return len(digits) <= len(str(count)) and int(digits) < count


def edge_link(spec: FabricSpec, server: str) -> tuple[int, str]:
    """(rack, id of the link to its leaf) of the server ``server`` names in
    the fabric ``spec`` builds; raises ``UnknownServer`` if it names none."""
    match = isinstance(server, str) and _SERVER_ID.fullmatch(server)
    if match and _below(match[1], spec.num_racks) and _below(match[2], spec.servers_per_rack):
        return int(match[1]), link_id(server, leaf_id(match[1]))
    raise UnknownServer(server)


def uplinks(spec: OwcPonSpec, rack: int, junction: str) -> tuple[str, ...]:
    """The link ids from ``rack``'s leaf up to ``junction`` on the first
    plane: its AP's NIC (``nic``), its group's optical switch (``switch``)
    or the OLT (``olt``), which the group's gateway NIC enters."""
    group, ap = divmod(rack, spec.aps_per_group)
    rtx, atx, nic = rooftop_id(rack, 0), ceiling_id(group, ap, 0), nic_id(group, ap)
    links = [link_id(rtx, leaf_id(rack)), link_id(rtx, atx), link_id(atx, nic)]
    gateway = nic_id(group, spec.gateway_ap_index)
    if junction == "switch" or (junction == "olt" and nic != gateway):
        links.append(link_id(nic, switch_id(group)))
    if junction == "olt":
        if nic != gateway:
            links.append(link_id(gateway, switch_id(group)))
        links.append(link_id(gateway, OLT))
    return tuple(links)


def direct_link(spec: OwcPonSpec, rack_a: int, rack_b: int) -> str:
    """The id of the direct link from ``rack_a``'s AP's NIC to ``rack_b``'s,
    named in that orientation."""
    aps = spec.aps_per_group
    return link_id(nic_id(*divmod(rack_a, aps)), nic_id(*divmod(rack_b, aps)))


def _linker(kind: LinkKind, capacity: Fraction) -> Callable[[str, str], Link]:
    """``wire``'s maker of ``kind`` links from ``a`` to ``b`` at
    ``capacity``; its links skip ``Link``'s checks (see ``Link``)."""
    make = Link._make
    return lambda a, b: make((link_id(a, b), a, b, kind, capacity))


def build_traditional(
    spec: TraditionalSpec, capacities: LinkCapacities = LinkCapacities()
) -> NetworkGraph:
    """Construct the spine-and-leaf graph.

    Every leaf connects to every spine (full bipartite mesh); each server
    is wired to its rack's leaf and carries one linkless transceiver node.
    Zero counts simply yield an empty or partial graph.
    """
    return NetworkGraph(*wire(spec, capacities, _linker, Node), spec)


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
                        f"pair references missing AP {ap_id(group, ap)}"
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
    return NetworkGraph(*wire(spec, capacities, _linker, Node), spec)


def fabric_links(spec: FabricSpec, capacities: LinkCapacities = LinkCapacities()) -> list[Link]:
    """The links of the fabric ``spec`` builds, in the builder's order and
    by its ids, without its nodes; raises the builder's errors for an
    inadmissible spec."""
    return wire(spec, capacities, _linker)[1]


def wire(
    spec: FabricSpec, capacities: LinkCapacities, link: Callable, node: Callable | None = None
) -> tuple[list, list]:
    """The (nodes, links) of the fabric ``spec`` builds, in the builder's
    order, from the given makers: ``link(kind, capacity)`` is called once
    per link kind and returns the maker of its links from ``a`` to ``b``;
    ``node`` takes ``Node``'s fields, the unset ones left out by name (no
    nodes without it).  Node ids are the very strings the links are made
    from.  Raises the builder's errors for an inadmissible spec."""
    traditional = isinstance(spec, TraditionalSpec)
    if not traditional:
        _check_owc_pon(spec)
    wired, owc, fiber = (link(kind, capacities.for_kind(kind)) for kind in LinkKind)
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
        links += [wired(server, leaf) for server in rack_servers]
        links += [wired(rtx, leaf) for rtx in rtxs]
    if traditional:
        return nodes, links + [wired(leaf, spine) for leaf in leaves for spine in spines]

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
    for atxs, nic in zip(ceilings, nics):
        links += [fiber(atx, nic) for atx in atxs]
    for rtxs, atxs in zip(rooftops, ceilings):  # rack r beams to AP r, in group-major order
        links += map(owc, rtxs, atxs)
    for switch, group_nics in zip(switches, groups):
        links += [fiber(nic, switch) for nic in group_nics]
    links += [fiber(group_nics[gateway], OLT) for group_nics in groups]
    if isinstance(spec.adjacency, IndexMatched):  # same-index APs of every group pair
        pairs = itertools.combinations(groups, 2)
        links += [fiber(a, b) for g1, g2 in pairs for a, b in zip(g1, g2)]
    else:
        pairs = getattr(spec.adjacency, "pairs", ())
        links += [fiber(groups[g1][a1], groups[g2][a2]) for (g1, a1), (g2, a2) in pairs]
    links.append(fiber(OLT, EXTERNAL))
    return nodes, links


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


def census_table(name: str, census: dict[DeviceKind, int]) -> Table:
    """The ``census_<arch>`` table: the count of each device kind, in ``DeviceKind`` order."""
    rows = tuple((kind.value, census[kind]) for kind in DeviceKind)
    return Table(name, ("device", "count"), rows)


def fabric_size(spec: FabricSpec) -> tuple[int, int]:
    """(nodes, links) of the graph ``spec`` builds, without building it."""
    census, links = _census_and_links(spec)
    return sum(census.values()), links


#: Most nodes plus links a command may build a graph of, or list the rows of.
GRAPH_BUDGET = 1_000_000


def check_size(specs: dict[Architecture, FabricSpec]) -> None:
    """Raise the builder's errors for any inadmissible spec of ``specs``,
    then a ``ScenarioError`` for the first fabric of more than
    ``GRAPH_BUDGET`` nodes plus links; both by arithmetic, before anything
    is allocated."""
    sizes = {architecture: fabric_size(spec) for architecture, spec in specs.items()}
    for architecture, (nodes, links) in sizes.items():
        if nodes + links > GRAPH_BUDGET:
            raise ScenarioError(
                f"{architecture.value} fabric would have {nodes} nodes and "
                f"{links} links, over the {GRAPH_BUDGET} budget"
            )


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
        message = f"{unreachable} nodes unreachable from {leaf_id(0)!r}"
        return [Violation("disconnected", leaf_id(1), message)]
    return []
