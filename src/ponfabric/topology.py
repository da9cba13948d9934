"""Fabric specs, the id scheme, device census, and structural validation.

Two architectures are modeled.  The traditional one is a two-tier
spine-and-leaf fabric: one leaf switch per rack, servers wired to their
leaf, and a full bipartite mesh between leaves and spines.  The proposed
one drops the spine layer: each rack carries a rooftop transceiver with a
free-space optical link up to a ceiling access point (AP), and the APs are
backhauled by a passive optical network (one optical switch per AP group,
direct AP-to-AP fiber links between groups, and a single OLT that relays
between groups and uplinks to the outside).

Every operation here is a pure function of its inputs, and each count,
census and structural verdict follows from the spec by arithmetic.  The
walk that lists a fabric's nodes and links (``wire``) and the graph API
built from it (``Node``, ``Link``, ``NetworkGraph`` and the two builders)
live in ``graph``, which only the commands that list rows load.

This module is the only one that knows the id scheme: the node id
templates, the link id rule ``a--b`` and its inverse (``link_ends``),
and the three route pieces named from a spec, as link ids only: a
server's edge link (``edge_link``), a rack's links up to a junction on
its first plane (``uplinks``) and the direct link between two racks'
NICs (``direct_link``).  Routes and traffic name every id through these.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Union

from .document import Table
from .errors import BadAdjacency, ScenarioError, SpecMismatch, UnknownServer


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
