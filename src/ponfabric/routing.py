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

Routes follow from the spec, and no graph is read.  Their pieces are
link ids that ``topology``, the one module that knows the id scheme,
names: a server's edge link (its rack comes from its id), a rack's links
up to a junction on its first transceiver plane, and the direct link
between two NICs in the orientation the spec lists.  A route's nodes are
walked from its link ids.  Between its two edge links (server to leaf)
every inter-rack chain is the source leaf's half-route up to where
routes of its class meet (the group's optical switch, the OLT, or its
own NIC, then the direct link to the other NIC) and the destination
leaf's half-route down.  ``RouteTable`` and ``resolve_route``, whose
``dst`` may be ``"external"``, live in ``route_table``, which only
``route`` and ``simulate`` load.  ``all_pairs_summary`` counts the
classes above from the spec and the policy alone.  The graph walk that
checks the table is ``reference_route`` in the test oracles.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice

from . import _read_through
from .errors import PolicyExcluded
from .scenario import RoutingPolicy  # defined with the scenario that holds it
from .topology import IndexMatched, OwcPonSpec, server_id
from .topology import _check_owc_pon  # the builder's spec checks, which routes share

# perfbench/traced.py wraps this name in this module; nothing here calls
# it, so ``route_table`` loads only when it is read.
__getattr__ = _read_through(globals(), {".route_table": "resolve_route"})


_UNLINKED = "no direct link between the APs of {} and {}, and relay fallback is disabled"


class PathClass(Enum):
    SAME_SERVER = "same_server"
    INTRA_RACK = "intra_rack"
    INTER_RACK_INTRA_GROUP = "inter_rack_intra_group"
    INTER_GROUP_DIRECT = "inter_group_direct"
    INTER_GROUP_RELAYED = "inter_group_relayed"
    EXTERNAL = "external"


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
    return PolicyExcluded(_UNLINKED.format(server_id(src, 0), server_id(dst, 0)))


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
