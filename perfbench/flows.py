"""Seeded input for the ``seeded_flows`` workload, and its load check.

``generate(seed)`` writes an owcpon scenario with explicit cross-group AP
pairs, a random gateway AP and explicit ``flow`` lines between random
servers. ``expected_load_sum(spec)`` computes, from the generated spec
alone, what the sum of all link loads of ``simulate`` must be: each flow
adds its rate once per hop, with the hop count of its class from the
README's routing table.

    python3 perfbench/flows.py --seed 7     # print the generated scenario
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from fractions import Fraction

# About 1.2 flows per ordered rack pair, and about 92% of them relayed
# through the OLT: 15 of 16 pairs cross groups and 32 direct AP pairs
# cover few of the 1,920 cross-group AP pairs.
RACKS = 64
SERVERS_PER_RACK = 8
GROUPS = 16
APS_PER_GROUP = 4
DIRECT_PAIRS = 32
FLOWS = 5_000


@dataclass(frozen=True)
class FlowSpec:
    gateway_ap: int
    pairs: frozenset  # of frozenset({(group, ap), (group, ap)})
    flows: tuple  # of ((rack, server), (rack, server), rate in Mb/s)


def _draw(seed: int) -> FlowSpec:
    rng = random.Random(seed)
    pairs: set = set()
    while len(pairs) < DIRECT_PAIRS:
        a = (rng.randrange(GROUPS), rng.randrange(APS_PER_GROUP))
        b = (rng.randrange(GROUPS), rng.randrange(APS_PER_GROUP))
        if a[0] != b[0]:
            pairs.add(frozenset((a, b)))
    servers = RACKS * SERVERS_PER_RACK
    seen: set = set()
    flows = []
    while len(flows) < FLOWS:
        src, dst = rng.randrange(servers), rng.randrange(servers)
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        rate = rng.randint(1, 10_000)
        flows.append((divmod(src, SERVERS_PER_RACK), divmod(dst, SERVERS_PER_RACK), rate))
    return FlowSpec(rng.randrange(APS_PER_GROUP), frozenset(pairs), tuple(flows))


def _server(rack_server: tuple[int, int]) -> str:
    return f"rack{rack_server[0]}/server{rack_server[1]}"


def _pair_text(pair: frozenset) -> str:
    a, b = sorted(pair)
    return f"{a[0]}.{a[1]}-{b[0]}.{b[1]}"


def generate(seed: int) -> tuple[str, FlowSpec]:
    """The scenario text for ``seed`` and the spec it was drawn from."""
    spec = _draw(seed)
    lines = [
        f"# seeded_flows, seed {seed}",
        "[architecture]",
        "select = owcpon",
        f"owcpon.racks = {RACKS}",
        f"owcpon.servers_per_rack = {SERVERS_PER_RACK}",
        f"owcpon.groups = {GROUPS}",
        f"owcpon.aps_per_group = {APS_PER_GROUP}",
        "owcpon.adjacency = explicit",
        "owcpon.pairs = " + ", ".join(sorted(_pair_text(p) for p in spec.pairs)),
        f"owcpon.gateway_ap = {spec.gateway_ap}",
        "",
        "[traffic]",
    ]
    lines += [
        f"flow = {_server(src)} {_server(dst)} {rate // 1000}.{rate % 1000:03d}"
        for src, dst, rate in spec.flows
    ]
    return "\n".join(lines) + "\n", spec


def hops(spec: FlowSpec, src_rack: int, dst_rack: int) -> int:
    """Hop count of a server-to-server route between distinct servers."""
    if src_rack == dst_rack:
        return 2
    a = divmod(src_rack, APS_PER_GROUP)
    b = divmod(dst_rack, APS_PER_GROUP)
    if a[0] == b[0]:
        return 10
    if frozenset((a, b)) in spec.pairs:
        return 9
    return 14 - 2 * sum(ap == spec.gateway_ap for _, ap in (a, b))


def expected_load_sum(spec: FlowSpec) -> Fraction:
    """Sum of every link's load in Gb/s."""
    milli = sum(rate * hops(spec, src[0], dst[0]) for src, dst, rate in spec.flows)
    return Fraction(milli, 1000)


def inter_rack_flows(spec: FlowSpec) -> int:
    return sum(src[0] != dst[0] for src, dst, _ in spec.flows)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    print(generate(parser.parse_args().seed)[0], end="")
