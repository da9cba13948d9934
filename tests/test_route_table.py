"""Differential tests: routes named from the spec against the graph walk
in ``oracles`` on the fabric the spec builds, and the aggregated sums of
``assign`` against the per-pair reference on the built graph, at drawn
link capacities and on seeded flow lines; the block sums of each traffic
pattern against its per-server matrix; the closed-form all-pairs
histogram against every pair resolved on the built graph; and the size
of the table behind ``assign``, which keeps pieces per server and per
rack, none per rack pair."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import outcome
from ponfabric import (
    DeviceKind,
    ExplicitPairs,
    HotspotRackPattern,
    IndexMatched,
    IntraRackHeavyPattern,
    LinkCapacities,
    NoDirectLinks,
    OwcPonSpec,
    RoutingPolicy,
    RouteTable,
    TraditionalSpec,
    TrafficMatrix,
    UniformPattern,
    all_pairs_summary,
    assign,
    build_owc_pon,
    build_traditional,
    generate_traffic,
    parse_scenario,
    resolve_route,
    route_to_external,
)

from test_census import owcpon_specs as census_specs

POLICIES = [
    RoutingPolicy(prefer_direct_inter_group=prefer, allow_relay_fallback=relay)
    for prefer in (True, False)
    for relay in (True, False)
]


@st.composite
def owcpon_specs(draw):
    """Every adjacency kind, with explicit pairs listed in either
    orientation, every gateway index and one to three planes."""
    groups = draw(st.integers(1, 3))
    aps = draw(st.integers(1, 3))
    choice = draw(st.sampled_from(["index_matched", "none", "explicit"]))
    if choice == "index_matched":
        adjacency = IndexMatched()
    elif choice == "none":
        adjacency = NoDirectLinks()
    else:
        ap_ids = [(g, a) for g in range(groups) for a in range(aps)]
        candidates = [
            (first, second)
            for first, second in itertools.combinations(ap_ids, 2)
            if first[0] != second[0]
        ]
        pairs = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
        flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        adjacency = ExplicitPairs(tuple(pair[::-1] if flip else pair for pair, flip in zip(pairs, flips)))
    return OwcPonSpec(
        num_racks=groups * aps,
        servers_per_rack=draw(st.integers(1, 3)),
        num_groups=groups,
        aps_per_group=aps,
        adjacency=adjacency,
        gateway_ap_index=draw(st.integers(0, aps - 1)),
        transceiver_multiplier=draw(st.integers(1, 3)),
    )


traditional_specs = st.builds(
    TraditionalSpec,
    num_spine=st.integers(1, 2),
    num_racks=st.integers(1, 3),
    servers_per_rack=st.integers(1, 2),
)


@st.composite
def built_fabrics(draw, capacities=st.just(LinkCapacities())):
    if draw(st.integers(0, 5)):
        return build_owc_pon(draw(owcpon_specs()), draw(capacities))
    return build_traditional(draw(traditional_specs), draw(capacities))


capacity = st.integers(1, 40) | st.fractions(Fraction(1, 12), 40, max_denominator=12)
link_capacities = st.builds(LinkCapacities, capacity, capacity, capacity)


def servers_of(graph):
    return sorted(node.id for node in oracles.index(graph).nodes_of_kind(DeviceKind.SERVER))


def endpoints(graph):
    """The fabric's servers, then ids that name none: other kinds' nodes,
    a rack past the last, a leading zero, a non-ASCII digit and numbers of
    5,000 digits."""
    others = ["nosuch", "olt", "rack0/leaf", "rack0/server0/txrx", f"rack{graph.spec.num_racks}/server0"]
    others += ["rack01/server0", "rack0/server00", "rack\u0663/server0"]
    others += ["rack" + "1" * 5000 + "/server0", "rack0/server" + "1" * 5000]
    return servers_of(graph) + others


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graph=built_fabrics(), policy=st.sampled_from(POLICIES), order=st.randoms(use_true_random=False))
def test_routes_match_reference(graph, policy, order):
    """Every ordered pair of endpoints routed by the table of the spec,
    in shuffled order, and every endpoint's route to the external gateway,
    against the graph walk on the fabric the spec builds, errors included;
    an id that is not text is no server either."""
    ids = endpoints(graph) + [7]
    pairs = list(itertools.product(ids, repeat=2))
    order.shuffle(pairs)  # memoised pieces must not depend on resolution order
    table = RouteTable(graph.spec, policy)
    for src, dst in pairs:
        expected = outcome(lambda: oracles.reference_route(graph, src, dst, policy))
        assert outcome(lambda: table.route(src, dst)) == expected, (src, dst)
    for src, dst in pairs[:10]:
        assert outcome(lambda: resolve_route(graph.spec, src, dst, policy)) == outcome(
            lambda: oracles.reference_route(graph, src, dst, policy)
        )
    for src in ids:
        assert outcome(lambda: route_to_external(graph.spec, src)) == outcome(
            lambda: oracles.reference_route_to_external(graph, src)
        ), src


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=census_specs())
def test_histograms_match_reference(spec):
    """The closed-form histogram against every pair resolved on the built
    graph, under all four policies; inadmissible specs raise alike."""
    graph = outcome(lambda: build_owc_pon(spec))
    for policy in POLICIES:
        expected = graph if isinstance(graph, tuple) else outcome(
            lambda: oracles.reference_all_pairs(graph, policy)
        )
        assert outcome(lambda: all_pairs_summary(spec, policy)) == expected, policy


@st.composite
def fabric_and_matrix(draw):
    """A fabric built at drawn capacities, and flow lines between its
    servers, now and then with an entry naming a non-server."""
    capacities = draw(link_capacities)
    graph = draw(built_fabrics(st.just(capacities)))
    ids = endpoints(graph)
    servers = st.sampled_from(servers_of(graph) or ids)
    rates = st.fractions(min_value=0, max_value=10, max_denominator=12)
    demands = draw(st.dictionaries(st.tuples(servers, servers), rates, max_size=40))
    if not draw(st.integers(0, 3)):  # now and then, an entry naming a non-server
        demands[draw(st.tuples(st.sampled_from(ids), st.sampled_from(ids)))] = draw(rates)
    return graph, capacities, TrafficMatrix(demands)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=fabric_and_matrix(), policy=st.sampled_from(POLICIES))
def test_link_loads_match_reference(case, policy):
    """``assign`` through the spec's table, at the graph's capacities,
    against the per-pair walk on the built graph: the same rows, or the
    same error naming the same first failing entry (a traditional
    inter-rack pair, a non-server, or a pair the policy excludes)."""
    graph, capacities, matrix = case
    table = RouteTable(graph.spec, policy)
    assert outcome(lambda: assign(table, matrix, capacities)) == outcome(
        lambda: oracles.reference_assign(graph, matrix, policy)
    )
    assert matrix.total_demand() == sum(matrix.demands.values(), Fraction(0))


def test_uniform_all_pairs_match_reference(default_owcpon):
    pattern = UniformPattern(Fraction(3, 7))
    matrix = oracles.reference_generate_traffic(pattern, default_owcpon)
    table = RouteTable(default_owcpon.spec)
    assert assign(table, generate_traffic(pattern, default_owcpon.spec)) == (
        oracles.reference_assign(default_owcpon, matrix)
    )
    assert assign(table, matrix) == oracles.reference_assign(default_owcpon, matrix)
    assert all_pairs_summary(default_owcpon.spec) == oracles.reference_all_pairs(default_owcpon)


rates = st.just(Fraction(0)) | st.fractions(min_value=0, max_value=10, max_denominator=12)


@st.composite
def patterns(draw, racks):
    """Any of the three patterns, with zero rates, intra fractions 0 and 1,
    and hotspot racks one past either end of the fabric."""
    kind = draw(st.sampled_from(["uniform", "hotspot", "intra"]))
    rate = draw(rates)
    if kind == "uniform":
        return UniformPattern(rate)
    if kind == "hotspot":
        return HotspotRackPattern(draw(st.integers(-1, racks)), rate)
    fraction = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=6)
    return IntraRackHeavyPattern(draw(fraction), rate)


def check_pattern(spec, pattern):
    """The block ``assign`` of ``pattern`` against ``reference_assign`` of its
    per-server matrix on the built graph, under all four policies, errors
    included; and the entry count and total, by arithmetic on the blocks,
    against the matrix's."""
    graph = build_owc_pon(spec)
    blocks = outcome(lambda: generate_traffic(pattern, spec))
    matrix = outcome(lambda: oracles.reference_generate_traffic(pattern, graph))
    if not isinstance(matrix, TrafficMatrix):  # a hotspot rack the fabric lacks
        assert blocks == matrix
        return
    assert blocks.demand_entries() == len(matrix.demands)
    assert blocks.total_demand() == matrix.total_demand()
    for policy in POLICIES:
        assert outcome(lambda: assign(RouteTable(spec, policy), blocks)) == outcome(
            lambda: oracles.reference_assign(graph, matrix, policy)
        ), policy


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=census_specs(admissible=True), data=st.data())
def test_pattern_blocks_match_reference(spec, data):
    check_pattern(spec, data.draw(patterns(spec.num_racks)))


EXPLICIT = OwcPonSpec(  # tests/golden/summary_explicit.scenario: every class, gateway AP 2
    num_racks=12,
    servers_per_rack=3,
    num_groups=3,
    aps_per_group=4,
    adjacency=ExplicitPairs((((0, 0), (1, 2)), ((0, 1), (2, 1)), ((1, 0), (2, 3)), ((0, 2), (2, 2)))),
    gateway_ap_index=2,
    transceiver_multiplier=2,
)


@pytest.mark.parametrize(
    "pattern",
    [
        UniformPattern(Fraction(0)),
        UniformPattern(Fraction(5, 3)),
        HotspotRackPattern(11, Fraction(1, 2)),
        HotspotRackPattern(12, Fraction(1)),
        HotspotRackPattern(3, Fraction(0)),
        IntraRackHeavyPattern(Fraction(0), Fraction(1)),
        IntraRackHeavyPattern(Fraction(1), Fraction(1)),
        IntraRackHeavyPattern(Fraction(3, 4), Fraction(7, 5)),
    ],
)
def test_pattern_edge_cases_match_reference(pattern):
    check_pattern(EXPLICIT, pattern)


def seeded_flow_text(seed: int) -> str:
    """A scenario like the ``seeded_flows`` benchmark input, smaller: 64
    racks of 8 servers in 16 groups of 4 APs, 32 random direct AP pairs, a
    random gateway AP and 1,000 flow lines with 0 to 3 fractional digits,
    a fifth of them repeating an earlier pair, and now and then a self
    flow."""
    rng = random.Random(seed)
    pairs: set = set()
    while len(pairs) < 32:
        ends = sorted([(rng.randrange(16), rng.randrange(4)), (rng.randrange(16), rng.randrange(4))])
        if ends[0][0] != ends[1][0]:
            pairs.add(f"{ends[0][0]}.{ends[0][1]}-{ends[1][0]}.{ends[1][1]}")
    lines = [
        "[architecture]",
        "select = owcpon",
        "owcpon.racks = 64",
        "owcpon.servers_per_rack = 8",
        "owcpon.groups = 16",
        "owcpon.aps_per_group = 4",
        "owcpon.adjacency = explicit",
        "owcpon.pairs = " + ", ".join(sorted(pairs)),
        f"owcpon.gateway_ap = {rng.randrange(4)}",
        "[traffic]",
    ]
    drawn: list = []
    for _ in range(1000):
        if drawn and rng.random() < 0.2:
            src, dst = rng.choice(drawn)
        else:
            src, dst = (f"rack{rng.randrange(64)}/server{rng.randrange(8)}" for _ in range(2))
            dst = src if rng.random() < 0.01 else dst
            drawn.append((src, dst))
        milli = rng.randint(0, 10_000)
        rate = f"{milli // 1000}.{milli % 1000:03d}".rstrip("0").rstrip(".") or "0"
        lines.append(f"flow = {src} {dst} {rate}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [3, 91])
def test_seeded_flow_lines_match_reference(seed):
    """Flow lines as ``simulate`` reads them: parsed (duplicates summed in
    thousandths) like the reference parser, then assigned like
    ``reference_assign`` under all four policies, errors included."""
    text = seeded_flow_text(seed)
    scenario = parse_scenario(text)
    assert scenario == oracles.reference_parse_scenario(text)
    assert len(scenario.traffic.flows) < 1000  # some lines were summed
    graph = build_owc_pon(scenario.owcpon)
    matrix = TrafficMatrix({(src, dst): rate for src, dst, rate in scenario.traffic.flows})
    for policy in POLICIES:
        assert outcome(lambda: assign(RouteTable(graph.spec, policy), matrix)) == outcome(
            lambda: oracles.reference_assign(graph, matrix, policy)
        ), policy


def test_assign_keeps_no_piece_per_rack_pair():
    """Uniform traffic on 256 racks is 65,280 inter-rack blocks.  The table
    ``assign`` routes them through keeps at most six half-routes per rack
    (three kinds, up and down) and one entry per server: no container
    holds an entry per rack pair."""
    spec = OwcPonSpec(num_racks=256, servers_per_rack=2, num_groups=32, aps_per_group=8)
    table = RouteTable(spec)
    report = assign(table, generate_traffic(UniformPattern(Fraction(1)), spec))
    assert report.max_utilization > 0
    sizes = {name: len(value) for name, value in vars(table).items() if isinstance(value, dict)}
    assert max(sizes.values()) <= 6 * spec.num_racks, sizes
