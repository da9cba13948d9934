from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ponfabric import (
    DeviceKind,
    HotspotRackPattern,
    IntraRackHeavyPattern,
    OwcPonSpec,
    RouteTable,
    RoutingPolicy,
    TraditionalSpec,
    TrafficMatrix,
    UniformPattern,
    assign,
    bottlenecks,
    format_rational,
    generate_traffic,
    resolve_route,
)
from ponfabric.errors import NoRoute, PolicyExcluded, UnknownRack, UnknownServer
from ponfabric.topology import server_id


SPEC = OwcPonSpec()  # 8 racks of 8 servers in 2 groups


@pytest.fixture(scope="module")
def uniform_report():
    return assign(RouteTable(SPEC), generate_traffic(UniformPattern(Fraction(1)), SPEC))


class TestGenerateTraffic:
    def test_uniform_zero_is_empty(self):
        blocks = generate_traffic(UniformPattern(Fraction(0)), SPEC)
        assert blocks.demands == {}
        assert (blocks.demand_entries(), blocks.total_demand()) == (0, 0)

    def test_uniform_counts(self):
        blocks = generate_traffic(UniformPattern(Fraction(2)), SPEC)
        assert len(blocks.demands) == 8 * 8  # every ordered rack pair, each rack to itself too
        assert blocks.demand_entries() == 64 * 63
        assert blocks.total_demand() == 64 * 63 * 2

    def test_hotspot(self):
        blocks = generate_traffic(HotspotRackPattern(3, Fraction(1)), SPEC)
        assert list(blocks.demands) == [(server_id(a, 0), "rack3/server0") for a in (0, 1, 2, 4, 5, 6, 7)]
        assert blocks.demand_entries() == 56 * 8
        assert blocks.total_demand() == 56 * 8

    def test_hotspot_unknown_rack(self):
        for rack in (99, 8, -1):
            with pytest.raises(UnknownRack, match=f"^rack {rack} does not exist in the graph$"):
                generate_traffic(HotspotRackPattern(rack, Fraction(1)), SPEC)

    def test_intra_rack_heavy_split(self):
        blocks = generate_traffic(IntraRackHeavyPattern(Fraction(1, 2), Fraction(2)), SPEC)
        assert len(blocks.demands) == 64 and set(blocks.demands.values()) == {Fraction(1)}
        assert blocks.demand_entries() == 64 * 63
        assert blocks.total_demand() == 64 * 63

    def test_intra_rack_heavy_pure(self):
        blocks = generate_traffic(IntraRackHeavyPattern(Fraction(1), Fraction(1)), SPEC)
        assert list(blocks.demands) == [(server_id(r, 0), server_id(r, 1)) for r in range(8)]
        assert blocks.demand_entries() == 448

    def test_blocks_run_in_sorted_order_of_first_entry(self):
        spec = OwcPonSpec(num_racks=12, servers_per_rack=2, num_groups=3, aps_per_group=4)
        firsts = list(generate_traffic(UniformPattern(Fraction(1)), spec).demands)
        assert firsts == sorted(firsts) and len(firsts) == 12 * 12
        assert firsts[:3] == [
            ("rack0/server0", "rack0/server1"),
            ("rack0/server0", "rack1/server0"),
            ("rack0/server0", "rack10/server0"),
        ]

    def test_one_server_per_rack_sends_nothing_inside_a_rack(self):
        spec = OwcPonSpec(servers_per_rack=1)
        uniform = generate_traffic(UniformPattern(Fraction(1)), spec)
        between = {(server_id(a, 0), server_id(b, 0)) for a in range(8) for b in range(8) if a != b}
        assert set(uniform.demands) == between and uniform.demand_entries() == 8 * 7
        assert generate_traffic(IntraRackHeavyPattern(Fraction(1), Fraction(1)), spec).demands == {}

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            generate_traffic(UniformPattern(Fraction(-1)), SPEC)


class TestAssign:
    def test_empty_matrix(self):
        report = assign(RouteTable(SPEC), TrafficMatrix({}))
        assert all(row.load == 0 for row in report.rows)
        assert report.max_utilization == 0
        assert report.saturated == ()

    def test_single_demand_loads_exactly_its_route(self):
        src, dst = "rack0/server0", "rack2/server3"
        route = resolve_route(SPEC, src, dst)
        assert route.hop_count == 10
        report = assign(RouteTable(SPEC), TrafficMatrix({(src, dst): Fraction(1)}))
        for row in report.rows:
            assert row.load == (Fraction(1) if row.link_id in route.links else 0)

    def test_self_demand_contributes_nothing(self):
        report = assign(
            RouteTable(SPEC),
            TrafficMatrix({("rack0/server0", "rack0/server0"): Fraction(5)}),
        )
        assert all(row.load == 0 for row in report.rows)

    def test_uniform_closed_form_loads(self, uniform_report):
        # Hand-derived loads for uniform all-to-all of 1 Gb/s per pair:
        # each server link carries its 63 outgoing plus 63 incoming pairs;
        # a rack uplink carries the rack's 8*56 pairs in each direction;
        # a non-gateway NIC-to-switch link carries 384 intra-group plus
        # 384 relayed pairs; the gateway's adds the 1152 relay detours of
        # its peers instead of its own 384 relayed; each OLT uplink sees
        # every relayed pair of its group (1536); each direct link serves
        # the 128 pairs of its two racks.
        expected = {
            "rack0/server0--rack0/leaf": 126,
            "rack0/txrx0--rack0/leaf": 896,
            "rack0/txrx0--group0/ap0/txrx0": 896,
            "group0/ap0/txrx0--group0/ap0/nic": 896,
            "group0/ap1/nic--group0/switch": 768,
            "group0/ap0/nic--group0/switch": 1536,
            "group0/ap0/nic--olt": 1536,
            "group0/ap0/nic--group1/ap0/nic": 128,
            "olt--external": 0,
        }
        loads = {row.link_id: row.load for row in uniform_report.rows}
        for link_id, load in expected.items():
            assert loads[link_id] == load

    def test_uniform_total_equals_demand_times_hops(self, uniform_report):
        # Sum of loads equals the hop-weighted pair count:
        # 448*2 + 1536*10 + 512*9 + 768*12 + 768*14
        assert sum(row.load for row in uniform_report.rows) == 40_832

    def test_no_route_names_the_pair(self):
        """Inter-rack paths of the traditional fabric are not modeled."""
        matrix = TrafficMatrix({("rack0/server0", "rack1/server0"): Fraction(1)})
        with pytest.raises(NoRoute) as caught:
            assign(RouteTable(TraditionalSpec()), matrix)
        assert str(caught.value) == (
            "rack0/server0 -> rack1/server0: "
            "inter-rack paths are only modeled for the optical-wireless fabric"
        )

    def test_unknown_server_names_the_pair(self):
        matrix = TrafficMatrix({("rack0/server0", "nosuch"): Fraction(1)})
        with pytest.raises(UnknownServer) as caught:
            assign(RouteTable(SPEC), matrix)
        assert str(caught.value) == "rack0/server0 -> nosuch: not a server node: 'nosuch'"
        assert caught.value.node_id == "nosuch"

    def test_policy_exclusion_names_the_pair(self):
        policy = RoutingPolicy(prefer_direct_inter_group=False, allow_relay_fallback=False)
        matrix = TrafficMatrix({("rack1/server0", "rack5/server0"): Fraction(1)})
        with pytest.raises(PolicyExcluded, match=r"^rack1/server0 -> rack5/server0: both"):
            assign(RouteTable(SPEC, policy), matrix)

    def test_first_failing_entry_in_sorted_order_is_named(self):
        policy = RoutingPolicy(prefer_direct_inter_group=False, allow_relay_fallback=False)
        matrix = TrafficMatrix(
            {
                ("rack3/server0", "ghost"): Fraction(1),  # UnknownServer
                ("rack2/server0", "rack5/server0"): Fraction(1),  # PolicyExcluded, sorts first
                ("rack1/server0", "rack6/server0"): Fraction(0),  # no demand: no route to exclude
                ("rack1/server0", "rack3/server0"): Fraction(1),  # same group: routes
                ("rack0/server1", "rack0/server2"): Fraction(1),  # routes
            }
        )
        with pytest.raises(PolicyExcluded, match=r"^rack2/server0 -> rack5/server0: both"):
            assign(RouteTable(SPEC, policy), matrix)

    @pytest.mark.parametrize(
        "src, dst, rate, name",
        [
            ("rack0/server0", "external", 0, "external"),
            ("external", "external", 1, "external"),
            ("bogus", "bogus", 1, "bogus"),
            ("rack0/server0", "rack99/server0", 0, "rack99/server0"),
            ("rack99/server0", "rack0/server0", Fraction(0), "rack99/server0"),
        ],
    )
    def test_an_entry_without_a_route_still_names_two_servers(self, src, dst, rate, name):
        """An entry with no rate, or from an id to itself, takes no route,
        but each of its ends must be a server."""
        with pytest.raises(UnknownServer) as caught:
            assign(RouteTable(SPEC), TrafficMatrix({(src, dst): rate}))
        assert str(caught.value) == f"{src} -> {dst}: not a server node: {name!r}"

    def test_total_demand_mixed_denominators(self):
        matrix = TrafficMatrix(
            {("a", "b"): Fraction(1, 3), ("b", "a"): Fraction(1, 4), ("a", "c"): Fraction(5, 6)}
        )
        assert matrix.total_demand() == Fraction(17, 12)
        assert TrafficMatrix({}).total_demand() == 0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix({("a", "b"): Fraction(-1)})


servers = st.sampled_from([f"rack{r}/server{i}" for r in range(8) for i in range(0, 8, 3)])
small_matrix = st.dictionaries(
    st.tuples(servers, servers),
    st.fractions(min_value=0, max_value=10),
    max_size=6,
).map(TrafficMatrix)


class TestAssignProperties:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(first=small_matrix, second=small_matrix)
    def test_additivity(self, first, second):
        merged = dict(first.demands)
        for key, rate in second.demands.items():
            merged[key] = merged.get(key, Fraction(0)) + rate
        combined = assign(RouteTable(SPEC), TrafficMatrix(merged))
        left = assign(RouteTable(SPEC), first)
        right = assign(RouteTable(SPEC), second)
        for row, l_row, r_row in zip(combined.rows, left.rows, right.rows):
            assert row.load == l_row.load + r_row.load

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(matrix=small_matrix)
    def test_order_independence(self, matrix):
        reversed_matrix = TrafficMatrix(
            dict(reversed(list(matrix.demands.items())))
        )
        assert assign(RouteTable(SPEC), matrix) == assign(RouteTable(SPEC), reversed_matrix)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(matrix=small_matrix)
    def test_total_load_is_hop_weighted_demand(self, matrix):
        report = assign(RouteTable(SPEC), matrix)
        expected = sum(
            (
                rate * resolve_route(SPEC, src, dst).hop_count
                for (src, dst), rate in matrix.demands.items()
            ),
            Fraction(0),
        )
        assert sum(row.load for row in report.rows) == expected


class TestBottlenecks:
    def test_all_zero_report_is_empty(self):
        report = assign(RouteTable(SPEC), TrafficMatrix({}))
        assert bottlenecks(report, 5) == []

    def test_single_flow_min_capacity_first(self):
        report = assign(
            RouteTable(SPEC),
            TrafficMatrix({("rack0/server0", "rack2/server0"): Fraction(1)}),
        )
        top = bottlenecks(report, 3)
        assert top[0].capacity == 10  # the 10G hops saturate before the 40G fiber
        assert top[0].utilization == Fraction(1, 10)
        assert [row.link_id for row in top] == sorted(row.link_id for row in top[:3])

    def test_uniform_ranking_and_truncation(self, uniform_report):
        top = bottlenecks(uniform_report, 5)
        assert len(top) == 5
        # Rack uplinks and free-space hops (896 over 10G) outrank every
        # backhaul fiber (at most 1536 over 40G).
        assert top[0].utilization == Fraction(896, 10)
        assert top[0].link_id == "rack0/txrx0--group0/ap0/txrx0"
        fiber_peak = max(
            row.utilization for row in uniform_report.rows if row.capacity == 40
        )
        assert fiber_peak == Fraction(1536, 40)
        assert all(row.utilization >= fiber_peak for row in top)

    def test_ties_break_by_link_id(self, uniform_report):
        top = bottlenecks(uniform_report, 24)
        peak = [row for row in top if row.utilization == Fraction(896, 10)]
        assert [row.link_id for row in peak] == sorted(row.link_id for row in peak)


terminating = st.builds(
    lambda sign, num, twos, fives, other: Fraction(sign * num, 2**twos * 5**fives * other),
    st.sampled_from([1, -1]),
    st.integers(0, 10**12),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from([1, 1, 1, 3, 7, 9]),
)


@settings(max_examples=400, derandomize=True)
@given(value=terminating | st.fractions() | st.integers(-(10**9), 10**9))
def test_format_rational_matches_reference(value):
    """Integer arithmetic on numerator and denominator against the
    ``Fraction`` arithmetic it replaced: decimals, ``p/q``, signs, zero."""
    assert format_rational(value) == oracles.reference_format_rational(value)
