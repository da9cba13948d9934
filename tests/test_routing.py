import pytest
from hypothesis import given, settings

import oracles
from ponfabric import (
    DeviceKind,
    ExplicitPairs,
    IndexMatched,
    NoDirectLinks,
    OwcPonSpec,
    PathClass,
    RoutingPolicy,
    all_pairs_summary,
    build_owc_pon,
    resolve_route,
)
from ponfabric.errors import NoRoute, PolicyExcluded, UnknownServer
from ponfabric.topology import EXTERNAL

from test_topology import admissible_owcpon


class TestResolveRoute:
    def test_same_server(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack0/server0", "rack0/server0")
        assert route.path_class is PathClass.SAME_SERVER
        assert route.hop_count == 0
        assert route.nodes == ("rack0/server0",)

    def test_intra_rack(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack0/server0", "rack0/server5")
        assert route.path_class is PathClass.INTRA_RACK
        assert route.hop_count == 2
        assert route.nodes == ("rack0/server0", "rack0/leaf", "rack0/server5")

    def test_inter_rack_intra_group(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack0/server0", "rack2/server1")
        assert route.path_class is PathClass.INTER_RACK_INTRA_GROUP
        assert route.hop_count == 10
        assert "group0/switch" in route.nodes
        assert "olt" not in route.nodes

    def test_inter_group_direct(self, default_owcpon):
        # racks 1 and 5 share the within-group AP index 1
        route = resolve_route(default_owcpon.spec, "rack1/server0", "rack5/server0")
        assert route.path_class is PathClass.INTER_GROUP_DIRECT
        assert route.hop_count == 9
        assert "olt" not in route.nodes

    def test_inter_group_relayed_no_gateway_endpoint(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack1/server0", "rack7/server0")
        assert route.path_class is PathClass.INTER_GROUP_RELAYED
        assert route.hop_count == 14
        assert "olt" in route.nodes

    def test_inter_group_relayed_one_gateway_endpoint(self, default_owcpon):
        # rack0 sits behind the gateway AP of group 0
        route = resolve_route(default_owcpon.spec, "rack0/server0", "rack5/server0")
        assert route.path_class is PathClass.INTER_GROUP_RELAYED
        assert route.hop_count == 12

    def test_inter_group_relayed_both_gateway_endpoints(self):
        graph = build_owc_pon(OwcPonSpec(adjacency=NoDirectLinks()))
        route = resolve_route(graph.spec, "rack0/server0", "rack4/server0")
        assert route.path_class is PathClass.INTER_GROUP_RELAYED
        assert route.hop_count == 10

    def test_simple_paths(self, default_owcpon):
        servers = [n.id for n in oracles.index(default_owcpon).nodes_of_kind(DeviceKind.SERVER)]
        for src in servers[::8]:
            for dst in servers:
                route = resolve_route(default_owcpon.spec, src, dst)
                assert len(set(route.nodes)) == len(route.nodes)
                assert route.hop_count == len(route.links)

    def test_unknown_server(self, default_owcpon):
        with pytest.raises(UnknownServer):
            resolve_route(default_owcpon.spec, "rack0/server0", "rack0/server99")
        with pytest.raises(UnknownServer):
            resolve_route(default_owcpon.spec, "olt", "rack0/server0")

    def test_multiplier_uses_first_plane(self):
        graph = build_owc_pon(OwcPonSpec(transceiver_multiplier=2))
        route = resolve_route(graph.spec, "rack0/server0", "rack1/server0")
        assert route.hop_count == 10
        assert "rack0/txrx0" in route.nodes
        assert "rack0/txrx1" not in route.nodes


class TestTraditionalRouting:
    def test_intra_rack_supported(self, default_traditional):
        route = resolve_route(default_traditional.spec, "rack0/server0", "rack0/server1")
        assert route.path_class is PathClass.INTRA_RACK
        assert route.hop_count == 2

    def test_inter_rack_not_modeled(self, default_traditional):
        with pytest.raises(NoRoute):
            resolve_route(default_traditional.spec, "rack0/server0", "rack1/server0")

    def test_no_external_gateway(self, default_traditional):
        with pytest.raises(NoRoute):
            resolve_route(default_traditional.spec, "rack0/server0", EXTERNAL)


class TestRouteToExternal:
    def test_from_non_gateway_ap(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack2/server0", EXTERNAL)
        assert route.path_class is PathClass.EXTERNAL
        assert route.hop_count == 8
        assert route.nodes[-1] == "external"

    def test_from_gateway_ap(self, default_owcpon):
        route = resolve_route(default_owcpon.spec, "rack0/server0", EXTERNAL)
        assert route.hop_count == 6


class TestPolicy:
    def test_relay_preferred_when_direct_disabled(self, default_owcpon):
        policy = RoutingPolicy(prefer_direct_inter_group=False)
        route = resolve_route(default_owcpon.spec, "rack1/server0", "rack5/server0", policy)
        assert route.path_class is PathClass.INTER_GROUP_RELAYED
        assert route.hop_count == 14

    def test_both_mechanisms_disabled(self, default_owcpon):
        policy = RoutingPolicy(
            prefer_direct_inter_group=False, allow_relay_fallback=False
        )
        with pytest.raises(PolicyExcluded):
            resolve_route(default_owcpon.spec, "rack1/server0", "rack5/server0", policy)

    def test_relay_disabled_without_direct_link(self, default_owcpon):
        policy = RoutingPolicy(allow_relay_fallback=False)
        with pytest.raises(PolicyExcluded):
            resolve_route(default_owcpon.spec, "rack1/server0", "rack7/server0", policy)

    def test_relay_disabled_with_direct_link(self, default_owcpon):
        policy = RoutingPolicy(allow_relay_fallback=False)
        route = resolve_route(default_owcpon.spec, "rack1/server0", "rack5/server0", policy)
        assert route.path_class is PathClass.INTER_GROUP_DIRECT

    def test_disabling_direct_never_shortens(self, default_owcpon):
        relay_only = RoutingPolicy(prefer_direct_inter_group=False)
        servers = [n.id for n in oracles.index(default_owcpon).nodes_of_kind(DeviceKind.SERVER)]
        for src in servers[::4]:
            for dst in servers[::4]:
                default_hops = resolve_route(default_owcpon.spec, src, dst).hop_count
                relay_hops = resolve_route(default_owcpon.spec, src, dst, relay_only).hop_count
                assert relay_hops >= default_hops


class TestSymmetry:
    def test_reverse_routes_mirror(self, default_owcpon):
        servers = [n.id for n in oracles.index(default_owcpon).nodes_of_kind(DeviceKind.SERVER)]
        for src in servers[::8]:
            for dst in servers[::2]:
                forward = resolve_route(default_owcpon.spec, src, dst)
                backward = resolve_route(default_owcpon.spec, dst, src)
                assert forward.nodes == tuple(reversed(backward.nodes))
                assert forward.links == tuple(reversed(backward.links))
                assert forward.path_class is backward.path_class


class TestAllPairsSummary:
    def test_default_histogram(self):
        histogram = all_pairs_summary(OwcPonSpec())
        # Counts derived by enumerating the construction rules by hand:
        # 64 diagonal pairs, 64*7 intra-rack, 64*24 intra-group,
        # 64*8 index-matched direct, and of the 64*24 relayed pairs the
        # ones touching a gateway AP (2*(16*24 + 48*8)/2 per direction)
        # run 12 hops, the rest 14.
        assert histogram == {
            (PathClass.SAME_SERVER, 0): 64,
            (PathClass.INTRA_RACK, 2): 448,
            (PathClass.INTER_RACK_INTRA_GROUP, 10): 1536,
            (PathClass.INTER_GROUP_DIRECT, 9): 512,
            (PathClass.INTER_GROUP_RELAYED, 12): 768,
            (PathClass.INTER_GROUP_RELAYED, 14): 768,
        }
        assert sum(histogram.values()) == 64 * 64

    def test_matches_arithmetic_enumeration(self):
        for index_matched in (True, False):
            spec = OwcPonSpec(adjacency=IndexMatched() if index_matched else NoDirectLinks())
            expected = {}
            for rack_a in range(spec.num_racks):
                for idx_a in range(spec.servers_per_rack):
                    for rack_b in range(spec.num_racks):
                        for idx_b in range(spec.servers_per_rack):
                            key = oracles.arithmetic_class_and_hops(
                                spec,
                                rack_a,
                                rack_b,
                                rack_a == rack_b and idx_a == idx_b,
                                index_matched=index_matched,
                            )
                            expected[key] = expected.get(key, 0) + 1
            assert all_pairs_summary(spec) == expected, spec

    def test_no_direct_links_histogram(self):
        histogram = all_pairs_summary(OwcPonSpec(adjacency=NoDirectLinks()))
        assert (PathClass.INTER_GROUP_DIRECT, 9) not in histogram
        assert histogram[(PathClass.INTER_GROUP_RELAYED, 10)] == 128  # both gateways

    def test_first_unlinked_pair_is_least_by_text(self):
        # Racks 0 and 1 reach every AP of the other group, so no pair out
        # of them fails; of the rest, rack10 sorts before rack2.
        links = [((0, 0), (1, ap)) for ap in range(6)] + [((0, 1), (1, ap)) for ap in range(6)]
        spec = OwcPonSpec(12, 1, 2, 6, ExplicitPairs(tuple(links)))
        policy = RoutingPolicy(allow_relay_fallback=False)
        message = (
            "no direct link between the APs of rack10/server0 and rack2/server0, "
            "and relay fallback is disabled"
        )
        graph = build_owc_pon(spec)
        assert oracles.outcome(lambda: all_pairs_summary(spec, policy)) == (PolicyExcluded, message)
        assert oracles.outcome(lambda: oracles.reference_all_pairs(graph, policy)) == (
            PolicyExcluded,
            message,
        )


class TestTotality:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(spec=admissible_owcpon)
    def test_every_pair_resolves_simply_on_clean_graphs(self, spec):
        graph = build_owc_pon(spec)
        servers = [n.id for n in oracles.index(graph).nodes_of_kind(DeviceKind.SERVER)]
        for src in servers:
            for dst in servers:
                route = resolve_route(graph.spec, src, dst)
                assert len(set(route.nodes)) == len(route.nodes)
                assert route.hop_count == len(route.links)


class TestShortestPathOracle:
    def test_sampled_pairs_agree(self, default_owcpon):
        nxg = oracles.to_networkx(default_owcpon)
        servers = [n.id for n in oracles.index(default_owcpon).nodes_of_kind(DeviceKind.SERVER)]
        for src in servers[::8]:
            for dst in servers[::4]:
                route = resolve_route(default_owcpon.spec, src, dst)
                assert route.hop_count == oracles.oracle_hop_count(
                    default_owcpon, nxg, src, dst
                )

    def test_external_routes_agree(self, default_owcpon):
        nxg = oracles.to_networkx(default_owcpon)
        for src in ("rack0/server0", "rack3/server7", "rack4/server2"):
            route = resolve_route(default_owcpon.spec, src, EXTERNAL)
            assert route.hop_count == oracles.oracle_external_hop_count(
                default_owcpon, nxg, src
            )

    def test_no_direct_links_oracle(self):
        graph = build_owc_pon(OwcPonSpec(adjacency=NoDirectLinks()))
        nxg = oracles.to_networkx(graph)
        for src, dst in (
            ("rack0/server0", "rack4/server0"),
            ("rack1/server0", "rack4/server0"),
            ("rack1/server0", "rack7/server0"),
        ):
            route = resolve_route(graph.spec, src, dst)
            assert route.hop_count == oracles.oracle_hop_count(graph, nxg, src, dst)
