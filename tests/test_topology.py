from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ponfabric import (
    Architecture,
    DeviceKind,
    ExplicitPairs,
    IndexMatched,
    IntraRackHeavyPattern,
    Link,
    LinkCapacities,
    LinkKind,
    NetworkGraph,
    NoDirectLinks,
    Node,
    OwcPonSpec,
    PowerCatalog,
    PowerReport,
    PowerRow,
    RouteTable,
    TraditionalSpec,
    all_pairs_summary,
    build_owc_pon,
    build_traditional,
    device_census,
    generate_traffic,
    validate,
)
from ponfabric.errors import BadAdjacency, SpecMismatch

from oracles import index, links_between, reference_census, reference_find_nodes, reference_validate


def census_nonzero(graph):
    return {kind.value: count for kind, count in reference_census(graph).items() if count}


def contents(graph):
    return graph.nodes, graph.links, graph.spec


def rebuilt(graph, nodes, links):
    return NetworkGraph(nodes, links, graph.spec)


def without_node(graph, node_id):
    return rebuilt(
        graph,
        [n for n in graph.nodes if n.id != node_id],
        [l for l in graph.links if node_id not in (l.endpoint_a, l.endpoint_b)],
    )


def without_link(graph, link_id):
    return rebuilt(graph, graph.nodes, [l for l in graph.links if l.id != link_id])


def with_extra_node(graph, node):
    return rebuilt(graph, graph.nodes + (node,), graph.links)


def with_extra_link(graph, link):
    return rebuilt(graph, graph.nodes, graph.links + (link,))


class TestBuildTraditional:
    def test_benchmark_shape(self):
        graph = build_traditional(TraditionalSpec(8, 8, 8))
        assert census_nonzero(graph) == {
            "spine_switch": 8,
            "leaf_switch": 8,
            "server": 64,
            "server_transceiver": 64,
        }
        # 64 server-to-leaf links plus the 8x8 leaf-to-spine mesh
        assert len(graph.links) == 64 + 64

    def test_empty(self):
        graph = build_traditional(TraditionalSpec(0, 0, 0))
        assert len(graph.nodes) == 0
        assert len(graph.links) == 0
        assert all(count == 0 for count in reference_census(graph).values())

    def test_small_asymmetric(self):
        graph = build_traditional(TraditionalSpec(2, 3, 1))
        assert census_nonzero(graph) == {
            "spine_switch": 2,
            "leaf_switch": 3,
            "server": 3,
            "server_transceiver": 3,
        }
        assert len(graph.links) == 3 + 6

    def test_deterministic(self):
        spec = TraditionalSpec(3, 4, 2)
        assert contents(build_traditional(spec)) == contents(build_traditional(spec))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TraditionalSpec(-1, 8, 8)


class TestBuildOwcPon:
    def test_benchmark_shape(self, default_owcpon):
        assert census_nonzero(default_owcpon) == {
            "leaf_switch": 8,
            "server": 64,
            "server_transceiver": 64,
            "rack_transceiver": 8,
            "ap_transceiver": 8,
            "nic": 8,
            "optical_switch": 2,
            "olt": 1,
            "external_gateway": 1,
        }

    def test_index_matched_direct_links(self, default_owcpon):
        direct = [
            link
            for link in default_owcpon.links
            if index(default_owcpon).node(link.endpoint_a).kind is DeviceKind.NIC
            and index(default_owcpon).node(link.endpoint_b).kind is DeviceKind.NIC
        ]
        assert len(direct) == 4
        for link in direct:
            a = index(default_owcpon).node(link.endpoint_a)
            b = index(default_owcpon).node(link.endpoint_b)
            assert a.group != b.group
            assert a.ap == b.ap

    def test_degenerate_single_group(self):
        graph = build_owc_pon(OwcPonSpec(1, 1, 1, 1, NoDirectLinks()))
        assert census_nonzero(graph) == {
            "leaf_switch": 1,
            "server": 1,
            "server_transceiver": 1,
            "rack_transceiver": 1,
            "ap_transceiver": 1,
            "nic": 1,
            "optical_switch": 1,
            "olt": 1,
            "external_gateway": 1,
        }
        nic_nodes = index(graph).nodes_of_kind(DeviceKind.NIC)
        assert all(
            not (
                index(graph).node(l.endpoint_a).kind is DeviceKind.NIC
                and index(graph).node(l.endpoint_b).kind is DeviceKind.NIC
            )
            for l in graph.links
        )
        assert nic_nodes[0].is_gateway

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            build_owc_pon(OwcPonSpec(num_racks=7, num_groups=2, aps_per_group=4))

    def test_all_zero_spec_builds_bare_backhaul(self):
        graph = build_owc_pon(OwcPonSpec(0, 0, 0, 0))
        assert census_nonzero(graph) == {"olt": 1, "external_gateway": 1}
        assert len(graph.links) == 1
        assert reference_validate(graph) == []

    def test_groups_without_aps_rejected(self):
        with pytest.raises(SpecMismatch):
            build_owc_pon(OwcPonSpec(num_racks=0, num_groups=2, aps_per_group=0))

    def test_gateway_index_out_of_range(self):
        with pytest.raises(SpecMismatch):
            build_owc_pon(
                OwcPonSpec(num_racks=8, num_groups=2, aps_per_group=4, gateway_ap_index=4)
            )

    def test_explicit_pairs(self):
        spec = OwcPonSpec(
            adjacency=ExplicitPairs((((0, 0), (1, 2)), ((0, 3), (1, 1))))
        )
        graph = build_owc_pon(spec)
        direct = {
            (link.endpoint_a, link.endpoint_b)
            for link in graph.links
            if index(graph).node(link.endpoint_a).kind is DeviceKind.NIC
            and index(graph).node(link.endpoint_b).kind is DeviceKind.NIC
        }
        assert direct == {
            ("group0/ap0/nic", "group1/ap2/nic"),
            ("group0/ap3/nic", "group1/ap1/nic"),
        }

    @pytest.mark.parametrize(
        "pairs",
        [
            (((0, 0), (1, 9)),),  # missing AP
            (((0, 0), (0, 1)),),  # same group
            (((0, 0), (1, 0)), ((1, 0), (0, 0))),  # duplicate
        ],
    )
    def test_bad_adjacency(self, pairs):
        with pytest.raises(BadAdjacency):
            build_owc_pon(OwcPonSpec(adjacency=ExplicitPairs(pairs)))

    @pytest.mark.parametrize(
        "ap, name, kind",
        [
            ((True, 1), "groupTrue/ap1", "bool"),
            ((1.0, 1), "group1.0/ap1", "float"),
            ((1, True), "group1/apTrue", "bool"),
        ],
    )
    def test_ap_indices_must_be_ints(self, ap, name, kind):
        """``True`` and ``1.0`` equal 1, but the builder would name a NIC
        ``groupTrue/ap1`` or ``group1.0/ap1`` that no AP has, so the pair
        list refuses them, and every check of the spec refuses pairs made
        with ``_make``, which skips the pair list's check."""
        with pytest.raises(TypeError) as caught:
            ExplicitPairs((((0, 0), ap),))
        assert str(caught.value) == f"each index in pairs must be an int, not {kind}"
        spec = OwcPonSpec(adjacency=ExplicitPairs._make(((((0, 0), ap),),)))
        for check in (build_owc_pon, validate, device_census, all_pairs_summary, RouteTable):
            with pytest.raises(BadAdjacency) as caught:
                check(spec)
            assert str(caught.value) == f"pair references missing AP {name}", check

    def test_transceiver_multiplier(self):
        graph = build_owc_pon(OwcPonSpec(transceiver_multiplier=2))
        census = reference_census(graph)
        assert census[DeviceKind.RACK_TRANSCEIVER] == 16
        assert census[DeviceKind.AP_TRANSCEIVER] == 16
        assert census[DeviceKind.NIC] == 8
        assert reference_validate(graph) == []

    def test_capacity_overrides(self):
        capacities = LinkCapacities(Fraction(25), Fraction("12.5"), Fraction(100))
        graph = build_owc_pon(OwcPonSpec(), capacities)
        by_kind = {}
        for link in graph.links:
            by_kind.setdefault(link.kind, set()).add(link.capacity)
        assert by_kind[LinkKind.WIRED] == {Fraction(25)}
        assert by_kind[LinkKind.OWC] == {Fraction(25, 2)}
        assert by_kind[LinkKind.FIBER] == {Fraction(100)}

    def test_deterministic(self):
        assert contents(build_owc_pon(OwcPonSpec())) == contents(build_owc_pon(OwcPonSpec()))


class TestCensus:
    def test_empty_graph_all_zero(self):
        graph = build_traditional(TraditionalSpec(0, 0, 0))
        census = reference_census(graph)
        assert set(census) == set(DeviceKind)
        assert all(count == 0 for count in census.values())

    def test_traditional_has_no_backhaul_devices(self, default_traditional):
        census = reference_census(default_traditional)
        assert census[DeviceKind.NIC] == 0
        assert census[DeviceKind.OLT] == 0
        assert census[DeviceKind.OPTICAL_SWITCH] == 0


class TestValidate:
    def test_default_graphs_clean(self, default_owcpon, default_traditional):
        assert reference_validate(default_owcpon) == []
        assert reference_validate(default_traditional) == []

    def test_missing_olt_uplink(self, default_owcpon):
        broken = without_link(default_owcpon, "group1/ap0/nic--olt")
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [
            ("missing_olt_uplink", "group:1")
        ]

    def test_duplicate_optical_switch(self, default_owcpon):
        broken = with_extra_node(
            default_owcpon, Node("group0/switch.extra", DeviceKind.OPTICAL_SWITCH, group=0)
        )
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [
            ("duplicate_optical_switch", "group:0")
        ]

    def test_orphan_nic(self, default_owcpon):
        broken = without_link(default_owcpon, "group0/ap1/nic--group0/switch")
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [
            ("orphan_nic", "group0/ap1/nic")
        ]

    def test_dangling_link(self, default_owcpon):
        broken = with_extra_link(
            default_owcpon,
            Link("ghost", "group0/ap0/nic", "no/such/node", LinkKind.FIBER, Fraction(40)),
        )
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [
            ("dangling_link", "link:ghost")
        ]

    def test_second_olt(self, default_owcpon):
        broken = with_extra_node(default_owcpon, Node("olt.extra", DeviceKind.OLT))
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [("duplicate_olt", "olt")]

    def test_rack_without_transceiver(self, default_owcpon):
        broken = without_node(default_owcpon, "rack3/txrx0")
        violations = reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [
            ("missing_rack_transceiver", "rack:3")
        ]

    def test_disconnected_traditional_without_spines(self):
        graph = build_traditional(TraditionalSpec(0, 2, 1))
        assert [v.code for v in reference_validate(graph)] == ["disconnected"]

    def test_missing_external_uplink(self, default_owcpon):
        broken = without_link(default_owcpon, "olt--external")
        assert [(v.code, v.subject) for v in reference_validate(broken)] == [
            ("missing_external_uplink", "olt")
        ]


# A group cannot exist without APs (it would have no gateway), so the
# strategy only emits aps_per_group >= 1; the all-zero spec is unit-tested.
admissible_owcpon = st.builds(
    lambda groups, aps, servers, mult, adjacency, gateway_seed: OwcPonSpec(
        num_racks=groups * aps,
        servers_per_rack=servers,
        num_groups=groups,
        aps_per_group=aps,
        adjacency=adjacency,
        gateway_ap_index=gateway_seed % aps,
        transceiver_multiplier=mult,
    ),
    groups=st.integers(0, 3),
    aps=st.integers(1, 3),
    servers=st.integers(0, 4),
    mult=st.integers(1, 2),
    adjacency=st.sampled_from([IndexMatched(), NoDirectLinks()]),
    gateway_seed=st.integers(0, 11),
)

admissible_traditional = st.builds(
    TraditionalSpec,
    num_spine=st.integers(1, 4),
    num_racks=st.integers(0, 4),
    servers_per_rack=st.integers(0, 4),
)


class TestProperties:
    @settings(max_examples=80, derandomize=True)
    @given(spec=admissible_owcpon)
    def test_owcpon_construction_satisfies_own_rules(self, spec):
        graph = build_owc_pon(spec)
        assert reference_validate(graph) == []

        census = reference_census(graph)
        assert sum(census.values()) == len(graph.nodes)
        assert census[DeviceKind.OPTICAL_SWITCH] == spec.num_groups
        assert census[DeviceKind.OLT] == 1
        assert census[DeviceKind.SERVER] == spec.num_racks * spec.servers_per_rack
        assert census[DeviceKind.SERVER_TRANSCEIVER] == census[DeviceKind.SERVER]
        gateways = [n for n in index(graph).nodes_of_kind(DeviceKind.NIC) if n.is_gateway]
        assert len(gateways) == spec.num_groups

    @settings(max_examples=80, derandomize=True)
    @given(spec=admissible_owcpon)
    def test_every_nic_reaches_its_switch_once(self, spec):
        graph = build_owc_pon(spec)
        for nic in index(graph).nodes_of_kind(DeviceKind.NIC):
            switches = reference_find_nodes(graph, DeviceKind.OPTICAL_SWITCH, group=nic.group)
            assert len(switches) == 1
            assert len(links_between(graph, nic.id, switches[0].id)) == 1

    @settings(max_examples=80, derandomize=True)
    @given(spec=admissible_traditional)
    def test_traditional_construction_satisfies_own_rules(self, spec):
        graph = build_traditional(spec)
        assert reference_validate(graph) == []
        census = reference_census(graph)
        assert sum(census.values()) == len(graph.nodes)
        assert census[DeviceKind.SERVER_TRANSCEIVER] == census[DeviceKind.SERVER]
        assert census[DeviceKind.SERVER] == spec.num_racks * spec.servers_per_rack

    @settings(max_examples=40, derandomize=True)
    @given(spec=admissible_owcpon)
    def test_identical_specs_build_identical_graphs(self, spec):
        assert contents(build_owc_pon(spec)) == contents(build_owc_pon(spec))


def test_architecture_follows_the_spec(default_owcpon, default_traditional):
    assert default_traditional.architecture is Architecture.TRADITIONAL
    assert default_owcpon.architecture is Architecture.OWC_PON
    assert without_link(default_owcpon, "olt--external").architecture is Architecture.OWC_PON
    assert repr(default_traditional) == "NetworkGraph(traditional, 144 nodes, 128 links)"
    assert repr(default_owcpon) == "NetworkGraph(owcpon, 164 nodes, 103 links)"


NOT_A_PATTERN = object()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Link("x", "a", "a", LinkKind.WIRED, Fraction(1)), ValueError,
         "link 'x' connects a node to itself"),
        (lambda: Link("x", "a", "b", LinkKind.WIRED, Fraction(0)), ValueError,
         "link 'x' needs a positive capacity"),
        (lambda: LinkCapacities(owc=0), ValueError, "owc capacity must be positive"),
        (lambda: OwcPonSpec(gateway_ap_index=-1), ValueError, "gateway_ap_index must be >= 0"),
        (lambda: OwcPonSpec(transceiver_multiplier=0), ValueError,
         "transceiver_multiplier must be >= 1"),
        (lambda: NetworkGraph([Node("a", DeviceKind.OLT)] * 2, [], OwcPonSpec()), ValueError,
         "duplicate node id 'a'"),
        (lambda: device_census(OwcPonSpec(adjacency="x")), TypeError,
         "unsupported adjacency policy: 'x'"),
        (lambda: IntraRackHeavyPattern(Fraction(3, 2), Fraction(1)), ValueError,
         "intra_fraction must be within [0, 1]"),
        (lambda: generate_traffic(NOT_A_PATTERN, OwcPonSpec()), TypeError,
         f"unsupported traffic pattern: {NOT_A_PATTERN!r}"),
        (lambda: PowerCatalog({DeviceKind.OLT: -1}), ValueError,
         "olt: power must be a non-negative int (mW)"),
        (lambda: PowerCatalog({DeviceKind.OLT: True}), TypeError,
         "olt: power must be an int, not bool"),
        (lambda: PowerReport((PowerRow(DeviceKind.OLT, 1, 5, 5, True),), 6), ValueError,
         "report total does not match its subtotals"),
    ],
)
def test_model_constructors_reject_bad_input(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_node_and_link_keep_their_value_contract():
    node = Node("group0/ap1/nic", DeviceKind.NIC, group=0, ap=1, is_gateway=True)
    link = Link("rack0/txrx0--group0/ap0/txrx0", "rack0/txrx0", "group0/ap0/txrx0",
                LinkKind.OWC, Fraction(25, 2))
    # the text ``repr`` gave while both were frozen dataclasses
    assert repr(node) == (
        "Node(id='group0/ap1/nic', kind=<DeviceKind.NIC: 'nic'>, rack=None, group=0, ap=1, "
        "is_gateway=True)"
    )
    assert repr(link) == (
        "Link(id='rack0/txrx0--group0/ap0/txrx0', endpoint_a='rack0/txrx0', "
        "endpoint_b='group0/ap0/txrx0', kind=<LinkKind.OWC: 'owc'>, capacity=Fraction(25, 2))"
    )
    twin = Node(id="group0/ap1/nic", kind=DeviceKind.NIC, group=0, ap=1, is_gateway=True)
    assert twin == node and hash(twin) == hash(node)
    assert Link(**link._asdict()) == link and hash(Link(*link)) == hash(link)
    for value, field in ((node, "rack"), (link, "capacity")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert Node("olt", DeviceKind.OLT) == ("olt", DeviceKind.OLT, None, None, None, False)
    with pytest.raises(ValueError, match="needs a positive capacity"):
        link._replace(capacity=Fraction(0))
    assert type(link._replace(id="x")) is Link

def test_link_capacities_are_fractions():
    wired = LinkCapacities(wired=5).wired
    assert type(wired) is Fraction and wired == 5
