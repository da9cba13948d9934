"""Differential tests: the closed-form census, verdict and pricing, and
the commands built on them, against the graph path in ``oracles`` on
admissible and inadmissible fabrics; every builder link against the
checked ``Link`` constructor that the builders skip; and the oracles'
scanning lookup against the node ids each filter must return on one
small fabric."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import outcome
from ponfabric import (
    Architecture,
    DeviceKind,
    Document,
    ExplicitPairs,
    IndexMatched,
    Link,
    LinkCapacities,
    NetworkGraph,
    NicCountMode,
    NoDirectLinks,
    Node,
    OutputFormat,
    OwcPonSpec,
    PowerOptions,
    Scenario,
    TraditionalSpec,
    build_owc_pon,
    build_traditional,
    device_census,
    fabric_size,
    render,
    resolved_catalog,
    run_benchmark,
    scaling_sweep,
    validate,
)
from ponfabric.cli import _cmd_benchmark, _cmd_build, _cmd_compare, _cmd_power, _cmd_validate


traditional_specs = st.builds(
    TraditionalSpec,
    num_spine=st.integers(0, 5),
    num_racks=st.integers(0, 6),
    servers_per_rack=st.integers(0, 3),
)


@st.composite
def explicit_pairs(draw, groups, aps, fault):
    """Valid cross-group pairs, plus one duplicate, same-group or
    out-of-range pair when ``fault`` asks for it."""
    ap_ids = [(g, a) for g in range(groups) for a in range(aps)]
    candidates = [
        (first, second)
        for first, second in itertools.combinations(ap_ids, 2)
        if first[0] != second[0]
    ]
    pairs = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=6)) if candidates else []
    bad = None
    if fault == "duplicate" and pairs:
        first, second = draw(st.sampled_from(pairs))
        bad = draw(st.sampled_from([(first, second), (second, first)]))
    elif fault == "same group" and ap_ids:
        g, a = draw(st.sampled_from(ap_ids))
        bad = ((g, a), (g, draw(st.integers(0, aps - 1))))
    elif fault == "out of range":
        outside = draw(st.sampled_from([(groups, 0), (0, aps), (-1, 0), (0, -1)]))
        inside = draw(st.sampled_from(ap_ids)) if ap_ids else (0, 0)
        bad = draw(st.sampled_from([(outside, inside), (inside, outside)]))
    if bad is not None:
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return ExplicitPairs(tuple(pairs)) if pairs else NoDirectLinks()  # an empty list is refused


@st.composite
def owcpon_specs(draw, admissible=False):
    """Specs the builder accepts, and (unless ``admissible``) specs it
    rejects: racks off the groups x APs product (so not divisible by the
    groups), a gateway index past the APs, and bad explicit pairs."""
    groups = draw(st.integers(0, 4))
    aps = draw(st.integers(1 if admissible and groups else 0, 4))
    racks = groups * aps
    gateway = draw(st.integers(0, max(aps - 1, 0)))
    fault = "none"
    if not admissible:
        fault = draw(st.sampled_from(["none", "racks", "gateway", "duplicate", "same group", "out of range"]))
        if fault == "racks":
            racks = draw(st.integers(0, 13))
        elif fault == "gateway":
            gateway = draw(st.integers(aps, aps + 2))
    choice = draw(st.sampled_from(["index_matched", "none", "explicit"]))
    if choice == "index_matched":
        adjacency = IndexMatched()
    elif choice == "none":
        adjacency = NoDirectLinks()
    else:
        adjacency = draw(explicit_pairs(groups, aps, fault))
    return OwcPonSpec(
        num_racks=racks,
        servers_per_rack=draw(st.integers(0, 3)),
        num_groups=groups,
        aps_per_group=aps,
        adjacency=adjacency,
        gateway_ap_index=gateway,
        transceiver_multiplier=draw(st.integers(1, 3)),
    )


def build(spec, capacities=LinkCapacities()):
    if isinstance(spec, TraditionalSpec):
        return build_traditional(spec, capacities)
    return build_owc_pon(spec, capacities)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=st.one_of(traditional_specs, owcpon_specs()))
def test_census_and_verdict_match_the_built_graph(spec):
    built = outcome(lambda: build(spec))
    if not isinstance(built, NetworkGraph):
        assert built[0] is not TypeError
        for closed_form in (device_census, fabric_size, validate):
            assert outcome(lambda: closed_form(spec)) == built
        return
    assert device_census(spec) == oracles.reference_census(built)
    assert fabric_size(spec) == (len(built.nodes), len(built.links))
    verdict = oracles.reference_validate(built)
    assert validate(spec) == verdict


rates = st.fractions(min_value=Fraction(1, 1000), max_value=400)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    spec=st.one_of(traditional_specs, owcpon_specs(admissible=True)),
    capacities=st.builds(LinkCapacities, wired=rates, owc=rates, fiber=rates),
)
def test_builder_links_pass_the_checked_constructor(spec, capacities):
    """The builders make links with ``Link._make``, which skips ``Link``'s
    checks; each must equal the same values passed through them."""
    graph = build(spec, capacities)
    for link in graph.links:
        assert type(link) is Link
        assert Link(*link) == link
    assert all(type(node) is Node for node in graph.nodes)


def test_spineless_traditional_is_the_only_failing_build():
    assert validate(TraditionalSpec(num_spine=0, num_racks=1)) == []
    (violation,) = validate(TraditionalSpec(num_spine=0, num_racks=3, servers_per_rack=2))
    assert (violation.code, violation.subject) == ("disconnected", "rack1/leaf")
    assert violation.message == "6 nodes unreachable from 'rack0/leaf'"


def lookups(spec):
    """``reference_find_nodes`` filters: none, each attribute alone, group
    with ap or gateway, rack with group; values in range and one past
    either end."""
    racks = range(-1, spec.num_racks + 1)
    groups = range(-1, getattr(spec, "num_groups", 1) + 1)
    aps = range(-1, getattr(spec, "aps_per_group", 1) + 1)
    yield {}
    yield from ({"rack": r} for r in racks)
    yield from ({"group": g} for g in groups)
    yield from ({"group": g, "ap": a} for g in groups for a in aps)
    yield from ({"group": g, "gateway": flag} for g in groups for flag in (True, False))
    yield from ({"ap": a} for a in aps)
    yield from ({"gateway": flag} for flag in (True, False))
    yield from ({"rack": r, "group": g} for r in racks for g in groups)


# 4 racks of one server, 2 groups of 2 APs, gateway AP 1: the node ids
# ``reference_find_nodes`` returns for each filter of ``lookups``, over
# every kind in ``DeviceKind`` order.  Filters missing here match nothing.
RACK_IDS = ["leaf", "server0", "server0/txrx", "txrx0"]
AP_NODES = ["group0/ap0/txrx0", "group0/ap1/txrx0", "group1/ap0/txrx0", "group1/ap1/txrx0",
            "group0/ap0/nic", "group0/ap1/nic", "group1/ap0/nic", "group1/ap1/nic"]
FOUND = {
    (): [f"rack{r}/{kind}" for kind in RACK_IDS for r in range(4)]
    + AP_NODES + ["group0/switch", "group1/switch", "olt", "external"],
    (("rack", 0),): ["rack0/leaf", "rack0/server0", "rack0/server0/txrx", "rack0/txrx0"],
    (("rack", 1),): ["rack1/leaf", "rack1/server0", "rack1/server0/txrx", "rack1/txrx0"],
    (("rack", 2),): ["rack2/leaf", "rack2/server0", "rack2/server0/txrx", "rack2/txrx0"],
    (("rack", 3),): ["rack3/leaf", "rack3/server0", "rack3/server0/txrx", "rack3/txrx0"],
    (("group", 0),): ["group0/ap0/txrx0", "group0/ap1/txrx0", "group0/ap0/nic", "group0/ap1/nic", "group0/switch"],
    (("group", 1),): ["group1/ap0/txrx0", "group1/ap1/txrx0", "group1/ap0/nic", "group1/ap1/nic", "group1/switch"],
    (("group", 0), ("ap", 0)): ["group0/ap0/txrx0", "group0/ap0/nic"],
    (("group", 0), ("ap", 1)): ["group0/ap1/txrx0", "group0/ap1/nic"],
    (("group", 1), ("ap", 0)): ["group1/ap0/txrx0", "group1/ap0/nic"],
    (("group", 1), ("ap", 1)): ["group1/ap1/txrx0", "group1/ap1/nic"],
    (("group", 0), ("gateway", True)): ["group0/ap1/txrx0", "group0/ap1/nic"],
    (("group", 0), ("gateway", False)): ["group0/ap0/txrx0", "group0/ap0/nic", "group0/switch"],
    (("group", 1), ("gateway", True)): ["group1/ap1/txrx0", "group1/ap1/nic"],
    (("group", 1), ("gateway", False)): ["group1/ap0/txrx0", "group1/ap0/nic", "group1/switch"],
    (("ap", 0),): ["group0/ap0/txrx0", "group1/ap0/txrx0", "group0/ap0/nic", "group1/ap0/nic"],
    (("ap", 1),): ["group0/ap1/txrx0", "group1/ap1/txrx0", "group0/ap1/nic", "group1/ap1/nic"],
    (("gateway", True),): ["group0/ap1/txrx0", "group1/ap1/txrx0", "group0/ap1/nic", "group1/ap1/nic"],
    (("gateway", False),): [f"rack{r}/{kind}" for kind in RACK_IDS for r in range(4)]
    + ["group0/ap0/txrx0", "group1/ap0/txrx0", "group0/ap0/nic", "group1/ap0/nic"]
    + ["group0/switch", "group1/switch", "olt", "external"],
}


def test_reference_find_nodes_filters():
    spec = OwcPonSpec(num_racks=4, servers_per_rack=1, num_groups=2, aps_per_group=2, gateway_ap_index=1)
    graph, find = build_owc_pon(spec), oracles.reference_find_nodes
    for filters in lookups(spec):
        found = [(kind, find(graph, kind, **filters)) for kind in DeviceKind]
        assert all(node.kind is kind for kind, nodes in found for node in nodes), filters
        ids = [node.id for _, nodes in found for node in nodes]
        assert ids == FOUND.get(tuple(filters.items()), []), filters


options = st.builds(
    PowerOptions,
    include_owc_transceivers=st.booleans(),
    include_server_transceivers=st.booleans(),
    nic_count_mode=st.sampled_from(list(NicCountMode)),
)
catalog_overrides = st.dictionaries(
    st.sampled_from(["olt", "nic", "leaf_switch", "spine_switch", "optical_switch", "rack_transceiver"]),
    st.integers(0, 2_000_000),
    max_size=3,
).map(lambda d: tuple(sorted(d.items())))

# ``builds`` draws every field of a named tuple it is given, defaults
# included; through a lambda, the fields not listed keep their defaults.
scenarios = st.builds(
    lambda **fields: Scenario(**fields),
    architectures=st.sampled_from(
        [(Architecture.TRADITIONAL, Architecture.OWC_PON)] * 3
        + [(Architecture.TRADITIONAL,), (Architecture.OWC_PON,)]
    ),
    traditional=traditional_specs,
    owcpon=owcpon_specs(admissible=True) | owcpon_specs(),
    options=options,
    catalog_overrides=catalog_overrides,
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(scenario=scenarios)
def test_benchmark_and_power_match_the_graph_path(scenario):
    assert outcome(lambda: run_benchmark(scenario)) == outcome(
        lambda: oracles.reference_run_benchmark(scenario)
    )
    assert outcome(lambda: _cmd_power(scenario, None)) == outcome(
        lambda: oracles.reference_cmd_power(scenario, None)
    )


@settings(max_examples=250, derandomize=True, deadline=None)
@given(scenario=scenarios)
def test_compare_agrees_with_the_benchmark(scenario):
    """``compare`` prices through ``closed_form_power`` itself, not through
    the benchmark: its totals, reduction and power tables must be the
    benchmark's, and so must its errors, apart from the wording of the
    both-architectures check."""
    benchmarked = outcome(lambda: _cmd_benchmark(scenario, None)[0])
    compared = outcome(lambda: _cmd_compare(scenario, None)[0])
    if not isinstance(benchmarked, Document):
        kind, message = benchmarked
        if message == "the benchmark needs both architectures selected":
            benchmarked = kind, "compare needs both architectures selected"
        assert compared == benchmarked
        return
    assert isinstance(compared, Document), compared
    meta = dict(compared.meta)
    meta["traditional_total_mw"] = meta.pop("baseline_total_mw")
    assert meta == {name: value for name, value in benchmarked.meta if name != "version"}
    power_tables = tuple(table for table in benchmarked.tables if table.name.startswith("power_"))
    assert compared.tables == power_tables


@settings(max_examples=250, derandomize=True, deadline=None)
@given(scenario=scenarios)
def test_validate_command_matches_the_graph_path(scenario):
    assert outcome(lambda: rendered(_cmd_validate, scenario)) == outcome(
        lambda: rendered(oracles.reference_cmd_validate, scenario)
    )


def rendered(command, scenario):
    """The exit code and the document ``command`` makes, in every format."""
    document, code = command(scenario, None)
    return code, [render(document, fmt) for fmt in OutputFormat]


@settings(max_examples=250, derandomize=True, deadline=None)
@given(scenario=scenarios, capacities=st.builds(LinkCapacities, rates, rates, rates))
@example(
    scenario=Scenario(owcpon=OwcPonSpec(adjacency=ExplicitPairs((((1, 3), (0, 0)),)))),
    capacities=LinkCapacities(Fraction(1, 3), Fraction(25, 2), 40),
)
def test_build_command_matches_the_graph_path(scenario, capacities):
    """``build``'s rows, made from the spec, against the rows of built
    graphs: both fabrics, zero racks or spines, explicit pairs, several
    planes, every gateway AP and fractional capacities."""
    scenario = scenario._replace(capacities=capacities)
    assert outcome(lambda: rendered(_cmd_build, scenario)) == outcome(
        lambda: rendered(oracles.reference_cmd_build, scenario)
    )


@settings(max_examples=250, derandomize=True, deadline=None)
@given(
    racks=st.lists(st.integers(-1, 13), max_size=5),
    groups=st.integers(-1, 4),
    servers=st.integers(-1, 3),
    spines=st.none() | st.lists(st.integers(-1, 5), max_size=5),
    options=options,
    overrides=catalog_overrides,
)
def test_sweep_matches_the_graph_path(racks, groups, servers, spines, options, overrides):
    scenario = Scenario(catalog_overrides=overrides)
    traditional_catalog, owc_catalog = oracles.reference_catalogs(scenario)
    kwargs = dict(servers_per_rack=servers, num_groups=groups, spine_counts=spines, options=options)
    assert outcome(
        lambda: scaling_sweep(racks, catalog=resolved_catalog(scenario), **kwargs)
    ) == outcome(
        lambda: oracles.reference_scaling_sweep(
            racks, traditional_catalog=traditional_catalog, owc_pon_catalog=owc_catalog, **kwargs
        )
    )
