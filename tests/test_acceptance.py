"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failing
assertion is the FAIL line.  Expected numbers are frozen from independent
hand computation and from the oracles in ``oracles.py``, never from the
code under test.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings

import oracles
from ponfabric import (
    OWC_PON_CATALOG,
    PROFILES,
    TRADITIONAL_CATALOG,
    DeviceKind,
    NicCountMode,
    NoDirectLinks,
    OwcPonSpec,
    PowerCatalog,
    PowerOptions,
    RouteTable,
    TraditionalSpec,
    TrafficMatrix,
    UniformPattern,
    assign,
    build_owc_pon,
    build_traditional,
    default_scenario,
    device_census,
    generate_traffic,
    owc_pon_power,
    parse_scenario,
    resolve_route,
    route_to_external,
    run_benchmark,
    serialize_scenario,
    traditional_power,
)
from ponfabric.cli import main
from test_scenario import scenario_strategy
from test_topology import (
    with_extra_link,
    with_extra_node,
    without_link,
    without_node,
)


def replace_options(scenario, options):
    return scenario._replace(options=options)


def _passed(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def benchmark_notes(doc):
    """The notes table's lines, or none when the document has no notes table."""
    return [row[0] for table in doc.tables if table.name == "notes" for row in table.rows]


def test_criterion_1_benchmark_reproduction():
    started = time.perf_counter()
    meta = dict(run_benchmark(default_scenario()).meta)
    elapsed = time.perf_counter() - started

    assert meta["traditional_total_mw"] == 9_344_000
    assert meta["proposed_total_mw"] == 5_054_000
    assert meta["reduction_percent"] == "45.9%"
    rendered = float(meta["reduction_percent"].rstrip("%"))
    assert 45.0 <= rendered <= 46.0
    assert elapsed < 1.0
    _passed(
        1,
        f"9344 W vs 5054 W, reduction {meta['reduction_percent']} "
        f"in {elapsed:.3f}s",
    )


def test_criterion_2_profile_sensitivity():
    as_written = replace_options(default_scenario(), PROFILES["as-written"])
    doc = run_benchmark(as_written)
    meta = dict(doc.meta)
    assert meta["traditional_total_mw"] == 9_536_000
    assert meta["proposed_total_mw"] == 5_246_000
    assert meta["reduction_percent"] == "45.0%"
    assert benchmark_notes(doc) == []

    per_server = replace_options(
        default_scenario(),
        PowerOptions(
            include_server_transceivers=True, nic_count_mode=NicCountMode.PER_SERVER
        ),
    )
    doc = run_benchmark(per_server)
    meta = dict(doc.meta)
    assert meta["proposed_total_mw"] == 7_766_000
    assert meta["reduction_percent"] == "18.6%"
    assert any("non-reproducing" in note for note in benchmark_notes(doc))
    _passed(2, "as-written 45.0%, per-server NIC mode 18.6% and flagged")


def _random_catalog(rng: random.Random) -> PowerCatalog:
    return PowerCatalog({kind: rng.randrange(0, 1_000_000) for kind in DeviceKind})


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20240917)
    started = time.perf_counter()
    checked = 0
    for _ in range(100):
        spec = TraditionalSpec(
            rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        )
        options = PowerOptions(
            include_owc_transceivers=rng.random() < 0.5,
            include_server_transceivers=rng.random() < 0.5,
        )
        catalog = _random_catalog(rng)
        graph = build_traditional(spec)
        closed = traditional_power(device_census(spec), catalog, options)
        assert oracles.per_node_power(graph, catalog, options).total_mw == closed.total_mw
        checked += 1
    for _ in range(100):
        groups, aps = rng.randint(0, 3), rng.randint(1, 3)
        spec = OwcPonSpec(
            num_racks=groups * aps,
            servers_per_rack=rng.randint(0, 5),
            num_groups=groups,
            aps_per_group=aps,
            gateway_ap_index=rng.randrange(aps),
            transceiver_multiplier=rng.randint(1, 2),
        )
        options = PowerOptions(
            include_owc_transceivers=rng.random() < 0.5,
            include_server_transceivers=rng.random() < 0.5,
        )
        catalog = _random_catalog(rng)
        graph = build_owc_pon(spec)
        closed = owc_pon_power(device_census(spec), catalog, options)
        assert oracles.per_node_power(graph, catalog, options).total_mw == closed.total_mw
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 10.0
    _passed(3, f"{checked} randomized specs, exact equality, {elapsed:.2f}s")


def test_criterion_4_routing_invariants(default_owcpon):
    started = time.perf_counter()
    spec = default_owcpon.spec
    servers = sorted(n.id for n in oracles.index(default_owcpon).nodes_of_kind(DeviceKind.SERVER))
    assert len(servers) == 64

    routes = {}
    for src in servers:
        for dst in servers:
            routes[(src, dst)] = resolve_route(default_owcpon.spec, src, dst)
    assert len(routes) == 4096

    for (src, dst), route in routes.items():
        mirror = routes[(dst, src)]
        assert route.nodes == tuple(reversed(mirror.nodes))
        assert route.links == tuple(reversed(mirror.links))
        assert route.path_class is mirror.path_class

    def rack_of(server_id: str) -> int:
        return int(server_id.split("/")[0].removeprefix("rack"))

    for (src, dst), route in routes.items():
        expected = oracles.arithmetic_class_and_hops(
            spec, rack_of(src), rack_of(dst), src == dst
        )
        assert (route.path_class, route.hop_count) == expected

    nxg = oracles.to_networkx(default_owcpon)
    for (src, dst), route in routes.items():
        if src == dst:
            continue
        assert route.hop_count == oracles.oracle_hop_count(default_owcpon, nxg, src, dst)

    # The relayed sub-case with gateway APs on both ends needs a graph
    # without direct links; it runs 10 hops.
    relay_only = build_owc_pon(OwcPonSpec(adjacency=NoDirectLinks()))
    relay_nxg = oracles.to_networkx(relay_only)
    both = resolve_route(relay_only.spec, "rack0/server0", "rack4/server0")
    assert both.hop_count == 10
    assert both.hop_count == oracles.oracle_hop_count(
        relay_only, relay_nxg, "rack0/server0", "rack4/server0"
    )

    for src in servers:
        route = route_to_external(default_owcpon.spec, src)
        expected_hops = 6 if rack_of(src) % spec.aps_per_group == spec.gateway_ap_index else 8
        assert route.hop_count == expected_hops
        assert route.hop_count == oracles.oracle_external_hop_count(
            default_owcpon, nxg, src
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(
        4,
        "4096 pairs resolved, symmetric, class table (2/10/9/14-12-10/8-6) "
        f"matches the search oracle, {elapsed:.2f}s",
    )


def test_criterion_5_validation_suite(default_owcpon):
    assert oracles.reference_validate(default_owcpon) == []

    from ponfabric import Link, LinkKind, Node

    mutations = {
        "remove olt uplink": (
            without_link(default_owcpon, "group1/ap0/nic--olt"),
            ("missing_olt_uplink", "group:1"),
        ),
        "duplicate optical switch": (
            with_extra_node(
                default_owcpon,
                Node("group0/switch.extra", DeviceKind.OPTICAL_SWITCH, group=0),
            ),
            ("duplicate_optical_switch", "group:0"),
        ),
        "orphan nic": (
            without_link(default_owcpon, "group0/ap1/nic--group0/switch"),
            ("orphan_nic", "group0/ap1/nic"),
        ),
        "dangling link": (
            with_extra_link(
                default_owcpon,
                Link("ghost", "group0/ap0/nic", "no/such/node", LinkKind.FIBER, Fraction(40)),
            ),
            ("dangling_link", "link:ghost"),
        ),
        "second olt": (
            with_extra_node(default_owcpon, Node("olt.extra", DeviceKind.OLT)),
            ("duplicate_olt", "olt"),
        ),
        "rack without transceiver": (
            without_node(default_owcpon, "rack3/txrx0"),
            ("missing_rack_transceiver", "rack:3"),
        ),
    }
    for name, (broken, expected) in mutations.items():
        violations = oracles.reference_validate(broken)
        assert [(v.code, v.subject) for v in violations] == [expected], name
    _passed(5, "clean default graph; 6 mutations each yield exactly their violation")


def test_criterion_6_traffic_conservation(default_owcpon):
    rate = Fraction(1)
    matrix = generate_traffic(UniformPattern(rate), default_owcpon.spec)
    report = assign(RouteTable(default_owcpon.spec), matrix)
    oracle_loads = oracles.accumulate_uniform_loads(default_owcpon, rate)
    for row in report.rows:
        assert row.load == oracle_loads.get(row.link_id, Fraction(0)), row.link_id
    _passed(6, "uniform all-to-all matches the per-pair search-path oracle exactly")


def test_criterion_7_determinism(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "[options]\nprofile = reproduction\n\n[traffic]\npattern = uniform 1\n",
        encoding="utf-8",
    )
    commands = [
        ["benchmark"],
        ["power"],
        ["compare"],
        ["build"],
        ["validate"],
        ["route", "rack0/server0", "rack5/server1"],
        ["summary"],
        ["simulate"],
        ["sweep", "--racks", "4,8"],
    ]
    for command in commands:
        for fmt in ("table", "csv", "json"):
            outputs = []
            for _ in range(2):
                code = main(["-s", str(scenario), "--format", fmt] + command)
                captured = capsys.readouterr()
                assert code == 0, (command, fmt, captured.err)
                outputs.append(captured.out.encode())
            assert outputs[0] == outputs[1], (command, fmt)

    _passed(7, "byte-identical CLI output across repeated runs; see round-trip below")


@settings(max_examples=120, derandomize=True)
@given(scenario=scenario_strategy)
def test_criterion_7_round_trip(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario
