import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import ponfabric.benchmark
import ponfabric.graph
import ponfabric.scenario
import ponfabric.topology
import ponfabric.traffic
from ponfabric import OwcPonSpec, TraditionalSpec, TrafficMatrix, cli
from ponfabric.cli import main
from ponfabric.scenario import MAX_DIGITS
from ponfabric.topology import fabric_size
from test_scenario import raw_bytes
import golden_cases
import test_startup

PACKAGE = Path(ponfabric.__file__).resolve().parent
MODULES = ["ponfabric"] + [f"ponfabric.{m.name}" for m in pkgutil.iter_modules([str(PACKAGE)])]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_benchmark_default_scenario(capsys):
    code, out, err = run(capsys, "benchmark")
    assert code == 0
    assert "45.9%" in out
    assert "9344000" in out
    assert "5054000" in out


def test_benchmark_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "benchmark")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "ponfabric/1"
    assert payload["meta"]["traditional_total_mw"] == 9_344_000
    assert payload["meta"]["proposed_total_mw"] == 5_054_000
    assert payload["meta"]["reduction_percent"] == "45.9%"


def test_benchmark_csv_has_total_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "benchmark")
    assert code == 0
    assert "#table:power_traditional" in out
    assert out.count("TOTAL") == 2


def test_scenario_file_with_overrides(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "[options]\nprofile = as-written\nformat = json\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "-s", str(scenario), "benchmark")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["traditional_total_mw"] == 9_536_000
    assert payload["meta"]["reduction_percent"] == "45.0%"


def test_parse_error_exits_one(tmp_path, capsys):
    scenario = tmp_path / "broken.txt"
    scenario.write_text("[options]\nbogus = 1\n", encoding="utf-8")
    code, out, err = run(capsys, "-s", str(scenario), "benchmark")
    assert code == 1
    assert out == ""
    assert "bogus" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "-s", "/no/such/file", "benchmark")
    assert code == 1
    assert "cannot read scenario" in err


def test_spec_mismatch_exits_two(tmp_path, capsys):
    scenario = tmp_path / "mismatch.txt"
    scenario.write_text(
        "[architecture]\nselect = both\nowcpon.racks = 7\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "-s", str(scenario), "benchmark")
    assert code == 2
    assert "validation" in err


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "traditional_violations  0" in out
    assert "owcpon_violations" in out


def test_build_emits_census_and_graph(capsys):
    code, out, _ = run(capsys, "--format", "json", "build")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["owcpon_nodes"] == 164
    assert payload["meta"]["owcpon_links"] == 103
    rows = {row["device"]: row["count"] for row in payload["tables"]["census_owcpon"]}
    assert rows["optical_switch"] == 2


def test_power_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "power")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["traditional_total_mw"] == 9_344_000
    assert payload["meta"]["owcpon_total_mw"] == 5_054_000


def test_compare_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["reduction_percent"] == "45.9%"


def test_route_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "route", "rack0/server0", "rack1/server0")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["class"] == "inter_rack_intra_group"
    assert payload["meta"]["hops"] == 10


def test_route_to_external(capsys):
    code, out, _ = run(capsys, "--format", "json", "route", "rack1/server0", "external")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["class"] == "external"
    assert payload["meta"]["hops"] == 8


def test_route_unknown_server_exits_three(capsys):
    code, _, err = run(capsys, "route", "rack0/server0", "rack9/server9")
    assert code == 3
    assert "evaluation error" in err


SUMMARY_EXPLICIT = str(Path(__file__).resolve().parent / "golden" / "summary_explicit.scenario")


@pytest.mark.parametrize(
    "node_id",
    [
        "olt",
        "rack0/leaf",
        "rack0/server0/txrx",
        "rack01/server0",
        "rack12/server0",
        "rack\u0663/server0",
        "rack" + "1" * 5000 + "/server0",
    ],
    ids=["olt", "leaf", "txrx", "leading zero", "past the last rack", "arabic-indic digit", "5000 digits"],
)
@pytest.mark.parametrize("end", ["src", "dst"])
def test_route_refuses_ids_that_name_no_server(capsys, node_id, end):
    """On 12 racks, an id that is another kind's, spells a rack number
    another way or names a rack the fabric lacks is no server, at either
    end of the route."""
    pair = (node_id, "rack1/server0") if end == "src" else ("rack1/server0", node_id)
    code, out, err = run(capsys, "-s", SUMMARY_EXPLICIT, "route", *pair)
    assert (code, out) == (3, "")
    assert err == f"ponfabric: evaluation error: not a server node: {node_id!r}\n"


def test_summary_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "summary")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["ordered_pairs"] == 4096
    rows = {
        (row["class"], row["hop_count"]): row["pairs"]
        for row in payload["tables"]["pair_histogram"]
    }
    assert rows[("intra_rack", 2)] == 448
    assert rows[("inter_group_relayed", 14)] == 768


def test_simulate_requires_traffic(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 1
    assert "traffic" in err


def test_simulate_with_pattern(tmp_path, capsys):
    scenario = tmp_path / "traffic.txt"
    scenario.write_text(
        "[options]\nprofile = reproduction\nformat = json\n\n"
        "[traffic]\npattern = uniform 1\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "-s", str(scenario), "simulate")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["demand_entries"] == 64 * 63
    assert payload["meta"]["max_utilization"] == "89.6"
    loads = {row["link"]: row["load_gbps"] for row in payload["tables"]["link_loads"]}
    assert loads["group0/ap0/nic--olt"] == "1536"


def test_simulate_with_flows(tmp_path, capsys):
    scenario = tmp_path / "flows.txt"
    scenario.write_text(
        "[options]\nprofile = reproduction\nformat = json\n\n"
        "[traffic]\nflow = rack0/server0 rack1/server0 2.5\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "-s", str(scenario), "simulate")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["total_demand_gbps"] == "2.5"


def test_simulate_hands_assign_the_parsed_flow_map(capsys, monkeypatch):
    """``simulate`` of flow lines hands ``assign`` a matrix whose
    ``demands`` is the very map ``parse_scenario`` keeps in
    ``TrafficSection.flows``, in Mb/s: no flow container is built between."""
    parsed, handed = [], []
    parse, assign = ponfabric.scenario.parse_scenario, ponfabric.traffic.assign
    monkeypatch.setattr(ponfabric.scenario, "parse_scenario", lambda text: parsed.append(parse(text)) or parsed[0])
    monkeypatch.setattr(ponfabric.traffic, "assign", lambda *args: handed.append(args[1]) or assign(*args))
    path = str(golden_cases.GOLDEN / "flows64.scenario")
    assert run(capsys, "-s", path, "simulate")[0] == 0
    (scenario,), (matrix,) = parsed, handed
    assert matrix.demands is scenario.traffic.flows and matrix.scale == 1000
    assert len(matrix.demands) == 17


def test_benchmark_refuses_flow_sums_too_long_to_write(tmp_path, capsys):
    """Two lines of one pair may sum past the longest rate a line holds;
    ``benchmark`` would list that sum in its scenario table as a line that
    does not parse, so the scenario is refused, on the pair's last line."""
    rate = "9" * (MAX_DIGITS - 3) + ".999"
    text = f"[options]\nprofile = reproduction\n\n[traffic]\nflow = a b {rate}\nflow = a b {rate}\n"
    code, out, err = run(capsys, "-s", write_scenario(tmp_path, text), "benchmark")
    assert (code, out) == (1, "")
    assert err == "ponfabric: scenario error: line 6: flow a -> b sums to 401 digits; numbers are limited to 400\n"


def test_a_flow_to_the_external_gateway_exits_three(tmp_path, capsys):
    """``route`` resolves a route to ``external``; a flow line does not."""
    scenario = tmp_path / "flows.txt"
    scenario.write_text(
        "[options]\nprofile = reproduction\n\n[traffic]\nflow = rack0/server0 external 1\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "-s", str(scenario), "simulate")
    assert (code, out) == (3, "")
    assert err == "ponfabric: evaluation error: rack0/server0 -> external: not a server node: 'external'\n"


def test_flow_lines_in_descending_order_fail_on_the_first_in_sorted_order(tmp_path, capsys):
    """Flow lines run in file order, and run again in sorted order when one
    fails, so the error names the first failing pair in sorted order: here
    the last failing line of the file, not the first."""
    flows = [
        "rack7/server0 ghost 1",  # not a server
        "rack5/server0 rack1/server0 1",  # direct
        "rack3/server0 rack3/server1 1",
        "rack1/server0 rack6/server0 1",  # no direct link, and relay fallback off
        "rack0/server0 rack4/server0 2",  # direct
    ]
    assert flows == sorted(flows, reverse=True)
    text = "[options]\nprofile = reproduction\nrelay_fallback = false\n\n[traffic]\n"
    path = write_scenario(tmp_path, text + "".join(f"flow = {flow}\n" for flow in flows))
    code, out, err = run(capsys, "-s", path, "simulate")
    assert (code, out) == (3, "")
    pair = "rack1/server0 -> rack6/server0"
    assert err == (
        f"ponfabric: evaluation error: {pair}: no direct link between the APs of "
        f"{pair.replace(' -> ', ' and ')}, and relay fallback is disabled\n"
    )


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "sweep", "--racks", "4,8,16")
    assert code == 0
    payload = json.loads(out)
    rows = payload["tables"]["sweep"]
    assert [row["racks"] for row in rows] == [4, 8, 16]
    assert rows[1]["reduction"] == "45.9%"


def test_sweep_bad_racks_exits_one(capsys):
    code, _, err = run(capsys, "sweep", "--racks", "4,x")
    assert code == 1


def test_sweep_prints_a_zero_reduction(tmp_path, capsys):
    # One 810 W spine and four leaves cost what the OWC-PON fabric does.
    path = write_scenario(tmp_path, "[architecture]\nselect = both\n\n[catalog]\nspine_switch = 810\n")
    code, out, _ = run(capsys, "-s", path, "-f", "csv", "sweep", "--racks", "4", "--spines", "1", "--groups", "2")
    assert code == 0
    assert "4,2,8,1,2842000,2842000,0.0%,\n" in out


def test_zero_priced_baseline(tmp_path, capsys):
    text = "[options]\nprofile = reproduction\n\n[catalog]\nspine_switch = 0\nleaf_switch = 0\n"
    path = write_scenario(tmp_path, text)
    for command in ("compare", "benchmark"):
        code, out, err = run(capsys, "-s", path, command)
        assert (code, out) == (3, "")
        assert err == "ponfabric: evaluation error: baseline consumes no power\n"
    assert run(capsys, "-s", path, "power")[0] == 0
    code, out, _ = run(capsys, "-s", path, "-f", "csv", "sweep", "--racks", "4,8")
    assert code == 0
    assert "4,2,8,4,,,,baseline consumes no power\n8,2,8,8,,,,baseline consumes no power\n" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--format", "json", "--out", str(target), "benchmark")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["meta"]["reduction_percent"] == "45.9%"


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0


def assert_one_line_failure(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_sweep_spine_count_mismatch_exits_one(capsys):
    for spines in ("4", ""):
        code, out, err = run(capsys, "sweep", "--racks", "4,8", "--spines", spines)
        assert_one_line_failure(code, out, err)
        assert "--spines" in err


def test_out_to_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "--out", str(target), "benchmark")
    assert_one_line_failure(code, out, err)
    assert "cannot write output" in err


def test_non_utf8_scenario_exits_one(tmp_path, capsys):
    scenario = tmp_path / "latin1.txt"
    scenario.write_bytes("[options]\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "-s", str(scenario), "benchmark")
    assert_one_line_failure(code, out, err)
    assert "not UTF-8" in err


def write_scenario(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [("summary",), ("simulate",), ("route", "rack0/server0", "rack5/server1")],
)
def test_owcpon_commands_ignore_the_traditional_fabric(tmp_path, capsys, argv):
    # With no spines the traditional fabric is disconnected; only the
    # power commands and validate look at it.
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = both\ntraditional.spines = 0\n\n"
        "[traffic]\npattern = uniform 1\n",
    )
    code, out, err = run(capsys, "-s", path, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, "-s", path, "benchmark")[0] == 2


@pytest.mark.parametrize("command", ["benchmark", "power", "compare"])
def test_power_commands_reject_a_spineless_traditional_fabric(tmp_path, capsys, command):
    path = write_scenario(tmp_path, "[architecture]\nselect = both\ntraditional.spines = 0\n")
    code, out, err = run(capsys, "-s", path, command)
    assert (code, out) == (2, "")
    assert err == "ponfabric: validation error: traditional: disconnected(rack1/leaf)\n"


@pytest.mark.parametrize("command", ["power", "compare", "benchmark"])
def test_spec_errors_come_before_verdicts(tmp_path, capsys, command):
    # The traditional fabric comes first and fails validation, but the
    # owcpon spec cannot even be counted, and that is reported.
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = both\ntraditional.spines = 0\nowcpon.racks = 7\n",
    )
    code, out, err = run(capsys, "-s", path, command)
    assert (code, out) == (2, "")
    assert err == (
        "ponfabric: validation error: "
        "num_groups (2) x aps_per_group (4) must equal num_racks (7)\n"
    )


@pytest.mark.parametrize("command, serialized", [("power", 0), ("compare", 0), ("benchmark", 1)])
def test_only_the_benchmark_serializes_the_scenario(capsys, monkeypatch, command, serialized):
    calls = []
    serialize = ponfabric.benchmark.serialize_scenario

    def counting(scenario):
        calls.append(scenario)
        return serialize(scenario)

    monkeypatch.setattr(ponfabric.benchmark, "serialize_scenario", counting)
    code, _, err = run(capsys, command)
    assert (code, err) == (0, "")
    assert len(calls) == serialized


@pytest.mark.parametrize("command", ["power", "compare", "benchmark"])
def test_power_commands_count_each_fabric_once(capsys, monkeypatch, command):
    counted = []
    count = ponfabric.topology._census_and_links

    def counting(spec):
        counted.append(type(spec))
        return count(spec)

    monkeypatch.setattr(ponfabric.topology, "_census_and_links", counting)
    code, _, err = run(capsys, command)
    assert (code, err) == (0, "")
    assert counted == [TraditionalSpec, OwcPonSpec]


HUGE_OWCPON = (
    "owcpon.racks = 10000000\nowcpon.groups = 2\nowcpon.aps_per_group = 5000000\n"
    "owcpon.adjacency = none\n"
)


@pytest.fixture
def no_graphs(monkeypatch):
    """Fail any attempt to build a graph: at either builder, wherever it is
    imported, at its first node and at the graph itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(ponfabric.graph, "Node", refuse)
    monkeypatch.setattr(ponfabric.graph, "NetworkGraph", refuse)
    for name in MODULES:
        module = importlib.import_module(name)
        for builder in ("build_owc_pon", "build_traditional"):
            # where it is bound: a module that reads it from ``graph`` on
            # access reads the patched builder, and the restored one after
            if builder in vars(module):
                monkeypatch.setattr(module, builder, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("simulate",),
    ],
)
def test_graph_commands_refuse_a_fabric_over_budget(tmp_path, capsys, no_graphs, argv):
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = owcpon\n" + HUGE_OWCPON + "\n[traffic]\npattern = uniform 1\n",
    )
    code, out, err = run(capsys, "-s", path, *argv)
    assert_one_line_failure(code, out, err)
    assert err == (
        "ponfabric: scenario error: owcpon fabric would have 200000004 nodes and "
        "120000003 links, over the 1000000 budget\n"
    )


def test_size_guard_checks_every_selected_fabric(tmp_path, capsys, no_graphs):
    path = write_scenario(
        tmp_path, "[architecture]\nselect = both\ntraditional.racks = 1000\ntraditional.spines = 1000\n"
    )
    code, out, err = run(capsys, "-s", path, "build")
    assert_one_line_failure(code, out, err)
    assert "traditional fabric would have 18000 nodes and 1008000 links" in err
    # 512 racks x 512 spines is within the budget
    assert fabric_size(TraditionalSpec(512, 512, 8)) == (9216, 266240)


@pytest.mark.parametrize("command", ["build", "simulate"])
def test_spec_errors_win_over_the_size_guard(tmp_path, capsys, no_graphs, command):
    """The owcpon spec error exits 2, though the traditional fabric, which
    comes first, is over the budget."""
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = both\ntraditional.racks = 10000000\n"
        "traditional.spines = 10000000\nowcpon.racks = 10000000\n\n[traffic]\npattern = uniform 1\n",
    )
    code, out, err = run(capsys, "-s", path, command)
    assert (code, out) == (2, "")
    assert "must equal num_racks (10000000)" in err


@pytest.mark.parametrize(
    "case",
    [
        "paper_traffic-simulate",
        "flows64-simulate",
        "route",
        "summary_explicit-route-direct",
        "build",
        "no_spines-build",
        "summary_explicit-build",
    ],
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_simulate_and_route_build_no_graph(capsys, no_graphs, case, fmt):
    """``simulate`` of a pattern and of flow lines, ``route`` and ``build``
    print their golden output with both builders, ``Node`` and
    ``NetworkGraph`` refusing to run."""
    case_id = f"{case}.{fmt}"
    code = main(golden_cases.argv(case_id))
    assert (code, capsys.readouterr().out) == (
        0,
        (golden_cases.GOLDEN / f"{case_id}.out").read_text(encoding="utf-8"),
    )


def test_fabric_scale_json_build_prints_the_benchmark_digest(capsys, no_graphs):
    """The 128-rack JSON ``build`` that the benchmark times prints the bytes
    whose digest ``perfbench/expected.json`` holds, with no graph built."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    expected = json.loads((perfbench / "expected.json").read_text(encoding="utf-8"))
    scenario = str(perfbench / "scenarios" / "fabric_scale.scenario")
    code, out, err = run(capsys, "-s", scenario, "-f", "json", "build")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == expected["committed"]["fabric_scale/build"]["sha256"]


@pytest.mark.parametrize(
    "argv",
    [
        ("benchmark",),
        ("power",),
        ("compare",),
        ("sweep", "--racks", "8,10000000", "--groups", "2"),
        ("validate",),
        ("summary",),
        ("route", "rack0/server0", "rack9999999/server7"),
        ("route", "rack9999999/server0", "external"),
    ],
)
def test_closed_form_commands_build_no_graph_at_any_size(tmp_path, capsys, no_graphs, argv):
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = both\ntraditional.racks = 10000000\n"
        "traditional.spines = 10000000\n" + HUGE_OWCPON,
    )
    code, out, err = run(capsys, "-s", path, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "owcpon, pair",
    [
        (HUGE_OWCPON, "rack0/server0 and rack5000000/server0"),
        (
            "owcpon.racks = 16\nowcpon.groups = 2\nowcpon.aps_per_group = 8\n",
            "rack0/server0 and rack10/server0",
        ),
    ],
    ids=["10M racks", "16 racks"],
)
def test_summary_names_the_first_pair_relay_off_cuts(tmp_path, capsys, no_graphs, owcpon, pair):
    # server ids sort as text, so rack10 comes before rack9
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = owcpon\n" + owcpon + "\n[options]\nrelay_fallback = false\n",
    )
    code, out, err = run(capsys, "-s", path, "summary")
    assert (code, out) == (3, "")
    assert err == (
        f"ponfabric: evaluation error: no direct link between the APs of {pair}, "
        "and relay fallback is disabled\n"
    )


def test_simulate_names_the_first_pair_relay_off_cuts(tmp_path, capsys):
    # 16 racks in 2 groups of 8 APs: rack0's AP has a direct link to rack8's only
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = owcpon\nowcpon.racks = 16\nowcpon.servers_per_rack = 2\n"
        "owcpon.groups = 2\nowcpon.aps_per_group = 8\n\n[options]\nrelay_fallback = false\n\n"
        "[traffic]\npattern = uniform 1\n",
    )
    code, out, err = run(capsys, "-s", path, "simulate")
    assert (code, out) == (3, "")
    pair = "rack0/server0 -> rack10/server0"
    assert err == (
        f"ponfabric: evaluation error: {pair}: no direct link between the APs of "
        f"{pair.replace(' -> ', ' and ')}, and relay fallback is disabled\n"
    )


def test_simulate_builds_no_per_server_pattern_demand(tmp_path, capsys, monkeypatch):
    """Uniform traffic on 256 racks of 8 servers is 4,192,256 server pairs.
    ``simulate`` charges it as 65,536 rack-pair blocks: the per-server
    matrix is never built: both ways of making it raise here."""

    def refuse(*args, **kwargs):
        raise AssertionError("per-server demand was built")

    monkeypatch.setattr(oracles, "reference_generate_traffic", refuse)
    monkeypatch.setattr(TrafficMatrix, "_checked", refuse)
    path = write_scenario(
        tmp_path,
        "[architecture]\nselect = owcpon\nowcpon.racks = 256\nowcpon.servers_per_rack = 8\n"
        "owcpon.groups = 32\nowcpon.aps_per_group = 8\n\n[traffic]\npattern = uniform 1\n",
    )
    code, out, err = run(capsys, "-s", path, "--format", "json", "simulate", "--top", "1")
    assert (code, err) == (0, "")
    meta = json.loads(out)["meta"]
    assert (meta["demand_entries"], meta["total_demand_gbps"]) == (4_192_256, "4192256")


SPARSE_20000_RACKS = (
    "[architecture]\nselect = owcpon\nowcpon.racks = 20000\nowcpon.servers_per_rack = 1\n"
    "owcpon.groups = 20000\nowcpon.aps_per_group = 1\nowcpon.adjacency = none\n\n"
    "[traffic]\npattern = uniform 1\n"
)
# Runs the CLI on its arguments with the address space capped at 1.5 GB.
CAPPED_CLI = (
    "import resource, sys\n"
    "cap = 1536 * 2**20\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from ponfabric.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_simulate_refuses_pattern_demand_over_budget(tmp_path):
    """20,000 racks of one server make a graph of 260,003 nodes plus links,
    within its budget, but uniform traffic on them is 399,980,000 rack-pair
    blocks, some 38 GB of demand.  Run only in a child process under a
    memory cap, so that making the blocks fails there and not here."""
    path = write_scenario(tmp_path, SPARSE_20000_RACKS)
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "-s", path, "simulate"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert_one_line_failure(child.returncode, child.stdout, child.stderr)
    assert child.stderr == (
        "ponfabric: scenario error: traffic pattern would make 399980000 rack-pair blocks, "
        "over the 2000000 budget\n"
    )


#: (racks, groups, APs per group) of two owcpon fabrics of 8 servers per
#: rack: the largest within ``GRAPH_BUDGET`` with one AP per group, and one
#: far over it.
ROUTED_FABRICS = {"1381 racks": (1381, 1381, 1), "1000000 racks": (1_000_000, 1000, 1000)}


@pytest.mark.parametrize(
    "fabric, src, dst, path_class, hops",
    [
        ("1381 racks", "rack5/server0", "rack1005/server1", "inter_group_direct", 9),
        ("1381 racks", "rack5/server0", "external", "external", 6),
        ("1000000 racks", "rack5/server0", "rack1005/server1", "inter_group_direct", 9),
        ("1000000 racks", "rack0/server0", "rack999999/server7", "inter_group_relayed", 12),
        ("1000000 racks", "rack999999/server7", "external", "external", 8),
    ],
)
def test_route_on_large_fabrics_under_a_memory_cap(tmp_path, fabric, src, dst, path_class, hops):
    """``route`` names its route from the spec, so neither the 1,381-rack
    fabric (970,844 links) nor the 1,000,000-rack one needs memory that
    grows with the fabric: each runs under the 1.5 GB cap."""
    racks, groups, aps = ROUTED_FABRICS[fabric]
    budget = ponfabric.topology.GRAPH_BUDGET
    assert sum(fabric_size(OwcPonSpec(1381, 8, 1381, 1))) <= budget
    assert sum(fabric_size(OwcPonSpec(1382, 8, 1382, 1))) > budget
    path = write_scenario(
        tmp_path,
        f"[architecture]\nselect = owcpon\nowcpon.racks = {racks}\nowcpon.servers_per_rack = 8\n"
        f"owcpon.groups = {groups}\nowcpon.aps_per_group = {aps}\n",
    )
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "-s", path, "-f", "json", "route", src, dst],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert (child.returncode, child.stderr) == (0, "")
    meta = json.loads(child.stdout)["meta"]
    assert (meta["class"], meta["hops"]) == (path_class, hops)


def test_summary_needs_the_owcpon_fabric(tmp_path, capsys, no_graphs):
    path = write_scenario(tmp_path, "[architecture]\nselect = traditional\n")
    code, out, err = run(capsys, "-s", path, "summary")
    assert_one_line_failure(code, out, err)
    assert err == "ponfabric: scenario error: this command needs the owcpon architecture selected\n"


PAPER_TRAFFIC = str(
    Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "paper_traffic.scenario"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("validate",),
        ("power",),
        ("compare",),
        ("route", "rack1/server0", "rack7/server0"),
        ("summary",),
        ("simulate",),
        ("sweep", "--racks", "4,8,16"),
        ("benchmark",),
    ],
)
def test_no_command_validates_a_built_graph(capsys, argv):
    # The only graph checker is the test oracle ``reference_validate``.
    assert not [name for name in MODULES if hasattr(importlib.import_module(name), "validate_graph")]
    code, out, err = run(capsys, "-s", PAPER_TRAFFIC, *argv)
    assert (code, err) == (0, "")


# Prints the modules that importing its arguments adds to those the
# interpreter, ``site`` included, loaded at start.
IMPORT_ALL = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "for name in sys.argv[1:]:\n"
    "    __import__(name)\n"
    "print('\\n'.join(set(sys.modules) - before))\n"
)


def test_runtime_imports_only_the_standard_library():
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, *MODULES],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert (child.returncode, child.stderr) == (0, "")
    foreign = [
        name
        for name in child.stdout.split()
        if name.partition(".")[0] not in sys.stdlib_module_names and name not in MODULES
    ]
    assert foreign == []


NOT_A_LIST = "ponfabric: scenario error: --{} expects a comma list of integers\n"
NOT_AN_INTEGER = "ponfabric {}: error: argument --{}: invalid integer value: '{}'\n"
# Count lists with an empty item, by test id: every comma item must be a count.
EMPTY_ITEMS = {"": "empty", ",": "comma", "4,,8": "empty-middle", "4,": "trailing-comma"}


@pytest.mark.parametrize(
    "scenario, argv, message",
    [
        (
            "[architecture]\nselect = owcpon\nowcpon.racks = \u0668\n",
            ("build",),
            "ponfabric: scenario error: line 3: expected an integer, got '\u0668'\n",
        ),
        (None, ("sweep", "--racks", "\u0664,8"), NOT_A_LIST.format("racks")),
        (None, ("sweep", "--racks", "1_6"), NOT_A_LIST.format("racks")),
        (None, ("sweep", "--racks", "4", "--spines", "\u0664"), NOT_A_LIST.format("spines")),
        *((None, ("sweep", "--racks", racks), NOT_A_LIST.format("racks")) for racks in EMPTY_ITEMS),
        *(
            (None, ("sweep", "--racks", "4,8", "--spines", spines), NOT_A_LIST.format("spines"))
            for spines in EMPTY_ITEMS
        ),
        (None, ("sweep", "--racks", "4", "--groups", "\u0662"), NOT_AN_INTEGER.format("sweep", "groups", "\u0662")),
        (
            None,
            ("sweep", "--racks", "4", "--servers-per-rack", "1_0"),
            NOT_AN_INTEGER.format("sweep", "servers-per-rack", "1_0"),
        ),
        (None, ("simulate", "--top", "\u0663"), NOT_AN_INTEGER.format("simulate", "top", "\u0663")),
    ],
    ids=[
        "scenario",
        "racks",
        "racks-underscore",
        "spines",
        *(f"racks-{name}" for name in EMPTY_ITEMS.values()),
        *(f"spines-{name}" for name in EMPTY_ITEMS.values()),
        "groups",
        "servers-per-rack",
        "top",
    ],
)
def test_non_ascii_digits_are_rejected(tmp_path, capsys, scenario, argv, message):
    if scenario is not None:
        argv = ("-s", write_scenario(tmp_path, scenario), *argv)
    code, out, err = run(capsys, *argv)
    assert_one_line_failure(code, out, err)
    assert err == message


def test_hotspot_on_missing_rack_is_a_scenario_error(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "[architecture]\nselect = owcpon\n\n[traffic]\npattern = hotspot_rack 42 1\n"
    )
    code, out, err = run(capsys, "-s", path, "simulate")
    assert_one_line_failure(code, out, err)
    assert err == "ponfabric: scenario error: traffic pattern: rack 42 does not exist in the graph\n"


OVER = "9" * (MAX_DIGITS + 1)
TOO_LONG = f"numbers are limited to {MAX_DIGITS} digits, got {MAX_DIGITS + 1}"


@pytest.mark.parametrize(
    "lines",
    [
        f"[architecture]\nselect = owcpon\nowcpon.racks = {OVER}\n",
        f"[architecture]\nselect = owcpon\nowcpon.gateway_ap = -{OVER}\n",
        f"[architecture]\nselect = owcpon\ncapacity.wired = {OVER}\n",
        f"[architecture]\nselect = owcpon\ncapacity.owc = {OVER[:-3]}.999\n",
        f"[architecture]\nselect = owcpon\n[catalog]\nolt = {OVER}\n",
        f"[architecture]\nselect = owcpon\n[traffic]\nflow = rack0/server0 rack1/server0 {OVER}\n",
        f"[architecture]\nselect = owcpon\n[traffic]\npattern = hotspot_rack {OVER} 1\n",
        f"[architecture]\nselect = owcpon\nowcpon.adjacency = explicit\nowcpon.pairs = 0.0-1.{OVER}\n",
    ],
)
def test_scenario_numbers_over_the_digit_bound_exit_one(tmp_path, capsys, lines):
    code, out, err = run(capsys, "-s", write_scenario(tmp_path, lines), "summary")
    assert_one_line_failure(code, out, err)
    assert err.endswith(f": {TOO_LONG}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--racks", f"4,{OVER}"), f"ponfabric: scenario error: {TOO_LONG}\n"),
        (("--racks", "4", "--spines", f"-{OVER}"), f"ponfabric: scenario error: {TOO_LONG}\n"),
        (("--racks", "4", "--groups", OVER), f"ponfabric sweep: error: argument --groups: {TOO_LONG}\n"),
        (
            ("--racks", "4", "--servers-per-rack", OVER),
            f"ponfabric sweep: error: argument --servers-per-rack: {TOO_LONG}\n",
        ),
    ],
)
def test_sweep_counts_over_the_digit_bound_exit_one(capsys, flags, message):
    code, out, err = run(capsys, "sweep", *flags)
    assert_one_line_failure(code, out, err)
    assert err == message


AT = "9" * MAX_DIGITS
POW2 = str(2 ** int(MAX_DIGITS / math.log10(2)))  # the largest with MAX_DIGITS digits
assert len(POW2) == MAX_DIGITS
AT_THE_BOUND = {
    # Every count and price at the bound.
    "nines": (
        f"[architecture]\nselect = both\ntraditional.spines = {AT}\ntraditional.racks = {AT}\n"
        f"traditional.servers_per_rack = {AT}\nowcpon.racks = {AT}\n"
        f"owcpon.servers_per_rack = {AT}\nowcpon.groups = {AT}\nowcpon.aps_per_group = 1\n"
        f"owcpon.transceiver_multiplier = {AT}\ncapacity.wired = {AT}\n"
        f"capacity.owc = {AT[:-3]}.999\n[options]\ninclude_server_transceivers = true\n"
        f"include_owc_transceivers = true\nnic_count_mode = per_server\n"
        f"[catalog]\nspine_switch = {AT}\nolt = {AT}\nserver_transceiver = {AT[:-1]}.9\n"
        f"[traffic]\npattern = uniform {AT}\n"
    ),
    # The baseline is a power of two times 125, and the proposed fabric
    # 1 mW more, so the reduction's exact decimal has some 4,000 digits:
    # the longest number any command prints.
    "powers_of_two": (
        f"[architecture]\nselect = both\ntraditional.spines = {POW2}\n"
        f"traditional.racks = {POW2}\ntraditional.servers_per_rack = {POW2}\n"
        f"owcpon.racks = {POW2}\nowcpon.servers_per_rack = {POW2}\nowcpon.groups = {POW2}\n"
        f"owcpon.aps_per_group = 1\nowcpon.adjacency = none\n"
        f"[options]\ninclude_server_transceivers = true\n"
        f"[catalog]\nserver_transceiver = {POW2}\nspine_switch = 0\nleaf_switch = 0\n"
        f"olt = 0.001\nowc_transceiver = 0\nnic = 0\noptical_switch = 0\n"
        f"[traffic]\npattern = hotspot_rack {POW2} {AT[:-3]}.999\n"
    ),
    # A graph small enough to build, with rates and capacities at the bound.
    "small_graph": (
        f"[architecture]\nselect = both\ncapacity.wired = {POW2}\ncapacity.owc = 0.001\n"
        f"capacity.fiber = {POW2[:-3]}.{POW2[-3:]}\n[catalog]\nspine_switch = {AT}\n"
        f"[traffic]\nflow = rack0/server0 rack7/server3 {AT}\n"
        f"flow = rack1/server0 rack2/server3 {POW2[:-1]}.1\n"
    ),
}


@pytest.mark.parametrize("name", sorted(AT_THE_BOUND))
def test_numbers_at_the_digit_bound_never_raise(tmp_path, capsys, name):
    path = write_scenario(tmp_path, AT_THE_BOUND[name])
    longest = 0
    for argv in (
        ("build",), ("validate",), ("power",), ("compare",), ("benchmark",), ("summary",),
        ("simulate",), ("route", "rack0/server0", "rack1/server0"),
        ("route", "rack0/server0", "external"),
        ("sweep", "--racks", f"{AT},{POW2}", "--spines", f"{POW2},{AT}",
         "--groups", AT, "--servers-per-rack", AT),
    ):
        for fmt in ("table", "csv", "json"):
            code, out, err = run(capsys, "-s", path, "-f", fmt, *argv)
            assert code in (0, 1, 2, 3)
            assert len(err.splitlines()) == (code != 0)
            longest = max([longest, *map(len, re.findall("[0-9]+", out))])
    assert longest < 4300
    if name == "powers_of_two":
        assert longest > 3900


def test_usage_error_is_one_line(capsys):
    code, out, err = run(capsys, "sweep")
    assert_one_line_failure(code, out, err)
    assert "--racks" in err


# --- error contract over generated argv ------------------------------------

small = st.integers(-2, 64)
count_list = st.lists(small, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
server = st.sampled_from(
    ["rack0/server0", "rack7/server7", "rack1/server0", "rack99/server0", "external", "x"]
)


def spelled(draw, value, flag, short=None, abbreviation=None) -> list[str]:
    """``flag`` with ``value`` in one of the forms argparse reads: after the
    flag or ``short``, after ``=``, attached to ``short``, or after an
    abbreviation.  The direct parse reads only the first two."""
    forms = [[flag, value], [f"{flag}={value}"]]
    if short:
        forms += [[short, value], [short + value]]
    if abbreviation:
        forms.append([abbreviation, value])
    return draw(st.sampled_from(forms))


@st.composite
def argvs(draw, scenario_path, out_dir):
    argv = []
    if draw(st.booleans()):
        argv += spelled(draw, draw(st.sampled_from(["table", "csv", "json", "xml"])), "--format", "-f", "--form")
    if draw(st.booleans()):
        argv += spelled(draw, scenario_path, "--scenario", "-s", "--scen")
    if draw(st.booleans()):
        argv += spelled(draw, str(out_dir / draw(st.sampled_from(["out.txt", "missing/out.txt"]))), "--out")
    command = draw(
        st.sampled_from(
            ["build", "validate", "power", "compare", "route", "summary", "simulate",
             "sweep", "benchmark", "frobnicate"]
        )
    )
    argv.append(command)
    if command == "route":
        argv += draw(st.lists(server, max_size=3))
    elif command == "simulate" and draw(st.booleans()):
        argv += spelled(draw, str(draw(small)), "--top", abbreviation="--to")
    elif command == "sweep":
        for flag in ("--racks", "--spines", "--groups"):
            if draw(st.booleans()):
                argv += spelled(draw, draw(count_list) if flag != "--groups" else str(draw(small)), flag)
    if draw(st.integers(0, 4)) == 0:
        junk = st.sampled_from(["--bogus", "-5", "", "x", "--", "-h", "-x"])
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data(), scenario=raw_bytes)
def test_error_contract_holds_for_generated_argv(tmp_path_factory, data, scenario):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scenario.bin"
    path.write_bytes(scenario)
    argv = data.draw(argvs(str(path), work))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) <= 1


# --- the direct parse against argparse --------------------------------------

COMMANDS = ["build", "validate", "power", "compare", "route", "summary", "simulate", "sweep", "benchmark"]
GLOBAL_FLAGS = ["-s", "--scenario", "-f", "--format", "--out"]
COMMAND_FLAGS = {"simulate": ["--top"], "sweep": ["--racks", "--groups", "--servers-per-rack", "--spines"]}
FORMATS = ["json", "csv", "table"]
COUNTS = ["3", "0", "+4", " 7", "٣", "1_0", "1" * (MAX_DIGITS + 1), "9" * MAX_DIGITS]
PATHS = ["perfbench/scenarios/paper_traffic.scenario", "/missing/x.scenario", "out.txt"]
WORDS = ["", "-5", "a b", "x", "4,8,16", "rack1/server0", "external", *PATHS, *FORMATS, "xml", *COUNTS]
VOCABULARY = [
    *GLOBAL_FLAGS,
    *(flag for flags in COMMAND_FLAGS.values() for flag in flags),
    # abbreviations, ``=`` forms, attached short values
    "--scen", "--form", "--ou", "--to", "--rac", "--gr", "--serv", "--sp",
    "--format=json", "--top=3", "--racks=4,8", "--scenario=x", "-sx", "-fjson", "-f=csv",
    "--", "-h", "--help", "--version", "--bogus", "frobnicate",
    *COMMANDS,
    *WORDS,
]
VALUES = {"-f": FORMATS, "--format": FORMATS, "--top": COUNTS, "--groups": COUNTS, "--servers-per-rack": COUNTS}


@st.composite
def scripted_argvs(draw):
    """Global options, a command word, its options and route's positionals:
    most often the words each takes, the rest from the whole vocabulary."""

    def often(words):
        return draw(st.sampled_from(VOCABULARY if draw(st.integers(0, 4)) == 0 else words))

    def option(flags):
        flag = draw(st.sampled_from(flags))
        return [flag, often(VALUES.get(flag, WORDS))]

    argv = [word for _ in range(draw(st.integers(0, 3))) for word in option(GLOBAL_FLAGS)]
    command = draw(st.sampled_from(COMMANDS))
    argv.append(command)
    flags = COMMAND_FLAGS.get(command)
    if command == "sweep" and draw(st.integers(0, 4)):
        argv += option(["--racks"])  # required
    for _ in range(draw(st.integers(0, 3)) if flags else 0):
        argv += option(flags)
    if command == "route":
        argv += [often(WORDS) for _ in range(draw(st.sampled_from([2, 2, 2, 0, 1, 3])))]
    return argv


@st.composite
def edited(draw, argvs):
    """An argv of ``argvs`` with up to two words inserted, replaced or deleted."""
    argv = draw(argvs)
    for _ in range(draw(st.integers(1, 2))):
        at, word = draw(st.integers(0, len(argv))), draw(st.sampled_from(VOCABULARY))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, word)
        elif edit == "replace":
            argv[at] = word
        else:
            del argv[at]
    return argv


def argparse_reads(argv: list[str]) -> dict:
    """``vars`` of what the argparse parser reads from ``argv``, which must parse."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}: {err.getvalue()}")


@settings(max_examples=600, derandomize=True, deadline=None)
@given(argv=st.one_of(scripted_argvs(), edited(scripted_argvs()), st.lists(st.sampled_from(VOCABULARY), max_size=6)))
def test_the_direct_parse_reads_what_argparse_reads(argv):
    """Whatever the direct parse accepts, argparse accepts and reads the same."""
    direct = cli._parse(argv)
    event("accepted" if direct is not None else "declined")
    if direct is not None:
        assert vars(direct) == argparse_reads(argv)


# Each argv that ``perfbench/run.py`` runs, by its own functions.
BENCHMARK_ARGV = (
    "import json, sys\n"
    "sys.path.insert(0, 'perfbench')\n"
    "import run\n"
    "invocations = [*run.paper_invocations(), *(inv for workload in run.WORKLOADS "
    "for inv in run.own_invocations(workload, 'generated.scenario')), run.VERSION]\n"
    "print(json.dumps([inv.argv for inv in invocations]))\n"
)


def test_the_direct_parse_reads_every_argv_scripts_write(monkeypatch, capsys):
    """The golden cases, the start-up matrix and the benchmark's invocations
    bar ``--version`` parse without argparse, as argparse reads them, and
    ``main`` answers ``--version`` without argparse."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", BENCHMARK_ARGV], cwd=root, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *benchmark, version = json.loads(done.stdout)
    assert version == ["--version"] and len(benchmark) >= 10
    golden = [golden_cases.argv(case_id) for case_id in golden_cases.IDS]
    matrix = [["-f", "table", "-s", test_startup.PAPER, *row[0]] for row in test_startup.MATRIX]
    for argv in [*golden, *matrix, *benchmark]:
        direct = cli._parse(argv)
        assert direct is not None, argv
        assert vars(direct) == argparse_reads(argv)
    assert cli._parse(version) is None
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_build_parser", None)
    assert main(version) == 0
    assert capsys.readouterr() == (f"ponfabric {ponfabric.__version__}\n", "")


# Each command of the start-up matrix with buffered stdout, and one unbuffered.
WRITES = [(row[0], "") for row in test_startup.MATRIX] + [(["validate"], "1")]
WRITE_IDS = [f"{name}-0" for name in test_startup.MATRIX_IDS] + ["validate-1"]


@pytest.mark.parametrize("failure", test_startup.WRITE_FAILURES)
@pytest.mark.parametrize("argv, unbuffered", WRITES, ids=WRITE_IDS)
def test_a_failed_stdout_write_exits_one_with_one_line(argv, unbuffered, failure):
    """A closed stdout, a full device and a pipe whose reader has closed
    fail the write, or with buffered stdout its flush: either exits 1 with
    one line, and nothing more is reported at exit."""
    code, out, err = test_startup.run_to(
        failure, "-m", "ponfabric.cli", "-s", test_startup.PAPER, *argv, PYTHONUNBUFFERED=unbuffered
    )
    assert_one_line_failure(code, out, err)
    assert err.startswith("ponfabric: cannot write output: "), err


@pytest.mark.parametrize("failure", test_startup.WRITE_FAILURES)
@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["summary", "--help"]], ids=" ".join)
def test_help_that_cannot_be_written_exits_one_with_one_line(argv, failure):
    """Help follows the commands' rule where its write fails, on every
    Python: argparse alone would exit 0 having written nothing (3.11 on),
    print the help on stderr where stdout is closed, or print a traceback
    (3.10)."""
    code, out, err = test_startup.run_to(failure, "-m", "ponfabric.cli", *argv)
    assert_one_line_failure(code, out, err)
    assert err.startswith("ponfabric: cannot write output: "), err
