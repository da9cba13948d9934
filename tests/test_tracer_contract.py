"""The benchmark's tracer (``perfbench/traced.py``) wraps package functions by
name and reads some of their positional arguments.  A traced paper-scale run,
and a traced ``simulate`` of flow lines, must still succeed, print exactly
what the untraced CLI prints, and call the function behind each per-layer
metric under the name the tracer wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PAPER = str(ROOT / "perfbench" / "scenarios" / "paper_traffic.scenario")
FLOWS64 = str(ROOT / "tests" / "golden" / "flows64.scenario")


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize(
    "command, spans_from",
    [
        (["summary"], "cli.all_pairs_summary"),
        (["simulate", "--top", "10"], "cli.assign"),
        (["route", "rack1/server0", "rack7/server0"], "cli.resolve_route"),
        (["benchmark"], "cli.run_benchmark"),
        (["power"], "cli.closed_form_power"),
        (["sweep", "--racks", "4,8,16"], "cli.scaling_sweep"),
        (["validate"], "cli.render"),
        (["validate"], "cli.validate"),
        (["benchmark"], "benchmark.validate"),
        (["benchmark"], "benchmark.device_census"),
        (["benchmark"], "benchmark.traditional_power"),
        (["sweep", "--racks", "4,8,16"], "power.device_census"),
        (["build"], "cli.device_census"),
        (["power"], "benchmark.traditional_power"),
        (["power"], "benchmark.owc_pon_power"),
        (["compare"], "cli.closed_form_power"),
        (["-s", FLOWS64, "simulate", "--top", "10"], "cli.TrafficMatrix"),
    ],
)
def test_traced_run_matches_untraced(tmp_path, command, spans_from):
    spans_path = tmp_path / "spans.json"
    argv = command if command[0] == "-s" else ["-s", PAPER, *command]
    traced = _run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), *argv])
    plain = _run([sys.executable, "-m", "ponfabric.cli", *argv])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert spans_from in names
