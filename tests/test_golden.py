"""Golden CLI outputs: stdout and exit code, byte for byte.

Every subcommand runs in table, csv and json on the built-in scenario,
plus ``simulate`` and ``benchmark`` (whose scenario table then lists
the traffic section) on the committed paper-scale traffic scenario, a route
to the external gateway, the closed-form commands at scale (``benchmark``,
``power``, ``compare`` and ``validate`` on the 128-rack scenario, two
sweeps with failing points), ``validate`` and ``build`` on a fabric
without spines, which has a finding, ``summary`` on the 128-rack and
16-rack benchmark scenarios, and ``summary`` and ``build`` on a 12-rack
fabric with explicit direct links, a gateway AP off index 0 and two
transceiver planes, which reaches every histogram row, ``route`` on that
fabric for each class it has (a direct link crossed against its listed
orientation, relays of 14, 12 and 10 hops, one rack, the external
gateway), and ``simulate``
on the 64-rack scenarios under ``tests/golden/sim64/``: each traffic
pattern (zero rates, intra fractions 0 and 1, a hotspot rack the fabric
lacks), relay fallback off, no direct links and explicit direct links;
and ``simulate`` of explicit flow lines on a 64-rack fabric
(``tests/golden/flows64*.scenario``): every path class, duplicate lines,
zero rates and a self flow, then the same lines without relay fallback
and with a flow to a node that is not a server.
The files under
``tests/golden/`` were recorded before the code they pin was rewritten
(the scenario key table, the shared comparison pipeline, pricing,
validating and summarising from the spec, ``build``'s census from the
spec, and routes named from the spec); re-record them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ponfabric.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PAPER_TRAFFIC = "perfbench/scenarios/paper_traffic.scenario"
FABRIC_SCALE = "perfbench/scenarios/fabric_scale.scenario"
ALLPAIRS_UNIFORM = "perfbench/scenarios/allpairs_uniform.scenario"
NO_SPINES = "tests/golden/no_spines.scenario"
SUMMARY_EXPLICIT = "tests/golden/summary_explicit.scenario"
SIM64 = (
    "uniform",
    "uniform_zero",
    "hotspot",
    "hotspot_missing",
    "intra_heavy",
    "intra_none",
    "intra_only",
    "relay_off",
    "relay_off_hotspot",
    "no_adjacency",
    "explicit",
)
SIM64_SCENARIOS = tuple(f"tests/golden/sim64/{name}.scenario" for name in SIM64)
FLOWS64 = ("flows64", "flows64_relay_off", "flows64_non_server")
FLOWS64_SCENARIOS = tuple(f"tests/golden/{name}.scenario" for name in FLOWS64)
SCENARIOS = (
    PAPER_TRAFFIC,
    FABRIC_SCALE,
    ALLPAIRS_UNIFORM,
    NO_SPINES,
    SUMMARY_EXPLICIT,
    *SIM64_SCENARIOS,
    *FLOWS64_SCENARIOS,
)

CASES = {
    "build": ("build",),
    "validate": ("validate",),
    "power": ("power",),
    "compare": ("compare",),
    "route": ("route", "rack1/server0", "rack7/server0"),
    "route-external": ("route", "rack1/server0", "external"),
    "summary": ("summary",),
    "simulate": ("simulate",),
    "sweep": ("sweep", "--racks", "4,8,16"),
    "benchmark": ("benchmark",),
    "paper_traffic-simulate": ("-s", PAPER_TRAFFIC, "simulate", "--top", "10"),
    "paper_traffic-benchmark": ("-s", PAPER_TRAFFIC, "benchmark"),
    "fabric_scale-benchmark": ("-s", FABRIC_SCALE, "benchmark"),
    "fabric_scale-power": ("-s", FABRIC_SCALE, "power"),
    "fabric_scale-compare": ("-s", FABRIC_SCALE, "compare"),
    "fabric_scale-validate": ("-s", FABRIC_SCALE, "validate"),
    "fabric_scale-summary": ("-s", FABRIC_SCALE, "summary"),
    "allpairs_uniform-summary": ("-s", ALLPAIRS_UNIFORM, "summary"),
    "summary_explicit-summary": ("-s", SUMMARY_EXPLICIT, "summary"),
    "no_spines-validate": ("-s", NO_SPINES, "validate"),
    "no_spines-build": ("-s", NO_SPINES, "build"),
    "summary_explicit-build": ("-s", SUMMARY_EXPLICIT, "build"),
    "summary_explicit-route-direct": ("-s", SUMMARY_EXPLICIT, "route", "rack6/server0", "rack0/server1"),
    "summary_explicit-route-relayed14": ("-s", SUMMARY_EXPLICIT, "route", "rack1/server0", "rack4/server2"),
    "summary_explicit-route-relayed12": ("-s", SUMMARY_EXPLICIT, "route", "rack1/server0", "rack6/server2"),
    "summary_explicit-route-relayed10": ("-s", SUMMARY_EXPLICIT, "route", "rack2/server0", "rack6/server0"),
    "summary_explicit-route-intra-rack": ("-s", SUMMARY_EXPLICIT, "route", "rack11/server2", "rack11/server0"),
    "summary_explicit-route-external": ("-s", SUMMARY_EXPLICIT, "route", "rack1/server0", "external"),
    "sweep-scale": ("sweep", "--racks", "0,7,32,64,128,256", "--groups", "8"),
    "sweep-spines": ("sweep", "--racks", "4,8", "--spines", "0,4"),
    **{
        f"sim64-{name}-simulate": ("-s", path, "simulate", "--top", "10")
        for name, path in zip(SIM64, SIM64_SCENARIOS)
    },
    **{
        f"{name}-simulate": ("-s", path, "simulate", "--top", "10")
        for name, path in zip(FLOWS64, FLOWS64_SCENARIOS)
    },
}
FORMATS = ("table", "csv", "json")
IDS = [f"{case}.{fmt}" for case in CASES for fmt in FORMATS]


def _argv(case_id: str) -> list[str]:
    case, fmt = case_id.rsplit(".", 1)
    argv = [str(ROOT / arg) if arg in SCENARIOS else arg for arg in CASES[case]]
    return ["--format", fmt, *argv]


def _run(case_id: str, capture) -> tuple[int, bytes]:
    code = main(_argv(case_id))
    return code, capture().encode("utf-8")


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", IDS)
def test_cli_output_matches_golden(case_id, capsys):
    code, out = _run(case_id, lambda: capsys.readouterr().out)
    assert code == _exit_codes()[case_id]
    assert out == (GOLDEN / f"{case_id}.out").read_bytes()


JSON_GOLDENS = sorted(path for path in GOLDEN.rglob("*.json.out") if path.stat().st_size)


@pytest.mark.parametrize("path", JSON_GOLDENS, ids=lambda path: path.name)
def test_json_golden_has_standard_layout(path):
    """The committed JSON is what the standard library writes with
    ``indent=2``, whichever emitter recorded it."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case_id in IDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            codes[case_id], out = _run(case_id, buffer.getvalue)
        (GOLDEN / f"{case_id}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
