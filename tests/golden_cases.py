"""The golden CLI cases: each argv, and the stdout and exit code recorded
for it under ``tests/golden/``.  It needs neither pytest nor hypothesis,
so ``test_golden`` and the stdlib-only ``contract_check`` share it.

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
zero rates and a self flow, then the same lines without relay fallback,
with a flow to a node that is not a server, and with two flows that take
no route (a zero rate, and a node to itself) but name a node that is not
a server; and ``benchmark`` on the same lines with both architectures
selected, whose scenario table lists them sorted and summed.
"""

import contextlib
import io
import json
from pathlib import Path

from ponfabric.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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
FLOWS64 = ("flows64", "flows64_relay_off", "flows64_non_server", "flows64_unrouted_non_server")
FLOWS64_SCENARIOS = tuple(f"tests/golden/{name}.scenario" for name in FLOWS64)
FLOWS64_BOTH = "tests/golden/flows64_both.scenario"
SCENARIOS = (
    PAPER_TRAFFIC,
    FABRIC_SCALE,
    ALLPAIRS_UNIFORM,
    NO_SPINES,
    SUMMARY_EXPLICIT,
    *SIM64_SCENARIOS,
    *FLOWS64_SCENARIOS,
    FLOWS64_BOTH,
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
    "flows64_both-benchmark": ("-s", FLOWS64_BOTH, "benchmark"),
}
FORMATS = ("table", "csv", "json")
IDS = [f"{case}.{fmt}" for case in CASES for fmt in FORMATS]


def argv(case_id: str) -> list[str]:
    """The argv of ``case_id``, a case name and a format, as in ``build.json``."""
    case, fmt = case_id.rsplit(".", 1)
    return ["--format", fmt, *(str(ROOT / arg) if arg in SCENARIOS else arg for arg in CASES[case])]


def run(case_id: str) -> tuple[int, bytes]:
    """The exit code and stdout of ``main`` on the argv of ``case_id``, run
    in this process; what it writes to stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv(case_id))
    return code, out.getvalue().encode("utf-8")


def recorded(case_id: str) -> tuple[int, bytes]:
    """The exit code and stdout recorded for ``case_id``."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return codes[case_id], (GOLDEN / f"{case_id}.out").read_bytes()
