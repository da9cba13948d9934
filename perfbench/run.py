"""Benchmark for the ponfabric command line, run from the repository root.

    python3 perfbench/run.py --workload allpairs_uniform --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record     # store the expected output digests

A workload is a sequence of real CLI invocations, each a fresh
``python -m ponfabric.cli`` process with ``PYTHONPATH=src``; one process
runs at a time. A pass runs the workload's own invocations and then the
paper-scale set: each timed subcommand the workload does not run itself,
on the paper's 8-rack scenario, three times. Each ``<subcommand>_s``
metric is thus the workload's own invocation of that subcommand, or the
paper-scale one where the workload has none, so every metric exists on
every workload. Passes repeat until ``--seconds`` is spent; each timing is
the median of its samples over the passes.

Times are reported in reference seconds. The host's speed drifts by up to
2x over minutes, so between every two invocations the runner also times
``perfbench/reference.py``, a fixed pure-Python task, and scales each
invocation's wall time by REF_SECONDS / (mean time of the reference runs
on either side of it). A slower program reads slower; a slower host does
not. The raw medians are in the details line.

With ``--trace 1`` untraced and traced passes alternate. A traced
invocation runs ``perfbench/traced.py``, which wraps the calls into each
layer; the per-layer metrics are medians over the traced passes, taken
from the workload's own invocations where they reach that layer and from
the paper-scale set otherwise.

Every invocation is checked: its exit code and stdout digest against
``expected.json`` for committed inputs, the link-load sum of
``seeded_flows`` against its generated spec at any seed, the paper's
9344 W / 5054 W / 45.9% from the built-in ``benchmark -f json``, and
traced stdout against untraced stdout. The last stdout line is the
result; the line before it holds the environment, input sizes, sample
counts and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import flows

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
EXPECTED = HERE / "expected.json"
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = b"1261 19980000/7\n"
REF_SECONDS = 0.075  # the reference's median on a quiet 2-vCPU VM, Python 3.11
DEFAULT_SEED = 1
SETUP_PER_PASS = 4
PAPER_REPEAT = 3  # paper-scale invocations are short and noisy: sample each thrice a pass
COMMANDS = ("summary", "simulate", "benchmark", "sweep", "build")


def _scenario(name: str) -> str:
    return str(SCENARIOS / f"{name}.scenario")


@dataclass(frozen=True)
class Invocation:
    label: str  # "<workload or paper>/<subcommand>"
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.label.split("/", 1)[1]

    @property
    def paper(self) -> bool:
        return self.label.startswith("paper/")


def own_invocations(workload: str, generated: str) -> list[Invocation]:
    if workload == "allpairs_uniform":
        s = _scenario("allpairs_uniform")
        return [
            Invocation("allpairs_uniform/summary", ("-s", s, "summary")),
            Invocation("allpairs_uniform/simulate", ("-s", s, "simulate", "--top", "10")),
        ]
    if workload == "fabric_scale":
        s = _scenario("fabric_scale")
        return [
            Invocation("fabric_scale/benchmark", ("-s", s, "benchmark")),
            Invocation(
                "fabric_scale/sweep",
                ("-s", s, "sweep", "--racks", "32,64,128,256", "--groups", "8"),
            ),
            Invocation("fabric_scale/build", ("-s", s, "-f", "json", "build")),
        ]
    return [Invocation("seeded_flows/simulate", ("-s", generated, "-f", "json", "simulate"))]


def paper_invocations(skip: set[str] = frozenset()) -> list[Invocation]:
    """The paper-scale invocations of every subcommand not in ``skip``."""
    s = _scenario("paper_traffic")
    every = [
        Invocation("paper/summary", ("-s", s, "summary")),
        Invocation("paper/simulate", ("-s", s, "simulate", "--top", "10")),
        Invocation("paper/benchmark", ("-f", "json", "benchmark")),
        Invocation("paper/sweep", ("sweep", "--racks", "4,8,16", "--groups", "2")),
        Invocation("paper/build", ("build",)),
    ]
    return [inv for inv in every if inv.command not in skip]


VERSION = Invocation("setup/version", ("--version",))
WORKLOADS = ("allpairs_uniform", "fabric_scale", "seeded_flows")
END_TO_END = ("setup_s", "wall_s", *(f"{c}_s" for c in COMMANDS), "peak_rss_mb")


# --- running one invocation ------------------------------------------------


@dataclass
class Outcome:
    invocation: Invocation
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str
    spans: list | None
    scale: float = 1.0  # REF_SECONDS / reference time beside this invocation

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def invoke(inv: Invocation, work: Path, traced: bool) -> Outcome:
    """Run one CLI process; peak RSS comes from that child's own rusage."""
    spans_path = work / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), *inv.argv]
    else:
        cmd = [sys.executable, "-m", "ponfabric.cli", *inv.argv]
    env = dict(os.environ, PYTHONPATH="src")
    with open(work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            stdout = proc.stdout.read()
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip()
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
    return Outcome(inv, wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr, spans)


def reference_time() -> float:
    """Wall time of one run of the reference task, checked for its output."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(REFERENCE)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    wall = time.perf_counter() - start
    if proc.returncode or proc.stdout != REFERENCE_OUTPUT:
        raise RuntimeError(f"reference task failed: {proc.stdout!r} {proc.stderr[-300:]!r}")
    return wall


# --- output checks -----------------------------------------------------------


class Checker:
    """Decides whether an invocation's output is right; returns a reason if not."""

    def __init__(self, seed: int, spec: flows.FlowSpec | None):
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        self.digests = dict(expected["committed"])
        if seed == expected["seed"]:
            self.digests.update(expected["seeded"])
        self.spec = spec
        self.untraced: dict[str, str] = {}

    def check(self, out: Outcome, traced: bool) -> str | None:
        label = out.invocation.label
        want = self.digests.get(label, {"exit": 0})
        if out.exit_code != want["exit"]:
            return f"exit {out.exit_code}, expected {want['exit']}: {out.stderr[-300:]}"
        if label == VERSION.label:
            return None if out.stdout.startswith(b"ponfabric ") else "unexpected --version output"
        if "sha256" in want and out.digest != want["sha256"]:
            return "stdout digest differs from the recorded one"
        if traced:
            if self.untraced.get(label, out.digest) != out.digest:
                return "traced stdout differs from untraced stdout"
        else:
            self.untraced.setdefault(label, out.digest)
        try:
            if label == "paper/benchmark":
                return _check_paper_numbers(out.stdout)
            if label == "seeded_flows/simulate":
                return _check_load_sum(out.stdout, self.spec)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None


def _check_paper_numbers(stdout: bytes) -> str | None:
    meta = json.loads(stdout)["meta"]
    got = (meta["traditional_total_mw"], meta["proposed_total_mw"], meta["reduction_percent"])
    if got != (9_344_000, 5_054_000, "45.9%"):
        return f"paper benchmark gave {got}"
    return None


def _check_load_sum(stdout: bytes, spec: flows.FlowSpec) -> str | None:
    doc = json.loads(stdout)
    load = sum((Fraction(row["load_gbps"]) for row in doc["tables"]["link_loads"]), Fraction(0))
    want = flows.expected_load_sum(spec)
    if doc["meta"]["demand_entries"] != len(spec.flows):
        return f"{doc['meta']['demand_entries']} demand entries, expected {len(spec.flows)}"
    if load != want:
        return f"link loads sum to {load}, expected rate x hops = {want}"
    return None


# --- per-layer metrics from spans ----------------------------------------------

# Function name -> kind. A kind's time counts only its outermost spans, so
# closed_form_power around traditional_power is not counted twice.
KIND = {
    "main": "cli",
    "parse_scenario": "parse",
    "serialize_scenario": "serialize",
    "build_traditional": "build",
    "build_owc_pon": "build",
    "validate": "validate",
    "device_census": "census",
    "closed_form_power": "closed_form",
    "traditional_power": "closed_form",
    "owc_pon_power": "closed_form",
    "scaling_sweep": "sweep",
    "resolve_route": "resolve",
    "all_pairs_summary": "all_pairs",
    "generate_traffic": "generate",
    "assign": "assign",
    "render": "render",
    "run_benchmark": "run",
    "TrafficMatrix": "generate",
}

def _ratio(numerator: str, denominator: str, scale: float = 1.0):
    return lambda t: t[numerator] / t[denominator] * scale if t[denominator] else 0.0


# Metric -> (kind whose calls select own or paper-scale invocations, unit,
# total key or function of the totals).
PER_LAYER = {
    "scenario.parse_s": ("parse", "s", "time.parse"),
    "scenario.flow_lines": ("parse", "count", "flow_lines"),
    "scenario.serialize_s": ("serialize", "s", "time.serialize"),
    "topology.build_s": ("build", "s", "time.build"),
    "topology.nodes": ("build", "count", "nodes"),
    "topology.links": ("build", "count", "links"),
    "topology.validate_s": ("validate", "s", "time.validate"),
    "topology.census_s": ("census", "s", "time.census"),
    "power.closed_form_s": ("closed_form", "s", "time.closed_form"),
    "power.sweep_self_s": ("sweep", "s", "self.sweep"),
    "power.sweep_points": ("sweep", "count", "sweep_points"),
    "routing.resolve_s": ("resolve", "s", "time.resolve"),
    "routing.resolve_calls": ("resolve", "count", "calls.resolve"),
    "routing.resolve_us": ("resolve", "us", _ratio("time.resolve", "calls.resolve", 1e6)),
    "routing.all_pairs_self_s": ("all_pairs", "s", "self.all_pairs"),
    "routing.hops": ("resolve", "count", "hops"),
    "routing.relayed_share": ("resolve", "ratio", _ratio("relayed", "calls.resolve")),
    "routing.demands_per_rack_pair": (
        "assign",
        "ratio",
        _ratio("inter_rack_demands", "rack_pairs"),
    ),
    "traffic.generate_s": ("generate", "s", "time.generate"),
    "traffic.demands": ("assign", "count", "demands"),
    "traffic.assign_self_s": ("assign", "s", "self.assign"),
    "traffic.link_updates": ("assign", "count", "link_updates"),
    "traffic.saturated_links": ("assign", "count", "saturated"),
    "render.render_s": ("render", "s", "time.render"),
    "render.bytes": ("render", "bytes", "render_bytes"),
    "benchmark.run_self_s": ("run", "s", "self.run"),
    "cli.self_s": ("cli", "s", "self.cli"),
}


def layer_totals(outcomes: list[Outcome]) -> Counter:
    """Sum span times (in reference seconds) and counts over several invocations."""
    t: Counter = Counter()
    for o in outcomes:
        spans = [(name, start * o.scale, end * o.scale, parent, counts)
                 for name, start, end, parent, counts in o.spans]
        kinds = [KIND[s[0].rsplit(".", 1)[1]] for s in spans]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (_, start, end, parent, counts) in enumerate(spans):
            kind, duration = kinds[i], end - start
            t[f"calls.{kind}"] += 1
            t[f"self.{kind}"] += duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and kinds[ancestor] != kind:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                t[f"time.{kind}"] += duration
            if counts is None:
                continue
            if kind == "parse":
                t["flow_lines"] += counts[0]
            elif kind == "build":
                t["nodes"] += counts[0]
                t["links"] += counts[1]
            elif kind == "sweep":
                t["sweep_points"] += counts[0]
            elif kind == "resolve":
                t["hops"] += counts[0]
                t["relayed"] += counts[1]
                if parent >= 0 and kinds[parent] == "assign":
                    t["link_updates"] += counts[0]
                    t["inter_rack_demands"] += counts[2]
            elif kind == "assign":
                t["demands"] += counts[0]
                t["saturated"] += counts[1]
                t["rack_pairs"] += counts[2] * (counts[2] - 1)
            elif kind == "render":
                t["render_bytes"] += counts[0]
    return t


def pass_layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    own = layer_totals([o for o in outcomes if o.spans and not o.invocation.paper])
    paper = layer_totals([o for o in outcomes if o.spans and o.invocation.paper])
    metrics = {}
    for name, (kind, _, value) in PER_LAYER.items():
        t = own if own[f"calls.{kind}"] else paper
        metrics[name] = value(t) if callable(value) else t[value]
    return metrics


# --- passes and the run ------------------------------------------------------


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.ref_s for o in outcomes)


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def input_sizes(scenario_text: str) -> dict:
    """Sizes that turn a time into a rate, read from the scenario text."""
    keys: dict[str, str] = {}
    flow_racks = []
    for line in scenario_text.splitlines():
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or key.startswith("#"):
            continue
        if key == "flow":
            src, dst, _ = value.split()
            flow_racks.append((src.split("/")[0], dst.split("/")[0]))
        else:
            keys[key] = value.split("#")[0].strip()
    sizes = {}
    if keys.get("select", "both") in ("owcpon", "both"):
        racks, per_rack = int(keys["owcpon.racks"]), int(keys["owcpon.servers_per_rack"])
        groups, aps = int(keys["owcpon.groups"]), int(keys["owcpon.aps_per_group"])
        direct = {
            "index_matched": groups * (groups - 1) // 2 * aps,
            "explicit": len(keys.get("owcpon.pairs", "").split(",")),
        }.get(keys.get("owcpon.adjacency"), 0)
        servers = racks * per_rack
        # Per rack: server-leaf links, then transceiver-leaf, AP transceiver-NIC,
        # beam and NIC-switch; per group a gateway-OLT link; OLT-external.
        sizes["owcpon_links"] = servers + 4 * racks + groups + direct + 1
        sizes["servers"] = servers
        if keys.get("pattern", "").startswith("uniform"):
            sizes["demand_entries"] = servers * (servers - 1)
            sizes["flows_per_rack_pair"] = per_rack * per_rack
        elif flow_racks:
            inter = sum(a != b for a, b in flow_racks)
            sizes["demand_entries"] = len(flow_racks)
            sizes["flows_per_rack_pair"] = inter / (racks * (racks - 1))
    if keys.get("select") == "both":
        racks, per_rack = int(keys["traditional.racks"]), int(keys["traditional.servers_per_rack"])
        sizes["traditional_links"] = racks * per_rack + racks * int(keys["traditional.spines"])
    return sizes


def commit() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = Path(".git") / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src/ponfabric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_seeded(work: Path, seed: int) -> tuple[str, flows.FlowSpec]:
    text, spec = flows.generate(seed)
    path = work / "seeded_flows.scenario"
    path.write_text(text, encoding="utf-8")
    return str(path), spec


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_before = os.getloadavg()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir="."))
    try:
        generated, spec = "", None
        if workload == "seeded_flows":
            generated, spec = write_seeded(work, seed)
        checker = Checker(seed, spec)
        own = own_invocations(workload, generated)
        sizes = input_sizes(Path(own[0].argv[1]).read_text(encoding="utf-8"))
        sequence = own + paper_invocations({inv.command for inv in own}) * PAPER_REPEAT
        attempted = 0
        failures: list[dict] = []
        refs = [reference_time()]
        raw: dict[str, list[float]] = {}

        def execute(inv: Invocation, traced: bool) -> Outcome:
            nonlocal attempted
            out = invoke(inv, work, traced)
            refs.append(reference_time())
            out.scale = REF_SECONDS / ((refs[-2] + refs[-1]) / 2)
            if not traced:
                raw.setdefault(inv.command, []).append(out.wall_s)
            attempted += 1
            reason = checker.check(out, traced)
            if reason:
                failures.append({"label": inv.label, "traced": traced, "reason": reason})
            return out

        execute(VERSION, False)  # compiles bytecode and warms the file cache
        setup: list[float] = []

        kinds = [False, True] if trace else [False]
        passes: dict[bool, list[list[Outcome]]] = {False: [], True: []}
        durations: dict[bool, list[float]] = {False: [], True: []}
        start = time.perf_counter()
        for traced in itertools.cycle(kinds):
            if passes[traced] and time.perf_counter() - start + statistics.median(
                durations[traced]
            ) > seconds:
                break
            began = time.perf_counter()
            if not traced:  # spread set-up samples over the run, not one burst
                setup += [execute(VERSION, False).ref_s for _ in range(SETUP_PER_PASS)]
            passes[traced].append([execute(inv, traced) for inv in sequence])
            durations[traced].append(time.perf_counter() - began)
        load_after = os.getloadavg()

        samples: dict[str, list[float]] = {"setup_s": setup, "wall_s": [], "peak_rss_mb": []}
        for outcomes in passes[False]:
            samples["wall_s"].append(pass_wall(outcomes))
            samples["peak_rss_mb"].append(max(o.rss_mb for o in outcomes))
            for o in outcomes:
                samples.setdefault(f"{o.invocation.command}_s", []).append(o.ref_s)
        e2e = {name: quartiles(samples[name]) for name in END_TO_END}
        details = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": {
                "python": sys.version.split()[0],
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "loadavg_before": load_before,
                "loadavg_after": load_after,
                "commit": commit(),
                "source_sha256": source_digest(),
            },
            "inputs": sizes,
            "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
            "end_to_end": e2e,
            "reference": {"ref_seconds": REF_SECONDS, **quartiles(refs)},
            "raw_median_s": {f"{c}_s": statistics.median(v) for c, v in raw.items()},
            "failed_frac": len(failures) / attempted,
            "failures": failures[:20],
        }
        if trace:
            layers = [pass_layer_metrics(p) for p in passes[True]]
            traced_wall = statistics.median(pass_wall(p) for p in passes[True])
            metrics = {
                name: {"value": statistics.median(p[name] for p in layers), "unit": unit}
                for name, (_, unit, _) in PER_LAYER.items()
            }
            metrics["trace.overhead_s"] = {
                "value": traced_wall - e2e["wall_s"]["median"],
                "unit": "s",
            }
        else:
            metrics = {
                name: {"value": e2e[name]["median"], "unit": "MB" if name.endswith("_mb") else "s"}
                for name in END_TO_END
            }
        print(json.dumps({"details": details}))
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record() -> int:
    """Store exit codes and stdout digests of the committed-input invocations."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir="."))
    try:
        generated, _ = write_seeded(work, DEFAULT_SEED)
        committed, seeded = {}, {}
        invocations = paper_invocations()
        for workload in WORKLOADS:
            invocations += own_invocations(workload, generated)
        for inv in invocations:
            out = invoke(inv, work, traced=False)
            if out.exit_code:
                print(f"{inv.label}: exit {out.exit_code}: {out.stderr}", file=sys.stderr)
            target = seeded if inv.label.startswith("seeded_flows/") else committed
            target[inv.label] = {"exit": out.exit_code, "sha256": out.digest}
        document = {"seed": DEFAULT_SEED, "committed": committed, "seeded": seeded}
        EXPECTED.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(committed) + len(seeded)} digests to {EXPECTED}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=record.__doc__)
    args = parser.parse_args()
    if not Path("src/ponfabric/cli.py").is_file():
        print("perfbench: run from the repository root; src/ponfabric is missing", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
