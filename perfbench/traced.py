"""Run one ponfabric CLI invocation with a span around each call into a layer.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json [cli arguments...]

The package modules import each other's functions by name, so a wrapper
on ``routing.resolve_route`` alone would miss the calls that
``traffic.assign`` makes through its own ``resolve_route`` binding. Each
function is therefore wrapped at every module that looks it up. Spans
(name, start, end, parent, counts) stay in memory and are written to
SPANS.json when the invocation ends; nothing is written to stdout, so the
CLI output is byte-identical to an untraced run.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from time import perf_counter

import ponfabric.benchmark
import ponfabric.cli
import ponfabric.power
import ponfabric.routing
import ponfabric.traffic
from ponfabric.routing import PathClass


def _rack(server_id: str) -> str:
    return server_id.split("/", 1)[0]


# Counts taken from a call's arguments and result, by function name.
COUNTS = {
    "parse_scenario": lambda args, r: [len(r.traffic.flows) if r.traffic else 0],
    "build_traditional": lambda args, r: [len(r.nodes), len(r.links)],
    "build_owc_pon": lambda args, r: [len(r.nodes), len(r.links)],
    "scaling_sweep": lambda args, r: [len(r)],
    "resolve_route": lambda args, r: [
        r.hop_count,
        int(r.path_class is PathClass.INTER_GROUP_RELAYED),
        int(_rack(args[1]) != _rack(args[2])),
    ],
    "assign": lambda args, r: [
        len(args[1].demands),
        len(r.saturated),
        args[0].spec.num_racks,
    ],
    "render": lambda args, r: [len(r.encode("utf-8"))],
}

# Functions that feed a per-layer metric, at each module that calls them.
# ``cli.TrafficMatrix`` builds the demand matrix from explicit flow lines,
# the counterpart of ``generate_traffic`` for patterns.
SITES = {
    ponfabric.cli: (
        "main",
        "parse_scenario",
        "validate",
        "device_census",
        "closed_form_power",
        "scaling_sweep",
        "resolve_route",
        "all_pairs_summary",
        "generate_traffic",
        "TrafficMatrix",
        "assign",
        "render",
        "run_benchmark",
    ),
    ponfabric.benchmark: (
        "build_traditional",
        "build_owc_pon",
        "validate",
        "device_census",
        "traditional_power",
        "owc_pon_power",
        "serialize_scenario",
    ),
    ponfabric.power: (
        "build_traditional",
        "build_owc_pon",
        "device_census",
        "traditional_power",
        "owc_pon_power",
    ),
    ponfabric.routing: ("resolve_route",),
    ponfabric.traffic: ("resolve_route",),
}

spans: list = []
_open = [-1]


def _wrap(module_name: str, name: str, fn):
    label = f"{module_name}.{name}"
    count = COUNTS.get(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = _open[-1]
        _open.append(index)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            _open.pop()
            counts = count(args, result) if count and result is not None else None
            spans[index] = (label, start, end, parent, counts)

    return traced


def install() -> None:
    for module, names in SITES.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            setattr(module, name, _wrap(short, name, getattr(module, name)))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return ponfabric.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(spans, out, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
