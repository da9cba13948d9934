"""Command-line interface.

One scenario file drives every subcommand; ``--format`` picks the
emission (table, csv, json) and ``--out`` redirects it to a file.

Exit codes separate failure classes so CI can gate on structure apart
from math: 0 success, 1 usage or scenario parse error, 2 structural
validation failure, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmark import (
    build_graphs,
    census_table,
    check_size,
    closed_form_power,
    power_table,
    resolved_catalogs,
    run_benchmark,
    selected_specs,
)
from .errors import (
    BadAdjacency,
    PonFabricError,
    ScenarioError,
    SpecMismatch,
    UnknownRack,
    ValidationFailed,
)
from .power import format_percent, power_reduction, scaling_sweep
from .render import Document, OutputFormat, Table, format_rational, render
from .routing import RouteTable, resolve_route, route_to_external, all_pairs_summary
from .scenario import Scenario, check_digits, default_scenario, parse_scenario
from .topology import Architecture, OwcPonSpec, device_census, validate
from .traffic import TrafficMatrix, assign, bottlenecks, generate_traffic
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EVALUATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    validation findings, so usage problems exit 1.  Like every failure they
    print one line (``--help`` shows the usage)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """``text`` as an int if it is an optional sign and at most
    ``MAX_DIGITS`` ASCII digits.  ``int`` alone also takes other scripts'
    digits and underscores, which scenario files reject."""
    digits = check_digits(text.strip().lstrip("+-"))
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def integer(text: str) -> int:
    """``_count`` as an argparse type, which reports its ``ValueError`` as
    an ``invalid integer value``."""
    try:
        return _count(text)
    except ScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="ponfabric", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ponfabric {__version__}")
    parser.add_argument(
        "-s",
        "--scenario",
        metavar="PATH",
        help="scenario file (defaults to the built-in benchmark scenario)",
    )
    parser.add_argument(
        "-f",
        "--format",
        choices=[fmt.value for fmt in OutputFormat],
        help="output format (overrides the scenario's choice)",
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", help="emit graphs and device census")
    sub.add_parser("validate", help="check structural rules; exit 2 on violations")
    sub.add_parser("power", help="evaluate power for the selected architectures")
    sub.add_parser("compare", help="power of both architectures plus the reduction")
    route = sub.add_parser("route", help="resolve one route on the owcpon fabric")
    route.add_argument("src", help="source server id")
    route.add_argument("dst", help="destination server id (or the external gateway)")
    sub.add_parser("summary", help="hop histogram over all ordered server pairs")
    simulate = sub.add_parser("simulate", help="assign the traffic section onto links")
    simulate.add_argument("--top", type=integer, default=10, help="bottleneck rows to show")
    sweep = sub.add_parser("sweep", help="scale both architectures across rack counts")
    sweep.add_argument("--racks", required=True, help="comma list, e.g. 4,8,16")
    sweep.add_argument("--groups", type=integer, default=2)
    sweep.add_argument("--servers-per-rack", type=integer, default=8)
    sweep.add_argument("--spines", help="comma list matching --racks (default: rack count)")
    sub.add_parser("benchmark", help="full two-architecture benchmark report")
    return parser


def _load_scenario(path: str | None) -> Scenario:
    if path is None:
        return default_scenario()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_scenario(text)


def _owcpon_spec(scenario: Scenario) -> OwcPonSpec:
    if not scenario.selects(Architecture.OWC_PON):
        raise ScenarioError("this command needs the owcpon architecture selected")
    return scenario.owcpon


def _graph_tables(architecture: Architecture, graph) -> list[Table]:
    nodes = Table(
        f"nodes_{architecture.value}",
        ("id", "kind", "rack", "group", "ap", "gateway"),
        tuple(
            (
                node_id,
                kind.value,
                "" if rack is None else rack,
                "" if group is None else group,
                "" if ap is None else ap,
                "yes" if gateway else "",
            )
            for node_id, kind, rack, group, ap, gateway in graph.nodes
        ),
    )
    # The kind and capacity texts of each distinct (kind, capacity) pair,
    # made once.  The key is the pair's ids, not its values: ``Enum`` and
    # ``Fraction`` hash in Python code, a builder gives all links of a kind
    # one ``Fraction``, and the links keep both objects alive.
    texts: dict[tuple[int, int], tuple[str, str]] = {}
    rows = []
    for link_id, _, _, kind, capacity in graph.links:
        key = id(kind), id(capacity)
        text = texts.get(key)
        if text is None:
            text = texts[key] = (kind.value, format_rational(capacity))
        rows.append((link_id, *text))
    links = Table(f"links_{architecture.value}", ("id", "kind", "capacity_gbps"), tuple(rows))
    census = census_table(f"census_{architecture.value}", device_census(graph.spec))
    return [census, nodes, links]


def _cmd_build(scenario: Scenario, args) -> tuple[Document, int]:
    graphs = build_graphs(scenario)
    meta = []
    tables = []
    for architecture, graph in graphs.items():
        meta.append((f"{architecture.value}_nodes", len(graph.nodes)))
        meta.append((f"{architecture.value}_links", len(graph.links)))
        tables.extend(_graph_tables(architecture, graph))
    return Document("fabric build", tuple(meta), tuple(tables)), EXIT_OK


def _cmd_validate(scenario: Scenario, args) -> tuple[Document, int]:
    tables = []
    meta = []
    total = 0
    for architecture, spec in selected_specs(scenario).items():
        violations = validate(spec)
        total += len(violations)
        meta.append((f"{architecture.value}_violations", len(violations)))
        tables.append(
            Table(
                f"violations_{architecture.value}",
                ("code", "subject", "message"),
                tuple((v.code, v.subject, v.message) for v in violations),
            )
        )
    doc = Document("structural validation", tuple(meta), tuple(tables))
    return doc, (EXIT_VALIDATION if total else EXIT_OK)


def _cmd_power(scenario: Scenario, args) -> tuple[Document, int]:
    meta = []
    tables = []
    for architecture, (census, report) in closed_form_power(scenario).items():
        meta.append((f"{architecture.value}_total_mw", report.total_mw))
        tables.append(census_table(f"census_{architecture.value}", census))
        tables.append(power_table(f"power_{architecture.value}", report))
    return Document("power evaluation", tuple(meta), tuple(tables)), EXIT_OK


def _cmd_compare(scenario: Scenario, args) -> tuple[Document, int]:
    if len(scenario.architectures) != 2:
        raise ScenarioError("compare needs both architectures selected")
    (_, traditional), (_, proposed) = closed_form_power(scenario).values()
    reduction = power_reduction(traditional, proposed)
    meta = (
        ("baseline_total_mw", traditional.total_mw),
        ("proposed_total_mw", proposed.total_mw),
        ("reduction_percent", format_percent(reduction)),
        ("reduction_fraction", format_rational(reduction)),
    )
    tables = (
        power_table("power_traditional", traditional),
        power_table("power_owcpon", proposed),
    )
    return Document("architecture comparison", meta, tables), EXIT_OK


def _cmd_route(scenario: Scenario, args) -> tuple[Document, int]:
    spec = _owcpon_spec(scenario)
    if args.dst == "external":
        route = route_to_external(spec, args.src)
    else:
        route = resolve_route(spec, args.src, args.dst, scenario.policy)
    steps = []
    for index, node_id in enumerate(route.nodes):
        via = route.links[index - 1] if index > 0 else ""
        steps.append((index, node_id, via))
    meta = (
        ("src", args.src),
        ("dst", args.dst),
        ("class", route.path_class.value),
        ("hops", route.hop_count),
    )
    table = Table("route", ("step", "node", "via_link"), tuple(steps))
    return Document("route resolution", meta, (table,)), EXIT_OK


def _cmd_summary(scenario: Scenario, args) -> tuple[Document, int]:
    histogram = all_pairs_summary(_owcpon_spec(scenario), scenario.policy)
    rows = tuple((cls.value, hops, pairs) for (cls, hops), pairs in histogram.items())
    total = sum(histogram.values())
    table = Table("pair_histogram", ("class", "hop_count", "pairs"), rows)
    return Document("all-pairs summary", (("ordered_pairs", total),), (table,)), EXIT_OK


def _cmd_simulate(scenario: Scenario, args) -> tuple[Document, int]:
    if scenario.traffic is None:
        raise ScenarioError("simulate needs a [traffic] section in the scenario")
    spec = _owcpon_spec(scenario)
    check_size(Architecture.OWC_PON, spec)
    if scenario.traffic.pattern is not None:
        try:
            matrix = generate_traffic(scenario.traffic.pattern, spec)
        except UnknownRack as exc:
            raise ScenarioError(f"traffic pattern: {exc}") from exc
    else:
        matrix = TrafficMatrix(
            {(src, dst): rate for src, dst, rate in scenario.traffic.flows}
        )
    report = assign(RouteTable(spec, scenario.policy), matrix, scenario.capacities)
    meta = (
        ("demand_entries", matrix.demand_entries()),
        ("total_demand_gbps", format_rational(matrix.total_demand())),
        ("max_utilization", format_rational(report.max_utilization)),
        ("saturated_links", len(report.saturated)),
    )
    loads = Table(
        "link_loads",
        ("link", "kind", "capacity_gbps", "load_gbps", "utilization"),
        tuple(
            (
                row.link_id,
                row.kind.value,
                format_rational(row.capacity),
                format_rational(row.load),
                format_rational(row.utilization),
            )
            for row in report.rows
        ),
    )
    top = Table(
        "bottlenecks",
        ("link", "utilization"),
        tuple(
            (row.link_id, format_rational(row.utilization))
            for row in bottlenecks(report, args.top)
        ),
    )
    return Document("traffic assignment", meta, (loads, top)), EXIT_OK


def _parse_count_list(text: str, what: str) -> list[int]:
    try:
        return [_count(part) for part in text.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"--{what} expects a comma list of integers") from exc


def _cmd_sweep(scenario: Scenario, args) -> tuple[Document, int]:
    racks = _parse_count_list(args.racks, "racks")
    spines = _parse_count_list(args.spines, "spines") if args.spines is not None else None
    if spines is not None and len(spines) != len(racks):
        raise ScenarioError(
            f"--spines lists {len(spines)} counts for {len(racks)} --racks entries"
        )
    traditional_catalog, owc_catalog = resolved_catalogs(scenario)
    results = scaling_sweep(
        racks,
        servers_per_rack=args.servers_per_rack,
        num_groups=args.groups,
        spine_counts=spines,
        traditional_catalog=traditional_catalog,
        owc_pon_catalog=owc_catalog,
        options=scenario.options,
    )
    rows = []
    for result in results:
        point = result.point
        rows.append(
            (
                point.racks,
                point.num_groups,
                point.servers_per_rack,
                point.num_spine,
                result.traditional.total_mw if result.traditional else "",
                result.proposed.total_mw if result.proposed else "",
                format_percent(result.reduction) if result.error is None else "",
                result.error or "",
            )
        )
    table = Table(
        "sweep",
        (
            "racks",
            "groups",
            "servers_per_rack",
            "spines",
            "traditional_mw",
            "owcpon_mw",
            "reduction",
            "error",
        ),
        tuple(rows),
    )
    return Document("scaling sweep", (("points", len(results)),), (table,)), EXIT_OK


def _cmd_benchmark(scenario: Scenario, args) -> tuple[Document, int]:
    return run_benchmark(scenario), EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "validate": _cmd_validate,
    "power": _cmd_power,
    "compare": _cmd_compare,
    "route": _cmd_route,
    "summary": _cmd_summary,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "benchmark": _cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario = _load_scenario(args.scenario)
        document, exit_code = _COMMANDS[args.command](scenario, args)
    except ScenarioError as exc:
        print(f"ponfabric: scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ponfabric: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpecMismatch, BadAdjacency, ValidationFailed) as exc:
        print(f"ponfabric: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PonFabricError as exc:
        print(f"ponfabric: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION

    fmt = OutputFormat(args.format) if args.format else scenario.out_format
    text = render(document, fmt)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"ponfabric: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
