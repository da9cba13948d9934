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

from . import _read_through
from .version import __version__

# The names the commands call, by the module that defines them.  Only the
# parser is built at import, so ``--version``, ``--help`` and usage errors
# load no other module.  Once the arguments parse, ``main`` binds the names
# of the ``_BASE`` modules, and each command those of the modules it lists;
# until then each is read from its module on access.
_IMPORTS = {
    ".benchmark": "closed_form_power power_table resolved_catalog run_benchmark",
    ".errors": "BadAdjacency PonFabricError ScenarioError SpecMismatch UnknownRack ValidationFailed",
    ".graph": "wire",
    ".power": "format_percent power_reduction scaling_sweep",
    ".render": "Document OutputFormat Table format_rational render",
    ".route_table": "RouteTable resolve_route route_to_external",
    ".routing": "all_pairs_summary",
    ".scenario": "Scenario check_digits default_scenario parse_scenario selected_specs",
    ".topology": "EXTERNAL Architecture LinkKind OwcPonSpec census_table check_size device_census "
    "link_id validate",
    ".traffic": "TrafficMatrix assign bottlenecks generate_traffic",
    "pathlib": "Path",
}
_BASE = (".errors", ".render", ".scenario", ".topology", "pathlib")  # what every command reads
__getattr__ = _read_through(globals(), _IMPORTS)

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


def _bind(*modules: str) -> None:
    """Bind the names ``_IMPORTS`` lists for ``modules`` that are not bound
    yet, each read through ``__getattr__``: a name that is already bound,
    such as one that ``perfbench/traced.py`` replaced before ``main`` ran,
    is kept."""
    namespace = globals()
    for module in modules:
        for name in _IMPORTS[module].split():
            namespace.setdefault(name, __getattr__(name))


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
    an ``invalid integer value``.  It runs while the arguments parse, so it
    binds ``_count``'s names itself."""
    _bind(".errors", ".scenario")
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
        choices=("json", "csv", "table"),  # OutputFormat's values, in its order
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


_COMMANDS = {}


def _command(name: str, *modules: str):
    """Register the decorated function as the subcommand ``name``, which
    calls names of the ``_BASE`` modules and of ``modules``.  What is
    registered binds them before it runs, so it can also be called without
    ``main``."""

    def register(run):
        def command(scenario: Scenario, args) -> tuple[Document, int]:
            _bind(*_BASE, *modules)
            return run(scenario, args)

        _COMMANDS[name] = command
        return command

    return register


def _owcpon_spec(scenario: Scenario) -> OwcPonSpec:
    if not scenario.selects(Architecture.OWC_PON):
        raise ScenarioError("this command needs the owcpon architecture selected")
    return scenario.owcpon


def _node_row(node_id, kind, rack="", group="", ap="", is_gateway=False) -> tuple:
    """The ``nodes_<arch>`` row of a node, from ``Node``'s fields."""
    return node_id, kind.value, rack, group, ap, "yes" if is_gateway else ""


def _row_linker(kind, capacity):
    """A maker of the ``links_<arch>`` rows of ``kind`` links at ``capacity``."""
    kind_text, capacity_text = kind.value, format_rational(capacity)  # made once
    return lambda a, b: (link_id(a, b), kind_text, capacity_text)


@_command("build", ".graph")
def _cmd_build(scenario: Scenario, args) -> tuple[Document, int]:
    """Each selected fabric's rows, made from its spec by ``wire``: no
    ``Node``, ``Link`` or graph is made."""
    specs = selected_specs(scenario)
    check_size(specs)
    meta = []
    tables = []
    for architecture, spec in specs.items():
        name = architecture.value
        nodes, links = wire(spec, scenario.capacities, _row_linker, _node_row)
        meta += [(f"{name}_nodes", len(nodes)), (f"{name}_links", len(links))]
        tables += [
            census_table(f"census_{name}", device_census(spec)),
            Table(f"nodes_{name}", ("id", "kind", "rack", "group", "ap", "gateway"), tuple(nodes)),
            Table(f"links_{name}", ("id", "kind", "capacity_gbps"), tuple(links)),
        ]
    return Document("fabric build", tuple(meta), tuple(tables)), EXIT_OK


@_command("validate")
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


@_command("power", ".benchmark")
def _cmd_power(scenario: Scenario, args) -> tuple[Document, int]:
    meta = []
    tables = []
    for architecture, (census, report) in closed_form_power(scenario).items():
        meta.append((f"{architecture.value}_total_mw", report.total_mw))
        tables.append(census_table(f"census_{architecture.value}", census))
        tables.append(power_table(f"power_{architecture.value}", report))
    return Document("power evaluation", tuple(meta), tuple(tables)), EXIT_OK


@_command("compare", ".benchmark", ".power")
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


@_command("route", ".route_table")
def _cmd_route(scenario: Scenario, args) -> tuple[Document, int]:
    spec = _owcpon_spec(scenario)
    if args.dst == EXTERNAL:
        route = route_to_external(spec, args.src)
    else:
        route = resolve_route(spec, args.src, args.dst, scenario.policy)
    # each node, with the link that reaches it
    steps = tuple((index, *step) for index, step in enumerate(zip(route.nodes, ("", *route.links))))
    meta = (
        ("src", args.src),
        ("dst", args.dst),
        ("class", route.path_class.value),
        ("hops", route.hop_count),
    )
    table = Table("route", ("step", "node", "via_link"), steps)
    return Document("route resolution", meta, (table,)), EXIT_OK


@_command("summary", ".routing")
def _cmd_summary(scenario: Scenario, args) -> tuple[Document, int]:
    histogram = all_pairs_summary(_owcpon_spec(scenario), scenario.policy)
    rows = tuple((cls.value, hops, pairs) for (cls, hops), pairs in histogram.items())
    total = sum(histogram.values())
    table = Table("pair_histogram", ("class", "hop_count", "pairs"), rows)
    return Document("all-pairs summary", (("ordered_pairs", total),), (table,)), EXIT_OK


@_command("simulate", ".route_table", ".traffic")
def _cmd_simulate(scenario: Scenario, args) -> tuple[Document, int]:
    if scenario.traffic is None:
        raise ScenarioError("simulate needs a [traffic] section in the scenario")
    spec = _owcpon_spec(scenario)
    check_size({Architecture.OWC_PON: spec})
    if scenario.traffic.pattern is not None:
        try:
            matrix = generate_traffic(scenario.traffic.pattern, spec)
        except UnknownRack as exc:
            raise ScenarioError(f"traffic pattern: {exc}") from exc
    else:
        flows = scenario.traffic.flows
        matrix = TrafficMatrix({(src, dst): mbps for src, dst, mbps in flows}, scale=1000)
    report = assign(RouteTable(spec, scenario.policy), matrix, scenario.capacities)
    # ``fabric_links`` gives every link of a kind that kind's capacity
    capacity = scenario.capacities.for_kind
    texts = {kind: (kind.value, format_rational(capacity(kind))) for kind in LinkKind}
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
            (link, *texts[kind], format_rational(load), format_rational(utilization))
            for link, kind, _, load, utilization in report.rows
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


@_command("sweep", ".benchmark", ".power")
def _cmd_sweep(scenario: Scenario, args) -> tuple[Document, int]:
    racks = _parse_count_list(args.racks, "racks")
    spines = _parse_count_list(args.spines, "spines") if args.spines is not None else None
    if spines is not None and len(spines) != len(racks):
        raise ScenarioError(
            f"--spines lists {len(spines)} counts for {len(racks)} --racks entries"
        )
    results = scaling_sweep(
        racks,
        servers_per_rack=args.servers_per_rack,
        num_groups=args.groups,
        spine_counts=spines,
        catalog=resolved_catalog(scenario),
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


@_command("benchmark", ".benchmark")
def _cmd_benchmark(scenario: Scenario, args) -> tuple[Document, int]:
    return run_benchmark(scenario), EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    _bind(*_BASE)
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
