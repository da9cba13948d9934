"""Command-line interface.

One scenario file drives every subcommand; ``--format`` picks the
emission (table, csv, json) and ``--out`` redirects it to a file.

Exit codes separate failure classes so CI can gate on structure apart
from math: 0 success, 1 usage or scenario parse error, 2 structural
validation failure, 3 evaluation error.
"""

from __future__ import annotations

import os
import sys

from . import _read_through
from .version import __version__

# The names the commands call, by the module that defines them.  Nothing
# else loads at import, so ``--version``, ``--help`` and usage errors load
# no other module.  Once the arguments parse, ``main`` binds the names of
# the ``_BASE`` modules, and each command those of the modules it lists;
# until then each is read from its module on access.
_IMPORTS = {
    ".benchmark": "closed_form_power power_table resolved_catalog run_benchmark",
    ".errors": "BadAdjacency PonFabricError ScenarioError SpecMismatch UnknownRack ValidationFailed",
    ".graph": "wire",
    ".power": "format_percent power_reduction scaling_sweep",
    ".document": "Document OutputFormat Table format_rational render",
    ".route_table": "RouteTable resolve_route",
    ".routing": "all_pairs_summary",
    ".scenario": "Scenario check_digits default_scenario parse_scenario selected_specs",
    ".topology": "Architecture OwcPonSpec census_table check_size device_census link_id validate",
    ".traffic": "TrafficMatrix assign generate_traffic load_tables",
    "pathlib": "Path",
}
_BASE = (".errors", ".document", ".scenario", ".topology", "pathlib")  # what every command reads
__getattr__ = _read_through(globals(), _IMPORTS)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EVALUATION = 3


def _bind(*modules: str) -> None:
    """Bind the names ``_IMPORTS`` lists for ``modules``, each read through
    ``__getattr__``, unless a name holds a value ``_bind`` did not bind:
    one that ``perfbench/traced.py`` replaced before ``main`` ran is kept,
    and one patched in its home module since the last call is read anew."""
    namespace = globals()
    for module in modules:
        for name in _IMPORTS[module].split():
            if namespace.get(name) is _BOUND.get(name):
                namespace[name] = _BOUND[name] = __getattr__(name)


_BOUND = {}  # each name ``_bind`` bound, with the value it bound last


def _count(text: str) -> int:
    """``text`` as an int if it is an optional sign and at most
    ``MAX_DIGITS`` ASCII digits.  ``int`` alone also takes other scripts'
    digits and underscores, which scenario files reject.  It also runs
    while the arguments parse, so it binds the names it reads itself."""
    _bind(".errors", ".scenario")
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
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from exc


def _argument(*flags: str, **keywords) -> tuple:
    """The flags and keywords of one ``add_argument`` call."""
    return flags, keywords


_FORMATS = ("json", "csv", "table")  # OutputFormat's values, in its order
# ``main`` answers the argv of this flag alone itself, on one line.
_VERSION = _argument("--version", action="version", version=f"ponfabric {__version__}")
# Each command's help and arguments, in the order ``--help`` lists the
# commands, and the global options under ``None``: the flags and keywords
# of each ``add_argument`` call, where a flag with no dash names a
# positional.  ``_build_parser`` and ``_parse`` both read them.
_ARGUMENTS = {
    None: (
        __doc__,
        _VERSION,
        _argument("-s", "--scenario", metavar="PATH", help="scenario file (defaults to the built-in benchmark scenario)"),
        _argument("-f", "--format", choices=_FORMATS, help="output format (overrides the scenario's choice)"),
        _argument("--out", metavar="PATH", help="write output to a file"),
    ),
    "build": ("emit graphs and device census",),
    "validate": ("check structural rules; exit 2 on violations",),
    "power": ("evaluate power for the selected architectures",),
    "compare": ("power of both architectures plus the reduction",),
    "route": (
        "resolve one route on the owcpon fabric",
        _argument("src", help="source server id"),
        _argument("dst", help="destination server id (or the external gateway)"),
    ),
    "summary": ("hop histogram over all ordered server pairs",),
    "simulate": (
        "assign the traffic section onto links",
        _argument("--top", type=integer, default=10, help="bottleneck rows to show"),
    ),
    "sweep": (
        "scale both architectures across rack counts",
        _argument("--racks", required=True, help="comma list, e.g. 4,8,16"),
        _argument("--groups", type=integer, default=2),
        _argument("--servers-per-rack", type=integer, default=8),
        _argument("--spines", help="comma list matching --racks (default: rack count)"),
    ),
    "benchmark": ("full two-architecture benchmark report",),
}
# The rows ``_parse`` reads: all but ``--version``'s, which argparse acts on.
_PARSED = {scope: [spec for spec in rows[1:] if "action" not in spec[1]] for scope, rows in _ARGUMENTS.items()}


def _dest(flags: tuple[str, ...]) -> str:
    """The attribute argparse stores an argument of ``flags`` under."""
    return flags[-1].lstrip("-").replace("-", "_")


def _build_parser():
    """The parser of the argv ``_parse`` declines: help, ``--version`` where
    ``main`` does not answer it, abbreviations, ``--opt=value`` and usage
    errors print what argparse prints, and only they load it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit 1, not argparse's 2, which validation findings
        exit with; like every failure they print one line (``--help`` shows
        the usage).  Help and the version are written by ``_write``."""

        def error(self, message):
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):
            if file is sys.stdout:
                _write(message, file)
            else:
                super()._print_message(message, file)

    parser = _Parser(prog="ponfabric", description=_ARGUMENTS[None][0])
    sub = parser.add_subparsers(dest="command", required=True)
    for scope, (text, *specs) in _ARGUMENTS.items():
        scope_parser = parser if scope is None else sub.add_parser(scope, help=text)
        for flags, keywords in specs:
            scope_parser.add_argument(*flags, **keywords)
    return parser


def _parse(argv: list[str]):
    """``argv`` as ``_build_parser().parse_args`` reads it, if it has only
    the shapes scripts write: global options, one command word, then that
    command's options and positionals, each option's full flag followed by
    a value that does not start with ``-`` (an integer as ``_count`` reads
    it).  Else None, and argparse parses it: this reports no error itself."""
    values, words, positionals = {}, iter(argv), []
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        specs = _PARSED.get(positionals[0] if positionals else None, ())
        flags, keywords = next((spec for spec in specs if word in spec[0]), ((), {}))
        value = next(words, "-")
        if not flags or value.startswith("-") or value not in keywords.get("choices", (value,)):
            return None
        if "type" in keywords:
            try:
                value = _count(value)
            except (ValueError, ScenarioError):
                return None
        values[_dest(flags)] = value
    command, *positionals = positionals or [""]  # no command word reads as an unknown one
    specs = (*_PARSED[None], *_PARSED.get(command, ()))
    names = [flags[0] for flags, _ in specs if flags[0][0] != "-"]
    if command not in _ARGUMENTS or len(positionals) != len(names):
        return None
    values.update(zip(names, positionals), command=command)
    if any(keywords.get("required") and _dest(flags) not in values for flags, keywords in specs):
        return None
    values = {_dest(flags): keywords.get("default") for flags, keywords in specs} | values
    from types import SimpleNamespace

    return SimpleNamespace(**values)


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
    """The ``nodes_<arch>`` row of a node, from ``Node``'s fields.  The kind's
    text is read as ``_value_``, the attribute behind ``value``: no Python
    code runs to read it."""
    return node_id, kind._value_, rack, group, ap, "yes" if is_gateway else ""


def _row_linker(kind, capacity):
    """A maker of the ``links_<arch>`` rows of ``kind`` links at ``capacity``:
    the only Python call per link makes its id."""
    from itertools import repeat, starmap

    texts = repeat(kind.value), repeat(format_rational(capacity))  # made once
    return lambda ends: zip(starmap(link_id, ends), *texts)


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
    for architecture, spec in selected_specs(scenario).items():
        violations = validate(spec)
        meta.append((f"{architecture.value}_violations", len(violations)))
        tables.append(
            Table(
                f"violations_{architecture.value}",
                ("code", "subject", "message"),
                tuple((v.code, v.subject, v.message) for v in violations),
            )
        )
    doc = Document("structural validation", tuple(meta), tuple(tables))
    return doc, (EXIT_VALIDATION if any(table.rows for table in tables) else EXIT_OK)


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
    route = resolve_route(_owcpon_spec(scenario), args.src, args.dst, scenario.policy)
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
        matrix = TrafficMatrix(scenario.traffic.flows, scale=1000)
    report = assign(RouteTable(spec, scenario.policy), matrix, scenario.capacities)
    meta = (
        ("demand_entries", matrix.demand_entries()),
        ("total_demand_gbps", format_rational(matrix.total_demand())),
        ("max_utilization", format_rational(report.max_utilization)),
        ("saturated_links", len(report.saturated)),
    )
    return Document("traffic assignment", meta, load_tables(report, args.top)), EXIT_OK


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


def _write(text: str, stream) -> None:
    """Write ``text`` to ``stream`` and flush it.  If that fails, the
    stream's descriptor is pointed at ``os.devnull`` before the error is
    raised, so that the flush at exit writes nothing and reports nothing.
    A closed stream (None) raises ``OSError``."""
    if stream is None:
        raise OSError("stdout is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    flags, keywords = _VERSION
    try:
        if argv == list(flags):
            _write(keywords["version"] + "\n", sys.stdout)
            return EXIT_OK
        args = _parse(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # help or the version not written
        print(f"ponfabric: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            _write(text, sys.stdout)
    except OSError as exc:
        print(f"ponfabric: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
