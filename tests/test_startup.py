"""Start-up: the command line loads no more of the standard library, or of
the package, than it uses.  At the paper's sizes a CLI process is mostly
start-up: ``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and without bytecode files every package module loaded is
compiled from source."""

import ast
import contextlib
import functools
import io
import importlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import ponfabric
from ponfabric import OutputFormat, __version__
from ponfabric.cli import _FORMATS, _build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PATHS = [str(SRC), os.environ.get("PYTHONPATH")]
# Without ``COLUMNS``, argparse wraps to 80 columns where stdout is a pipe.
ENV = {name: value for name, value in os.environ.items() if name != "COLUMNS"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, PATHS))


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)


WRITE_FAILURES = ["closed", "full", "broken"]


def run_to(stdout: str, *args: str, **env: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the interpreter run on ``args``
    with ``env`` added to ``ENV``, its stdout a pipe (``"pipe"``) or one of
    ``WRITE_FAILURES``: closed, ``/dev/full`` or a pipe whose reader has
    closed.  Only a pipe's stdout is read."""
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    command = dict(args=[sys.executable, *args], stderr=subprocess.PIPE, text=True, env={**ENV, **env}, timeout=60)
    if stdout == "pipe":
        done = subprocess.run(**command, stdout=subprocess.PIPE)
    elif stdout == "closed":
        done = subprocess.run(**command, preexec_fn=lambda: os.close(1))
    elif stdout == "full":
        with open("/dev/full", "wb") as full:
            done = subprocess.run(**command, stdout=full)
    else:
        reader, writer = os.pipe()
        os.close(reader)
        try:
            done = subprocess.run(**command, stdout=writer)
        finally:
            os.close(writer)
    return done.returncode, done.stdout or "", done.stderr


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    done = run("-c", f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@functools.cache
def bare_modules() -> frozenset[str]:
    """The modules a bare interpreter holds."""
    return frozenset(modules_after("pass"))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    added = modules_after("import ponfabric.cli") - bare_modules()
    assert "ponfabric.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_version_runs_as_a_module():
    done = run("-m", "ponfabric.cli", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ponfabric {__version__}\n", "")


def test_the_package_states_the_project_version():
    """The version ``--version`` prints is ``pyproject.toml``'s ``[project]
    version``, read line by line, as no TOML reader comes with Python 3.10."""
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    table = lines[lines.index("[project]") + 1 :]
    table = table[: next((i for i, line in enumerate(table) if line.startswith("[")), len(table))]
    versions = [value.strip() for key, _, value in (line.partition("=") for line in table) if key.strip() == "version"]
    assert versions == [f'"{__version__}"']


# Runs ``python -m ponfabric.cli`` on its arguments, as ``-m`` does, then
# names on a last stderr line the modules its interpreter holds.
CLI_AS_MAIN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('ponfabric.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('modules:', *sys.modules, file=sys.stderr)\n"
)


def cli_modules(*argv: str) -> tuple[int, set[str], str]:
    """The exit code of the CLI run as ``__main__`` on ``argv``, the
    modules it added to a bare interpreter's, and its stdout."""
    done = run("-c", CLI_AS_MAIN, *argv)
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "modules:", done.stderr
    return done.returncode, set(last[1:]) - bare_modules(), done.stdout


PARSER = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, code",
    [(["--version"], 0), (["--help"], 0), (["bogus"], 1), (["summary", "--help"], 0)],
)
def test_version_help_and_usage_errors_load_only_the_package_and_version(argv, code):
    """``--version`` alone is answered from the argument table; help and
    usage errors load argparse."""
    exit_code, added, _ = cli_modules(*argv)
    assert exit_code == code
    assert {name for name in added if name.startswith("ponfabric")} == {"ponfabric", "ponfabric.version"}
    if argv == ["--version"]:
        assert not added & PARSER, sorted(added & PARSER)
    else:
        assert "argparse" in added


def test_a_table_command_loads_neither_json_nor_csv():
    exit_code, added, _ = cli_modules("-f", "table", "summary")
    assert exit_code == 0
    assert "ponfabric.document" in added
    writers = added & {"json", "csv", "ponfabric.writers"}
    assert not writers, sorted(writers)


@pytest.mark.parametrize(
    "fmt, loads, skips",
    [("json", "_json", {"json", "csv"}), ("csv", "csv", {"json", "_json"})],
    ids=["json-csv", "csv-json"],
)
def test_a_json_or_csv_command_loads_the_writers_and_its_format_only(fmt, loads, skips):
    """JSON takes its string encoder from ``_json``, the C module that
    ``json.encoder`` re-exports it from, so it loads no ``json`` package."""
    exit_code, added, _ = cli_modules("-f", fmt, "summary")
    assert exit_code == 0
    assert {"ponfabric.writers", loads} <= added, sorted(added)
    assert not added & skips, sorted(added & skips)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_simulate_loads_no_heapq(fmt):
    """``bottlenecks`` ranks integer utilizations with ``sorted``."""
    exit_code, added, _ = cli_modules("-f", fmt, "-s", str(GOLDEN / "flows64.scenario"), "simulate", "--top", "3")
    assert exit_code == 0
    assert not added & {"heapq", "_heapq"}, sorted(added & {"heapq", "_heapq"})


PAPER = str(ROOT / "perfbench" / "scenarios" / "paper_traffic.scenario")
GOLDEN = ROOT / "tests" / "golden"
# The package modules a command loads beyond the package, ``version`` and
# ``cli``: every command reads a scenario and renders, the commands that
# route load ``routing``, those that price load ``power`` and ``benchmark``,
# those that list a fabric's rows the walk (``graph``), and those that
# resolve routes the route table (``route_table``).  A table loads no
# writer (``writers``).
READS = {"errors", "document", "scenario", "topology"}
ROUTES = READS | {"routing"}
PRICES = READS | {"power", "benchmark"}
SPLIT_OFF = {"graph", "route_table", "writers"}

# Each subcommand on the paper's scenario with uniform traffic, the table
# golden its stdout equals, the modules it loads and those it must not.
# ``--top`` and ``--groups`` parse through ``integer``, which binds names
# while the arguments parse.
MATRIX = [
    (["build"], "build", READS | {"graph"}, {"routing", "traffic", "power", "benchmark", "route_table"}),
    (["validate"], "validate", READS, {"routing", "traffic", "power", "benchmark", *SPLIT_OFF}),
    (["power"], "power", PRICES, {"routing", "traffic", *SPLIT_OFF}),
    (["compare"], "compare", PRICES, {"routing", "traffic", *SPLIT_OFF}),
    (
        ["route", "rack1/server0", "rack7/server0"],
        "route",
        ROUTES | {"route_table"},
        {"power", "traffic", "benchmark", "graph", "writers"},
    ),
    (
        ["route", "rack1/server0", "external"],
        "route-external",
        ROUTES | {"route_table"},
        {"power", "traffic", "benchmark", "graph", "writers"},
    ),
    (["summary"], "summary", ROUTES, {"power", "traffic", "benchmark", *SPLIT_OFF}),
    (
        ["simulate", "--top", "10"],
        "paper_traffic-simulate",
        ROUTES | {"route_table", "graph", "traffic"},
        {"power", "benchmark", "writers"},
    ),
    (
        ["sweep", "--racks", "4,8,16", "--groups", "2"],
        "sweep",
        PRICES,
        {"routing", "traffic", *SPLIT_OFF},
    ),
    (["benchmark"], "paper_traffic-benchmark", PRICES, {"routing", "traffic", *SPLIT_OFF}),
]


# A row's id is its golden's name where that starts with the command word,
# else the command word.
MATRIX_IDS = [golden if golden.startswith(argv[0]) else argv[0] for argv, golden, *_ in MATRIX]


@pytest.mark.parametrize("argv, golden, loads, skips", MATRIX, ids=MATRIX_IDS)
def test_each_command_loads_only_the_modules_it_runs(argv, golden, loads, skips):
    """Run in a fresh interpreter, where no earlier command has bound the
    CLI's names: a command that forgot to bind one fails here, though it
    passes the in-process golden tests once another command has bound it."""
    exit_code, added, stdout = cli_modules("-f", "table", "-s", PAPER, *argv)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert exit_code == codes[f"{golden}.table"]
    assert stdout == (GOLDEN / f"{golden}.table.out").read_text(encoding="utf-8")
    package = {name.partition(".")[2] for name in added if name.startswith("ponfabric.")}
    assert not package & skips, sorted(package & skips)
    assert package == loads | {"version"}
    assert not added & PARSER, sorted(added & PARSER)  # the argv parses without argparse


# Argv that only argparse reads: help, the version with other arguments,
# abbreviations, ``=`` forms and usage errors.
DECLINED = [
    ["-s", "x", "--version"],
    ["summary", "--version"],
    ["--help"],
    ["-h"],
    ["summary", "--help"],
    ["sweep", "-h"],
    ["route", "--help"],
    ["bogus"],
    [],
    ["sweep"],
    ["route", "rack1/server0"],
    ["simulate", "--top", "-5", "--to"],
    ["-f", "xml", "build"],
    ["sweep", "--racks", "4", "--groups", "1" * 401],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_help_version_and_usage_errors_print_what_the_reference_parser_prints(monkeypatch, argv):
    """The parser built from the argument table prints, byte for byte, what
    the parser written out call by call printed, with the same exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exited, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        oracles.reference_parser().parse_args(argv)
    done = subprocess.run(
        [sys.executable, "-m", "ponfabric.cli", *argv],
        capture_output=True,
        text=True,
        env={**ENV, "COLUMNS": "80"},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (exited.value.code or 0, out.getvalue(), err.getvalue())


# ``--version`` as the reference parser reads it, in a fresh interpreter.
REFERENCE_VERSION = (
    f"import sys; sys.path.insert(0, {str(ROOT / 'tests')!r})\n"
    "import oracles\n"
    "oracles.reference_parser().parse_args(['--version'])\n"
)


@pytest.mark.parametrize("columns", [None, "80", "17", "16", "10"])
def test_version_prints_one_line_at_any_width(columns):
    """``main`` answers ``--version`` alone on one line, where argparse
    would wrap it below 17 columns; at 17 or more the bytes are argparse's."""
    env = {"COLUMNS": columns} if columns else {}
    done = run_to("pipe", "-m", "ponfabric.cli", "--version", **env)
    assert done == (0, f"ponfabric {__version__}\n", "")
    if columns not in ("16", "10"):
        assert done == run_to("pipe", "-c", REFERENCE_VERSION, **env)


@pytest.mark.parametrize("argv", [["--version"], ["-s", "x", "--version"]], ids=" ".join)
@pytest.mark.parametrize("stdout", WRITE_FAILURES)
def test_version_not_written_exits_one_with_one_line(stdout, argv):
    """The version is written as a command's output is, whether ``main`` or
    argparse answers it: a write that fails exits 1 with one stderr line,
    on every Python version.  With buffered stdout, the failure shows at
    the flush, which ``_write`` makes."""
    for unbuffered in ("", "1"):
        done = run_to(stdout, "-m", "ponfabric.cli", *argv, PYTHONUNBUFFERED=unbuffered)
        assert done[0] == 1 and done[2].startswith("ponfabric: cannot write output: "), done
        assert len(done[2].splitlines()) == 1, done


def test_version_on_a_terminal_prints_one_line_and_loads_no_argparse():
    """On a terminal of 10 columns, where argparse would wrap the version,
    ``main`` prints it on one line, and loads no argparse to do it."""
    pty, termios, fcntl = (pytest.importorskip(name) for name in ("pty", "termios", "fcntl"))
    master, terminal = pty.openpty()
    try:
        fcntl.ioctl(terminal, termios.TIOCSWINSZ, struct.pack("HHHH", 24, 10, 0, 0))
        try:
            done = subprocess.run(
                [sys.executable, "-c", CLI_AS_MAIN, "--version"],
                stdout=terminal, stderr=subprocess.PIPE, text=True, env=ENV, timeout=60,
            )
        finally:
            os.close(terminal)
        printed = os.read(master, 1024)
    finally:
        os.close(master)
    last = done.stderr.splitlines()[-1].split()
    assert (done.returncode, last[0]) == (0, "modules:"), done.stderr
    assert printed == f"ponfabric {__version__}\r\n".encode()  # the terminal ends lines with CR LF
    assert not (set(last[1:]) - bare_modules()) & PARSER


def test_a_name_patched_after_a_command_reaches_the_next_one():
    """``main`` binds anew each name whose value it bound itself: after an
    in-process ``build``, a patch of ``ponfabric.graph.wire`` reaches the next
    ``build``, and so does undoing it.  A name bound before ``main`` ran, as
    ``perfbench/traced.py`` binds its wrappers, is kept."""
    check = (
        "import contextlib, io\n"
        "import ponfabric.cli as cli, ponfabric.graph as graph, ponfabric.scenario as scenario\n"
        "real, wired, read = graph.wire, [], []\n"
        "def wire(*args):\n"
        "    wired.append(args[0])\n"
        "    return real(*args)\n"
        "def default_scenario():\n"
        "    read.append(1)\n"
        "    return scenario.default_scenario()\n"
        "cli.default_scenario = default_scenario\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['build']) == 0\n"
        "    graph.wire = wire\n"
        "    assert cli.main(['build']) == 0\n"
        "    assert cli.wire is wire and len(wired) == 2, wired\n"
        "    graph.wire = real\n"
        "    assert cli.main(['build']) == 0\n"
        "assert cli.wire is real and len(wired) == 2, wired\n"
        "assert cli.default_scenario is default_scenario and read == [1, 1, 1], read\n"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr


def test_importtime_lists_every_package_module_a_command_loads():
    """``-X importtime`` logs what ``__import__`` loads, so start-up figures
    taken with it cover the whole package, whichever path loaded a module."""
    done = run("-X", "importtime", "-m", "ponfabric.cli", "-s", PAPER, "summary")
    assert done.returncode == 0, done.stderr
    logged = {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    exit_code, added, _ = cli_modules("-s", PAPER, "summary")
    assert exit_code == 0
    loaded = {name for name in added if name.partition(".")[0] == "ponfabric"}
    assert {name for name in logged if name.partition(".")[0] == "ponfabric"} == loaded
    assert "ponfabric.routing" in loaded


def compiled_lines(*argv: str) -> tuple[int, set[str]]:
    """The lines of the package's source files that the CLI compiles on
    ``argv`` without bytecode files, ``cli.py`` included, and the names of
    the modules they hold."""
    exit_code, added, _ = cli_modules(*argv)
    assert exit_code == 0
    package = [name for name in added if name.partition(".")[0] == "ponfabric"]
    names = {name.partition(".")[2] or "__init__" for name in package} | {"cli"}
    files = [SRC / "ponfabric" / f"{name}.py" for name in sorted(names)]
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files), names


def test_a_paper_scale_summary_compiles_at_most_1900_lines():
    """Without bytecode files, each package module a process loads is
    compiled from source, ``cli.py`` included: a paper-scale ``summary``
    must not compile the walk, the route table or the writers."""
    lines, names = compiled_lines("-s", PAPER, "summary")
    assert lines <= 1900, (lines, sorted(names))


def test_a_paper_scale_json_build_compiles_at_most_2150_lines():
    """A JSON ``build`` compiles the walk (``graph``) and the writers as well:
    ``writers`` is compiled by every JSON and CSV process, ``simulate``'s
    included, so each line it grows by costs them all."""
    lines, names = compiled_lines("-s", PAPER, "-f", "json", "build")
    assert {"graph", "writers"} <= names
    assert lines <= 2150, (lines, sorted(names))


# Names defined in one module and imported, as the same object, by modules
# that call them: home -> importer -> names.
MOVED = {
    "scenario": {
        "power": "NicCountMode PowerOptions",
        "routing": "RoutingPolicy",
        "traffic": "HotspotRackPattern IntraRackHeavyPattern TrafficPattern UniformPattern",
        "benchmark": "selected_specs",
    },
    "topology": {"benchmark": "census_table"},
}
IDENTITY = "".join(
    f"assert ponfabric.{old}.{name} is ponfabric.{new}.{name}, {name!r}\n"
    for new, olds in MOVED.items()
    for old, names in olds.items()
    for name in names.split()
)
# Patterns equal patterns of their own kind only, whichever module loaded first.
PATTERNS_BY_TYPE = (
    "from fractions import Fraction\n"
    "from ponfabric.traffic import HotspotRackPattern, IntraRackHeavyPattern, UniformPattern\n"
    "assert UniformPattern(Fraction(1)) != (Fraction(1),) and (Fraction(1),) != UniformPattern(Fraction(1))\n"
    "assert not UniformPattern(Fraction(1)) == (Fraction(1),)\n"
    "hotspot, heavy = HotspotRackPattern(1, Fraction(2)), IntraRackHeavyPattern(Fraction(1), Fraction(2))\n"
    "assert tuple(hotspot) == tuple(heavy) and hotspot != heavy and len({hotspot, heavy}) == 2\n"
    "assert hotspot == HotspotRackPattern(1, 2) and hash(hotspot) == hash(HotspotRackPattern(1, 2))\n"
)


ENGINES = ["power", "routing", "traffic", "scenario", "benchmark", "topology", "graph", "route_table", "writers"]


@pytest.mark.parametrize("first", ENGINES)
def test_modules_import_in_any_order_and_share_the_moved_names(first):
    check = (
        f"import ponfabric.{first}\n"
        f"import ponfabric.{', ponfabric.'.join(ENGINES)}\n"
        f"{IDENTITY}{PATTERNS_BY_TYPE}"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr


def traced_sites() -> dict[str, tuple[str, ...]]:
    """``perfbench/traced.py``'s ``SITES``, read from its source: each
    module, by its name in the package, and the names wrapped there."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
    (sites,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["SITES"]
    ]
    return {key.attr: ast.literal_eval(names) for key, names in zip(sites.keys, sites.values)}


SITES = {module: names for module, names in traced_sites().items() if module != "cli"}
SPLIT_OFF_PATHS = sorted(f"ponfabric.{name}" for name in SPLIT_OFF)


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_name_the_tracer_wraps_is_read_from_its_home_module(site):
    """A module the tracer wraps names in answers for each as the object its
    home module defines, and a split-off module that importing the site did
    not load loads when, and only when, a name it defines is read."""
    check = (
        "import sys\n"
        f"import ponfabric.{site}\n"
        f"site = sys.modules['ponfabric.{site}']\n"
        f"split = set({SPLIT_OFF_PATHS!r})\n"
        "expected = split & set(sys.modules)\n"
        f"for name in {SITES[site]!r}:\n"
        "    loaded = set(sys.modules)\n"
        "    value = getattr(site, name)\n"
        "    home = value.__module__\n"
        "    assert value is vars(sys.modules[home])[name], name\n"
        "    assert set(sys.modules) - loaded <= {home}, (name, set(sys.modules) - loaded)\n"
        "    expected |= split & {home}\n"
        "assert split & set(sys.modules) == expected, split & set(sys.modules)\n"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr


def test_a_module_answers_for_no_name_it_neither_defines_nor_imports():
    check = (
        "import sys\n"
        "import ponfabric.topology, ponfabric.routing\n"
        "for module, name in [(ponfabric.topology, 'Node'), (ponfabric.document, '_render_json'), "
        "(ponfabric.routing, 'RouteTable')]:\n"
        "    assert not hasattr(module, name), (module.__name__, name)\n"
        f"assert not set({SPLIT_OFF_PATHS!r}) & set(sys.modules)\n"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "module, home, name",
    [
        ("ponfabric", "graph", "build_owc_pon"),
        ("ponfabric.cli", "graph", "wire"),
        ("ponfabric.power", "graph", "build_owc_pon"),
        ("ponfabric", "document", "render"),
    ],
)
def test_a_lazy_name_reads_its_home_module_on_each_access(module, home, name):
    """A name read while its home module's attribute is patched reads the
    patch, and the real object once the patch is undone: nothing keeps it."""
    check = (
        "import sys\n"
        f"import {module}, ponfabric.{home}\n"
        f"module, home = sys.modules[{module!r}], sys.modules['ponfabric.{home}']\n"
        f"real = home.{name}\n"
        f"home.{name} = stand_in = object()\n"
        f"assert module.{name} is stand_in\n"
        f"home.{name} = real\n"
        f"assert module.{name} is real\n"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr


# The installed ``ponfabric`` script: ``cli`` imported as a module.
ENTRY_POINT = "import sys\nfrom ponfabric.cli import main\nsys.exit(main())\n"


@pytest.mark.parametrize(
    "argv", [["--version"], ["-f", "json", "benchmark"], ["bogus"], ["sweep", "--racks=4,8,16"], ["-h"]]
)
def test_the_entry_point_prints_what_the_module_prints(argv):
    script = run("-c", ENTRY_POINT, *argv)
    module = run("-m", "ponfabric.cli", *argv)
    assert (script.returncode, script.stdout, script.stderr) == (module.returncode, module.stdout, module.stderr)
    assert script.stdout or script.stderr


def test_the_format_choices_are_the_output_formats_in_order():
    (action,) = [action for action in _build_parser()._actions if action.dest == "format"]
    assert list(action.choices) == [fmt.value for fmt in OutputFormat]
    assert _FORMATS == tuple(fmt.value for fmt in OutputFormat)


# ``ponfabric.__all__`` before its names were resolved on first access.
ALL = [
    "Architecture", "CATALOG", "DeviceKind", "Document", "ExplicitPairs", "HotspotRackPattern",
    "IndexMatched", "IntraRackHeavyPattern", "Link", "LinkCapacities", "LinkKind", "LinkLoad",
    "LinkLoadReport", "NetworkGraph", "NicCountMode", "NoDirectLinks", "Node",
    "OutputFormat", "OwcPonSpec", "PROFILES", "PathClass", "PowerCatalog", "PowerOptions",
    "PowerReport", "PowerRow", "RackBlocks", "Route", "RouteTable", "RoutingPolicy", "Scenario",
    "SweepPoint", "SweepResult", "Table", "TraditionalSpec",
    "TrafficMatrix", "TrafficSection", "UniformPattern", "Violation", "all_pairs_summary",
    "assign", "benchmark", "bottlenecks", "build_owc_pon", "build_traditional",
    "closed_form_power", "default_scenario", "device_census", "errors",
    "fabric_size", "format_percent", "format_rational", "generate_traffic", "owc_pon_power",
    "parse_scenario", "power", "power_reduction", "render", "resolve_route", "resolved_catalog",
    "routing", "run_benchmark", "scaling_sweep", "scenario",
    "serialize_scenario", "topology", "traditional_power", "traffic", "validate", "version",
]

# The submodule that defines each name.
SOURCES = {
    "benchmark": "closed_form_power resolved_catalog run_benchmark",
    "graph": "Link NetworkGraph Node build_owc_pon build_traditional",
    "power": "CATALOG PowerCatalog PowerReport PowerRow SweepPoint SweepResult format_percent "
    "owc_pon_power power_reduction scaling_sweep traditional_power",
    "document": "Document OutputFormat Table format_rational render",
    "route_table": "Route RouteTable resolve_route",
    "routing": "PathClass all_pairs_summary",
    "scenario": "HotspotRackPattern IntraRackHeavyPattern NicCountMode PROFILES PowerOptions RoutingPolicy "
    "Scenario TrafficSection UniformPattern default_scenario parse_scenario serialize_scenario",
    "topology": "Architecture DeviceKind ExplicitPairs IndexMatched LinkCapacities LinkKind NoDirectLinks "
    "OwcPonSpec TraditionalSpec Violation device_census fabric_size validate",
    "traffic": "LinkLoad LinkLoadReport RackBlocks TrafficMatrix assign bottlenecks generate_traffic",
}
SUBMODULES = ["benchmark", "errors", "power", "routing", "scenario", "topology", "traffic", "version"]


def test_all_keeps_its_names():
    assert ponfabric.__all__ == ALL
    assert sorted([*" ".join(SOURCES.values()).split(), *SUBMODULES]) == ALL


def test_each_name_is_the_object_its_submodule_defines():
    for module, names in SOURCES.items():
        source = importlib.import_module(f"ponfabric.{module}")
        for name in names.split():
            assert getattr(ponfabric, name) is getattr(source, name), name
    for name in SUBMODULES:
        assert getattr(ponfabric, name) is importlib.import_module(f"ponfabric.{name}"), name


@pytest.mark.parametrize("first", ["ponfabric.document", "ponfabric.scenario", "ponfabric.cli", "ponfabric"])
def test_render_is_the_function_in_any_import_order(first):
    check = (
        f"import {first}\n"
        "from ponfabric import render\n"
        "import ponfabric, ponfabric.document\n"
        "assert render.__name__ == 'render' and callable(render), render\n"
        "assert ponfabric.render is render is ponfabric.document.render\n"
    )
    done = run("-c", check)
    assert done.returncode == 0, done.stderr
