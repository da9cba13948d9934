"""The CLI's output and error contract, checked with the standard library
alone, so that it runs on every Python the package supports, with or
without pytest.

Every golden case runs in this process and must print its recorded
stdout, byte for byte, with its recorded exit code.  Then, each in a
subprocess, help (``--help``, ``-h`` and ``summary --help``) and the
version (``--version`` alone and after ``-s x``) are written to a closed
stdout, to ``/dev/full`` and to a pipe whose reader has closed, and each
command to ``/dev/full``, both as its stdout and as its ``--out`` file,
and with ``--out`` naming a directory.  Each of those must exit 1 with
one stderr line, ``ponfabric: cannot write output: ...``, and no
``Traceback`` or ``Exception ignored``.

    python tests/contract_check.py

It checks the package under ``src/`` of its checkout, prints one line per
failing case on stderr and a count on stdout, and exits 1 if any case
failed, else 0.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import golden_cases  # noqa: E402  (it imports the package from SRC)

# What the command line answers without running a command.
ANSWERS = (["--help"], ["-h"], ["summary", "--help"], ["--version"], ["-s", "x", "--version"])
# One golden case per command, each of which exits 0.
COMMANDS = (
    "build", "validate", "power", "compare", "route", "route-external", "summary",
    "paper_traffic-simulate", "sweep", "paper_traffic-benchmark",
)
FAILURES = ("closed", "full", "broken")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_to(failure: str, argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``python -m ponfabric.cli`` on ``argv``,
    its stdout closed (``closed``), ``/dev/full`` (``full``) or a pipe whose
    reader has closed (``broken``), or with ``--out`` naming ``failure``
    itself, a path other than those three words."""
    if failure not in FAILURES:
        argv = ["--out", failure, *argv]
    command = dict(args=[sys.executable, "-m", "ponfabric.cli", *argv], stderr=subprocess.PIPE, env=ENV, timeout=60)
    if failure not in FAILURES:
        done = subprocess.run(**command, stdout=subprocess.PIPE)
    elif failure == "closed":
        done = subprocess.run(**command, preexec_fn=lambda: os.close(1))
    elif failure == "full":
        with open("/dev/full", "wb") as full:
            done = subprocess.run(**command, stdout=full)
    else:
        reader, writer = os.pipe()
        os.close(reader)
        try:
            done = subprocess.run(**command, stdout=writer)
        finally:
            os.close(writer)
    return done.returncode, done.stderr.decode("utf-8", "replace")


def write_failure(failure: str, argv: list[str]) -> str | None:
    """What breaks the contract when ``argv``'s write fails so, if anything."""
    code, err = run_to(failure, argv)
    lines = err.splitlines()
    if code != 1 or len(lines) != 1 or not lines[0].startswith("ponfabric: cannot write output: "):
        return f"exit {code}, stderr {err[:200]!r}"
    return None


def main() -> int:
    failed = 0
    for case_id in golden_cases.IDS:
        if golden_cases.run(case_id) != golden_cases.recorded(case_id):
            print(f"golden {case_id}: stdout or exit code differs", file=sys.stderr)
            failed += 1
    failures = FAILURES if os.path.exists("/dev/full") else ("closed", "broken")
    cases = [(failure, argv) for argv in ANSWERS for failure in failures]
    outs = [tempfile.mkdtemp()]  # a directory
    if "full" in failures:
        cases += [("full", golden_cases.argv(f"{case}.table")) for case in COMMANDS]
        outs.append("/dev/full")
    cases += [(out, golden_cases.argv(f"{case}.table")) for case in COMMANDS for out in outs]
    for failure, argv in cases:
        if problem := write_failure(failure, argv):
            where = f"{failure} stdout" if failure in FAILURES else f"--out {failure}"
            print(f"{' '.join(argv)} to {where}: {problem}", file=sys.stderr)
            failed += 1
    os.rmdir(outs[0])
    checked = len(golden_cases.IDS) + len(cases)
    print(f"Python {sys.version.split()[0]}: {checked} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
