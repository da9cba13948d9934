"""Start-up: the command line loads no more of the standard library than
it uses.  At the paper's sizes a CLI process is mostly start-up, and
``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``."""

import os
import subprocess
import sys
from pathlib import Path

from ponfabric import __version__

SRC = Path(__file__).resolve().parents[1] / "src"
PATHS = [str(SRC), os.environ.get("PYTHONPATH")]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, PATHS))}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    done = run("-c", f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    added = modules_after("import ponfabric.cli") - modules_after("pass")
    assert "ponfabric.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_version_runs_as_a_module():
    done = run("-m", "ponfabric.cli", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ponfabric {__version__}\n", "")
