"""``contract_check`` under each other CPython 3.10-3.13 installed here,
found under ``~/.pyenv/versions`` or on ``PATH``: the goldens and the
write-failure cases that pytest runs under this Python alone."""

import subprocess
import sys
from pathlib import Path
from shutil import which

import pytest

CHECK = Path(__file__).resolve().parent / "contract_check.py"
PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:2])"


def interpreter(minor: int) -> str | None:
    """A CPython 3.``minor`` interpreter, if one is installed."""
    installed = Path.home().glob(f".pyenv/versions/3.{minor}.*/bin/python3")
    for candidate in filter(None, [*sorted(installed), which(f"python3.{minor}")]):
        try:
            probe = subprocess.run([candidate, "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", "3", str(minor)]:
            return str(candidate)
    return None


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda minor: f"3.{minor}")
def test_the_contract_holds_on_another_python(minor, tmp_path):
    if sys.version_info[:2] == (3, minor):
        pytest.skip("pytest runs every case under this Python")
    python = interpreter(minor)
    if python is None:
        pytest.skip(f"no CPython 3.{minor} under ~/.pyenv/versions or on PATH")
    done = subprocess.run([python, str(CHECK)], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
