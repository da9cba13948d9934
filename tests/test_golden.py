"""Golden CLI outputs: stdout and exit code, byte for byte, for each case
``golden_cases`` lists.

The files under ``tests/golden/`` were recorded before the code they pin
was rewritten (the scenario key table, the shared comparison pipeline,
pricing, validating and summarising from the spec, ``build``'s census
from the spec, and routes named from the spec); re-record them only for
an intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys

import pytest

from golden_cases import GOLDEN, IDS, recorded, run


@pytest.mark.parametrize("case_id", IDS)
def test_cli_output_matches_golden(case_id):
    assert run(case_id) == recorded(case_id)


JSON_GOLDENS = sorted(path for path in GOLDEN.rglob("*.json.out") if path.stat().st_size)


@pytest.mark.parametrize("path", JSON_GOLDENS, ids=lambda path: path.name)
def test_json_golden_has_standard_layout(path):
    """The committed JSON is what the standard library writes with
    ``indent=2``, whichever emitter recorded it."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case_id in IDS:
        codes[case_id], out = run(case_id)
        (GOLDEN / f"{case_id}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
