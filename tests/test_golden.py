"""Byte-identical golden corpus of CLI and library output.

Every case in ``tests/golden/capture.py`` is rendered again and compared
with ``tests/golden/corpus.json``: exit code, stdout and stderr, byte for
byte.  The fixture pins the bytes as captured, not their correctness.  Its
floats are 17-digit renderings of double arithmetic on the machine that
captured it (x86-64 Linux, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31);
another platform or library build may differ in the last digits.  A
change that alters output on purpose regenerates the fixture with
``PYTHONPATH=src python tests/golden/capture.py`` and names every
changed record.
"""

import difflib
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_capture", Path(__file__).parent / "golden" / "capture.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

RECORDS = json.loads(capture.FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(RECORDS) == sorted(case["id"] for case in capture.CASES)


@pytest.mark.parametrize("case", capture.CASES, ids=[c["id"] for c in capture.CASES])
def test_output_matches_fixture(case):
    want = RECORDS[case["id"]]
    code, stdout, stderr = capture.render(case)
    assert code == want["exit"]
    assert stderr == want["stderr"]
    if stdout != want["stdout"]:
        diff = difflib.unified_diff(
            want["stdout"].splitlines(), stdout.splitlines(), "fixture", "now", lineterm=""
        )
        pytest.fail("stdout differs from the fixture:\n" + "\n".join(diff))
