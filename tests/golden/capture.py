"""Golden corpus of critspec outputs: the cases, how each is rendered,
and a writer for the fixture file.

Each case is either a command line, run in-process through ``cli.run``
with stdout captured, or a Hadamard-route verification made through the
library and rendered with ``serialize.canonical_json``.  The fixture
``corpus.json`` pins the exit code and stdout bytes of every case.

Regenerate the fixture only when output changes on purpose, and name
every changed record in CHANGES.md:

    PYTHONPATH=src python tests/golden/capture.py
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path

import numpy as np

from critspec import VerifyConfig, dft_matrix, serialize, verify_critical_realizability
from critspec.cli import parse_spectrum, run

FIXTURE = Path(__file__).with_name("corpus.json")

LISTS = (
    "3,-1,-1",
    "1,-1,-1",
    "2,i,-i",
    "1,1,-2/3,-2/3,-2/3",
    "4,1+i,1-i,-1",
    "5,-1,-1,-1,-1,1/2",
    # The critical points of this list come out wrong (the 7-fold root is
    # not collapsed); the corpus pins the output as it is.
    "1,1,1,1,1,1,1,1",
    # Triple-entry Suleimanova list: the d-companion route fails with
    # "spectrum mismatch".
    "12,-1/4,-1/4,-1/4,-1/2",
)

REALIZE_ROUTES = ("companion", "dcomp", "real-dcomp", "dft", "circulant")

README_EXAMPLES = (
    ("check", "--", "-1,-1,3"),
    ("critical", "1,1,-2/3,-2/3,-2/3"),
    ("realize", "3,-1,-1", "--route=dcomp"),
    ("verify", "3,-1,-1"),
    ("hunt", "--n", "5", "--samples", "2000", "--seed", "42", "--ensemble", "dense-uniform"),
    ("chain", "3,-1,-1", "--constants=-1,-1"),
)

ENSEMBLES = ("dense-uniform", "sparse-bernoulli", "row-stochastic", "circulant-nonnegative")

SYLVESTER_4 = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)

# (list, similarity matrix name, order of the similarity matrix)
HADAMARD_CASES = (
    ("1,-1/2+0.8660254037844386i,-1/2-0.8660254037844386i", "dft", 3),
    ("3,-1,-1", "dft", 3),
    ("1,-1,-1", "dft", 3),
    ("4,1+i,1-i,-1", "dft", 4),
    ("1,1,1,1,1,1,1,1", "dft", 8),
    ("3,1,1,1", "sylvester", 4),
    ("3,-1,-1,-1", "sylvester", 4),
    ("3,-1,-1", "dft", 2),
)


def _cli_cases() -> list[dict]:
    cases = []
    for argv in README_EXAMPLES:
        cases.append({"argv": list(argv)})
        cases.append({"argv": [argv[0], "--format", "machine", *argv[1:]]})
    for spec in LISTS:
        for cmd in ("check", "critical", "verify"):
            cases.append({"argv": [cmd, spec, "--format", "machine"]})
        for route in REALIZE_ROUTES:
            cases.append({"argv": ["realize", spec, "--route", route, "--format", "machine"]})
    for ensemble in ENSEMBLES:
        cases.append(
            {
                "argv": [
                    "hunt", "--n", "3-5", "--samples", "20", "--seed", "1",
                    "--ensemble", ensemble, "--format", "machine",
                ]
            }
        )
    cases.append({"argv": ["chain", "3,-1,-1", "--constants=-1,0,-0.5", "--format", "machine"]})
    cases.append({"argv": ["chain", "3,-1,-1", "--constants", "0.5", "--format", "machine"]})
    # Input errors: exit 2 with nothing on stdout.
    for cmd in ("critical", "verify"):
        cases.append({"argv": [cmd, "5", "--format", "machine"]})
    cases.append({"argv": ["realize", "5", "--route", "dft", "--format", "machine"]})
    for case in cases:
        case["id"] = " ".join(case["argv"])
    return cases


def _hadamard_cases() -> list[dict]:
    return [
        {"id": f"library verify {spec} hadamard={name}({order})", "hadamard": [spec, name, order]}
        for spec, name, order in HADAMARD_CASES
    ]


CASES = _cli_cases() + _hadamard_cases()


def _similarity(name: str, order: int) -> np.ndarray:
    if name == "dft":
        return dft_matrix(order)
    if name == "sylvester" and order == 4:
        return SYLVESTER_4
    raise ValueError(f"unknown similarity matrix {name}({order})")


def render(case: dict) -> tuple[int | None, str]:
    """Exit code (None for a library case) and stdout of one case.

    The human hunt report's wall-clock line is the only volatile text;
    its value is replaced by "<elided>".
    """
    if "hadamard" in case:
        spec, name, order = case["hadamard"]
        cfg = VerifyConfig(hadamard=_similarity(name, order))
        report = verify_critical_realizability(parse_spectrum(spec), cfg)
        return None, serialize.canonical_json(serialize.realizability_record(report)) + "\n"
    buf = io.StringIO()
    code = run(case["argv"], out=buf)
    text = re.sub(r"^wall clock: .* s$", "wall clock: <elided> s", buf.getvalue(), flags=re.M)
    return code, text


def capture() -> dict:
    records = {}
    for case in CASES:
        code, stdout = render(case)
        records[case["id"]] = {"exit": code, "stdout": stdout}
    return records


def main() -> None:
    FIXTURE.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} records to {FIXTURE}")


if __name__ == "__main__":
    main()
