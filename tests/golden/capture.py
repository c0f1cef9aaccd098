"""Golden corpus of critspec outputs: the cases, how each is rendered,
and a writer for the fixture file.

Each case is either a command line, run in-process through ``cli.run``
with stdout and stderr captured, or a library call rendered with
``serialize.canonical_json``: a Hadamard-route verification, or
``critical_points``, which solves p'/n with ``polynomial.roots``.  The fixture
``corpus.json`` pins the exit code, stdout and stderr bytes of every
case, so the one ``error:`` line of an exit-2 or exit-3 case is pinned
too.

Regenerate the fixture only when output changes on purpose, and name
every changed record in CHANGES.md.  The writer refuses to change an
existing record unless its id is given:

    PYTHONPATH=src python tests/golden/capture.py ['<record id>' ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from critspec import (
    NonConvergenceError,
    VerifyConfig,
    critical_points,
    dft_matrix,
    serialize,
    verify_critical_realizability,
)
from critspec.cli import parse_spectrum, run

FIXTURE = Path(__file__).with_name("corpus.json")

LISTS = (
    "3,-1,-1",
    "1,-1,-1",
    "2,i,-i",
    "1,1,-2/3,-2/3,-2/3",
    "4,1+i,1-i,-1",
    "5,-1,-1,-1,-1,1/2",
    # critical_points gets this list's 7-fold critical point wrong (the
    # cluster is not collapsed); the corpus pins the output as it is.
    "1,1,1,1,1,1,1,1",
    # Triple-entry Suleimanova list: the d-companion route fails with
    # "spectrum mismatch".
    "12,-1/4,-1/4,-1/4,-1/2",
)

# critical_points on LISTS and these: the polish leaves both copies of the
# double critical point 3 on one side of it, and the residual test rejects
# the mixed-scale list; a failure is recorded by its message.
CRITICAL_POINTS_LISTS = LISTS + (
    "0,3,-3,0,2,3,3,0",
    "700,0.0031,3.5,-0.032,-7.4,0.0022",
)

REALIZE_ROUTES = ("companion", "dcomp", "real-dcomp", "dft", "circulant")

# Not self-conjugate: 1+i has no exact conjugate.  The real routes must
# refuse it, and verify shows the battery's measured pairing residual.
NEARLY_PAIRED = "2,1+1i,1-1.0000000001i,-1"

# No exact conjugate for either critical point: no real matrix has them
# as its spectrum, so nothing certifies them.
NOT_SELF_CONJUGATE = "3,-1+0.00000000001i,-1-0.000000000011i"

# The sign test's threshold -64*n*eps*max|M| scales with the candidates:
# the DFT circulant fails it, and the companion, built at the list's own
# scale, fails the backward error.  The battery's tolerance
# scales with the list too, so the verdict is that of the same list at
# scale 1, a condition violation; so does classify's, so the complex list
# is in no real class.
SMALL_SCALE = "2e-10,1e-10+1e-10i,1e-10-1e-10i,-2.5e-10"

# A Suleimanova list whose power sums leave the double range from s_40 on:
# every check holds, decided at unit scale; the sides past the range are
# null.  The list of zeros has spectral radius 0 and tolerance 0.
SCALE_EDGES = ("3e8,-1e8,-1e8", "0,0,0")

# The spectral radius is subnormal.  The backward error is taken in the
# unit of the list, so the d-companion and the DFT circulant certify, as
# they do for the same list at 1e-300.
SUBNORMAL = "1e-310,-4e-311,-4e-311"

# Every part is finite, but the moduli of the pair pass the double range:
# the spectral radius is not finite, exit 3.
PAST_THE_RANGE = "1.3e308+1.3e308i,1.3e308-1.3e308i,-1.3e308"

# s_1 = s_3 = -1 < 0, and so is every odd moment; s_1**3 <= 9 * s_3 fails too.
FAILS_MOMENTS = "1,-1,-1"

# Both sides of every power-sum cell to depth 31 are doubles, and so is
# every allowance: the check exits 0 with nothing on stderr.
DEEP_JLL = ",".join(["0.999"] + ["-0.03"] * 31)

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
    for route in ("real-dcomp", "dft"):
        cases.append(
            {"argv": ["realize", NEARLY_PAIRED, "--route", route, "--format", "machine"]}
        )
    cases.append({"argv": ["verify", NEARLY_PAIRED, "--format", "machine"]})
    cases.append({"argv": ["verify", NOT_SELF_CONJUGATE]})
    cases.append({"argv": ["verify", NOT_SELF_CONJUGATE, "--format", "machine"]})
    cases.append(
        {"argv": ["realize", NOT_SELF_CONJUGATE, "--route", "companion", "--format", "machine"]}
    )
    for spec in (SMALL_SCALE, *SCALE_EDGES):
        for cmd in ("check", "verify"):
            cases.append({"argv": [cmd, spec, "--format", "machine"]})
    cases.append({"argv": ["verify", SUBNORMAL]})
    cases.append({"argv": ["verify", SUBNORMAL, "--format", "machine"]})
    # The antiderivative's coefficients overflow: exit 3.
    cases.append({"argv": ["chain", "1e200,-1e200", "--constants=-1"]})
    for cmd in ("check", "verify"):
        cases.append({"argv": [cmd, PAST_THE_RANGE]})
    # The human summary names the failing moments and power-sum cells.
    for cmd in ("check", "verify"):
        cases.append({"argv": [cmd, FAILS_MOMENTS]})
    # Every odd moment fails to depth 40, and no power-sum slack overflows.
    cases.append({"argv": ["check", FAILS_MOMENTS, "--kmax", "40", "--format", "machine"]})
    cases.append({"argv": ["check", DEEP_JLL, "--jll", "31", "--format", "machine"]})
    for case in cases:
        case["id"] = " ".join(case["argv"])
    return cases


def _hadamard_cases() -> list[dict]:
    return [
        {"id": f"library verify {spec} hadamard={name}({order})", "hadamard": [spec, name, order]}
        for spec, name, order in HADAMARD_CASES
    ]


def _critical_points_cases() -> list[dict]:
    return [
        {"id": f"library critical_points {spec}", "critical_points": spec}
        for spec in CRITICAL_POINTS_LISTS
    ]


CASES = _cli_cases() + _hadamard_cases() + _critical_points_cases()


def _similarity(name: str, order: int) -> np.ndarray:
    if name == "dft":
        return dft_matrix(order)
    if name == "sylvester" and order == 4:
        return SYLVESTER_4
    raise ValueError(f"unknown similarity matrix {name}({order})")


def render(case: dict) -> tuple[int | None, str, str]:
    """Exit code (None for a library case), stdout and stderr of one case.

    The human hunt report's wall-clock line is the only volatile text;
    its value is replaced by "<elided>".
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _render_stdout(case)
    return code, out, err.getvalue()


def _render_stdout(case: dict) -> tuple[int | None, str]:
    if "hadamard" in case:
        spec, name, order = case["hadamard"]
        cfg = VerifyConfig(hadamard=_similarity(name, order))
        report = verify_critical_realizability(parse_spectrum(spec), cfg)
        return None, serialize.canonical_json(serialize.realizability_record(report)) + "\n"
    if "critical_points" in case:
        try:
            crit = critical_points(parse_spectrum(case["critical_points"]))
            record = {"critical": serialize.spectrum_record(crit)}
        except NonConvergenceError as err:
            record = {"error": str(err)}
        return None, serialize.canonical_json(record) + "\n"
    buf = io.StringIO()
    code = run(case["argv"], out=buf)
    text = re.sub(r"^wall clock: .* s$", "wall clock: <elided> s", buf.getvalue(), flags=re.M)
    return code, text


def capture() -> dict:
    records = {}
    for case in CASES:
        code, stdout, stderr = render(case)
        records[case["id"]] = {"exit": code, "stdout": stdout, "stderr": stderr}
    return records


def changed_records(old: dict, new: dict) -> list[str]:
    """Ids in both fixtures that differ in a field the old record has."""
    return [
        cid
        for cid, rec in old.items()
        if cid in new and any(new[cid][key] != value for key, value in rec.items())
    ]


def main(argv: list[str]) -> None:
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    records = capture()
    unnamed = sorted(set(changed_records(old, records)) - set(argv))
    if unnamed:
        sys.exit(
            "not written: output changed in records not named on the command "
            "line:\n  " + "\n  ".join(unnamed)
        )
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} records to {FIXTURE}")


if __name__ == "__main__":
    main(sys.argv[1:])
