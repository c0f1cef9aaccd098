"""Command-line surface: parsing, dispatch, exit codes, output formats."""

import io
import json
import math
import re
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import load_bench, run_fresh
from critspec import (
    NumericError,
    ParseError,
    check_necessary_conditions,
    harness,
    spectrum,
    verify_critical_realizability,
)
from critspec.cli import format_complex, parse_complex, parse_spectrum, run
from critspec.serialize import canonical_json
from critspec.spectra import _allowance


GOLDEN = Path(__file__).parent / "golden" / "corpus.json"


# Neither critical point has an exact conjugate: no real matrix certifies.
NOT_SELF_CONJUGATE = "3,-1+0.00000000001i,-1-0.000000000011i"


# A near-cluster list: its critical points have a negative trace.
ROW_ONE = (
    "1,-3.949974194071795e-11+0.9999999999762622i,"
    "-3.949974194071795e-11-0.9999999999762622i,-1"
)


def run_capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3 + 0j),
            ("-2/3", -2 / 3 + 0j),
            ("+1/2", 0.5 + 0j),
            ("1+2i", 1 + 2j),
            ("1-i", 1 - 1j),
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("1/2-3/4i", 0.5 - 0.75j),
            ("1e-3+2.5e2i", 0.001 + 250j),
            ("1e+3i", 1000j),
            (" 1.5 ", 1.5 + 0j),
        ],
    )
    def test_valid(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize(
        "text", ["", "abc", "1+2", "3/0", "1//2", "i2", "inf", "1e400", "1e400i"]
    )
    def test_invalid(self, text):
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_rational_rounded_once(self):
        # Exact rational conversion then one rounding, not two.
        assert parse_complex("1/3").real == float(1) / 3

    def test_unicode_minus_accepted(self):
        assert parse_complex("−2/3").real == pytest.approx(-2 / 3)


class TestParseSpectrum:
    def test_comma_separated(self):
        s = parse_spectrum("3,-1,-1")
        assert s.entries == (3 + 0j, -1 + 0j, -1 + 0j)

    def test_file_input(self, tmp_path):
        f = tmp_path / "spec.txt"
        f.write_text("1+2i\n1-2i\n-1/3\n")
        s = parse_spectrum(f"@{f}")
        assert len(s) == 3

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_spectrum("@/no/such/file")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_spectrum(",,")


class TestCheckCommand:
    def test_pass_exit_zero(self):
        code, out = run_capture(["check", "3,-1,-1"])
        assert code == 0
        assert "overall:                 pass" in out

    def test_self_conjugacy_violation_exit_one(self):
        code, out = run_capture(["check", "1,i"])
        assert code == 1
        assert "FAIL" in out

    def test_human_summary_names_the_failing_checks(self):
        # s_1 = s_3 = -1 of 1,-1,-1 fail, and so does s_1**3 <= 9 * s_3:
        # every cell with k and m odd, m > 1, fails in exact arithmetic.
        code, out = run_capture(["check", "1,-1,-1"])
        report = check_necessary_conditions(parse_spectrum("1,-1,-1"))
        ks = [k for k in range(1, report.moment_depth + 1) if not report.moment_passed[k - 1]]
        kms = [
            (k, m)
            for k in range(1, report.jll_depth + 1)
            for m in range(1, report.jll_depth + 1)
            if not report.jll_passed[k - 1, m - 1]
        ]
        assert ks == [1, 3, 5, 7, 9, 11]
        assert kms == [
            (1, 3), (1, 5), (1, 7), (3, 3), (3, 5), (3, 7), (5, 3), (5, 5), (5, 7), (7, 3),
            (7, 5), (7, 7),
        ]
        assert code == 1
        assert f"FAIL at k={ks}\n" in out
        assert f"FAIL at (k,m)={kms}\n" in out

    def test_every_odd_moment_fails_at_depth_40(self):
        # s_k = -1 at every odd k, and no allowance reaches 1.
        code, out = run_capture(["check", "1,-1,-1", "--kmax", "40"])
        assert code == 1
        assert f"FAIL at k={list(range(1, 40, 2))}\n" in out

    def test_machine_format(self):
        code, out = run_capture(["check", "3,-1,-1", "--format", "machine"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check"
        assert doc["report"]["overall"] is True
        assert len(doc["report"]["moment_checks"]) == 12

    def test_malformed_spectrum_exit_two(self):
        code, _ = run_capture(["check", "3,oops"])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_power_sums_past_the_double_range_get_a_verdict(self, capsys, fmt):
        # A Suleimanova list, so every check holds in exact arithmetic.
        # s_5**8 leaves the double range, but the checks are graded at
        # unit scale, where nothing does.
        code, out = run_capture(["check", "3e8,-1e8,-1e8", "--format", fmt])
        assert code == 0
        assert capsys.readouterr().err == ""
        if fmt == "human":
            assert "FAIL" not in out
            assert out.endswith("overall:                 pass\n")
        else:
            report = json.loads(out)["report"]
            assert report["overall"] is True
            assert all(c["passed"] for c in report["moment_checks"] + report["jll_checks"])


def _moment_columns(out):
    """critical's machine moment table as (trace, direct) complex arrays."""
    rows = json.loads(out)["report"]["moments"]
    return tuple(
        np.array([complex(row[key]["re"], row[key]["im"]) for row in rows])
        for key in ("trace", "direct")
    )


def _cross_check_allowance(n, rho, k):
    """hunt's moment cross-check allowance, _allowance(32 * eps, n, rho, k)."""
    return _allowance(32 * np.finfo(float).eps, n, rho, k)


class TestCriticalCommand:
    def test_golden_case(self):
        code, out = run_capture(
            ["critical", "1,1,-2/3,-2/3,-2/3", "--format", "machine"]
        )
        assert code == 0
        doc = json.loads(out)
        got = [complex(z["re"], z["im"]) for z in doc["report"]["critical"]]
        want = [1, 1 / 3, -2 / 3, -2 / 3]
        assert all(abs(a - b) < 1e-9 for a, b in zip(sorted(got, key=lambda z: -z.real),
                                                     sorted(want, reverse=True)))

    def test_moment_table_has_both_routes(self):
        code, out = run_capture(["critical", "3,-1,-1", "--format", "machine"])
        doc = json.loads(out)
        moments = doc["report"]["moments"]
        assert moments[0]["k"] == 1
        for row in moments:
            t = complex(row["trace"]["re"], row["trace"]["im"])
            d = complex(row["direct"]["re"], row["direct"]["im"])
            assert abs(t - d) <= 1e-6 * max(1.0, abs(t), abs(d))

    def test_formula_column_pinned(self):
        # Monov's determinant printed s'_38 = -4.42e9 here, having lost every
        # digit past k = 35.  tr(B**k) keeps the moments positive and within
        # hunt's cross-check allowance of the direct column to k = 40.
        code, out = run_capture(
            ["critical", "3,-1,-1", "--kmax", "40", "--format", "machine"]
        )
        assert code == 0
        trace, direct = _moment_columns(out)
        k = np.arange(1, 41)
        assert np.all(trace.real > 0) and np.all(trace.imag == 0)
        assert np.all(np.abs(trace - direct) <= _cross_check_allowance(3, 3.0, k))

    def test_singleton_exit_two(self):
        code, _ = run_capture(["critical", "5"])
        assert code == 2

    def test_overflowing_literal_exit_two(self):
        code, out = run_capture(["critical", "1e400,1"])
        assert code == 2
        assert out == ""

    def test_100_entries_overflow_the_formula_exit_three(self, capsys):
        # Monov's determinant of these 100 entries left the double range at
        # k = 131 of the default 400, an exit 3; tr(B**k) stays finite.
        values = np.random.default_rng(0).standard_normal(100)
        code, out = run_capture(
            ["critical", "--format", "machine", "--", ",".join(repr(float(x)) for x in values)]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        trace, direct = _moment_columns(out)
        assert len(trace) == 400
        assert np.all(np.isfinite(trace)) and np.all(np.isfinite(direct))

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_nonfinite_formula_exits_three(self, capsys, fmt):
        # Moments that truly leave the double range: s'_4 is about 9e400.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_capture(["critical", "3e100,-1e100,-1e100", "--format", fmt])
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: moment k=4 of the critical points is not finite in double precision\n"

    def test_trace_column_has_no_false_negative_moment(self):
        # Over hunt-ensemble lists, no trace cell is negative beyond hunt's
        # cross-check allowance where the direct cell is not; the determinant
        # column did so on 6 of 100 lists at n = 8 and 75 of 100 at n = 16.
        for n in (5, 8, 12, 16, 24, 32):
            for ensemble in harness.ENSEMBLES:
                for i in range(5):
                    seed = np.random.SeedSequence([1, n, i])
                    lam, _ = harness.random_realizable(n, seed, ensemble)
                    literal = ",".join(f"{z.real!r}{z.imag:+.17g}i" for z in lam)
                    code, out = run_capture(["critical", "--format", "machine", "--", literal])
                    assert code == 0
                    trace, direct = _moment_columns(out)
                    k = np.arange(1, len(trace) + 1)
                    allowance = _cross_check_allowance(n, lam.spectral_radius, k)
                    false = (trace.real < -allowance) & (direct.real >= 0)
                    assert not false.any(), (n, ensemble, i, np.flatnonzero(false) + 1)

    def test_no_command_takes_a_determinant(self, monkeypatch):
        def det(*args, **kwargs):
            raise AssertionError("a command called np.linalg.det")

        monkeypatch.setattr(np.linalg, "det", det)
        for argv in (
            ["critical", "3,-1,-1", "--kmax", "40"],
            ["check", "3,-1,-1"],
            ["verify", "3,-1,-1"],
            ["realize", "3,-1,-1", "--route", "dcomp"],
            ["chain", "3,-1,-1", "--constants=-1"],
            ["hunt", "--n", "3-6", "--samples", "8", "--seed", "1"],
        ):
            assert run_capture(argv)[0] == 0, argv


class TestRealizeCommand:
    def test_companion_certifies_suleimanova(self):
        code, out = run_capture(["realize", "3,-1,-1", "--route", "companion"])
        assert code == 0
        assert "certified: yes" in out

    def test_dcomp_with_pivot(self):
        code, out = run_capture(
            ["realize", "3,-1,-1", "--route", "dcomp", "--format", "machine"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["sign_class"] == "nonnegative"
        rows = doc["report"]["matrix"]["rows"]
        assert rows[0][0]["re"] == pytest.approx(1 / 3)

    def test_real_dcomp_certifies_only_a_nonnegative_matrix(self):
        # The real d-companion of 2,i,-i has the critical points as its
        # spectrum but a negative entry: like every route, not certified.
        code, out = run_capture(
            ["realize", "2,i,-i", "--route", "real-dcomp", "--format", "machine"]
        )
        assert code == 1
        report = json.loads(out)["report"]
        assert report["certified"] is False
        assert report["sign_class"] == "neither"
        assert report["residual"] < 1e-15
        assert report["reason"] == "matrix is not entrywise nonnegative (sign class: neither)"

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_small_scale_sign_class_as_at_scale_one(self, fmt):
        # The d-companion of 1e-12,-1e-12,-1e-12 is 1e-12 times that of
        # 1,-1,-1: diagonal -1/3, off-diagonal 2/3, Metzler at any scale.
        argv = ["realize", "1e-12,-1e-12,-1e-12", "--route", "dcomp", "--format", fmt]
        code, out = run_capture(argv)
        assert code == 1
        if fmt == "human":
            assert "\nsign class: metzler\n" in out
        else:
            assert json.loads(out)["report"]["sign_class"] == "metzler"

    def test_real_dcomp_refuses_a_nearly_paired_list(self, capsys):
        # 1+i and 1-1.0000000001i are no conjugate pair: no real matrix has
        # this spectrum.
        code, out = run_capture(
            ["realize", "2,1+1i,1-1.0000000001i,-1", "--route", "real-dcomp"]
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: list is not self-conjugate\n"

    def test_circulant_route_failure_reason(self):
        code, out = run_capture(
            ["realize", "1,1,-2/3,-2/3,-2/3", "--route", "circulant", "--format", "machine"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["report"]["certified"] is False
        assert "arrangement" in doc["report"]["reason"]

    def test_pivot_only_with_dcomp(self, capsys):
        code, out = run_capture(["realize", "3,-1,-1", "--route", "companion", "--pivot", "2"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: --pivot applies only to --route dcomp\n"

    def test_complex_companion_not_certified(self):
        # p'/n of a list that is not self-conjugate has complex coefficients.
        code, out = run_capture(
            ["realize", NOT_SELF_CONJUGATE, "--route", "companion", "--format", "machine"]
        )
        assert code == 1
        report = json.loads(out)["report"]
        assert report["certified"] is False
        assert report["sign_class"] is None
        assert "complex" in report["reason"]

    def test_certificate_shown_with_rounding_negatives_set_to_zero(self):
        # p'/n of this list has a constant term of -3.7e-17, the companion's
        # one negative entry; the certificate has 0.0 in its place.
        argv = ["realize", "0.1441462938961887,0,-0.14414629389618874", "--route", "companion"]
        code, out = run_capture([*argv, "--format", "machine"])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["sign_class"] == "nonnegative"
        rows = report["matrix"]["rows"]
        assert all(cell["re"] >= 0 and cell["im"] == 0 for row in rows for cell in row)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["verify", "2,-1,-1"], "  [ 0  1 ]\n  [ 1  0 ]\n"),
            (["verify", "0,0"], "  [ 0 ]\n"),
            (["realize", "0,0", "--route", "companion"], "  [ 0 ]\n"),
        ],
    )
    def test_certificate_zeros_print_unsigned(self, argv, rows):
        # The companion of p'/n has -0.0 entries here; a certificate has +0.0.
        code, out = run_capture(argv)
        assert code == 0
        assert out.endswith(rows)
        assert "-0 " not in out

    @pytest.mark.parametrize("route", ["companion", "dft"])
    def test_clamp_beyond_rounding_does_not_certify(self, route):
        # Lambda' is about 2.7e-4 * {1, w, w**2} and its exact trace is
        # -5.9e-11.  The candidate's entries of -2e-11 and -5.9e-11 are not
        # rounding, and set to +0.0 they gave a matrix for another list
        # that passed a backward error of 1e-10.
        argv = ["realize", ROW_ONE, "--route", route]
        code, out = run_capture(argv)
        assert code == 1
        assert "sign class: metzler\n" in out and "certified: no\n" in out
        code, out = run_capture(["verify", ROW_ONE])
        assert code == 1
        assert "verdict: condition-violation" in out and "succeeded" not in out

    def test_dft_route_succeeds_on_symmetric_list(self):
        code, out = run_capture(["realize", "3,-1,-1", "--route", "dft", "--format", "machine"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["matrix"]["order"] == 2


class TestVerifyCommand:
    def test_certified_exit_zero(self):
        code, out = run_capture(["verify", "3,-1,-1"])
        assert code == 0
        assert "verdict: certified" in out

    def test_not_self_conjugate_list_uncertified(self):
        code, out = run_capture(["verify", NOT_SELF_CONJUGATE])
        assert code == 1
        assert "verdict: conditions-hold-uncertified" in out

    def test_uncertified_exit_one(self):
        code, out = run_capture(["verify", "1,1,-2/3,-2/3,-2/3"])
        assert code == 1
        assert "conditions-hold-uncertified" in out

    def test_machine_report_structure(self):
        code, out = run_capture(["verify", "3,-1,-1", "--format", "machine"])
        doc = json.loads(out)
        names = [r["name"] for r in doc["report"]["routes"]]
        assert names == ["companion", "d-companion", "dft-circulant", "hadamard"]
        assert doc["report"]["verdict"] == "certified"

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_power_sums_past_the_double_range_get_a_verdict(self, capsys, fmt):
        # s_40 of the critical points leaves the double range; graded at
        # unit scale, every condition holds, as it does exactly.
        code, out = run_capture(["verify", "3e8,-1e8,-1e8", "--format", fmt])
        assert capsys.readouterr().err == ""
        if fmt == "human":
            assert "FAIL" not in out
            assert "overall:                 pass\n" in out
            assert "verdict: condition-violation" not in out
        else:
            report = json.loads(out)["report"]
            conditions = report["conditions"]
            assert conditions["overall"] is True
            checks = conditions["moment_checks"] + conditions["jll_checks"]
            assert all(c["passed"] for c in checks)
            assert report["verdict"] != "condition-violation"
        assert code in (0, 1)

    def test_34_entries_get_a_verdict(self):
        # Solving p'/n of these 34 entries stalls, and the order-33 route
        # candidates are past charpoly's order limit; verify needs neither.
        rng = np.random.default_rng(5)
        v = sorted(rng.uniform(-1, 0, 33))
        lam = [-sum(v) + 0.5] + v
        argv = ["verify", ",".join(repr(float(x)) for x in lam), "--format", "machine"]
        code, out = run_capture(argv)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["verdict"] == "certified"
        oracle = load_bench("oracle")
        crit = [complex(z["re"], z["im"]) for z in report["critical"]]
        want = oracle.critical_points_of_list(lam)
        bound = 8 * len(lam) * np.finfo(float).eps * (1 + max(map(abs, lam)))
        assert oracle.pairing_distance(crit, want) <= bound

    def test_100_entries_get_a_verdict(self):
        # Solving p'/n of these stalls.  Their spectral radius is not a
        # critical point: the critical point of largest modulus is negative.
        values = np.random.default_rng(0).standard_normal(100)
        code, out = run_capture(["verify", ",".join(repr(float(x)) for x in values)])
        assert code == 1
        assert "verdict: condition-violation" in out


class TestNearTheDoubleRange:
    """Lists near the double range exit 3 with one error line and no warning."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "1e308,1e308"),
            ("realize", "1e308,1e308", "--route", "companion"),
            ("realize", "1e308,1e308,1e308", "--route", "dft"),
            ("chain", "1e200,-1e200", "--constants=-1"),
            ("critical", "1e300,-1e300,1"),
            # n**(m-1) of the power-sum grid leaves the double range.
            ("check", "3,-1,-1", "--jll", "700"),
            ("verify", "4,-1,-1,-1", "--jll", "700"),
            ("hunt", "--n", "4", "--samples", "1", "--jll", "700"),
        ],
        ids=" ".join,
    )
    def test_exit_three_with_one_error_line(self, argv):
        # A fresh interpreter, so each warning would print as it would for a user.
        proc = run_fresh("-m", "critspec", *argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_chain_names_nonfinite_coefficients(self, capsys):
        # The antiderivative's coefficients overflow; the error names that.
        assert run_capture(["chain", "1e200,-1e200", "--constants=-1"]) == (3, "")
        assert capsys.readouterr().err == "error: polynomial has non-finite coefficients\n"

    def test_library_raises_numeric_error_with_warnings_as_errors(self):
        # The trace 2e308 of the list is past the double range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="trace of the list"):
                verify_critical_realizability([1e308, 1e308])

    def test_verify_gets_a_verdict_where_the_moments_overflow(self):
        # s'_3 of the critical points +-1e300/sqrt(3) is past the double
        # range.  The battery grades it at unit scale, where every
        # condition holds, as it does exactly; no route certifies, since
        # the list's polynomial overflows.
        proc = run_fresh("-m", "critspec", "verify", "1e300,-1e300,1")
        assert (proc.returncode, proc.stderr) == (1, "")
        assert "overall:                 pass\n" in proc.stdout
        assert proc.stdout.endswith("verdict: conditions-hold-uncertified\n")


class TestDepthTooLarge:
    """A depth whose arrays could not be held ends in one error line and no
    output, not a traceback.  On two or more entries the power-sum grid's
    n**(m-1) leaves the double range, which is tested before any array of
    the depth's size is allocated; otherwise numpy refuses the allocation
    up front, and the command exits 2."""

    RANGE = "power-sum inequality at depth 1000000 on {} entries leaves the double range"
    CASES = [
        ("check 3,-1,-1 --jll 1000000", 3, RANGE.format(3)),
        ("hunt --n 5 --samples 1 --jll 1000000", 3, RANGE.format(4)),
        ("check 5 --jll 1000000", 2, "out of memory: Unable to allocate"),
        ("verify 3,-1,-1 --kmax 100000000000", 2, "out of memory: Unable to allocate"),
    ]

    @pytest.mark.parametrize("argv,code,error", CASES, ids=[c[0] for c in CASES])
    def test_one_error_line(self, argv, code, error, capsys):
        for fmt in ("human", "machine"):
            assert run_capture([*argv.split(), "--format", fmt]) == (code, "")
            err = capsys.readouterr().err
            assert err.startswith(f"error: {error}") and err.count("\n") == 1, err


class TestSubnormalScale:
    """A list whose spectral radius is subnormal is certified, as the same
    list at 1e-300 is, with every printed number finite and no warning."""

    LIST = "1e-310,-4e-311,-4e-311"

    @staticmethod
    def _run(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_capture(argv)
        assert (code, capsys.readouterr().err) == (0, "")
        return out

    def test_verify_human(self, capsys):
        out = self._run(["verify", self.LIST], capsys)
        assert "\nverdict: certified\n" in out
        assert "d-companion    succeeded (backward error 0.000e+00)" in out
        assert not re.search(r"\b(nan|inf)\b", out)

    def test_verify_machine(self, capsys):
        doc = json.loads(self._run(["verify", self.LIST, "--format", "machine"], capsys))
        assert doc["report"]["verdict"] == "certified"

        def numbers(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [x for child in node for x in numbers(child)]
            return [node] if isinstance(node, float) else []

        assert numbers(doc) and all(math.isfinite(x) for x in numbers(doc))

    @pytest.mark.parametrize("route", ["dcomp", "dft"])
    def test_realize_certifies(self, route, capsys):
        out = self._run(["realize", self.LIST, "--route", route], capsys)
        assert "spectrum backward error: 0.000e+00\ncertified: yes\n" in out


class TestRealizeAgreesWithVerify:
    LISTS = (
        "3,-1,-1",
        "1,-1,-1",
        "2,i,-i",
        "1,1,-2/3,-2/3,-2/3",
        "4,1+i,1-i,-1",
        "5,-1,-1,-1,-1,1/2",
        "1,1,1,1,1,1,1,1",
        NOT_SELF_CONJUGATE,
    )
    ROUTES = {"companion": "companion", "dcomp": "d-companion", "dft": "dft-circulant"}

    @pytest.mark.parametrize("text", LISTS)
    def test_realize_certifies_exactly_when_verify_route_succeeds(self, text):
        # A certificate's residual is its own backward error, as in verify.
        report = verify_critical_realizability(parse_spectrum(text))
        routes = {r.name: r for r in report.routes}
        for route, name in self.ROUTES.items():
            code, out = run_capture(["realize", text, "--route", route, "--format", "machine"])
            assert (code == 0) == routes[name].succeeded, (route, code)
            if code == 0:
                assert json.loads(out)["report"]["residual"] == routes[name].residual, route

    @pytest.mark.parametrize("route", ["companion", "dcomp", "dft", "real-dcomp"])
    def test_realize_solves_the_candidate_spectrum_once(self, route, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M)
            return spectrum(M)

        monkeypatch.setattr(harness, "spectrum", counting)
        assert run_capture(["realize", "3,-1,-1", "--route", route])[0] == 0
        assert len(calls) == 1


class TestBadTolerance:
    # No command takes --tol: every verdict is graded at one constant
    # (spectra._CHECK_TOL), so argparse rejects the flag at any value.
    COMMANDS = [
        ["check", "3,-1,-1"],
        ["critical", "3,-1,-1"],
        ["realize", "3,-1,-1", "--route", "companion"],
        ["verify", "1,-1,-1"],
        ["hunt", "--n", "3", "--samples", "2"],
        ["chain", "3,-1,-1", "--constants=-1"],
    ]

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_exit_two_without_output(self, argv, tol, capsys):
        for fmt in ("human", "machine"):
            buf = io.StringIO()
            with pytest.raises(SystemExit) as exc:
                run(argv + [f"--tol={tol}", "--format", fmt], out=buf)
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err
            assert buf.getvalue() == ""


class TestModuleEntryPoint:
    def test_python_m_critspec_runs_the_cli(self):
        proc = run_fresh("-m", "critspec", "verify", "3,-1,-1")
        assert proc.returncode == 0
        assert "verdict: certified" in proc.stdout


class TestImportFootprint:
    def test_commands_and_hunts_load_no_scipy(self):
        # scipy serves only pairing_residual's assignment fallback, which
        # none of these calls reaches; a fresh interpreter must not pay
        # for importing it.
        code = textwrap.dedent(
            f"""
            import io, sys
            import critspec
            import critspec.cli
            from critspec import HuntConfig, hunt
            from critspec.cli import run

            sys.path.insert(0, {str(GOLDEN.parent)!r})
            from capture import ENSEMBLES, LISTS, REALIZE_ROUTES

            run(["chain", "3,-1,-1", "--constants=-1,-1"], out=io.StringIO())
            for spec in LISTS:
                run(["check", spec], out=io.StringIO())
                run(["critical", spec], out=io.StringIO())
                run(["verify", spec, "--format", "machine"], out=io.StringIO())
                for route in REALIZE_ROUTES:
                    run(["realize", spec, "--route", route], out=io.StringIO())
            for seed in (1, 2):
                for ensemble in ENSEMBLES:
                    hunt(HuntConfig(3, 8, samples=50, seed=seed, ensemble=ensemble))
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestHuntCommand:
    def test_small_hunt(self):
        code, out = run_capture(
            ["hunt", "--n", "3-4", "--samples", "20", "--seed", "3", "--format", "machine"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["samples"] == 20
        assert doc["report"]["alarm_count"] == 0
        assert doc["config"]["n_min"] == 3 and doc["config"]["n_max"] == 4

    def test_determinism_bytes(self):
        argv = ["hunt", "--n", "4", "--samples", "15", "--seed", "8", "--format", "machine"]
        _, a = run_capture(argv)
        _, b = run_capture(argv)
        assert a == b

    def test_bad_range_exit_two(self):
        code, _ = run_capture(["hunt", "--n", "x", "--samples", "5"])
        assert code == 2

    def test_order_8_passes_the_moment_cross_check(self):
        # Sample 3's s'_24 is where Monov's determinant was 1.9e-5 off and
        # stopped this hunt with exit 3; tr(B**k) keeps its digits.
        code, out = run_capture(["hunt", "--n", "8", "--samples", "40", "--seed", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ensemble: dense-uniform  seed: 1  samples: 40  orders: 8..8"
        assert lines[1].endswith("alarms: 0")

    def test_order_40_completes(self):
        # Solving p'/n of the first sample used to stall here (exit 3).
        code, out = run_capture(["hunt", "--n", "40", "--samples", "2", "--seed", "1"])
        assert code == 0
        assert out.splitlines()[1] == "certified: 0  uncertified: 2  alarms: 0"

    def test_order_64_completes(self, capsys):
        # Moments past k = 200 of the order-63 critical points leave the
        # double range; the battery and the cross-check grade them at
        # unit scale, where they stay bounded.
        code, out = run_capture(["hunt", "--n", "64", "--samples", "2", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out.splitlines()[1].endswith("alarms: 0")


class TestChainCommand:
    def test_nonpositive_constants_exit_zero(self):
        # Values starting with '-' use the --flag=value form.
        code, out = run_capture(["chain", "3,-1,-1", "--constants=-1,0,-0.5"])
        assert code == 0
        assert "all companion-nonnegative: yes" in out

    def test_positive_constant_exit_one(self):
        code, out = run_capture(["chain", "3,-1,-1", "--constants", "0.5"])
        assert code == 1

    def test_bad_start_exit_two(self):
        code, _ = run_capture(["chain", "1,2", "--constants=-1"])
        assert code == 2

    def test_tolerance_reaches_the_sign_class(self):
        # The step's companion has one entry of -4e-4 beside entries up to
        # 12: negative at the sign test's 1e-9 * 12.
        argv = ["chain", "3,-1,-1", "--constants=0.0001"]
        code, out = run_capture(argv)
        assert code == 1
        assert "companion sign class: neither" in out

    def test_leading_negative_spectrum_after_separator(self):
        code, out = run_capture(["check", "--", "-1,-1,3"])
        assert code == 0


class TestRepeatedRuns:
    """Consecutive in-process runs share nothing but their code."""

    def test_verify_option_does_not_leak(self):
        _, first = run_capture(["verify", "3,-1,-1", "--kmax", "3", "--format", "machine"])
        _, second = run_capture(["verify", "3,-1,-1", "--format", "machine"])
        assert json.loads(first)["config"]["kmax"] == 3
        assert json.loads(second)["config"]["kmax"] is None

    def test_hunt_seed_does_not_leak(self):
        argv = ["hunt", "--n", "3", "--samples", "2", "--format", "machine"]
        _, first = run_capture(argv + ["--seed", "2"])
        _, second = run_capture(argv)
        assert json.loads(first)["config"]["seed"] == 2
        assert json.loads(second)["config"]["seed"] == 0

    def test_argparse_error_exits_two_again(self):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                run_capture(["verify", "3,-1,-1", "--kmax", "x"])
            assert info.value.code == 2


class TestMachineFormat:
    def test_reserialization_byte_identical(self):
        # Every machine-format record of the golden corpus; tests/test_golden.py
        # checks that each one is what its command prints today.
        corpus = json.loads(GOLDEN.read_text(encoding="utf-8"))
        machine = {
            case: record["stdout"]
            for case, record in corpus.items()
            if "--format machine" in case or case.startswith("library ")
        }
        # Input errors print nothing; every other record is one document.
        printed = {case.split()[0] for case, out in machine.items() if out}
        assert printed == {"check", "critical", "verify", "realize", "hunt", "chain", "library"}
        for case, out in machine.items():
            if out:
                assert canonical_json(json.loads(out)) + "\n" == out, case

    def test_float_rendering_roundtrips(self):
        _, out = run_capture(["critical", "1,1,-2/3,-2/3,-2/3", "--format", "machine"])
        doc = json.loads(out)
        vals = [z["re"] for z in doc["input"]["spectrum"]]
        assert vals.count(-2 / 3) == 3

    def test_format_complex_shortest(self):
        assert format_complex(1 / 3) == "0.3333333333333333"
        assert format_complex(1 + 2j) == "1.0+2.0i"
        assert format_complex(-1j) == "-1.0i"
