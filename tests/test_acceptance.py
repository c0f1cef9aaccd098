"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line (visible
with ``pytest -s`` or on failure).  Tolerances and runtime budgets are
pinned here and must not be loosened.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from conftest import random_complex_list, random_self_conjugate, random_suleimanova
from critspec import (
    MatrixSignClass,
    antiderivative_chain,
    antiderivative_monic,
    as_spectrum,
    classify,
    companion,
    critical_moment,
    critical_points,
    d_companion,
    derivative_monic,
    dft_matrix,
    from_roots,
    hadamard_similarity,
    interlaces,
    is_differentiator,
    is_trace_vector,
    jll_pair_equivalence,
    matrix_sign_class,
    pairing_residual,
    power_sums,
    principal_submatrix,
    real_d_companion,
    spectrum,
    unit_vector,
)
from critspec.cli import run


@contextlib.contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    else:
        print(f"PASS  {label}")


def run_machine(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


GOLDEN = [1, 1, -2 / 3, -2 / 3, -2 / 3]
GOLDEN_CRITICAL = [1, 1 / 3, -2 / 3, -2 / 3]


def test_criterion_01_golden_critical_points():
    with verdict("criterion 1: golden critical points and derivative coefficients"):
        # Library route.
        crit = critical_points(GOLDEN)
        assert pairing_residual(crit, GOLDEN_CRITICAL, 1e-9) <= 1e-9
        dp = derivative_monic(from_roots(GOLDEN))
        exact = (4 / 27, -4 / 27, -1.0, 0.0)
        assert max(abs(a - b) for a, b in zip(dp.coeffs, exact)) <= 1e-12
        # CLI route.
        code, out = run_machine(["critical", "1,1,-2/3,-2/3,-2/3", "--format", "machine"])
        assert code == 0
        doc = json.loads(out)
        got = [complex(z["re"], z["im"]) for z in doc["report"]["critical"]]
        assert pairing_residual(got, GOLDEN_CRITICAL, 1e-9) <= 1e-9
        # Runtime, measured warm and in-process.
        start = time.perf_counter()
        crit = critical_points(GOLDEN)
        code, _ = run_machine(["critical", "1,1,-2/3,-2/3,-2/3", "--format", "machine"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 0.1, f"runtime {elapsed:.3f}s exceeds 0.1s"


def test_criterion_02_monov_oracle_suite():
    with verdict("criterion 2: Monov moments (tr(B^k)) vs direct, 2000 lists"):
        rng = np.random.default_rng(20260814)
        start = time.perf_counter()
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            lam = random_self_conjugate(rng, n)
            crit = critical_points(lam)
            direct = power_sums(crit, 10)
            for k in range(1, 11):
                a = complex(direct[k - 1])
                b = critical_moment(lam, k)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)), (
                    f"k={k} lam={list(lam)}: direct {a} vs formula {b}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_03_closed_form_moments():
    with verdict("criterion 3: closed forms for the first two critical moments"):
        rng = np.random.default_rng(3)
        for i in range(1000):
            n = int(rng.integers(2, 9))
            lam = (
                random_self_conjugate(rng, n)
                if i % 2 == 0
                else random_complex_list(rng, n)
            )
            s = power_sums(lam, 2)
            s1, s2 = complex(s[0]), complex(s[1])
            want1 = (n - 1) / n * s1
            want2 = (n - 2) / n * s2 + s1 * s1 / n**2
            assert abs(critical_moment(lam, 1) - want1) <= 1e-10
            assert abs(critical_moment(lam, 2) - want2) <= 1e-10


def test_criterion_04_jll_equivalence_concordance():
    with verdict("criterion 4: power-sum inequality equivalence never discordant"):
        # At n = 2 the critical-side inequality degenerates to an exact
        # equality, so the equivalence is only meaningful from n = 3 up.
        rng = np.random.default_rng(4)
        for i in range(1000):
            n = int(rng.integers(3, 9))
            if i % 3 == 0:
                lam = random_complex_list(rng, n)
            elif i % 3 == 1:
                lam = random_self_conjugate(rng, n)
            else:
                lam = as_spectrum(rng.uniform(-2, 2, n))
            a, b = jll_pair_equivalence(lam)
            assert a == b, f"discordant on {list(lam)}"


def test_criterion_05_d_companion_suite():
    with verdict("criterion 5: d-companion spectra, nonnegativity, Metzler"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            kind = rng.integers(0, 3)
            if kind == 0:
                lam = random_complex_list(rng, n)
            elif kind == 1:
                # Real list with (n-1)*min + max >= 0.
                top = float(rng.uniform(1.0, 3.0))
                rest = rng.uniform(-top / (n - 1), top, n - 1)
                lam = as_spectrum(list(rest) + [top])
            else:
                # Real list with a dominant top entry, pivot = max.
                top = float(rng.uniform(0.5, 3.0))
                rest = rng.uniform(-top, top, n - 1)
                lam = as_spectrum(list(rest) + [top])
            crit = critical_points(lam)
            for pivot in range(1, n + 1):
                A = d_companion(lam, pivot=pivot)
                assert pairing_residual(spectrum(A), crit, 1e-7) <= 1e-7
            if kind == 1:
                assert matrix_sign_class(d_companion(lam)) is MatrixSignClass.NONNEGATIVE
            elif kind == 2:
                assert matrix_sign_class(d_companion(lam)) in (
                    MatrixSignClass.NONNEGATIVE,
                    MatrixSignClass.METZLER,
                )


def test_criterion_06_real_d_companion():
    with verdict("criterion 6: real d-companion realness and spectrum"):
        from critspec import SpectrumList

        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            base = random_self_conjugate(rng, n)
            lam = SpectrumList(base.entries + (float(rng.uniform(-2, 2)),))
            A = real_d_companion(lam)
            assert np.max(np.abs(np.asarray(A, dtype=complex).imag)) <= 1e-10
            assert pairing_residual(spectrum(A), critical_points(lam), 1e-7) <= 1e-7
        # Worked case.
        A = real_d_companion([2, 1j, -1j])
        assert pairing_residual(spectrum(A), [1, 1 / 3], 1e-10) <= 1e-10


def test_criterion_07_malamud_circulant():
    with verdict("criterion 7: Hadamard similarity and circulant submatrices"):
        from critspec import circulant

        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            lam = random_complex_list(rng, n)
            crit = critical_points(lam)
            A = hadamard_similarity(lam, dft_matrix(n))
            for i in range(1, n + 1):
                sub = principal_submatrix(A, i)
                assert pairing_residual(spectrum(sub), crit, 1e-7) <= 1e-7
        for _ in range(500):
            n = int(rng.integers(2, 9))
            C = circulant(rng.random(n))
            lam = spectrum(C)
            crit = critical_points(lam)
            for i in range(1, n + 1):
                sub = principal_submatrix(C, i)
                assert pairing_residual(spectrum(sub), crit, 1e-7) <= 1e-7


def test_criterion_08_pereira_equivalence():
    with verdict("criterion 8: trace-vector and differentiator verdicts agree"):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z = unit_vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            assert is_differentiator(A, z) == is_trace_vector(A, z)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            D = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
            z = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
            assert is_trace_vector(D, z)
            assert is_differentiator(D, z)


def test_criterion_09_suleimanova_pipeline():
    with verdict("criterion 9: Suleimanova spectra through the whole pipeline"):
        rng = np.random.default_rng(9)
        for i in range(500):
            n = int(rng.integers(2, 9))
            lam = random_suleimanova(rng, n)
            p = from_roots(lam)
            dp = derivative_monic(p)
            assert matrix_sign_class(companion(p)) is MatrixSignClass.NONNEGATIVE
            assert matrix_sign_class(companion(dp)) is MatrixSignClass.NONNEGATIVE
            crit = critical_points(lam)
            assert classify(crit, tol=1e-8).suleimanova
            if n >= 2:
                assert interlaces(lam, crit, tol=1e-8)
            if i % 25 == 0:
                chain = antiderivative_chain(p, [-0.4, 0.0])
                assert chain.all_nonnegative
                broken = antiderivative_chain(p, [0.3])
                assert not broken.all_nonnegative


def test_criterion_10_hunt_regression():
    with verdict("criterion 10: hunt n=5, 2000 samples, zero alarms, deterministic"):
        argv = [
            "hunt",
            "--n", "5",
            "--samples", "2000",
            "--seed", "42",
            "--ensemble", "dense-uniform",
            "--format", "machine",
        ]
        start = time.perf_counter()
        code1, out1 = run_machine(argv)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        assert code1 == 0
        doc = json.loads(out1)
        assert doc["report"]["samples"] == 2000
        assert doc["report"]["alarm_count"] == 0
        code2, out2 = run_machine(argv)
        assert code2 == 0
        assert out1 == out2, "machine report is not byte-identical across runs"
