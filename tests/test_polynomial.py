"""Polynomial construction, calculus normalizations, and root finding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_list, random_self_conjugate
from critspec import (
    MonicPolynomial,
    NonConvergenceError,
    NumericError,
    SpectrumList,
    antiderivative_monic,
    as_spectrum,
    critical_points,
    derivative_monic,
    evaluate,
    from_roots,
    multiset_equal,
    pairing_residual,
    roots,
)
from critspec import polynomial


class TestConstruction:
    def test_from_roots_quadratic(self):
        p = from_roots([3, -1])
        # (t-3)(t+1) = t**2 - 2t - 3
        assert p.coeffs == (-3 + 0j, -2 + 0j)

    def test_golden_quintic_expansion(self):
        p = from_roots([1, 1, -2 / 3, -2 / 3, -2 / 3])
        expected = (8 / 27, 20 / 27, -10 / 27, -5 / 3, 0.0)
        assert max(abs(a - b) for a, b in zip(p.coeffs, expected)) < 1e-14

    def test_self_conjugate_coefficients_exactly_real(self):
        p = from_roots([2, 1 + 2j, 1 - 2j])
        assert all(c.imag == 0 for c in p.coeffs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_roots([])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            MonicPolynomial(())

    def test_evaluate(self):
        p = from_roots([1, 2])
        assert evaluate(p, 3) == pytest.approx(2.0)
        assert evaluate(p, 1) == pytest.approx(0.0)


class TestCalculus:
    def test_derivative_golden(self):
        p = from_roots([1, 1, -2 / 3, -2 / 3, -2 / 3])
        dp = derivative_monic(p)
        expected = (4 / 27, -4 / 27, -1.0, 0.0)
        assert max(abs(a - b) for a, b in zip(dp.coeffs, expected)) < 1e-12

    def test_derivative_of_linear_rejected(self):
        with pytest.raises(ValueError):
            derivative_monic(MonicPolynomial((1.0,)))

    def test_antiderivative_worked_case(self):
        # p = t**2 - (2/3)t - 5/3 with c = -1 gives t**3 - t**2 - 5t - 3
        p = MonicPolynomial((-5 / 3, -2 / 3))
        q = antiderivative_monic(p, c=-1.0)
        expected = (-3.0, -5.0, -1.0)
        assert max(abs(a - b) for a, b in zip(q.coeffs, expected)) < 1e-14

    def test_antiderivative_inverts_derivative(self):
        p = MonicPolynomial((0.5, -1.5, 0.25))
        q = antiderivative_monic(p, c=0.7)
        assert q.degree == p.degree + 1
        back = derivative_monic(q)
        assert max(abs(a - b) for a, b in zip(back.coeffs, p.coeffs)) < 1e-14

    def test_chain_default_constant(self):
        # t**2 - t integrated with c = 0: t**3 - 1.5 t**2
        p = MonicPolynomial((0.0, -1.0))
        q = antiderivative_monic(p)
        assert q.coeffs == (0j, 0j, -1.5 + 0j)

    @given(st.integers(2, 9))
    @settings(max_examples=30, deadline=None)
    def test_degree_bookkeeping(self, n):
        rng = np.random.default_rng(n)
        p = MonicPolynomial(tuple(rng.normal(size=n)))
        assert derivative_monic(p).degree == n - 1
        assert antiderivative_monic(p).degree == n + 1


class TestRoots:
    def test_linear(self):
        assert roots(MonicPolynomial((3.0,))).entries == (-3 + 0j,)

    def test_simple_real_roots(self):
        got = roots(from_roots([3, -1, 0.5]))
        assert multiset_equal(got, [3, -1, 0.5], 1e-12)

    def test_golden_double_root_to_machine_precision(self):
        # The derivative of the quintic has a double root at -2/3; plain
        # simultaneous iteration only gets about 1e-8 there, so this is
        # the test that the cluster collapse earns its keep.
        got = critical_points([1, 1, -2 / 3, -2 / 3, -2 / 3])
        assert pairing_residual(got, [1, 1 / 3, -2 / 3, -2 / 3], 1e-9) < 1e-12

    def test_triple_root(self):
        got = roots(from_roots([0.5, 0.5, 0.5, -1]))
        assert multiset_equal(got, [0.5, 0.5, 0.5, -1], 1e-10)

    def test_all_roots_at_zero(self):
        got = roots(MonicPolynomial((0.0, 0.0, 0.0, 0.0, 0.0)))
        assert max(abs(z) for z in got) < 1e-10

    def test_close_but_distinct_roots_not_merged(self):
        sep = 1e-5
        target = [1.0, 1.0 + sep, -0.5]
        got = roots(from_roots(target))
        assert pairing_residual(got, target, 1e-7) < 1e-9

    def test_complex_conjugate_roots(self):
        target = [2, 0.5 + 1.5j, 0.5 - 1.5j, -1]
        got = roots(from_roots(target))
        assert multiset_equal(got, target, 1e-10)

    def test_large_coefficient_scaling(self):
        target = [100.0, -50.0, 25.0]
        got = roots(from_roots(target))
        assert pairing_residual(got, target, 1e-6) < 1e-9

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            roots(MonicPolynomial((1.0, 1.0)), tol=0.0)

    def test_random_reconstruction_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            target = random_complex_list(rng, n)
            got = roots(from_roots(target))
            assert pairing_residual(got, target, 1e-8) < 1e-8

    def test_self_conjugate_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            target = random_self_conjugate(rng, n)
            got = roots(from_roots(target))
            assert pairing_residual(got, target, 1e-8) < 1e-8
            # Roots of a real polynomial come back self-conjugate.
            assert multiset_equal(got, got.conjugate(), 1e-10)

    def test_residual_reported_on_failure(self):
        # Absurdly tight tolerance cannot be met; the error carries the
        # best residual reached.
        p = from_roots(random_complex_list(np.random.default_rng(3), 8, scale=3.0))
        with pytest.raises(NonConvergenceError) as info:
            roots(p, tol=1e-300)
        assert info.value.best_residual is not None
        assert info.value.best_residual > 0


class TestCriticalPoints:
    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            critical_points([1.0])

    def test_nan_residual_raises(self):
        # The degree-99 derivative overflows to NaN in the root finder;
        # a NaN residual must fail the acceptance test, not pass it.
        with pytest.raises(NumericError):
            critical_points(np.random.default_rng(0).standard_normal(100))

    def test_nan_residual_warns_nothing(self):
        # Overflow inside the iteration is expected; only the error reports it.
        lam = np.random.default_rng(0).standard_normal(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergenceError):
                critical_points(lam)

    def test_gauss_lucas_containment(self):
        # Critical points lie in the convex hull of the roots; the
        # bounding disc is a cheap proxy.
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            lam = random_complex_list(rng, n)
            crit = critical_points(lam)
            assert len(crit) == n - 1
            assert crit.spectral_radius <= lam.spectral_radius + 1e-9

    def test_real_list_gives_interlacing_critical_points(self):
        from critspec import interlaces

        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            lam = sorted(rng.uniform(-3, 3, n), reverse=True)
            crit = critical_points(lam)
            assert interlaces(lam, crit, tol=1e-8)


def _polyval_aberth(cdesc, max_sweeps):
    """Aberth sweeps with separate np.polyval calls for p and p'."""
    eps = np.finfo(float).eps
    deg = len(cdesc) - 1
    radius = 1.0 + float(np.max(np.abs(cdesc[1:])))
    j = np.arange(deg)
    x = radius * np.exp(1j * (2.0 * np.pi * j / deg + np.pi / (2.0 * deg)))
    dc = polynomial._deriv_desc(cdesc)
    absc = np.abs(cdesc)
    for _ in range(max_sweeps):
        pv = np.polyval(cdesc, x)
        noise = 4.0 * eps * np.polyval(absc, np.abs(x))
        done = np.abs(pv) <= noise
        if done.all():
            break
        dpv = np.polyval(dc, x)
        dpv = np.where(dpv == 0, eps, dpv)
        w = pv / dpv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * repulsion
        denom = np.where(np.abs(denom) < 1e-12, 1.0, denom)
        delta = np.where(done, 0.0, w / denom)
        cap = 0.5 * (1.0 + np.abs(x))
        mag = np.abs(delta)
        delta = np.where(mag > cap, delta * (cap / np.where(mag == 0, 1.0, mag)), delta)
        x = x - delta
        if np.max(np.abs(delta) / (1.0 + np.abs(x))) <= 4.0 * eps:
            break
    return x


def _polyval_polish(cdesc, x, iters=24):
    """Newton polish with three np.polyval calls per step."""
    dc = polynomial._deriv_desc(cdesc)
    best = x.copy()
    best_res = np.abs(np.polyval(cdesc, best))
    cur = x.copy()
    for _ in range(iters):
        fv = np.polyval(cdesc, cur)
        dfv = np.polyval(dc, cur)
        safe = np.where(dfv == 0, 1.0, dfv)
        cur = cur - np.where(dfv == 0, 0.0, fv / safe)
        res = np.abs(np.polyval(cdesc, cur))
        better = res < best_res
        best[better] = cur[better]
        best_res[better] = res[better]
    return best


def _polyval_roots(p, tol=1e-10):
    """roots() on the np.polyval loops: the exact reference for the fused pass."""
    if p.degree == 1:
        return SpectrumList((-p.coeffs[0],))
    cdesc = p.descending()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _polyval_aberth(cdesc, 500)
        x = _polyval_polish(cdesc, x)
        x = polynomial._collapse_root_clusters(cdesc, x)
        x = polynomial._realify_near_real(cdesc, x)
        worst = float(np.max(np.abs(np.polyval(cdesc, x))))
    scale = 1.0 + max(abs(c) for c in p.coeffs)
    if not worst <= tol * scale:
        raise NonConvergenceError("reference stalled", best_residual=worst)
    return SpectrumList(tuple(x))


def _bit_corpus():
    """Seeded lists of length 1..16 in five shapes."""
    rng = np.random.default_rng(2024)
    for n in range(1, 17):
        yield rng.standard_normal(n)
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)
        triple = np.repeat(rng.uniform(-2, 2, (n + 2) // 3), 3)[:n]
        yield triple
        yield rng.integers(-3, 4, n).astype(float)
        yield rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)


def _outcome(solve):
    """The roots from solve() as float bits, or the best residual of its failure."""
    try:
        return np.array(solve().entries, dtype=complex).view(float)
    except NonConvergenceError as err:
        return np.array([err.best_residual])


class TestFusedEvaluation:
    """The one-pass p, p' evaluation leaves every bit of roots unchanged."""

    def test_evaluator_matches_polyval(self):
        rng = np.random.default_rng(31)
        for deg in range(2, 17):
            for scale in (1e-4, 1.0, 1e4):
                a = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                x = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                cdesc = np.concatenate(([1.0 + 0j], scale * a))
                pv, dpv = polynomial._value_and_slope(cdesc)(scale * x)
                ref_p = np.polyval(cdesc, scale * x)
                ref_d = np.polyval(polynomial._deriv_desc(cdesc), scale * x)
                assert np.array_equal(pv.view(float), ref_p.view(float))
                assert np.array_equal(dpv.view(float), ref_d.view(float))

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    def test_roots_and_residuals_unchanged(self, tol):
        # tol=1e-300 fails almost every call, so best_residual is compared.
        for lam in _bit_corpus():
            p = from_roots(lam)
            got = _outcome(lambda: roots(p, tol=tol))
            ref = _outcome(lambda: _polyval_roots(p, tol=tol))
            assert np.array_equal(got, ref, equal_nan=True), lam

    def test_critical_points_unchanged(self):
        for lam in _bit_corpus():
            if len(lam) > 1:
                got = _outcome(lambda: critical_points(lam))
                ref = _outcome(lambda: _polyval_roots(derivative_monic(from_roots(lam))))
                assert np.array_equal(got, ref, equal_nan=True), lam

    def test_nan_residual_unchanged(self):
        p = derivative_monic(from_roots(np.random.default_rng(0).standard_normal(100)))
        got = _outcome(lambda: roots(p))
        ref = _outcome(lambda: _polyval_roots(p))
        assert np.isnan(got).all() and np.array_equal(got, ref, equal_nan=True)
