"""Polynomial construction, calculus normalizations, and root finding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_list, random_self_conjugate
from critspec import (
    MonicPolynomial,
    NonConvergenceError,
    NumericError,
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
