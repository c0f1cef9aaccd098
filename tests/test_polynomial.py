"""Polynomial construction, calculus normalizations, and root finding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench, random_complex_list, random_self_conjugate
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
    random_realizable,
    roots,
)
from critspec import polynomial
from critspec.harness import ENSEMBLES
from critspec.polynomial import roots_batch

oracle = load_bench("oracle")


def _repeated_small_integers(rng, n):
    """n integers from -3..3, the last a copy of an earlier one."""
    vals = rng.integers(-3, 4, n - 1).astype(float)
    return as_spectrum(np.append(vals, vals[rng.integers(n - 1)]))


def _real_derivatives():
    """p'/n of seeded hunt draws and repeated small integers, n = 3..11."""
    for n in range(3, 12):
        for ensemble in ENSEMBLES:
            for s in range(10):
                rng = np.random.default_rng(np.random.SeedSequence([n, s]))
                yield derivative_monic(from_roots(random_realizable(n, rng, ensemble)[0]))
        rng = np.random.default_rng(n)
        for _ in range(10):
            yield derivative_monic(from_roots(_repeated_small_integers(rng, n)))


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

    def test_real_coefficients_give_exactly_self_conjugate_roots(self):
        # The real companion matrix returns exact conjugate pairs and
        # exactly real roots, and Newton steps on p keep them so.
        solved = 0
        for p in _real_derivatives():
            assert all(c.imag == 0 for c in p.coeffs)
            try:
                got = roots(p)
            except NonConvergenceError:
                continue
            solved += 1
            assert got.conjugate().entries == got.entries, p
        assert solved >= 440

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
        # The degree-99 derivative overflows in the Newton polish; its
        # residual must fail the acceptance test, not pass it.
        with pytest.raises(NumericError):
            critical_points(np.random.default_rng(0).standard_normal(100))

    def test_nan_residual_warns_nothing(self):
        # Overflow inside the iteration is expected; only the error reports it.
        lam = np.random.default_rng(0).standard_normal(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergenceError):
                critical_points(lam)

    def test_repeated_small_integers_match_oracle(self):
        for n in range(3, 9):
            rng = np.random.default_rng([5, n])
            for _ in range(20):
                lam = _repeated_small_integers(rng, n)
                want = oracle.critical_points_of_list(lam)
                assert oracle.scaled_error(critical_points(lam), want) <= 1e-7, lam

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


class TestFusedEvaluation:
    """The one-pass p, p' evaluation equals np.polyval bit for bit."""

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


def _alone(p, tol=1e-10):
    """roots(p), or the NonConvergenceError it raises."""
    try:
        return roots(p, tol=tol)
    except NonConvergenceError as err:
        return err


def _assert_same(got, ref):
    """Same roots bit for bit, or the same error message and best residual."""
    if isinstance(ref, NonConvergenceError):
        assert isinstance(got, NonConvergenceError), got
        assert str(got) == str(ref)
        assert np.array_equal(
            np.float64(got.best_residual), np.float64(ref.best_residual), equal_nan=True
        )
    else:
        assert isinstance(got, SpectrumList), got
        assert np.array_equal(
            np.array(got.entries).view(float), np.array(ref.entries).view(float)
        )


class TestBatchedRoots:
    """A batched solve gives every row exactly its single-call result."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    def test_rows_match_single_solves(self, tol):
        corpus = list(_bit_corpus())
        for n in range(1, 17):
            ps = [from_roots(lam) for lam in corpus[5 * (n - 1) : 5 * n]]
            alone = [_alone(p, tol) for p in ps]
            for size in range(1, 5):
                for start in range(len(ps)):
                    pick = [(start + i) % len(ps) for i in range(size)]
                    got = roots_batch([ps[i] for i in pick], tol=tol)
                    assert len(got) == size
                    for row, i in zip(got, pick):
                        _assert_same(row, alone[i])

    def test_failing_rows_beside_converging_ones(self):
        # From n = 6 on, the mixed-scale shape fails at the default tolerance.
        corpus = list(_bit_corpus())
        ps = [from_roots(lam) for lam in corpus[5 * 7 : 5 * 8]]
        alone = [_alone(p) for p in ps]
        assert any(isinstance(r, NonConvergenceError) for r in alone)
        assert any(isinstance(r, SpectrumList) for r in alone)
        for row, ref in zip(roots_batch(ps), alone):
            _assert_same(row, ref)

    def test_nan_row_beside_converging_ones(self):
        # LAPACK rejects a companion matrix with a NaN or inf entry; those
        # rows get NaN roots and fail alone, without a warning.
        ps = [
            MonicPolynomial((-1.0,) + (0.0,) * 98),
            MonicPolynomial((1.0,) + (np.nan,) + (0.0,) * 97),
            MonicPolynomial((-0.5,) + (0.0,) * 97 + (0.25,)),
            MonicPolynomial((np.inf,) + (0.0,) * 98),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alone = [_alone(p) for p in ps]
            batched = roots_batch(ps)
        assert [isinstance(r, NonConvergenceError) for r in alone] == [False, True, False, True]
        assert np.isnan(alone[1].best_residual) and np.isnan(alone[3].best_residual)
        for row, ref in zip(batched, alone):
            _assert_same(row, ref)

    def test_degree_one_rows(self):
        # p'/n of a two-entry list, and the 1x1 characteristic polynomials.
        ps = [derivative_monic(from_roots([3.0, -1.0])), MonicPolynomial((-1.0,))]
        ps.append(MonicPolynomial((2.0 - 1.0j,)))
        got = roots_batch(ps)
        for row, p in zip(got, ps):
            _assert_same(row, _alone(p))
        assert got[0].entries == (1.0,)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            roots_batch([MonicPolynomial((1.0,)), MonicPolynomial((1.0, 0.0))])

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            roots_batch([MonicPolynomial((1.0,))], tol=0.0)


def _polish_every_step(x, value_and_slope, iters=24):
    """The Newton polish as it ran before its exact-cycle exit: all iters steps."""
    best = x.copy()
    fv, dfv = value_and_slope(best)
    best_res = np.abs(fv)
    cur = x.copy()
    for _ in range(iters):
        safe = np.where(dfv == 0, 1.0, dfv)
        cur = cur - np.where(dfv == 0, 0.0, fv / safe)
        fv, dfv = value_and_slope(cur)
        res = np.abs(fv)
        better = res < best_res
        np.copyto(best, cur, where=better)
        np.copyto(best_res, res, where=better)
    return best


def _ensemble_derivatives():
    """p'/n of seeded draws from the four hunt ensembles, n = 3..16."""
    for n in range(3, 17):
        for ensemble in ENSEMBLES:
            for s in range(4):
                rng = np.random.default_rng(np.random.SeedSequence([n, s, 7]))
                yield derivative_monic(from_roots(random_realizable(n, rng, ensemble)[0]))


def _counting(value_and_slope):
    """The evaluator, and a list that grows by one entry per call."""
    calls = []

    def counted(x):
        calls.append(None)
        return value_and_slope(x)

    return counted, calls


class TestPolishExit:
    """The polish stops at the first exact cycle and returns what 24 steps return."""

    @staticmethod
    def _assert_polish_unchanged(ps):
        # Polished alone and as one batch per degree, as roots_batch runs it.
        by_degree = {}
        for p in ps:
            by_degree.setdefault(p.degree, []).append(p)
        batches = [[p] for p in ps] + list(by_degree.values())
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for batch in batches:
                cdesc = np.array([p.descending() for p in batch])
                start = polynomial._companion_eigenvalues(cdesc)
                value_and_slope = polynomial._value_and_slope(cdesc)
                got = polynomial._newton_polish(start, value_and_slope)
                want = _polish_every_step(start, value_and_slope)
                assert np.array_equal(got.view(float), want.view(float), equal_nan=True)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bit_corpus_unchanged(self):
        self._assert_polish_unchanged(
            [from_roots(lam) for lam in _bit_corpus() if len(lam) >= 2]
        )

    def test_ensemble_derivatives_unchanged(self):
        self._assert_polish_unchanged(list(_ensemble_derivatives()))

    def test_exit_fires_on_simple_roots(self):
        cdesc = from_roots([3.0, -1.0, 0.5, 2.0 + 1.0j, 2.0 - 1.0j]).descending()[None]
        value_and_slope, calls = _counting(polynomial._value_and_slope(cdesc))
        x = polynomial._newton_polish(polynomial._companion_eigenvalues(cdesc), value_and_slope)
        assert len(calls) < 25
        assert np.max(np.abs(np.polyval(cdesc[0], x[0]))) < 1e-13

    def test_nonfinite_rows_run_every_step(self, monkeypatch):
        # NaN never equals itself, so a batch with a NaN or inf row takes all
        # 24 steps; each such row still fails alone, without a warning.
        counted = []
        original = polynomial._value_and_slope

        def value_and_slope(cdesc):
            evaluator, calls = _counting(original(cdesc))
            counted.append(calls)
            return evaluator

        monkeypatch.setattr(polynomial, "_value_and_slope", value_and_slope)
        for bad in (np.nan, np.inf):
            ps = [
                MonicPolynomial((-1.0, 0.0, 0.0)),
                MonicPolynomial((1.0, bad, 0.0)),
                MonicPolynomial((-6.0, 11.0, -6.0)),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                alone = [_alone(p) for p in ps]
                batched = roots_batch(ps)
            assert [isinstance(r, NonConvergenceError) for r in batched] == [False, True, False]
            for row, ref in zip(batched, alone):
                _assert_same(row, ref)
            # Three single solves, then the batch.
            assert len(counted[0]) < 25 and len(counted[2]) < 25
            assert len(counted[1]) == len(counted[3]) == 25
            counted.clear()
