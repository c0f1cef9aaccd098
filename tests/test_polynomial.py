"""Polynomial construction, calculus normalizations, and root finding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    load_bench,
    random_complex_list,
    random_self_conjugate,
    random_suleimanova,
)
from critspec import (
    MonicPolynomial,
    NonConvergenceError,
    NumericError,
    antiderivative_monic,
    as_spectrum,
    charpoly,
    critical_points,
    derivative_monic,
    evaluate,
    from_roots,
    multiset_equal,
    pairing_residual,
    random_realizable,
    roots,
)
from critspec import harness, polynomial
from critspec.harness import ENSEMBLES

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
        # A mixed-scale list whose p'/n the polish cannot bring within the
        # residual bound; the error carries the best residual reached.
        p = derivative_monic(from_roots([700, 0.0031, 3.5, -0.032, -7.4, 0.0022]))
        bound = polynomial._ROOT_TOL * (1.0 + max(abs(c) for c in p.coeffs))
        with pytest.raises(NonConvergenceError) as info:
            roots(p)
        assert info.value.best_residual > bound
        assert f"{info.value.best_residual:.3e}" in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("degree", [3, 99])
    def test_nonfinite_coefficients_fail_without_warning(self, bad, degree):
        # LAPACK rejects the companion matrix; the roots come back NaN and
        # the residual test reports them, with nothing else to stderr.
        p = MonicPolynomial((bad,) + (0.0,) * (degree - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError) as info:
                roots(p)
        assert np.isnan(info.value.best_residual)


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

    def test_double_root_polished_to_one_side_stays_exact(self):
        # The polish leaves both copies of the double critical point 3 some
        # 7e-8 to 9e-8 below it, farther from the refined root than twice
        # their spread; the collapse still certifies and takes that root.
        lam = as_spectrum([0, 3, -3, 0, 2, 3, 3, 0])
        want = oracle.critical_points_of_list(lam)
        assert oracle.scaled_error(critical_points(lam), want) <= 1e-12

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


def _polish_every_step(x, cdesc, iters=24):
    """The Newton polish as it ran before its exact-cycle exit: all iters steps."""
    dcdesc = polynomial._deriv_desc(cdesc)
    best = x.copy()
    fv, dfv = np.polyval(cdesc, best), np.polyval(dcdesc, best)
    best_res = np.abs(fv)
    cur = x.copy()
    for _ in range(iters):
        safe = np.where(dfv == 0, 1.0, dfv)
        cur = cur - np.where(dfv == 0, 0.0, fv / safe)
        fv, dfv = np.polyval(cdesc, cur), np.polyval(dcdesc, cur)
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


def _polyval_calls(monkeypatch):
    """A list that grows by one entry per np.polyval call from now on."""
    calls = []
    polyval = np.polyval

    def counted(*args):
        calls.append(None)
        return polyval(*args)

    monkeypatch.setattr(np, "polyval", counted)
    return calls


def _longest_cycle(p, iters=24):
    """The longest cycle the points of p's polish settle into within iters steps.

    A point's cycle length is the distance from its first repeated state
    back to the earlier state it equals; 0 means some point never repeats.
    """
    cdesc = p.descending()
    dcdesc = polynomial._deriv_desc(cdesc)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = [polynomial._companion_eigenvalues(cdesc)]
        for _ in range(iters):
            fv, dfv = np.polyval(cdesc, states[-1]), np.polyval(dcdesc, states[-1])
            safe = np.where(dfv == 0, 1.0, dfv)
            states.append(states[-1] - np.where(dfv == 0, 0.0, fv / safe))
    lengths = np.zeros(states[0].shape, dtype=int)
    for t in range(1, iters + 1):
        equal = np.array(states[:t]) == states[t]
        first = equal.any(axis=0) & (lengths == 0)
        lengths[first] = (t - np.argmax(equal, axis=0))[first]
    return int(lengths.max()) if lengths.all() else 0


def _verify_polynomials():
    """The polynomials verify solved on seeded order-8 lists before it took
    the critical points from the compression and certified by backward error.

    For each list: p'/n and the characteristic polynomials of the route
    candidates that pass their sign checks, built here the same way.
    """
    polys = []
    cfg = harness.VerifyConfig()
    rng = np.random.default_rng(8)
    for i in range(240):
        if i % 3 == 0:
            lam = random_suleimanova(rng, 8)
        else:
            ensemble = "circulant-nonnegative" if i % 3 == 1 else ENSEMBLES[i % 4]
            lam = random_realizable(8, rng, ensemble)[0]
        dp = derivative_monic(from_roots(lam))
        built = [harness._build_route(name, build, lam, dp, cfg) for name, build in harness._ROUTES]
        polys += [dp] + [charpoly(M) for M in built if isinstance(M, np.ndarray)]
    return polys


class TestPolishExit:
    """The polish stops at the first repeated state and returns what 24 steps return."""

    @staticmethod
    def _assert_polish_unchanged(ps):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for p in ps:
                cdesc = p.descending()
                start = polynomial._companion_eigenvalues(cdesc)
                got = polynomial._newton_polish(start, cdesc)
                want = _polish_every_step(start, cdesc)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), p

    def test_bit_corpus_unchanged(self):
        self._assert_polish_unchanged([from_roots(lam) for lam in _bit_corpus() if len(lam) >= 2])

    def test_ensemble_derivatives_unchanged(self):
        self._assert_polish_unchanged(list(_ensemble_derivatives()))

    def test_verify_batches_in_long_cycles_unchanged(self):
        # Polynomials whose points settle into 3- to 21-cycles, which an exit
        # on fixed points and 2-cycles alone ran for all 24 steps.
        ps = _verify_polynomials()
        longest = {_longest_cycle(p) for p in ps}
        assert set(range(3, 18)) | {19, 20, 21} <= longest
        self._assert_polish_unchanged(ps)

    def test_exit_fires_once_every_point_repeats(self, monkeypatch):
        settled = [p for p in _verify_polynomials() if _longest_cycle(p) >= 3]
        assert len(settled) > 100
        calls = _polyval_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for p in settled:
                cdesc = p.descending()
                start = polynomial._companion_eigenvalues(cdesc)
                calls.clear()
                polynomial._newton_polish(start, cdesc)
                # Two evaluations to start and two per step taken.
                assert len(calls) < 50

    def test_exit_fires_on_simple_roots(self, monkeypatch):
        cdesc = from_roots([3.0, -1.0, 0.5, 2.0 + 1.0j, 2.0 - 1.0j]).descending()
        start = polynomial._companion_eigenvalues(cdesc)
        calls = _polyval_calls(monkeypatch)
        x = polynomial._newton_polish(start, cdesc)
        assert len(calls) < 50
        assert np.max(np.abs(np.polyval(cdesc, x))) < 1e-13

    def test_nonfinite_rows_run_every_step(self, monkeypatch):
        # LAPACK rejects the companion matrix of a coefficient row with NaN
        # or inf, so every root starts as NaN, which never equals itself:
        # the polish takes all 24 steps.
        calls = _polyval_calls(monkeypatch)
        for bad in (np.nan, np.inf):
            cdesc = MonicPolynomial((1.0, bad, 0.0)).descending()
            start = polynomial._companion_eigenvalues(cdesc)
            assert np.isnan(start).all()
            calls.clear()
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                polynomial._newton_polish(start, cdesc)
            assert len(calls) == 50
