"""Power sums, critical moments, Monov's determinant, and the condition battery."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import random_complex_list, random_self_conjugate, random_suleimanova
from critspec import (
    ENSEMBLES,
    NumericError,
    as_spectrum,
    check_necessary_conditions,
    critical_moment,
    critical_moments,
    critical_points,
    jll_pair_equivalence,
    monov_det,
    power_sums,
    random_realizable,
    trace_moments,
)
from critspec.moments import _grade_moments


class TestPowerSums:
    def test_known_values(self):
        s = power_sums([3, -1, -1], 3)
        assert s[0] == pytest.approx(1.0)
        assert s[1] == pytest.approx(11.0)
        assert s[2] == pytest.approx(25.0)

    def test_complex_entries(self):
        s = power_sums([1j, -1j], 4)
        assert s[0] == pytest.approx(0.0)
        assert s[1] == pytest.approx(-2.0)
        assert s[2] == pytest.approx(0.0)
        assert s[3] == pytest.approx(2.0)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            power_sums([1, 2], 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            power_sums([], 3)


class TestMonovDet:
    def test_order_one_is_s1(self):
        assert monov_det([3, -1, -1], 1) == pytest.approx(1.0)

    def test_order_two_worked_case(self):
        # s1**2 - 2n s2 = 1 - 66 = -65
        assert monov_det([3, -1, -1], 2) == pytest.approx(-65.0)

    def test_zero_list_vanishes(self):
        for k in range(1, 6):
            assert abs(monov_det([0, 0, 0, 0], k)) < 1e-12

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            monov_det([1, 2], 0)

    def test_needs_two_entries(self):
        for lam in ([], [1.0]):
            with pytest.raises(ValueError):
                monov_det(lam, 1)

    def test_within_bound_of_mpmath_determinant(self):
        # The k x k determinant itself, at 60 digits, is the reference;
        # monov_det is within k * n * eps * n**k * rho**k of it.
        def reference(lam, k):
            with mpmath.workdps(60):
                z = [mpmath.mpc(x) for x in lam]
                s = [mpmath.fsum(w**j for w in z) for j in range(1, k + 1)]
                M = mpmath.matrix(k, k)
                for i in range(k):
                    M[i, 0] = (i + 1) * s[i]
                    if i + 1 < k:
                        M[i, i + 1] = len(z)
                    for j in range(1, i + 1):
                        M[i, j] = s[i - j]
                return complex(mpmath.det(M))

        rng = np.random.default_rng(36)
        makers = (random_complex_list, random_self_conjugate, random_suleimanova)
        for i in range(42):
            n = 2 + i % 7
            lam = makers[i % 3](rng, n)
            if i % 4 == 0:
                lam = as_spectrum(np.array(lam.entries) * 10.0 ** int(rng.integers(-3, 4)))
            rho = lam.spectral_radius
            for k in range(1, 9):
                bound = k * n * np.finfo(float).eps * (n * rho) ** k
                assert abs(monov_det(lam, k) - reference(lam.entries, k)) <= bound, (lam, k)

    def test_past_the_double_range_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = monov_det([3, -1, -1], 700)
        assert not np.isfinite(d)


class TestCriticalMoment:
    def test_worked_case(self):
        assert critical_moment([3, -1, -1], 1) == pytest.approx(2 / 3)
        assert critical_moment([3, -1, -1], 2) == pytest.approx(34 / 9)

    def test_closed_form_first_two(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            lam = random_complex_list(rng, n)
            s = power_sums(lam, 2)
            s1, s2 = complex(s[0]), complex(s[1])
            assert critical_moment(lam, 1) == pytest.approx(
                (n - 1) / n * s1, abs=1e-10
            )
            assert critical_moment(lam, 2) == pytest.approx(
                (n - 2) / n * s2 + s1 * s1 / n**2, abs=1e-10
            )

    def test_against_computed_critical_points(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            lam = random_self_conjugate(rng, n)
            crit = critical_points(lam)
            direct = power_sums(crit, 10)
            for k in range(1, 11):
                a = complex(direct[k - 1])
                b = critical_moment(lam, k)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            critical_moment([1.0], 1)


class TestCriticalMoments:
    def test_leading_blocks_match_single_moments_exactly(self):
        # The batch is trace_moments bit for bit; a single moment takes a
        # shorter baby-step/giant-step split, so it matches entry k within
        # the prefix tolerance of trace_moments.
        for seed in range(24):
            ensemble = ENSEMBLES[seed % len(ENSEMBLES)]
            n = 3 + seed % 6
            lam, _ = random_realizable(n, seed, ensemble)
            K = 4 * n
            batch = critical_moments(lam, K)
            assert batch.shape == (K,)
            assert np.array_equal(batch, trace_moments(lam, K))
            for k in range(1, K + 1):
                single = critical_moment(lam, k)
                assert isinstance(single, complex)
                assert np.allclose(single, batch[k - 1], rtol=1e-13, atol=0)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            critical_moments([3, -1, -1], 0)
        with pytest.raises(ValueError):
            critical_moment([3, -1, -1], 0)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            critical_moments([1.0], 4)


class TestNecessaryConditions:
    def test_golden_list_passes_deep(self):
        report = check_necessary_conditions(
            [1, 1, -2 / 3, -2 / 3, -2 / 3], kmax=20, jll_depth=8
        )
        assert report.overall
        assert report.moment_depth == 20
        assert report.moment_values.shape == report.moment_passed.shape == (20,)
        assert report.jll_lhs.shape == report.jll_rhs.shape == report.jll_passed.shape == (8, 8)

    def test_golden_critical_points_pass(self):
        report = check_necessary_conditions([1, 1 / 3, -2 / 3, -2 / 3])
        assert report.overall

    def test_non_self_conjugate_fails_eq1(self):
        report = check_necessary_conditions([1, 1j])
        assert not report.self_conjugate
        assert not report.overall

    def test_radius_not_attained_fails_eq2(self):
        # Spectral radius 2 is attained only by -2, not by an entry
        # equal to rho itself.
        report = check_necessary_conditions([-2, 1, 1])
        assert not report.spectral_radius_in_list
        assert not report.overall

    def test_negative_moment_fails_eq3(self):
        report = check_necessary_conditions([-1, -1, 0.5])
        assert not report.moment_passed.all()
        assert not report.overall

    def test_jll_violation_detected(self):
        # Real lists can never violate k=1, m=2 (Cauchy-Schwarz), but a
        # dominant conjugate pair can: s2 < 0 while s1 > 0.
        report = check_necessary_conditions([1 + 2j, 1 - 2j, 0.1])
        assert not report.jll_passed[0, 1]  # k = 1, m = 2
        assert not report.overall

    def test_realizable_spectra_always_pass(self):
        rng = np.random.default_rng(23)
        from critspec import random_realizable

        for i in range(40):
            n = int(rng.integers(2, 7))
            lam, _ = random_realizable(n, int(rng.integers(0, 2**32)))
            assert check_necessary_conditions(lam).overall

    def test_default_depth_is_4n(self):
        report = check_necessary_conditions([1, -0.5, -0.5])
        assert report.moment_depth == 12

    def test_bad_depths_rejected(self):
        with pytest.raises(ValueError):
            check_necessary_conditions([1, 2], kmax=0)
        with pytest.raises(ValueError):
            check_necessary_conditions([1, 2], jll_depth=0)

    def test_power_sum_grid_past_the_double_range_raises(self):
        # 3**646 is a double and 3**647 is not.  At depth 647 the cell
        # (2, 647) is 3**646 * s_1294, about 1.8 * 1.7e308; one depth
        # less, every cell is finite.
        lam = [0.9999, -0.9999, 0.5]
        with pytest.raises(NumericError, match="depth 647 on 3 entries"):
            check_necessary_conditions(lam, kmax=1, jll_depth=647)
        # Nor does any slack: every RuntimeWarning fails the suite.
        report = check_necessary_conditions(lam, kmax=1, jll_depth=646)
        assert np.isfinite(report.unit_jll_lhs).all() and np.isfinite(report.unit_jll_rhs).all()

    def test_every_odd_moment_fails_to_depth_1023(self):
        # s_k of 1,-1,-1 is -1 at every odd k, and the allowance
        # tol * k * n * rho**k stays below 1 at every depth.
        report = check_necessary_conditions([1, -1, -1], kmax=1023)
        failed = np.flatnonzero(~report.moment_passed) + 1
        assert failed.tolist() == list(range(1, 1024, 2))

    @pytest.mark.parametrize("k", [1, 2, 29, 31, 64, 500, 1024])
    def test_planted_negative_moment_fails_at_every_depth(self, k):
        # At unit scale every moment is at most n * rho**k; one of size
        # rho**k planted negative at k fails however deep the grading.
        n, rho = 4, 0.999
        s = n * rho ** np.arange(1, 1025, dtype=float) + 0j
        s[k - 1] = -(rho**k)
        for depth in (k, min(k + 1, 1024), 1024):
            moment_ok = _grade_moments(s, n, rho, depth, 1)[0]
            assert not moment_ok[k - 1]
            assert moment_ok.sum() == depth - 1


class TestJllPairEquivalence:
    def test_concordant_on_random_lists(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            lam = (
                random_self_conjugate(rng, n)
                if rng.random() < 0.5
                else random_complex_list(rng, n)
            )
            a, b = jll_pair_equivalence(lam)
            assert a == b

    def test_suleimanova_lists_hold(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            a, b = jll_pair_equivalence(random_suleimanova(rng, n))
            assert a and b

    def test_violating_list_fails_both(self):
        # Real lists satisfy s1**2 <= n*s2 automatically (Cauchy-Schwarz),
        # so a violation needs a dominant conjugate pair driving s2 < 0.
        a, b = jll_pair_equivalence([1 + 2j, 1 - 2j, 0.1])
        assert not a and not b

    def test_degenerate_order_two(self):
        # At n = 2 the critical-side margin is identically zero, so the
        # second verdict is always true; only one-sided agreement can be
        # demanded: whenever the original holds, so does the critical.
        rng = np.random.default_rng(26)
        for _ in range(100):
            lam = random_self_conjugate(rng, 2)
            a, b = jll_pair_equivalence(lam)
            assert b
            if a:
                assert b

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            jll_pair_equivalence([1.0])


def _power_sums_loop(lam, kmax):
    """Power sums as one multiply and one sum per power: the reference."""
    arr = as_spectrum(lam).as_array()
    out = np.empty(kmax, dtype=complex)
    running = np.ones_like(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(kmax):
            running = running * arr
            out[k] = running.sum()
    return out


def _grade_moments_loop(s, n, rho, depth, jll_depth, tol):
    """The battery's grader as a scalar loop over the checks: the reference.

    s and rho are at unit scale (rho < 1), as the grader takes them.
    Returns the values and pass flags of s_1..s_depth by k, then the
    cells s_k**m, n**(m-1) * s_km and their pass flags, (k, m) row-major.
    """
    values, moment_ok = [], []
    for k in range(1, depth + 1):
        tk = tol * n * k * rho**k
        v = complex(s[k - 1])
        values.append(v)
        moment_ok.append(bool(v.real >= -tk and abs(v.imag) <= tk))

    lhs, rhs, jll_ok = [], [], []
    for k in range(1, jll_depth + 1):
        for m in range(1, jll_depth + 1):
            a = float(s[k - 1].real)
            b = float(s[k * m - 1].real)
            n_pow = float(n) ** (m - 1)
            lhs.append(a**m)
            rhs.append(n_pow * b)
            slack = n_pow * (tol * n * (k * m) * rho ** (k * m))
            jll_ok.append(bool(lhs[-1] <= rhs[-1] + slack))
    return tuple(values), tuple(moment_ok), tuple(lhs), tuple(rhs), tuple(jll_ok)


def _to_unit(lam):
    """lam divided by 2**e, e the exponent of its spectral radius, and e."""
    e = math.frexp(as_spectrum(lam).spectral_radius)[1]
    return np.ldexp(np.asarray(lam, dtype=complex).view(float), -e).view(complex), e


def _at_scale(x, e):
    """x * 2**e, +-inf past the double range, for a real or complex x."""
    with np.errstate(over="ignore"):
        if isinstance(x, complex):
            return complex(np.ldexp(x.real, e), np.ldexp(x.imag, e))
        return float(np.ldexp(x, e))


def _battery_corpus():
    """Seeded lists with the depths to grade them at.

    Real, self-conjugate and structureless complex lists; mixed-scale
    lists (entries times 10**U(-4, 4)); lists with an entry near the top
    of the double range, whose moments leave it; lists with a NaN or inf
    entry, for the power sums alone; and depths other than the default 4n.
    """
    rng = np.random.default_rng(909)
    for i in range(300):
        n = int(rng.integers(1, 10))
        shape = i % 6
        if shape == 0:
            lam = rng.standard_normal(n)
        elif shape == 1:
            lam = random_self_conjugate(rng, n).as_array()
        elif shape == 2:
            lam = random_complex_list(rng, n).as_array()
        elif shape == 3:
            lam = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)
        elif shape == 4:
            lam = random_complex_list(rng, n).as_array() * 10.0 ** rng.uniform(-4, 4, n)
        else:
            lam = (rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)).astype(complex)
            lam[0] = (1e200, -1e200, 1e300j, np.nan, np.inf)[i // 6 % 5]
        depth = 4 * n if i % 4 == 0 else int(rng.integers(1, 80))
        jll_depth = 8 if i % 3 == 0 else int(rng.integers(1, 11))
        yield np.asarray(lam, dtype=complex), depth, jll_depth


def _finite_battery_corpus():
    return ((lam, d, j) for lam, d, j in _battery_corpus() if np.all(np.isfinite(lam)))


class TestBatteryReference:
    """Vectorized power sums and grading agree with the scalar loops."""

    def test_real_power_sums_bit_identical(self):
        for lam, depth, jll_depth in _battery_corpus():
            if np.any(lam.imag):
                continue
            K = max(depth, jll_depth * jll_depth)
            got = power_sums(lam, K)
            want = _power_sums_loop(lam, K)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), lam

    def test_complex_power_sums_agree_to_rounding(self):
        # The cumulative product rounds complex products differently from
        # the ufunc's multiply in the last bits.
        for lam, _, _ in _battery_corpus():
            got, want = power_sums(lam, 24), _power_sums_loop(lam, 24)
            if not np.any(lam.imag) or not np.all(np.isfinite(want)):
                continue
            scale = _power_sums_loop(np.abs(lam).astype(complex), 24).real
            assert np.all(np.abs(got - want) <= 1e-13 * scale), lam

    def test_grader_matches_scalar_loop_field_for_field(self):
        tol = 1e-9
        out_of_range = 0
        for lam, depth, jll_depth in _finite_battery_corpus():
            K = max(depth, jll_depth * jll_depth)
            unit, _ = _to_unit(lam)
            s = _power_sums_loop(unit, K)
            n = len(lam)
            rho = as_spectrum(unit).spectral_radius
            got = _grade_moments(s, n, rho, depth, jll_depth)
            _, *want = _grade_moments_loop(s, n, rho, depth, jll_depth, tol)
            # The grader's arrays are positional: moment flags by k, the
            # grids by row k and column m.
            got = tuple(tuple(x.ravel().tolist()) for x in got)
            # repr tells signed zeros apart, which == cannot.
            assert repr(got) == repr(tuple(want)), lam
            out_of_range += not np.all(np.isfinite(_power_sums_loop(lam, K)))
        # The corpus has lists whose moments leave the double range at
        # their own scale, not just once.
        assert out_of_range > 20

    def test_battery_matches_scalar_reference(self):
        # Through check_necessary_conditions: the reference grades the list
        # at unit scale, and its values come back rescaled by 2**(k*e).
        for lam, depth, jll_depth in _finite_battery_corpus():
            report = check_necessary_conditions(lam, kmax=depth, jll_depth=jll_depth)
            unit, e = _to_unit(lam)
            rho = as_spectrum(unit).spectral_radius
            s = power_sums(unit, max(depth, jll_depth * jll_depth))
            values, moment_ok, lhs, rhs, jll_ok = _grade_moments_loop(
                s, len(lam), rho, depth, jll_depth, 1e-9
            )
            degrees = [k * m for k in range(1, jll_depth + 1) for m in range(1, jll_depth + 1)]
            want = (
                tuple(_at_scale(v, k * e) for k, v in enumerate(values, 1)),
                moment_ok,
                tuple(_at_scale(x, d * e) for x, d in zip(lhs, degrees)),
                tuple(_at_scale(x, d * e) for x, d in zip(rhs, degrees)),
                jll_ok,
            )
            names = ("moment_values", "moment_passed", "jll_lhs", "jll_rhs", "jll_passed")
            got = tuple(tuple(getattr(report, a).ravel().tolist()) for a in names)
            assert repr(got) == repr(want), lam

    def test_moment_values_are_the_power_sums_of_the_list(self):
        # The exact rescaling gives the list's own power sums bit for bit
        # wherever those are finite; the others are +-inf, never NaN.
        for lam, depth, _ in _finite_battery_corpus():
            report = check_necessary_conditions(lam, kmax=depth)
            got = np.array(report.moment_values)
            want = power_sums(lam, depth)
            finite = np.isfinite(want)
            same_bits = np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))
            assert same_bits, lam
            assert not np.any(np.isnan(got.view(float))), lam
