"""Verification pipeline, random ensembles, hunt, antiderivative chains."""

import cmath
import dataclasses
import importlib.util
import inspect
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import load_bench, random_complex_list, random_self_conjugate, random_suleimanova
from critspec import (
    ENSEMBLES,
    HuntConfig,
    MatrixSignClass,
    MonicPolynomial,
    NonConvergenceError,
    NumericError,
    SpectrumList,
    VerifyConfig,
    antiderivative_chain,
    as_spectrum,
    check_necessary_conditions,
    circulant,
    companion,
    compression_critical_points,
    critical_compression,
    critical_points,
    d_companion,
    derivative_monic,
    dft_matrix,
    from_roots,
    hunt,
    matrix_sign_class,
    multiset_equal,
    pairing_residual,
    principal_submatrix,
    random_realizable,
    spectrum,
    verify_critical_realizability,
)
from critspec import differentiator, harness, moments
from critspec.cli import parse_spectrum, run
from critspec.harness import (
    _RouteFailure,
    _companion_candidate,
    _confirm_alarm,
    _dft_circulant,
    _moment_cross_check,
)
from critspec.moments import (
    ConditionReport,
    _grade_moments,
    _scaled,
    power_sums,
)
from critspec.spectra import _CHECK_TOL


class TestVerify:
    def test_certified_via_companion(self):
        report = verify_critical_realizability([3, -1, -1])
        assert report.verdict == "certified"
        comp = next(r for r in report.routes if r.name == "companion")
        assert comp.succeeded
        assert matrix_sign_class(comp.certificate) is MatrixSignClass.NONNEGATIVE

    def test_golden_quintic_uncertified(self):
        report = verify_critical_realizability([1, 1, -2 / 3, -2 / 3, -2 / 3])
        assert report.verdict == "conditions-hold-uncertified"
        assert report.conditions.overall
        assert not any(r.succeeded for r in report.routes)
        assert pairing_residual(
            report.critical, [1, 1 / 3, -2 / 3, -2 / 3], 1e-9
        ) < 1e-9

    def test_certificate_spectra_match_critical_points(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            lam, _ = random_realizable(n, int(rng.integers(0, 2**32)))
            report = verify_critical_realizability(lam)
            for r in report.routes:
                if r.succeeded:
                    assert (
                        pairing_residual(spectrum(r.certificate), report.critical, 1e-7)
                        <= 1e-7
                    )
            if report.verdict == "certified":
                assert any(r.succeeded for r in report.routes)

    def test_hadamard_route_with_supplied_matrix(self):
        # Roots of unity conjugate to a permutation-like nonnegative
        # matrix, so the Hadamard route certifies.
        w = np.exp(2j * np.pi / 3)
        cfg = VerifyConfig(hadamard=dft_matrix(3))
        report = verify_critical_realizability([1, w, w.conjugate()], cfg)
        had = next(r for r in report.routes if r.name == "hadamard")
        assert had.attempted and had.succeeded

    def test_hadamard_route_skipped_without_matrix(self):
        report = verify_critical_realizability([3, -1, -1])
        had = next(r for r in report.routes if r.name == "hadamard")
        assert not had.attempted

    def test_circulant_route_on_symmetric_list(self):
        report = verify_critical_realizability([3, -1, -1])
        dft = next(r for r in report.routes if r.name == "dft-circulant")
        assert dft.succeeded

    def test_condition_violation_verdict(self):
        # {-2, -2, 1} has critical points {0, -2}: the spectral radius
        # is not attained and the first moment is negative.
        report = verify_critical_realizability([-2, -2, 1])
        assert report.verdict == "condition-violation"
        assert not report.conditions.spectral_radius_in_list

    def test_34_entries_get_a_verdict_within_the_oracle_bound(self):
        # Solving p'/n of these 34 entries stalls, and the order-33 route
        # candidates are past charpoly's order limit; the eigenvalues of
        # the compression and the backward-error certificate need neither.
        rng = np.random.default_rng(5)
        v = sorted(rng.uniform(-1, 0, 33))
        lam = as_spectrum([-sum(v) + 0.5] + v)
        with pytest.raises(NonConvergenceError):
            critical_points(lam)
        report = verify_critical_realizability(lam)
        assert report.verdict == "certified"
        assert next(r for r in report.routes if r.name == "companion").succeeded
        oracle = load_bench("oracle")
        want = oracle.critical_points_of_list(lam.entries)
        bound = 8 * len(lam) * np.finfo(float).eps * (1 + lam.spectral_radius)
        assert oracle.pairing_distance(report.critical, want) <= bound

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            verify_critical_realizability([1.0])

    def test_companion_names_a_polynomial_past_the_double_range(self, capsys):
        # p = (t - 1e300)(t + 1e300)(t - 1) has infinite coefficients; the
        # list itself is real, so the reason is not the matrix's dtype.
        reason = "characteristic polynomial of the list is not finite in double precision"
        report = verify_critical_realizability([1e300, -1e300, 1])
        companion = next(r for r in report.routes if r.name == "companion")
        assert (companion.attempted, companion.succeeded) == (True, False)
        assert companion.reason == reason
        assert report.verdict == "conditions-hold-uncertified"
        argv = ["realize", "1e300,-1e300,1", "--route", "companion"]
        assert run(argv, out=io.StringIO()) == 3
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize(
        "values,what",
        [
            ([1e308, 1e308], "trace"),
            ([1.3e308 + 1.3e308j, 1.3e308 - 1.3e308j, -1.3e308], "spectral radius"),
        ],
    )
    def test_classes_past_the_double_range_raise_in_verify(self, values, what):
        # The report's classes are computed on first read, but verify
        # raises where classify would, so reading them never raises.
        with pytest.raises(NumericError, match=f"the {what} of the list is not finite"):
            verify_critical_realizability(values)


# 1e-11i has no exact conjugate here, so neither has either critical point:
# no real matrix has them as its spectrum.
NOT_SELF_CONJUGATE = [3, -1 + 1e-11j, -1 - 1.1e-11j]

SCALES = (1e-3, 1e-6, 1e-9, 1e-12)


def _hunt_reports(monkeypatch, config):
    """Every verify report that hunt(config) makes."""
    reports = []
    real_verify = harness.verify_critical_realizability

    def recording(lam, cfg=None):
        reports.append(real_verify(lam, cfg))
        return reports[-1]

    monkeypatch.setattr(harness, "verify_critical_realizability", recording)
    hunt(config)
    monkeypatch.undo()
    return reports


class TestCertificateRule:
    """A certificate is a real float64 matrix with no negative entry."""

    def test_not_self_conjugate_list_uncertified(self):
        report = verify_critical_realizability(NOT_SELF_CONJUGATE)
        assert report.verdict == "conditions-hold-uncertified"
        for name in ("companion", "d-companion"):
            r = next(r for r in report.routes if r.name == name)
            assert not r.succeeded and "complex" in r.reason

    def test_not_self_conjugate_list_uncertified_by_hadamard(self):
        # The image is real up to dust, but no real matrix has the spectrum.
        cfg = VerifyConfig(hadamard=dft_matrix(3))
        report = verify_critical_realizability(NOT_SELF_CONJUGATE, cfg)
        had = next(r for r in report.routes if r.name == "hadamard")
        assert had.attempted and not had.succeeded
        assert report.verdict == "conditions-hold-uncertified"

    def test_small_scale_negative_entries_do_not_certify(self):
        # The sign test's threshold -64 * n * eps * max|M| scales with the
        # candidate, so it rejects these negative entries as at scale 1.
        report = verify_critical_realizability(
            [2e-10, 1e-10 + 1e-10j, 1e-10 - 1e-10j, -2.5e-10]
        )
        assert report.verdict != "certified"

    def test_no_route_certifies_beside_a_failing_condition(self):
        # Roots of unity with each upper entry moved by a relative 1e-12 to
        # 1e-3: Lambda' is a small cluster against rho(Lambda).  Clamping
        # entries down to -1e-9 * max|M| and matching at backward error
        # 1e-10 certified the critical points of 73 of these lists while a
        # condition failed.
        rng = np.random.default_rng(5)
        for i in range(300):
            n = int(rng.integers(3, 13))
            delta = 10.0 ** rng.uniform(-12, -3)
            lam = [1.0] + ([-1.0] if n % 2 == 0 else [])
            for k in range(1, (n + 1) // 2):
                u = cmath.exp(2j * math.pi * k / n)
                u *= 1 + delta * rng.uniform(-0.5, 0.5) * (1 + 1j)
                lam += [u, u.conjugate()]
            report = verify_critical_realizability(lam)
            if not report.conditions.overall:
                assert not any(r.succeeded for r in report.routes), (i, lam)

    def test_rounding_negatives_set_to_zero(self):
        # The DFT similarity image of 1^8 has entries of -2.8e-17.
        cfg = VerifyConfig(hadamard=dft_matrix(8))
        report = verify_critical_realizability([1] * 8, cfg)
        had = next(r for r in report.routes if r.name == "hadamard")
        assert had.succeeded
        assert had.certificate.dtype == np.float64
        assert (had.certificate >= 0).all()

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_verdict_scale_invariant(self, ensemble):
        for i in range(150):
            rng = np.random.default_rng(np.random.SeedSequence([7, i]))
            lam = random_realizable(5, rng, ensemble)[0].as_array()
            want = verify_critical_realizability(lam).verdict
            for c in SCALES:
                assert verify_critical_realizability(c * lam).verdict == want, (i, c)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hunt_certificates_real_and_nonnegative(self, monkeypatch, seed):
        certified = 0
        for ensemble in ENSEMBLES:
            config = HuntConfig(3, 16, 150, seed, ensemble)
            for report in _hunt_reports(monkeypatch, config):
                for r in report.routes:
                    if r.succeeded:
                        certified += 1
                        assert r.certificate.dtype == np.float64, (ensemble, r.name)
                        assert not (r.certificate < 0).any(), (ensemble, r.name)
        assert certified > 100


def _golden_lists():
    """Every list the golden corpus runs check or verify on."""
    spec = importlib.util.spec_from_file_location(
        "golden_capture", Path(__file__).parent / "golden" / "capture.py"
    )
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    extra = (capture.NEARLY_PAIRED, capture.NOT_SELF_CONJUGATE, capture.SMALL_SCALE)
    return [parse_spectrum(text) for text in capture.LISTS + extra + capture.SCALE_EDGES]


def _condition_flags(r):
    return (
        r.self_conjugate,
        r.spectral_radius_in_list,
        r.moment_passed.tolist(),
        r.jll_passed.tolist(),
        r.overall,
    )


def _class_flags(report):
    return tuple(
        (c.suleimanova, c.generalized_suleimanova, c.ciarlet, c.dcomp_inequality)
        for c in (report.input_class, report.critical_class)
    )


def _route_outcomes(report):
    """Each route's success and the kind of its reason (the text before
    any ':'), except the companion's: p'/n's coefficients have mixed
    degree in the list, so its sign test still depends on the scale."""
    return [
        (r.name, r.succeeded, (r.reason or "").split(":")[0])
        for r in report.routes
        if r.name != "companion"
    ]


class TestScaleInvariance:
    """The checks are homogeneous and so is their tolerance: every pass
    flag of check and verify, and verify's verdict, is the same for
    c * lam as for lam, and so is the outcome of the d-companion,
    dft-circulant and hadamard (DFT matrix) routes, whose filters scale
    with the candidate; so are verify's class flags, whose tolerance
    follows the same law, for c = 10**-8 and 10**8."""

    SCALES = (1e-8, 1e-4, 0.3, 7.0, 1e4, 1e8)
    CLASS_SCALES = (1e-8, 1e8)

    def _assert_invariant(self, lam, key):
        check = _condition_flags(check_necessary_conditions(lam))
        cfg = VerifyConfig(hadamard=dft_matrix(len(lam)))
        report = verify_critical_realizability(lam, cfg)
        for c in self.SCALES:
            scaled = as_spectrum(lam.as_array() * c)
            assert _condition_flags(check_necessary_conditions(scaled)) == check, (key, c)
            got = verify_critical_realizability(scaled, cfg)
            assert got.verdict == report.verdict, (key, c)
            assert _route_outcomes(got) == _route_outcomes(report), (key, c)
            assert _condition_flags(got.conditions) == _condition_flags(report.conditions), (
                key,
                c,
            )
            if c in self.CLASS_SCALES:
                assert _class_flags(got) == _class_flags(report), (key, c)

    def test_small_scale_classes_as_at_scale_one(self):
        # An absolute tolerance put the small list in the Ciarlet and
        # d-companion classes.
        small = verify_critical_realizability([1e-10, -0.6e-10, -0.6e-10])
        unit = verify_critical_realizability([1, -0.6, -0.6])
        assert _class_flags(small) == _class_flags(unit)
        assert not small.input_class.ciarlet and not small.input_class.dcomp_inequality

    def test_small_scale_list_fails_as_at_scale_one(self):
        # The corpus' small-scale list is 1e-10 times this one, whose
        # critical points fail three conditions.  An absolute tolerance
        # passed them all at 1e-10.
        small = verify_critical_realizability(
            [2e-10, 1e-10 + 1e-10j, 1e-10 - 1e-10j, -2.5e-10]
        )
        unit = verify_critical_realizability([2, 1 + 1j, 1 - 1j, -2.5])
        assert small.verdict == unit.verdict == "condition-violation"
        assert _condition_flags(small.conditions) == _condition_flags(unit.conditions)

    def test_golden_lists(self):
        for lam in _golden_lists():
            self._assert_invariant(lam, str(lam))

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_hunt_samples(self, ensemble):
        for n in range(3, 17):
            rng = np.random.default_rng(np.random.SeedSequence([11, n]))
            self._assert_invariant(random_realizable(n, rng, ensemble)[0], n)


class TestRandomRealizable:
    def test_all_ensembles_nonnegative_and_consistent(self):
        for ensemble in ENSEMBLES:
            lam, M = random_realizable(5, 123, ensemble)
            assert matrix_sign_class(M) is MatrixSignClass.NONNEGATIVE
            assert len(lam) == 5
            assert multiset_equal(spectrum(M), lam, 1e-12)

    def test_deterministic_for_seed(self):
        a, _ = random_realizable(4, 7, "dense-uniform")
        b, _ = random_realizable(4, 7, "dense-uniform")
        assert a.entries == b.entries

    def test_row_stochastic_has_unit_perron_root(self):
        lam, M = random_realizable(6, 11, "row-stochastic")
        assert np.allclose(M.sum(axis=1), 1.0)
        assert lam.spectral_radius == pytest.approx(1.0, abs=1e-8)
        assert any(abs(z - 1.0) < 1e-8 for z in lam)

    def test_circulant_ensemble_is_circulant(self):
        _, M = random_realizable(5, 3, "circulant-nonnegative")
        for i in range(1, 5):
            assert np.allclose(M[i], np.roll(M[0], i))

    def test_perron_root_dominates(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            lam, _ = random_realizable(int(rng.integers(2, 8)), int(rng.integers(0, 2**32)))
            rho = lam.spectral_radius
            assert any(abs(z - rho) < 1e-7 for z in lam)

    def test_bad_ensemble_rejected(self):
        with pytest.raises(ValueError):
            random_realizable(3, 0, "bogus")

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            random_realizable(1, 0)


class TestSampleOverhead:
    """Fixed costs of one hunt sample, counted on one order-5 draw, so that
    per-sample overhead cannot creep back unseen."""

    def test_errstate_entries_and_power_sums_calls(self, monkeypatch):
        entered, sums = [], []
        enter = np.errstate.__enter__

        def counting_enter(self):
            # numpy's own entries (two in eigvals here) depend on its version.
            if sys._getframe(1).f_globals["__name__"].startswith("critspec"):
                entered.append(sys._getframe(1).f_code.co_name)
            return enter(self)

        monkeypatch.setattr(np.errstate, "__enter__", counting_enter)
        power_sums = moments.power_sums
        for module in (moments, harness):
            monkeypatch.setattr(
                module, "power_sums", lambda *args: sums.append(args) or power_sums(*args)
            )
        report = hunt(HuntConfig(5, 5, samples=1, seed=1, ensemble="dense-uniform"))
        assert report.uncertified == 1
        # The battery's power sums, p'/n's coefficients and tr(B**k).
        assert sorted(entered) == ["_derivative_coeffs", "power_sums", "power_traces"]
        assert len(sums) == 1

    def test_second_sample_of_the_same_real_count_builds_no_basis(self, monkeypatch):
        builds = []
        build = differentiator._complement_basis
        monkeypatch.setattr(
            differentiator, "_complement_basis", lambda *args: builds.append(args) or build(*args)
        )
        differentiator._flat_basis.cache_clear()
        hunt(HuntConfig(5, 5, samples=1, seed=1, ensemble="dense-uniform"))
        assert len(builds) == 1
        # Both samples of seed 1 have three real entries: one key, no build.
        hunt(HuntConfig(5, 5, samples=2, seed=1, ensemble="dense-uniform"))
        assert len(builds) == 1
        info = differentiator._flat_basis.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def _parent_companion_route(spec):
    """companion(derivative_monic(from_roots(spec))) as the two functions
    were written before they shared their array code."""
    p = from_roots(spec)
    n = p.degree - 1
    a = np.array(p.coeffs, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        dp = MonicPolynomial(tuple(a[1:] * np.arange(1, n + 1) / (n + 1)))
    a = np.array(dp.coeffs, dtype=complex)
    real = bool(np.all(a.imag == 0))
    C = np.eye(n, k=-1, dtype=float if real else complex)
    C[:, -1] = -(a.real if real else a)
    return C


def _parent_d_companion(spec):
    """d_companion(spec) with its default pivot taken by the full keys and
    its imaginary part tested entry by entry."""
    entries, n = list(spec), len(spec)
    keys = [(z.real, math.hypot(z.real, z.imag), -i) for i, z in enumerate(entries)]
    idx = keys.index(max(keys))
    rest = np.array(entries[:idx] + entries[idx + 1 :], dtype=complex)
    A = np.full((n - 1, n - 1), entries[idx] / n, dtype=complex)
    A -= rest[:, None] / n
    A += np.diag(rest)
    if np.all(A.imag == 0):
        return A.real.copy()
    return A


def _parent_sign_class(M, tol):
    """matrix_sign_class with its threshold from abs(M).max()."""
    thresh = -tol * abs(M).max()
    if M.min() >= thresh:
        return MatrixSignClass.NONNEGATIVE
    if (M[~np.eye(len(M), dtype=bool)] >= thresh).all():
        return MatrixSignClass.METZLER
    return MatrixSignClass.NEITHER


def _assert_same_bits(new, old):
    # tobytes tells signed zeros and NaN apart as well as values.
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def _route_lists():
    """Real lists (some with tied tops), self-conjugate, complex and
    circulant-spectrum lists at n = 2..16, each at scales 1e-300..1e300."""
    rng = np.random.default_rng(34)
    for n in range(2, 17):
        bases = [
            rng.uniform(-2, 2, n),
            rng.integers(-2, 3, n).astype(float),
            random_self_conjugate(rng, n).as_array(),
            random_complex_list(rng, n).as_array(),
            random_realizable(n, rng, "circulant-nonnegative")[0].as_array(),
        ]
        for base in bases:
            for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
                yield SpectrumList(tuple((base * scale).tolist()))


class TestRouteBuildsKeepTheirBits:
    """Each route builds its candidate from arrays the list already holds;
    the candidates are the bits the full constructions gave."""

    def test_companion_route_is_the_companion_of_the_derivative(self):
        built = 0
        for spec in _route_lists():
            if not all(map(cmath.isfinite, from_roots(spec).coeffs)):
                with pytest.raises(NumericError):
                    _companion_candidate(spec, VerifyConfig())
                continue
            want = _parent_companion_route(spec)
            _assert_same_bits(_companion_candidate(spec, VerifyConfig()), want)
            _assert_same_bits(companion(derivative_monic(from_roots(spec))), want)
            built += 1
        assert built > 350

    def test_dft_route_is_the_first_principal_submatrix(self, monkeypatch):
        rows = []
        ifft = np.fft.ifft

        def recording(d):
            # The inverse transform whose real part is the circulant's first row.
            rows.append(ifft(d))
            return rows[-1]

        monkeypatch.setattr(np.fft, "ifft", recording)
        built = 0
        for spec in _route_lists():
            try:
                C1 = _dft_circulant(spec)
            except _RouteFailure:
                continue
            _assert_same_bits(C1, principal_submatrix(circulant(rows[-1].real), 1))
            built += 1
        assert built > 150

    def test_d_companion_default_pivot_is_the_largest_key(self):
        nan, inf = float("nan"), float("inf")
        odd = [[nan, 1, 2], [2, nan, 1], [inf, 1, -1], [-inf, 1], [1, 1, 1], [0.0, -0.0, -0.0],
               [1 + 1j, 1 - 1j, 1], [complex(1, nan), 0.5, 0], [inf + 1j, inf - 1j, 0]]
        lists = list(_route_lists()) + [SpectrumList(tuple(map(complex, z))) for z in odd]
        for spec in lists:
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = d_companion(spec), _parent_d_companion(spec)
            _assert_same_bits(got, want)

    def test_sign_class_threshold_is_the_largest_modulus(self):
        rng = np.random.default_rng(35)
        tol = 1e-9
        for spec in _route_lists():
            for build in (lambda s: d_companion(s).real, lambda s: _dft_circulant(s)):
                try:
                    M = build(spec)
                except _RouteFailure:
                    continue
                assert matrix_sign_class(M, tol) is _parent_sign_class(M, tol)
                # An entry exactly at -tol * max|M|, or one step below it,
                # is classed right only by a threshold from the true max|M|.
                big = abs(M).max()
                for at in (-tol * big, np.nextafter(-tol * big, -np.inf)):
                    M2 = M.copy()
                    M2.flat[int(rng.integers(M.size))] = at
                    assert matrix_sign_class(M2, tol) is _parent_sign_class(M2, tol)
        zeros = np.array([[0.0, -0.0], [-0.0, 0.0]])
        odd = [zeros, -zeros, np.array([[1.0, np.nan], [0.0, 1.0]]),
               np.array([[-np.inf, 1.0], [1.0, 1.0]]), np.array([[np.inf, -1.0], [0.0, 1.0]])]
        for M in odd:
            assert matrix_sign_class(M, tol) is _parent_sign_class(M, tol)


class TestHunt:
    def test_small_hunt_clean(self):
        report = hunt(HuntConfig(n_min=3, n_max=5, samples=60, seed=1))
        assert report.samples == 60
        assert report.certified + report.uncertified + len(report.alarms) == 60
        assert not report.alarms

    def test_reproducible(self):
        cfg = HuntConfig(n_min=4, n_max=4, samples=30, seed=9)
        a = hunt(cfg)
        b = hunt(cfg)
        assert a.certified == b.certified
        assert a.uncertified == b.uncertified
        assert a.route_successes == b.route_successes

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_one_order_range_draws_as_the_two_call_draw(self, monkeypatch, ensemble):
        # With n_min == n_max hunt draws no order; its samples are those of
        # the order draw and then the matrix, while integers(n, n + 1)
        # leaves the stream as it was.
        drawn = []
        draw = harness.random_realizable

        def recording(n, rng, ens):
            lam, M = draw(n, rng, ens)
            drawn.append(M)
            return lam, M

        monkeypatch.setattr(harness, "random_realizable", recording)
        hunt(HuntConfig(5, 5, samples=12, seed=3, ensemble=ensemble))
        assert len(drawn) == 12
        for i, M in enumerate(drawn):
            rng = np.random.default_rng(np.random.SeedSequence([3, i]))
            n = int(rng.integers(5, 6))
            assert np.array_equal(random_realizable(n, rng, ensemble)[1], M)

    def test_all_ensembles_run(self):
        for ensemble in ENSEMBLES:
            report = hunt(
                HuntConfig(n_min=3, n_max=4, samples=10, seed=5, ensemble=ensemble)
            )
            assert report.certified + report.uncertified == 10

    def test_circulant_ensemble_heavily_certified(self):
        # Circulant realizers hand the dft route its own structure back.
        report = hunt(
            HuntConfig(
                n_min=4, n_max=6, samples=30, seed=2, ensemble="circulant-nonnegative"
            )
        )
        assert report.certified >= 25

    def test_certified_sample_is_no_alarm(self, monkeypatch):
        # Sample 148 of seed 1: Λ = c·{1, ω, ω̄}, so Λ′ = {0, 0}; the
        # compression splits the double root to ±8.3e-9i, which fails the
        # spectral-radius check, but the companion and DFT routes certify.
        config = HuntConfig(3, 16, 149, 1, "sparse-bernoulli")
        sample = _hunt_reports(monkeypatch, config)[148]
        assert not sample.conditions.spectral_radius_in_list
        assert any(r.succeeded for r in sample.routes)
        report = hunt(config)
        assert not report.alarms
        assert report.certified + report.uncertified == 149

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            hunt(HuntConfig(n_min=3, n_max=3, samples=0, seed=0))
        with pytest.raises(ValueError):
            hunt(HuntConfig(n_min=1, n_max=3, samples=5, seed=0))
        with pytest.raises(ValueError):
            hunt(HuntConfig(n_min=3, n_max=3, samples=5, seed=0, ensemble="nope"))


@pytest.fixture
def classify_calls(monkeypatch):
    """The lists harness.classify is called on while the test runs."""
    calls = []
    classify = harness.classify

    def counting(lam):
        calls.append(lam)
        return classify(lam)

    monkeypatch.setattr(harness, "classify", counting)
    return calls


@pytest.fixture
def list_scale_builds(monkeypatch):
    """The reports whose values at the list's scale are built while the
    test runs."""
    builds = []
    rescale = vars(ConditionReport)["_list_scale"]
    build = rescale.func
    monkeypatch.setattr(rescale, "func", lambda report: builds.append(report) or build(report))
    return builds


def _eager_tuples(crit, jll_depth=8):
    """The battery's five results as tuples, from one flat array of the
    values at the list's scale, each rescaled by its degree in the list:
    k for s_k, k*m for both grid cells.  The reference."""
    n, depth = len(crit), 4 * len(crit)
    e = math.frexp(crit.spectral_radius)[1]
    s = power_sums(_scaled(crit, -e), max(depth, jll_depth * jll_depth))
    rho = math.ldexp(crit.spectral_radius, -e)
    moment_ok, lhs, rhs, jll_ok = _grade_moments(s, n, rho, depth, jll_depth)
    values = np.concatenate([s[:depth].view(float), lhs.ravel(), rhs.ravel()])
    ms = np.arange(1, jll_depth + 1)
    km = np.outer(ms, ms).ravel()
    degrees = np.concatenate([np.arange(1, depth + 1).repeat(2), km, km])
    with np.errstate(over="ignore"):
        values = np.ldexp(values, e * degrees)
    cut, grid = 2 * depth, jll_depth * jll_depth
    return (
        tuple(values[:cut].view(complex).tolist()),
        tuple(moment_ok.tolist()),
        tuple(values[cut : cut + grid].tolist()),
        tuple(values[cut + grid :].tolist()),
        tuple(jll_ok.ravel().tolist()),
    )


def _benchmark_critical_points(workload):
    """The critical points of every seed-1 list of a benchmark workload."""
    wl = load_bench("workloads").WORKLOADS[workload]
    if workload.startswith("verify"):
        return [compression_critical_points(parse_spectrum(it.literal)) for it in wl.corpus(1)]
    crits = []
    for item in wl.corpus(1):
        rng = np.random.default_rng(np.random.SeedSequence([item.seed, 0]))
        lam, _ = random_realizable(int(rng.integers(wl.order, wl.order + 1)), rng, item.ensemble)
        crits.append(compression_critical_points(lam))
    return crits


_BATTERY_ARRAYS = ("moment_values", "moment_passed", "jll_lhs", "jll_rhs", "jll_passed")


class TestCheckObjectsOnDemand:
    """The battery's results travel as named read-only arrays, rescaled to
    the list's scale on first read, and a verify report's classes are
    computed on first read; neither is built where nothing reads it."""

    def test_hunt_builds_none(self, classify_calls, list_scale_builds):
        report = hunt(HuntConfig(5, 5, samples=40, seed=1))
        assert report.certified + report.uncertified + len(report.alarms) == 40
        assert classify_calls == list_scale_builds == []

    @pytest.mark.parametrize(
        "lam", ["3,-1,-1", "4,1+i,1-i,-1", "3e8,-1e8,-1e8", "1e-310,-4e-311,-4e-311"]
    )
    def test_list_scale_values_built_once_on_first_read(self, list_scale_builds, lam):
        # 3e8,-1e8,-1e8 has power sums past the double range in its grids;
        # the last list has a subnormal spectral radius.
        crit = compression_critical_points(parse_spectrum(lam))
        report = check_necessary_conditions(crit)
        assert list_scale_builds == []
        got = tuple(tuple(getattr(report, name).ravel().tolist()) for name in _BATTERY_ARRAYS)
        assert list_scale_builds == [report]
        assert repr(got) == repr(_eager_tuples(crit))
        for name in ("moment_values", "jll_lhs", "jll_rhs"):
            assert getattr(report, name) is getattr(report, name)
        report.pairing_residual, report.spectral_radius_margin
        assert list_scale_builds == [report]

    @pytest.mark.parametrize("lam", ["3,-1,-1", "2,i,-i", "1,1,1,1,1,1,1,1", "1,-1,-1"])
    def test_machine_verify_builds_none(self, classify_calls, lam):
        code = run(["verify", lam, "--format", "machine"], out=io.StringIO())
        assert code in (0, 1)
        assert len(classify_calls) == 2  # the report's two classes, once each

    def test_tuples_and_classes_built_once_on_first_access(self, classify_calls):
        report = verify_critical_realizability(parse_spectrum("4,1+i,1-i,-1"))
        assert classify_calls == []
        assert report.input_class is report.input_class
        assert report.critical_class is report.critical_class
        assert classify_calls == [report.input, report.critical]

    def test_arrays_are_read_only_with_the_stated_shapes(self):
        report = check_necessary_conditions([4, 1 + 1j, 1 - 1j, -1], kmax=10, jll_depth=5)
        arrays = [getattr(report, name) for name in _BATTERY_ARRAYS]
        assert [(a.dtype.kind, a.shape) for a in arrays] == [
            ("c", (10,)), ("b", (10,)), ("f", (5, 5)), ("f", (5, 5)), ("b", (5, 5))
        ]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    @pytest.mark.parametrize("workload", ["verify-n8", "hunt-n5"])
    def test_arrays_equal_the_reference(self, workload):
        crits = _benchmark_critical_points(workload)
        assert len(crits) == {"verify-n8": 510, "hunt-n5": 1024}[workload]
        for crit in crits:
            report = check_necessary_conditions(crit)
            got = tuple(tuple(getattr(report, name).ravel().tolist()) for name in _BATTERY_ARRAYS)
            # repr tells NaN and signed zeros apart, which == cannot.
            assert repr(got) == repr(_eager_tuples(crit)), crit


class TestMomentCrossCheck:
    """Hunt's check of the battery's moments against tr(B**k) from the list."""

    def test_computed_critical_points_pass(self):
        lam, _ = random_realizable(5, 63, "dense-uniform")
        conditions = check_necessary_conditions(critical_points(lam), kmax=16)
        _moment_cross_check(lam, critical_compression(lam), conditions)

    @staticmethod
    def _nudged(nudge):
        lam, _ = random_realizable(5, 63, "dense-uniform")
        crit = critical_points(lam).as_array().copy()  # as_array() is read-only
        crit[np.argmax(crit.real)] += nudge
        return lam, as_spectrum(crit)

    def test_nudged_critical_points_fail(self):
        lam, crit = self._nudged(1e-4)
        conditions = check_necessary_conditions(crit, kmax=16)
        with pytest.raises(NumericError, match="cross-check failed at k=1: "):
            _moment_cross_check(lam, critical_compression(lam), conditions)

    def test_nudge_of_1e_9_fails(self):
        # The bound is k * n * eps * rho**k times a safety factor, 8e-14
        # at k = 1 here; the fixed 1e-6 it replaced let this pass.
        lam, crit = self._nudged(1e-9)
        conditions = check_necessary_conditions(crit, kmax=16)
        with pytest.raises(NumericError, match="cross-check failed at k=1: "):
            _moment_cross_check(lam, critical_compression(lam), conditions)

    def test_scaled_lists_pass_in_the_unit_of_the_list(self):
        # At 1e150 the moments past k = 2 leave the double range and at
        # 1e-150 they underflow; in the unit of the list they are bounded.
        lam, _ = random_realizable(5, 63, "dense-uniform")
        for c in (1e-150, 1e150):
            scaled = as_spectrum(lam.as_array() * c)
            conditions = check_necessary_conditions(compression_critical_points(scaled), kmax=16)
            _moment_cross_check(scaled, critical_compression(scaled), conditions)

    def test_direct_side_is_the_battery_power_sums_rescaled(self, monkeypatch):
        # The reference is the power sums of the critical points in the unit
        # of the list, taken afresh.  With it in place of the traces and no
        # allowance, a difference in any bit fails the check.
        monkeypatch.setattr(harness, "_CROSS_CHECK_SAFETY", 0.0)
        cases = 0
        for ensemble in ENSEMBLES:
            for n in range(3, 17):
                for seed in range(40):
                    drawn, _ = random_realizable(n, seed, ensemble)
                    for c in (1.0, 1e-300, 1e300):
                        lam = as_spectrum(drawn.as_array() * c)
                        B = critical_compression(lam)
                        crit = compression_critical_points(lam, B)
                        conditions = check_necessary_conditions(crit)
                        e = math.frexp(lam.spectral_radius)[1]
                        want = power_sums(_scaled(crit, -e), conditions.moment_depth)
                        monkeypatch.setattr(harness, "power_traces", lambda B, K: want)
                        _moment_cross_check(lam, B, conditions)
                        cases += 1
        assert cases == 4 * 14 * 40 * 3

    def test_hunts_at_orders_6_to_10_pass(self):
        # Monov's determinant lost enough digits by k = 23..32 to stop 7
        # of these 12 hunts on correct critical points.
        for ensemble in ENSEMBLES:
            for seed in (1, 2, 3):
                report = hunt(
                    HuntConfig(n_min=6, n_max=10, samples=60, seed=seed, ensemble=ensemble)
                )
                assert report.certified + report.uncertified + len(report.alarms) == 60

    def test_hunt_takes_no_determinant(self, monkeypatch):
        def det(*args, **kwargs):
            raise AssertionError("hunt called np.linalg.det")

        monkeypatch.setattr(np.linalg, "det", det)
        hunt(HuntConfig(n_min=3, n_max=6, samples=20, seed=4))


class TestOneCheckTolerance:
    """The battery grades at spectra._CHECK_TOL, which nothing on the check,
    verify, hunt or chain path takes as an argument or a field."""

    def test_no_tol_field_or_parameter(self):
        for cls in (VerifyConfig, HuntConfig, harness.RealizabilityReport):
            assert "tol" not in {f.name for f in dataclasses.fields(cls)}, cls
        for fn in (check_necessary_conditions, antiderivative_chain, _grade_moments):
            assert "tol" not in inspect.signature(fn).parameters, fn

    def test_classes_read_the_constant(self):
        # The lazy classes take classify's default, which is the constant.
        assert inspect.signature(harness.classify).parameters["tol"].default == _CHECK_TOL
        report = verify_critical_realizability([3, -1, -1])
        assert report.critical_class == harness.classify(report.critical, _CHECK_TOL)


class TestConfirmAlarm:
    """The recheck a hunt runs on verify's report before it reports a
    condition failure."""

    @staticmethod
    def _report(lam, crit=None):
        """verify's report on lam, with its battery run on crit when given."""
        report = verify_critical_realizability(lam)
        if crit is None:
            return report
        crit = as_spectrum(crit)
        conditions = check_necessary_conditions(crit)
        return dataclasses.replace(report, critical=crit, conditions=conditions)

    def test_real_moment_failure_confirmed(self):
        # The critical points {1/3, -1} of 1,-1,-1 have negative trace, and
        # tr(B) from the list reproduces it.
        assert _confirm_alarm(self._report([1, -1, -1]))

    def test_non_self_conjugate_crit_confirmed(self):
        assert _confirm_alarm(self._report([3, -1, -1], [5 / 3, -1 + 0.5j]))

    def test_passing_crit_not_an_alarm(self):
        report = self._report([3, -1, -1])
        assert report.conditions.overall
        assert not _confirm_alarm(report)

    def test_direct_failure_the_formula_clears_is_not_an_alarm(self):
        # 3,-1,-1,-1 has critical points {2, -1, -1} with trace exactly 0.
        # Nudging one of them makes the direct s_1 negative; tr(B) from the
        # list still gives 0.
        report = self._report([3, -1, -1, -1], [2.0, -1.0, -1.0 - 1e-6])
        c = report.conditions
        assert c.self_conjugate and c.spectral_radius_in_list
        assert np.flatnonzero(~c.moment_passed).tolist() == [0]  # k = 1 alone
        assert not _confirm_alarm(report)

    def test_passed_radius_check_stands(self):
        # The radius margin 1e-9 is within the battery's allowance, so the
        # radius check passed and stays passed; the failing moments and
        # power-sum cells all pass on tr(B**k) of the list.
        report = self._report([3, -1, -1, -1], [2.0, -1.0, -2.0 - 1e-9])
        c = report.conditions
        assert c.self_conjugate and c.spectral_radius_in_list
        assert (np.flatnonzero(~c.moment_passed) + 1).tolist() == [1, 3, 5, 7, 9, 11]
        assert int((~c.jll_passed).sum()) == 8
        assert not _confirm_alarm(report)

    def test_runs_no_battery(self, monkeypatch):
        reports = [
            self._report([1, -1, -1]),
            self._report([3, -1, -1], [5 / 3, -1 + 0.5j]),
            self._report([3, -1, -1, -1], [2.0, -1.0, -2.0 - 1e-9]),
        ]

        def battery(*args, **kwargs):
            raise AssertionError("the recheck ran the condition battery")

        for module in (harness, moments):
            monkeypatch.setattr(module, "check_necessary_conditions", battery)
        assert [_confirm_alarm(r) for r in reports] == [True, True, False]


class TestAntiderivativeChain:
    def test_nonpositive_constants_stay_nonnegative(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            lam = random_suleimanova(rng, int(rng.integers(2, 7)))
            p = from_roots(lam)
            report = antiderivative_chain(p, [-0.5, 0.0, -1.25])
            assert report.all_nonnegative
            assert len(report.steps) == 3
            degrees = [s.polynomial.degree for s in report.steps]
            assert degrees == [p.degree + 1, p.degree + 2, p.degree + 3]

    def test_positive_constant_breaks_nonnegativity(self):
        lam = [2, -1, -1]
        report = antiderivative_chain(from_roots(lam), [0.25])
        assert not report.all_nonnegative
        assert report.steps[0].sign_class is not MatrixSignClass.NONNEGATIVE

    def test_starting_polynomial_must_be_companion_nonnegative(self):
        # p = (t-1)(t-2) has a positive coefficient pattern that makes
        # the companion matrix carry a negative entry.
        with pytest.raises(ValueError):
            antiderivative_chain(from_roots([1, 2]), [-1.0])

    def test_roots_recorded_per_step(self):
        p = from_roots([1, -0.5, -0.5])
        report = antiderivative_chain(p, [-0.1])
        step = report.steps[0]
        assert len(step.root_list) == p.degree + 1
        # The antiderivative's derivative recovers p, so the critical
        # points of the step's roots are the roots of p.
        from critspec import critical_points

        back = critical_points(step.root_list)
        assert pairing_residual(back, [1, -0.5, -0.5], 1e-7) < 1e-6
