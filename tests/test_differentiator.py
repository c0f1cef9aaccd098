"""Trace vectors, compressions, and the differentiator equivalence."""

import mpmath
import numpy as np
import pytest

from conftest import load_bench
from critspec import (
    ENSEMBLES,
    MonicPolynomial,
    as_spectrum,
    charpoly,
    circulant,
    compression,
    critical_compression,
    critical_moments,
    derivative_monic,
    dft_matrix,
    hadamard_similarity,
    interlaces,
    is_differentiator,
    is_trace_vector,
    pairing_residual,
    principal_submatrix,
    random_realizable,
    spectrum,
    trace_moments,
    unit_vector,
)
from critspec import differentiator, realizers

oracle = load_bench("oracle")


def _flat_vector(n, rng=None):
    """Unit vector with |z_i| = 1/sqrt(n), random phases if rng given."""
    if rng is None:
        phases = np.zeros(n)
    else:
        phases = rng.uniform(0, 2 * np.pi, n)
    return np.exp(1j * phases) / np.sqrt(n)


class TestUnitVector:
    def test_normalizes(self):
        v = unit_vector(np.array([3.0, 4.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_vector(np.zeros(3))


class TestTraceVector:
    def test_flat_vector_on_diagonal(self):
        rng = np.random.default_rng(51)
        for n in (2, 3, 5, 8):
            D = np.diag(rng.normal(size=n))
            assert is_trace_vector(D, _flat_vector(n, rng))

    def test_standard_basis_vector_fails_on_generic_diagonal(self):
        D = np.diag([1.0, 2.0, 3.0])
        e1 = np.array([1.0, 0.0, 0.0])
        assert not is_trace_vector(D, e1)

    def test_flatness_is_necessary_on_rank_one_projectors(self):
        # z is a trace vector of every e_j e_j* only when |z_j|**2 = 1/n
        # for all j; a non-flat z must fail for some j.
        rng = np.random.default_rng(52)
        n = 5
        z = unit_vector(rng.normal(size=n) + 1j * rng.normal(size=n))
        flat = _flat_vector(n, rng)
        results_z = []
        for j in range(n):
            P = np.zeros((n, n))
            P[j, j] = 1.0
            results_z.append(is_trace_vector(P, z))
            assert is_trace_vector(P, flat)
        assert not all(results_z)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_trace_vector(np.eye(3), np.array([1.0, 0.0]))

    def test_power_zero_always_matches(self):
        # k = 0 compares 1 with n/n; any unit vector passes that step,
        # so a 1x1 matrix makes everything a trace vector.
        assert is_trace_vector(np.array([[2.0]]), np.array([1.0]))

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_answer_does_not_move_with_scale(self, c):
        # An absolute term in the tolerance, tol * (1 + ||A||**k), took
        # this pair for a trace vector at c = 1e-12.
        rng = np.random.default_rng(56)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z = unit_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert not is_trace_vector(c * A, z)
        assert not is_differentiator(c * A, z)
        # Q diag(lam) Q* has Q times any flat vector as a trace vector.
        for _ in range(20):
            n = int(rng.integers(2, 9))
            Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            T = Q @ np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) @ Q.conj().T
            assert is_trace_vector(c * T, Q @ _flat_vector(n, rng))


class TestCompression:
    def test_shape(self):
        rng = np.random.default_rng(53)
        A = rng.normal(size=(5, 5))
        B = compression(A, _flat_vector(5))
        assert B.shape == (4, 4)

    def test_basis_orthonormality_through_norms(self):
        # Compression by any unit z preserves the Frobenius norm bound.
        rng = np.random.default_rng(54)
        A = rng.normal(size=(6, 6))
        z = unit_vector(rng.normal(size=6))
        B = compression(A, z)
        assert np.linalg.norm(B) <= np.linalg.norm(A) + 1e-12

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            compression(np.array([[1.0]]), np.array([1.0]))

    def test_hermitian_input_gives_hermitian_compression(self):
        # The basis is orthonormal, so Q* A Q is Hermitian with A, for
        # complex z with any phase, including a zero first entry.
        rng = np.random.default_rng(61)
        for n in (2, 3, 7):
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = X + X.conj().T
            for z in (rng.normal(size=n) + 1j * rng.normal(size=n), np.eye(n)[-1]):
                B = compression(A, z)
                assert np.abs(B - B.conj().T).max() < 1e-13 * np.abs(A).max()

    def test_compression_along_a_basis_vector_deletes_its_entry(self):
        # z = e_j with z_0 = 0: the complement is spanned by the other
        # basis vectors, so the compression of a diagonal drops entry j.
        lam = [3.0, -1.0, 0.5, 2.0]
        for j in range(4):
            B = compression(np.diag(lam), np.eye(4)[j])
            rest = lam[:j] + lam[j + 1 :]
            assert pairing_residual(spectrum(B), rest, 1e-12) < 1e-14


def _compression_input(rng, n, kind, m, scale):
    """A list of order n and the D and flat z whose uncached compression
    critical_compression of the list must equal: diag of the list and
    ones for a real or complex list; for a self-conjugate one with m real
    entries, the real entries then a block [[a, -b], [b, a]] per pair,
    with z = 1 on the real slots and sqrt(2) on each block's first."""
    if kind == "real":
        lam = rng.normal(size=n) * scale
        return lam, np.diag(as_spectrum(lam).as_array().real), np.ones(n)
    if kind == "complex":
        lam = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
        return lam, np.diag(as_spectrum(lam).as_array()), np.ones(n)
    ups = (rng.normal(size=(n - m) // 2) + 1j * rng.uniform(0.1, 1, (n - m) // 2)) * scale
    lam = as_spectrum(list(rng.normal(size=m) * scale) + list(ups) + list(ups.conj()))
    reals = [z.real for z in lam if not z.imag]
    ups = [z for z in lam if z.imag > 0]
    D = np.diag(reals + [x for z in ups for x in (z.real, z.real)])
    z = np.zeros(n)
    z[:m] = 1.0
    for k, w in enumerate(ups):
        j = m + 2 * k
        D[j, j + 1], D[j + 1, j] = -w.imag, w.imag
        z[j] = np.sqrt(2.0)
    return lam, D, z


class TestBasisCache:
    """critical_compression reads its Householder basis from a per-order
    cache; the cached path must be the uncached compression bit for bit."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_cached_path_equals_uncached_compression(self, scale):
        rng = np.random.default_rng(270)
        for n in range(2, 17):
            cases = [("real", n), ("complex", n)]
            cases += [("self-conjugate", m) for m in range(n % 2, n + 1, 2)]
            for kind, m in cases:
                lam, D, z = _compression_input(rng, n, kind, m, scale)
                B = critical_compression(lam)
                ref = compression(D, z)
                assert B.dtype == ref.dtype, (n, kind, m)
                assert B.tobytes() == ref.tobytes(), (n, kind, m)

    def test_cached_arrays_are_read_only(self):
        critical_compression([3, 1 + 2j, 1 - 2j, -1])
        critical_compression([3, 1 + 2j, -1, -2])
        for Qh, Q in (differentiator._flat_basis(4, 2, False), differentiator._flat_basis(4, 4, True)):
            for a in (Qh, Q):
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0
        for a in (realizers._circulant_index(4), realizers._off_diagonal(4)):
            with pytest.raises(ValueError):
                a[0, 0] = 1

    @pytest.mark.parametrize(
        "lam, key",
        [
            ([3, -1, -1], (3, 3, False)),
            ([3, 1 + 2j, 1 - 2j, -1], (4, 2, False)),
            ([3, 1 + 2j, -1, -2], (4, 4, True)),
        ],
    )
    def test_result_is_fresh_and_writable(self, lam, key):
        B = critical_compression(lam)
        Qh, Q = differentiator._flat_basis(*key)
        assert B.flags.writeable and B.flags.owndata
        assert not np.shares_memory(B, Q) and not np.shares_memory(B, Qh)
        before = B.copy()
        B[...] = 0.0
        assert critical_compression(lam).tobytes() == before.tobytes()

    def test_circulant_is_fresh_and_writable(self):
        for n in (1, 2, 5, 9):
            c = np.arange(n) + 1.0
            M = circulant(c)
            assert M.flags.writeable
            assert np.array_equal(M, [[c[(j - i) % n] for j in range(n)] for i in range(n)])
            M[0, 0] = -1.0  # the cached index matrix is not touched
            assert circulant(c)[0, 0] == 1.0


class TestDifferentiator:
    def test_flat_vector_differentiates_diagonal(self):
        rng = np.random.default_rng(55)
        for n in (2, 3, 6):
            lam = rng.normal(size=n)
            D = np.diag(lam)
            z = _flat_vector(n, rng)
            assert is_differentiator(D, z)
            B = compression(D, z)
            from critspec import critical_points

            assert pairing_residual(spectrum(B), critical_points(list(lam)), 1e-7) < 1e-7

    def test_no_order_limit(self):
        # The flat vector differentiates every diagonal matrix, at order 40
        # as at any other.
        lam = np.random.default_rng(60).normal(size=40)
        assert is_differentiator(np.diag(lam), np.ones(40))

    def test_agreement_with_trace_vector_random_pairs(self):
        rng = np.random.default_rng(56)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z = unit_vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            assert is_differentiator(A, z) == is_trace_vector(A, z)

    def test_near_trace_vector_is_refused_at_the_certifier_bound(self):
        # Backward error about 1.9e-9: far above 64 * n * eps, so the
        # certifier's bound refuses it, as is_trace_vector does.
        D = np.diag(np.random.default_rng(3).normal(size=5))
        z = np.ones(5) + np.array([1e-8, 0.0, 0.0, 0.0, 0.0])
        assert not is_trace_vector(D, z)
        assert not is_differentiator(D, z)

    def test_agreement_on_structured_true_cases(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            D = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
            z = _flat_vector(n, rng)
            assert is_trace_vector(D, z)
            assert is_differentiator(D, z)

    def test_hadamard_rows_differentiate(self):
        # Rows of H/sqrt(n) are flat, so conjugating a diagonal by H
        # makes every standard basis vector a differentiator.
        rng = np.random.default_rng(58)
        n = 5
        lam = list(rng.normal(size=n))
        A = hadamard_similarity(lam, dft_matrix(n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            assert is_trace_vector(A, e)
            assert is_differentiator(A, e)

    def test_interlacing_replication_for_symmetric_case(self):
        # For a real list, the Hadamard conjugation is Hermitian, and
        # every principal submatrix spectrum interlaces the list.
        rng = np.random.default_rng(59)
        n = 6
        lam = sorted(rng.uniform(-2, 2, n), reverse=True)
        A = hadamard_similarity(lam, dft_matrix(n))
        assert float(np.max(np.abs(A - A.conj().T))) < 1e-10
        for i in range(1, n + 1):
            sub = principal_submatrix(A, i)
            mu = spectrum(sub)
            assert interlaces(lam, mu, tol=1e-7)

    def test_compression_charpoly_is_derivative(self):
        rng = np.random.default_rng(60)
        n = 7
        D = np.diag(rng.normal(size=n))
        z = _flat_vector(n, rng)
        B = compression(D, z)
        got = charpoly(B)
        want = derivative_monic(charpoly(D))
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) < 1e-9


def _oracle_moments(lam, kmax):
    """s'_1 .. s'_kmax from the mpmath oracle's critical points of lam.

    The oracle's points are rounded to doubles; their power sums are
    taken at 50 digits, so the reference is off by at most about
    k * eps * sum |mu|**k.
    """
    crit = oracle.critical_points_of_list(as_spectrum(lam).entries)
    out = []
    with mpmath.workdps(50):
        points = [mpmath.mpc(z) for z in crit]
        powers = [mpmath.mpc(1)] * len(points)
        for _ in range(kmax):
            powers = [p * z for p, z in zip(powers, points)]
            out.append(complex(mpmath.fsum(powers)))
    return np.array(out)


_TRACE_MOMENT_CASES = {"3,-1,-1": [3.0, -1.0, -1.0], "1^8": [1.0] * 8} | {
    f"{ensemble}-{n}": random_realizable(n, n, ensemble)[0]
    for ensemble in ENSEMBLES
    for n in (3, 5, 8, 16, 32)
}


class TestTraceMoments:
    """tr(B**k) of the compression of diag(lam) against mpmath."""

    @pytest.mark.parametrize(
        "lam", _TRACE_MOMENT_CASES.values(), ids=_TRACE_MOMENT_CASES.keys()
    )
    def test_within_error_bound_of_oracle(self, lam):
        # |error| <= k * n * eps * (1 + rho)**k for every k <= 64.
        spec = as_spectrum(lam)
        K = 64
        got = trace_moments(spec, K)
        assert got.shape == (K,)
        k = np.arange(1, K + 1)
        bound = k * len(spec) * np.finfo(float).eps * (1.0 + spec.spectral_radius) ** k
        assert np.all(np.abs(got - _oracle_moments(spec, K)) <= bound)

    def test_keeps_the_digits_the_determinant_loses(self):
        # Monov's determinant gives s'_38 of 3,-1,-1 as a large negative
        # number; the exact value is about +2.7e8.
        lam = [3.0, -1.0, -1.0]
        want = _oracle_moments(lam, 40)
        assert critical_moments(lam, 40)[37].real < 0
        got = trace_moments(lam, 40)
        assert got[37].real > 0
        assert abs(got[37] - want[37]) <= 1e-14 * abs(want[37])

    def test_every_depth_gives_its_prefix(self):
        # The baby-step/giant-step split changes with kmax; every split
        # must give the same moments.
        lam, _ = random_realizable(6, 62, "dense-uniform")
        full = trace_moments(lam, 70)
        for K in (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 63, 64, 65):
            got = trace_moments(lam, K)
            assert got.shape == (K,)
            assert np.allclose(got, full[:K], rtol=1e-13, atol=0)

    def test_overflow_is_not_finite_and_silent(self):
        # Any RuntimeWarning from critspec fails the suite.
        assert not np.isfinite(trace_moments([1e200, -1e200, 3.0], 4)[-1])

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            trace_moments([3.0, -1.0, -1.0], 0)
        with pytest.raises(ValueError):
            trace_moments([1.0], 4)
