"""Matrix constructions: companion, d-companion, circulant, Hadamard."""

import numpy as np
import pytest

from conftest import load_bench, random_complex_list, random_self_conjugate, random_suleimanova
from critspec import (
    ENSEMBLES,
    MatrixSignClass,
    MonicPolynomial,
    charpoly,
    circulant,
    companion,
    critical_points,
    d_companion,
    derivative_monic,
    dft_matrix,
    from_roots,
    hadamard_similarity,
    matrix_sign_class,
    multiset_equal,
    pairing_residual,
    principal_submatrix,
    random_realizable,
    real_d_companion,
    spectrum,
)


class TestCompanion:
    def test_layout(self):
        C = companion(MonicPolynomial((2.0, -3.0, 1.0)))
        expected = np.array([[0, 0, -2.0], [1, 0, 3.0], [0, 1, -1.0]])
        assert np.allclose(C, expected)
        assert C.dtype == np.float64

    def test_spectrum_is_root_list(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            lam = random_complex_list(rng, int(rng.integers(1, 8)))
            p = from_roots(lam)
            assert pairing_residual(spectrum(companion(p)), lam, 1e-7) < 1e-7

    def test_nonnegative_iff_coefficients_nonpositive(self):
        p = MonicPolynomial((-1.0, -2.0, 0.0))
        assert matrix_sign_class(companion(p)) is MatrixSignClass.NONNEGATIVE
        q = MonicPolynomial((-1.0, 0.5))
        assert matrix_sign_class(companion(q)) is not MatrixSignClass.NONNEGATIVE

    def test_suleimanova_gives_nonnegative_companion(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            lam = random_suleimanova(rng, int(rng.integers(2, 9)))
            p = from_roots(lam)
            assert matrix_sign_class(companion(p)) is MatrixSignClass.NONNEGATIVE


class TestDCompanion:
    def test_worked_case(self):
        A = d_companion([3, -1, -1])
        assert np.allclose(A, [[1 / 3, 4 / 3], [4 / 3, 1 / 3]], atol=1e-14)
        assert A.dtype == np.float64

    def test_golden_quintic_rows(self):
        A = d_companion([1, 1, -2 / 3, -2 / 3, -2 / 3])
        # Pivot 1 (the other entry equal to 1) gives first row
        # (1, 0, 0, 0) and the rest diagonal -1/3 with off-diagonal 1/3.
        assert np.allclose(A[0], [1, 0, 0, 0], atol=1e-14)
        for i in range(1, 4):
            for j in range(4):
                want = -1 / 3 if i == j else 1 / 3
                assert A[i, j] == pytest.approx(want)

    def test_spectrum_is_critical_points_all_pivots(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            lam = random_complex_list(rng, n)
            crit = critical_points(lam)
            for pivot in range(1, n + 1):
                A = d_companion(lam, pivot=pivot)
                assert pairing_residual(spectrum(A), crit, 1e-7) < 1e-7

    def test_relaxed_inequality_gives_nonnegative(self):
        # (n-1)*min + max >= 0 with the max as pivot.
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            top = rng.uniform(1.0, 3.0)
            rest = rng.uniform(-top / (n - 1), top, n - 1)
            A = d_companion(list(rest) + [top])
            assert matrix_sign_class(A) is MatrixSignClass.NONNEGATIVE

    def test_dominant_pivot_gives_metzler(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            top = rng.uniform(0.5, 3.0)
            rest = rng.uniform(-top, top, n - 1)
            A = d_companion(list(rest) + [top])
            assert matrix_sign_class(A) in (
                MatrixSignClass.NONNEGATIVE,
                MatrixSignClass.METZLER,
            )

    def test_bad_pivot_rejected(self):
        with pytest.raises(ValueError):
            d_companion([1, 2, 3], pivot=4)
        with pytest.raises(ValueError):
            d_companion([1, 2, 3], pivot=0)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            d_companion([1.0])


class TestRealDCompanion:
    def test_worked_case(self):
        A = real_d_companion([2, 1j, -1j])
        assert A.dtype == np.float64
        assert np.allclose(A, [[4 / 3, 1.0], [-1 / 3, 0.0]], atol=1e-14)
        assert pairing_residual(spectrum(A), [1, 1 / 3], 1e-10) < 1e-10

    def test_real_entries_and_spectrum(self):
        from critspec import SpectrumList

        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            base = random_self_conjugate(rng, n)
            # Append a real entry so the pivot always exists.
            lam = SpectrumList(base.entries + (rng.uniform(-2, 2),))
            A = real_d_companion(lam)
            assert A.dtype == np.float64
            crit = critical_points(lam)
            assert pairing_residual(spectrum(A), crit, 1e-7) < 1e-7

    def test_each_pair_puts_a_negative_entry_below_its_block(self):
        # A[r0 + 1, r0] = -Im(u) * (n - 2) / n for the pair u whose rotation
        # block starts at r0, so no list with a pair at n >= 3 gets a
        # nonnegative real d-companion.
        rng = np.random.default_rng(37)
        eps = np.finfo(float).eps
        for _ in range(500):
            n = int(rng.integers(3, 13))
            npairs = int(rng.integers(1, (n - 1) // 2 + 1))
            ups = [complex(rng.uniform(-2, 2), rng.uniform(0.05, 2)) for _ in range(npairs)]
            reals = list(rng.uniform(-2, 2, n - 2 * npairs))
            A = real_d_companion(reals + ups + [u.conjugate() for u in ups])
            ups.sort(key=lambda z: (-z.imag, -z.real))
            for t, u in enumerate(ups):
                r0 = len(reals) - 1 + 2 * t
                want = -u.imag * (n - 2) / n
                assert A[r0 + 1, r0] < 0
                assert abs(A[r0 + 1, r0] - want) <= 4 * eps * abs(want)

    def test_no_real_entry_rejected(self):
        with pytest.raises(ValueError):
            real_d_companion([1j, -1j])

    def test_not_self_conjugate_rejected(self):
        # The second list's partner is off by 1e-10: no real matrix has it.
        for lam in ([1, 1j], [2, 1 + 1j, complex(1, -1.0000000001), -1]):
            with pytest.raises(ValueError, match="^list is not self-conjugate$"):
                real_d_companion(lam)


class TestDftAndHadamard:
    def test_dft_unitarity(self):
        for n in range(1, 9):
            F = dft_matrix(n)
            assert np.allclose(F @ F.conj().T, n * np.eye(n), atol=1e-12)
            assert np.allclose(np.abs(F), 1.0, atol=1e-14)

    def test_dft_diagonalizes_shift(self):
        # The cyclic shift is the circulant with first row e_2; its
        # eigenvalues are the n-th roots of unity.
        n = 4
        C = circulant(np.array([0.0, 1.0, 0.0, 0.0]))
        assert multiset_equal(spectrum(C), [1, 1j, -1, -1j], 1e-10)

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 5, 8):
            lam = random_complex_list(rng, n)
            A = hadamard_similarity(lam, dft_matrix(n))
            assert pairing_residual(spectrum(A), lam, 1e-7) < 1e-7

    def test_roots_of_unity_give_real_permutation_like_matrix(self):
        w = np.exp(2j * np.pi / 3)
        A = hadamard_similarity([1, w, w**2], dft_matrix(3))
        assert float(np.max(np.abs(A.imag))) < 1e-12
        R = A.real
        assert matrix_sign_class(R) is MatrixSignClass.NONNEGATIVE
        # Each row sums to 1 and carries a single unit entry.
        assert np.allclose(R.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.sort(R.ravel())[-3:], 1.0, atol=1e-12)

    def test_real_hadamard_order_four(self):
        H = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
            dtype=float,
        )
        A = hadamard_similarity([3, 1, 1, 1], H)
        assert float(np.max(np.abs(A.imag))) < 1e-12
        # The image is complex-typed; only its real part has a sign class.
        assert matrix_sign_class(A.real) is MatrixSignClass.NONNEGATIVE

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            hadamard_similarity([1, 2], np.array([[1, 2], [1, 1]], dtype=float))

    def test_nan_entry_rejected(self):
        # NaN fails no "greater than" comparison, so the checks must fail on it.
        H = dft_matrix(3)
        H[1, 1] = np.nan
        with pytest.raises(ValueError, match="unimodular"):
            hadamard_similarity([1, 2, 3], H)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            hadamard_similarity([1, 2], np.ones((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            hadamard_similarity([1, 2, 3], dft_matrix(2))

    def test_scalar_similarity_invariance(self):
        # Scaling the similarity by a unimodular scalar cannot change
        # the conjugated matrix.
        rng = np.random.default_rng(38)
        n = 4
        lam = random_complex_list(rng, n)
        D = np.diag(np.array(list(lam), dtype=complex))
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
        A1 = S @ D @ np.linalg.inv(S)
        A2 = (alpha * S) @ D @ np.linalg.inv(alpha * S)
        assert float(np.max(np.abs(A1 - A2))) < 1e-9


class TestCirculant:
    def test_layout(self):
        C = circulant(np.array([1.0, 2.0, 3.0]))
        expected = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float)
        assert np.array_equal(C, expected)

    def test_eigenvalues_are_fft(self):
        rng = np.random.default_rng(39)
        for n in (2, 3, 5, 8):
            c = rng.random(n)
            got = spectrum(circulant(c))
            want = np.fft.fft(c)
            assert pairing_residual(got, list(want), 1e-8) < 1e-8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circulant(np.array([]))


class TestPrincipalSubmatrixAndCharpoly:
    def test_submatrix_one_based(self):
        M = np.arange(9.0).reshape(3, 3)
        S = principal_submatrix(M, 2)
        assert np.array_equal(S, np.array([[0.0, 2.0], [6.0, 8.0]]))

    def test_submatrix_bad_index(self):
        with pytest.raises(ValueError):
            principal_submatrix(np.eye(3), 0)
        with pytest.raises(ValueError):
            principal_submatrix(np.eye(3), 4)

    def test_charpoly_matches_root_expansion(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            lam = random_complex_list(rng, n)
            p = charpoly(np.diag(np.array(list(lam), dtype=complex)))
            q = from_roots(lam)
            assert max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) < 1e-9

    def test_charpoly_companion_roundtrip(self):
        coeffs = (0.5 + 0.1j, -2.0, 1.5, 0.25j)
        p = MonicPolynomial(coeffs)
        q = charpoly(companion(p))
        assert max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_charpoly_matches_exact_oracle(self, n):
        # Every coefficient within 4*n*eps*prod(1 + |lambda_i|) of the exact
        # rational characteristic polynomial of the same doubles.
        exact = load_bench("exact")
        for i, ensemble in enumerate(ENSEMBLES):
            lam, M = random_realizable(n, np.random.SeedSequence([1, n, i]), ensemble)
            want = [complex(c) for c in exact.charpoly(M)[:0:-1]]
            got = charpoly(M).coeffs
            bound = 4 * n * np.finfo(float).eps * np.prod(1 + np.abs(lam.as_array()))
            assert max(abs(a - b) for a, b in zip(got, want)) <= bound, ensemble

    def test_charpoly_has_no_order_limit(self):
        M = random_realizable(40, 7)[1]
        p = charpoly(M)
        assert p.degree == 40
        assert abs(p.coeffs[-1] + np.trace(M)) < 1e-12 * np.trace(M)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            charpoly(np.ones((2, 3)))


class TestSpectrum:
    def test_lapack_eigenvalues(self):
        M = np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 0.25], [0.0, 3.0, 1.0]])
        got = spectrum(M)
        assert got.entries == spectrum(M.tolist()).entries
        assert multiset_equal(got, list(np.linalg.eigvals(M)), 0.0)

    def test_real_matrix_gives_exact_conjugate_pairs(self):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        got = spectrum(np.kron(np.eye(2), rotation) + np.ones((4, 4)) / 8)
        assert any(z.imag != 0 for z in got)
        assert got.conjugate().entries == got.entries

    def test_no_order_cap(self):
        got = spectrum(np.diag(np.arange(40.0)))
        assert sorted(z.real for z in got) == list(range(40))

    @pytest.mark.parametrize(
        "M", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))], ids=["2x3", "vector", "3d"]
    )
    def test_nonsquare_rejected(self, M):
        with pytest.raises(ValueError, match="a square matrix is required"):
            spectrum(M)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="order at least 1"):
            spectrum(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_nonfinite_rejected(self, bad):
        M = np.eye(3, dtype=type(bad))
        M[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            spectrum(M)

    def test_no_tolerance_parameter(self):
        with pytest.raises(TypeError):
            spectrum(np.eye(2), tol=1e-10)


class TestSignClass:
    def test_nonnegative(self):
        assert matrix_sign_class(np.array([[0.0, 1.0], [2.0, 0.0]])) is (
            MatrixSignClass.NONNEGATIVE
        )

    def test_metzler(self):
        M = np.array([[-1.0, 0.5], [0.5, -2.0]])
        assert matrix_sign_class(M) is MatrixSignClass.METZLER

    def test_neither(self):
        M = np.array([[1.0, -0.5], [0.5, 2.0]])
        assert matrix_sign_class(M) is MatrixSignClass.NEITHER

    def test_tolerance_scales_with_magnitude(self):
        M = np.array([[1e6, -1e-4], [1.0, 1.0]])
        assert matrix_sign_class(M, tol=1e-9) is MatrixSignClass.NONNEGATIVE

    def test_complex_input_rejected(self):
        # Even with rounding-size or zero imaginary parts: only a real
        # matrix certifies, so a complex one has no sign class.
        for imag in (1e-15, 0.0):
            M = np.array([[1.0 + imag * 1j, 0.0], [0.0, 1.0]])
            with pytest.raises(ValueError, match="complex"):
                matrix_sign_class(M)

    def test_genuinely_complex_rejected(self):
        with pytest.raises(ValueError):
            matrix_sign_class(np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]]))
