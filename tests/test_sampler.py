"""Hunt's sampler: LAPACK eigenvalues of random nonnegative matrices.

The sampled spectrum is checked against the matrix it came from: the
critical points against the benchmark's exact mpmath oracle
(``bench/oracle.py``, which takes the characteristic polynomial of the
matrix in rational arithmetic through ``bench/exact.py``), and the power
sums against traces of matrix powers.
"""

import numpy as np
import pytest

from conftest import load_bench
from critspec import critical_points, power_sums, random_realizable, verify_critical_realizability
from critspec.harness import ENSEMBLES

oracle = load_bench("oracle")


def _draw(n, key, ensemble):
    return random_realizable(n, np.random.default_rng(np.random.SeedSequence(key)), ensemble)


class TestAgainstOracle:
    # Order-8 draws whose spectrum, taken as roots of the expanded
    # characteristic polynomial, gave critical points 1.2e-6, 3.1e-6 and
    # 2.0e-5 (times 1 + rho) off the oracle.
    @pytest.mark.parametrize("s", [21, 45, 209])
    def test_order_8_sparse_draws(self, s):
        lam, M = _draw(8, [777, s], "sparse-bernoulli")
        want = oracle.critical_points_of_matrix(M)
        assert oracle.scaled_error(critical_points(lam), want) <= 1e-12


class TestPowerSums:
    # Backward stability: lam is the exact spectrum of some M + E with
    # ||E|| a small multiple of n * eps * ||M||, so s_k(lam) = tr((M+E)^k)
    # is within about k * n * eps * ||M||^k of tr(M^k).  The largest ratio
    # seen over ten draws per ensemble and order was 1.7.
    BOUND = 8.0

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("n", [5, 16, 40])
    def test_spectrum_matches_traces(self, n, ensemble):
        eps = np.finfo(float).eps
        for seed in range(3):
            lam, M = _draw(n, [n, seed], ensemble)
            assert len(lam) == n
            assert lam.conjugate().entries == lam.entries
            norm = np.linalg.norm(M, 2)
            s = power_sums(lam, n)
            P = np.eye(n)
            for k in range(1, n + 1):
                P = P @ M
                err = abs(s[k - 1] - np.trace(P))
                assert err <= self.BOUND * k * n * eps * norm**k, (seed, k)


class TestDoubleZeroEigenvalue:
    """Sample 7 of ``hunt --n 3-5 --samples 20 --seed 1 --ensemble sparse-bernoulli``.

    Its matrix has an exact double eigenvalue 0.  LAPACK returns it as
    two real zeros (the expanded characteristic polynomial gave the pair
    +-4.7e-9i), and the d-companion route then certifies.
    """

    def _sample(self):
        rng = np.random.default_rng(np.random.SeedSequence([1, 7]))
        n = int(rng.integers(3, 6))
        return random_realizable(n, rng, "sparse-bernoulli")

    def test_spectrum_is_real_with_two_zeros(self):
        lam, _ = self._sample()
        assert len(lam) == 5
        assert all(z.imag == 0 for z in lam)
        assert sum(abs(z) <= 1e-15 for z in lam) == 2

    def test_d_companion_certifies(self):
        lam, _ = self._sample()
        routes = {r.name: r for r in verify_critical_realizability(lam).routes}
        assert routes["d-companion"].succeeded
