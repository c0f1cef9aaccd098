"""An mpmath oracle for critical points, independent of critspec's numerics.

Critical points are the roots of p' for p the polynomial of a list.  The
oracle never trusts floating-point cancellation where multiplicity is
structural:

* For a list given by exact doubles, equal entries are grouped first.
  With distinct values a_j of multiplicity m_j,

      p' = prod_j (t - a_j)**(m_j - 1) * q(t),
      q(t) = sum_j m_j * prod_{i != j} (t - a_i),

  so every repeated entry reappears exactly, and only the simple roots
  of q are left to mpmath's polyroots.
* For a matrix of doubles, the characteristic polynomial is computed
  exactly in rational arithmetic (``exact.charpoly``), exact zero roots
  of p' are split off, and mpmath finds the rest.

Roots are found at ``DIGITS`` significant digits; when mpmath's own error
estimate is poor (a non-structural cluster) the search is repeated at
higher precision.  A computed list is wrong when its worst pairing
distance from the oracle exceeds ``ERROR_BOUND * (1 + rho)``, with rho
the spectral radius of the oracle's critical points.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import linear_sum_assignment

import exact

DIGITS = 50
ERROR_BOUND = 1e-6

# (working digits, steps, accepted error estimate) for each attempt.
_ATTEMPTS = ((DIGITS, 200, 1e-30), (3 * DIGITS, 800, 1e-20))


class OracleError(RuntimeError):
    """The oracle could not certify its own roots."""


def _poly_roots(coeffs) -> list:
    """Roots of the polynomial whose descending coefficients ``coeffs()`` builds
    at the working precision."""
    for dps, steps, accept in _ATTEMPTS:
        with mpmath.workdps(dps):
            c = coeffs()
            if len(c) == 1:
                return []
            try:
                found, err = mpmath.polyroots(
                    c, maxsteps=steps, extraprec=2 * dps, error=True
                )
            except mpmath.libmp.NoConvergence:
                continue
            if err <= accept:
                return [complex(z) for z in found]
    raise OracleError("polyroots did not converge at any precision")


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def critical_points_of_list(values) -> list[complex]:
    """Critical points of the list of exact doubles ``values``."""
    values = [complex(v) for v in values]
    if len(values) < 2:
        raise ValueError("critical points need at least two entries")
    counts: dict[complex, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    distinct = list(counts)

    def q_coeffs():
        q = [mpmath.mpc(0)]
        for j, aj in enumerate(distinct):
            term = [mpmath.mpc(counts[aj])]
            for i, ai in enumerate(distinct):
                if i != j:
                    term = _poly_mul(term, [mpmath.mpc(1), -mpmath.mpc(ai)])
            q = [x + y for x, y in zip([0] * (len(term) - len(q)) + q, term)]
        return q

    repeated = [a for a in distinct for _ in range(counts[a] - 1)]
    return repeated + _poly_roots(q_coeffs)


def critical_points_of_matrix(M) -> list[complex]:
    """Critical points of the spectrum of the real matrix of doubles ``M``."""
    deriv = exact.derivative(exact.charpoly(np.asarray(M, dtype=float)))
    zeros = 0
    while len(deriv) > 1 and deriv[-1] == 0:
        deriv.pop()
        zeros += 1

    def coeffs():
        return [mpmath.mpf(f.numerator) / f.denominator for f in deriv]

    return [0j] * zeros + _poly_roots(coeffs)


def pairing_distance(computed, oracle) -> float:
    """Worst distance under an optimal pairing of two equal-size lists.

    Infinite when the sizes differ or a computed entry is not finite.
    """
    a = np.asarray(list(computed), dtype=complex)
    b = np.asarray(list(oracle), dtype=complex)
    if a.shape != b.shape or not np.isfinite(a).all():
        return math.inf
    if a.size == 0:
        return 0.0
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist**2)
    return float(dist[rows, cols].max())


def scaled_error(computed, oracle) -> float:
    """Pairing distance divided by (1 + spectral radius of the oracle list)."""
    rho = max((abs(z) for z in oracle), default=0.0)
    return pairing_distance(computed, oracle) / (1.0 + rho)


def is_wrong(scaled: float) -> bool:
    """Whether a scaled error from ``scaled_error`` is beyond the bound."""
    return not scaled <= ERROR_BOUND
