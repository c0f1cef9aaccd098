"""Power sums, the moment-correction determinant, and necessary conditions.

The k-th moment of the critical points of a list can be produced two
ways: directly from computed critical points, or through Monov's
determinant formula

    s_k(crit) = s_k(lam) + (-1/n)**k * d_k(lam),

where d_k is a k x k determinant built from the moments of lam.  The
determinant is the paper's object: `critical` prints it beside the
direct moments.  It loses digits as k grows (every digit past k ~ 35 at
unit scale, from k ~ 23 at n >= 8), so hunt's independent route is
tr(B**k) of the differentiator compression B instead
(differentiator.trace_moments), which never touches the computed
critical points either.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectra import SpectrumLike, as_spectrum, pairing_residual

__all__ = [
    "MomentCheck",
    "JllCheck",
    "ConditionReport",
    "power_sums",
    "monov_det",
    "critical_moment",
    "critical_moments",
    "check_necessary_conditions",
    "jll_pair_equivalence",
]


def power_sums(lam: SpectrumLike, kmax: int) -> np.ndarray:
    """s_1 .. s_kmax as a complex array; s_k = sum of k-th powers.

    Row k of one cumulative product over a row of ones and kmax copies
    of the list holds the k-th powers, so every sum comes out of a
    single numpy pass.  The row of ones makes each power the product of
    1 and k copies of the entry, also for NaN and inf entries, where
    1 * z is not z.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    arr = as_spectrum(lam).as_array()
    if arr.size == 0:
        raise ValueError("power sums of an empty list are undefined")
    factors = np.ones((kmax + 1, arr.size), dtype=complex)
    factors[1:] = arr
    # Overflow to inf/nan is tolerated; condition checks compare such
    # moments in log-magnitude space instead of crashing.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(factors, axis=0)[1:].sum(axis=1)


def _monov_matrix(s: np.ndarray, n: int, k: int) -> np.ndarray:
    # Row i: first column (i+1)*s_{i+1}, superdiagonal n, then the
    # Toeplitz tail s_{i+1-j} in columns 1..i.
    i, j = np.indices((k, k))
    tail = (j >= 1) & (j <= i)
    M = np.zeros((k, k), dtype=complex)
    M[tail] = s[(i - j)[tail]]
    M[:, 0] = np.arange(1, k + 1) * s[:k]
    M[j == i + 1] = n
    return M


def monov_det(lam: SpectrumLike, k: int) -> complex:
    """The k x k moment-correction determinant d_k of the list."""
    if k < 1:
        raise ValueError("determinant order must be at least 1")
    spec = as_spectrum(lam)
    if len(spec) == 0:
        raise ValueError("the determinant needs a nonempty list")
    s = power_sums(spec, k)
    return complex(np.linalg.det(_monov_matrix(s, len(spec), k)))


def critical_moments(lam: SpectrumLike, kmax: int) -> np.ndarray:
    """s_1 .. s_kmax of the critical points of lam, via the determinant formula.

    Each d_k is the leading k x k minor of one kmax x kmax matrix.
    Overflow to inf/nan is tolerated without a warning, as in power_sums.
    """
    spec = as_spectrum(lam)
    n = len(spec)
    if n < 2:
        raise ValueError("critical moments need a list of at least two entries")
    if kmax < 1:
        raise ValueError("moment index must be at least 1")
    s = power_sums(spec, kmax)
    out = np.empty(kmax, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        M = _monov_matrix(s, n, kmax)
        for k in range(1, kmax + 1):
            out[k - 1] = s[k - 1] + (-1.0 / n) ** k * np.linalg.det(M[:k, :k])
    return out


def critical_moment(lam: SpectrumLike, k: int) -> complex:
    """s_k of the critical points of lam, via the determinant formula."""
    return complex(critical_moments(lam, k)[k - 1])


@dataclass(frozen=True)
class MomentCheck:
    k: int
    value: complex
    passed: bool


@dataclass(frozen=True)
class JllCheck:
    k: int
    m: int
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the four standard necessary conditions for realizability.

    self_conjugate           the list equals its conjugate as a multiset
    spectral_radius_in_list  some entry attains the spectral radius
    moment_values, _passed   s_k and whether s_k >= 0, for k = 1..moment_depth
    jll_lhs, _rhs, _passed   s_k**m, n**(m-1) * s_{km} and whether lhs <= rhs,
                             over the depth grid, row-major in (k, m)

    moment_cells() and jll_cells() yield each check's fields as a tuple;
    moment_checks and jll_checks build the check objects on first access.
    """

    self_conjugate: bool
    pairing_residual: float
    spectral_radius_in_list: bool
    spectral_radius_margin: float
    moment_values: tuple[complex, ...]
    moment_passed: tuple[bool, ...]
    jll_lhs: tuple[float, ...]
    jll_rhs: tuple[float, ...]
    jll_passed: tuple[bool, ...]
    moment_depth: int
    jll_depth: int
    overall: bool

    @functools.cached_property
    def moment_checks(self) -> tuple[MomentCheck, ...]:
        return tuple(itertools.starmap(MomentCheck, self.moment_cells()))

    @functools.cached_property
    def jll_checks(self) -> tuple[JllCheck, ...]:
        return tuple(itertools.starmap(JllCheck, self.jll_cells()))

    def moment_cells(self):
        return zip(itertools.count(1), self.moment_values, self.moment_passed)

    def jll_cells(self):
        ks, ms = _jll_grid(self.jll_depth)
        return zip(ks, ms, self.jll_lhs, self.jll_rhs, self.jll_passed)


@functools.lru_cache(maxsize=16)
def _jll_grid(depth: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(zip(*itertools.product(range(1, depth + 1), repeat=2)))


def _jll_compare(
    a: float, b: float, n: int, m: int, slack: float
) -> tuple[float, float, bool]:
    """Decide a**m <= n**(m-1)*b + slack without overflowing.

    Returns the two sides as floats (inf when unrepresentable) together
    with the verdict.  Once either side leaves double range the slack is
    negligible relative to the values, so the verdict falls back to a
    signed comparison of log-magnitudes.
    """
    log_a = m * math.log10(abs(a)) if a != 0 else -math.inf
    log_b = (m - 1) * math.log10(n) + (math.log10(abs(b)) if b != 0 else -math.inf)
    if log_a < 150.0 and log_b < 150.0:
        lhs = a**m
        rhs = float(n) ** (m - 1) * b
        return lhs, rhs, bool(lhs <= rhs + slack)
    with np.errstate(over="ignore"):
        lhs = float(np.power(np.float64(a), m))
        rhs = float(np.float64(n) ** (m - 1) * np.float64(b))
    sign_l = -1 if (a < 0 and m % 2 == 1) else (0 if a == 0 else 1)
    sign_r = -1 if b < 0 else (0 if b == 0 else 1)
    if sign_l != sign_r:
        holds = sign_l < sign_r
    elif sign_l >= 0:
        holds = log_a <= log_b + 1e-12
    else:
        holds = log_a >= log_b - 1e-12
    return lhs, rhs, bool(holds)


def _powers(base: float, count: int) -> list[float]:
    """base**0 .. base**count by Python's float power.

    A power that overflows is inf, as is every later one.
    """
    out = [1.0]
    try:
        for k in range(1, count + 1):
            out.append(base**k)
    except OverflowError:
        out += [math.inf] * (count + 1 - len(out))
    return out


def _grade_moments(
    s: np.ndarray, n: int, rho: float, depth: int, jll_depth: int, tol: float
) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """Moment and power-sum checks on s_1.. of n entries of spectral radius rho.

    Returns ConditionReport's five tuples, moment_values to jll_passed.
    s needs max(depth, jll_depth**2) entries.  Tolerances scale with
    (1 + rho)**k, as the moments grow, and are inf where that power
    overflows; a NaN moment fails its check.  Both sets of checks are
    graded with array comparisons, but every power is Python's float
    power, which np.power does not always match, so each field is what
    a scalar loop over the checks gives.  Grid cells whose log-magnitude
    reaches 150 are decided by _jll_compare alone.
    """
    growth = np.array(_powers(1.0 + rho, max(depth, jll_depth * jll_depth)))
    moments = s[:depth]
    # Row k, column m of the grid is the check s_k**m <= n**(m-1) * s_km.
    j = np.arange(1, jll_depth + 1)
    k, m = j[:, None], j[None, :]
    km = k * m
    real = s.real[: jll_depth * jll_depth]
    a, b = real[:jll_depth].tolist(), real[km - 1]
    logs = np.array([math.log10(abs(x)) if x != 0 else -math.inf for x in real.tolist()])
    in_range = (m * logs[k - 1] < 150.0) & ((m - 1) * math.log10(n) + logs[km - 1] < 150.0)
    lhs = np.array([_powers(x, jll_depth) for x in a])[:, 1:]
    n_pow = np.array(_powers(float(n), jll_depth - 1))[m - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        tk = np.where(np.isinf(growth), math.inf, tol * growth)[1 : depth + 1]
        moment_ok = (moments.real >= -tk) & (np.abs(moments.imag) <= tk)
        rhs = n_pow * b
        overflow = np.isinf(n_pow) | np.isinf(growth[km])
        slack = np.where(overflow, math.inf, tol * n_pow * growth[km])
        passed = lhs <= rhs + slack
    cells = [lhs.ravel().tolist(), rhs.ravel().tolist(), passed.ravel().tolist()]
    for row, col in zip(*np.nonzero(~in_range)):
        i = row * jll_depth + col
        cells[0][i], cells[1][i], cells[2][i] = _jll_compare(
            a[row], float(b[row, col]), n, int(col) + 1, float(slack[row, col])
        )
    return (tuple(moments.tolist()), tuple(moment_ok.tolist()), *map(tuple, cells))


def check_necessary_conditions(
    lam: SpectrumLike,
    kmax: int | None = None,
    jll_depth: int = 8,
    tol: float = 1e-9,
) -> ConditionReport:
    """Run the four necessary conditions on a list at the given depths.

    Moment checks run for k = 1..kmax (default 4n); the power-sum
    inequality runs over the full (k, m) grid up to jll_depth.  Both are
    graded by _grade_moments.
    """
    spec = as_spectrum(lam)
    if len(spec) == 0:
        raise ValueError("conditions need a nonempty list")
    n = len(spec)
    depth = 4 * n if kmax is None else kmax
    if depth < 1 or jll_depth < 1:
        raise ValueError("depths must be at least 1")
    arr = spec.as_array()
    rho = spec.spectral_radius
    base = tol * (1.0 + rho)

    residual = pairing_residual(spec, spec.conjugate(), base)
    self_conjugate = residual <= base

    margin = float(np.min(np.abs(arr - rho)))
    radius_in_list = margin <= base

    s = power_sums(spec, max(depth, jll_depth * jll_depth))
    values, moment_ok, lhs, rhs, jll_ok = _grade_moments(s, n, rho, depth, jll_depth, tol)
    overall = self_conjugate and radius_in_list and all(moment_ok) and all(jll_ok)
    return ConditionReport(
        self_conjugate=bool(self_conjugate),
        pairing_residual=float(residual),
        spectral_radius_in_list=bool(radius_in_list),
        spectral_radius_margin=margin,
        moment_values=values,
        moment_passed=moment_ok,
        jll_lhs=lhs,
        jll_rhs=rhs,
        jll_passed=jll_ok,
        moment_depth=depth,
        jll_depth=jll_depth,
        overall=bool(overall),
    )


def jll_pair_equivalence(lam: SpectrumLike) -> tuple[bool, bool]:
    """The k=1, m=2 power-sum inequality for a list and for its critical points.

    The second verdict is computed from the closed-form critical moments
    s_1' = (n-1)/n * s_1 and s_2' = (n-2)/n * s_2 + s_1**2 / n**2, not by
    root finding.  The two margins are proportional with the factor
    (n-1)(n-2)/n**2, so the thresholds are scaled the same way and the
    verdicts agree whenever n >= 3.  At n = 2 the critical-side margin
    degenerates to exactly zero, so that verdict is vacuously true.
    """
    spec = as_spectrum(lam)
    n = len(spec)
    if n < 2:
        raise ValueError("the pairing needs a list of at least two entries")
    s = power_sums(spec, 2)
    s1, s2 = complex(s[0]), complex(s[1])
    lhs_margin = (n * s2 - s1 * s1).real
    s1c = (n - 1) / n * s1
    s2c = (n - 2) / n * s2 + (s1 * s1) / (n * n)
    rhs_margin = ((n - 1) * s2c - s1c * s1c).real
    factor = (n - 1) * (n - 2) / (n * n)
    thresh = 1e-12 * n * (1.0 + spec.spectral_radius) ** 2
    original = lhs_margin >= -thresh
    critical = rhs_margin >= -thresh * factor if factor > 0 else rhs_margin >= 0.0
    return bool(original), bool(critical)
