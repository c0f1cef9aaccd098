"""Power sums, the moment-correction determinant, and necessary conditions.

The k-th moment of the critical points of a list can be produced two
ways: directly from computed critical points, or through Monov's
determinant formula

    s_k(crit) = s_k(lam) + (-1/n)**k * d_k(lam),

where d_k is a k x k determinant built from the moments of lam.  The
determinant is the paper's object, but no command calls it: it loses
digits with k, every one past k ~ 35 at unit scale, and on the spectra
of random nonnegative matrices it is off by 1e-6 relative from a median
k of 29 at n = 8 and 18-24 at n = 12-32.  Every command reads tr(B**k)
of the differentiator compression B (differentiator.power_traces) instead,
which never touches the computed critical points either.

The necessary conditions are homogeneous in the list, and so is their
one tolerance law: tol * d * n * rho**d on a term of degree d in n
entries of spectral radius rho (spectra._allowance).
check_necessary_conditions grades them on the list divided by the power
of two just above rho, an exact rescaling under which no moment leaves
the double range, so the verdict of c * lam is the verdict of lam.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .spectra import SpectrumLike, SpectrumList, _allowance, _ldexp, as_spectrum, conjugate_split
from .spectra import lazy, pairing_residual

__all__ = [
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
    # Overflow to inf/nan is tolerated; the condition battery never meets
    # it, since it takes the power sums of the list at unit scale.
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

    Each d_k is the leading k x k minor of one kmax x kmax matrix, O(kmax**4)
    in all; no command calls it, as its digits last only to small k (module
    docstring).  Overflow to inf/nan is tolerated silently, as in power_sums.
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


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of the four standard necessary conditions for realizability.

    self_conjugate           the list equals its conjugate as a multiset
    spectral_radius_in_list  some entry attains the spectral radius
    moment_passed            whether s_k >= 0, k = 1..moment_depth
    jll_passed               whether s_k**m <= n**(m-1) * s_{km}, row k, column m

    Each comparison allows tol * d * n * rho**d for a term of degree d in
    the list (check_necessary_conditions), graded on the list over
    2**scale_exponent, and the report keeps the unit_ values read there:
    s_1..s_K, K = max(moment_depth, jll_depth**2), the grids s_k**m and
    n**(m-1) * s_{km}, the pairing residual and the margin.  At the list's
    scale they are moment_values, jll_lhs, jll_rhs, pairing_residual and
    spectral_radius_margin, rescaled exactly on first read, +-inf past the
    double range.  Arrays are read-only.
    """

    self_conjugate: bool
    spectral_radius_in_list: bool
    moment_passed: np.ndarray
    jll_passed: np.ndarray
    moment_depth: int
    jll_depth: int
    overall: bool
    scale_exponent: int
    unit_power_sums: np.ndarray
    unit_jll_lhs: np.ndarray
    unit_jll_rhs: np.ndarray
    unit_residual: float
    unit_margin: float

    @lazy
    def _list_scale(self) -> tuple:
        # Every value times 2**(d*e) for d its degree in the list.
        e, ms = self.scale_exponent, np.arange(1, self.jll_depth + 1)
        k = np.arange(1, self.moment_depth + 1).repeat(2)  # s_k's real and imaginary parts
        with np.errstate(over="ignore"):
            residual, margin = np.ldexp([self.unit_residual, self.unit_margin], e).tolist()
            moments = _ldexp(self.unit_power_sums[: self.moment_depth], e * k)
            lhs, rhs = np.ldexp([self.unit_jll_lhs, self.unit_jll_rhs], e * np.outer(ms, ms))
        for a in (moments, lhs, rhs):
            a.flags.writeable = False
        return residual, margin, moments, lhs, rhs

    pairing_residual = property(lambda self: self._list_scale[0])
    spectral_radius_margin = property(lambda self: self._list_scale[1])
    moment_values = property(lambda self: self._list_scale[2])
    jll_lhs = property(lambda self: self._list_scale[3])
    jll_rhs = property(lambda self: self._list_scale[4])


@functools.lru_cache(maxsize=64)
def _jll_factors(n: int, jll_depth: int) -> tuple[np.ndarray, np.ndarray, bool]:
    # k*m on the (k, m) grid and n**(m-1) by column m, read-only, and
    # whether n**jll_depth, above both sides of every cell, is a double.
    # Raises OverflowError when some n**(m-1) is not.
    ms = range(1, jll_depth + 1)
    km, n_pow = np.outer(ms, ms), np.array([float(n) ** (m - 1) for m in ms])
    km.flags.writeable = n_pow.flags.writeable = False
    return km, n_pow, float(n_pow[-1]) * n < math.inf


def _scaled(spec: SpectrumList, e: int) -> SpectrumList:
    """spec times 2**e, exactly (_ldexp)."""
    return SpectrumList(_ldexp(spec.as_array(), e).tolist())


def _grade_moments(
    s: np.ndarray, n: int, rho: float, depth: int, jll_depth: int, tol: float
) -> tuple[np.ndarray, ...]:
    """Moment and power-sum checks on s_1.. of n entries of spectral radius rho.

    s and rho are in one unit, in which rho < 1: then |s_k| <= n and
    both sides of a power-sum cell are at most n**m.  The tolerance on
    s_k is _allowance(tol, n, rho, k), and the (k, m) cell's, n**(m-1)
    times that of s_km, is finite wherever the cell is; the checks are
    homogeneous, so scaling s_k by c**k and rho by c changes no verdict.
    s needs max(depth, jll_depth**2) entries; a NaN moment fails its
    check.  Returns the pass flags of s_1..s_depth, then the jll_depth x
    jll_depth grids s_k**m, n**(m-1) * s_km and their pass flags, row k,
    column m.  Every power of a moment is Python's float power, which
    np.power does not always match, so each entry is what a scalar loop
    over the checks gives.  Raises NumericError when a cell leaves the
    double range, which takes n**jll_depth past it.
    """
    tk = _allowance(tol, n, rho, np.arange(max(depth, jll_depth * jll_depth) + 1))
    moments, t = s[:depth], tk[1 : depth + 1]
    moment_ok = (moments.real >= -t) & (np.abs(moments.imag) <= t)
    ms = range(1, jll_depth + 1)
    try:
        km, n_pow, bounded = _jll_factors(n, jll_depth)
        lhs = np.array([x**m for x in s.real[:jll_depth].tolist() for m in ms]).reshape(km.shape)
        with contextlib.nullcontext() if bounded else np.errstate(over="raise"):
            rhs = n_pow * s.real[km - 1]
    except (OverflowError, FloatingPointError):
        raise NumericError(
            f"power-sum inequality at depth {jll_depth} on {n} entries "
            f"leaves the double range"
        ) from None
    return moment_ok, lhs, rhs, lhs <= rhs + n_pow * tk[km]


def check_necessary_conditions(
    lam: SpectrumLike,
    kmax: int | None = None,
    jll_depth: int = 8,
    tol: float = 1e-9,
) -> ConditionReport:
    """Run the four necessary conditions on a list at the given depths.

    Moment checks run for k = 1..kmax (default 4n); the power-sum
    inequality runs over the full (k, m) grid up to jll_depth.  Every
    check is graded on the list divided by 2**e, e = frexp(rho)[1], whose
    spectral radius is in [1/2, 1) (or 0) and whose moments are the
    list's times 2**(-k*e) bit for bit, so none leaves the double range.
    The tolerance is _allowance(tol, n, rho, d) on a term of degree d: on
    s_k (_grade_moments), and at d = 1 on the pairing residual and the
    spectral-radius margin, so c * lam gets the verdict of lam.  The
    report keeps the values it graded, at unit scale, and gives them at
    the list's own scale on first read (ConditionReport).
    """
    spec = as_spectrum(lam)
    if len(spec) == 0:
        raise ValueError("conditions need a nonempty list")
    n = len(spec)
    depth = 4 * n if kmax is None else kmax
    if depth < 1 or jll_depth < 1:
        raise ValueError("depths must be at least 1")
    rho = spec.spectral_radius
    e = math.frexp(rho)[1]
    unit, rho = _scaled(spec, -e), math.ldexp(rho, -e)
    base = _allowance(tol, n, rho, 1)

    # An exact conjugate split survives the rescale; its residual is 0.0.
    exact = conjugate_split(spec) is not None
    residual = 0.0 if exact else pairing_residual(unit, unit.conjugate(), base)
    margin = float(np.abs(unit.as_array() - rho).min())
    self_conjugate, radius_in_list = bool(residual <= base), bool(margin <= base)

    s = power_sums(unit, max(depth, jll_depth * jll_depth))
    moment_ok, lhs, rhs, jll_ok = _grade_moments(s, n, rho, depth, jll_depth, tol)
    overall = self_conjugate and radius_in_list and moment_ok.all() and jll_ok.all()
    for a in (s, moment_ok, lhs, rhs, jll_ok):
        a.flags.writeable = False
    return ConditionReport(
        self_conjugate=self_conjugate,
        spectral_radius_in_list=radius_in_list,
        moment_passed=moment_ok,
        jll_passed=jll_ok,
        moment_depth=depth,
        jll_depth=jll_depth,
        overall=bool(overall),
        scale_exponent=e,
        unit_power_sums=s,
        unit_jll_lhs=lhs,
        unit_jll_rhs=rhs,
        unit_residual=residual,
        unit_margin=margin,
    )


def jll_pair_equivalence(lam: SpectrumLike) -> tuple[bool, bool]:
    """The k=1, m=2 power-sum inequality for a list and for its critical points.

    The second verdict is computed from the closed-form critical moments
    s_1' = (n-1)/n * s_1 and s_2' = (n-2)/n * s_2 + s_1**2 / n**2, not by
    root finding.  The two margins are proportional with the factor
    (n-1)(n-2)/n**2, so the thresholds are scaled the same way and the
    verdicts agree whenever n >= 3.  At n = 2 the critical-side margin
    degenerates to exactly zero, so that verdict is vacuously true.  The
    margin n * s_2 - s_1**2 is allowed n * _allowance(1e-12, n, rho, 2).
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
    thresh = n * _allowance(1e-12, n, spec.spectral_radius, 2)
    original = lhs_margin >= -thresh
    critical = rhs_margin >= -thresh * factor
    return bool(original), bool(critical)
