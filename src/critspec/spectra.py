"""Complex spectra as canonical multisets.

A spectrum is a finite multiset of complex scalars.  Throughout the
package it is kept in a canonical order: descending real part, ties
broken by descending imaginary part.  That puts the dominant entry
first and keeps conjugate pairs adjacent, which every construction
downstream relies on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import NumericError

__all__ = [
    "SpectrumList",
    "SpectrumLike",
    "Classification",
    "as_spectrum",
    "conjugate_split",
    "pairing_residual",
    "multiset_equal",
    "classify",
    "interlaces",
]


def _canonical_key(z: complex) -> tuple[float, float]:
    return (-z.real, -z.imag)


class lazy:
    """functools.cached_property without the lock it takes on every first
    read before Python 3.12, about half the cost of one: the method's value
    is stored in the instance's __dict__, where later reads find it first."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))


@dataclass(frozen=True)
class SpectrumList:
    """Finite multiset of complex scalars, stored in canonical order, with
    its array, spectral radius, trace and conjugate split cached."""

    entries: tuple[complex, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted((complex(z) for z in self.entries), key=_canonical_key))
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[complex]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> complex:
        return self.entries[index]

    @lazy
    def _array(self) -> np.ndarray:
        arr = np.array(self.entries, dtype=complex)
        arr.flags.writeable = False
        return arr

    def as_array(self) -> np.ndarray:
        """The entries as a read-only complex array, built once."""
        return self._array

    def conjugate(self) -> "SpectrumList":
        return SpectrumList(tuple(z.conjugate() for z in self.entries))

    @lazy
    def spectral_radius(self) -> float:
        """max |z| by Python's abs (np.abs can differ in the last bit);
        NumericError when it is not finite in double precision."""
        if not self.entries:
            raise ValueError("spectral radius of an empty list is undefined")
        try:
            if all(map(cmath.isfinite, self.entries)):
                return max(map(abs, self.entries))
        except OverflowError:
            pass
        raise NumericError("the spectral radius of the list is not finite in double precision")

    @lazy
    def trace(self) -> complex:
        """The sum of the entries; NumericError when it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            s1 = complex(self.as_array().sum())
        if not cmath.isfinite(s1):
            raise NumericError("the trace of the list is not finite in double precision")
        return s1

    @lazy
    def _split(self) -> tuple[tuple[float, ...], tuple[complex, ...]] | None:
        # A run of equal real part is in descending imaginary part, so its
        # conjugate is the run reversed; a NaN entry equals nothing, and a
        # single entry is its own conjugate only when it is real.
        e, n = self.entries, len(self.entries)
        reals, ups = [], []
        i = 0
        while i < n:
            x = e[i].real
            j = i + 1
            while j < n and e[j].real == x:
                j += 1
            if j == i + 1:
                if e[i].imag or x != x:
                    return None
                reals.append(x)
            else:
                run = e[i:j]
                if run != tuple(z.conjugate() for z in reversed(run)):
                    return None
                reals += [z.real for z in run if not z.imag]
                ups += [z for z in run if z.imag > 0]
            i = j
        return tuple(reals), tuple(ups)


SpectrumLike = Union[SpectrumList, Iterable[complex]]


def as_spectrum(values: SpectrumLike) -> SpectrumList:
    """Coerce an iterable of scalars into a canonical SpectrumList."""
    if isinstance(values, SpectrumList):
        return values
    return SpectrumList(tuple(values))


def conjugate_split(lam: SpectrumLike) -> tuple[list[float], list[complex]] | None:
    """The real entries and the upper-half entries of a self-conjugate list.

    Both come back in canonical order.  Returns None unless the list
    equals its conjugate exactly, as a multiset: every entry with a
    positive imaginary part has its exact conjugate in the list, and no
    entry is NaN.  An imaginary part of -0.0 is real.  Every real
    construction reads conjugate structure here, computed once per list;
    pairing_residual measures it on computed data.
    """
    split = as_spectrum(lam)._split
    return None if split is None else (list(split[0]), list(split[1]))


def pairing_residual(a: SpectrumLike, b: SpectrumLike, tol: float) -> float:
    """Worst matched distance under a near-optimal pairing of two lists.

    Returns inf when the sizes differ, and 0.0, as the greedy pass would,
    when the canonical orders agree entry for entry: equal multisets
    without NaN.  A greedy nearest-neighbour pass in canonical order is
    tried first; if its worst distance lands in the ambiguous band (above
    tol but within 10*tol) the pairing is redone as an optimal assignment
    on squared distances, which untangles conjugate pairs the greedy
    pass may have crossed.

    scipy is imported here, when the assignment runs, not with the
    module: importing scipy.optimize takes about 0.6 s and 40 MiB (2-vCPU
    Xeon VM), which every fresh critspec process would otherwise pay at
    start-up, and verify and hunt on ordinary lists never reach this
    branch.
    """
    A = as_spectrum(a).as_array()
    B = as_spectrum(b).as_array()
    if A.shape != B.shape:
        return float("inf")
    if np.array_equal(A, B):
        return 0.0
    n = len(A)
    dist = np.abs(A[:, None] - B[None, :])
    used = np.zeros(n, dtype=bool)
    worst = 0.0
    for i in range(n):
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        used[j] = True
        worst = max(worst, float(row[j]))
    if worst <= tol or worst > 10.0 * tol or n < 2:
        return worst
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(dist**2)
    return float(dist[rows, cols].max())


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """x * 2**e for a real or complex array: exact wherever the result is
    a normal double, +-inf (with an overflow warning) past the range."""
    return np.ldexp(x.view(float), e).view(x.dtype)


def _backward_error(nu: SpectrumList, mu: SpectrumList, scale: float) -> float:
    """How far prod(t - nu) is from prod(t - mu), relative to prod(t + |mu|).

    The coefficient differences are summed with the weights they have
    at |t| = scale and divided by prod(scale + |mu|), so the number does
    not change when both lists and the scale are multiplied by one
    constant.  LAPACK's eigenvalues are backward stable, so a matrix
    whose spectrum is mu in exact arithmetic comes out near eps here
    even where mu has multiple entries, whose computed copies move by
    eps**(1/m).  Lists of different lengths are infinitely far apart.
    """
    if len(nu) != len(mu):
        return math.inf
    mu_arr = mu.as_array()
    # numpy divides complex by scale as times 1/scale, which overflows for
    # a subnormal scale; 2**e divides exactly, then the mantissa unit.
    unit, e = math.frexp(scale)
    zeros = _ldexp(np.array([nu.as_array(), mu_arr, -np.abs(mu_arr)]), -e) / unit
    coeffs = np.zeros((3, len(mu) + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for j in range(len(mu)):
        coeffs[:, 1 : j + 2] -= zeros[:, j : j + 1] * coeffs[:, : j + 1]
    return float(np.abs(coeffs[0] - coeffs[1]).sum() / coeffs[2].real.sum())


_EPS = float(np.finfo(float).eps)


def _rounding_bound(n: int) -> float:
    """b = 64 * n * eps, what certification takes for rounding on a list of
    n entries: relative to the candidate in the sign test and the route
    filters, and as the largest backward error of its spectrum.  The
    constructions and LAPACK's eigenvalues err by about n * eps (Edelman &
    Murakami, Math. Comp. 64, 1995); unclamped hunt certificates at
    n = 3-64 measure at most 1.04 * n * eps."""
    return 64.0 * n * _EPS


# The one tol of the battery, its alarm recheck, classify and chain's sign
# test (_allowance), 4.5e6 / n times the rounding n * eps it stands for.
_CHECK_TOL = 1e-9


def _allowance(tol: float, n: int, rho: float, d):
    """tol * d * n * rho**d, what every tolerance-graded check allows a term of
    degree d (int or int array) in n entries of spectral radius rho: the
    rounding error d * n * eps * rho**d of a power sum, times tol / (n * eps).
    Homogeneous of degree d; at unit scale (rho < 1) it can only underflow."""
    return tol * n * d * rho**d


def multiset_equal(a: SpectrumLike, b: SpectrumLike, tol: float) -> bool:
    """True when the two multisets pair up entrywise within tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return pairing_residual(a, b, tol) <= tol


@dataclass(frozen=True)
class Classification:
    """Membership flags for the standard structured spectrum families.

    suleimanova          real, trace >= 0, exactly one nonnegative entry
    generalized_suleimanova  same sign pattern without requiring realness
    ciarlet              real and n*min + max >= 0
    dcomp_inequality     real and (n-1)*min + max >= 0
    """

    suleimanova: bool
    generalized_suleimanova: bool
    ciarlet: bool
    dcomp_inequality: bool
    trace: float


def classify(lam: SpectrumLike, tol: float = _CHECK_TOL) -> Classification:
    """The list's structured classes and its trace; NumericError if the
    spectral radius or the trace is not finite.

    Every test allows tol * n * rho, rho the spectral radius: the degree-1
    allowance (_allowance), so c * lam is in the classes of lam.
    """
    spec = as_spectrum(lam)
    if len(spec) == 0:
        raise ValueError("cannot classify an empty list")
    arr = spec.as_array()
    n = len(arr)
    t = _allowance(tol, n, spec.spectral_radius, 1)
    # Realness is decided once; the real-only families below reuse it.
    real = bool(np.all(np.abs(arr.imag) <= t))
    s1 = spec.trace
    nonneg = int(np.count_nonzero(arr.real >= -t))
    generalized = s1.real >= -t and nonneg == 1
    suleimanova = real and generalized
    if real:
        re = arr.real
        lo, hi = float(re.min()), float(re.max())
        ciarlet = n * lo + hi >= -t
        dcomp = (n - 1) * lo + hi >= -t
    else:
        ciarlet = False
        dcomp = False
    return Classification(
        suleimanova=bool(suleimanova),
        generalized_suleimanova=bool(generalized),
        ciarlet=bool(ciarlet),
        dcomp_inequality=bool(dcomp),
        trace=float(s1.real),
    )


def interlaces(lam: SpectrumLike, mu: SpectrumLike, tol: float = _CHECK_TOL) -> bool:
    """Whether mu interlaces lam: l1 >= m1 >= l2 >= ... >= m_{n-1} >= ln.

    Both lists must be real and |mu| must equal |lam| - 1.  Realness and
    every comparison allow tol * n * rho, n = |lam| and rho the larger
    spectral radius of the two lists, as in classify (_allowance), so
    c * (lam, mu) gets the answer of (lam, mu).
    """
    L = as_spectrum(lam)
    M = as_spectrum(mu)
    if len(M) != len(L) - 1:
        raise ValueError(
            f"interlacing needs sizes n and n-1, got {len(L)} and {len(M)}"
        )
    t = _allowance(tol, len(L), max(S.spectral_radius for S in (L, M) if len(S)), 1)
    if any(abs(z.imag) > t for z in L.entries + M.entries):
        raise ValueError("interlacing is defined for real lists only")
    # Canonical order is descending real part.
    lv = [z.real for z in L]
    mv = [z.real for z in M]
    for i in range(len(mv)):
        if lv[i] < mv[i] - t or mv[i] < lv[i + 1] - t:
            return False
    return True
