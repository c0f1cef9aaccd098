"""Complex spectra as canonical multisets.

A spectrum is a finite multiset of complex scalars.  Throughout the
package it is kept in a canonical order: descending real part, ties
broken by descending imaginary part.  That puts the dominant entry
first and keeps conjugate pairs adjacent, which every construction
downstream relies on.
"""

from __future__ import annotations

import cmath
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


@dataclass(frozen=True)
class SpectrumList:
    """Finite multiset of complex scalars, stored in canonical order."""

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

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def conjugate(self) -> "SpectrumList":
        return SpectrumList(tuple(z.conjugate() for z in self.entries))

    @property
    def spectral_radius(self) -> float:
        if not self.entries:
            raise ValueError("spectral radius of an empty list is undefined")
        return max(abs(z) for z in self.entries)

    def is_real(self, tol: float = 1e-9) -> bool:
        return all(abs(z.imag) <= tol for z in self.entries)

    def real_parts(self) -> np.ndarray:
        """Real parts in descending order."""
        return np.sort(np.array([z.real for z in self.entries]))[::-1]


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
    construction reads conjugate structure here; pairing_residual
    measures it on computed data.
    """
    spec = as_spectrum(lam)
    if any(a != b for a, b in zip(spec, spec.conjugate())):
        return None
    return [z.real for z in spec if not z.imag], [z for z in spec if z.imag > 0]


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


def classify(lam: SpectrumLike, tol: float = 1e-9) -> Classification:
    """The list's structured classes and its trace; NumericError if that
    is not finite."""
    spec = as_spectrum(lam)
    if len(spec) == 0:
        raise ValueError("cannot classify an empty list")
    arr = spec.as_array()
    n = len(arr)
    # Realness is decided once; the real-only families below reuse it.
    real = bool(np.all(np.abs(arr.imag) <= tol))
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = complex(arr.sum())
    if not cmath.isfinite(s1):
        raise NumericError("the trace of the list is not finite in double precision")
    nonneg = int(np.count_nonzero(arr.real >= -tol))
    generalized = s1.real >= -tol and nonneg == 1
    suleimanova = real and generalized
    if real:
        re = arr.real
        lo, hi = float(re.min()), float(re.max())
        ciarlet = n * lo + hi >= -tol
        dcomp = (n - 1) * lo + hi >= -tol
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


def interlaces(lam: SpectrumLike, mu: SpectrumLike, tol: float = 1e-9) -> bool:
    """Whether mu interlaces lam: l1 >= m1 >= l2 >= ... >= m_{n-1} >= ln.

    Both lists must be real within tol and |mu| must equal |lam| - 1.
    """
    L = as_spectrum(lam)
    M = as_spectrum(mu)
    if len(M) != len(L) - 1:
        raise ValueError(
            f"interlacing needs sizes n and n-1, got {len(L)} and {len(M)}"
        )
    if not L.is_real(tol) or not M.is_real(tol):
        raise ValueError("interlacing is defined for real lists only")
    lv = L.real_parts()
    mv = M.real_parts()
    for i in range(len(mv)):
        if lv[i] < mv[i] - tol or mv[i] < lv[i + 1] - tol:
            return False
    return True
