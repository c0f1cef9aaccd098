"""Matrix constructions whose spectra are prescribed lists.

Each construction here turns a list (or a polynomial) into an explicit
square matrix with known spectrum.  Entrywise sign structure is what
makes them useful: a nonnegative matrix with spectrum equal to the
critical points of a list certifies that those critical points are
realizable.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

# Uncalled here, roots stays bound: bench/tracing.py wraps it.
from .polynomial import MonicPolynomial, roots
from .spectra import SpectrumLike, SpectrumList, as_spectrum, conjugate_split

__all__ = [
    "MatrixSignClass",
    "companion",
    "d_companion",
    "real_d_companion",
    "dft_matrix",
    "hadamard_similarity",
    "circulant",
    "principal_submatrix",
    "charpoly",
    "spectrum",
    "matrix_sign_class",
]

CHARPOLY_MAX_ORDER = 32


class MatrixSignClass(Enum):
    NONNEGATIVE = "nonnegative"
    METZLER = "metzler"
    NEITHER = "neither"


def companion(p: MonicPolynomial) -> np.ndarray:
    """Companion matrix of p: subdiagonal ones, last column -a_k."""
    return _companion_of(np.array(p.coeffs, dtype=complex))


def _companion_of(a: np.ndarray) -> np.ndarray:
    """Companion matrix of the monic polynomial whose ascending
    coefficients are the complex array a; real when every a_k is."""
    real = not a.imag.any()
    C = np.eye(len(a), k=-1, dtype=float if real else complex)
    C[:, -1] = -(a.real if real else a)
    return C


def d_companion(lam: SpectrumLike, pivot: int | None = None) -> np.ndarray:
    """The (n-1) x (n-1) matrix whose spectrum is the critical points of lam.

    With the pivot entry called l1 and the rest r_1..r_{n-1} in canonical
    order, the matrix is

        A[i][j] = (l1 - r_i) / n          for j != i,
        A[i][i] = ((n-1) r_i + l1) / n.

    ``pivot`` is a 1-based index into the canonical order; by default the
    entry with the largest real part (then largest modulus) is used.
    """
    spec = as_spectrum(lam)
    n = len(spec)
    if n < 2:
        raise ValueError("the construction needs a list of at least two entries")
    entries = list(spec)
    if pivot is None:
        x = entries[0].real
        if all(x > z.real for z in entries[1:]):
            # Entry 0's real part is strictly the largest, so its key below
            # would win on that alone.
            idx = 0
        else:
            # math.hypot, unlike abs, gives inf for a modulus past the double range.
            keys = [(z.real, math.hypot(z.real, z.imag), -i) for i, z in enumerate(entries)]
            idx = keys.index(max(keys))
    else:
        if not 1 <= pivot <= n:
            raise ValueError(f"pivot must be in 1..{n}, got {pivot}")
        idx = pivot - 1
    lam1 = entries[idx]
    rest = np.array(entries[:idx] + entries[idx + 1 :], dtype=complex)
    A = np.full((n - 1, n - 1), lam1 / n, dtype=complex)
    A -= rest[:, None] / n
    A += np.diag(rest)
    if not A.imag.any():
        return A.real.copy()
    return A


def real_d_companion(lam: SpectrumLike) -> np.ndarray:
    """All-real analogue of d_companion for self-conjugate lists.

    Conjugate pairs enter through 2 x 2 rotation blocks

        [[Re u, Im u], [-Im u, Re u]],

    in descending order of Im u, real entries through a diagonal block,
    and the coupling pattern K carries weights 1 (real-real), sqrt(2)
    (real-pair) and 2 (pair-pair) so that the construction is unitarily
    similar to the complex one.  The list must be exactly self-conjugate
    (conjugate_split), and the pivot is its largest real entry.
    """
    spec = as_spectrum(lam)
    n = len(spec)
    if n < 2:
        raise ValueError("the construction needs a list of at least two entries")
    split = conjugate_split(spec)
    if split is None:
        raise ValueError("list is not self-conjugate")
    reals, ups = split
    if not reals:
        raise ValueError("the pivot must be real: the list has no real entry")
    pairs = sorted(ups, key=lambda z: (-z.imag, -z.real))
    lam1 = reals[0]
    rest = reals[1:]
    m = len(reals)
    npairs = len(pairs)
    size = n - 1
    B = np.zeros((size, size))
    B[: m - 1, : m - 1] = np.diag(rest)
    for t, mu in enumerate(pairs):
        r0 = (m - 1) + 2 * t
        B[r0, r0] = B[r0 + 1, r0 + 1] = mu.real
        B[r0, r0 + 1] = mu.imag
        B[r0 + 1, r0] = -mu.imag
    K = np.zeros((size, size))
    K[: m - 1, : m - 1] = 1.0
    if m - 1 > 0 and npairs > 0:
        G = np.kron(np.ones((m - 1, npairs)), [[math.sqrt(2.0), 0.0]])
        K[: m - 1, m - 1 :] = G
        K[m - 1 :, : m - 1] = G.T
    if npairs > 0:
        K[m - 1 :, m - 1 :] = np.kron(np.ones((npairs, npairs)), [[2.0, 0.0], [0.0, 0.0]])
    return B @ (np.eye(size) - K / n) + (lam1 / n) * K


def dft_matrix(n: int) -> np.ndarray:
    """The n x n discrete Fourier matrix with (j,k) entry exp(-2*pi*i*jk/n)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    j = np.arange(n)
    powers = np.outer(j, j) % n
    return np.exp(-2j * np.pi * powers / n)


def hadamard_similarity(lam: SpectrumLike, H: np.ndarray) -> np.ndarray:
    """(1/n) H diag(lam) H* for a complex Hadamard matrix H.

    H must be square of the same order as the list, with unimodular
    entries and H H* = n I.  The result is similar to diag(lam) via the
    unitary H/sqrt(n).
    """
    spec = as_spectrum(lam)
    n = len(spec)
    H = np.asarray(H, dtype=complex)
    if H.shape != (n, n):
        raise ValueError(f"matrix order {H.shape} does not match list size {n}")
    off = float(np.max(np.abs(np.abs(H) - 1.0)))
    if off > 1e-9:
        raise ValueError(f"entries are not unimodular: worst deviation {off:.3e}")
    gram = H @ H.conj().T - n * np.eye(n)
    if float(np.linalg.norm(gram)) > 1e-8 * n:
        raise ValueError("rows are not orthogonal: H H* differs from n I")
    U = H / math.sqrt(n)
    return U @ np.diag(spec.as_array()) @ U.conj().T


def circulant(first_row: np.ndarray) -> np.ndarray:
    """Circulant matrix with the given first row; row i is the row shifted i right."""
    c = np.asarray(first_row)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("first row must be a nonempty vector")
    return c[_circulant_index(c.size)]


@functools.lru_cache(maxsize=64)
def _circulant_index(n: int) -> np.ndarray:
    """The read-only index matrix (j - i) mod n of an order-n circulant,
    built once per order (n**2 * 8 bytes each)."""
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    idx.flags.writeable = False
    return idx


def principal_submatrix(M: np.ndarray, i: int) -> np.ndarray:
    """Delete row and column i (1-based) from a square matrix."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("a square matrix is required")
    n = M.shape[0]
    if n < 2:
        raise ValueError("the matrix must have order at least 2")
    if not 1 <= i <= n:
        raise ValueError(f"index must be in 1..{n}, got {i}")
    keep = np.arange(n) != i - 1
    return M[keep[:, None] & keep].reshape(n - 1, n - 1)


def charpoly(M: np.ndarray) -> MonicPolynomial:
    """Characteristic polynomial via the Faddeev-LeVerrier recursion.

    Exact up to rounding in O(n**4) arithmetic; orders above
    CHARPOLY_MAX_ORDER are rejected because the recursion's conditioning
    degrades with order.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("a square matrix is required")
    n = M.shape[0]
    if n < 1:
        raise ValueError("the matrix must have order at least 1")
    if n > CHARPOLY_MAX_ORDER:
        raise ValueError(
            f"order {n} exceeds the supported maximum {CHARPOLY_MAX_ORDER}"
        )
    eye = np.eye(n, dtype=complex)
    work = M.copy()
    desc = [1.0 + 0.0j]
    c = -np.trace(work)
    desc.append(c)
    for k in range(2, n + 1):
        work = M @ (work + c * eye)
        c = -np.trace(work) / k
        desc.append(c)
    asc = desc[1:][::-1]
    return MonicPolynomial(tuple(asc))


def spectrum(M: np.ndarray) -> SpectrumList:
    """Eigenvalues of M from LAPACK (np.linalg.eigvals).

    The QR algorithm is backward stable in M itself; expanding the
    characteristic polynomial and solving it again would throw that
    away.  A real matrix gives exact conjugate pairs.  Non-square and
    non-finite matrices are rejected with ValueError.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("a square matrix is required")
    if M.shape[0] < 1:
        raise ValueError("the matrix must have order at least 1")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return SpectrumList(np.linalg.eigvals(M).tolist())


def matrix_sign_class(M: np.ndarray, tol: float = 1e-9) -> MatrixSignClass:
    """Entrywise sign classification of a real matrix.

    An entry counts as negative below -tol * max|M|, so c * M has the
    class of M for every c > 0.  A complex-typed matrix has no sign
    class and raises ValueError, even when its imaginary part is zero.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("a square matrix is required")
    if np.iscomplexobj(M):
        raise ValueError("matrix is complex; only a real matrix has a sign class")
    if not M.size:
        return MatrixSignClass.NONNEGATIVE
    # max(-min, max) is max|M|, NaN as that is, without an array of moduli.
    lo, hi = M.min(), M.max()
    thresh = -tol * max(-lo, hi)
    if lo >= thresh:
        return MatrixSignClass.NONNEGATIVE
    off = M[_off_diagonal(M.shape[0])]
    if (off >= thresh).all():
        return MatrixSignClass.METZLER
    return MatrixSignClass.NEITHER


@functools.lru_cache(maxsize=64)
def _off_diagonal(n: int) -> np.ndarray:
    """The read-only mask of the off-diagonal entries of an order-n
    matrix, built once per order (n**2 bytes each)."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask
