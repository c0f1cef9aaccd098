"""Trace vectors and compressions that differentiate the spectrum.

A unit vector z is a trace vector of A when z* A**k z equals the
normalized trace of A**k for every k.  Compressing A to the orthogonal
complement of a trace vector produces a matrix whose characteristic
polynomial is p'/n for p the characteristic polynomial of A; checking
that property directly gives an independent second route to the same
yes/no answer.  For A = diag(lam) and the flat vector, that compression
B is where critspec takes the critical points of lam from: they are the
eigenvalues of B, and the traces of the powers of B are their moments,
with no polynomial expanded or solved.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError
from .realizers import spectrum
from .spectra import SpectrumLike, SpectrumList, _backward_error, _rounding_bound
from .spectra import as_spectrum, conjugate_split

__all__ = [
    "unit_vector",
    "is_trace_vector",
    "compression",
    "critical_compression",
    "compression_critical_points",
    "power_traces",
    "trace_moments",
    "is_differentiator",
]


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Normalize a nonzero vector to unit 2-norm."""
    v = np.asarray(v, dtype=complex).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def is_trace_vector(A: np.ndarray, z: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether z* A**k z == trace(A**k)/n for k = 0..n-1.

    Powers beyond n-1 add nothing: the characteristic polynomial
    rewrites A**n in terms of lower powers.  The comparison at power k
    is made at tol * ||A||**k, relative to the powers, so the answer for
    c * A is that for A at every c > 0.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    n = A.shape[0]
    z = unit_vector(z)
    if z.size != n:
        raise ValueError(f"vector length {z.size} does not match order {n}")
    norm_a = float(np.linalg.norm(A, 2))
    power = np.eye(n, dtype=complex)
    for k in range(n):
        val = complex(z.conj() @ power @ z)
        target = complex(np.trace(power)) / n
        if abs(val - target) > tol * norm_a**k:
            return False
        power = power @ A
    return True


def _complement_basis(z: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Q* and Q, Q an orthonormal basis of the complement of span(z).

    Q is the last n-1 columns of the Householder reflector
    H = I - 2 v v* / (v* v), v = z + phase(z_0) e_1, which maps z to a
    multiple of e_1, so its first column spans z and the rest span the
    complement.  A real dtype gives a real Q, and Q* is then Q.T.
    """
    z = unit_vector(z)
    complex_ = np.issubdtype(dtype, np.complexfloating)
    if not complex_:
        z = z.real
    v = z.copy()
    v[0] += z[0] / abs(z[0]) if z[0] != 0 else 1.0
    Q = np.eye(z.size, z.size - 1, -1, dtype=dtype)
    Q -= (2.0 / np.vdot(v, v).real) * np.outer(v, v[1:].conj())
    return (Q.conj().T if complex_ else Q.T), Q


def compression(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Q* A Q for Q an orthonormal basis of the complement of span(z).

    Q is the Householder basis of _complement_basis, built on every call;
    real A and z give a real result.
    """
    A, z = np.asarray(A), np.asarray(z)
    dtype = np.result_type(A, z, float)
    A = A.astype(dtype, copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    n = A.shape[0]
    if n < 2:
        raise ValueError("compression needs order at least 2")
    if z.size != n:
        raise ValueError(f"vector length {z.size} does not match order {n}")
    Qh, Q = _complement_basis(z, dtype)
    return Qh @ A @ Q


# Keys are (n, m, complex) with n - m even, so an order has at most
# n/2 + 2 of them.  A real entry holds n**2 * 8 bytes at most (Q* is a
# view of Q), a complex one 2 * n**2 * 16, so the cache 64 * n**2 * 32.
@functools.lru_cache(maxsize=64)
def _flat_basis(n: int, m: int, complex_: bool) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Q* and Q of the flat vector of an order-n list with m
    real slots: 1 on each real slot and sqrt(2) on the first slot of each
    pair block (m = n, all ones, for a complex list)."""
    z = np.zeros(n)
    z[:m] = 1.0
    z[m::2] = math.sqrt(2.0)
    Qh, Q = _complement_basis(z, np.dtype(complex if complex_ else float))
    Qh.flags.writeable = Q.flags.writeable = False
    return Qh, Q


def critical_compression(lam: SpectrumLike) -> np.ndarray:
    """B, the compression of diag(lam) to the complement of the flat vector.

    e/sqrt(n) is a trace vector of diag(lam), so the characteristic
    polynomial of B is p'/n: its eigenvalues are the critical points of
    lam (Pereira 2003; Malamud 2005).  For a real list B is real
    symmetric.  For an exactly self-conjugate list (conjugate_split) B
    is built real too: each pair a + ib, a - ib becomes the block
    [[a, -b], [b, a]] in the basis (e_j + e_k)/sqrt(2),
    i(e_j - e_k)/sqrt(2), in which the flat vector stays real, so the
    eigenvalues come out as exact conjugate pairs.  Any other list gives
    a complex B.

    The basis depends only on the order n, the number m of real entries
    and whether B is complex, so it is built once per such key and kept
    read-only in an LRU cache of 64 entries, at most 64 * n**2 * 32 bytes
    for lists of order up to n.  B itself is a fresh array, bit for bit
    the uncached compression of the same matrix along the same vector.
    """
    spec = as_spectrum(lam)
    n = len(spec)
    if n < 2:
        raise ValueError("critical points need a list of at least two entries")
    split = conjugate_split(spec)
    if split is None:
        Qh, Q = _flat_basis(n, n, True)
        return Qh @ np.diag(spec.as_array()) @ Q
    reals, ups = split
    m = len(reals)
    D = np.diag(reals + [w.real for w in ups for _ in (0, 1)])
    for j, w in zip(range(m, n, 2), ups):
        D[j, j + 1], D[j + 1, j] = -w.imag, w.imag
    Qh, Q = _flat_basis(n, m, False)
    return Qh @ D @ Q


def compression_critical_points(lam: SpectrumLike, B: np.ndarray | None = None) -> SpectrumList:
    """The critical points of lam as the eigenvalues of B.

    B is critical_compression(lam), built here unless given.  A real
    list takes LAPACK's symmetric solver, whose eigenvalues are within
    about n * eps * rho of the exact ones, multiple ones included; other
    lists take np.linalg.eigvals, which is backward stable in B.
    Raises NumericError when B is not finite (entries near the top of
    the double range).
    """
    spec = as_spectrum(lam)
    if B is None:
        B = critical_compression(spec)
    if not np.all(np.isfinite(B)):
        raise NumericError("the compression of the list has non-finite entries")
    real = not any(z.imag for z in spec)
    values = np.linalg.eigvalsh(B) if real else np.linalg.eigvals(B)
    return SpectrumList(tuple(values))


def power_traces(B: np.ndarray, kmax: int) -> np.ndarray:
    """tr(B**1) .. tr(B**kmax) of a square matrix.

    With m = ceil(sqrt(kmax)), B**1 .. B**m and B**0, B**m, B**2m, ...
    come from repeated products and every trace tr(B**i B**jm) from one
    einsum.  Overflow to inf/nan is tolerated, as in power_sums.
    """
    if kmax < 1:
        raise ValueError("moment index must be at least 1")
    m = math.isqrt(kmax - 1) + 1
    small = [B]
    giant = [np.eye(len(B), dtype=B.dtype)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m - 1):
            small.append(small[-1] @ B)
        for _ in range(-(-kmax // m) - 1):
            giant.append(giant[-1] @ small[-1])
        traces = np.einsum("aij,bji->ba", np.array(small), np.array(giant))
    return traces.ravel()[:kmax]


def trace_moments(lam: SpectrumLike, kmax: int) -> np.ndarray:
    """s_1 .. s_kmax of the critical points of lam, as tr(B**k).

    B is critical_compression(lam), whose characteristic polynomial is
    p'/n, so tr(B**k) is the k-th moment of the critical points.  The
    error is about k * eps * ||B||**k with ||B|| <= the spectral radius
    of lam, and no eigensolver or root finder is involved.
    """
    return power_traces(critical_compression(lam), kmax)


def is_differentiator(A: np.ndarray, z: np.ndarray) -> bool:
    """Whether the compression along z has characteristic polynomial p'/n,
    p that of A: its spectrum is within the certifier's backward error
    (_rounding_bound) of the critical points of A's spectrum, as a route
    certificate's must be.  No polynomial is expanded: no order limit."""
    B, lam = compression(A, z), spectrum(A)
    crit, bound = compression_critical_points(lam), _rounding_bound(len(lam))
    return _backward_error(spectrum(B), crit, lam.spectral_radius or 1.0) <= bound
