"""Trace vectors and compressions that differentiate the spectrum.

A unit vector z is a trace vector of A when z* A**k z equals the
normalized trace of A**k for every k.  Compressing A to the orthogonal
complement of a trace vector produces a matrix whose characteristic
polynomial is p'/n for p the characteristic polynomial of A; checking
that property directly gives an independent second route to the same
yes/no answer.  For A = diag(lam) and the flat vector, the traces of the
powers of that compression are the moments of the critical points of
lam, with no root finding.
"""

from __future__ import annotations

import math

import numpy as np

from .polynomial import derivative_monic
from .realizers import charpoly
from .spectra import SpectrumLike, as_spectrum

__all__ = [
    "unit_vector",
    "is_trace_vector",
    "compression",
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
    is made at tol * (1 + ||A||**k) to track the growth of the powers.
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
        if abs(val - target) > tol * (1.0 + norm_a**k):
            return False
        power = power @ A
    return True


def compression(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Q* A Q for Q an orthonormal basis of the complement of span(z).

    Q is the last n-1 columns of the Householder reflector
    H = I - 2 v v* / (v* v), v = z + phase(z_0) e_1, which maps z to a
    multiple of e_1, so its first column spans z and the rest span the
    complement.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    n = A.shape[0]
    if n < 2:
        raise ValueError("compression needs order at least 2")
    z = unit_vector(z)
    if z.size != n:
        raise ValueError(f"vector length {z.size} does not match order {n}")
    v = z.copy()
    v[0] += z[0] / abs(z[0]) if z[0] != 0 else 1.0
    Q = np.eye(n, n - 1, -1, dtype=complex)
    Q -= (2.0 / np.vdot(v, v).real) * np.outer(v, v[1:].conj())
    return Q.conj().T @ A @ Q


def trace_moments(lam: SpectrumLike, kmax: int) -> np.ndarray:
    """s_1 .. s_kmax of the critical points of lam, as tr(B**k).

    B is the compression of diag(lam) to the complement of the flat
    vector, whose characteristic polynomial is p'/n, so tr(B**k) is the
    k-th moment of the critical points.  The error is about
    k * eps * ||B||**k with ||B|| <= the spectral radius of lam, and no
    eigensolver or root finder is involved.  With m = ceil(sqrt(kmax)),
    B**1 .. B**m and B**0, B**m, B**2m, ... come from repeated products
    and every trace tr(B**i B**jm) from one einsum.
    """
    lam = as_spectrum(lam).as_array()
    if lam.size < 2:
        raise ValueError("critical moments need a list of at least two entries")
    if kmax < 1:
        raise ValueError("moment index must be at least 1")
    B = compression(np.diag(lam), np.ones(lam.size))
    m = math.isqrt(kmax - 1) + 1
    small = [B]
    giant = [np.eye(len(B), dtype=complex)]
    # Overflow to inf/nan is tolerated, as in power_sums.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m - 1):
            small.append(small[-1] @ B)
        for _ in range(-(-kmax // m) - 1):
            giant.append(giant[-1] @ small[-1])
        traces = np.einsum("aij,bji->ba", np.array(small), np.array(giant))
    return traces.ravel()[:kmax]


def is_differentiator(A: np.ndarray, z: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether the compression along z has characteristic polynomial p'/n."""
    B = compression(A, z)
    target = derivative_monic(charpoly(np.asarray(A, dtype=complex)))
    got = charpoly(B)
    ct = np.array(target.coeffs)
    cg = np.array(got.coeffs)
    scale = 1.0 + float(max(np.max(np.abs(ct)), np.max(np.abs(cg))))
    return bool(np.all(np.abs(ct - cg) <= tol * scale))
