"""Trace vectors and compressions that differentiate the spectrum.

A unit vector z is a trace vector of A when z* A**k z equals the
normalized trace of A**k for every k.  Compressing A to the orthogonal
complement of a trace vector produces a matrix whose characteristic
polynomial is p'/n for p the characteristic polynomial of A; checking
that property directly gives an independent second route to the same
yes/no answer.
"""

from __future__ import annotations

import numpy as np

from .polynomial import derivative_monic
from .realizers import charpoly

__all__ = ["unit_vector", "is_trace_vector", "compression", "is_differentiator"]


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
    """Q* A Q for Q an orthonormal basis of the complement of span(z)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("a square matrix is required")
    n = A.shape[0]
    if n < 2:
        raise ValueError("compression needs order at least 2")
    z = unit_vector(z)
    if z.size != n:
        raise ValueError(f"vector length {z.size} does not match order {n}")
    # A complete Householder QR of z: its first column spans z, the rest
    # are an orthonormal basis of the complement.
    Q = np.linalg.qr(z[:, None], mode="complete")[0][:, 1:]
    return Q.conj().T @ A @ Q


def is_differentiator(A: np.ndarray, z: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether the compression along z has characteristic polynomial p'/n."""
    B = compression(A, z)
    target = derivative_monic(charpoly(np.asarray(A, dtype=complex)))
    got = charpoly(B)
    ct = np.array(target.coeffs)
    cg = np.array(got.coeffs)
    scale = 1.0 + float(max(np.max(np.abs(ct)), np.max(np.abs(cg))))
    return bool(np.all(np.abs(ct - cg) <= tol * scale))
