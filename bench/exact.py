"""Exact characteristic polynomials of matrices of doubles.

Every double is a dyadic rational, so a matrix of doubles times the
largest denominator of its entries is an integer matrix, on which
Faddeev-LeVerrier divides exactly.  The oracle roots these polynomials
with mpmath; the hunt corpus screens its inputs by the exact
multiplicities of their critical points.  Only ``fractions`` is used,
so screening a corpus imports nothing before the timed loop.
"""

from __future__ import annotations

from fractions import Fraction


def _integer_charpoly(A: list[list[int]]) -> list[int]:
    """Descending coefficients of det(sI - A) for an integer matrix."""
    n = len(A)
    coeffs = [1]
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [
            [sum(A[i][t] * Mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(AM[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("inexact Faddeev-LeVerrier division")
        coeffs.append(c)
        Mk = AM
        for i in range(n):
            Mk[i][i] += c
    return coeffs


def charpoly(M) -> list[Fraction]:
    """Descending coefficients of det(tI - M) for a square matrix of doubles."""
    ratios = [[Fraction(float(x)) for x in row] for row in M]
    D = max(r.denominator for row in ratios for r in row)  # a power of two
    A = [[int(r * D) for r in row] for row in ratios]
    # Coefficient of t**(n-k) in det(tI - M) is that of det(tI - A) over D**k.
    return [Fraction(c, D**k) for k, c in enumerate(_integer_charpoly(A))]


def derivative(p: list[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        for i in range(1, len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic greatest common divisor; both lists have a nonzero leading term."""
    while b:
        a, b = b, _remainder(a, b)
    return [c / a[0] for c in a]


def triple_critical_point_off_spectrum(M) -> bool:
    """Whether p' has a root of multiplicity 3 or more that is no eigenvalue of M.

    Such a root is a triple root of p' made by cancellation among distinct
    eigenvalues, which M's rounded spectrum moves by about eps**(1/3).
    A triple root of p' that is an eigenvalue is a quadruple eigenvalue.
    """
    p = charpoly(M)
    d1 = derivative(p)
    d2 = derivative(d1)
    if len(d2) < 3:
        return False
    g = gcd(gcd(d1, d2), derivative(d2))
    return len(g) > len(gcd(g, p))
