"""Monic polynomial arithmetic and a companion-matrix root finder.

Coefficients are stored ascending, ``(a0, ..., a_{n-1})``, with the
leading 1 implicit, so a ``MonicPolynomial`` of degree n represents

    t**n + a_{n-1} t**(n-1) + ... + a_1 t + a_0.

The root finder serves ``critical_points`` and the ``chain`` command only;
verify, realize, critical and hunt take the critical points from the
differentiator compression instead (``differentiator``).  It solves one
polynomial per call: it takes LAPACK's eigenvalues of the companion
matrix, which are backward stable (Edelman & Murakami, Math. Comp. 64, 1995),
polishes them with Newton steps, and then collapses clusters that are
certified to be a single multiple root.  The collapse step is what
keeps multiple roots accurate: an m-fold root perturbs by eps**(1/m)
under coefficient noise, but its cluster centroid, refined through the
(m-1)-st derivative where the root is simple, is good to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .spectra import SpectrumLike, SpectrumList, as_spectrum, multiset_equal

__all__ = [
    "MonicPolynomial",
    "from_roots",
    "evaluate",
    "derivative_monic",
    "antiderivative_monic",
    "roots",
    "critical_points",
]

_EPS = float(np.finfo(float).eps)

# roots() accepts x when every |p(x)| <= _ROOT_TOL * (1 + max|a_k|).
_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial of degree >= 1 with ascending stored coefficients."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a monic polynomial needs degree at least 1")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def descending(self) -> np.ndarray:
        """Coefficient vector [1, a_{n-1}, ..., a_0] for np.polyval."""
        return np.concatenate(
            ([1.0 + 0.0j], np.array(self.coeffs[::-1], dtype=complex))
        )


def from_roots(root_list: SpectrumLike) -> MonicPolynomial:
    """Expand prod (t - r) over the given roots."""
    spec = as_spectrum(root_list)
    if len(spec) == 0:
        raise ValueError("cannot build a polynomial from an empty root list")
    c = np.ones(1, dtype=complex)
    for r in spec:
        c = np.convolve(c, np.array([1.0, -r], dtype=complex))
    asc = c[1:][::-1].copy()
    # Self-conjugate roots give real coefficients in exact arithmetic;
    # scrub the rounding-level imaginary dust so downstream sign tests
    # see genuinely real data.
    if multiset_equal(spec, spec.conjugate(), 1e-12 * (1.0 + spec.spectral_radius)):
        dust = np.abs(asc.imag) <= 1e-12 * (1.0 + np.abs(asc))
        asc[dust] = asc[dust].real
    return MonicPolynomial(tuple(asc))


def evaluate(p: MonicPolynomial, z: complex) -> complex:
    return complex(np.polyval(p.descending(), complex(z)))


def derivative_monic(p: MonicPolynomial) -> MonicPolynomial:
    """p'/n, the monic normalization of the derivative."""
    n = p.degree
    if n < 2:
        raise ValueError("a linear polynomial has no critical points")
    a = np.array(p.coeffs, dtype=complex)
    k = np.arange(1, n)
    # Infinite coefficients give NaN here, which callers report as errors.
    with np.errstate(over="ignore", invalid="ignore"):
        return MonicPolynomial(tuple(a[1:] * k / n))


def antiderivative_monic(p: MonicPolynomial, c: complex = 0.0) -> MonicPolynomial:
    """The monic antiderivative (n+1) * integral of p, with P(0) = (n+1)*c."""
    n = p.degree
    a = np.array(p.coeffs, dtype=complex)
    b = np.empty(n + 1, dtype=complex)
    b[0] = (n + 1) * complex(c)
    # Infinite coefficients give NaN here, which callers report as errors.
    with np.errstate(over="ignore", invalid="ignore"):
        b[1:] = (n + 1) * a / np.arange(1, n + 1)
    return MonicPolynomial(tuple(b))


def _deriv_desc(cdesc: np.ndarray) -> np.ndarray:
    return cdesc[:-1] * np.arange(len(cdesc) - 1, 0, -1)


def _companion_eigenvalues(cdesc: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of the companion matrix of cdesc.

    Real coefficients get a real companion matrix, so real roots come out
    exactly real and complex roots as exact conjugate pairs.  A matrix
    LAPACK rejects, a non-finite one included, gets NaN roots, which the
    residual test turns into an error.
    """
    if not np.any(cdesc.imag):
        cdesc = cdesc.real
    deg = len(cdesc) - 1
    companion = np.diag(np.ones(deg - 1, dtype=cdesc.dtype), -1)
    companion[0] = -cdesc[1:]
    try:
        return np.linalg.eigvals(companion).astype(complex)
    except np.linalg.LinAlgError:
        return np.full(deg, np.nan, dtype=complex)


def _newton_polish(x: np.ndarray, cdesc: np.ndarray, iters: int = 24) -> np.ndarray:
    """Up to iters Newton steps on every point; each keeps its least-residual state.

    The steps stop early once every point's next state equals one of
    its earlier states exactly, which one comparison against the
    history of states decides per step.  A point's next state depends
    only on that point, so from then on it only cycles through states
    whose residuals were already compared, and ``best`` moves only on a
    strict improvement.  The result is the one all iters steps give,
    bit for bit.  NaN never equals itself, so a NaN point runs every
    step.
    """
    dcdesc = _deriv_desc(cdesc)
    best = x.copy()
    fv, dfv = np.polyval(cdesc, best), np.polyval(dcdesc, best)
    best_res = np.abs(fv)
    states = np.empty((iters + 1,) + x.shape, dtype=x.dtype)
    states[0] = x
    for step in range(1, iters + 1):
        flat = dfv == 0
        nxt = states[step - 1] - np.where(flat, 0.0, fv / np.where(flat, 1.0, dfv))
        if (states[:step] == nxt).any(axis=0).all():
            break
        states[step] = nxt
        # p(nxt) is both this step's residual and the next step's value.
        fv, dfv = np.polyval(cdesc, nxt), np.polyval(dcdesc, nxt)
        res = np.abs(fv)
        better = res < best_res
        np.copyto(best, nxt, where=better)
        np.copyto(best_res, res, where=better)
    return best


def _newton_simple(q: np.ndarray, z0: complex, iters: int = 60) -> complex:
    """Newton iteration on q from z0; q is expected to have a simple root nearby."""
    if len(q) == 2:
        return complex(-q[1] / q[0])
    dq = _deriv_desc(q)
    z = complex(z0)
    for _ in range(iters):
        f = complex(np.polyval(q, z))
        df = complex(np.polyval(dq, z))
        if df == 0:
            break
        step = f / df
        z = z - step
        if abs(step) <= _EPS * (1.0 + abs(z)):
            break
    return z


def _collapse_root_clusters(cdesc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Replace certified multiple-root clusters by copies of the exact root.

    A cluster of m approximants is collapsed only when Newton refinement
    through p^(m-1) lands within the cluster radius of the cluster's
    centroid and every lower derivative vanishes there to within its own
    evaluation noise.  Clusters of genuinely distinct roots fail the
    derivative test and are kept.  The refined root may lie well outside
    the approximants' own spread: the polish can leave all m copies on
    one side of a multiple root, eps**(1/m) away from it.
    """
    x = x.copy()
    radius = 1e-3 * (1.0 + float(np.max(np.abs(x))))
    dist = np.abs(x[:, None] - x[None, :])
    seen = np.zeros(len(x), dtype=bool)
    for start in range(len(x)):
        if seen[start]:
            continue
        # Grow the connected component under the cluster radius.
        members = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            close = np.where((dist[frontier.pop()] <= radius) & ~seen)[0]
            for j in close:
                seen[j] = True
                members.append(int(j))
                frontier.append(int(j))
        if len(members) < 2:
            continue
        centre = complex(x[members].mean())
        derivs = [cdesc]
        for _ in range(len(members) - 1):
            derivs.append(_deriv_desc(derivs[-1]))
        z = _newton_simple(derivs[-1], centre)
        if not np.isfinite(z) or abs(z - centre) > radius:
            continue
        # Certified when p, ..., p^(m-1) vanish at z to within their noise.
        noise = (256.0 * _EPS * float(np.polyval(np.abs(d), abs(z))) + 1e-300 for d in derivs)
        if not any(abs(complex(np.polyval(d, z))) > e for d, e in zip(derivs, noise)):
            x[members] = z
    return x


def roots(p: MonicPolynomial) -> SpectrumList:
    """All roots of p with multiplicity, as a canonical SpectrumList.

    Raises NonConvergenceError when the final residual check
    |p(x)| <= 1e-10 * (1 + max|a_k|) fails for some root, including
    when a residual is NaN.
    """
    if p.degree == 1:
        return SpectrumList((-p.coeffs[0],))
    cdesc = p.descending()
    # Overflow and NaN are expected on hard inputs; the residual test
    # turns them into NonConvergenceError.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _newton_polish(_companion_eigenvalues(cdesc), cdesc)
        x = _collapse_root_clusters(cdesc, x)
        worst = float(np.max(np.abs(np.polyval(cdesc, x))))
    bound = _ROOT_TOL * (1.0 + max(abs(c) for c in p.coeffs))
    if not worst <= bound:
        raise NonConvergenceError(
            f"root refinement stalled: residual {worst:.3e} exceeds {bound:.3e}",
            best_residual=worst,
        )
    return SpectrumList(tuple(x))


def critical_points(lam: SpectrumLike) -> SpectrumList:
    """Roots of p'/n for p with root list lam; needs at least two entries."""
    spec = as_spectrum(lam)
    if len(spec) < 2:
        raise ValueError("critical points need a list of at least two entries")
    return roots(derivative_monic(from_roots(spec)))
