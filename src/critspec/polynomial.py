"""Monic polynomial arithmetic and a companion-matrix root finder.

Coefficients are stored ascending, ``(a0, ..., a_{n-1})``, with the
leading 1 implicit, so a ``MonicPolynomial`` of degree n represents

    t**n + a_{n-1} t**(n-1) + ... + a_1 t + a_0.

The root finder takes LAPACK's eigenvalues of the companion matrix,
which are backward stable (Edelman & Murakami, Math. Comp. 64, 1995),
polishes them with Newton steps, and then collapses clusters that are
certified to be a single multiple root.  The collapse step is what
keeps multiple roots accurate: an m-fold root perturbs by eps**(1/m)
under coefficient noise, but its cluster centroid, refined through the
(m-1)-st derivative where the root is simple, is good to machine
precision.
"""

from __future__ import annotations

from collections.abc import Callable
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
    "roots_batch",
    "critical_points",
]

_EPS = float(np.finfo(float).eps)

# x -> (p(x), p'(x)) for fixed polynomials p; see _value_and_slope.
_Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


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
    return MonicPolynomial(tuple(a[1:] * k / n))


def antiderivative_monic(p: MonicPolynomial, c: complex = 0.0) -> MonicPolynomial:
    """The monic antiderivative (n+1) * integral of p, with P(0) = (n+1)*c."""
    n = p.degree
    a = np.array(p.coeffs, dtype=complex)
    b = np.empty(n + 1, dtype=complex)
    b[0] = (n + 1) * complex(c)
    b[1:] = (n + 1) * a / np.arange(1, n + 1)
    return MonicPolynomial(tuple(b))


def _deriv_desc(cdesc: np.ndarray) -> np.ndarray:
    deg = cdesc.shape[-1] - 1
    return cdesc[..., :-1] * np.arange(deg, 0, -1)


def _value_and_slope(cdesc: np.ndarray) -> _Evaluator:
    """Return x -> (p(x), p'(x)) for the polynomial with coefficients cdesc.

    cdesc may be a stack of polynomials, one per row; x then holds one
    row of deg points per polynomial.  One Horner pass runs over a table
    of cdesc and the derivative's coefficients with one leading zero.
    Each point takes the same steps as np.polyval, so both values equal
    np.polyval(cdesc, x) and np.polyval(_deriv_desc(cdesc), x) bit for
    bit.  The usual recurrence d = d*x + y would round p' differently.
    """
    table = np.zeros((2,) + cdesc.shape, dtype=complex)
    table[0] = cdesc
    table[1, ..., 1:] = _deriv_desc(cdesc)
    # The table's columns, highest degree first, each repeated to full width
    # so every Horner step is one pass over contiguous arrays of one shape.
    columns = np.repeat(np.moveaxis(table, -1, 0)[..., None], cdesc.shape[-1] - 1, axis=-1)

    def value_and_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.zeros(columns.shape[1:], dtype=complex)
        for c in columns:
            y = y * x + c
        return y[0], y[1]

    return value_and_slope


def _companion_eigenvalues(cdesc: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of each row's companion matrix.

    Each row is its own LAPACK call, so no row's dtype or failure can
    change another row's roots.  A row with only real coefficients gets
    a real companion matrix, so its real roots come out exactly real and
    its complex roots as exact conjugate pairs.  A row LAPACK rejects,
    non-finite ones included, gets NaN roots, which the residual test
    turns into that row's error.
    """
    deg = cdesc.shape[-1] - 1
    x = np.full((len(cdesc), deg), np.nan, dtype=complex)
    for row, c in zip(x, cdesc):
        if not np.any(c.imag):
            c = c.real
        companion = np.diag(np.ones(deg - 1, dtype=c.dtype), -1)
        companion[0] = -c[1:]
        try:
            row[:] = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            pass
    return x


def _newton_polish(x: np.ndarray, value_and_slope: _Evaluator, iters: int = 24) -> np.ndarray:
    """Up to iters Newton steps on every point; each keeps its least-residual state.

    The steps stop early once every point repeats a state exactly: its
    next state equals its current one (a fixed point) or its previous
    one (a 2-cycle).  A point's next state depends only on that point
    and its row's polynomial, so from then on it only revisits states
    whose residuals were already compared, and ``best`` moves only on a
    strict improvement.  The result is the one all iters steps give, bit
    for bit.  NaN never equals itself, so a NaN point runs every step.
    """
    best = x.copy()
    fv, dfv = value_and_slope(best)
    best_res = np.abs(fv)
    prev = cur = x
    for _ in range(iters):
        safe = np.where(dfv == 0, 1.0, dfv)
        nxt = cur - np.where(dfv == 0, 0.0, fv / safe)
        if np.all((nxt == cur) | (nxt == prev)):
            break
        # p(nxt) is both this step's residual and the next step's value.
        fv, dfv = value_and_slope(nxt)
        res = np.abs(fv)
        better = res < best_res
        np.copyto(best, nxt, where=better)
        np.copyto(best_res, res, where=better)
        prev, cur = cur, nxt
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
    through p^(m-1) lands inside the cluster and every lower derivative
    vanishes there to within its own evaluation noise.  Clusters of
    genuinely distinct roots fail the derivative test and are kept.
    """
    deg = len(x)
    if deg < 2:
        return x
    x = x.copy()
    scale = 1.0 + float(np.max(np.abs(x)))
    radius = 1e-3 * scale
    dist = np.abs(x[:, None] - x[None, :])
    seen = np.zeros(deg, dtype=bool)
    for start in range(deg):
        if seen[start]:
            continue
        # Grow the connected component under the cluster radius.
        members = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            i = frontier.pop()
            close = np.where((dist[i] <= radius) & ~seen)[0]
            for j in close:
                seen[j] = True
                members.append(int(j))
                frontier.append(int(j))
        m = len(members)
        if m < 2:
            continue
        vals = x[members]
        centre = complex(vals.mean())
        diam = float(np.abs(vals[:, None] - vals[None, :]).max())
        q = cdesc
        for _ in range(m - 1):
            q = _deriv_desc(q)
        z = _newton_simple(q, centre)
        if not np.isfinite(z) or abs(z - centre) > 2.0 * diam + 1e-9 * scale:
            continue
        deriv = cdesc
        certified = True
        for _ in range(m):
            bound = float(np.polyval(np.abs(deriv), abs(z)))
            if abs(complex(np.polyval(deriv, z))) > 256.0 * _EPS * bound + 1e-300:
                certified = False
                break
            deriv = _deriv_desc(deriv)
        if certified:
            x[members] = z
    return x


def _accept(
    p: MonicPolynomial, cdesc: np.ndarray, x: np.ndarray, tol: float
) -> SpectrumList | NonConvergenceError:
    """Collapse clusters and run the residual test."""
    x = _collapse_root_clusters(cdesc, x)
    worst = float(np.max(np.abs(np.polyval(cdesc, x))))
    scale = 1.0 + max(abs(c) for c in p.coeffs)
    if not worst <= tol * scale:
        return NonConvergenceError(
            f"root refinement stalled: residual {worst:.3e} exceeds "
            f"{tol * scale:.3e}",
            best_residual=worst,
        )
    return SpectrumList(tuple(x))


def roots_batch(
    ps: list[MonicPolynomial], tol: float = 1e-10
) -> list[SpectrumList | NonConvergenceError]:
    """roots() of several polynomials of one degree, solved together.

    Each polynomial takes exactly the steps it would take alone, so its
    entry equals roots(p) bit for bit; where roots(p) would raise
    NonConvergenceError, that error is returned in its place.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    degrees = {p.degree for p in ps}
    if len(degrees) != 1:
        raise ValueError("a batched solve needs polynomials of one degree")
    if degrees == {1}:
        return [SpectrumList((-p.coeffs[0],)) for p in ps]
    cdesc = np.array([p.descending() for p in ps])
    # Overflow and NaN inside the iteration, and in p' of a non-finite row,
    # are expected on hard inputs; the residual test turns them into
    # NonConvergenceError.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _newton_polish(_companion_eigenvalues(cdesc), _value_and_slope(cdesc))
        return [_accept(p, c, r, tol) for p, c, r in zip(ps, cdesc, x)]


def roots(p: MonicPolynomial, tol: float = 1e-10) -> SpectrumList:
    """All roots of p with multiplicity, as a canonical SpectrumList.

    Raises NonConvergenceError when the final residual check
    |p(x)| <= tol * (1 + max|a_k|) fails for some root, including when
    a residual is NaN.
    """
    (result,) = roots_batch([p], tol)
    if isinstance(result, NonConvergenceError):
        raise result
    return result


def critical_points(lam: SpectrumLike, tol: float = 1e-10) -> SpectrumList:
    """Roots of p'/n for p with root list lam; needs at least two entries."""
    spec = as_spectrum(lam)
    if len(spec) < 2:
        raise ValueError("critical points need a list of at least two entries")
    return roots(derivative_monic(from_roots(spec)), tol=tol)
