"""End-to-end verification and randomized stress testing.

``verify_critical_realizability`` takes a list, computes its critical
points, runs the necessary-condition battery on them, and then tries
every certificate construction that applies.  ``hunt`` repeats that over
seeded random realizable spectra, escalating any condition failure
before reporting it as an alarm, since a genuine alarm would be a
counterexample to the conjecture that critical points of realizable
lists are realizable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
# Uncalled here, critical_moment and power_sums stay bound: bench/tracing.py
# wraps them.
from .moments import (
    ConditionReport,
    _grade_moments,
    check_necessary_conditions,
    critical_moment,
    critical_moments,
    power_sums,
)
from .polynomial import (
    MonicPolynomial,
    antiderivative_monic,
    derivative_monic,
    from_roots,
    roots,
    roots_batch,
)
from .realizers import (
    MatrixSignClass,
    _split_conjugate,
    charpoly,
    circulant,
    companion,
    d_companion,
    hadamard_similarity,
    matrix_sign_class,
    principal_submatrix,
    spectrum,
)
from .spectra import (
    Classification,
    SpectrumLike,
    SpectrumList,
    as_spectrum,
    classify,
    pairing_residual,
)

__all__ = [
    "ENSEMBLES",
    "ROUTE_NAMES",
    "VerifyConfig",
    "RouteResult",
    "RealizabilityReport",
    "HuntConfig",
    "AlarmRecord",
    "HuntReport",
    "ChainStep",
    "ChainReport",
    "verify_critical_realizability",
    "random_realizable",
    "hunt",
    "antiderivative_chain",
]

ENSEMBLES = (
    "dense-uniform",
    "sparse-bernoulli",
    "row-stochastic",
    "circulant-nonnegative",
)

# Largest pairing distance at which a certificate matches the critical points.
_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and optional extras for a verification run.

    tol        tolerance for condition checks and sign tests
    kmax       moment depth (None means 4 * list size)
    jll_depth  grid depth for the power-sum inequality
    hadamard   optional complex Hadamard matrix enabling the fourth route
    """

    tol: float = 1e-9
    kmax: int | None = None
    jll_depth: int = 8
    hadamard: np.ndarray | None = None


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one certificate construction attempt."""

    name: str
    attempted: bool
    succeeded: bool
    certificate: np.ndarray | None
    reason: str | None
    residual: float | None


@dataclass(frozen=True)
class RealizabilityReport:
    input: SpectrumList
    critical: SpectrumList
    conditions: ConditionReport
    input_class: Classification
    critical_class: Classification
    routes: tuple[RouteResult, ...]
    verdict: str


@dataclass(frozen=True)
class HuntConfig:
    n_min: int
    n_max: int
    samples: int
    seed: int
    ensemble: str = "dense-uniform"
    tol: float = 1e-9
    kmax: int | None = None
    jll_depth: int = 8


@dataclass(frozen=True)
class AlarmRecord:
    sample_index: int
    order: int
    report: RealizabilityReport


@dataclass(frozen=True)
class HuntReport:
    seed: int
    ensemble: str
    n_min: int
    n_max: int
    samples: int
    certified: int
    uncertified: int
    alarms: tuple[AlarmRecord, ...]
    route_successes: dict[str, int] = field(default_factory=dict)
    wall_clock: float = 0.0


class _RouteFailure(Exception):
    """A route's candidate did not certify; the message is the reason."""

    def __init__(self, reason: str, residual: float | None = None):
        super().__init__(reason)
        self.residual = residual


def _require_nonnegative(
    M: np.ndarray, tol: float, what: str, detail: str | None = None
) -> None:
    """Raise _RouteFailure unless M is entrywise nonnegative.

    The reason reads "<what> is not entrywise nonnegative (<detail>)",
    with the sign class as the default detail; a matrix with non-real
    entries fails with matrix_sign_class's own message.
    """
    try:
        sign = matrix_sign_class(M, tol)
    except ValueError as exc:
        raise _RouteFailure(str(exc)) from None
    if sign is not MatrixSignClass.NONNEGATIVE:
        detail = detail or f"sign class: {sign.value}"
        raise _RouteFailure(f"{what} is not entrywise nonnegative ({detail})")


def _finish_route(
    name: str, M: np.ndarray, got: SpectrumList | NumericError, crit: SpectrumList
) -> RouteResult:
    """Match a sign-checked candidate's spectrum, or its solver error, to crit."""
    if isinstance(got, NumericError):
        return RouteResult(name, True, False, None, str(got), None)
    residual = float(pairing_residual(got, crit, _MATCH_TOL))
    if not residual <= _MATCH_TOL:
        reason = f"spectrum mismatch: worst pairing distance {residual:.3e}"
        return RouteResult(name, True, False, None, reason, residual)
    return RouteResult(name, True, True, M, None, residual)


def _dft_circulant(spec: SpectrumList, tol: float) -> np.ndarray:
    """Real circulant with eigenvalues spec, synthesized by inverse DFT.

    The list is ordered as DFT frequency content d with d[n-j] = conj(d[j]):
    the dominant real entry goes to frequency 0 and, for even order, the
    smallest real entry to frequency n/2.  Conjugate pairs take mirrored
    slots; the remaining real entries must pair up with equal values to
    share one.  The entry counts leave exactly enough slots.  Raises
    _RouteFailure when no such ordering exists or the inverse transform
    is not real.
    """
    n = len(spec)
    tol_abs = tol * (1.0 + spec.spectral_radius)
    try:
        reals, ups = _split_conjugate(spec, tol_abs)
    except ValueError:
        reals, ups = [], []
    rest = reals[1:-1] if n % 2 == 0 else reals[1:]
    pairs = list(zip(rest[::2], rest[1::2]))
    if not reals or any(abs(r1 - r2) > 2.0 * tol_abs for r1, r2 in pairs):
        raise _RouteFailure("no conjugate-symmetric frequency arrangement exists")
    d = np.zeros(n, dtype=complex)
    d[0] = reals[0]
    if n % 2 == 0:
        d[n // 2] = reals[-1]
    for j, u in enumerate(ups, start=1):
        d[j] = u
        d[n - j] = u.conjugate()
    for j, (r1, r2) in enumerate(pairs, start=len(ups) + 1):
        d[j] = d[n - j] = 0.5 * (r1 + r2)
    c = np.fft.ifft(d)
    if float(np.max(np.abs(c.imag))) > tol_abs:
        raise _RouteFailure("inverse transform is not real")
    return circulant(c.real)


def _dft_candidate(
    spec: SpectrumList, dp: MonicPolynomial, cfg: VerifyConfig
) -> np.ndarray:
    C = _dft_circulant(spec, cfg.tol)
    # Every principal submatrix of a circulant realizer carries the
    # critical points; use the first.  For n >= 3 it holds every entry
    # of C, so this check only gives the verdict of _build_route's sign
    # check early, with its own reason.
    _require_nonnegative(
        C, cfg.tol, "circulant", f"min entry {float(C[0].min()):.3e}"
    )
    return principal_submatrix(C, 1)


def _hadamard_candidate(
    spec: SpectrumList, dp: MonicPolynomial, cfg: VerifyConfig
) -> np.ndarray | None:
    if cfg.hadamard is None:
        return None
    try:
        A = hadamard_similarity(spec, cfg.hadamard)
    except ValueError as exc:
        raise _RouteFailure(str(exc)) from None
    # With a general H the image can be negative outside the certified
    # submatrix, or complex, so the whole image is checked.
    _require_nonnegative(A, cfg.tol, "similarity image")
    return principal_submatrix(A.real, 1)


# (name, build) in report order.  build(spec, dp, cfg) returns a candidate
# certificate, None when the route's optional input (the Hadamard
# similarity matrix) is absent, or raises _RouteFailure.  Constructions
# are looked up in this module's namespace at call time.
_ROUTES = (
    ("companion", lambda spec, dp, cfg: companion(dp)),
    ("d-companion", lambda spec, dp, cfg: d_companion(spec)),
    ("dft-circulant", _dft_candidate),
    ("hadamard", _hadamard_candidate),
)

ROUTE_NAMES = tuple(name for name, _ in _ROUTES)


def _build_route(name: str, build, spec, dp, cfg: VerifyConfig) -> np.ndarray | RouteResult:
    """The route's sign-checked candidate, or its result when there is none.

    A matrix of the wrong sign never reaches the eigenvalue solve.
    """
    try:
        M = build(spec, dp, cfg)
        if M is None:
            reason = "no similarity matrix supplied"
            return RouteResult(name, False, False, None, reason, None)
        _require_nonnegative(M, cfg.tol, "matrix")
    except _RouteFailure as exc:
        return RouteResult(name, True, False, None, str(exc), exc.residual)
    return M


def verify_critical_realizability(
    lam: SpectrumLike, config: VerifyConfig | None = None
) -> RealizabilityReport:
    """Check the critical points of lam for realizability.

    The verdict is "condition-violation" when a necessary condition
    fails on the critical points, "certified" when some construction
    produced a nonnegative matrix whose spectrum matches them, and
    "conditions-hold-uncertified" otherwise.

    Every route's candidate is built and sign-checked first; p'/n and
    the characteristic polynomials of the candidates are then solved in
    one batch.
    """
    cfg = config if config is not None else VerifyConfig()
    spec = as_spectrum(lam)
    if len(spec) < 2:
        raise ValueError("verification needs a list of at least two entries")
    p = from_roots(spec)
    dp = derivative_monic(p)
    built = [_build_route(name, build, spec, dp, cfg) for name, build in _ROUTES]
    candidates = [M for M in built if isinstance(M, np.ndarray)]
    # Errors keep their precedence: a stalled p'/n first, then the
    # condition battery, then charpoly's order limit.
    try:
        polys, order_error = [dp] + [charpoly(M) for M in candidates], None
    except ValueError as exc:
        polys, order_error = [dp], exc
    crit, *spectra = roots_batch(polys)
    if isinstance(crit, NumericError):
        raise crit
    conditions = check_necessary_conditions(
        crit, kmax=cfg.kmax, jll_depth=cfg.jll_depth, tol=cfg.tol
    )
    if order_error is not None:
        raise order_error
    matched = iter(spectra)
    routes = tuple(
        _finish_route(name, M, next(matched), crit) if isinstance(M, np.ndarray) else M
        for (name, _), M in zip(_ROUTES, built)
    )
    if not conditions.overall:
        verdict = "condition-violation"
    elif any(r.succeeded for r in routes):
        verdict = "certified"
    else:
        verdict = "conditions-hold-uncertified"
    return RealizabilityReport(
        input=spec,
        critical=crit,
        conditions=conditions,
        input_class=classify(spec, cfg.tol),
        critical_class=classify(crit, cfg.tol),
        routes=routes,
        verdict=verdict,
    )


def random_realizable(
    n: int, seed, ensemble: str = "dense-uniform"
) -> tuple[SpectrumList, np.ndarray]:
    """Spectrum and matrix of a random entrywise-nonnegative matrix.

    ``seed`` is anything numpy's default_rng accepts, including an
    existing Generator, which is drawn from in place.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")
    rng = np.random.default_rng(seed)
    if ensemble == "dense-uniform":
        M = rng.random((n, n))
    elif ensemble == "sparse-bernoulli":
        values = rng.random((n, n))
        mask = rng.random((n, n)) < 0.35
        M = values * mask
    elif ensemble == "row-stochastic":
        M = rng.random((n, n))
        M = M / M.sum(axis=1, keepdims=True)
    else:
        M = circulant(rng.random(n))
    return spectrum(M), M


def _moment_cross_check(lam: SpectrumList, conditions: ConditionReport) -> None:
    """Moments of computed critical points must match the determinant formula.

    The direct moments are the ones the condition battery graded, at its
    depth (kmax, or 4 times the number of critical points).
    """
    formula = critical_moments(lam, conditions.moment_depth)
    for check, b in zip(conditions.moment_checks, formula.tolist()):
        a = check.value
        if abs(a - b) > 1e-6 * max(1.0, abs(a), abs(b)):
            raise NumericError(
                f"critical-moment cross-check failed at k={check.k}: "
                f"direct {a}, determinant formula {b}"
            )


def _confirm_alarm(lam: SpectrumList, crit: SpectrumList, cfg: VerifyConfig) -> bool:
    """Re-run a failed condition battery tighter before believing it.

    The recheck drops the tolerance a hundredfold, and any moment or
    power-sum failure must reproduce through the determinant formula
    computed from the original list, which never touches the computed
    critical points.  Only failures that survive both are alarms.
    """
    tight_tol = cfg.tol / 100.0
    tight = check_necessary_conditions(
        crit, kmax=cfg.kmax, jll_depth=cfg.jll_depth, tol=tight_tol
    )
    if tight.overall:
        return False
    if not tight.self_conjugate or not tight.spectral_radius_in_list:
        return True
    depth, jll_depth = tight.moment_depth, tight.jll_depth
    formula = critical_moments(lam, max(depth, jll_depth * jll_depth))
    moment_checks, jll_checks = _grade_moments(
        formula, len(crit), crit.spectral_radius, depth, jll_depth, tight_tol
    )
    pairs = zip(tight.moment_checks + tight.jll_checks, moment_checks + jll_checks)
    return any(not (d.passed or f.passed) for d, f in pairs)


def hunt(config: HuntConfig) -> HuntReport:
    """Stress-test realizability of critical points over random spectra.

    Fully deterministic for a given config: sample i draws from a
    generator seeded by (seed, i), so reports are reproducible and
    individual samples can be replayed in isolation.
    """
    if config.samples < 1:
        raise ValueError("need at least one sample")
    if config.n_min < 2 or config.n_max < config.n_min:
        raise ValueError("order range must satisfy 2 <= n_min <= n_max")
    if config.ensemble not in ENSEMBLES:
        raise ValueError(
            f"unknown ensemble {config.ensemble!r}; choose from {ENSEMBLES}"
        )
    vcfg = VerifyConfig(tol=config.tol, kmax=config.kmax, jll_depth=config.jll_depth)
    start = time.perf_counter()
    certified = 0
    uncertified = 0
    alarms: list[AlarmRecord] = []
    successes = {name: 0 for name in ROUTE_NAMES}
    for i in range(config.samples):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        n = int(rng.integers(config.n_min, config.n_max + 1))
        lam, _ = random_realizable(n, rng, config.ensemble)
        report = verify_critical_realizability(lam, vcfg)
        _moment_cross_check(lam, report.conditions)
        for r in report.routes:
            if r.succeeded:
                successes[r.name] += 1
        # A condition failure is an alarm only if the recheck confirms it;
        # otherwise the sample counts by what the routes say.
        if report.verdict == "condition-violation" and _confirm_alarm(
            lam, report.critical, vcfg
        ):
            alarms.append(AlarmRecord(sample_index=i, order=n, report=report))
        elif any(r.succeeded for r in report.routes):
            certified += 1
        else:
            uncertified += 1
    return HuntReport(
        seed=config.seed,
        ensemble=config.ensemble,
        n_min=config.n_min,
        n_max=config.n_max,
        samples=config.samples,
        certified=certified,
        uncertified=uncertified,
        alarms=tuple(alarms),
        route_successes=successes,
        wall_clock=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class ChainStep:
    polynomial: MonicPolynomial
    constant: complex
    sign_class: MatrixSignClass
    root_list: SpectrumList


@dataclass(frozen=True)
class ChainReport:
    start: MonicPolynomial
    steps: tuple[ChainStep, ...]
    all_nonnegative: bool


def antiderivative_chain(p: MonicPolynomial, constants) -> ChainReport:
    """Iterate monic antiderivatives, tracking companion sign and roots.

    The starting polynomial must have a nonnegative companion matrix.
    With nonpositive coefficients and nonpositive constants the chain
    stays companion-nonnegative forever; a positive constant breaks the
    pattern at that step, and the report shows where.
    """
    if matrix_sign_class(companion(p)) is not MatrixSignClass.NONNEGATIVE:
        raise ValueError("the starting companion matrix must be nonnegative")
    steps: list[ChainStep] = []
    q = p
    for c in constants:
        q = antiderivative_monic(q, c)
        try:
            sign = matrix_sign_class(companion(q))
        except ValueError:
            sign = MatrixSignClass.NEITHER
        steps.append(
            ChainStep(
                polynomial=q,
                constant=complex(c),
                sign_class=sign,
                root_list=roots(q),
            )
        )
    return ChainReport(
        start=p,
        steps=tuple(steps),
        all_nonnegative=all(s.sign_class is MatrixSignClass.NONNEGATIVE for s in steps),
    )
