"""End-to-end verification and randomized stress testing.

``verify_critical_realizability`` takes a list, computes its critical
points as the eigenvalues of the differentiator compression, runs the
necessary-condition battery on them, and then tries every certificate
construction that applies: a certificate is a real matrix with no
negative entry whose spectrum has a small backward error as the critical
points.  ``hunt`` repeats that over seeded random realizable spectra,
escalating any condition failure on a sample no route certified before
reporting it as an alarm, since a genuine alarm would be a
counterexample to the conjecture that critical points of realizable
lists are realizable.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .differentiator import (
    compression_critical_points,
    critical_compression,
    power_traces,
)
from .errors import NumericError
# Uncalled here, critical_moment and power_sums stay bound: bench/tracing.py wraps them.
from .moments import (
    ConditionReport,
    _grade_moments,
    check_necessary_conditions,
    critical_moment,
    power_sums,
)
from .polynomial import (
    MonicPolynomial,
    antiderivative_monic,
    derivative_monic,
    from_roots,
    roots,
)
from .realizers import (
    MatrixSignClass,
    circulant,
    companion,
    d_companion,
    hadamard_similarity,
    matrix_sign_class,
    principal_submatrix,
    spectrum,
)
# Uncalled here, pairing_residual stays bound: bench/tracing.py wraps it.
from .spectra import (
    Classification,
    SpectrumLike,
    SpectrumList,
    _CHECK_TOL,
    _EPS,
    _allowance,
    _backward_error,
    _ldexp,
    _rounding_bound,
    as_spectrum,
    classify,
    conjugate_split,
    lazy,
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

@dataclass(frozen=True)
class VerifyConfig:
    """Depths and optional extras for a verification run.

    kmax       moment depth (None means 4 * list size)
    jll_depth  grid depth for the power-sum inequality
    hadamard   optional complex Hadamard matrix enabling the fourth route
    """

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
    """What verify found; compression is B = critical_compression(input),
    whose eigenvalues are critical.  input_class and critical_class are
    classify(input) and classify(critical), made on first read."""

    input: SpectrumList
    critical: SpectrumList
    compression: np.ndarray
    conditions: ConditionReport
    routes: tuple[RouteResult, ...]
    verdict: str

    @lazy
    def input_class(self) -> Classification:
        return classify(self.input)

    @lazy
    def critical_class(self) -> Classification:
        return classify(self.critical)


@dataclass(frozen=True)
class HuntConfig:
    n_min: int
    n_max: int
    samples: int
    seed: int
    ensemble: str = "dense-uniform"
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
    """A route's build found no candidate; the message is the reason."""


def _certify(
    M: np.ndarray, spec: SpectrumList, crit: SpectrumList
) -> tuple[float, str | None]:
    """The backward error of M's spectrum as crit, the critical points of
    spec, and why M fails to match.

    The reason is None when the backward error is within the rounding
    bound of spec (_rounding_bound).  The scale is the spectral radius of spec (by Gauss-Lucas no critical
    point is larger), or 1 for a list of zeros.  Raises NumericError
    when M is not finite.
    """
    if not np.isfinite(M).all():
        raise NumericError("candidate matrix has non-finite entries")
    beta = _backward_error(spectrum(M), crit, spec.spectral_radius or 1.0)
    if beta <= _rounding_bound(len(spec)):
        return beta, None
    return beta, f"spectrum mismatch: backward error {beta:.3e}"


def _certificate(
    M: np.ndarray, spec: SpectrumList, crit: SpectrumList
) -> tuple[np.ndarray | None, float | None, str | None, MatrixSignClass | None]:
    """The certificate candidate M gives for crit, its backward error, why
    there is none, and M's sign class (None for a complex M).

    The one rule of verify and realize: a certificate is a real matrix with
    no negative entry whose spectrum is crit (_certify).  A complex M fails,
    and so does one with an entry below -b * max|M|, b the rounding bound
    of spec (_rounding_bound), sparing the solve.  Entries left at or below
    zero (-0.0 too, not NaN) are rounding and become +0.0, and the backward
    error of that exact matrix decides.  The backward error is None when no
    eigenvalue solve ran.  Raises NumericError when M is not finite.
    """
    try:
        sign = matrix_sign_class(M, _rounding_bound(len(spec)))
    except ValueError as exc:
        return None, None, str(exc), None
    if sign is not MatrixSignClass.NONNEGATIVE:
        reason = f"matrix is not entrywise nonnegative (sign class: {sign.value})"
        return None, None, reason, sign
    M = np.where(M <= 0, 0.0, M)
    beta, reason = _certify(M, spec, crit)
    return (M if reason is None else None), beta, reason, sign


def _dft_circulant(spec: SpectrumList) -> np.ndarray:
    """Real circulant with eigenvalues spec, synthesized by inverse DFT.

    The list is ordered as DFT frequency content d with d[n-j] = conj(d[j]):
    the dominant real entry goes to frequency 0 and, for even order, the
    smallest real entry to frequency n/2.  Exact conjugate pairs
    (conjugate_split) take mirrored slots, by descending imaginary part;
    the remaining real entries must pair up with values equal within
    b * 2*rho (_rounding_bound) to share one.  The entry counts leave
    exactly enough slots.  d is Hermitian, so the real part of its inverse
    transform is taken.  Raises _RouteFailure when no such ordering exists.
    """
    n = len(spec)
    t = _rounding_bound(n) * 2.0 * spec.spectral_radius
    reals, ups = conjugate_split(spec) or ([], [])
    rest = reals[1:-1] if n % 2 == 0 else reals[1:]
    pairs = list(zip(rest[::2], rest[1::2]))
    if not reals or any(abs(r1 - r2) > t for r1, r2 in pairs):
        raise _RouteFailure("no conjugate-symmetric frequency arrangement exists")
    d = np.zeros(n, dtype=complex)
    d[0] = reals[0]
    if n % 2 == 0:
        d[n // 2] = reals[-1]
    for j, u in enumerate(sorted(ups, key=lambda z: (-z.imag, -z.real)), start=1):
        d[j] = u
        d[n - j] = u.conjugate()
    for j, (r1, r2) in enumerate(pairs, start=len(ups) + 1):
        d[j] = d[n - j] = 0.5 * (r1 + r2)
    # A list near the double range overflows to inf or NaN here, and the
    # candidate is then rejected for its non-finite entries.
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.fft.ifft(d).real
    return circulant(c)


def _companion_candidate(spec: SpectrumList, cfg: VerifyConfig) -> np.ndarray:
    """The companion matrix of p'/n; raises NumericError when p, the
    polynomial with roots spec, leaves the double range."""
    p = from_roots(spec)
    if not all(map(cmath.isfinite, p.coeffs)):
        raise NumericError(
            "characteristic polynomial of the list is not finite in double precision"
        )
    return companion(derivative_monic(p))


def _hadamard_candidate(spec: SpectrumList, cfg: VerifyConfig) -> np.ndarray | None:
    if cfg.hadamard is None:
        return None
    try:
        A = principal_submatrix(hadamard_similarity(spec, cfg.hadamard), 1)
    except ValueError as exc:
        raise _RouteFailure(str(exc)) from None
    # The image of a self-conjugate list can be real, as with the DFT
    # matrix; computed in complex arithmetic, its imaginary part is then
    # rounding dust within b * max|A| (_rounding_bound), dropped here.  Any
    # other image stays complex.
    dust = _rounding_bound(len(spec)) * np.max(np.abs(A))
    if conjugate_split(spec) is not None and np.max(np.abs(A.imag)) <= dust:
        return A.real
    return A


# (name, build) in report order.  build(spec, cfg) returns a candidate
# certificate, None when the route's optional input (the Hadamard
# similarity matrix) is absent, or raises _RouteFailure.  Every principal
# submatrix of a circulant or Hadamard realizer carries the critical
# points; the first is used.  Constructions are looked up in this
# module's namespace at call time.
_ROUTES = (
    ("companion", _companion_candidate),
    ("d-companion", lambda spec, cfg: d_companion(spec)),
    (
        "dft-circulant",
        lambda spec, cfg: principal_submatrix(_dft_circulant(spec), 1),
    ),
    ("hadamard", _hadamard_candidate),
)

ROUTE_NAMES = tuple(name for name, _ in _ROUTES)


def _run_route(
    name: str, build, spec: SpectrumList, crit: SpectrumList, cfg: VerifyConfig
) -> RouteResult:
    """Build the route's candidate and certify it (_certificate)."""
    try:
        M = build(spec, cfg)
        if M is None:
            reason = "no similarity matrix supplied"
            return RouteResult(name, False, False, None, reason, None)
        cert, beta, reason, _ = _certificate(M, spec, crit)
    except (_RouteFailure, NumericError) as exc:
        return RouteResult(name, True, False, None, str(exc), None)
    return RouteResult(name, True, cert is not None, cert, reason, beta)


def verify_critical_realizability(
    lam: SpectrumLike, config: VerifyConfig | None = None
) -> RealizabilityReport:
    """Check the critical points of lam for realizability.

    The verdict is "condition-violation" when a necessary condition
    fails on the critical points, "certified" when some construction
    produced a real matrix with no negative entry whose spectrum matches
    them, and "conditions-hold-uncertified" otherwise.

    The critical points are the eigenvalues of the differentiator
    compression B of diag(lam) (critical_compression), whose
    characteristic polynomial is p'/n; nothing is expanded and re-solved,
    so there is no order limit.  Every route's candidate goes through
    _certificate: it must be real and pass the sign test, and then the
    LAPACK eigenvalues of the candidate, as a polynomial, must be within
    backward error 64 * n * eps of the critical points, n = len(lam)
    (_certify); the conditions are graded at spectra._CHECK_TOL.  Raises
    NumericError when B, or the spectral radius or the trace of lam or of
    its critical points, is not finite.
    """
    cfg = config if config is not None else VerifyConfig()
    spec = as_spectrum(lam)
    if len(spec) < 2:
        raise ValueError("verification needs a list of at least two entries")
    B = critical_compression(spec)
    crit = compression_critical_points(spec, B)
    conditions = check_necessary_conditions(crit, kmax=cfg.kmax, jll_depth=cfg.jll_depth)
    routes = tuple(_run_route(name, build, spec, crit, cfg) for name, build in _ROUTES)
    # The report's classes need finite radii and traces; each raises
    # NumericError if not.  Below n * rho = 1e307 no sum can overflow.
    for s in (spec, crit):
        if len(s) * s.spectral_radius > 1e307:
            s.trace
    if not conditions.overall:
        verdict = "condition-violation"
    elif any(r.succeeded for r in routes):
        verdict = "certified"
    else:
        verdict = "conditions-hold-uncertified"
    return RealizabilityReport(
        input=spec,
        critical=crit,
        compression=B,
        conditions=conditions,
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


# Safety factor on _moment_cross_check's bound.  The largest difference
# measured over hunts of the four ensembles was 3.49 times k*n*eps*rho**k
# at n = 5 (2.50 past k = 1), 1.90 at n = 3-32 and 0.55 at n = 33-64.
_CROSS_CHECK_SAFETY = 32.0


def _unit_traces(lam: SpectrumList, B: np.ndarray, kmax: int) -> tuple[int, np.ndarray]:
    """e = frexp(rho)[1], rho the spectral radius of lam, and tr(B**1) ..
    tr(B**kmax) in the unit 2**e of lam, B = critical_compression(lam)."""
    e = math.frexp(lam.spectral_radius)[1]
    return e, power_traces(_ldexp(B, -e), kmax)


def _moment_cross_check(lam: SpectrumList, B: np.ndarray, conditions: ConditionReport) -> None:
    """The battery's moments 1..depth of the critical points must match tr(B**k).

    B = critical_compression(lam).  Both sides are taken in the unit of
    lam, 2**e, e = frexp(rho)[1] for rho its spectral radius: the battery's
    power sums in the unit 2**c of the critical points times 2**(k*(c-e)),
    exactly.  By Gauss-Lucas and ||B|| <= rho neither side leaves the
    double range there, as at the list's own scale; 2**c would not do, as
    the critical points' radius can be 1e-8 of rho.  Both carry an error of
    about k * n * eps * ||B||**k, so moment k must agree to
    _allowance(_CROSS_CHECK_SAFETY * eps, n, rho, k), the condition
    battery's tolerance law.
    """
    rho, depth = lam.spectral_radius, conditions.moment_depth
    e, traces = _unit_traces(lam, B, depth)
    k = np.arange(1, depth + 1)
    shift = (k * (conditions.scale_exponent - e)).repeat(2)  # real and imaginary parts
    direct = _ldexp(conditions.unit_power_sums[:depth], shift)
    bound = _allowance(_CROSS_CHECK_SAFETY * _EPS, len(lam), math.ldexp(rho, -e), k)
    bad = np.flatnonzero(np.abs(direct - traces) > bound)
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"critical-moment cross-check failed at k={i + 1}: "
            f"direct {direct[i]}, compression trace {traces[i]} "
            f"(both divided by 2**{(i + 1) * e})"
        )


def _confirm_alarm(report: RealizabilityReport) -> bool:
    """Whether the condition failures of report's battery are an alarm.

    Reads the battery verify ran and reruns none of it.  A failed
    self-conjugacy or spectral-radius check is an alarm; a failed moment
    or power-sum cell only if tr(B**k), B = report.compression, fails it
    too, graded as the battery grades in the unit of the list (_unit_traces):
    those moments never touch the computed critical points.
    """
    c = report.conditions
    if not c.self_conjugate or not c.spectral_radius_in_list:
        return True
    depth, jll_depth, crit = c.moment_depth, c.jll_depth, report.critical
    e, traces = _unit_traces(report.input, report.compression, max(depth, jll_depth**2))
    moment_ok, _, _, jll_ok = _grade_moments(
        traces, len(crit), math.ldexp(crit.spectral_radius, -e), depth, jll_depth
    )
    return bool((~c.moment_passed & ~moment_ok).any() or (~c.jll_passed & ~jll_ok).any())


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
    vcfg = VerifyConfig(kmax=config.kmax, jll_depth=config.jll_depth)
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
        _moment_cross_check(lam, report.compression, report.conditions)
        for r in report.routes:
            if r.succeeded:
                successes[r.name] += 1
        # A certificate is a nonnegative matrix with the critical points as
        # its spectrum, both within rounding (_rounding_bound), so a
        # condition failing beside one is the battery's rounding and the
        # sample counts as certified.  Any other condition failure is an
        # alarm only if the recheck confirms it.
        if any(r.succeeded for r in report.routes):
            certified += 1
        elif report.verdict == "condition-violation" and _confirm_alarm(report):
            alarms.append(AlarmRecord(sample_index=i, order=n, report=report))
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
    pattern at that step, and the report shows where (sign classes at _CHECK_TOL).
    """
    if matrix_sign_class(companion(p), _CHECK_TOL) is not MatrixSignClass.NONNEGATIVE:
        raise ValueError("the starting companion matrix must be nonnegative")
    steps: list[ChainStep] = []
    q = p
    for c in constants:
        q = antiderivative_monic(q, c)
        try:
            sign = matrix_sign_class(companion(q), _CHECK_TOL)
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
