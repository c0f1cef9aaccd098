"""The benchmark's workloads: seeded inputs, the operation, and its checks.

Every workload is a corpus of inputs made from the workload seed by the
benchmark's own numpy Generator, an operation that takes one input and
calls critspec's public API, and a check that decides off the clock
whether the answer is right.  Operations are deterministic, so each
input is checked once against the oracle, and every later operation on
it must repeat the first answer exactly.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

import critspec
from critspec.cli import parse_spectrum, run as cli_run

import exact

HUNT_CORPUS = {5: 1024, 16: 32}  # corpus size by order
VERIFY_CORPUS = 510


class ExitStatusError(RuntimeError):
    """A CLI call ended with an input-error (2) or numeric-failure (3) status."""


@dataclass
class Check:
    wrong: bool
    error: float | None = None  # pairing distance / (1 + rho) against the oracle
    alarm: bool = False
    reason: str | None = None


def _oracle():
    # mpmath is imported only after the timed loop, so it does not count
    # in the process's peak memory or disturb the timed calls.
    import oracle

    return oracle


# --- hunt ---------------------------------------------------------------


@dataclass(frozen=True)
class HuntInput:
    seed: int
    ensemble: str


class HuntWorkload:
    """One ``hunt`` sample per operation, cycling the four ensembles.

    With ``screen``, the corpus leaves out every draw whose exact p' has
    a triple root that is no eigenvalue of the drawn matrix (see
    ``exact.triple_critical_point_off_spectrum``).  About 1 sparse-bernoulli draw in 15000 at order 5 is such a draw:
    p = t**5 - a*t**4 - b, say, gives p' a triple root at 0 that the
    rounded spectrum moves by about eps**(1/3), so critspec answers up to
    2e-6 * (1 + rho) off, beyond the oracle bound.  ``hunt-n5-triple``
    runs known draws of this kind and reports them as failures.
    """

    def __init__(self, order: int, screen: bool = False):
        self.order = order
        self.screen = screen

    def corpus(self, seed: int) -> list[HuntInput]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.order]))
        ens = critspec.ENSEMBLES
        out: list[HuntInput] = []
        drawn: set[int] = set()
        while len(out) < HUNT_CORPUS[self.order]:
            s = int(rng.integers(2**31))
            if s in drawn:
                continue
            drawn.add(s)
            item = HuntInput(s, ens[len(out) % len(ens)])
            if self.screen and exact.triple_critical_point_off_spectrum(
                self.replay_matrix(item)
            ):
                continue
            out.append(item)
        return out

    def op(self, item: HuntInput) -> critspec.HuntReport:
        n = self.order
        return critspec.hunt(
            critspec.HuntConfig(n, n, samples=1, seed=item.seed, ensemble=item.ensemble)
        )

    @staticmethod
    def signature(report: critspec.HuntReport) -> tuple:
        return (
            report.samples,
            report.certified,
            report.uncertified,
            len(report.alarms),
            tuple(sorted(report.route_successes.items())),
        )

    def first_call_code(self, item: HuntInput) -> str:
        n = self.order
        return (
            "from critspec import HuntConfig, NumericError, hunt\n"
            "try:\n"
            f"    hunt(HuntConfig({n}, {n}, samples=1, seed={item.seed}, "
            f"ensemble={item.ensemble!r}))\n"
            "except NumericError:\n"
            "    pass\n"
        )

    def replay_matrix(self, item: HuntInput) -> np.ndarray:
        """The matrix ``hunt`` draws for sample 0, by the same draws in the same order."""
        n = self.order
        rng = np.random.default_rng(np.random.SeedSequence([item.seed, 0]))
        if int(rng.integers(n, n + 1)) != n:
            raise AssertionError("order draw out of range")
        if item.ensemble == "dense-uniform":
            return rng.random((n, n))
        if item.ensemble == "sparse-bernoulli":
            values = rng.random((n, n))
            return values * (rng.random((n, n)) < 0.35)
        if item.ensemble == "row-stochastic":
            M = rng.random((n, n))
            return M / M.sum(axis=1, keepdims=True)
        c = rng.random(n)
        return c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]

    def check(self, item: HuntInput, signature: tuple) -> Check:
        samples, certified, uncertified, alarms, _ = signature
        if samples != 1 or certified + uncertified + alarms != 1:
            return Check(True, reason=f"malformed report {signature}")
        # hunt does not return the critical points it computed; replay
        # them through the same public calls, then test them.
        M = self.replay_matrix(item)
        rng = np.random.default_rng(np.random.SeedSequence([item.seed, 0]))
        n = int(rng.integers(self.order, self.order + 1))
        lam, drawn = critspec.random_realizable(n, rng, item.ensemble)
        if not np.array_equal(M, drawn):
            return Check(True, reason="replayed matrix differs from the drawn one")
        crit = critspec.critical_points(lam)
        oracle = _oracle()
        err = oracle.scaled_error(crit, oracle.critical_points_of_matrix(M))
        return Check(
            oracle.is_wrong(err), err, alarm=alarms > 0,
            reason=f"critical points off by {err:.3e} (1 + rho)",
        )


# Draws of that kind found by screening hunt-n5 corpora, with critspec's
# error against the oracle over (1 + rho): 1.83e-6, 1.39e-6, 1.05e-6.
TRIPLE_DRAWS = (
    HuntInput(1038655503, "sparse-bernoulli"),
    HuntInput(366167458, "sparse-bernoulli"),
    HuntInput(106129212, "sparse-bernoulli"),
)


class KnownDraws(HuntWorkload):
    """``hunt`` on a fixed list of draws, the same for every seed."""

    def __init__(self, order: int, draws: tuple[HuntInput, ...]):
        super().__init__(order)
        self.draws = draws

    def corpus(self, seed: int) -> list[HuntInput]:
        return list(self.draws)


# --- verify through the CLI ---------------------------------------------


@dataclass(frozen=True)
class VerifyInput:
    kind: str
    values: tuple[complex, ...]
    literal: str
    verdict: str  # the known answer


def literal(values) -> str:
    """Comma-separated literals that parse back to exactly these doubles."""

    def one(z: complex) -> str:
        if z.imag == 0:
            return repr(z.real)
        sign = "+" if z.imag > 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}i"

    return ",".join(one(complex(z)) for z in values)


def _suleimanova(rng, groups) -> list[complex]:
    """One positive entry dominating the negatives, in groups of equal entries.

    Distinct negatives are at least 0.05 apart.  Nearly equal entries
    make a near-multiple critical point, which belongs to the cluster
    workload, not here.
    """
    mags = 0.05 + np.cumsum(rng.uniform(0.05, 0.25, len(groups)))
    negs = [-float(v) for v in rng.permutation(mags)]
    entries = [v for v, m in zip(negs, groups) for _ in range(m)]
    return [-sum(entries) + float(rng.uniform(0.05, 1.0))] + entries


def _circulant_spectrum(rng, n: int) -> list[complex]:
    """Eigenvalues of a positive circulant, laid out as DFT frequencies.

    Frequency 0 holds R and frequency n/2 a real r; the pairs fill the
    other slots in order of decreasing imaginary part.  That is the
    arrangement critspec's DFT route reconstructs, and R above
    |r| + 2 * sum |u| makes every entry of the inverse transform positive.
    """
    pairs = [
        complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)) for _ in range((n - 1) // 2)
    ]
    r = float(rng.uniform(-1.0, 1.0))
    top = abs(r) + 2.0 * sum(abs(u) for u in pairs) + float(rng.uniform(0.05, 0.5))
    return [top, r] + [w for u in pairs for w in (u, u.conjugate())]


def _negative_trace(rng, n: int) -> list[complex]:
    """A self-conjugate list shifted so that its trace is clearly negative."""
    npairs = int(rng.integers(0, n // 2 + 1))
    values = [complex(rng.uniform(-2.0, 2.0)) for _ in range(n - 2 * npairs)]
    for _ in range(npairs):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))
        values += [z, z.conjugate()]
    shift = (sum(values).real + float(rng.uniform(0.1, 2.0))) / n
    return [v - shift for v in values]


# Group sizes of the cluster lists: a triple entry is the smallest
# multiplicity that gives the critical points a multiple root.
_REPEAT_PATTERNS = ((3, 1, 1, 1, 1), (3, 2, 1, 1), (3, 2, 2), (3, 3, 1))


def _make(kind: str, rng, n: int) -> tuple[list[complex], str]:
    """A list of the given kind and its known verdict."""
    if kind == "suleimanova":
        # Companion route: p'/n has nonpositive coefficients.
        return _suleimanova(rng, (1,) * (n - 1)), "certified"
    if kind == "circulant":
        # DFT route: conjugate pairs, which no real-only route handles.
        return _circulant_spectrum(rng, n), "certified"
    if kind == "negative-trace":
        # Decided by the condition battery, not by the routes: the first
        # moment of the critical points is negative.
        return _negative_trace(rng, n), "condition-violation"
    # Cluster collapse: a repeated entry is a multiple critical point.
    pattern = _REPEAT_PATTERNS[int(rng.integers(len(_REPEAT_PATTERNS)))]
    return _suleimanova(rng, pattern), "certified"


class VerifyWorkload:
    """``critspec verify --format machine`` run in-process on order-8 lists.

    The corpus cycles through ``kinds`` so that any stretch of the loop
    sees them in equal shares.
    """

    order = 8

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds

    def corpus(self, seed: int) -> list[VerifyInput]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.order]))
        out = []
        for i in range(VERIFY_CORPUS):
            kind = self.kinds[i % len(self.kinds)]
            values, verdict = _make(kind, rng, self.order)
            text = literal(values)
            parsed = parse_spectrum(text)
            if parsed != critspec.SpectrumList(tuple(values)):
                raise AssertionError(f"literal {text!r} does not round-trip")
            out.append(VerifyInput(kind, parsed.entries, text, verdict))
        return out

    @staticmethod
    def argv(item: VerifyInput) -> list[str]:
        return ["verify", "--format", "machine", "--", item.literal]

    def op(self, item: VerifyInput) -> str:
        buf = io.StringIO()
        code = cli_run(self.argv(item), out=buf)
        if code not in (0, 1):
            raise ExitStatusError(code)
        return buf.getvalue()

    @staticmethod
    def signature(output: str) -> str:
        return output

    def first_call_code(self, item: VerifyInput) -> str:
        return (
            "import io\n"
            "from critspec.cli import run\n"
            f"run({self.argv(item)!r}, out=io.StringIO())\n"
        )

    def check(self, item: VerifyInput, output: str) -> Check:
        doc = json.loads(output)["report"]
        got_input = [complex(z["re"], z["im"]) for z in doc["input"]]
        if got_input != list(item.values):
            return Check(True, reason="echoed input differs from the list sent")
        if doc["verdict"] != item.verdict:
            return Check(True, reason=f"verdict {doc['verdict']}, known {item.verdict}")
        crit = [complex(z["re"], z["im"]) for z in doc["critical"]]
        oracle = _oracle()
        err = oracle.scaled_error(crit, oracle.critical_points_of_list(item.values))
        return Check(
            oracle.is_wrong(err), err,
            reason=f"critical points off by {err:.3e} (1 + rho)",
        )


WORKLOADS: dict[str, Any] = {
    "hunt-n5": HuntWorkload(5, screen=True),
    "verify-n8": VerifyWorkload(("suleimanova", "circulant", "negative-trace")),
    # Not listed in BENCHMARK.json: today some of their operations raise
    # or answer wrongly, and their runs count and report those failures.
    "hunt-n16": HuntWorkload(16),
    "verify-n8-clusters": VerifyWorkload(("repeated",)),
    "hunt-n5-triple": KnownDraws(5, TRIPLE_DRAWS),
}
