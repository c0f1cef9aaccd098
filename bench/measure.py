"""Closed-loop timing, the reference loop, and the statistics reported.

One client runs one operation at a time; the next starts only when the
previous one has returned or raised.  After every operation a fixed unit
of numpy/Python work that is not critspec code (the reference unit) is
timed as well.  This machine switches between fast and slow phases that
last around a second, which moves raw times by up to 1.9x, and the
reference slows down with the operations.  Every reported time is
therefore scaled by ``REF_NOMINAL_MS / m``, with m the median of the
reference units timed next to it (the ``REF_WINDOW`` before and after
an operation): it reads as the time on a machine where the reference
unit takes exactly its nominal time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Median time of one reference unit on an idle 2-vCPU Intel Xeon (2.1 GHz) VM
# (Python 3.11, numpy 2.4, one BLAS thread).
REF_NOMINAL_MS = 0.25
REF_WINDOW = 8

_REF_C = np.array([1.0, -0.5 + 0.25j, 0.3, -0.2j, 0.7, 0.1 - 0.05j])
_REF_X = np.exp(1j * np.linspace(0.1, 6.0, 6))
_REF_M = np.array(
    [
        [2.0, 0.5, 0.1, 0.0],
        [0.3, 1.5, 0.2, 0.4],
        [0.0, 0.6, 1.2, 0.3],
        [0.2, 0.0, 0.5, 1.8],
    ]
)


def reference_unit() -> float:
    """A fixed mix of small numpy calls and Python arithmetic, like critspec's."""
    acc = 0.0
    for _ in range(12):
        acc += float(np.abs(np.polyval(_REF_C, _REF_X)).sum())
        acc += float(np.linalg.det(_REF_M))
        acc += float(np.convolve(_REF_C, _REF_C).real.sum())
    z = 0.3 + 0.1j
    for k in range(150):
        z = z * z * 0.5 + 0.1j * (k % 3)
        acc += abs(z) if abs(z) < 10 else 0.0
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


@dataclass
class OpRecord:
    index: int  # position in the corpus
    seconds: float
    error: str | None  # exception type, or None when the call returned


def scale_factors(ref_seconds: list[float]) -> list[float]:
    """For each position, nominal over the median reference time around it."""
    n = len(ref_seconds)
    return [
        REF_NOMINAL_MS
        / (1e3 * statistics.median(ref_seconds[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]))
        for i in range(n)
    ]


@dataclass
class LoopResult:
    records: list[OpRecord] = field(default_factory=list)
    ref_seconds: list[float] = field(default_factory=list)

    def scaled_seconds(self) -> list[float]:
        """Each operation's time on the nominal machine."""
        return [
            r.seconds * f for r, f in zip(self.records, scale_factors(self.ref_seconds))
        ]


def closed_loop(
    corpus: list,
    op: Callable[[Any], Any],
    seconds: float,
    observe: Callable[[int, Any, str | None], None],
    whole_passes: bool = False,
) -> LoopResult:
    """Run ``op`` over the corpus in order, cyclically, for ``seconds`` of op time.

    ``observe(index, result, error)`` runs off the clock after each call.
    With ``whole_passes`` the loop stops only at the end of a pass, so
    per-operation counts cover every input equally often.
    """
    out = LoopResult()
    busy = 0.0
    i = 0
    while True:
        k = i % len(corpus)
        if i and busy >= seconds and (not whole_passes or k == 0):
            break
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = op(corpus[k])
        except Exception as exc:  # one failed operation must not stop the run
            error = type(exc).__name__
        dt = time.perf_counter() - t0
        busy += dt
        out.records.append(OpRecord(k, dt, error))
        observe(k, result, error)
        out.ref_seconds.append(time_reference())
        i += 1
    return out


def summarize(loop: LoopResult, wrong: set[int]) -> dict:
    """End-to-end figures of one loop; ops on inputs in ``wrong`` gave wrong answers.

    An input's time is the median of its operations' scaled times, which
    filters out the machine's stalls.  Goodput is successful operations
    over the sum of their inputs' times across all operations, so a
    failure costs its time but adds nothing.  A failed operation (raised,
    refused or wrong) counts in fail_rate and misses every latency limit:
    the latency percentiles are taken across the inputs that were
    answered correctly, and describe how latency varies over the
    workload's inputs rather than the machine's jitter.
    """
    times: dict[int, list[float]] = {}
    for r, t in zip(loop.records, loop.scaled_seconds()):
        times.setdefault(r.index, []).append(t)
    typical = {k: statistics.median(v) for k, v in times.items()}
    ok = [r.error is None and r.index not in wrong for r in loop.records]
    attempted = len(loop.records)
    good = sum(ok)
    latency = [typical[k] for k in {r.index for r, g in zip(loop.records, ok) if g}]
    silent = sum(1 for r in loop.records if r.error is None and r.index in wrong)
    return {
        "attempted": attempted,
        "failed": attempted - good,
        "raised": sum(1 for r in loop.records if r.error is not None),
        "silent_wrong": silent,
        "goodput_ops_s": good / sum(typical[r.index] for r in loop.records),
        "latency_p50_ms": 1e3 * float(np.percentile(latency, 50)) if latency else None,
        "latency_p90_ms": 1e3 * float(np.percentile(latency, 90)) if latency else None,
        "fail_rate": (attempted - good) / attempted,
        "silent_wrong_rate": silent / attempted,
        "ref_unit_ms": 1e3 * statistics.median(loop.ref_seconds),
    }
