"""Canonical JSON records for every report type.

The machine output format is meant to be diffed and hashed: a fixed
field order, floats rendered with 17 significant digits (enough to
round-trip a double exactly), and no volatile fields such as wall-clock
time.  Serializing, parsing, and serializing again yields identical
bytes.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .harness import (
    AlarmRecord,
    ChainReport,
    HuntReport,
    RealizabilityReport,
    RouteResult,
)
from .moments import ConditionReport
from .polynomial import MonicPolynomial
from .spectra import Classification, SpectrumList

__all__ = [
    "canonical_json",
    "complex_record",
    "spectrum_record",
    "matrix_record",
    "polynomial_record",
    "classification_record",
    "condition_report_record",
    "route_record",
    "realizability_record",
    "hunt_record",
    "chain_record",
]


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0.0"  # -0.0 too
    if not math.isfinite(x):
        raise ValueError("non-finite values have no canonical rendering")
    s = format(x, ".17g")
    if "e" not in s and "." not in s:
        s += ".0"
    return s


# Each value renders as its type here; a subclass (np.float64, an IntEnum)
# renders as the first of these it is an instance of.
_KINDS = (type(None), bool, int, float, str, dict, list, tuple)
_EXACT_KINDS = frozenset(_KINDS)


@functools.lru_cache(maxsize=1024)
def _key_prefix(key: str) -> str:
    return encode_basestring_ascii(key) + ": "


def canonical_json(obj: Any) -> str:
    """Serialize nested dict/list/scalar data with stable formatting."""
    parts: list[str] = []
    _write(obj, parts, "\n")
    return "".join(parts)


def _write(obj: Any, parts: list[str], nl: str) -> None:
    """Append obj's rendering to parts; nl is a newline and obj's indentation.

    Not a closure over parts: a closure that calls itself is a reference
    cycle, which keeps each document's parts alive until the collector runs.
    """
    kind = type(obj)
    if kind not in _EXACT_KINDS:
        kind = next((k for k in _KINDS if isinstance(obj, k)), None)
        if kind is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind is float:
        parts.append(_fmt_float(obj))
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in obj.items():
            parts.append(sep)
            parts.append(_key_prefix(str(k)))
            _write(v, parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            parts.append(sep)
            _write(v, parts, inner)
            sep = "," + inner
        parts.append(nl + "]")
    elif kind is str:
        parts.append(encode_basestring_ascii(obj))
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif kind is int:
        parts.append(str(obj))
    else:
        parts.append("null")


def complex_record(z: complex) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def spectrum_record(spec: SpectrumList) -> list:
    return [complex_record(z) for z in spec]


def matrix_record(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "order": int(M.shape[0]),
        "rows": [[complex_record(z) for z in row] for row in M],
    }


def polynomial_record(p: MonicPolynomial) -> dict:
    return {
        "degree": p.degree,
        "coeffs_ascending": [complex_record(c) for c in p.coeffs],
    }


def classification_record(c: Classification) -> dict:
    return {
        "suleimanova": c.suleimanova,
        "generalized_suleimanova": c.generalized_suleimanova,
        "ciarlet": c.ciarlet,
        "dcomp_inequality": c.dcomp_inequality,
        "trace": float(c.trace),
    }


def _finite_or_none(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def condition_report_record(r: ConditionReport) -> dict:
    # Moments and JLL sides may overflow double range for extreme
    # inputs; those fields degrade to null rather than failing the dump.
    return {
        "self_conjugate": r.self_conjugate,
        "pairing_residual": float(r.pairing_residual),
        "spectral_radius_in_list": r.spectral_radius_in_list,
        "spectral_radius_margin": float(r.spectral_radius_margin),
        "moment_depth": r.moment_depth,
        "jll_depth": r.jll_depth,
        "moment_checks": [
            {
                "k": k,
                "value": {"re": _finite_or_none(v.real), "im": _finite_or_none(v.imag)},
                "passed": ok,
            }
            for k, v, ok in r.moment_cells()
        ],
        "jll_checks": [
            {
                "k": k,
                "m": m,
                "lhs": _finite_or_none(lhs),
                "rhs": _finite_or_none(rhs),
                "passed": ok,
            }
            for k, m, lhs, rhs, ok in r.jll_cells()
        ],
        "overall": r.overall,
    }


def route_record(r: RouteResult) -> dict:
    return {
        "name": r.name,
        "attempted": r.attempted,
        "succeeded": r.succeeded,
        "certificate": None if r.certificate is None else matrix_record(r.certificate),
        "reason": r.reason,
        "residual": None if r.residual is None else float(r.residual),
    }


def realizability_record(rep: RealizabilityReport) -> dict:
    return {
        "input": spectrum_record(rep.input),
        "critical": spectrum_record(rep.critical),
        "conditions": condition_report_record(rep.conditions),
        "input_class": classification_record(rep.input_class),
        "critical_class": classification_record(rep.critical_class),
        "routes": [route_record(r) for r in rep.routes],
        "verdict": rep.verdict,
    }


def _alarm_record(a: AlarmRecord) -> dict:
    return {
        "sample_index": a.sample_index,
        "order": a.order,
        "report": realizability_record(a.report),
    }


def hunt_record(rep: HuntReport) -> dict:
    # Wall-clock time is deliberately omitted: machine output must be
    # byte-identical across repeat runs of the same configuration.
    return {
        "seed": rep.seed,
        "ensemble": rep.ensemble,
        "n_min": rep.n_min,
        "n_max": rep.n_max,
        "samples": rep.samples,
        "certified": rep.certified,
        "uncertified": rep.uncertified,
        "alarm_count": len(rep.alarms),
        "alarms": [_alarm_record(a) for a in rep.alarms],
        "route_successes": {k: v for k, v in rep.route_successes.items()},
    }


def chain_record(rep: ChainReport) -> dict:
    return {
        "start": polynomial_record(rep.start),
        "steps": [
            {
                "constant": complex_record(s.constant),
                "polynomial": polynomial_record(s.polynomial),
                "sign_class": s.sign_class.value,
                "roots": spectrum_record(s.root_list),
            }
            for s in rep.steps
        ],
        "all_nonnegative": rep.all_nonnegative,
    }
