"""Canonical JSON records for every report type.

The machine output format is meant to be diffed and hashed: a fixed
field order, floats rendered with 17 significant digits (enough to
round-trip a double exactly), and no volatile fields such as wall-clock
time.  Serializing, parsing, and serializing again yields identical
bytes.

The bulk of a verify document (spectra, certificate matrices and the
condition battery's cells) is not built as dicts: spectrum_record,
matrix_record and condition_report_record's two check lists are blocks,
rendered straight from the report's arrays with one batch float format
per block (_fmt_floats) into one template cached by indentation.  A
block is a render node that only canonical_json reads;
json.loads(canonical_json(record)) gives the same data as the plain
dict and list records did: lists of {"re", "im"} cells, {"order",
"rows"}, and one dict per check.
"""

from __future__ import annotations

import functools
import itertools
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


def _fmt_floats(a, null: bool = False) -> list[str]:
    """[_fmt_float(x) for x in a] over a float array, flattened.

    One finiteness check and one format pass, which zeros skip; only the
    whole numbers below 1e17, which .17g writes without a point, are
    fixed up afterwards.  With null, a non-finite entry renders as null
    (a value past the double range) instead of raising ValueError.
    """
    a = np.asarray(a, dtype=float).ravel()
    finite = np.isfinite(a)
    if not null and not finite.all():
        raise ValueError("non-finite values have no canonical rendering")
    out = ["0.0" if x == 0.0 else format(x, ".17g") for x in a.tolist()]
    for i in np.flatnonzero(~finite).tolist():
        out[i] = "null"
    for i in np.flatnonzero((a == np.trunc(a)) & (np.abs(a) < 1e17) & (a != 0.0)).tolist():
        out[i] += ".0"
    return out


def _re_im(values) -> np.ndarray:
    """The real and imaginary parts of complex values, interleaved: the
    order of their {"re", "im"} cells."""
    return np.ascontiguousarray(values, dtype=complex).view(float)


class _Slot:
    """Where a block's template takes its next value."""


_SLOT = _Slot()
_CELL = {"re": _SLOT, "im": _SLOT}
_BOOLS = ("false", "true")


class _Block:
    """Part of a document rendered from one %-template: what _write gives
    for prototype(*args) at the block's indentation, with each _SLOT
    filled by the next of values (rendered strings)."""

    __slots__ = ("prototype", "args", "values")

    def __init__(self, prototype, args: tuple, values: tuple[str, ...]):
        self.prototype = prototype
        self.args = args
        self.values = values


@functools.lru_cache(maxsize=256)
def _template(prototype, args: tuple, nl: str) -> str:
    # A prototype holds only keys, ints and slots, so no % of its own.
    parts: list[str] = []
    _write(prototype(*args), parts, nl)
    return "".join(parts)


def _cells(*columns) -> tuple[str, ...]:
    """A block's values cell by cell; column j holds field j of every cell."""
    return tuple(itertools.chain.from_iterable(zip(*columns)))


# Each value renders as its type here; a subclass (np.float64, an IntEnum)
# renders as the first of these it is an instance of.
_KINDS = (type(None), bool, int, float, str, dict, list, tuple, _Block, _Slot)
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
    elif kind is _Block:
        parts.append(_template(obj.prototype, obj.args, nl) % obj.values)
    elif kind is _Slot:
        parts.append("%s")
    else:
        parts.append("null")


def complex_record(z: complex) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _spectrum_prototype(n: int) -> list:
    return [_CELL] * n


def spectrum_record(spec: SpectrumList) -> _Block:
    """The entries as {"re", "im"} records, in the list's order."""
    values = _fmt_floats(_re_im(tuple(spec)))
    return _Block(_spectrum_prototype, (len(values) // 2,), tuple(values))


def _matrix_prototype(rows: int, cols: int) -> dict:
    return {"order": rows, "rows": [[_CELL] * cols] * rows}


def matrix_record(M: np.ndarray) -> _Block:
    """{"order", "rows"}: the order and every entry as a {"re", "im"} record."""
    return _Block(_matrix_prototype, np.shape(M), tuple(_fmt_floats(_re_im(M))))


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


def _moment_prototype(depth: int) -> list:
    return [{"k": k, "value": _CELL, "passed": _SLOT} for k in range(1, depth + 1)]


def _jll_prototype(depth: int) -> list:
    cell = {"lhs": _SLOT, "rhs": _SLOT, "passed": _SLOT}
    grid = itertools.product(range(1, depth + 1), repeat=2)
    return [{"k": k, "m": m, **cell} for k, m in grid]


def condition_report_record(r: ConditionReport) -> dict:
    # Moments and power sums past the double range are +-inf in the
    # report; those fields render as null rather than failing the dump.
    s, lhs, rhs = r.moment_values, r.jll_lhs.ravel(), r.jll_rhs.ravel()
    values = _fmt_floats(np.concatenate([s.real, s.imag, lhs, rhs]), null=True)
    moment_ok = [_BOOLS[ok] for ok in r.moment_passed.tolist()]
    jll_ok = [_BOOLS[ok] for ok in r.jll_passed.ravel().tolist()]
    d, g = s.size, lhs.size
    return {
        "self_conjugate": r.self_conjugate,
        "pairing_residual": float(r.pairing_residual),
        "spectral_radius_in_list": r.spectral_radius_in_list,
        "spectral_radius_margin": float(r.spectral_radius_margin),
        "moment_depth": r.moment_depth,
        "jll_depth": r.jll_depth,
        "moment_checks": _Block(
            _moment_prototype,
            (r.moment_depth,),
            _cells(values[:d], values[d : 2 * d], moment_ok),
        ),
        "jll_checks": _Block(
            _jll_prototype,
            (r.jll_depth,),
            _cells(values[2 * d : 2 * d + g], values[2 * d + g :], jll_ok),
        ),
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
