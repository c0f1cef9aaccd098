"""Canonical JSON records for every report type, and every --format
machine document: document writes each one, its envelope {"command",
"input", "config", "report"} included.

The format is meant to be diffed and hashed: a fixed field order,
floats rendered with 17 significant digits (enough to round-trip a
double exactly), and no volatile fields such as wall-clock time.
Serializing, parsing, and serializing again yields identical bytes.

The bulk of a document is not built as dicts.  A verify report is one
block: realizability_record renders spectra, condition battery, classes
and routes into one template cached by the report's shape and
indentation, and every float of the report takes one batch float
format (_fmt_floats).  Spectra, matrices, the battery and critical's
moment table are blocks of the same kind, from the same prototypes.  A
block is a render node that only canonical_json reads;
json.loads(canonical_json(record)) gives the same data as plain dict
and list records: lists of {"re", "im"} cells, {"order", "rows"}, and
one dict per check.
"""

from __future__ import annotations

import functools
import itertools
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

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
    "condition_report_record",
    "moment_table_record",
    "realizability_record",
    "report_input_record",
    "hunt_record",
    "chain_record",
    "critical_record",
    "realize_record",
    "document",
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
    return np.ascontiguousarray(values, dtype=complex).view(float).ravel()


def _formatted(head: list, nullable: list, tail: list) -> Iterator[str]:
    """The floats of head, nullable and tail (lists of 1-d arrays and
    tuples, in document order), formatted in one _fmt_floats pass.

    A non-finite value in nullable (a moment or power sum past the
    double range) renders null; in head or tail (a residual, margin,
    trace or certificate entry) it raises ValueError.
    """
    a = np.concatenate(head + nullable + tail)
    lo = sum(map(len, head))
    hi = lo + sum(map(len, nullable))
    finite = np.isfinite(a)
    if not (finite[:lo].all() and finite[hi:].all()):
        raise ValueError("non-finite values have no canonical rendering")
    return iter(_fmt_floats(a, null=True))


class _Slot:
    """Where a block's template takes its next value."""


_SLOT = _Slot()
_CELL = {"re": _SLOT, "im": _SLOT}
_BOOLS = ("false", "true")


class _Block:
    """Part of a document rendered from one template: what _write gives
    for prototype(*args) at the block's indentation, with each _SLOT
    filled by the next of values (rendered strings)."""

    __slots__ = ("prototype", "args", "values")

    def __init__(self, prototype, args: tuple, values: tuple[str, ...]):
        self.prototype = prototype
        self.args = args
        self.values = values


@functools.lru_cache(maxsize=256)
def _template(prototype, args: tuple, nl: str) -> tuple[str | None, ...]:
    """prototype(*args) as _write renders it at indentation nl, cut at its
    slots: the text between slots at even places, None at each slot.

    _write fills a block by extending its parts with this and assigning
    the values to the odd places, so no text is scanned per document.
    Equal pieces are kept once.  A verify report's template at n = 8 and
    the default depths takes about 21 KB; it grows by about 180 bytes per
    moment cell (kmax), 170 per power-sum cell (jll**2) and 32 per
    certificate entry.  The cache holds one per report shape and
    indentation, so at maxsize, reports with --kmax 1000 --jll 30 (340 KB
    each) would hold about 87 MB.
    """
    parts: list[str] = []
    _write(prototype(*args), parts, nl)
    # A prototype holds only keys, ints and slots, so "%s" marks a slot.
    pieces: dict[str, str] = {}
    out: list[str | None] = []
    for piece in "".join(parts).split("%s"):
        out += (pieces.setdefault(piece, piece), None)
    return tuple(out[:-1])


def _cells(*columns) -> tuple[str, ...]:
    """A block's values cell by cell; column j holds field j of every cell."""
    return tuple(itertools.chain.from_iterable(zip(*columns)))


# Each value renders as its type here; a subclass (np.float64, an IntEnum)
# renders as the first of these it is an instance of.
_KINDS = (type(None), bool, int, float, str, dict, list, tuple, _Block, _Slot)
_EXACT_KINDS = frozenset(_KINDS)


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
            parts.append(encode_basestring_ascii(str(k)) + ": ")
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
        start = len(parts) + 1
        parts += _template(obj.prototype, obj.args, nl)
        parts[start::2] = obj.values
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


def _moment_table_prototype(depth: int) -> list:
    return [{"k": k, "trace": _CELL, "direct": _CELL} for k in range(1, depth + 1)]


def moment_table_record(trace, direct) -> _Block:
    """[{"k", "trace", "direct"}], k = 1..K: two sequences s_1..s_K side
    by side as {"re", "im"} cells."""
    cells = _re_im(np.column_stack((trace, direct)))  # row k: trace, direct
    return _Block(_moment_table_prototype, (len(trace),), tuple(_fmt_floats(cells)))


def polynomial_record(p: MonicPolynomial) -> dict:
    return {
        "degree": p.degree,
        "coeffs_ascending": [complex_record(c) for c in p.coeffs],
    }


_CLASS = dict.fromkeys(
    ("suleimanova", "generalized_suleimanova", "ciarlet", "dcomp_inequality", "trace"), _SLOT
)


def _class_values(c: Classification, trace: str) -> list[str]:
    flags = (c.suleimanova, c.generalized_suleimanova, c.ciarlet, c.dcomp_inequality)
    return [*map(_BOOLS.__getitem__, flags), trace]


def _moment_prototype(depth: int) -> list:
    return [{"k": k, "value": _CELL, "passed": _SLOT} for k in range(1, depth + 1)]


def _jll_prototype(depth: int) -> list:
    cell = {"lhs": _SLOT, "rhs": _SLOT, "passed": _SLOT}
    grid = itertools.product(range(1, depth + 1), repeat=2)
    return [{"k": k, "m": m, **cell} for k, m in grid]


def _condition_prototype(moment_depth: int, jll_depth: int) -> dict:
    return {
        "self_conjugate": _SLOT,
        "pairing_residual": _SLOT,
        "spectral_radius_in_list": _SLOT,
        "spectral_radius_margin": _SLOT,
        "moment_depth": moment_depth,
        "jll_depth": jll_depth,
        "moment_checks": _moment_prototype(moment_depth),
        "jll_checks": _jll_prototype(jll_depth),
        "overall": _SLOT,
    }


def _condition_floats(r: ConditionReport) -> tuple[tuple, list]:
    """The battery's floats in document order: the residual and margin,
    then the moments and the two grids, which may hold +-inf."""
    nullable = [_re_im(r.moment_values), r.jll_lhs.ravel(), r.jll_rhs.ravel()]
    return (r.pairing_residual, r.spectral_radius_margin), nullable


def _condition_values(r: ConditionReport, f: Iterator[str]) -> list[str]:
    """The battery's values; f yields its floats, as _condition_floats orders them."""
    residual, margin = next(f), next(f)
    moments = list(itertools.islice(f, 2 * r.moment_depth))
    cells = r.jll_depth**2
    lhs, rhs = list(itertools.islice(f, cells)), list(itertools.islice(f, cells))
    moment_ok = map(_BOOLS.__getitem__, r.moment_passed.tolist())
    jll_ok = map(_BOOLS.__getitem__, r.jll_passed.ravel().tolist())
    return [
        _BOOLS[r.self_conjugate],
        residual,
        _BOOLS[r.spectral_radius_in_list],
        margin,
        *_cells(moments[::2], moments[1::2], moment_ok),
        *_cells(lhs, rhs, jll_ok),
        _BOOLS[r.overall],
    ]


def condition_report_record(r: ConditionReport) -> _Block:
    head, nullable = _condition_floats(r)
    values = _condition_values(r, _formatted([head], nullable, []))
    return _Block(_condition_prototype, (r.moment_depth, r.jll_depth), tuple(values))


def _route_prototype(shape: tuple[int, int] | None) -> dict:
    return {
        "name": _SLOT,
        "attempted": _SLOT,
        "succeeded": _SLOT,
        "certificate": None if shape is None else _matrix_prototype(*shape),
        "reason": _SLOT,
        "residual": _SLOT,
    }


def _route_floats(r: RouteResult) -> list:
    """The route's floats in document order: its certificate, its residual."""
    cert = [] if r.certificate is None else [_re_im(r.certificate)]
    return cert if r.residual is None else [*cert, (r.residual,)]


def _route_values(r: RouteResult, f: Iterator[str]) -> list[str]:
    """The route's values; f yields its floats, as _route_floats orders them."""
    cert = () if r.certificate is None else itertools.islice(f, 2 * r.certificate.size)
    return [
        encode_basestring_ascii(r.name),
        _BOOLS[r.attempted],
        _BOOLS[r.succeeded],
        *cert,
        "null" if r.reason is None else encode_basestring_ascii(r.reason),
        "null" if r.residual is None else next(f),
    ]


def _report_prototype(n: int, m: int, moment_depth: int, jll_depth: int, shapes: tuple) -> dict:
    return {
        "input": _spectrum_prototype(n),
        "critical": _spectrum_prototype(m),
        "conditions": _condition_prototype(moment_depth, jll_depth),
        "input_class": _CLASS,
        "critical_class": _CLASS,
        "routes": [_route_prototype(shape) for shape in shapes],
        "verdict": _SLOT,
    }


def realizability_record(rep: RealizabilityReport) -> _Block:
    """The whole report as one block: every float in one pass, rendered
    into one template cached by the report's shape (_report_prototype)."""
    c, routes = rep.conditions, rep.routes
    classes = (rep.input_class, rep.critical_class)
    head, nullable = _condition_floats(c)
    tail = [tuple(cls.trace for cls in classes)]
    for r in routes:
        tail += _route_floats(r)
    f = _formatted(
        [_re_im(rep.input.as_array()), _re_im(rep.critical.as_array()), head], nullable, tail
    )
    n, m = len(rep.input), len(rep.critical)
    values = [*itertools.islice(f, 2 * (n + m)), *_condition_values(c, f)]
    for cls in classes:
        values += _class_values(cls, next(f))
    for r in routes:
        values += _route_values(r, f)
    values.append(encode_basestring_ascii(rep.verdict))
    shapes = tuple(None if r.certificate is None else r.certificate.shape for r in routes)
    args = (n, m, c.moment_depth, c.jll_depth, shapes)
    return _Block(_report_prototype, args, tuple(values))


def report_input_record(record: _Block) -> _Block:
    """spectrum_record(rep.input) for record = realizability_record(rep),
    from the strings record holds: the report opens with the input."""
    n = record.args[0]
    return _Block(_spectrum_prototype, (n,), record.values[: 2 * n])


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


def critical_record(crit: SpectrumList, trace, direct) -> dict:
    """critical's report: the critical points and their moment table."""
    return {"critical": spectrum_record(crit), "moments": moment_table_record(trace, direct)}


def realize_record(
    crit: SpectrumList, route: str, matrix, sign, residual, certified: bool, reason
) -> dict:
    """realize's report: the matrix as shown (None when no candidate was
    built), its MatrixSignClass and the backward error of its spectrum."""
    return {
        "critical": spectrum_record(crit),
        "route": route,
        "matrix": None if matrix is None else matrix_record(matrix),
        "sign_class": None if sign is None else sign.value,
        "residual": None if residual is None else float(residual),
        "certified": certified,
        "reason": reason,
    }


def document(command: str, spectrum: SpectrumList | _Block | None, config: dict, report) -> str:
    """The machine document of one command, without its final newline.

    spectrum is the input list, or its block already rendered (verify's
    report_input_record), or None for a command that reads no list.
    """
    if isinstance(spectrum, SpectrumList):
        spectrum = spectrum_record(spectrum)
    return canonical_json(
        {"command": command, "input": {"spectrum": spectrum}, "config": config, "report": report}
    )
