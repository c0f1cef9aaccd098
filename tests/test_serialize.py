"""Canonical JSON: the single-pass writer renders what the recursive one did,
and the block records render what the dict records did."""

import dataclasses
import enum
import gc
import io
import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench
from critspec import (
    AlarmRecord,
    HuntReport,
    VerifyConfig,
    check_necessary_conditions,
    cli,
    dft_matrix,
    serialize,
    verify_critical_realizability,
)
from critspec.cli import parse_spectrum
from critspec.differentiator import trace_moments
from critspec.moments import power_sums
from critspec.serialize import _fmt_float, _fmt_floats, canonical_json

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text("utf-8"))


def _recursive_json(obj, _indent=0):
    """canonical_json as it was before the single-pass writer: the reference."""
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_recursive_json(v, _indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_recursive_json(v, _indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _machine_documents():
    """Every JSON document in the golden corpus, parsed."""
    return [json.loads(r["stdout"]) for r in CORPUS.values() if r["stdout"].startswith("{")]


class Verdict(enum.IntEnum):
    PASS = 0
    FAIL = 1


class Label(str):
    pass


EDGE_CASES = [
    None,
    np.float64(-2 / 3),
    np.float64(0.0),
    -0.0,
    3.0,
    1e16,
    1e17,
    -1e-300,
    5e-324,
    1.7976931348623157e308,
    0.1,
    True,
    False,
    1,
    0,
    -(2**70),
    Verdict.FAIL,
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    ((1, 2.5), (), ([], {"x": (None,)})),
    [True, 1, 1.0, "1", None],
    {"ünï": "çødé ✓", "tab\t": "quote\" backslash\\ newline\n", "\x00": " "},
    {1: "int key", True: "bool key", 2.5: "float key", None: "none key"},
    {Label("sub"): Label("class")},
    OrderedDict([("z", 1.0), ("a", [np.float64(2.0), -0.0])]),
    {"re": np.float64(1e-17), "im": np.float64(-1e22)},
]


class TestCanonicalJson:
    def test_golden_documents_match_reference(self):
        docs = _machine_documents()
        assert len(docs) > 60
        for doc in docs:
            assert canonical_json(doc) == _recursive_json(doc)

    @pytest.mark.parametrize("obj", EDGE_CASES, ids=[repr(o)[:40] for o in EDGE_CASES])
    def test_edge_case_matches_reference(self, obj):
        assert canonical_json(obj) == _recursive_json(obj)
        assert canonical_json({"k": [obj]}) == _recursive_json({"k": [obj]})

    def test_float_rendering(self):
        assert canonical_json([-0.0, 3.0, 1e16, 1e17]) == (
            "[\n  0.0,\n  3.0,\n  10000000000000000.0,\n  1e+17\n]"
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_nonfinite_raises_value_error(self, bad):
        for obj in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(ValueError, match="non-finite"):
                canonical_json(obj)

    @pytest.mark.parametrize("bad", [1j, np.int64(1), np.bool_(True), {1}, b"x", object()])
    def test_unknown_type_raises_type_error(self, bad):
        for obj in (bad, [bad], {"a": bad}):
            with pytest.raises(TypeError, match=f"cannot serialize {type(bad).__name__}"):
                canonical_json(obj)

    def test_leaves_no_reference_cycle(self):
        # A cycle would keep each document's parts alive until the collector
        # runs, which shows up as resident memory in long loops.
        doc = max(_machine_documents(), key=len)
        argv = ["verify", "--format", "machine", "--", "4,1+i,1-i,-1"]
        cli.run(argv, out=io.StringIO())  # fill the template caches first
        gc.collect()
        gc.disable()
        try:
            canonical_json(doc)
            assert gc.collect() == 0
            cli.run(argv, out=io.StringIO())
            assert gc.collect() == 0
        finally:
            gc.enable()


# The float rule at its edges: zeros of both signs, whole numbers on both
# sides of 1e17 (where .17g switches to an exponent), a whole number past
# 2**53, the smallest subnormal and the largest double.
FLOAT_EDGES = [
    0.0,
    -0.0,
    3.0,
    -3.0,
    1e16,
    1e17,
    99999999999999984.0,
    -(2.0**53 + 2),
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1e-5,
    123456.5,
]


class TestBatchFloats:
    """_fmt_floats is _fmt_float over an array."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rule(self, xs):
        assert _fmt_floats(np.array(xs, dtype=float)) == [_fmt_float(x) for x in xs]

    def test_edges_match_scalar_rule(self):
        assert _fmt_floats(FLOAT_EDGES) == [_fmt_float(x) for x in FLOAT_EDGES]
        for x in FLOAT_EDGES:
            assert _fmt_floats([x]) == [_fmt_float(x)]
        assert _fmt_floats(np.array(FLOAT_EDGES).reshape(3, 5)) == _fmt_floats(FLOAT_EDGES)
        assert _fmt_floats([]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises_unless_null_allowed(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _fmt_floats([1.0, bad])
        assert _fmt_floats([1.0, bad, -0.0], null=True) == ["1.0", "null", "0.0"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_spectrum_and_matrix_raise(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(serialize.spectrum_record([1.0, complex(0.0, bad)]))
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(serialize.matrix_record(np.array([[1.0, bad], [0.0, 1.0]])))

    def test_moments_past_the_double_range_render_null(self):
        report = check_necessary_conditions([3e8, -1e8, -1e8], kmax=60)
        assert math.isinf(report.moment_values[-1].real)
        text = canonical_json(serialize.condition_report_record(report))
        assert text == _recursive_json(_ref_condition_report(report))
        assert '"re": null' in text and '"rhs": null' in text


# The dict record builders as they were before the block records: the
# reference the blocks must render byte for byte.
def _ref_complex(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _ref_spectrum(spec):
    return [_ref_complex(z) for z in spec]


def _ref_matrix(M):
    M = np.asarray(M, dtype=complex)
    return {"order": int(M.shape[0]), "rows": [[_ref_complex(z) for z in row] for row in M]}


def _ref_classification(c):
    return {
        "suleimanova": c.suleimanova,
        "generalized_suleimanova": c.generalized_suleimanova,
        "ciarlet": c.ciarlet,
        "dcomp_inequality": c.dcomp_inequality,
        "trace": float(c.trace),
    }


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _ref_condition_report(r):
    moment_checks = []
    for k in range(1, r.moment_depth + 1):
        value = complex(r.moment_values[k - 1])
        moment_checks.append(
            {
                "k": k,
                "value": {"re": _finite_or_none(value.real), "im": _finite_or_none(value.imag)},
                "passed": bool(r.moment_passed[k - 1]),
            }
        )
    jll_checks = []
    for k in range(1, r.jll_depth + 1):
        for m in range(1, r.jll_depth + 1):
            jll_checks.append(
                {
                    "k": k,
                    "m": m,
                    "lhs": _finite_or_none(r.jll_lhs[k - 1, m - 1]),
                    "rhs": _finite_or_none(r.jll_rhs[k - 1, m - 1]),
                    "passed": bool(r.jll_passed[k - 1, m - 1]),
                }
            )
    return {
        "self_conjugate": r.self_conjugate,
        "pairing_residual": float(r.pairing_residual),
        "spectral_radius_in_list": r.spectral_radius_in_list,
        "spectral_radius_margin": float(r.spectral_radius_margin),
        "moment_depth": r.moment_depth,
        "jll_depth": r.jll_depth,
        "moment_checks": moment_checks,
        "jll_checks": jll_checks,
        "overall": r.overall,
    }


def _ref_route(r):
    return {
        "name": r.name,
        "attempted": r.attempted,
        "succeeded": r.succeeded,
        "certificate": None if r.certificate is None else _ref_matrix(r.certificate),
        "reason": r.reason,
        "residual": None if r.residual is None else float(r.residual),
    }


def _ref_report(rep):
    return {
        "input": _ref_spectrum(rep.input),
        "critical": _ref_spectrum(rep.critical),
        "conditions": _ref_condition_report(rep.conditions),
        "input_class": _ref_classification(rep.input_class),
        "critical_class": _ref_classification(rep.critical_class),
        "routes": [_ref_route(r) for r in rep.routes],
        "verdict": rep.verdict,
    }


def _ref_realize(crit, route, matrix, sign, residual, certified, reason):
    return {
        "critical": _ref_spectrum(crit),
        "route": route,
        "matrix": None if matrix is None else _ref_matrix(matrix),
        "sign_class": None if sign is None else sign.value,
        "residual": None if residual is None else float(residual),
        "certified": certified,
        "reason": reason,
    }


def _ref_document(command, spectrum, config, report):
    """A machine document as the dict records built it, without its final
    newline; spectrum is the input's dict record, or None."""
    doc = {"command": command, "input": {"spectrum": spectrum}, "config": config, "report": report}
    return _recursive_json(doc)


def _ref_verify_document(spec, kmax=None, jll=8):
    """What verify --format machine printed for spec with the dict records."""
    rep = verify_critical_realizability(spec, VerifyConfig(kmax=kmax, jll_depth=jll))
    config = {"kmax": kmax, "jll": jll}
    return _ref_document("verify", _ref_spectrum(spec), config, _ref_report(rep)) + "\n"


def _literal(values):
    """Complex literals that parse back to exactly these values."""
    return ",".join(f"{z.real!r}{z.imag:+.17g}i" for z in map(complex, values))


def _verify_document(spec, *options):
    buf = io.StringIO()
    cli.run(["verify", "--format", "machine", *options, "--", _literal(spec)], out=buf)
    return buf.getvalue()


class TestBlockRecords:
    @pytest.mark.parametrize("workload", ["verify-n8", "verify-n8-clusters"])
    def test_benchmark_corpus_matches_dict_records(self, workload):
        wl = load_bench("workloads").WORKLOADS[workload]
        corpus = wl.corpus(1)
        assert len(corpus) == 510
        for item in corpus:
            want = _ref_verify_document(parse_spectrum(item.literal))
            assert wl.op(item) == want, item.literal

    def test_json_data_matches_dict_records(self):
        spec = parse_spectrum("4,1+i,1-i,-1")
        rep = verify_critical_realizability(spec)
        cert = next(r.certificate for r in rep.routes if r.certificate is not None)
        skew = np.asfortranarray(cert[:, :2] * (1 - 2j))  # complex, not square, column-major
        conditions = rep.conditions
        pairs = [
            (serialize.spectrum_record(spec), _ref_spectrum(spec)),
            (serialize.matrix_record(cert), _ref_matrix(cert)),
            (serialize.matrix_record(skew), _ref_matrix(skew)),
            (serialize.condition_report_record(conditions), _ref_condition_report(conditions)),
            (serialize.spectrum_record([]), []),
        ]
        for record, ref in pairs:
            assert json.loads(canonical_json(record)) == ref
            for wrapped, ref_wrapped in ((record, ref), ([{"x": record}], [{"x": ref}])):
                assert canonical_json(wrapped) == _recursive_json(ref_wrapped)

    def test_hunt_alarm_renders_the_report_block_at_depth(self):
        rep = verify_critical_realizability(parse_spectrum("4,1+i,1-i,-1"))
        alarm = AlarmRecord(sample_index=3, order=4, report=rep)
        hunt = HuntReport(7, "dense-uniform", 4, 4, 5, 3, 1, (alarm, alarm), {"companion": 2})
        ref = {
            "seed": 7,
            "ensemble": "dense-uniform",
            "n_min": 4,
            "n_max": 4,
            "samples": 5,
            "certified": 3,
            "uncertified": 1,
            "alarm_count": 2,
            "alarms": [{"sample_index": 3, "order": 4, "report": _ref_report(rep)}] * 2,
            "route_successes": {"companion": 2},
        }
        record = serialize.hunt_record(hunt)
        assert canonical_json(record) == _recursive_json(ref)
        assert canonical_json({"report": record}) == _recursive_json({"report": ref})

    @pytest.mark.parametrize("spec,order", [("3,-1,-1", 3), ("1,1,1,1,1,1,1,1", 8)])
    def test_hadamard_certificate_matches_dict_records(self, spec, order):
        cfg = VerifyConfig(hadamard=dft_matrix(order))
        rep = verify_critical_realizability(parse_spectrum(spec), cfg)
        assert rep.routes[-1].name == "hadamard" and rep.routes[-1].certificate is not None
        record = serialize.realizability_record(rep)
        assert canonical_json(record) == _recursive_json(_ref_report(rep))

    @pytest.mark.parametrize("kmax,jll", [(1, 1), (5, 3), (60, 8), (None, 12)])
    def test_depths_match_dict_records(self, kmax, jll):
        spec = parse_spectrum("4,1+i,1-i,-1")
        options = ["--jll", str(jll)] + ([] if kmax is None else ["--kmax", str(kmax)])
        assert _verify_document(spec, *options) == _ref_verify_document(spec, kmax, jll)

    def test_random_lists_match_dict_records(self):
        rng = np.random.default_rng(29)
        for n in range(2, 13):
            real = rng.normal(size=n - 2 * (n // 3))
            pairs = rng.normal(size=n // 3) + 1j * rng.uniform(0.1, 1.0, n // 3)
            self_conjugate = np.concatenate([real, pairs, pairs.conj()])
            complex_list = rng.normal(size=n) + 1j * rng.normal(size=n)
            for values in (self_conjugate, complex_list):
                spec = parse_spectrum(_literal(values))
                assert _verify_document(spec) == _ref_verify_document(spec), values

    def test_moments_past_the_double_range_render_null_in_verify(self):
        spec = parse_spectrum("3e8,-1e8,-1e8")
        buf = io.StringIO()
        argv = ["verify", "3e8,-1e8,-1e8", "--kmax", "60", "--format", "machine"]
        code = cli.run(argv, out=buf)
        assert code == 0
        assert buf.getvalue() == _ref_verify_document(spec, kmax=60)
        assert '"re": null' in buf.getvalue() and '"rhs": null' in buf.getvalue()

    @pytest.mark.parametrize("field", ["residual", "certificate"])
    def test_nonfinite_route_value_raises(self, field):
        rep = verify_critical_realizability(parse_spectrum("3,-1,-1"))
        route = rep.routes[0]
        assert route.succeeded
        if field == "residual":
            bad = dataclasses.replace(route, residual=math.inf)
        else:
            cert = route.certificate.copy()
            cert[0, -1] = math.inf
            bad = dataclasses.replace(route, certificate=cert)
        report = dataclasses.replace(rep, routes=(bad, *rep.routes[1:]))
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(serialize.realizability_record(report))

    def test_critical_moment_table_matches_dict_records(self):
        spec = parse_spectrum("4,1+i,1-i,-1")
        buf = io.StringIO()
        argv = ["critical", "--format", "machine", "--kmax", "6", "--", "4,1+i,1-i,-1"]
        assert cli.run(argv, out=buf) == 0
        doc = json.loads(buf.getvalue())
        crit = [complex(z["re"], z["im"]) for z in doc["report"]["critical"]]
        trace = trace_moments(spec, 6)
        direct = power_sums(crit, 6)
        ref = [
            {"k": k, "trace": _ref_complex(t), "direct": _ref_complex(d)}
            for k, t, d in zip(range(1, 7), trace, direct)
        ]
        record = serialize.moment_table_record(trace, direct)
        assert canonical_json(record) == _recursive_json(ref)
        assert canonical_json(serialize.moment_table_record([], [])) == "[]"
        # The whole document: critical_record inside document's envelope.
        ref = {"critical": _ref_spectrum(crit), "moments": ref}
        record = serialize.critical_record(crit, trace, direct)
        assert canonical_json(record) == _recursive_json(ref)
        text = _ref_document("critical", _ref_spectrum(spec), {"kmax": 6}, ref)
        assert buf.getvalue() == text + "\n"

    def test_second_verify_of_the_same_shape_builds_no_template(self):
        serialize._template.cache_clear()
        cli.run(["verify", "--format", "machine", "--", "3,-1,-1"], out=io.StringIO())
        info = serialize._template.cache_info()
        assert (info.misses, info.hits) == (2, 0)  # the input's block and the report's
        # Scaled by 2, the list has the same verdict, depths and certificates.
        cli.run(["verify", "--format", "machine", "--", "6,-2,-2"], out=io.StringIO())
        info = serialize._template.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


class TestDocument:
    """serialize.document writes every machine document, envelope included."""

    def test_spectrum_list_input(self):
        spec = parse_spectrum("4,1+i,1-i,-1")
        report = check_necessary_conditions(spec)
        config = {"kmax": None, "jll": 8}
        text = serialize.document("check", spec, config, serialize.condition_report_record(report))
        ref = _ref_condition_report(report)
        assert text == _ref_document("check", _ref_spectrum(spec), config, ref)
        buf = io.StringIO()
        cli.run(["check", "--format", "machine", "--", "4,1+i,1-i,-1"], out=buf)
        assert buf.getvalue() == text + "\n"

    def test_rendered_input(self):
        spec = parse_spectrum("4,1+i,1-i,-1")
        record = serialize.realizability_record(verify_critical_realizability(spec))
        config = {"kmax": None, "jll": 8}
        text = serialize.document("verify", serialize.report_input_record(record), config, record)
        assert text + "\n" == _ref_verify_document(spec)

    def test_no_input(self):
        hunt = HuntReport(7, "dense-uniform", 4, 4, 5, 5, 0, (), {"companion": 5})
        config = {"seed": 7, "samples": 5}
        ref = {
            "seed": 7,
            "ensemble": "dense-uniform",
            "n_min": 4,
            "n_max": 4,
            "samples": 5,
            "certified": 5,
            "uncertified": 0,
            "alarm_count": 0,
            "alarms": [],
            "route_successes": {"companion": 5},
        }
        text = serialize.document("hunt", None, config, serialize.hunt_record(hunt))
        assert text == _ref_document("hunt", None, config, ref)
        assert json.loads(text)["input"] == {"spectrum": None}

    @pytest.mark.parametrize(
        "literal,route,certified,sign,built",
        [
            ("3,-1,-1", "dcomp", True, "nonnegative", True),  # a certificate
            ("1,-1,-1", "companion", False, "metzler", True),  # failed, shown as built
            ("2,1+1i,1-1.0000000001i,-1", "dft", False, None, False),  # no candidate
        ],
    )
    def test_realize_record(self, monkeypatch, literal, route, certified, sign, built):
        # The parts realize hands to realize_record, rendered by the dict
        # reference, are what the command prints.
        calls = []
        real = serialize.realize_record
        monkeypatch.setattr(serialize, "realize_record", lambda *a: calls.append(a) or real(*a))
        buf = io.StringIO()
        argv = ["realize", "--route", route, "--format", "machine", "--", literal]
        assert cli.run(argv, out=buf) == (0 if certified else 1)
        [parts] = calls
        _, _, matrix, sign_class, residual, is_certified, reason = parts
        assert is_certified is certified
        assert (None if sign_class is None else sign_class.value) == sign
        assert (matrix is not None) is built and (residual is not None) is built
        assert (reason is None) is certified
        config = {"route": route, "pivot": None}
        ref = _ref_realize(*parts)
        assert canonical_json(real(*parts)) == _recursive_json(ref)
        text = _ref_document("realize", _ref_spectrum(parse_spectrum(literal)), config, ref)
        assert buf.getvalue() == text + "\n"
