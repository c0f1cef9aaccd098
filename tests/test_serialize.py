"""Canonical JSON: the single-pass writer renders what the recursive one did."""

import enum
import gc
import json
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from critspec.serialize import _fmt_float, canonical_json

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
        gc.collect()
        gc.disable()
        try:
            canonical_json(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()
