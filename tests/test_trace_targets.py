"""The benchmark's tracer patches critspec names; each must still exist.

``bench/tracing.py`` wraps functions in the namespaces of the modules
that call them.  A refactor that drops one of those names breaks
``bench/run.py --trace 1`` with an AttributeError, so the names are
checked here, where the tier-1 suite sees them.  A layer whose calls
move out of the wrapped names reads 0, which is checked for the route
certification and serialize layers, and hunt reads no class.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import load_bench

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, a, _ in tracing.TARGETS],
    ids=[f"{m.__name__}.{a}" for m, a, _ in tracing.TARGETS],
)
def test_target_resolves(module, attr):
    assert callable(getattr(module, attr))


def _ops():
    workloads = load_bench("workloads")
    verify = workloads.WORKLOADS["verify-n8"]
    hunt = workloads.WORKLOADS["hunt-n5"]
    # A circulant draw: its DFT candidate always reaches certification.
    draw = workloads.HuntInput(12345, "circulant-nonnegative")
    return {
        "verify-n8": ("cli.run", lambda: verify.op(verify.corpus(1)[0])),
        "hunt-n5": ("harness.hunt", lambda: hunt.op(draw)),
    }


def _traced(workload):
    # One operation under its root span, as bench/run.py --trace 1 runs it.
    root_span, op = _ops()[workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        tracer.call(root_span, op)
    finally:
        tracer.uninstall()
    return tracer


def _layer_metrics(workload):
    return tracing.layer_metrics(_traced(workload), [1.0])


@pytest.mark.parametrize("workload", ["verify-n8", "hunt-n5"])
def test_certify_layer_reads_nonzero(workload):
    assert _layer_metrics(workload)["harness.certify.total_ms"] > 0


def test_serialize_layer_reads_nonzero():
    # The tracer sees only the serialize functions that cli calls as
    # cli.serialize.<name>; a writer reached another way would read 0.
    assert _layer_metrics("verify-n8")["serialize.self_ms"] > 0


def test_classify_spans_only_where_a_class_is_read():
    # A verify report computes its classes on first read: hunt reads none,
    # and verify --format machine reads both while serializing.
    hunt = _traced("hunt-n5")
    assert "spectra.classify" not in {span[3] for span in hunt.spans}
    assert tracing.layer_metrics(hunt, [1.0])["harness.certify.total_ms"] > 0
    verify = _traced("verify-n8").spans
    parents = [verify[span[2]][3] for span in verify if span[3] == "spectra.classify"]
    assert parents == ["serialize.realizability_record"] * 2
