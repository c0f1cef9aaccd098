"""The benchmark's tracer patches critspec names; each must still exist.

``bench/tracing.py`` wraps functions in the namespaces of the modules
that call them.  A refactor that drops one of those names breaks
``bench/run.py --trace 1`` with an AttributeError, so the names are
checked here, where the tier-1 suite sees them.  A layer whose calls
move out of the wrapped names reads 0, which is checked for the route
certification layer.
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


@pytest.mark.parametrize("workload", ["verify-n8", "hunt-n5"])
def test_certify_layer_reads_nonzero(workload):
    # One operation under its root span, as bench/run.py --trace 1 runs it.
    root_span, op = _ops()[workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        tracer.call(root_span, op)
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer, [1.0])["harness.certify.total_ms"] > 0
