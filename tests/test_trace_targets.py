"""The benchmark's tracer patches critspec names; each must still exist.

``bench/tracing.py`` wraps functions in the namespaces of the modules
that call them.  A refactor that drops one of those names breaks
``bench/run.py --trace 1`` with an AttributeError, so the names are
checked here, where the tier-1 suite sees them.
"""

import importlib.util
from pathlib import Path

import pytest

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

