"""Shared random-list generators for the test suite, a loader for the
benchmark's modules, and a runner for fresh interpreters."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from critspec import SpectrumList

_BENCH = Path(__file__).parent.parent / "bench"
_SRC = Path(__file__).parent.parent / "src"


def load_bench(name):
    """Import bench/<name>.py with bench/ on sys.path, as the benchmark runs it
    (oracle.py imports exact.py by name)."""
    if name not in sys.modules:
        if str(_BENCH) not in sys.path:
            sys.path.append(str(_BENCH))
        spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def run_fresh(*args):
    """Run ``python *args`` in a fresh interpreter that imports critspec from
    src/, and return the completed process with text stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def random_self_conjugate(rng, n, scale=2.0):
    """Random list closed under conjugation with n entries."""
    npairs = int(rng.integers(0, n // 2 + 1))
    nreal = n - 2 * npairs
    values = list(rng.uniform(-scale, scale, nreal))
    for _ in range(npairs):
        z = complex(rng.uniform(-scale, scale), rng.uniform(0.05, scale))
        values.extend([z, z.conjugate()])
    return SpectrumList(tuple(values))


def random_complex_list(rng, n, scale=2.0):
    """Random list with no structure at all."""
    re = rng.uniform(-scale, scale, n)
    im = rng.uniform(-scale, scale, n)
    return SpectrumList(tuple(complex(a, b) for a, b in zip(re, im)))


def random_suleimanova(rng, n, scale=1.0):
    """One positive entry dominating the sum of the negative rest."""
    negs = -rng.uniform(0.1, scale, n - 1)
    top = -negs.sum() + rng.uniform(0.05, 0.5)
    return SpectrumList(tuple([top] + list(negs)))
