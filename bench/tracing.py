"""Spans around critspec's public functions, recorded from outside the package.

Each wrapper is installed in the namespace of the module that calls the
function (``harness.roots``, ``realizers.charpoly``, ``cli.serialize``
...), so the package itself is unchanged and the wrappers vanish when
``Tracer.uninstall`` runs.  Spans are kept in memory; a layer's self
time is its span minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from critspec import cli, harness, moments, realizers, serialize

# (module whose namespace is patched, attribute, span name)
TARGETS = [
    (harness, "random_realizable", "harness.random_realizable"),
    (harness, "verify_critical_realizability", "harness.verify_critical_realizability"),
    (harness, "from_roots", "polynomial.from_roots"),
    (harness, "roots", "polynomial.roots"),
    (harness, "spectrum", "realizers.spectrum"),
    (harness, "companion", "realizers.companion"),
    (harness, "d_companion", "realizers.d_companion"),
    (harness, "circulant", "realizers.circulant"),
    (harness, "principal_submatrix", "realizers.principal_submatrix"),
    (harness, "hadamard_similarity", "realizers.hadamard_similarity"),
    (harness, "matrix_sign_class", "realizers.matrix_sign_class"),
    (harness, "check_necessary_conditions", "moments.check_necessary_conditions"),
    (harness, "critical_moment", "moments.critical_moment"),
    (harness, "power_sums", "moments.power_sums"),
    (harness, "pairing_residual", "spectra.pairing_residual"),
    (harness, "classify", "spectra.classify"),
    (realizers, "charpoly", "realizers.charpoly"),
    (realizers, "roots", "polynomial.roots"),
    (moments, "power_sums", "moments.power_sums"),
    (moments, "pairing_residual", "spectra.pairing_residual"),
    (cli, "verify_critical_realizability", "harness.verify_critical_realizability"),
    (cli, "parse_spectrum", "cli.parse_spectrum"),
]

CONSTRUCTIONS = {
    "realizers.companion",
    "realizers.d_companion",
    "realizers.circulant",
    "realizers.principal_submatrix",
    "realizers.hadamard_similarity",
}
ROUTES = ("companion", "d-companion", "dft-circulant")


class Tracer:
    """Records (op, id, parent, name, start, end, raised) for every wrapped call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.route_attempts: dict[str, int] = defaultdict(int)
        self.route_successes: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the call ends
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        raised = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, t0, t1, raised)
            if not raised and name == "harness.verify_critical_realizability":
                self._count_routes(result)

    def _count_routes(self, report) -> None:
        for r in report.routes:
            if r.attempted:
                self.route_attempts[r.name] += 1
                self.route_successes[r.name] += int(r.succeeded)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for module, attr, name in TARGETS:
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        build_parser = cli.build_parser

        def traced_build_parser():
            parser = self.call("cli.build_parser", build_parser)
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", traced_build_parser)
        self._patch(cli, "serialize", _TracedModule(serialize, self, "serialize"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        keys = ("op", "id", "parent", "name", "start_s", "end_s", "raised")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1, raised in self.spans:
                row = (op, sid, parent, name, t0 - origin, t1 - origin, raised)
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


class _TracedModule:
    """Stands in for a module in a caller's namespace; its functions are traced."""

    def __init__(self, module, tracer: Tracer, prefix: str):
        self._module = module
        self._tracer = tracer
        self._prefix = prefix

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if callable(value):
            return self._tracer.wrap(f"{self._prefix}.{attr}", value)
        return value


def self_and_total(spans: list[tuple], weights=None) -> tuple[dict, dict, dict, dict]:
    """Per span name: self seconds, total seconds, call count, raised count.

    Times are multiplied by ``weights[op]`` when weights are given.

    The routes' certification calls of ``realizers.spectrum`` (those not
    under ``harness.random_realizable``) are also totalled apart, under
    the name ``spectrum.certify``.
    """
    child = defaultdict(float)
    names = {}
    for _, sid, parent, name, t0, t1, _ in spans:
        names[sid] = name
        if parent is not None:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    raised = defaultdict(int)
    for op, sid, parent, name, t0, t1, failed in spans:
        w = 1.0 if weights is None else weights[op]
        dur = w * (t1 - t0)
        self_s[name] += dur - w * child[sid]
        total_s[name] += dur
        calls[name] += 1
        raised[name] += int(failed)
        if name == "realizers.spectrum" and names[parent] != "harness.random_realizable":
            total_s["spectrum.certify"] += dur
    return self_s, total_s, calls, raised


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms/op"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count/op"


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """The per-layer figures per operation; ``scales[op]`` turns an
    operation's seconds into seconds on the nominal machine."""
    ops = len(scales)
    self_s, total_s, calls, raised = self_and_total(tracer.spans, scales)

    def ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    out = {
        "polynomial.roots.self_ms": ms(self_s["polynomial.roots"]),
        "polynomial.roots.calls": calls["polynomial.roots"] / ops,
        "polynomial.roots.fail": raised["polynomial.roots"] / ops,
        "polynomial.from_roots.self_ms": ms(self_s["polynomial.from_roots"]),
        "realizers.charpoly.self_ms": ms(self_s["realizers.charpoly"]),
        "realizers.charpoly.fail": raised["realizers.charpoly"] / ops,
        "realizers.build.self_ms": ms(sum(self_s[b] for b in CONSTRUCTIONS)),
        "realizers.matrix_sign_class.self_ms": ms(self_s["realizers.matrix_sign_class"]),
        "harness.sampler.total_ms": ms(total_s["harness.random_realizable"]),
        "harness.certify.total_ms": ms(total_s["spectrum.certify"]),
        "harness.verify.self_ms": ms(self_s["harness.verify_critical_realizability"]),
        "harness.hunt.self_ms": ms(self_s["harness.hunt"]),
        "moments.conditions.self_ms": ms(self_s["moments.check_necessary_conditions"]),
        "moments.power_sums.self_ms": ms(self_s["moments.power_sums"]),
        "moments.critical_moment.self_ms": ms(self_s["moments.critical_moment"]),
        "moments.critical_moment.calls": calls["moments.critical_moment"] / ops,
        "spectra.pairing_residual.self_ms": ms(self_s["spectra.pairing_residual"]),
        "cli.parse.self_ms": ms(
            self_s["cli.build_parser"] + self_s["cli.parse_args"] + self_s["cli.parse_spectrum"]
        ),
        "serialize.self_ms": ms(
            sum(v for k, v in self_s.items() if k.startswith("serialize."))
        ),
    }
    for route in ROUTES:
        attempts = tracer.route_attempts[route]
        out[f"harness.route.{route}.success_ratio"] = (
            tracer.route_successes[route] / attempts if attempts else 0.0
        )
    return out
