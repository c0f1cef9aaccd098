"""Benchmark of critspec's hunt and verify loops.

    python3 bench/run.py --workload hunt-n5 --seed 1 --seconds 10 --trace 0

Runs one workload from ``workloads.py`` as a closed loop with one client
for ``--seconds`` of operation time, checks every answer off the clock
(known verdicts, and critical points against the mpmath oracle in
``oracle.py``), and prints a report line per section.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced loop with ``--trace 1``.

The report line also carries fail_rate, silent_wrong_rate (returned
without error but wrong), crit_err_max (worst oracle distance over
1 + rho) and alarm_rate; they are 0 on the timing workloads, so they
stay out of the final line, whose metrics carry a regression bound
relative to their median.  Every failure is also in ``failed``, and a
wrong answer makes ``correct`` false.

critspec is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# The metrics of the final line with --trace 0; the report line has more.
END_TO_END = ("goodput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
SETUP_RUNS = 7
SETUP_REFS = 20  # reference units timed between two set-ups
WARMUP_OPS = 8


def import_critspec():
    sys.path.insert(0, str(SRC))
    try:
        import critspec
    except ImportError as exc:
        sys.exit(f"error: cannot import critspec from {SRC}: {exc}")
    if Path(critspec.__file__).resolve().parent != SRC / "critspec":
        sys.exit(f"error: critspec was imported from {critspec.__file__}, not {SRC}")
    return critspec


def environment(ref_ms: float) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "ref_unit_ms": ref_ms,
    }


def measure_setup(code: str) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports critspec and makes
    its first call, raw and scaled to the nominal machine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, scaled = [], []
    refs = [measure.time_reference() for _ in range(SETUP_REFS)]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
        after = [measure.time_reference() for _ in range(SETUP_REFS)]
        ref_ms = 1e3 * statistics.median(refs + after)
        scaled.append(walls[-1] * measure.REF_NOMINAL_MS / ref_ms)
        refs = after
    return statistics.median(walls), statistics.median(scaled)


class Outcomes:
    """The first outcome of every input, and the inputs whose outcome changed."""

    def __init__(self, workload):
        self.signature = workload.signature
        self.first: dict[int, tuple] = {}
        self.changed: set[int] = set()

    def observe(self, index: int, result, error: str | None) -> None:
        outcome = (error, None if error else self.signature(result))
        seen = self.first.setdefault(index, outcome)
        if seen != outcome:
            self.changed.add(index)


def check_answers(workload, corpus, outcomes: Outcomes) -> dict:
    """Check each input's answer once; an input that changed answers is wrong."""
    from oracle import OracleError

    wrong = set(outcomes.changed)
    errors, alarms, reasons, unchecked = [], set(), {}, 0
    for index, (error, signature) in sorted(outcomes.first.items()):
        if error is not None or index in wrong:
            continue
        try:
            c = workload.check(corpus[index], signature)
        except OracleError:
            unchecked += 1
            continue
        if c.error is not None:
            errors.append(c.error)
        if c.alarm:
            alarms.add(index)
        if c.wrong:
            wrong.add(index)
            reasons[index] = c.reason
    return {
        "wrong": wrong,
        "alarms": alarms,
        "crit_err_max": max(errors) if errors else None,
        "unchecked": unchecked,
        "reasons": reasons,
    }


def traced_run(workload, corpus, seconds, outcomes, untraced, root_span, spans_path):
    """A second loop with every layer wrapped; returns its per-layer metrics and loop."""
    import tracing

    tracer = tracing.Tracer()

    def traced_op(item):
        tracer.op += 1
        return tracer.call(root_span, workload.op, item)

    tracer.install()
    try:
        traced = measure.closed_loop(
            corpus, traced_op, seconds, outcomes.observe, whole_passes=True
        )
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, measure.scale_factors(traced.ref_seconds))
    untraced_rate = len(untraced.records) / sum(untraced.scaled_seconds())
    traced_rate = len(traced.records) / sum(traced.scaled_seconds())
    layers["trace.overhead_ratio"] = untraced_rate / traced_rate
    tracer.write(spans_path)
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name in workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_critspec()
    from workloads import WORKLOADS, HuntWorkload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    hunting = isinstance(workload, HuntWorkload)
    corpus = workload.corpus(args.seed)

    setup_raw = setup_s = None
    if not args.trace:
        setup_raw, setup_s = measure_setup(workload.first_call_code(corpus[0]))

    for item in corpus[:WARMUP_OPS]:
        try:
            workload.op(item)
        except Exception:
            pass
        measure.time_reference()

    # A traced run splits its time between an untraced and a traced loop.
    seconds = args.seconds / 2 if args.trace else args.seconds
    outcomes = Outcomes(workload)
    loop = measure.closed_loop(corpus, workload.op, seconds, outcomes.observe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loops = [loop]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        root_span = "harness.hunt" if hunting else "cli.run"
        layers, traced = traced_run(
            workload, corpus, seconds, outcomes, loop, root_span, spans
        )
        loops.append(traced)

    checks = check_answers(workload, corpus, outcomes)
    e2e = measure.summarize(loop, checks["wrong"])
    alarmed = sum(1 for r in loop.records if r.error is None and r.index in checks["alarms"])
    report = {
        "goodput_ops_s": [e2e["goodput_ops_s"], "1/s"],
        "latency_p50_ms": [e2e["latency_p50_ms"], "ms"],
        "latency_p90_ms": [e2e["latency_p90_ms"], "ms"],
        "fail_rate": [e2e["fail_rate"], "ratio"],
        "silent_wrong_rate": [e2e["silent_wrong_rate"], "ratio"],
        "crit_err_max": [checks["crit_err_max"], "1"],
        "alarm_rate": [alarmed / e2e["attempted"] if hunting else None, "ratio"],
        "setup_s": [setup_s, "s"],
        "peak_rss_mb": [peak_rss_mb, "MiB"],
    }
    print(json.dumps({"environment": environment(e2e["ref_unit_ms"])}))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "corpus": len(corpus),
        "attempted": e2e["attempted"],
        "raised": e2e["raised"],
        "silent_wrong": e2e["silent_wrong"],
        "unchecked_inputs": checks["unchecked"],
        "changed_answers": sorted(outcomes.changed),
        "wrong_answers": {str(k): v for k, v in sorted(checks["reasons"].items())},
        "setup_s_unscaled": setup_raw,
        "end_to_end": report,
    }))
    for name, (value, unit) in report.items():
        print(f"  {name:<18s} {'n/a' if value is None else format(value, '.6g'):>14s} {unit}")

    records = [r for lp in loops for r in lp.records]
    failed = sum(1 for r in records if r.error or r.index in checks["wrong"])
    if args.trace:
        metrics = layers
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]} for k in END_TO_END}
    print(json.dumps({
        "correct": not checks["wrong"] and not checks["unchecked"],
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
