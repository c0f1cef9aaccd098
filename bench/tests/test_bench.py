"""Self-tests of the benchmark: its oracle, its failure accounting, its names.

    python3 -m pytest bench/tests -q
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import critspec  # noqa: E402
import numpy as np  # noqa: E402
from critspec.cli import parse_spectrum  # noqa: E402
import exact  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TRIPLE_DRAWS, WORKLOADS, literal  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_oracle_marks_eightfold_root_as_silent_wrong():
    exact = oracle.critical_points_of_list([1.0] * 8)
    assert exact == [1.0] * 7
    err = oracle.scaled_error(critspec.critical_points([1] * 8), exact)
    assert err > 1e-3 and oracle.is_wrong(err)
    good = critspec.critical_points([3, -1, -1])
    assert not oracle.is_wrong(
        oracle.scaled_error(good, oracle.critical_points_of_list([3, -1, -1]))
    )
    assert oracle.is_wrong(oracle.scaled_error([complex("nan")] * 7, exact))


def test_raising_operation_counts_in_fail_rate_not_latency():
    def op(item):
        if item == "raise":
            time.sleep(0.05)
            raise critspec.NonConvergenceError("stalled")
        return item

    corpus = ["ok", "raise", "ok", "wrong"]
    loop = measure.closed_loop(corpus, op, 1e-9, lambda *a: None, whole_passes=True)
    assert [r.error for r in loop.records] == [None, "NonConvergenceError", None, None]
    e2e = measure.summarize(loop, wrong={3})
    assert e2e["attempted"] == 4
    assert e2e["failed"] == 2
    assert e2e["fail_rate"] == 0.5
    assert e2e["silent_wrong_rate"] == 0.25
    # Only the two correct answers are timed; the 50 ms failure is not,
    # though its time counts against goodput.
    scaled = loop.scaled_seconds()
    assert e2e["latency_p90_ms"] < 1e3 * scaled[1] / 2
    assert e2e["goodput_ops_s"] == pytest.approx(2 / sum(scaled))
    assert e2e["goodput_ops_s"] < 2 / scaled[1]


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = tracing.layer_metrics(tracing.Tracer(), [1.0])
    layers["trace.overhead_ratio"] = 1.0
    names = (
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        + [w["name"] for w in spec["workloads"]]
        + list(layers)
        + list(run.END_TO_END)
    )
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_self_time_subtracts_direct_children():
    spans = [
        (0, 0, None, "root", 0.0, 10.0, False),
        (0, 1, 0, "a", 1.0, 4.0, False),
        (0, 2, 1, "b", 2.0, 3.0, True),
        (0, 3, 0, "b", 5.0, 7.0, False),
    ]
    self_s, total_s, calls, raised = tracing.self_and_total(spans)
    assert self_s == {"root": 5.0, "a": 2.0, "b": 3.0}
    assert total_s["b"] == 3.0 and calls["b"] == 2 and raised["b"] == 1


@pytest.mark.parametrize("name", ["verify-n8", "verify-n8-clusters"])
def test_verify_corpus_is_seeded_and_round_trips(name):
    workload = WORKLOADS[name]
    first, again = workload.corpus(7), workload.corpus(7)
    assert first == again and first != workload.corpus(8)
    for item in first:
        assert parse_spectrum(literal(item.values)).entries == item.values


def test_hunt_screen_drops_triple_critical_points_off_the_spectrum():
    # p = t**5 - t**4/2 - 1/8: distinct eigenvalues, p' = t**3 (5t - 2).
    cycle = np.zeros((5, 5))
    cycle[0, 4] = 0.125
    cycle[4, 4] = 0.5
    for i in range(4):
        cycle[i + 1, i] = 1.0
    assert exact.triple_critical_point_off_spectrum(cycle)
    # A quadruple eigenvalue gives p' a triple root that is an eigenvalue.
    assert not exact.triple_critical_point_off_spectrum(np.diag([0.0, 0, 0, 0, 1]))
    hunt = WORKLOADS["hunt-n5"]
    for draw in TRIPLE_DRAWS:
        assert exact.triple_critical_point_off_spectrum(hunt.replay_matrix(draw))
    corpus = hunt.corpus(90440579)
    assert len(corpus) == 1024 and not set(TRIPLE_DRAWS) & set(corpus)
    assert [c.ensemble for c in corpus[:8]] == list(critspec.ENSEMBLES) * 2
