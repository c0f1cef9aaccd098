"""The critical points of verify and critical, the eigenvalues of the
differentiator compression, against the mpmath oracle of bench/oracle.py.

The oracle's critical points of a list of exact doubles are good to
about 50 digits.  The compression B has norm at most the spectral radius
rho of the list, and LAPACK's eigenvalues are backward stable in B, so
every computed critical point must lie within C * n * eps * (1 + rho) of
the oracle's; the largest ratio to n * eps * (1 + rho) measured over
these lists is 0.68.
"""

import io
import json

import numpy as np
import pytest

from conftest import load_bench
from critspec import (
    ENSEMBLES,
    HuntConfig,
    as_spectrum,
    compression_critical_points,
    differentiator,
    harness,
    hunt,
    polynomial,
    random_realizable,
    realizers,
    verify_critical_realizability,
)
from critspec.cli import run

oracle = load_bench("oracle")

EPS = float(np.finfo(float).eps)
C = 4.0


def _lists():
    rng = np.random.default_rng(64)
    cases = {}
    for n in (2, 3, 8, 16):
        cases[f"normal-{n}"] = rng.standard_normal(n)
        cases[f"complex-{n}"] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for ensemble in ENSEMBLES:
            cases[f"{ensemble}-{n}"] = random_realizable(n, rng, ensemble)[0].entries
        centres = np.repeat(rng.standard_normal((n + 2) // 3), 3)[:n]
        cases[f"clustered-{n}"] = centres + 1e-7 * rng.standard_normal(n)
        cases[f"repeated-{n}"] = np.repeat(rng.integers(-3, 4, (n + 1) // 2), 2)[:n] * 1.0
        cases[f"mixed-scale-{n}"] = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)
    pair = complex(rng.standard_normal(), rng.standard_normal())
    cases["repeated-pairs-8"] = [pair, pair, pair.conjugate(), pair.conjugate(), 2.0, 2.0, -1.0, 0.5]
    cases["mixed-scale-32"] = rng.standard_normal(32) * 10.0 ** rng.uniform(-4, 4, 32)
    cases["dense-uniform-64"] = random_realizable(64, rng, "dense-uniform")[0].entries
    return {k: as_spectrum(complex(z) for z in v) for k, v in cases.items()}


LISTS = _lists()


@pytest.mark.parametrize("lam", LISTS.values(), ids=LISTS.keys())
def test_within_oracle_bound(lam):
    got = compression_critical_points(lam)
    want = oracle.critical_points_of_list(lam.entries)
    bound = C * len(lam) * EPS * (1.0 + lam.spectral_radius)
    assert oracle.pairing_distance(got, want) <= bound


def test_self_conjugate_lists_give_exact_conjugate_pairs():
    for key, lam in LISTS.items():
        if not any(z.imag for z in lam) or key.startswith("complex"):
            continue
        got = compression_critical_points(lam)
        assert sorted(got, key=lambda z: (z.real, z.imag)) == sorted(
            got.conjugate(), key=lambda z: (z.real, z.imag)
        )


@pytest.mark.parametrize("key", ["normal-8", "complex-8", "sparse-bernoulli-16", "repeated-16"])
def test_verify_reports_these_critical_points(key):
    lam = LISTS[key]
    assert verify_critical_realizability(lam).critical == compression_critical_points(lam)


def test_eightfold_entry_gives_seven_copies_within_8_eps():
    buf = io.StringIO()
    assert run(["verify", "1,1,1,1,1,1,1,1", "--format", "machine"], out=buf) == 0
    crit = json.loads(buf.getvalue())["report"]["critical"]
    assert len(crit) == 7
    assert all(abs(complex(z["re"], z["im"]) - 1.0) <= 8 * EPS for z in crit)


def test_critical_command_gives_seven_copies_within_8_eps():
    buf = io.StringIO()
    assert run(["critical", "1,1,1,1,1,1,1,1", "--format", "machine"], out=buf) == 0
    crit = json.loads(buf.getvalue())["report"]["critical"]
    assert len(crit) == 7
    assert all(abs(complex(z["re"], z["im"]) - 1.0) <= 8 * EPS for z in crit)


def test_critical_command_within_oracle_bound_on_fifty_mixed_scale_lists():
    # Solving p'/n raised NonConvergenceError on 29 of these.
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.standard_normal(6) * 10.0 ** rng.uniform(-4, 4, 6)
        buf = io.StringIO()
        argv = ["critical", "--format", "machine", "--", ",".join(map(repr, lam.tolist()))]
        assert run(argv, out=buf) == 0
        got = [complex(z["re"], z["im"]) for z in json.loads(buf.getvalue())["report"]["critical"]]
        want = oracle.critical_points_of_list(lam.astype(complex).tolist())
        bound = C * len(lam) * EPS * (1.0 + float(np.max(np.abs(lam))))
        assert oracle.pairing_distance(got, want) <= bound


def test_fifty_mixed_scale_lists_get_a_verdict():
    # Solving p'/n raised NonConvergenceError on 29 of these.
    rng = np.random.default_rng(3)
    verdicts = set()
    for _ in range(50):
        lam = list(rng.standard_normal(6) * 10.0 ** rng.uniform(-4, 4, 6))
        verdicts.add(verify_critical_realizability(lam).verdict)
    assert verdicts <= {"certified", "condition-violation", "conditions-hold-uncertified"}


def test_verify_and_hunt_solve_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded or solved")

    # Wherever the names are bound, not only where they are defined.
    for module in (polynomial, realizers, differentiator, harness):
        for name in ("roots_batch", "charpoly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for lam in (LISTS["circulant-nonnegative-8"], LISTS["repeated-16"], LISTS["complex-8"]):
        verify_critical_realizability(lam)
    for ensemble in ENSEMBLES:
        report = hunt(HuntConfig(n_min=3, n_max=8, samples=10, seed=2, ensemble=ensemble))
        assert report.certified + report.uncertified + len(report.alarms) == 10
