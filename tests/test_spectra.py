"""Canonical ordering, conjugate splitting, multiset matching, classification,
interlacing."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import random_self_conjugate, run_fresh
from critspec.moments import _scaled
from critspec import (
    NumericError,
    SpectrumList,
    as_spectrum,
    classify,
    conjugate_split,
    critical_compression,
    from_roots,
    interlaces,
    multiset_equal,
    pairing_residual,
    real_d_companion,
)

finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


class TestCanonicalOrder:
    def test_descending_real_then_imag(self):
        s = SpectrumList((1 - 2j, 3, 1 + 2j, -0.5))
        assert s.entries == (3 + 0j, 1 + 2j, 1 - 2j, -0.5 + 0j)

    def test_input_order_irrelevant(self):
        a = SpectrumList((2, -1, 1j, -1j))
        b = SpectrumList((-1j, -1, 1j, 2))
        assert a.entries == b.entries

    @given(st.lists(finite_complex, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_canonicalization_idempotent(self, values):
        once = SpectrumList(tuple(values))
        twice = SpectrumList(once.entries)
        assert once.entries == twice.entries

    def test_spectral_radius(self):
        assert as_spectrum([3, -4, 1j]).spectral_radius == 4.0

    def test_empty_radius_rejected(self):
        with pytest.raises(ValueError):
            SpectrumList(()).spectral_radius


def _conjugate_split_reference(lam):
    """conjugate_split as a rule on the sorted list and its sorted
    conjugate, computed afresh on every call: the reference."""
    spec = as_spectrum(lam)
    conj = SpectrumList(tuple(z.conjugate() for z in spec))
    if any(a != b for a, b in zip(spec, conj)):
        return None
    return [z.real for z in spec if not z.imag], [z for z in spec if z.imag > 0]


@st.composite
def _paired_lists(draw):
    """Lists with exact conjugate pairs, real entries with imaginary part
    +0.0 or -0.0, repeated entries, runs of entries sharing a real part,
    unpaired complex entries and entries with a NaN or infinite part,
    paired or not, shuffled."""
    out = []
    for z in draw(st.lists(finite_complex, min_size=1, max_size=6)):
        kind = draw(
            st.sampled_from(["pair", "+0", "-0", "repeat", "same-real", "special", "single"])
        )
        if kind == "pair":
            out += [z, z.conjugate()]
        elif kind in ("+0", "-0"):
            out.append(complex(z.real, 0.0 if kind == "+0" else -0.0))
        elif kind == "repeat":
            out += [z, z]
        elif kind == "same-real":
            ims = st.sampled_from([z.imag, -z.imag, 0.0, -0.0, 1.0])
            out += [complex(z.real, y) for y in draw(st.lists(ims, min_size=2, max_size=5))]
        elif kind == "special":
            part = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            w = complex(part, z.imag) if draw(st.booleans()) else complex(z.real, part)
            out += [w, w.conjugate()] if draw(st.booleans()) else [w]
        else:
            out.append(z)
    return draw(st.permutations(out))


class TestCachedQuantities:
    """A list's array, spectral radius and conjugate split are computed
    once and kept."""

    @given(_paired_lists())
    @settings(max_examples=300, deadline=None)
    def test_cached_values_match_the_direct_rules(self, values):
        spec = SpectrumList(tuple(values))
        arr = spec.as_array()
        assert arr is spec.as_array()
        assert np.array_equal(arr, np.array(spec.entries), equal_nan=True)
        assert arr.dtype == complex and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
        if all(map(cmath.isfinite, values)):
            assert spec.spectral_radius == max(abs(z) for z in values)
        else:
            with pytest.raises(NumericError):
                spec.spectral_radius
        assert repr(conjugate_split(spec)) == repr(_conjugate_split_reference(values))

    def test_power_of_two_rescale_is_canonical(self):
        # Scaling by 2**-1030 rounds the real part of the pair to 0.0, which
        # ties it with the zeros: the scaled entries must be sorted again.
        tiny = 7.693915883528328e-88
        spec = SpectrumList((0j, -0j, complex(tiny, 1), complex(tiny, -1)))
        scaled = _scaled(spec, -1030)
        assert scaled.entries == SpectrumList(scaled.entries).entries
        assert [z.imag for z in scaled][::3] == [math.ldexp(1, -1030), -math.ldexp(1, -1030)]

    def test_split_computed_once_per_list(self, monkeypatch):
        calls = []
        split = vars(SpectrumList)["_split"]
        build = split.func
        monkeypatch.setattr(split, "func", lambda self: calls.append(self) or build(self))
        spec = as_spectrum([3, 1 + 2j, 1 - 2j, -1, -2])
        splits = [conjugate_split(spec) for _ in range(3)]
        critical_compression(spec)
        from_roots(spec)
        real_d_companion(spec)
        assert calls == [spec]
        assert splits[0] == splits[2] == ([3.0, -1.0, -2.0], [1 + 2j])
        splits[0][0].clear()  # each call gets its own lists
        assert conjugate_split(spec) == splits[2]

    @pytest.mark.parametrize(
        "values",
        [
            [1.3e308 + 1.3e308j, 1.3e308 - 1.3e308j, -1.3e308],
            [1.0, complex(np.nan, 0.0)],
            [complex(0.0, np.inf), 1.0],
        ],
    )
    def test_radius_past_the_double_range_raises(self, values):
        with pytest.raises(NumericError, match="spectral radius of the list"):
            as_spectrum(values).spectral_radius
        with pytest.raises(NumericError, match="spectral radius of the list"):
            classify(values)


class TestMultisetEqual:
    def test_exact_match(self):
        assert multiset_equal([1, 2, 3], [3, 1, 2], 0.0)

    def test_size_mismatch(self):
        assert not multiset_equal([1, 2], [1, 2, 3], 1.0)
        assert pairing_residual([1, 2], [1, 2, 3], 1.0) == float("inf")

    def test_perturbed_match(self):
        a = [1, 1j, -1j]
        b = [1 + 1e-9, 1j * (1 + 1e-9), -1j + 1e-10]
        assert multiset_equal(a, b, 1e-8)
        assert not multiset_equal(a, b, 1e-12)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            multiset_equal([1], [1], -1e-3)

    def test_assignment_untangles_cluster(self):
        # Two near-coincident values, greedily matchable the wrong way
        # round; the optimal assignment must still pair them within tol.
        tol = 1e-6
        a = [0.0, 2 * tol]
        b = [2.1 * tol, -0.1 * tol]
        assert multiset_equal(a, b, 3 * tol)

    @given(st.lists(finite_complex, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, values):
        assert multiset_equal(values, values, 0.0)
        assert multiset_equal(values, values, 1e-9)

    @given(
        st.lists(finite_complex, min_size=1, max_size=8),
        st.lists(finite_complex, min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, a, b):
        tol = 1e-6
        assert multiset_equal(a, b, tol) == multiset_equal(b, a, tol)


class TestConjugateSplit:
    def test_exact_pairs_in_canonical_order(self):
        lam = [-1, 1 - 2j, 3, 1 + 2j, 0.5 + 1j, 0.5 - 1j, 1 + 3j, 1 - 3j]
        assert conjugate_split(lam) == ([3.0, -1.0], [1 + 3j, 1 + 2j, 0.5 + 1j])

    def test_partner_off_in_last_digits_is_not_a_pair(self):
        assert conjugate_split([2, 1 + 1j, complex(1, -(1 + 1e-15)), -1]) is None

    def test_unpaired_entry(self):
        assert conjugate_split([1, 1j]) is None
        assert conjugate_split([1, -1j]) is None
        # Multiplicity counts: two copies of i need two copies of -i.
        assert conjugate_split([1j, 1j, -1j]) is None

    def test_negative_zero_imaginary_part_is_real(self):
        split = conjugate_split([complex(2, -0.0), complex(1, 0.0), complex(1, -0.0)])
        assert split == ([2.0, 1.0, 1.0], [])

    def test_nan_entry_is_not_dropped(self):
        assert conjugate_split([1, complex(0, np.nan)]) is None

    def test_constructions_agree_on_structure(self):
        # B is real-typed exactly when the real d-companion accepts the list
        # and its polynomial has exactly real coefficients.  Each list is
        # also tried with the lower entry of one pair nudged by 1e-12.
        rng = np.random.default_rng(15)
        seen = {True: 0, False: 0}
        for _ in range(200):
            # Odd order: at least one real entry, the d-companion's pivot.
            lam = random_self_conjugate(rng, 2 * int(rng.integers(1, 5)) + 1)
            lists = [lam]
            lower = [i for i, z in enumerate(lam) if z.imag < 0]
            if lower:
                entries = list(lam)
                entries[lower[int(rng.integers(len(lower)))]] -= 1e-12j
                lists.append(SpectrumList(tuple(entries)))
            for spec in lists:
                real_b = not np.iscomplexobj(critical_compression(spec))
                try:
                    real_d_companion(spec)
                    accepted = True
                except ValueError:
                    accepted = False
                real_p = not any(c.imag for c in from_roots(spec).coeffs)
                assert real_b == accepted == real_p, spec
                seen[real_b] += 1
        assert seen[True] > 50 and seen[False] > 50


def _pairing_residual_reference(a, b, tol):
    """pairing_residual without its early exit on equal lists: the reference."""
    A = as_spectrum(a).as_array()
    B = as_spectrum(b).as_array()
    if A.shape != B.shape:
        return float("inf")
    n = len(A)
    if n == 0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf in lists with inf entries
        dist = np.abs(A[:, None] - B[None, :])
    used = np.zeros(n, dtype=bool)
    worst = 0.0
    for i in range(n):
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        used[j] = True
        worst = max(worst, float(row[j]))
    if worst <= tol or worst > 10.0 * tol or n < 2:
        return worst
    rows, cols = linear_sum_assignment(dist**2)
    return float(dist[rows, cols].max())


# Few distinct parts, so entries repeat, zeros of both signs are common
# and the conjugate of a list often equals it.
_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 3.0])
_entries = st.builds(complex, _parts, _parts)
_odd = st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                        complex(-np.inf, 1.0), complex(np.inf, np.inf)])


@st.composite
def _pairing_cases(draw):
    """(a, b, tol): b a permutation of a, then conjugated, nudged by a few
    ulps, moved by 1 to 10 times tol, or given NaN or inf entries."""
    a = draw(st.lists(_entries, max_size=8))
    if draw(st.booleans()):
        a += [z.conjugate() for z in a]
    b = draw(st.permutations(a))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]))
    mode = draw(st.sampled_from(["equal", "conjugate", "nudge", "band", "odd"]))
    if mode == "conjugate":
        b = [z.conjugate() for z in b]
    elif mode == "nudge" and b:
        i = draw(st.integers(0, len(b) - 1))
        b[i] += draw(st.sampled_from([5e-324, 2.2e-16, -4.4e-16, 2.2e-16j]))
    elif mode == "band":
        for i in range(len(b)):
            angle = draw(st.floats(0.0, 2 * np.pi))
            b[i] += draw(st.floats(1.0, 10.0)) * tol * np.exp(1j * angle)
    elif mode == "odd":
        z = draw(_odd)
        side = draw(st.sampled_from(["a", "b", "both"]))
        if side != "b":
            a = a + [z]
        if side != "a":
            b = b + [z]
    return a, b, tol


class TestPairingResidualReference:
    @given(_pairing_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_greedy_and_assignment(self, case):
        a, b, tol = case
        # repr tells NaN and signed zeros apart, which == cannot.
        assert repr(pairing_residual(a, b, tol)) == repr(_pairing_residual_reference(a, b, tol))

    def test_equal_multisets_are_exactly_zero(self):
        a = [1, 1, -0.0, 2 + 1j, 2 - 1j, 1]
        b = [0.0, 2 - 1j, 1, 2 + 1j, 1, 1]
        assert pairing_residual(a, b, 0.0) == 0.0
        spec = as_spectrum([3, -1 + 2j, -1 - 2j, -1 + 2j, -1 - 2j])
        assert pairing_residual(spec, spec.conjugate(), 0.0) == 0.0

    def test_nan_entries_take_the_greedy_pass(self):
        # NaN equals nothing, so equal-looking lists are not short-cut.
        a = [1.0, complex(np.nan, 0.0)]
        assert repr(pairing_residual(a, a, 1e-9)) == repr(_pairing_residual_reference(a, a, 1e-9))


class TestDeferredAssignmentImport:
    def test_cold_interpreter_imports_scipy_at_the_assignment(self):
        # The greedy worst distance, 5e-9, is in (tol, 10*tol], so this
        # call takes the assignment branch, the only user of scipy.
        code = (
            "import sys\n"
            "from critspec import pairing_residual\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "got = pairing_residual([0.0, 10.0], [5e-9, 10.0], 1e-9)\n"
            "print(repr(got), before, 'scipy.optimize' in sys.modules)\n"
        )
        proc = run_fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        dist = np.abs(np.subtract.outer([0.0, 10.0], [5e-9, 10.0]))
        rows, cols = linear_sum_assignment(dist**2)
        want = float(dist[rows, cols].max())
        assert proc.stdout == f"{want!r} False True\n"


class TestClassify:
    def test_suleimanova(self):
        c = classify([3, -1, -1])
        assert c.suleimanova and c.generalized_suleimanova
        assert c.trace == pytest.approx(1.0)

    def test_two_nonnegative_entries_not_suleimanova(self):
        c = classify([2, 1, -1])
        assert not c.suleimanova
        assert not c.generalized_suleimanova

    def test_generalized_but_not_plain(self):
        # Complex pair with negative real part; one nonneg-real entry.
        c = classify([3, -1 + 1j, -1 - 1j])
        assert not c.suleimanova
        assert c.generalized_suleimanova

    def test_ciarlet_boundary(self):
        # n*min + max = 3*(-1) + 3 = 0
        c = classify([3, -1, -1])
        assert c.ciarlet and c.dcomp_inequality

    def test_dcomp_without_ciarlet(self):
        # (n-1)*min + max = 2*(-1) + 2 = 0 but n*min + max = -1 < 0
        c = classify([2, -0.5, -1])
        assert not c.ciarlet
        assert c.dcomp_inequality

    def test_complex_list_fails_real_families(self):
        c = classify([2, 1j, -1j])
        assert not c.ciarlet and not c.dcomp_inequality and not c.suleimanova

    def test_trace_zero_boundary(self):
        c = classify([1, -0.5, -0.5])
        assert c.suleimanova

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify([])

    def test_trace_past_the_double_range_raises(self):
        with pytest.raises(NumericError, match="trace of the list"):
            classify([1e308, 1e308])


class TestInterlaces:
    def test_golden_interlacing(self):
        assert interlaces([1, 1, -2 / 3, -2 / 3, -2 / 3], [1, 1 / 3, -2 / 3, -2 / 3])

    def test_violation(self):
        assert not interlaces([3, 1, 0], [2, 2])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interlaces([1, 2, 3], [1])

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            interlaces([1, 1j, -1j], [1, 0])

    def test_boundary_ties_pass(self):
        assert interlaces([2, 1, 0], [2, 1])

    def test_random_eigen_interlacing(self):
        # Cauchy interlacing of a random symmetric matrix against its
        # leading principal submatrix is an independent ground truth.
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            lam = np.linalg.eigvalsh(A)
            mu = np.linalg.eigvalsh(A[: n - 1, : n - 1])
            assert interlaces(list(lam), list(mu), tol=1e-9)


class TestRandomGenerators:
    def test_self_conjugate_closure(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_self_conjugate(rng, int(rng.integers(1, 10)))
            assert multiset_equal(s, s.conjugate(), 1e-12)
            reals, ups = conjugate_split(s)
            assert len(reals) + 2 * len(ups) == len(s)
