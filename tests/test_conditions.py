import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import generalized_tournaments, score_functions, step_kernels, tournaments
from tourlim import (
    MomentSequence,
    ScoreFunction,
    SampleConfig,
    ScoreSequence,
    StepKernel,
    ValidationError,
    check_condition_I,
    check_condition_II,
    check_eplett,
    check_hausdorff_moments,
    check_landau,
    irreducible_decomposition,
    is_simple_avery,
    moments_of_score_function,
    sample_self_converse,
    score_function_of_kernel,
    scores_of_tournament,
)


def iseq(*vals):
    return ScoreSequence(np.array(vals), "integer")


def identity_cells(m):
    return ScoreFunction((2 * np.arange(m) + 1) / (2 * m))


class TestLandau:
    def test_cyclic_triple_valid(self):
        assert check_landau(iseq(1, 1, 1)).valid

    def test_0_0_3_invalid_with_prefix_witness(self):
        rep = check_landau(iseq(0, 0, 3))
        assert not rep.valid
        assert rep.witness == {"check": "landau-prefix", "k": 2, "sum": 0, "bound": 1}

    def test_transitive_valid_with_equalities(self):
        assert check_landau(iseq(0, 1, 2)).valid

    def test_total_mismatch(self):
        rep = check_landau(iseq(1, 1, 2))
        assert not rep.valid
        assert rep.witness["check"] == "landau-total"

    def test_real_kind_with_tolerance(self):
        s = ScoreSequence([1.5, 1.5, 1.5, 1.5], "real")
        assert check_landau(s).valid
        assert check_landau(ScoreSequence([0.4, 0.4, 2.2], "real")).valid is False

    def test_negative_tolerance_rejected(self):
        # at -1 the total 3.0 of [1, 1, 1] would miss its bound 3.0
        with pytest.raises(ValidationError, match="non-negative"):
            check_landau(ScoreSequence([1.0, 1.0, 1.0], "real"), -1.0)
        assert check_landau(ScoreSequence([1.0, 1.0, 1.0], "real"), 0.0).valid
        # integer data is checked at tolerance 0 whatever is passed
        assert check_landau(iseq(1, 1, 1), -1.0).valid

    @given(generalized_tournaments(max_n=8))
    def test_necessity_on_actual_scores(self, g):
        assert check_landau(scores_of_tournament(g)).valid

    def test_brute_force_equivalence_small(self):
        for n in range(1, 6):
            realizable = oracles.realizable_multisets(n)
            for tup in oracles.candidate_multisets(n):
                expected = tup in realizable
                got = check_landau(ScoreSequence(np.array(tup), "integer")).valid
                assert got == expected, (n, tup)

    def test_witness_reevaluates(self):
        rep = check_landau(iseq(0, 0, 0, 6))
        w = rep.witness
        d = sorted([0, 0, 0, 6])
        assert sum(d[: w["k"]]) == w["sum"] < w["bound"]


class TestEplett:
    def test_examples(self):
        assert check_eplett(iseq(1, 1, 1)).valid
        assert check_eplett(iseq(0, 1, 2)).valid
        assert check_eplett(iseq(1, 1, 2, 2)).valid

    def test_landau_failure_passes_through(self):
        rep = check_eplett(iseq(0, 0, 3))
        assert not rep.valid and rep.witness["check"] == "landau-prefix"

    def test_pairing_failure(self):
        rep = check_eplett(iseq(0, 2, 2, 2))
        assert not rep.valid
        assert rep.witness["check"] == "eplett-pair"
        assert rep.witness["sum"] != rep.witness["required"]

    def test_exhaustive_against_definition(self):
        # Eplett-valid == Landau-valid and paired sums equal n-1
        for n in range(1, 6):
            for tup in oracles.candidate_multisets(n):
                s = ScoreSequence(np.array(tup), "integer")
                d = sorted(tup)
                paired = all(d[i] + d[n - 1 - i] == n - 1 for i in range(n))
                expected = check_landau(s).valid and paired
                assert check_eplett(s).valid == expected

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_eplett(ScoreSequence([0.5, 1.0, 1.5], "real"), -1e-9)
        assert check_eplett(ScoreSequence([0.5, 1.0, 1.5], "real"), 0.0).valid


class TestConditionI:
    def test_identity_is_tight(self):
        assert check_condition_I(identity_cells(10)).valid

    def test_constant_half(self):
        assert check_condition_I(ScoreFunction([0.5, 0.5, 0.5])).valid

    def test_square_fails(self):
        # total mass is 1/3, not 1/2, and every proper prefix undershoots
        # r^2/2 as well; the checker reports the first violated prefix
        m = 8
        i = np.arange(m)
        cells = ((i + 1) ** 3 - i**3) / (3 * m**2)  # exact cell means of x^2
        assert abs(cells.mean() - 1 / 3) < 1e-12
        rep = check_condition_I(ScoreFunction(cells))
        assert not rep.valid
        w = rep.witness
        assert w["check"] == "prefix-integral" and w["integral"] < w["bound"]

    def test_total_mass_witness(self):
        rep = check_condition_I(ScoreFunction([0.6, 0.6, 0.6]))
        assert not rep.valid
        assert rep.witness["check"] == "total-mass"
        assert abs(rep.witness["integral"] - 0.6) < 1e-12

    def test_prefix_violation_witness(self):
        rep = check_condition_I(ScoreFunction([0.0, 0.0, 1.0, 1.0]))
        assert not rep.valid
        w = rep.witness
        assert w["check"] == "prefix-integral" and w["integral"] < w["bound"]

    @given(score_functions())
    def test_permutation_invariance(self, f):
        shuffled = ScoreFunction(f.cells[::-1].copy())
        assert check_condition_I(f).valid == check_condition_I(shuffled).valid

    @given(score_functions())
    def test_complement_symmetry(self, f):
        comp = ScoreFunction(1.0 - f.cells)
        assert check_condition_I(f).valid == check_condition_I(comp).valid

    def test_randomized_subset_oracle(self):
        rng = np.random.default_rng(7)
        accepted = 0
        while accepted < 20:
            m = int(rng.integers(2, 12))
            cells = np.sort(rng.random(m))
            cells = cells / cells.mean() * 0.5  # force total mass 1/2
            if np.any(cells > 1):
                continue
            f = ScoreFunction(cells)
            if not check_condition_I(f).valid:
                continue
            accepted += 1
            subsets = rng.random((10_000, m)) < 0.5
            sums = subsets @ f.cells / m
            sizes = subsets.sum(axis=1) / m
            assert np.all(sums >= sizes**2 / 2 - 1e-9)

    def test_prefix_mean_bound_for_monotone(self):
        # non-decreasing f passing the check has prefix means >= r/2
        f = identity_cells(9)
        prefix = np.cumsum(f.cells) / np.arange(1, 10)
        r = np.arange(1, 10) / 9
        assert check_condition_I(f).valid
        assert np.all(prefix >= r / 2 - 1e-12)

    def test_negative_tolerance_rejected(self):
        # at -1e-9 the integral 0.5 would miss its required 0.5
        with pytest.raises(ValidationError, match="non-negative"):
            check_condition_I(ScoreFunction([0.5, 0.5]), -1e-9)
        assert check_condition_I(ScoreFunction([0.5, 0.5]), 0.0).valid


class TestConditionII:
    def test_examples(self):
        assert check_condition_II(identity_cells(6)).valid
        assert check_condition_II(ScoreFunction([0.5, 0.5, 0.5])).valid
        rep = check_condition_II(ScoreFunction([0.3, 0.9]))
        assert not rep.valid
        assert abs(rep.witness["sum"] - 1.2) < 1e-12

    def test_odd_middle_cell(self):
        assert check_condition_II(ScoreFunction([0.2, 0.5, 0.8])).valid
        assert not check_condition_II(ScoreFunction([0.2, 0.6, 0.8])).valid

    def test_relabelled_self_converse_kernel(self):
        # the 3-block transitive kernel relabelled; self-converse under
        # sigma = (0)(1 2), and its score function [1/2, 5/6, 1/6] is point
        # symmetric once rearranged
        w = StepKernel([[0.5, 0.0, 1.0], [1.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
        sample_self_converse(w, np.array([0, 2, 1]), SampleConfig(6))
        assert check_condition_II(score_function_of_kernel(w)).valid

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_condition_II(ScoreFunction([0.25, 0.5, 0.75]), -1e-9)
        assert check_condition_II(ScoreFunction([0.25, 0.5, 0.75]), 0.0).valid


class TestDecomposition:
    def test_transitive_fully_decomposes(self):
        blocks = irreducible_decomposition(iseq(0, 1, 2))
        assert [b.values.tolist() for b in blocks] == [[0], [0], [0]]

    def test_cyclic_triple_is_one_block(self):
        blocks = irreducible_decomposition(iseq(1, 1, 1))
        assert [b.values.tolist() for b in blocks] == [[1, 1, 1]]

    def test_concatenation_oracle(self):
        # lower block scores unchanged, upper block scores shifted by its size
        rng = np.random.default_rng(3)
        parts = [(1, 1, 1), (1, 1, 2, 2), (0,), (2, 2, 2, 2, 2)]
        for _ in range(25):
            chosen = [parts[i] for i in rng.integers(0, len(parts), size=3)]
            seq, offset = [], 0
            for part in chosen:
                seq.extend(x + offset for x in part)
                offset += len(part)
            blocks = irreducible_decomposition(ScoreSequence(np.array(seq), "integer"))
            assert [tuple(b.values.tolist()) for b in blocks] == chosen

    def test_blocks_are_irreducible(self):
        blocks = irreducible_decomposition(iseq(1, 1, 1, 4, 4, 4))
        for b in blocks:
            d = sorted(int(v) for v in b.values)
            for k in range(1, len(d)):
                assert sum(d[:k]) > k * (k - 1) // 2

    def test_real_kind_rejected(self):
        with pytest.raises(ValidationError):
            irreducible_decomposition(ScoreSequence([0.5, 0.5], "real"))

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValidationError):
            irreducible_decomposition(iseq(0, 0, 3))


class TestAvery:
    def test_examples(self):
        assert is_simple_avery(iseq(0, 1, 2))
        assert is_simple_avery(iseq(2, 2, 2, 2, 2))
        assert is_simple_avery(iseq(1, 1, 2, 2))

    def test_exhaustive_unique_class_equivalence(self):
        for n in range(1, 6):
            classes = oracles.iso_classes_by_score(n)
            for multiset, forms in classes.items():
                s = ScoreSequence(np.array(multiset), "integer")
                assert is_simple_avery(s) == (len(forms) == 1), (n, multiset)


TOLS = st.sampled_from([0.0, 1e-9, 1e-6])


def nudged(draw, values, tol):
    """``values`` with each entry moved by at most 2 tol."""
    steps = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(values), max_size=len(values)))
    return np.asarray(values, dtype=float) + tol * np.asarray(steps)


@st.composite
def near_landau(draw):
    """(values, kind, tol, eplett) near the Landau and Eplett bounds: scores
    of a (generalised) tournament, possibly averaged with their converse,
    each moved by up to 2 tol; integer scores get one unit moved instead."""
    kind = draw(st.sampled_from(["integer", "real"]))
    eplett = draw(st.booleans())
    g = draw(tournaments(max_n=8) if kind == "integer" else generalized_tournaments(max_n=8))
    d = np.sort(scores_of_tournament(g).values)
    n = len(d)
    if kind == "integer":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i] += 1
        d[j] = max(d[j] - draw(st.integers(0, 1)), 0)
        return d, kind, 0.0, eplett
    tol = draw(TOLS)
    if draw(st.booleans()):
        d = (d + (n - 1) - d[::-1]) / 2
    return np.maximum(nudged(draw, d, tol), 0.0), kind, tol, eplett


@st.composite
def near_conditions(draw):
    """(cells, which, tol) near the bounds of condition I (score functions
    of kernels) or II (point-symmetric cells in any order), moved by up to
    2 tol."""
    which = draw(st.sampled_from(["I", "II"]))
    tol = draw(TOLS)
    if which == "I":
        cells = score_function_of_kernel(draw(step_kernels())).cells
    else:
        half = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
        middle = [0.5] if draw(st.booleans()) else []
        cells = np.concatenate([half, middle, 1.0 - half[::-1]])
        cells = np.asarray(draw(st.permutations(list(cells))))  # II is up to rearrangement
    return np.clip(nudged(draw, cells, tol), 0.0, 1.0), which, tol


class TestExactOracle:
    """Verdicts equal those on the exact rational values of the doubles."""

    @given(near_landau())
    @settings(max_examples=300, deadline=None)
    def test_landau_and_eplett(self, case):
        values, kind, tol, eplett = case
        check = check_eplett if eplett else check_landau
        got = check(ScoreSequence(values, kind), tol).valid
        assert got == oracles.exact_landau(values, kind, tol, eplett)

    @given(near_conditions())
    @settings(max_examples=300, deadline=None)
    def test_conditions_I_and_II(self, case):
        cells, which, tol = case
        check = check_condition_I if which == "I" else check_condition_II
        got = check(ScoreFunction(cells), tol).valid
        assert got == oracles.exact_condition(cells, which, tol)


def chunked_row_sums(rng, n):
    """Row sums of a uniform generalised tournament, drawn in row chunks so
    that no n x n matrix is held; non-dyadic and Landau-valid within 1e-9."""
    scores = np.zeros(n)
    cols = np.arange(n)[None, :]
    for start in range(0, n, 256):
        stop = min(n, start + 256)
        upper = cols > np.arange(start, stop)[:, None]
        u = np.where(upper, rng.random((stop - start, n)), 0.0)
        scores[start:stop] += u.sum(axis=1)
        scores += np.where(upper, 1.0 - u, 0.0).sum(axis=0)
    return scores


class TestExactAtScale:
    """A running float sum drifts by a few 1e-9 at these sizes; the checks
    compare exact sums, so valid real input is accepted at every size."""

    @pytest.mark.parametrize("n", [3000, 6000])
    def test_landau_accepts_non_dyadic_row_sums(self, n):
        values = chunked_row_sums(np.random.default_rng(0), n)
        assert oracles.exact_landau(values, "real", 1e-9)
        assert check_landau(ScoreSequence(values, "real")).valid

    def test_eplett_accepts_non_dyadic_self_converse_scores(self):
        n = 2000
        d = np.sort(chunked_row_sums(np.random.default_rng(2), n))
        values = (d + (n - 1) - d[::-1]) / 2
        assert oracles.exact_landau(values, "real", 1e-9, eplett=True)
        assert check_eplett(ScoreSequence(values, "real")).valid

    def test_subnormal_next_to_large_scores(self):
        # the transitive scores with 0 replaced by the smallest double
        # exceed the total by exactly 5e-324
        values = np.arange(3000, dtype=float)
        values[0] = 5e-324
        s = ScoreSequence(values, "real")
        start = time.perf_counter()
        rep = check_landau(s, 0.0)
        assert not rep.valid and rep.witness["check"] == "landau-total"
        assert check_landau(s, 5e-324).valid
        assert check_eplett(s).valid
        assert time.perf_counter() - start < 1.0


class TestHausdorffMoments:
    def test_moments_of_identity_function(self):
        a = MomentSequence([1 / (k + 1) for k in range(9)])
        assert check_hausdorff_moments(a, 8).valid

    def test_documented_failure(self):
        rep = check_hausdorff_moments(MomentSequence([1, 0.5, 0.5, 0.1]), 3)
        assert not rep.valid
        w = rep.witness
        assert w["check"] == "difference" and w["n"] == 1 and w["m"] == 2
        assert abs(w["value"] - (-0.4)) < 1e-12

    def test_geometric_moments(self):
        for c in (0.2, 0.7, 0.99):
            a = MomentSequence([c**k for k in range(9)])
            assert check_hausdorff_moments(a, 8).valid

    def test_a0_witness(self):
        rep = check_hausdorff_moments(MomentSequence([0.9, 0.5]), 1)
        assert not rep.valid and rep.witness["check"] == "a0"

    def test_order_exceeds_data(self):
        with pytest.raises(ValidationError):
            check_hausdorff_moments(MomentSequence([1.0, 0.5]), 5)

    def test_increasing_sequence_fails(self):
        rep = check_hausdorff_moments(MomentSequence([1.0, 0.2, 0.3]), 2)
        assert not rep.valid
        assert rep.witness == {"check": "difference", "n": 1, "m": 1,
                               "value": pytest.approx(-0.1)}


class TestMomentsOfScoreFunction:
    def test_constant_half(self):
        a = moments_of_score_function(ScoreFunction([0.5]), 3)
        assert np.allclose(a.a, [1, 0.5, 0.25, 0.125])

    def test_midpoint_rule_error_bound(self):
        m = 100
        a = moments_of_score_function(
            ScoreFunction((2 * np.arange(m) + 1) / (2 * m)), 2
        )
        assert abs(a.a[2] - 1 / 3) <= 1 / (4 * m * m)

    def test_two_cells(self):
        a = moments_of_score_function(ScoreFunction([0.0, 1.0]), 3)
        assert a.a.tolist() == [1.0, 0.5, 0.5, 0.5]

    @given(score_functions(max_m=10), st.integers(0, 8))
    @settings(max_examples=60)
    def test_always_pass_hausdorff(self, f, order):
        a = moments_of_score_function(f, order)
        assert check_hausdorff_moments(a, order).valid
