import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from strategies import cell_pairs, generalized_tournaments, score_functions, step_kernels
from tourlim import (
    TOL,
    DegreeDistribution,
    GeneralizedTournament,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    ValidationError,
    converse,
    decreasing_rearrangement,
    degree_distribution,
    increasing_rearrangement,
    rearrangement_permutation,
    score_function_of_kernel,
    scores_of_tournament,
    step_kernel_from_tournament,
    wasserstein1,
)

T3 = GeneralizedTournament(np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float))
CYCLE3 = GeneralizedTournament(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
HALF2 = GeneralizedTournament(np.full((2, 2), 0.5) - 0.5 * np.eye(2))


class TestTypes:
    def test_score_sequence_rejects_negative(self):
        with pytest.raises(ValidationError):
            ScoreSequence([1.0, -0.5], "real")

    def test_score_sequence_integer_kind_requires_integers(self):
        with pytest.raises(ValidationError):
            ScoreSequence([1.5, 0.5], "integer")

    def test_score_sequence_integer_kind_rejects_values_from_2_53(self):
        # 1e19 would wrap to -2**63 in int64; 2**53 + 1 rounds to 2**53 in float64
        for big in (1e19, 2**70, 2**53 + 1, 2**53):
            with pytest.raises(ValidationError, match="2\\*\\*53"):
                ScoreSequence([big, 0, 1], "integer")
            with pytest.raises(ValidationError, match="2\\*\\*53"):
                ScoreSequence.from_json_dict({"values": [big, 0, 1], "kind": "integer"})
        assert ScoreSequence([2**53 - 1, 0], "integer").values.tolist() == [2**53 - 1, 0]
        assert ScoreSequence([1e19, 0, 1], "real").values[0] == 1e19

    def test_score_sequence_is_immutable(self):
        s = ScoreSequence([0, 1, 2], "integer")
        with pytest.raises(ValueError):
            s.values[0] = 7

    def test_tournament_rejects_broken_skew(self):
        with pytest.raises(ValidationError):
            GeneralizedTournament(np.array([[0, 0.3], [0.3, 0]]))

    def test_tournament_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            GeneralizedTournament(np.array([[0.2, 1], [0, 0]]))

    def test_kernel_diagonal_must_be_half(self):
        with pytest.raises(ValidationError):
            StepKernel(np.array([[0.4, 1], [0, 0.5]]))

    def test_kernel_entries_must_be_unit_range(self):
        with pytest.raises(ValidationError):
            StepKernel(np.array([[0.5, 1.5], [-0.5, 0.5]]))

    def test_skew_violation_in_last_row_block_is_rejected(self):
        # 300 rows are checked in tiles of 256; the pair (298, 299) lies
        # in the last, partial diagonal tile and misses the skew identity by 2 TOL
        n = 300
        upper = np.triu(np.random.default_rng(4).random((n, n)), 1)
        a = upper + np.tril(1.0 - upper.T, -1)
        a[298, 299], a[299, 298] = 0.5 + 2 * TOL, 0.5
        with pytest.raises(ValidationError, match="violates"):
            GeneralizedTournament(a)
        m = a.copy()
        np.fill_diagonal(m, 0.5)
        with pytest.raises(ValidationError, match="violates"):
            StepKernel(m)
        a[298, 299] = m[298, 299] = 0.5 + TOL / 2
        assert GeneralizedTournament(a).n == StepKernel(m).n == n

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_skew_violation_in_any_tile_is_rejected(self, n):
        # with tiles of 256: a diagonal tile, an off-diagonal one and the
        # last, partial one (they coincide below 257)
        from tourlim.core import _SKEW_TILE

        assert _SKEW_TILE == 256
        upper = np.triu(np.random.default_rng(n).random((n, n)), 1)
        a = upper + np.tril(1.0 - upper.T, -1)
        for i, j in ((1, 2), (n // 2, n // 2 + 1), (2, n - 1), (n - 1, n - 2)):
            bad = a.copy()
            bad[i, j], bad[j, i] = 0.5 + 2 * TOL, 0.5
            with pytest.raises(ValidationError, match="violates"):
                GeneralizedTournament(bad)
            np.fill_diagonal(bad, 0.5)
            with pytest.raises(ValidationError, match="violates"):
                StepKernel(bad)
        assert GeneralizedTournament(a).n == n

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_named_first(self, value):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for at in ((0, 1), (1, 1), (2, 0)):
            bad = a.copy()
            bad[at] = value
            with pytest.raises(ValidationError, match="non-finite"):
                GeneralizedTournament(bad)
            with pytest.raises(ValidationError, match="non-finite"):
                GeneralizedTournament(bad.tolist())
            # before the shape
            with pytest.raises(ValidationError, match="non-finite"):
                GeneralizedTournament(bad[:, :2])
        for make in (lambda v: ScoreSequence(v, "real"), ScoreFunction,
                     lambda v: DegreeDistribution(np.full(3, 0.5), v)):
            with pytest.raises(ValidationError, match="non-finite"):
                make([1 / 3, value, 1 / 3])

    def test_range_error_comes_before_skew_error(self):
        # (0, 1) is out of range, and (1, 2) with (2, 1) breaks the skew identity
        a = np.array([[0.0, 1.5, 0.5], [-0.5, 0.0, 0.5], [0.5, 0.9, 0.0]])
        with pytest.raises(ValidationError, match="outside"):
            GeneralizedTournament(a)
        a[0, 1], a[1, 0] = 1.0, 0.0
        with pytest.raises(ValidationError, match="violates"):
            GeneralizedTournament(a)

    def test_constructor_memory_is_below_twice_the_matrix(self):
        n = 900
        upper = np.triu(np.random.default_rng(5).random((n, n)), 1)
        a = upper + np.tril(1.0 - upper.T, -1)
        tracemalloc.start()
        try:
            GeneralizedTournament(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * a.nbytes

    def test_constructor_memory_on_bool_input_is_below_1_5_results(self):
        # the constructor keeps a copy of the bools and builds no float64
        # matrix: its peak is below 1.5 times the bools, alpha's is later
        n = 900
        upper = np.triu(np.random.default_rng(5).random((n, n)) < 0.5, 1)
        b = upper | np.tril(~upper.T, -1)
        tracemalloc.start()
        try:
            g = GeneralizedTournament(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * b.nbytes
        assert np.array_equal(g.alpha, b)

    def test_constructors_keep_their_own_copy(self):
        a = np.array([[0.0, 1.0 + TOL / 2], [-TOL / 2, 0.0]])
        g = GeneralizedTournament(a)
        m = np.array([[0.5, 1.0 + TOL / 2], [-TOL / 2, 0.5]])
        w = StepKernel(m)
        assert a[0, 1] == m[0, 1] == 1.0 + TOL / 2 and a[1, 0] == m[1, 0] == -TOL / 2
        assert g.alpha.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert w.blocks.tolist() == [[0.5, 1.0], [0.0, 0.5]]
        a[0, 1] = 0.5
        assert g.alpha[0, 1] == 1.0
        # a view of the caller's array is copied; a list, a float32 array
        # and a bool array are converted, and the conversion is clipped
        b = np.array([[0.0, -TOL / 2], [1.0 + TOL / 2, 0.0]])
        assert GeneralizedTournament(b.T).alpha.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert b[1, 0] == 1.0 + TOL / 2
        for x in (b.tolist(), b.astype(np.float32), b > 0.5):
            assert GeneralizedTournament(x).alpha.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert b.tolist() == [[0.0, -TOL / 2], [1.0 + TOL / 2, 0.0]]

    def test_is_tournament(self):
        assert T3.is_tournament and CYCLE3.is_tournament
        assert not HALF2.is_tournament
        # a 0/1 matrix is held as bools from construction, whatever its
        # dtype, and anything else as float64
        for x in ([[0, 1], [0, 0]], np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2, k=1) > 0):
            g = GeneralizedTournament(x)
            assert g.is_tournament and g._entries.dtype == bool
        h = GeneralizedTournament(np.array([[0.0, 1.0 - TOL / 2], [TOL / 2, 0.0]]))
        assert not h.is_tournament and h._entries.dtype == np.float64

    def test_pattern_rejects_two_cycle_and_loops(self):
        from tourlim import DigraphPattern

        with pytest.raises(ValidationError):
            DigraphPattern(2, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(ValidationError):
            DigraphPattern(2, frozenset({(0, 0)}))

    def test_degree_distribution_merges_duplicates(self):
        d = DegreeDistribution.from_samples([0.5, 0.5, 0.25, 0.25])
        assert d.positions.tolist() == [0.25, 0.5]
        assert d.weights.tolist() == [0.5, 0.5]

    def test_degree_distribution_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DegreeDistribution(np.array([0.5]), np.array([0.7]))

    def test_moment_sequence_unit_range(self):
        with pytest.raises(ValidationError):
            from tourlim import MomentSequence

            MomentSequence([1.0, 1.2])


def _constructor_error(x) -> str | None:
    try:
        GeneralizedTournament(x)
    except ValidationError as exc:
        return str(exc)
    return None


def _random_bool_tournament(n: int, seed: int) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return upper | np.tril(~upper.T, -1)


class TestBoolInput:
    """Square non-empty bool input is validated as bools and converted once;
    verdicts, messages and results must be those of its float64 copy."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
    def test_verdicts_and_messages_match_float_path(self, n):
        from tourlim.core import _SKEW_TILE

        assert _SKEW_TILE == 256
        b = _random_bool_tournament(n, n)
        # with tiles of 256: a diagonal tile, an off-diagonal one and the
        # last, partial one (they coincide below 257)
        pairs = [(i, j) for i, j in ((0, 1), (n // 2, n // 2 + 1), (2, n - 1), (n - 1, n - 2))
                 if i != j and 0 <= min(i, j) and max(i, j) < n]
        cases = []
        for i, j in pairs:
            for both in (True, False):
                bad = b.copy()
                bad[i, j] = bad[j, i] = both
                cases.append(bad)
        for at in {0, n // 2, n - 1}:
            bad = b.copy()
            bad[at, at] = True
            cases.append(bad)
            # a diagonal error is reported before a skew error
            if pairs:
                bad = bad.copy()
                i, j = pairs[-1]
                bad[i, j] = bad[j, i] = True
                cases.append(bad)
        for bad in cases:
            message = _constructor_error(bad)
            assert message is not None
            assert message == _constructor_error(bad.astype(float))
        assert _constructor_error(b) is None

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
    def test_result_equals_float_path_frozen_and_owned(self, n):
        b = _random_bool_tournament(n, n + 1)
        for x in (b, b.T, b[::-1, ::-1]):
            g = GeneralizedTournament(x)
            want = GeneralizedTournament(x.astype(float)).alpha
            assert g.alpha.dtype == np.float64 and g.alpha.tobytes() == want.tobytes()
            assert not g.alpha.flags.writeable
            assert not np.shares_memory(g.alpha, x)
            assert g.is_tournament

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (0, 0), (0, 3), (3,), (0,), (2, 2, 2)])
    def test_shape_errors_match_float_path(self, shape):
        b = np.zeros(shape, bool)
        message = _constructor_error(b)
        assert message is not None and message == _constructor_error(b.astype(float))

    def test_kernels_take_the_float_path(self):
        # a bool matrix has no 1/2 on its diagonal
        b = np.zeros((3, 3), bool)
        for x in (b, b.astype(float)):
            with pytest.raises(ValidationError, match="0.5 on the diagonal"):
                StepKernel(x)

    def test_alpha_is_built_once_frozen_and_equal_to_the_input(self):
        from concurrent.futures import ThreadPoolExecutor

        b = _random_bool_tournament(300, 4)
        g = GeneralizedTournament(b)
        assert g.n == 300 and g.is_tournament and "_alpha" not in vars(g)
        # the bools are the constructor's frozen copy, not the caller's array
        kept = g._entries
        assert kept.dtype == bool and not kept.flags.writeable
        assert not np.shares_memory(kept, b) and b.flags.writeable
        alpha = g.alpha
        assert alpha.dtype == np.float64 and not alpha.flags.writeable
        assert np.array_equal(alpha, b) and g.alpha is alpha
        # threads that build it at once get equal arrays, one of them kept
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = GeneralizedTournament(b)
                with ThreadPoolExecutor(8) as pool:
                    built = [f.result(timeout=10) for f in [pool.submit(lambda: g.alpha)
                                                             for _ in range(8)]]
                assert all(np.array_equal(a, b) and not a.flags.writeable for a in built)
                assert any(g.alpha is a for a in built)
        finally:
            sys.setswitchinterval(interval)

    def test_tournaments_are_immutable(self):
        g = GeneralizedTournament(_random_bool_tournament(4, 1))
        for name in ("alpha", "n", "is_tournament", "_bools", "anything"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g.n == 4 and g.is_tournament

    def test_generalised_and_float_0_1_inputs_are_unchanged(self):
        assert not HALF2.is_tournament
        assert GeneralizedTournament(T3.alpha.copy()).is_tournament
        assert GeneralizedTournament(T3.alpha.tolist()).is_tournament


def held_as_its_values(g: GeneralizedTournament) -> bool:
    """Whether g holds one frozen array, bools exactly when every entry is
    0 or 1 and float64 otherwise, and reads ``is_tournament`` off it; a
    tournament's alpha holds +0.0 only."""
    held, alpha = g._entries, g.alpha
    zero_one = bool(((alpha == 0.0) | (alpha == 1.0)).all())
    return (held.dtype == (bool if zero_one else np.float64) and not held.flags.writeable
            and g.is_tournament == zero_one and not (zero_one and np.signbit(alpha).any()))


class TestHeldArray:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_spelling_of_every_tournament(self, n):
        # bools, float arrays and lists, json's -0 (the int 0) and -0.0
        for _, a in oracles.all_tournaments(n):
            signed = np.where(a == 1.0, 1.0, -0.0)
            for x in (a > 0.5, a, a.tolist(), a.astype(int).tolist(), signed, signed.tolist()):
                g = GeneralizedTournament(x)
                assert held_as_its_values(g) and g.is_tournament
                assert np.array_equal(g.alpha, a)
            if n > 1:
                a[0, 1] = a[1, 0] = 0.5
                g = GeneralizedTournament(a)
                assert held_as_its_values(g) and not g.is_tournament

    def test_rounding_level_entries(self):
        # clipped to 0/1 they are a tournament; strictly inside, they are not
        for x, zero_one in (([[0.0, 1.0 + TOL / 2], [-TOL / 2, 0.0]], True),
                            ([[0.0, 1.0 - TOL / 2], [TOL / 2, 0.0]], False),
                            ([[0.0, 1.0], [TOL / 2, 0.0]], False)):
            g = GeneralizedTournament(x)
            assert held_as_its_values(g) and g.is_tournament == zero_one

    def test_handed_arrays(self):
        # a fractional pair in the first or only in the last 256 x 256 tile
        n = 300
        a = _random_bool_tournament(n, 5)
        first, last = a.astype(float), a.astype(float)
        first[0, 1] = first[1, 0] = 0.5
        last[n - 2, n - 1], last[n - 1, n - 2] = 0.25, 0.75
        for x, zero_one in ((a.copy(), True), (a.astype(float), True),
                            (first, False), (last, False)):
            g = GeneralizedTournament._handed(x)
            assert held_as_its_values(g) and g.is_tournament == zero_one

    def test_realizers(self):
        from tourlim import realize_scores, symmetrize_self_converse

        for values in ([0, 1, 2, 3], [1, 1, 1], [2, 2, 2, 2, 2], [1, 1, 2, 2], [0, 2, 2, 2]):
            for kind in ("integer", "real"):
                g = realize_scores(ScoreSequence(values, kind))
                assert held_as_its_values(g)
                assert g.is_tournament or kind == "real"
        kinds = set()
        for values in ([0, 1, 2], [1, 1, 1], [1, 1, 2, 2], [2] * 5):
            g = symmetrize_self_converse(realize_scores(ScoreSequence(values, "integer")))
            assert held_as_its_values(g)
            kinds.add(g.is_tournament)
        assert kinds == {True, False}

    def test_converse(self):
        g = GeneralizedTournament(_random_bool_tournament(9, 2))
        c = converse(g)
        # bools stay bools: no float64 alpha is built on either side
        assert "_alpha" not in vars(g) and "_alpha" not in vars(c)
        assert held_as_its_values(c) and c.is_tournament
        assert held_as_its_values(converse(HALF2)) and not converse(HALF2).is_tournament

    def test_samplers(self):
        from tourlim import SampleConfig, sample_self_converse, sample_tournament

        w = StepKernel(np.full((2, 2), 0.5))
        for g in (sample_tournament(w, SampleConfig(30, seed=1)),
                  sample_self_converse(w, np.arange(2)[::-1], SampleConfig(15, seed=1))):
            assert held_as_its_values(g) and g.is_tournament


class TestConversions:
    def test_step_kernel_of_transitive_t3(self):
        w = step_kernel_from_tournament(T3)
        assert w.blocks.tolist() == [[0.5, 1, 1], [0, 0.5, 1], [0, 0, 0.5]]

    def test_step_kernel_of_3cycle(self):
        w = step_kernel_from_tournament(CYCLE3)
        assert w.blocks.tolist() == [[0.5, 1, 0], [0, 0.5, 1], [1, 0, 0.5]]

    def test_step_kernel_of_constant_half(self):
        w = step_kernel_from_tournament(HALF2)
        assert w.blocks.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("real", [False, True])
    def test_step_kernel_from_tournament_peak_is_below_1_2_kernels(self, real):
        # the float64 matrix it makes is handed to the kernel, not copied
        # again: the traced peak was 2.08 kernels at n = 1000
        b = _random_bool_tournament(1000, 3)
        alpha = np.where(b, 0.75, 0.25) if real else b
        np.fill_diagonal(alpha, 0)
        g = GeneralizedTournament(alpha)
        tracemalloc.start()
        try:
            w = step_kernel_from_tournament(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * w.blocks.nbytes
        want = alpha.astype(float)
        np.fill_diagonal(want, 0.5)
        assert np.array_equal(w.blocks, want) and not w.blocks.flags.writeable

    def test_scores_transitive(self):
        s = scores_of_tournament(T3)
        assert s.kind == "integer"
        assert s.values.tolist() == [2, 1, 0]

    def test_scores_3cycle(self):
        assert scores_of_tournament(CYCLE3).values.tolist() == [1, 1, 1]

    def test_scores_constant_half_n3(self):
        g = GeneralizedTournament(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        s = scores_of_tournament(g)
        assert s.kind == "real"
        assert np.allclose(s.values, [1, 1, 1])

    def test_score_function_of_transitive_t3(self):
        w = step_kernel_from_tournament(T3)
        assert np.allclose(score_function_of_kernel(w).cells, [5 / 6, 3 / 6, 1 / 6])

    def test_score_function_of_single_block(self):
        assert score_function_of_kernel(StepKernel([[0.5]])).cells.tolist() == [0.5]

    @given(generalized_tournaments(max_n=8))
    def test_scores_sum_to_pair_count(self, g):
        s = scores_of_tournament(g)
        total = math.fsum(float(v) for v in s.values)
        assert abs(total - g.n * (g.n - 1) / 2) < 1e-9

    @given(tournament=generalized_tournaments(max_n=8))
    def test_score_cells_are_shifted_scores(self, tournament):
        w = step_kernel_from_tournament(tournament)
        cells = score_function_of_kernel(w).cells
        d = np.asarray(scores_of_tournament(tournament).values, dtype=float)
        assert np.max(np.abs(cells - (d + 0.5) / tournament.n)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 500, 900])
    def test_scores_of_bools_are_the_int64_row_sums(self, n):
        b = _random_bool_tournament(n, n)
        g = GeneralizedTournament(b)
        s = scores_of_tournament(g)
        assert s.kind == "integer" and s.values.dtype == np.int64
        assert np.array_equal(s.values, g.alpha.sum(axis=1))

    def test_row_counts_widen_past_2_16_cells(self):
        # all-True rows of 70,000 cells count past the uint16 range
        from tourlim.core import _row_counts

        for a in (np.ones((2, 70_000), bool), np.random.default_rng(1).random((2, 70_000)) < 0.5,
                  _random_bool_tournament(300, 2)):
            tracemalloc.start()
            try:
                got = _row_counts(a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # no n x n (or 2 x n int64) copy of the bools
            assert peak < a.size, peak
            assert np.array_equal(got, a.sum(axis=1))
            assert got.dtype == (np.int64 if a.shape[1] >= 2**16 else np.uint16)
        assert _row_counts(np.ones((2, 70_000), bool)).tolist() == [70_000, 70_000]


class TestConverse:
    def test_converse_transitive_reverses_order(self):
        w = step_kernel_from_tournament(T3)
        assert converse(w).blocks.tolist() == [[0.5, 0, 0], [1, 0.5, 0], [1, 1, 0.5]]

    def test_constant_half_is_fixed_point(self):
        w = StepKernel(np.full((2, 2), 0.5))
        assert np.array_equal(converse(w).blocks, w.blocks)

    def test_converse_of_3cycle_is_reversed_cycle(self):
        rev = converse(CYCLE3)
        assert np.array_equal(rev.alpha, CYCLE3.alpha.T)
        assert scores_of_tournament(rev).values.tolist() == [1, 1, 1]

    def test_converse_rejects_other_types(self):
        with pytest.raises(TypeError):
            converse(ScoreFunction([0.5]))

    @given(step_kernels())
    def test_converse_is_exact_involution(self, w):
        assert np.array_equal(converse(converse(w)).blocks, w.blocks)

    @given(step_kernels())
    def test_converse_complements_score_function(self, w):
        f = score_function_of_kernel(w).cells
        fc = score_function_of_kernel(converse(w)).cells
        assert np.max(np.abs(fc - (1.0 - f))) < 1e-12


class TestRearrangements:
    def test_decreasing_sorts(self):
        f = ScoreFunction([0.2, 0.9, 0.4])
        assert decreasing_rearrangement(f).cells.tolist() == [0.9, 0.4, 0.2]

    def test_constant_is_fixed(self):
        f = ScoreFunction([0.5, 0.5])
        assert decreasing_rearrangement(f).cells.tolist() == [0.5, 0.5]

    def test_idempotent(self):
        f = ScoreFunction([0.9, 0.4, 0.2])
        assert decreasing_rearrangement(f).cells.tolist() == f.cells.tolist()

    def test_increasing_is_reversed_decreasing(self):
        f = ScoreFunction([0.3, 0.8, 0.1, 0.8])
        dec = decreasing_rearrangement(f).cells
        inc = increasing_rearrangement(f).cells
        assert np.array_equal(inc, dec[::-1])

    def test_permutation_is_stable_on_ties(self):
        f = ScoreFunction([0.5, 0.9, 0.5])
        perm = rearrangement_permutation(f, decreasing=True)
        assert perm.tolist() == [1, 0, 2]

    @given(score_functions())
    def test_rearrangement_preserves_multiset(self, f):
        dec = decreasing_rearrangement(f)
        assert sorted(dec.cells.tolist()) == sorted(f.cells.tolist())

    @given(score_functions())
    def test_permutation_realizes_rearrangement(self, f):
        perm = rearrangement_permutation(f, decreasing=True)
        assert np.array_equal(f.cells[perm], decreasing_rearrangement(f).cells)

    @given(cell_pairs())
    def test_hardy_littlewood_triple(self, pair):
        f, h = pair
        same = float(np.dot(np.sort(f)[::-1], np.sort(h)[::-1]))
        plain = float(np.dot(f, h))
        opposite = float(np.dot(np.sort(f)[::-1], np.sort(h)))
        assert same >= plain - 1e-12
        assert plain >= opposite - 1e-12


class TestDegreeDistribution:
    def test_constant_half_kernel_single_atom(self):
        d = degree_distribution(StepKernel(np.full((3, 3), 0.5)))
        assert d.positions.tolist() == [0.5]
        assert d.weights.tolist() == [1.0]

    def test_transitive_t3_atoms(self):
        d = degree_distribution(step_kernel_from_tournament(T3))
        assert np.allclose(d.positions, [1 / 6, 3 / 6, 5 / 6])
        assert np.allclose(d.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_single_block(self):
        d = degree_distribution(StepKernel([[0.5]]))
        assert d.positions.tolist() == [0.5]

    @given(step_kernels(min_n=1, max_n=8))
    # cells 1/2 - 2^-54, 1/2 and 1/2 + 2^-53
    @example(StepKernel([[0.5, 0.0, 1.0], [1.0, 0.5, 2.0**-52], [0.0, 1 - 2.0**-52, 0.5]]))
    def test_marginals_mirror(self, w):
        out = degree_distribution(w, "out")
        inn = degree_distribution(w, "in")
        # 1 - x can round two cells onto one double (1/2 - 2^-54 and 1/2
        # onto 1/2), which the in marginal holds as one atom: mirror the out
        # atoms the same way
        mirror = DegreeDistribution(1.0 - out.positions, out.weights)
        assert np.max(np.abs(mirror.positions - inn.positions)) < 1e-12
        assert np.max(np.abs(mirror.weights - inn.weights)) < 1e-12


class TestWasserstein:
    def test_identical_distributions(self):
        d = DegreeDistribution.from_samples([0.1, 0.4, 0.4])
        assert wasserstein1(d, d) == 0.0

    def test_extreme_atoms(self):
        a = DegreeDistribution.from_atoms([(0.0, 1.0)])
        b = DegreeDistribution.from_atoms([(1.0, 1.0)])
        assert wasserstein1(a, b) == 1.0

    def test_three_atoms_vs_fine_uniform(self):
        mu = DegreeDistribution.from_atoms([(1 / 6, 1 / 3), (3 / 6, 1 / 3), (5 / 6, 1 / 3)])
        m = 100
        nu = DegreeDistribution.from_samples((2 * np.arange(m) + 1) / (2 * m))
        w1 = wasserstein1(mu, nu)
        assert w1 <= 1 / 6 + 1 / (2 * m)
        assert abs(w1 - oracles.riemann_w1(mu, nu)) < 1e-4

    @given(st.data())
    def test_matches_quantile_oracle_and_symmetry(self, data):
        xs = data.draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
        ys = data.draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
        mu = DegreeDistribution.from_samples(xs)
        nu = DegreeDistribution.from_samples(ys)
        w1 = wasserstein1(mu, nu)
        assert abs(w1 - wasserstein1(nu, mu)) < 1e-15
        assert abs(w1 - oracles.riemann_w1(mu, nu, steps=50_000)) < 1e-3


class TestJsonRoundTrip:
    def test_kernel(self):
        w = step_kernel_from_tournament(T3)
        again = StepKernel.from_json_dict(w.to_json_dict())
        assert np.array_equal(again.blocks, w.blocks)

    def test_tournament_and_sequence(self):
        g2 = GeneralizedTournament.from_json_dict(T3.to_json_dict())
        assert np.array_equal(g2.alpha, T3.alpha)
        s = ScoreSequence([1.5, 1.5, 1.5, 1.5], "real")
        s2 = ScoreSequence.from_json_dict(s.to_json_dict())
        assert np.array_equal(s2.values, s.values) and s2.kind == s.kind

    def test_degree_distribution_csv(self):
        d = DegreeDistribution.from_samples([0.0, 0.25, 0.5, 0.75])
        again = DegreeDistribution.from_csv(d.to_csv())
        assert np.array_equal(again.positions, d.positions)
        assert np.array_equal(again.weights, d.weights)
