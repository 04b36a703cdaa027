import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import generalized_tournaments, tournaments
from tourlim import (
    GeneralizedTournament,
    ScoreFunction,
    ScoreSequence,
    ValidationError,
    check_eplett,
    check_landau,
    discretize_score_function,
    kernel_from_score_function,
    realize_scores,
    realize_self_converse,
    score_function_of_kernel,
    scores_of_tournament,
    step_kernel_from_tournament,
    symmetrize_self_converse,
)
from tourlim.realize import _MIRROR_ROWS as _B
from tourlim.realize import _cell_sums, _peel


def iseq(*vals):
    return ScoreSequence(np.array(vals), "integer")


def identity_cells(m):
    return ScoreFunction((2 * np.arange(m) + 1) / (2 * m))


def random_generalized(rng, n, values=None):
    """A generalised tournament with upper entries drawn from ``values``
    (uniform on [0, 1] when None)."""
    upper = rng.random((n, n)) if values is None else rng.choice(values, (n, n))
    alpha = np.triu(upper, 1)
    alpha[np.tril_indices(n, -1)] = 1.0 - alpha.T[np.tril_indices(n, -1)]
    return alpha


def exact_row_sums(alpha):
    return np.array([math.fsum(row) for row in alpha])


PEEL_ENTRIES = {
    "integer": [0.0, 1.0],
    "dyadic": [0.0, 0.25, 0.5, 0.75, 1.0],
    "thirds": [0.0, 1 / 3, 2 / 3, 1.0],
    "tenths": [0.1, 0.3, 0.7],  # no 0 or 1: rounding in nearly every sum
    "uniform": None,
    "regular": [0.5],  # every residual tied at every step
    "halves": [0.5, 0.5, 0.5, 0.0, 1.0],
    "within-tol": None,
}


@st.composite
def peel_inputs(draw, max_n=60):
    """(kind, scores): row sums of a random generalised tournament whose
    upper entries are drawn from PEEL_ENTRIES[kind], sorted, reversed or
    permuted.  "within-tol" scores are real ones with the largest moved by
    at most 5e-10, so their total misses n(n-1)/2 within the default tol."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(sorted(PEEL_ENTRIES)))
    order = draw(st.sampled_from(["sorted", "reversed", "permuted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = exact_row_sums(random_generalized(rng, n, PEEL_ENTRIES[kind]))
    if kind == "within-tol":
        d[np.argmax(d)] += rng.uniform(1e-10, 5e-10)
    d = np.sort(d) if order != "permuted" else rng.permutation(d)
    return kind, d[::-1].copy() if order == "reversed" else d


def eplett_valid_multisets(n):
    out = []
    for tup in oracles.candidate_multisets(n):
        if check_eplett(ScoreSequence(np.array(tup), "integer")).valid:
            out.append(tup)
    return out


class TestFlowNetwork:
    def test_structure(self):
        net = oracles.build_flow_network(iseq(0, 1, 2))
        pair_nodes = [i for i, lab in enumerate(net.labels)
                      if isinstance(lab, tuple) and lab[0] == "pair"]
        assert len(pair_nodes) == 3
        for p in pair_nodes:
            outgoing = [a for a in net.arcs if a.src == p]
            assert len(outgoing) == 2
            assert all(a.capacity == 1 for a in outgoing)
        sink_arcs = [a for a in net.arcs if a.dst == net.sink]
        assert sorted(a.capacity for a in sink_arcs) == [0, 1, 2]

    def test_arc_capacities_non_negative(self):
        net = oracles.build_flow_network(iseq(1, 1, 1))
        assert all(a.capacity >= 0 for a in net.arcs)


class TestRealizeScores:
    def test_transitive_is_forced(self):
        g = realize_scores(iseq(0, 1, 2))
        assert g.is_tournament
        assert scores_of_tournament(g).values.tolist() == [0, 1, 2]

    def test_cyclic_triple(self):
        g = realize_scores(iseq(1, 1, 1))
        assert g.is_tournament
        assert scores_of_tournament(g).values.tolist() == [1, 1, 1]

    def test_real_uniform_quadruple(self):
        s = ScoreSequence([1.5, 1.5, 1.5, 1.5], "real")
        g = realize_scores(s)
        got = scores_of_tournament(g)
        assert got.kind in ("integer", "real")
        assert np.max(np.abs(np.asarray(got.values, float) - 1.5)) < 1e-9

    def test_invalid_sequence_raises_with_report(self):
        with pytest.raises(ValidationError) as err:
            realize_scores(iseq(0, 0, 3))
        assert err.value.report.witness["k"] == 2

    def test_single_vertex(self):
        g = realize_scores(iseq(0))
        assert g.alpha.tolist() == [[0.0]]

    @given(tournaments(max_n=9))
    @settings(max_examples=50)
    def test_round_trip_integer(self, g):
        s = scores_of_tournament(g)
        again = realize_scores(s)
        assert again.is_tournament
        assert scores_of_tournament(again).values.tolist() == s.values.tolist()

    @given(generalized_tournaments(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_real(self, g):
        s = ScoreSequence(np.asarray(scores_of_tournament(g).values, float), "real")
        again = realize_scores(s)
        got = np.asarray(scores_of_tournament(again).values, float)
        assert np.max(np.abs(got - np.asarray(s.values))) < 1e-9

    def test_flow_feasibility_iff_landau_exhaustive(self):
        # the peel, run without the Landau gate, reproduces exactly the
        # inputs that pass check_landau and that the flow oracle realizes,
        # whatever order the scores come in
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            for tup in oracles.candidate_multisets(n):
                for d in (np.array(tup), np.array(tup[::-1]), rng.permutation(tup)):
                    s = ScoreSequence(d, "integer")
                    valid = check_landau(s).valid
                    assert (oracles.flow_realize(s) is not None) == valid, tup
                    alpha = _peel(d.astype(float), True)
                    assert np.array_equal(alpha.sum(axis=1), d) == valid, tup
                    if valid:
                        g = realize_scores(s)
                        assert g.is_tournament
                        assert scores_of_tournament(g).values.tolist() == d.tolist()
                    else:
                        with pytest.raises(ValidationError):
                            realize_scores(s)

    def test_real_inputs_against_flow_oracle(self):
        rng = np.random.default_rng(80)
        for n in (2, 3, 5, 13, 40, 80):
            for values in (None, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]):
                d = exact_row_sums(random_generalized(rng, n, values))[rng.permutation(n)]
                s = ScoreSequence(d, "real")
                assert oracles.flow_realize(s) is not None
                alpha = realize_scores(s).alpha
                assert np.max(np.abs(exact_row_sums(alpha) - d)) <= 1e-9

    @pytest.mark.parametrize("values", [[0.5, 1.0, 1.5 + 5e-10], [0.0, 1.0 - 4e-10, 2.0]])
    def test_inputs_valid_only_within_tolerance(self, values):
        s = ScoreSequence(values, "real")
        assert check_landau(s).valid
        alpha = realize_scores(s).alpha
        assert alpha.min() >= 0.0 and alpha.max() <= 1.0
        assert np.max(np.abs(exact_row_sums(alpha) - values)) <= 1e-9

    @given(peel_inputs())
    # an input on which evaluating filled in another order moves one entry
    @example(("tenths", np.array([
        9.2, 8.2, 11.799999999999999, 9.0, 9.0, 8.799999999999999, 10.0, 9.8, 10.6, 12.2,
        12.799999999999999, 11.2, 12.2, 10.2, 12.4, 14.6, 14.4, 13.4, 12.4, 14.2, 14.4,
        14.4, 14.8, 16.4, 13.6])))
    @settings(max_examples=300, deadline=None)
    def test_peel_is_the_reference_bit_for_bit(self, case):
        kind, d = case
        if kind == "within-tol":
            s = ScoreSequence(d, "real")
            assert check_landau(s).valid and not check_landau(s, 0.0).valid
        integer = kind == "integer"
        assert _peel(d, integer).tobytes() == oracles.reference_peel(d, integer).tobytes()

    @pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 1, 3 * _B + 8])
    def test_peel_is_the_reference_across_mirror_blocks(self, n):
        rng = np.random.default_rng(n)
        for kind in ("integer", "thirds", "uniform"):
            d = exact_row_sums(random_generalized(rng, n, PEEL_ENTRIES[kind]))[rng.permutation(n)]
            integer = kind == "integer"
            assert _peel(d, integer).tobytes() == oracles.reference_peel(d, integer).tobytes()

    def test_scale_n2000(self):
        rng = np.random.default_rng(2000)
        n = 2000
        ints = exact_row_sums(random_generalized(rng, n, [0.0, 1.0])).astype(np.int64)
        reals = exact_row_sums(random_generalized(rng, n))
        start = time.monotonic()
        g = realize_scores(ScoreSequence(ints, "integer"))
        assert g.is_tournament
        assert np.array_equal(g.alpha.sum(axis=1), ints)
        alpha = realize_scores(ScoreSequence(reals, "real")).alpha
        assert np.max(np.abs(exact_row_sums(alpha) - reals)) <= 1e-9
        assert time.monotonic() - start < 5.0

    def test_dyadic_real_scores_realized_exactly(self):
        s = ScoreSequence([0.5, 1.0, 1.5], "real")
        g = realize_scores(s)
        got = np.asarray(scores_of_tournament(g).values, float)
        assert np.array_equal(got, [0.5, 1.0, 1.5])


class TestDiscretize:
    def test_identity_n2(self):
        d = discretize_score_function(identity_cells(2), 2)
        assert d.values.tolist() == [0.0, 1.0]

    def test_identity_n3(self):
        d = discretize_score_function(identity_cells(3), 3)
        assert d.values.tolist() == [0.0, 1.0, 2.0]

    def test_constant_half_n3(self):
        d = discretize_score_function(ScoreFunction([0.5, 0.5, 0.5]), 3)
        assert d.values.tolist() == [1.0, 1.0, 1.0]

    def test_non_divisible_grid_resamples(self):
        d = discretize_score_function(identity_cells(6), 4)
        assert check_landau(d).valid
        assert abs(float(np.sum(d.values)) - 6.0) < 1e-9

    def test_output_is_landau_valid(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 10:
            m = int(rng.integers(1, 15))
            cells = rng.random(m)
            cells = np.clip(cells - cells.mean() + 0.5, 0, 1)
            f = ScoreFunction(cells)
            from tourlim import check_condition_I

            if not check_condition_I(f).valid:
                continue
            found += 1
            for n in (1, 2, 3, 5):
                assert check_landau(discretize_score_function(f, n)).valid

    def test_condition_violation_raises(self):
        with pytest.raises(ValidationError):
            discretize_score_function(ScoreFunction([0.1, 0.1]), 2)


class TestCellSums:
    """The exact O(m + n) cell sums against math.fsum on the lcm grid."""

    @pytest.mark.parametrize("dyadic", [True, False])
    def test_matches_lcm_grid_fsum(self, dyadic):
        rng = np.random.default_rng(29 + dyadic)
        for _ in range(300):
            m, n = (int(x) for x in rng.integers(1, 61, 2))
            cells = rng.integers(0, 65, m) / 64 if dyadic else rng.random(m)
            # non-dyadic cells of very different exponents, too
            if not dyadic and rng.random() < 0.3:
                cells = cells * 10.0 ** rng.integers(-300, 1, m)
            got = _cell_sums(ScoreFunction(cells), n)
            assert np.array_equal(got, oracles.lcm_grid_cell_sums(cells, n)), (m, n)

    @pytest.mark.parametrize("m,n", [(7, 5), (12, 35), (64, 63), (97, 89), (60, 60), (6, 4)])
    def test_coprime_and_shared_factors(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        for cells in (rng.random(m), rng.integers(0, 17, m) / 16, np.full(m, 1 / 3)):
            got = _cell_sums(ScoreFunction(cells), n)
            assert np.array_equal(got, oracles.lcm_grid_cell_sums(cells, n))

    def test_discretize_4096_to_4095_is_fast_and_small(self):
        # non-dyadic, condition-I valid (a mixture of the identity and 1/2);
        # the lcm grid would have 4096 * 4095 cells, 128 MiB of float64
        f = ScoreFunction(0.9 * identity_cells(4096).cells + 0.05)
        start = time.perf_counter()
        d = discretize_score_function(f, 4095)
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            discretize_score_function(f, 4095)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert check_landau(d).valid and d.n == 4095


class TestKernelFromScoreFunction:
    def test_identity_n3_score_cells(self):
        w = kernel_from_score_function(identity_cells(3), 3)
        cells = score_function_of_kernel(w).cells
        assert np.max(np.abs(cells - np.array([1 / 6, 3 / 6, 5 / 6]))) < 1e-9

    def test_constant_half_n1(self):
        w = kernel_from_score_function(ScoreFunction([0.5]), 1)
        assert w.blocks.tolist() == [[0.5]]

    def test_constant_half_n3(self):
        w = kernel_from_score_function(ScoreFunction([0.5, 0.5, 0.5]), 3)
        cells = score_function_of_kernel(w).cells
        assert np.max(np.abs(cells - 0.5)) < 1e-9

    def test_matches_cell_averaged_target(self):
        f = ScoreFunction(np.clip((2 * np.arange(12) + 1) / 24 + 0.01 * np.sin(np.arange(12)), 0, 1))
        from tourlim import check_condition_I

        if check_condition_I(f).valid:
            w = kernel_from_score_function(f, 4)
            cells = score_function_of_kernel(w).cells
            target = f.cells.reshape(4, 3).mean(axis=1)
            assert np.max(np.abs(cells - target)) < 1e-9

    def test_degree_distribution_close_to_cell_atoms(self):
        # for non-decreasing f realized at n = m the kernel's score cells
        # reproduce f exactly, so the distance vanishes; coarser n stays
        # within one cell width of oscillation
        from tourlim import DegreeDistribution, degree_distribution, wasserstein1

        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(2, 13)) * 2
            cells = np.sort(rng.random(m))
            cells = np.clip(cells - cells.mean() + 0.5, 0, 1)
            f = ScoreFunction(np.sort(cells))
            from tourlim import check_condition_I

            if not check_condition_I(f).valid:
                continue
            atoms = DegreeDistribution.from_samples(f.cells)
            w_full = kernel_from_score_function(f, m)
            assert wasserstein1(degree_distribution(w_full), atoms) <= 1 / m
            assert abs(
                wasserstein1(degree_distribution(w_full), atoms)
                - oracles.riemann_w1(degree_distribution(w_full), atoms, steps=20000)
            ) < 1e-3
            w_half = kernel_from_score_function(f, m // 2)
            assert wasserstein1(degree_distribution(w_half), atoms) <= 2 / m + 1e-12


class TestMatrixBudget:
    """realize_scores and StepKernel.refine refuse, before allocating, an
    n x n result beyond the shared matrix budget."""

    def test_realize_scores_refuses_before_the_peel(self, monkeypatch):
        import tourlim.core
        import tourlim.realize

        def no_peel(*args):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(tourlim.core, "_MAX_MATRIX_BYTES", 8 * 10 * 10)
        assert realize_scores(ScoreSequence(np.full(9, 4), "integer")).n == 9
        monkeypatch.setattr(tourlim.realize, "_peel", no_peel)
        with pytest.raises(ValidationError, match="bytes"):
            realize_scores(ScoreSequence(np.full(11, 5), "integer"))
        with pytest.raises(ValidationError, match="bytes"):
            kernel_from_score_function(ScoreFunction([0.5]), 11)

    def test_refine_refuses_before_kron(self, monkeypatch):
        import tourlim.core
        from tourlim import StepKernel

        monkeypatch.setattr(tourlim.core, "_MAX_MATRIX_BYTES", 8 * 10 * 10)
        w = StepKernel([[0.5, 1.0], [0.0, 0.5]])
        assert w.refine(5).n == 10

        def no_kron(*args):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(tourlim.core.np, "kron", no_kron)
        with pytest.raises(ValidationError, match="bytes"):
            w.refine(6)


class TestSelfConverse:
    def test_symmetrize_cyclic_triple_identity(self):
        g = realize_scores(iseq(1, 1, 1))
        h = symmetrize_self_converse(g)
        n = 3
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert h.alpha[i, j] + h.alpha[n - 1 - i, n - 1 - j] == 1.0

    def test_symmetrize_transitive_is_fixed_point(self):
        t3 = GeneralizedTournament(np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], float))
        h = symmetrize_self_converse(t3)
        # sorted by score the transitive order reverses, matrix is its own fix
        expected = realize_scores(iseq(0, 1, 2)).alpha
        assert np.array_equal(h.alpha, expected)

    def test_symmetrize_rejects_non_eplett(self):
        g = realize_scores(iseq(0, 2, 2, 2))
        with pytest.raises(ValidationError):
            symmetrize_self_converse(g)

    def test_realize_self_converse_examples(self):
        for tup in [(1, 1, 1), (0, 1, 2), (1, 1, 2, 2)]:
            g = realize_self_converse(ScoreSequence(np.array(tup), "integer"))
            got = np.asarray(scores_of_tournament(g).values, float)
            assert np.array_equal(got, np.array(tup, dtype=float))
            n = len(tup)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert g.alpha[i, j] + g.alpha[n - 1 - i, n - 1 - j] == 1.0

    def test_all_eplett_valid_upto_5(self):
        for n in range(1, 6):
            for tup in eplett_valid_multisets(n):
                g = realize_self_converse(ScoreSequence(np.array(tup), "integer"))
                got = np.asarray(scores_of_tournament(g).values, float)
                assert np.array_equal(got, np.array(tup, dtype=float)), tup
                rho = np.arange(n)[::-1]
                relabelled = g.alpha[np.ix_(rho, rho)]
                off = ~np.eye(n, dtype=bool)
                assert np.array_equal((g.alpha + relabelled)[off], np.ones((n, n))[off])

    def test_symmetrize_matches_orbit_loop_n151(self):
        n = 151
        rng = np.random.default_rng(151)
        a = random_generalized(rng, n)
        # self-converse under rho, so the scores satisfy the Eplett pairing
        b = np.triu((a + 1.0 - a[::-1, ::-1]) / 2.0, 1)
        b[np.tril_indices(n, -1)] = 1.0 - b.T[np.tril_indices(n, -1)]
        perm = rng.permutation(n)
        regular = realize_scores(ScoreSequence(np.full(n, n // 2), "integer"))
        for g in (GeneralizedTournament(b[np.ix_(perm, perm)]), regular):
            out = symmetrize_self_converse(g).alpha
            i, j = np.triu_indices(n, 1)
            assert np.array_equal(out[j, i], 1.0 - out[i, j])
            assert np.array_equal(out[::-1, ::-1].T, out)  # out[rho j, rho i] == out[i, j]
            scores = np.asarray(scores_of_tournament(g).values, dtype=float)
            order = np.argsort(scores, kind="stable")
            ref = oracles.symmetrize_by_orbits(g.alpha[np.ix_(order, order)])
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("kind", ["integer", "real"])
    def test_realize_peak_is_below_2_2_results(self, kind):
        # the peel holds one n x n matrix and temporaries of a block of
        # rows, and hands it over uncopied (integer scores as its bools)
        n = 1001
        if kind == "integer":
            d = np.full(n, n // 2)
        else:
            d = exact_row_sums(random_generalized(np.random.default_rng(1001), n))
        s = ScoreSequence(d, kind)
        tracemalloc.start()
        try:
            g = realize_scores(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * g.alpha.nbytes

    def test_symmetrize_peak_is_below_1_3_results(self):
        # the result is the one n x n matrix: it is made in place a block
        # of rows at a time, from blocks of the input, and handed over
        # uncopied
        n = 1001
        g = realize_scores(ScoreSequence(np.full(n, n // 2), "integer"))
        tracemalloc.start()
        try:
            out = symmetrize_self_converse(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * out.alpha.nbytes

    def test_converse_is_rho_relabelling(self):
        from tourlim import converse

        g = realize_self_converse(iseq(1, 1, 2, 2))
        rho = np.arange(4)[::-1]
        assert np.array_equal(converse(g).alpha, g.alpha[np.ix_(rho, rho)])

    def test_strongly_self_converse_kernel_from_symmetrized(self):
        g = realize_self_converse(iseq(1, 1, 2, 2))
        w = step_kernel_from_tournament(g)
        sigma = np.arange(4)[::-1]
        pulled = w.blocks[np.ix_(sigma, sigma)].T
        assert np.array_equal(pulled, w.blocks)
