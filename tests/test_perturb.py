import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import step_kernels
from tourlim import (
    CyclicBox,
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    c3_from_degree,
    c4_polynomial,
    density,
    density_kernel,
    find_cyclic_box,
    fingerprint,
    nonuniqueness_certificate,
    perturb,
    perturb_family,
    score_function_of_kernel,
    step_kernel_from_tournament,
)
from tourlim.perturb import C4_DIFF_THRESHOLD, s_max_for

HALF3 = StepKernel(np.full((3, 3), 0.5))
# the 3-cycle blow-up: same degree distribution (a point mass at 1/2) as HALF3
BLOWUP3 = StepKernel([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [1.0, 0.0, 0.5]])
C4 = DigraphPattern.cycle(4)


def transitive_kernel(n):
    return step_kernel_from_tournament(
        GeneralizedTournament(np.triu(np.ones((n, n)), 1))
    )


def interior_kernel(n, seed=0, lo=0.1, hi=0.9):
    rng = np.random.default_rng(seed)
    m = np.full((n, n), 0.5)
    iu = np.triu_indices(n, 1)
    vals = lo + (hi - lo) * rng.random(len(iu[0]))
    m[iu] = vals
    m[(iu[1], iu[0])] = 1.0 - vals
    return StepKernel(m)


class TestFindCyclicBox:
    def test_constant_half(self):
        box = find_cyclic_box(HALF3)
        assert box.blocks == (0, 1, 2)
        assert box.delta == 0.5

    def test_transitive_has_none(self):
        assert find_cyclic_box(transitive_kernel(4)) is None

    def test_interior_kernel_has_wide_box(self):
        box = find_cyclic_box(interior_kernel(6, seed=5))
        assert box is not None
        assert box.delta >= 0.1
        i, j, k = box.blocks
        w = interior_kernel(6, seed=5)
        for a, b in ((i, j), (j, k), (k, i)):
            assert 1 - w.blocks[a, b] >= box.delta

    def test_margin_is_maximal_scan(self):
        w = interior_kernel(5, seed=9)
        box = find_cyclic_box(w)
        g = 1 - w.blocks
        best = 0.0
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    if len({i, j, k}) == 3:
                        best = max(best, min(g[i, j], g[j, k], g[k, i]))
        assert box.delta == pytest.approx(best, abs=1e-15)

    @given(step_kernels(min_n=3, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_first_best_triple_of_brute_scan(self, w):
        g = 1 - w.blocks
        best, blocks = 0.0, None
        for i in range(w.n):
            for j in range(w.n):
                for k in range(w.n):
                    room = min(g[i, j], g[j, k], g[k, i])
                    if len({i, j, k}) == 3 and room > best:
                        best, blocks = room, (i, j, k)
        box = find_cyclic_box(w)
        if blocks is None:
            assert box is None
        else:
            assert (box.blocks, box.delta) == (blocks, best)

    def test_two_sided_room_reverses_a_01_triangle(self):
        box = find_cyclic_box(BLOWUP3)
        assert box.blocks == (0, 2, 1)
        assert box.delta == 1.0

    def test_small_kernel_errors(self):
        with pytest.raises(ValidationError):
            find_cyclic_box(StepKernel(np.full((2, 2), 0.5)))

    def test_box_invariants(self):
        with pytest.raises(ValidationError):
            CyclicBox((0, 0, 1), 0.2)
        with pytest.raises(ValidationError):
            CyclicBox((0, 1, 2), 0.0)
        with pytest.raises(ValidationError):
            CyclicBox((0, 1, 2), 1.5)


class TestPerturbFamily:
    def test_constant_half_at_full_strength(self):
        box = find_cyclic_box(HALF3)
        w1 = perturb_family(HALF3, box, 1.0)
        expect = np.array([
            [1 / 2, 5 / 6, 1 / 6],
            [1 / 6, 1 / 2, 5 / 6],
            [5 / 6, 1 / 6, 1 / 2],
        ])
        assert np.max(np.abs(w1.blocks - expect)) < 1e-15
        cells = score_function_of_kernel(w1).cells
        assert np.array_equal(cells, np.full(3, 0.5))

    def test_zero_strength_is_identity(self):
        box = find_cyclic_box(HALF3)
        w0 = perturb_family(HALF3, box, 0.0)
        assert np.array_equal(w0.blocks, HALF3.blocks)

    def test_out_of_range_strength(self):
        box = find_cyclic_box(HALF3)
        with pytest.raises(ValidationError):
            perturb_family(HALF3, box, 1.5)
        with pytest.raises(ValidationError):
            perturb_family(HALF3, box, -0.1)

    def test_mismatched_box_rejected(self):
        box = CyclicBox((0, 1, 2), 0.45)
        with pytest.raises(ValidationError):
            perturb_family(transitive_kernel(3), box, 0.1)

    @given(step_kernels(min_n=3, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_output_valid_and_scores_preserved(self, w):
        box = find_cyclic_box(w)
        if box is None:
            return
        smax = s_max_for(w, box)
        for s in (smax / 3, smax):
            ws = perturb_family(w, box, s)
            assert np.max(np.abs(ws.blocks + ws.blocks.T - 1.0)) <= 1e-12
            f0 = score_function_of_kernel(w).cells
            f1 = score_function_of_kernel(ws).cells
            assert np.max(np.abs(f1 - f0)) <= 1e-15


class TestC4Polynomial:
    def test_constant_half_quartic(self):
        box = find_cyclic_box(HALF3)
        coeffs = c4_polynomial(HALF3, box)
        expect = np.array([1 / 16, 0, 0, 0, 2 / 729])
        assert np.max(np.abs(coeffs - expect)) < 1e-10

    def test_s0_evaluation(self):
        box = find_cyclic_box(HALF3)
        coeffs = c4_polynomial(HALF3, box)
        assert coeffs[0] == pytest.approx(1 / 16, abs=1e-12)

    @given(step_kernels(min_n=3, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_constant_term_matches_base_density(self, w):
        box = find_cyclic_box(w)
        if box is None:
            return
        coeffs = c4_polynomial(w, box)
        assert coeffs[0] == pytest.approx(density_kernel(C4, w), abs=1e-10)
        assert coeffs[4] >= -1e-10

    @staticmethod
    def assert_matches_brute_oracle(w, box):
        coeffs = c4_polynomial(w, box)
        for s in np.linspace(0.0, s_max_for(w, box), 5):
            got = np.polynomial.polynomial.polyval(s, coeffs)
            want = oracles.brute_density_kernel(C4, perturb_family(w, box, s).blocks)
            assert abs(got - want) <= 1e-14

    @given(step_kernels(min_n=3, max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_brute_oracle(self, w):
        box = find_cyclic_box(w)
        if box is not None:
            self.assert_matches_brute_oracle(w, box)

    def test_tiny_entry_matches_brute_oracle(self):
        # a 1e-160 entry made the old five-point Vandermonde fit singular
        m = np.full((3, 3), 0.5)
        m[1, 2], m[2, 1] = 1e-160, 1.0 - 1e-160
        w = StepKernel(m)
        self.assert_matches_brute_oracle(w, find_cyclic_box(w))
        self.assert_matches_brute_oracle(w, CyclicBox((0, 1, 2), 0.5))

    def test_predicts_grid_differences_for_half(self):
        box = find_cyclic_box(HALF3)
        for step in range(1, 18):
            s = step / 17
            ws = perturb_family(HALF3, box, s)
            predicted = 2 * s**4 / 729
            got = density_kernel(C4, ws) - 1 / 16
            assert abs(got - predicted) < 1e-12

    def test_constant_term_on_100_seeded_kernels(self):
        from tourlim import random_step_kernel

        checked = 0
        rep = 0
        while checked < 100:
            w = random_step_kernel(3 + (rep % 6), seed=314, rep=rep)
            rep += 1
            box = find_cyclic_box(w)
            if box is None:
                continue
            coeffs = c4_polynomial(w, box)
            assert abs(coeffs[0] - density_kernel(C4, w)) <= 1e-10
            checked += 1

    def test_anchor_check_survives_optimize(self, monkeypatch):
        # an explicit error, not an assert that python -O strips
        box = find_cyclic_box(HALF3)
        monkeypatch.setattr(perturb, "density_kernel", lambda f, w: 0.5)
        with pytest.raises(RuntimeError, match="anchor"):
            c4_polynomial(HALF3, box)

    def test_leading_coefficient_check_survives_optimize(self, monkeypatch):
        box = find_cyclic_box(HALF3)
        # every trace of a product with P, a_4 = tr(P^4) / n^4 included, reads -1
        monkeypatch.setattr(np, "trace", lambda a: -1.0)
        with pytest.raises(RuntimeError, match="leading coefficient"):
            c4_polynomial(HALF3, box)


class TestCertificate:
    def test_constant_half_certificate(self):
        cert = nonuniqueness_certificate(HALF3)
        assert cert is not None
        assert cert.s0 == 1.0
        assert cert.score_max_diff == 0.0
        assert abs((cert.c4_perturbed - cert.c4_base) - 2 / 729) < 1e-12

    def test_transitive_is_transitive_like(self):
        for n in (3, 6):
            assert nonuniqueness_certificate(transitive_kernel(n)) is None

    def test_cyclic_blowup_certifies(self):
        # its 0/1 cyclic triangle has room only on the side of 1 - M
        cert = nonuniqueness_certificate(BLOWUP3)
        assert cert is not None
        assert cert.score_max_diff == 0.0
        assert abs(cert.c4_perturbed - cert.c4_base) > 0.01

    @given(step_kernels(min_n=3, max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_strength_beats_a_fine_scan(self, w):
        cert = nonuniqueness_certificate(w)
        box = find_cyclic_box(w)
        if box is None:
            assert cert is None
            return
        base = density_kernel(C4, w)
        scan = max(
            abs(density_kernel(C4, perturb_family(w, box, s)) - base)
            for s in np.linspace(0.0, s_max_for(w, box), 1001)
        )
        if cert is None:
            assert scan <= C4_DIFF_THRESHOLD + 1e-15
        else:
            assert abs(cert.c4_perturbed - cert.c4_base) >= scan - 1e-15

    def test_round_calls_density_kernel_at_most_three_times(self, monkeypatch):
        calls = []

        def counted(f, w):
            calls.append(w.n)
            return density_kernel(f, w)

        monkeypatch.setattr(perturb, "density_kernel", counted)
        assert nonuniqueness_certificate(interior_kernel(20, seed=1)) is not None
        assert len(calls) <= 3
        # the rounds on 8 and 16 blocks find no cyclic box and compute no
        # t(C4); the box on 32 blocks moves it by at most 1e-9
        calls.clear()
        assert nonuniqueness_certificate(transitive_kernel(8), refine_rounds=2) is None
        assert calls == [32] * 3

    def test_memory_is_quadratic_in_blocks(self):
        w = interior_kernel(300, seed=3)
        tracemalloc.start()
        try:
            nonuniqueness_certificate(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20  # one 300 x 300 float matrix is 0.7 MiB

    def test_refinement_refused_past_the_cost_guard(self, monkeypatch):
        sizes = []
        refine = StepKernel.refine

        def recorded(self, factor=2):
            sizes.append(self.n * factor)
            return refine(self, factor)

        monkeypatch.setattr(StepKernel, "refine", recorded)
        # C4 plans 8720 FLOPs at 16 blocks, and the box scan on 16 blocks
        # adds 3 * 16^3 = 12288 operations: the round on the refinement into
        # 16 blocks is refused before the refinement is built
        monkeypatch.setattr(density, "MAX_FINITE_FLOPS", 20000)
        with pytest.raises(ValidationError, match="cost guard"):
            nonuniqueness_certificate(transitive_kernel(8), refine_rounds=40)
        assert sizes == []

    def test_box_scan_refused_past_the_cost_guard(self, monkeypatch):
        # a budget of 15000 admits t(C4) on 16 blocks (8720 FLOPs) but not
        # with the box scan (12288 more): the round on them is refused
        # before it scans
        scanned = []
        scan = perturb.find_cyclic_box
        monkeypatch.setattr(perturb, "find_cyclic_box", lambda w: scanned.append(w.n) or scan(w))
        monkeypatch.setattr(density, "MAX_FINITE_FLOPS", 15000)
        with pytest.raises(ValidationError, match="cyclic box scan too large"):
            nonuniqueness_certificate(transitive_kernel(8), refine_rounds=2)
        assert scanned == [8]

    def test_box_scan_bound_admits_no_larger_kernel(self):
        # t(C4) once planned 4 n^3 + 2 n^2 + n FLOPs, so its guard refused
        # every round from 2924 blocks; t(C4) with the box scan is refused
        # from 2715
        for n in (2715, 2924, 3218, 3683, 3684):
            with pytest.raises(ValidationError, match="cost guard"):
                perturb._check_round(n)
        for n in (1, 2, 3, 2714):
            perturb._check_round(n)

    def test_refinement_exposes_diagonal_cyclic_mass(self):
        # the 0/1 transitive step kernel is transitive-like at native
        # resolution, but it is not the transitive limit: t(C3) = 1/(8 n^2)
        # lives inside the diagonal blocks and refinement finds it
        w = transitive_kernel(3)
        assert nonuniqueness_certificate(w) is None
        cert = nonuniqueness_certificate(w, refine_rounds=2)
        assert cert is not None
        assert cert.score_max_diff <= 1e-12

    def test_refinement_exposes_small_kernels(self):
        # a single constant-1/2 block has no triple at native resolution
        w = StepKernel([[0.5]])
        assert nonuniqueness_certificate(w) is None
        cert = nonuniqueness_certificate(w, refine_rounds=2)
        assert cert is not None
        assert cert.score_max_diff <= 1e-12

    def test_random_interior_kernels_certify(self):
        for seed in range(8):
            w = interior_kernel(5, seed=seed)
            if c3_from_degree(w) > 0.01:
                cert = nonuniqueness_certificate(w)
                assert cert is not None
                assert abs(cert.c4_perturbed - cert.c4_base) > 1e-9

    def test_certificate_kernels_have_distinct_fingerprints(self):
        cert = nonuniqueness_certificate(HALF3)
        assert fingerprint(HALF3, 4).differs_from(fingerprint(cert.kernel_s0, 4), tol=1e-10)
        base = degree_distribution_positions = score_function_of_kernel(HALF3).cells
        pert = score_function_of_kernel(cert.kernel_s0).cells
        assert np.array_equal(np.sort(base), np.sort(pert))

    def test_certificate_json(self):
        cert = nonuniqueness_certificate(HALF3)
        d = cert.to_json_dict()
        assert set(d) == {"s0", "c4_base", "c4_perturbed", "score_max_diff", "kernel"}
        assert d["kernel"]["n"] == 3
