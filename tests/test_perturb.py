import numpy as np
import pytest
from hypothesis import given, settings

from strategies import step_kernels
from tourlim import (
    CyclicBox,
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    c3_from_degree,
    c4_polynomial,
    density_kernel,
    find_cyclic_box,
    fingerprint,
    nonuniqueness_certificate,
    perturb_family,
    score_function_of_kernel,
    step_kernel_from_tournament,
)
from tourlim.perturb import s_max_for

HALF3 = StepKernel(np.full((3, 3), 0.5))
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
            assert min(w.blocks[a, b], 1 - w.blocks[a, b]) >= box.delta

    def test_margin_is_maximal_scan(self):
        w = interior_kernel(5, seed=9)
        box = find_cyclic_box(w)
        g = np.minimum(w.blocks, 1 - w.blocks)
        best = 0.0
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    if len({i, j, k}) == 3:
                        best = max(best, min(g[i, j], g[j, k], g[k, i]))
        assert box.delta == pytest.approx(best, abs=1e-15)

    def test_small_kernel_errors(self):
        with pytest.raises(ValidationError):
            find_cyclic_box(StepKernel(np.full((2, 2), 0.5)))

    def test_box_invariants(self):
        with pytest.raises(ValidationError):
            CyclicBox((0, 0, 1), 0.2)
        with pytest.raises(ValidationError):
            CyclicBox((0, 1, 2), 0.0)
        with pytest.raises(ValidationError):
            CyclicBox((0, 1, 2), 0.7)


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
        if box is None or box.delta < 1e-3:  # vanishing margins are degenerate
            return
        coeffs = c4_polynomial(w, box)
        assert coeffs[0] == pytest.approx(density_kernel(C4, w), abs=1e-10)
        assert coeffs[4] >= -1e-10

    def test_degenerate_grid_rejected(self):
        m = np.full((3, 3), 0.5)
        m[1, 2], m[2, 1] = 1e-160, 1.0 - 1e-160
        w = StepKernel(m)
        box = find_cyclic_box(w)
        with pytest.raises(ValidationError):
            c4_polynomial(w, box)

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
            if box is None or box.delta < 1e-3:
                continue
            coeffs = c4_polynomial(w, box)
            assert abs(coeffs[0] - density_kernel(C4, w)) <= 1e-10
            checked += 1

    def test_anchor_check_survives_optimize(self, monkeypatch):
        # an explicit error, not an assert that python -O strips
        box = find_cyclic_box(HALF3)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([0.5, 0, 0, 0, 0]))
        with pytest.raises(RuntimeError, match="anchor"):
            c4_polynomial(HALF3, box)

    def test_leading_coefficient_check_survives_optimize(self, monkeypatch):
        box = find_cyclic_box(HALF3)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([1 / 16, 0, 0, 0, -1]))
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
