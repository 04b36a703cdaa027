import math
import tracemalloc

import numpy as np
import pytest

import oracles
from tourlim import (
    DigraphPattern,
    GeneralizedTournament,
    SampleConfig,
    ScoreSequence,
    StepKernel,
    ValidationError,
    convergence_report,
    degree_distribution,
    density_finite,
    density_kernel,
    empirical_degree_distribution,
    is_selfconverse_under,
    random_step_kernel,
    realize_self_converse,
    sample_self_converse,
    sample_tournament,
    scores_of_tournament,
    step_kernel_from_tournament,
    wasserstein1,
    witness_permutation,
)
from tourlim.sample import _DRAW_BLOCK

# sizes at the draw-block boundaries: below B + 1 one block of rows, and
# at 2B a whole number of blocks
_B = math.isqrt(_DRAW_BLOCK)
DRAW_BLOCK_SIZES = [_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1]

HALF1 = StepKernel([[0.5]])
HALF3 = StepKernel(np.full((3, 3), 0.5))


def transitive_kernel(n):
    return step_kernel_from_tournament(
        GeneralizedTournament(np.triu(np.ones((n, n)), 1))
    )


def traced_peak(fn):
    """fn's result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestSampleTournament:
    def test_single_vertex(self):
        g = sample_tournament(HALF1, SampleConfig(1, seed=5))
        assert g.alpha.tolist() == [[0.0]]

    def test_output_is_tournament(self):
        g = sample_tournament(HALF3, SampleConfig(40, seed=1))
        assert g.is_tournament
        assert g.n == 40

    def test_determinism(self):
        a = sample_tournament(HALF3, SampleConfig(25, seed=9))
        b = sample_tournament(HALF3, SampleConfig(25, seed=9))
        assert np.array_equal(a.alpha, b.alpha)
        c = sample_tournament(HALF3, SampleConfig(25, seed=10))
        assert not np.array_equal(a.alpha, c.alpha)

    def test_reps_are_independent_streams(self):
        a = sample_tournament(HALF3, SampleConfig(25, seed=9), rep=0)
        b = sample_tournament(HALF3, SampleConfig(25, seed=9), rep=1)
        assert not np.array_equal(a.alpha, b.alpha)

    def test_edge_density_near_half(self):
        g = sample_tournament(HALF1, SampleConfig(300, seed=2))
        dens = g.alpha.sum() / (300 * 299)
        assert abs(dens - 0.5) < 0.01

    def test_transitive_kernel_gives_transitive_on_distinct_cells(self):
        # whenever all latent positions land in distinct blocks the sample
        # is forced: it must be acyclic, i.e. scores are a permutation of 0..n-1
        w = transitive_kernel(12)
        found = 0
        for rep in range(40):
            g = sample_tournament(w, SampleConfig(5, seed=33), rep=rep)
            # recover cells by rerunning the generator's latent draw
            from tourlim.sample import _cells_of, _rng

            x = _rng(33, rep).random(5)
            cells = _cells_of(x, 12)
            if len(set(cells.tolist())) == 5:
                found += 1
                scores = sorted(scores_of_tournament(g).values.tolist())
                assert scores == [0, 1, 2, 3, 4]
        assert found > 0


    @pytest.mark.parametrize("n", [1, 2, 3, 125, 500] + DRAW_BLOCK_SIZES)
    def test_bits_match_pair_scatter_oracle(self, n):
        kernels = [HALF3, transitive_kernel(4), random_step_kernel(7, seed=n)]
        reps = [0, 5, (0, 2), (1, 0)]
        for seed, w, rep in zip([0, 1, 19, 2024], kernels + [HALF1], reps):
            cfg = SampleConfig(n, seed=seed)
            alpha = sample_tournament(w, cfg, rep=rep).alpha
            assert np.array_equal(alpha, oracles.sample_by_pair_scatter(w, cfg, rep))
            assert not np.any(np.signbit(alpha))


def test_random_step_kernel_bits_match_pair_scatter_oracle():
    for n, seed, rep in ((1, 0, 0), (2, 3, 1), (7, 5, (1, 2)), (40, 9, 0)):
        blocks = random_step_kernel(n, seed=seed, rep=rep).blocks
        assert np.array_equal(blocks, oracles.random_kernel_by_pair_scatter(n, seed, rep))
        assert not np.any(np.signbit(blocks))


class TestSampleMemoryGuard:
    """Sizes whose n x n float64 matrix would exceed 2 GiB are refused
    before any draw; n = 10**6 would need 8 TB."""

    def test_sample_tournament(self):
        with pytest.raises(ValidationError, match="bytes"):
            sample_tournament(HALF3, SampleConfig(10**6))

    def test_sample_self_converse_counts_both_sides(self, monkeypatch):
        import tourlim.core

        with pytest.raises(ValidationError, match="bytes"):
            sample_self_converse(HALF3, np.arange(3), SampleConfig(10**6))
        # with a 100 x 100 limit, 50 pairs fit and 51 pairs (102 vertices) do not
        monkeypatch.setattr(tourlim.core, "_MAX_MATRIX_BYTES", 8 * 100 * 100)
        assert sample_self_converse(HALF3, np.arange(3), SampleConfig(50)).n == 100
        with pytest.raises(ValidationError, match="bytes"):
            sample_self_converse(HALF3, np.arange(3), SampleConfig(51))

    def test_convergence_report_checks_largest_size_first(self, monkeypatch):
        import tourlim.sample

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample before the size check")

        monkeypatch.setattr(tourlim.sample, "sample_tournament", no_draw)
        monkeypatch.setattr(tourlim.sample, "density_kernel", no_draw)
        with pytest.raises(ValidationError, match="bytes"):
            convergence_report(
                HALF3, {"C3": DigraphPattern.cycle(3)}, [10, 10**6], SampleConfig(1)
            )

    def test_convergence_report_checks_density_cost_before_drawing(self, monkeypatch):
        import tourlim.sample

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return sample_tournament(*args, **kwargs)

        monkeypatch.setattr(tourlim.sample, "sample_tournament", spy)
        with pytest.raises(ValidationError, match="cost guard"):
            convergence_report(
                HALF3, {"T5": DigraphPattern.transitive(5)}, [1000], SampleConfig(1000)
            )
        assert calls == []

    def test_convergence_report_prices_a_repetition_s_patterns_together(self, monkeypatch):
        # at 259 vertices C8 inj plans 9.86e10 FLOPs and C7 inj 3.92e9, each
        # within MAX_FINITE_FLOPS, but a repetition contracts both with one
        # memo: 1.02e11; at 250 both together plan 8.9e10.  The call is
        # refused before any kernel density or draw
        import tourlim.sample
        from tourlim.density import _priced

        calls = []
        for name in ("sample_tournament", "density_kernel"):
            monkeypatch.setattr(tourlim.sample, name, lambda *args, **kw: calls.append(args))
        patterns = {"C8": DigraphPattern.cycle(8), "C7": DigraphPattern.cycle(7)}
        for f in patterns.values():
            _priced([f], "inj", 1, 259)
        _priced(list(patterns.values()), "inj", 1, 250)
        with pytest.raises(ValidationError, match="cost guard"):
            convergence_report(HALF3, patterns, [250, 259], SampleConfig(1))
        assert calls == []

    def test_sample_tournament_peak_is_below_1_5_results(self):
        g, peak = traced_peak(
            lambda: sample_tournament(random_step_kernel(5, seed=3), SampleConfig(2000, 1))
        )
        assert peak <= 1.5 * g.alpha.nbytes

    def test_sample_self_converse_peak_is_below_1_5_results(self):
        g, peak = traced_peak(
            lambda: sample_self_converse(HALF3, np.arange(3), SampleConfig(1000, 1))
        )
        assert g.n == 2000
        assert peak <= 1.5 * g.alpha.nbytes

    def test_limit_is_2_gib(self):
        from tourlim.core import _MAX_MATRIX_BYTES, _check_matrix_size

        assert _MAX_MATRIX_BYTES == 2**31
        _check_matrix_size(16384)
        with pytest.raises(ValidationError):
            _check_matrix_size(16385)


class TestSampleSelfConverse:
    def test_identity_sigma_on_constant_half(self):
        g = sample_self_converse(HALF3, np.arange(3), SampleConfig(10, seed=4))
        assert g.n == 20
        assert g.is_tournament
        assert is_selfconverse_under(g, witness_permutation(10))

    def test_two_vertex_output(self):
        g = sample_self_converse(HALF1, np.zeros(1, dtype=int), SampleConfig(1, seed=0))
        assert g.n == 2
        assert is_selfconverse_under(g, witness_permutation(1))

    def test_symmetrized_kernel_with_reversal(self):
        base = realize_self_converse(ScoreSequence(np.array([1, 1, 2, 2]), "integer"))
        w = step_kernel_from_tournament(base)
        sigma = np.arange(4)[::-1]
        for rep in range(5):
            g = sample_self_converse(w, sigma, SampleConfig(15, seed=8), rep=rep)
            assert is_selfconverse_under(g, witness_permutation(15))

    def test_rejects_non_involution(self):
        sigma = np.array([1, 2, 0])
        with pytest.raises(ValidationError):
            sample_self_converse(HALF3, sigma, SampleConfig(4, seed=0))

    def test_rejects_incompatible_kernel(self):
        w = transitive_kernel(3)  # not symmetric under identity
        with pytest.raises(ValidationError):
            sample_self_converse(w, np.arange(3), SampleConfig(4, seed=0))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            sample_self_converse(HALF3, np.array([0, 0, 2]), SampleConfig(4, seed=0))

    def test_output_check_survives_optimize(self, monkeypatch):
        # an explicit error, not an assert that python -O strips
        import tourlim.sample

        # the sampler checks its witness on the bool matrix, through the
        # helper that is_selfconverse_under calls too
        monkeypatch.setattr(tourlim.sample, "_reversed_by", lambda a, perm: False)
        with pytest.raises(RuntimeError, match="self-converse"):
            sample_self_converse(HALF3, np.arange(3), SampleConfig(4, seed=0))

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 400] + DRAW_BLOCK_SIZES)
    def test_bits_match_pair_scatter_oracle(self, m):
        # kernels on 1, 2, 3 and 8 blocks, averaged with their sigma-converse
        # so that W(x, y) = W(sigma(y), sigma(x)) holds exactly
        cases = [(HALF1, np.zeros(1, dtype=int))]
        for blocks in (2, 3, 8):
            base = random_step_kernel(blocks, seed=m, rep=blocks).blocks
            sigma = np.arange(blocks)[::-1]
            pulled = base[np.ix_(sigma, sigma)].T
            cases.append((StepKernel((base + pulled) / 2), sigma))
        for w, sigma in cases:
            for seed, rep in ((0, 0), (31, (2, 1))):
                cfg = SampleConfig(m, seed=seed)
                alpha = sample_self_converse(w, sigma, cfg, rep=rep).alpha
                want = oracles.self_converse_by_pair_scatter(w, sigma, cfg, rep)
                assert np.array_equal(alpha, want)
                assert not np.any(np.signbit(alpha))

    def test_v_subtournament_matches_plain_sampler(self):
        cfg = SampleConfig(30, seed=77)
        paired = sample_self_converse(HALF3, np.arange(3), cfg, rep=3)
        v_part = GeneralizedTournament(paired.alpha[:30, :30].copy())
        assert v_part.is_tournament

    def test_v_subtournament_distribution(self):
        # empirical C3 and S11 densities of the v-side across reps sit
        # within 3 standard errors of the kernel values
        from tourlim import density_finite

        c3 = DigraphPattern.cycle(3)
        s11 = DigraphPattern.star(1, 1)
        reps, n = 50, 300
        c3_vals, s11_vals = [], []
        for rep in range(reps):
            g = sample_self_converse(HALF3, np.arange(3), SampleConfig(n, seed=505), rep=rep)
            v_part = GeneralizedTournament(g.alpha[:n, :n].copy())
            c3_vals.append(density_finite(c3, v_part, "inj"))
            s11_vals.append(density_finite(s11, v_part, "inj"))
        for vals, exact in ((c3_vals, density_kernel(c3, HALF3)),
                            (s11_vals, density_kernel(s11, HALF3))):
            arr = np.asarray(vals)
            stderr = arr.std(ddof=1) / np.sqrt(reps)
            assert abs(arr.mean() - exact) <= 3 * stderr


class TestEmpiricalDegreeDistribution:
    def test_transitive_t4(self):
        g = GeneralizedTournament(np.triu(np.ones((4, 4)), 1))
        d = empirical_degree_distribution(g)
        assert np.allclose(d.positions, [0, 0.25, 0.5, 0.75])
        assert np.allclose(d.weights, 0.25)

    def test_cyclic_triple(self):
        g = GeneralizedTournament(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], float))
        d = empirical_degree_distribution(g)
        assert d.positions.tolist() == [pytest.approx(1 / 3)]
        assert d.weights.tolist() == [1.0]

    def test_mean_is_handshake(self):
        g = sample_tournament(HALF3, SampleConfig(41, seed=6))
        d = empirical_degree_distribution(g)
        assert d.mean() == pytest.approx((41 - 1) / (2 * 41), abs=1e-12)


class TestConvergenceReport:
    def test_report_shape_and_exact_column(self):
        patterns = {"C3": DigraphPattern.cycle(3), "S0,1": DigraphPattern.star(0, 1)}
        rep = convergence_report(HALF3, patterns, [30, 60], SampleConfig(1, seed=5, reps=4))
        names = {(r.pattern, r.n) for r in rep.rows}
        assert ("C3", 30) in names and ("degree_w1", 60) in names
        for r in rep.rows:
            if r.pattern == "C3":
                assert r.exact == pytest.approx(1 / 8)
        assert set(rep.w1_samples) == {30, 60}
        assert len(rep.w1_samples[30]) == 4

    def test_csv_header(self):
        rep = convergence_report(
            HALF1, {"S0,1": DigraphPattern.star(0, 1)}, [10], SampleConfig(1, seed=0, reps=2)
        )
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "pattern,n,mean,stderr,exact"
        assert len(lines) == 1 + 2

    def test_determinism(self):
        patterns = {"C3": DigraphPattern.cycle(3)}
        a = convergence_report(HALF3, patterns, [20], SampleConfig(1, seed=3, reps=3))
        b = convergence_report(HALF3, patterns, [20], SampleConfig(1, seed=3, reps=3))
        assert a.to_csv() == b.to_csv()

    def test_repeated_sizes_are_refused(self):
        with pytest.raises(ValidationError, match="distinct"):
            convergence_report(HALF3, {}, [20, 20], SampleConfig(1, seed=0, reps=2))

    def test_shared_contractions_equal_separate_calls_bit_for_bit(self):
        # one repetition's patterns share their keyed step results; each
        # value must be that of its own density_finite call on the sample
        from tourlim.sample import _mean_stderr

        w = random_step_kernel(4, seed=8)
        specs = ("S0,1", "S1,1", "S2,0", "S1,2", "C3", "C4", "T3", "T4")
        patterns = {spec: DigraphPattern.from_spec(spec) for spec in specs}
        sizes, reps = [3, 9, 60], 3
        report = convergence_report(w, patterns, sizes, SampleConfig(1, seed=13, reps=reps))
        want = {}
        for si, size in enumerate(sizes):
            gs = [sample_tournament(w, SampleConfig(size, 13, 1), rep=(si, r)) for r in range(reps)]
            for name, f in patterns.items():
                want[name, size] = _mean_stderr([density_finite(f, g, "inj") for g in gs])
        got = {(r.pattern, r.n): (r.mean, r.stderr)
               for r in report.rows if r.pattern != "degree_w1"}
        assert got.keys() == want.keys()
        for key, values in want.items():
            assert [v.hex() for v in got[key]] == [v.hex() for v in values], key

    def test_shared_dict_serves_every_mode_bit_for_bit(self):
        from tourlim.density import _densities

        g = GeneralizedTournament(random_step_kernel(40, seed=3).blocks - np.eye(40) / 2)
        patterns = [DigraphPattern.from_spec(s) for s in ("S1,1", "C3", "C4", "T4", "S0,2")]
        for mode in ("hom", "inj", "ind"):
            want = [density_finite(f, g, mode).hex() for f in patterns]
            assert [v.hex() for v in _densities(patterns, g.alpha, mode, 1)] == want

    def test_empirical_density_close_to_exact(self):
        patterns = {"S0,1": DigraphPattern.star(0, 1)}
        rep = convergence_report(HALF1, patterns, [150], SampleConfig(1, seed=11, reps=12))
        row = [r for r in rep.rows if r.pattern == "S0,1"][0]
        assert abs(row.mean - row.exact) <= 4 * max(row.stderr, 1e-4)


class TestRandomStepKernel:
    def test_valid_and_deterministic(self):
        a = random_step_kernel(6, seed=1)
        b = random_step_kernel(6, seed=1)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.blocks + a.blocks.T, np.ones((6, 6)))

    def test_degree_distribution_atoms(self):
        w = random_step_kernel(5, seed=2)
        d = degree_distribution(w)
        assert abs(float(np.sum(d.weights)) - 1.0) < 1e-12
        # indegree marginal mirrors outdegree
        din = degree_distribution(w, "in")
        assert np.max(np.abs(np.sort(1 - d.positions) - din.positions)) < 1e-12


class TestConfigValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValidationError):
            SampleConfig(0, seed=0)
        with pytest.raises(ValidationError):
            SampleConfig(3, seed=0, reps=0)
        with pytest.raises(ValidationError):
            SampleConfig(3, seed=-1)
