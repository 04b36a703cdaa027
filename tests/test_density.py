import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import generalized_tournaments, step_kernels, tournaments
from tourlim import (
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    c3_from_degree,
    converse,
    density_finite,
    density_kernel,
    fingerprint,
    random_step_kernel,
    star_density,
    step_kernel_from_tournament,
)

C3 = DigraphPattern.cycle(3)
C4 = DigraphPattern.cycle(4)
CYCLE3 = GeneralizedTournament(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], float))


def tournament_classes(k):
    """One pattern per isomorphism class of k-vertex tournaments."""
    masks = sorted({oracles.canonical_form(k, m) for m in range(1 << (k * (k - 1) // 2))})
    return [
        DigraphPattern(k, frozenset(zip(*np.nonzero(oracles.mask_to_alpha(k, m)))))
        for m in masks
    ]


# every 4- and 5-vertex tournament class, T4 and TT5 as labelled by
# DigraphPattern.transitive, and patterns with absent pairs for ind
ORACLE_PATTERNS = (
    tournament_classes(4)
    + tournament_classes(5)
    + [DigraphPattern.transitive(4), DigraphPattern.transitive(5)]
    + [C4, DigraphPattern.cycle(5), DigraphPattern.star(2, 2)]
)


def random_tournament(n, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1).astype(float)
    return upper + np.triu(1.0 - upper, 1).T


def transitive_kernel(n):
    return step_kernel_from_tournament(
        GeneralizedTournament(np.triu(np.ones((n, n)), 1))
    )


class TestDensityFinite:
    def test_c3_in_3cycle_matches_enumeration(self):
        # 3 cyclic homomorphisms among the 27 maps
        assert density_finite(C3, CYCLE3, "hom") == pytest.approx(3 / 27, abs=1e-15)

    def test_c3_in_transitive_vanishes(self):
        g = GeneralizedTournament(np.triu(np.ones((5, 5)), 1))
        for mode in ("hom", "inj", "ind"):
            assert density_finite(C3, g, mode) == pytest.approx(0.0, abs=1e-15)

    def test_single_edge_hom_density(self):
        edge = DigraphPattern.star(0, 1)
        for n in (2, 4, 7):
            g = GeneralizedTournament(oracles.mask_to_alpha(n, 0))
            assert density_finite(edge, g, "hom") == pytest.approx((n - 1) / (2 * n))

    def test_pattern_larger_than_host(self):
        assert density_finite(C4, CYCLE3, "inj") == 0.0
        assert density_finite(C4, CYCLE3, "ind") == 0.0

    def test_cost_guard(self):
        with pytest.raises(ValidationError):
            density_finite(DigraphPattern.transitive(9), CYCLE3, "hom")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            density_finite(C3, CYCLE3, "weird")

    @given(generalized_tournaments(min_n=2, max_n=4), st.integers(0, 255))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce_all_modes(self, g, pattern_seed):
        rng = np.random.default_rng(pattern_seed)
        k = int(rng.integers(2, 4))
        edges = set()
        for i in range(k):
            for j in range(i + 1, k):
                r = rng.integers(0, 3)
                if r == 0:
                    edges.add((i, j))
                elif r == 1:
                    edges.add((j, i))
        f = DigraphPattern(k, frozenset(edges))
        for mode in ("hom", "inj", "ind"):
            got = density_finite(f, g, mode)
            want = oracles.brute_density_finite(f, g.alpha, mode)
            assert got == pytest.approx(want, abs=1e-12)

    @given(tournaments(min_n=4, max_n=5))
    @settings(max_examples=10, deadline=None)
    def test_oracle_patterns_on_tournaments(self, g):
        for f in ORACLE_PATTERNS:
            for mode in ("hom", "inj", "ind"):
                want = oracles.brute_density_finite(f, g.alpha, mode)
                assert density_finite(f, g, mode) == pytest.approx(want, abs=1e-12)

    @given(generalized_tournaments(min_n=4, max_n=5))
    @settings(max_examples=10, deadline=None)
    def test_oracle_patterns_on_generalized_tournaments(self, g):
        for f in ORACLE_PATTERNS:
            for mode in ("hom", "inj", "ind"):
                want = oracles.brute_density_finite(f, g.alpha, mode)
                assert density_finite(f, g, mode) == pytest.approx(want, abs=1e-12)

    def test_same_pattern_at_two_sizes(self):
        # plans and their planned costs are cached per operand shape, so
        # neither may carry over from one size to the next
        big = GeneralizedTournament(random_tournament(1000, 0))
        with pytest.raises(ValidationError, match="cost guard"):
            density_finite(C4, big, "ind")
        for n in (5, 7, 5):
            g = GeneralizedTournament(random_tournament(n, n))
            for f in (C4, DigraphPattern.transitive(4)):
                for mode in ("hom", "inj", "ind"):
                    want = oracles.brute_density_finite(f, g.alpha, mode)
                    assert density_finite(f, g, mode) == pytest.approx(want, abs=1e-12)
        for n in (30, 40):
            a = random_tournament(n, n)
            want = np.trace(np.linalg.matrix_power(a, 4)) / n**4
            assert density_finite(C4, GeneralizedTournament(a), "hom") == pytest.approx(
                want, abs=1e-12
            )

    def test_t4_inj_at_500_matches_closed_form(self):
        n = 500
        a = random_tournament(n, 500)
        g = GeneralizedTournament(a)
        start = time.perf_counter()
        got = density_finite(DigraphPattern.transitive(4), g, "inj")
        elapsed = time.perf_counter() - start
        p = a @ a.T
        q = (a * a) @ (a * a).T
        want = np.sum(a * (p * p - q)) / (2 * n * (n - 1) * (n - 2) * (n - 3))
        assert got == pytest.approx(want, abs=1e-9)
        assert elapsed < 1.0

    def test_flop_guard_rejects_before_contracting(self):
        g = GeneralizedTournament(random_tournament(1000, 3))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="cost guard"):
            density_finite(C4, g, "ind")
        assert time.perf_counter() - start < 1.0

    @given(tournaments(min_n=3, max_n=6))
    @settings(max_examples=25)
    def test_ind_vanishes_for_non_tournament_pattern_in_tournament(self, g):
        path = DigraphPattern(3, frozenset({(0, 1), (1, 2)}))  # pair {0,2} absent
        assert density_finite(path, g, "ind") == pytest.approx(0.0, abs=1e-12)


class TestDensityKernel:
    def test_c3_constant_half(self):
        assert density_kernel(C3, StepKernel(np.full((3, 3), 0.5))) == pytest.approx(1 / 8, abs=1e-15)

    def test_c3_transitive_kernel(self):
        for n in (3, 5):
            assert density_kernel(C3, transitive_kernel(n)) == pytest.approx(
                1 / (8 * n * n), abs=1e-15
            )

    def test_c4_constant_half(self):
        assert density_kernel(C4, StepKernel(np.full((2, 2), 0.5))) == pytest.approx(1 / 16, abs=1e-15)

    def test_kernel_vs_finite_diagonal_shift_for_c3(self):
        # on a 0/1 tournament the only extra kernel mass sits on repeated
        # triples through the 1/2 diagonal: exactly 1/(8 n^2)
        for mask in (0b101, 0b011, 0b000, 0b111):
            g = GeneralizedTournament(oracles.mask_to_alpha(3, mask))
            w = step_kernel_from_tournament(g)
            assert density_kernel(C3, w) == pytest.approx(
                density_finite(C3, g, "hom") + 1 / (8 * 9), abs=1e-13
            )

    @given(step_kernels(min_n=1, max_n=4))
    @settings(max_examples=30)
    def test_matches_bruteforce(self, w):
        for f in (C3, DigraphPattern.star(1, 1), DigraphPattern.transitive(3)):
            got = density_kernel(f, w)
            want = oracles.brute_density_kernel(f, w.blocks)
            assert got == pytest.approx(want, abs=1e-12)

    @given(step_kernels(min_n=1, max_n=4))
    @settings(max_examples=10, deadline=None)
    def test_oracle_patterns(self, w):
        for f in ORACLE_PATTERNS:
            want = oracles.brute_density_kernel(f, w.blocks)
            assert density_kernel(f, w) == pytest.approx(want, abs=1e-12)

    def test_refinement_beyond_assignment_count(self):
        # densities are invariant under refine; 120**4 assignments exceed
        # 1e8, but the call plans only about 4 * 120**3 FLOPs
        w = random_step_kernel(20, seed=6)
        assert density_kernel(C4, w.refine(6)) == pytest.approx(
            density_kernel(C4, w), abs=1e-12
        )

    @given(step_kernels(min_n=1, max_n=6))
    @settings(max_examples=30)
    def test_trace_shortcut_agrees_with_generic_sum(self, w):
        for f in (C3, C4):
            direct = oracles.brute_density_kernel(f, w.blocks) if w.n**f.k <= 10**4 else None
            by_trace = density_kernel(f, w)
            # the plain term, without the swap rule or the cycle rewrite
            term = (1.0, f.k, tuple((u, v, "e") for u, v in sorted(f.edges)))
            from tourlim.density import _evaluate

            generic = _evaluate([term], {"e": w.blocks}, w.n) / float(w.n) ** f.k
            assert abs(by_trace - generic) < 1e-12
            if direct is not None:
                assert abs(by_trace - direct) < 1e-12

    @given(step_kernels(min_n=1, max_n=6))
    @settings(max_examples=40)
    def test_converse_duality(self, w):
        patterns = [C3, C4, DigraphPattern.star(2, 1), DigraphPattern.transitive(3)]
        wc = converse(w)
        for f in patterns:
            assert density_kernel(f, wc) == pytest.approx(
                density_kernel(f.converse(), w), abs=1e-12
            )

    def test_cost_guards(self, monkeypatch):
        # planned FLOPs, checked before any contraction, not n^k assignments
        import tourlim.density

        with pytest.raises(ValidationError):
            density_kernel(DigraphPattern.transitive(9), StepKernel([[0.5]]))

        def no_contraction(*args):
            raise AssertionError("contracted before the cost check")

        monkeypatch.setattr(tourlim.density, "_evaluate", no_contraction)
        w = random_step_kernel(100, seed=2)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="cost guard"):
            density_kernel(DigraphPattern.transitive(8), w)
        # the five-vertex classes plan about 6e9 FLOPs at 100 blocks, which
        # the guard admits, and about 5e11 at 300 blocks
        with pytest.raises(ValidationError, match="cost guard"):
            fingerprint(random_step_kernel(300, seed=2), 5)
        assert time.perf_counter() - start < 1.0


def test_t8_plain_step_uses_all_eight_letters():
    # on 2 blocks the 8-vertex terms are tiny, so each runs its plain sum as
    # one einsum step over all 8 letters
    w = random_step_kernel(2, seed=3)
    t8 = DigraphPattern.transitive(8)
    want = oracles.brute_density_kernel(t8, w.blocks)
    assert density_kernel(t8, w) == pytest.approx(want, rel=1e-12, abs=1e-15)


ANTI_C4 = DigraphPattern(4, frozenset({(0, 1), (2, 1), (2, 3), (0, 3)}))
CYCLE_PATTERNS = (C3, C4, DigraphPattern.cycle(5), ANTI_C4)
# sliced passes of their terms sum a leaf of a factor that carries the cut
# vertex and a leaf of one that does not into vectors of one key
P_A = DigraphPattern(7, {(0, 2), (1, 0), (1, 2), (1, 4), (2, 3), (2, 6), (3, 0), (3, 1), (5, 3)})
P_B = DigraphPattern(7, {(1, 0), (1, 4), (1, 5), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 6)})


@pytest.fixture
def limits(monkeypatch):
    """Sets density._DIRECT_FLOPS and _MAX_ELEMENTS by keyword, as in
    ``limits(_DIRECT_FLOPS=0)``.  The terms and counts cached under other
    limits are cleared on every call and again at teardown, once the
    defaults are back."""
    import tourlim.density

    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(tourlim.density, name, value)
        tourlim.density._terms.cache_clear()
        tourlim.density._flops.cache_clear()

    yield patch
    monkeypatch.undo()
    patch()


def degree(work):
    """The highest power of n that a ``_work`` count carries."""
    return 8 - next(i for i, count in enumerate(work) if count)


def falling(x, k):
    return math.prod(x - i for i in range(k))


def einsum_dims(spec, ops):
    """The size of each index letter of an einsum step's operands."""
    dims = {}
    for names, op in zip(spec.split("->")[0].split(","), ops):
        dims.update(zip(names, op.shape))
    return dims


class TestPlanner:
    @pytest.mark.parametrize("path", ["as sized", "planned", "sliced, one row per pass"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_cycles_match_bruteforce(self, limits, path, n):
        # with the tiny-sum shortcut off, every term runs its planned steps,
        # one row of the cut vertex per pass when its plan holds more than
        # n^2 values; C5 ind keeps a 4-index intermediate, of which one row
        # holds n^3 > n^2 values, so at n = 6 the guard refuses it
        if path != "as sized":
            limits(_DIRECT_FLOPS=0)
        if path == "sliced, one row per pass":
            limits(_MAX_ELEMENTS=0)
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)), 1)
        zero_one = np.triu(upper < 0.5, 1).astype(float)
        hosts = [zero_one + np.tril(1.0 - zero_one.T, -1), upper + np.tril(1.0 - upper.T, -1)]
        blocks = hosts[1].copy()
        np.fill_diagonal(blocks, 0.5)
        for f in CYCLE_PATTERNS:
            for alpha in hosts:
                g = GeneralizedTournament(alpha)
                for mode in ("hom", "inj", "ind"):
                    if path == "sliced, one row per pass" and (f.k, mode, n) == (5, "ind", 6):
                        with pytest.raises(ValidationError, match="too wide"):
                            density_finite(f, g, mode)
                        continue
                    want = oracles.brute_density_finite(f, alpha, mode)
                    assert abs(density_finite(f, g, mode) - want) <= 1e-12
            want = oracles.brute_density_kernel(f, blocks)
            assert abs(density_kernel(f, StepKernel(blocks)) - want) <= 1e-12
        if path == "sliced, one row per pass":
            # P_A's hom terms run sliced on finite inputs and kernels alike
            want = oracles.brute_density_finite(P_A, hosts[1], "hom")
            assert abs(density_finite(P_A, GeneralizedTournament(hosts[1]), "hom") - want) <= 1e-12
            want = oracles.brute_density_kernel(P_A, blocks)
            assert abs(density_kernel(P_A, StepKernel(blocks)) - want) <= 1e-12

    def test_forced_paths_run_their_own_terms(self, limits, monkeypatch):
        # at n = 6 the 10 terms of C5 inj are tiny and run as plain sums;
        # with the shortcut off each takes its cycle rewrite, 23 terms in
        # all, also right after a call that ran the 10
        import tourlim.density
        from tourlim.density import _hom

        evaluated = []

        def spy(k, factors, *args):
            evaluated.append(factors)
            return _hom(k, factors, *args)

        monkeypatch.setattr(tourlim.density, "_hom", spy)
        C5 = DigraphPattern.cycle(5)
        alpha = random_tournament(6, 6) * 0.8 + 0.1 * (1 - np.eye(6))
        want = oracles.brute_density_finite(C5, alpha, "inj")
        for path, terms in [({}, 10), ({"_DIRECT_FLOPS": 0}, 23), ({"_MAX_ELEMENTS": 0}, 23)]:
            limits(**path)
            evaluated.clear()
            assert abs(density_finite(C5, GeneralizedTournament(alpha), "inj") - want) <= 1e-12
            assert len(evaluated) == terms

    @pytest.mark.parametrize("path", ["planned", "sliced, one row per pass"])
    def test_repeated_products_match_bruteforce(self, limits, path):
        # C4, C6 and the anti-directed C4 make one BLAS product several
        # times in their hom terms, which run it once; with the tiny-sum
        # shortcut off every term runs its steps, and the wide terms of inj
        # and ind run one row of their cut vertex per pass.  One row of C6
        # ind's 4-index intermediates holds n^3 > n^2 values, so the guard
        # refuses it there.
        from tourlim.density import _chosen, _terms

        limits(_DIRECT_FLOPS=0)
        if path != "planned":
            limits(_MAX_ELEMENTS=0)
        n = 6
        rng = np.random.default_rng(16)
        upper = np.triu(rng.random((n, n)), 1)
        zero_one = np.triu(upper < 0.5, 1).astype(float)
        hosts = [zero_one + np.tril(1.0 - zero_one.T, -1), upper + np.tril(1.0 - upper.T, -1)]
        blocks = hosts[1].copy()
        np.fill_diagonal(blocks, 0.5)
        for f in (C4, DigraphPattern.cycle(6), ANTI_C4):
            (_, k, factors), = _terms(f, "hom", 1, n)
            assert _chosen(k, factors, n).repeated
            for alpha in hosts:
                g = GeneralizedTournament(alpha)
                for mode in ("hom", "inj", "ind"):
                    if path != "planned" and (f.k, mode) == (6, "ind"):
                        with pytest.raises(ValidationError, match="too wide"):
                            density_finite(f, g, mode)
                        continue
                    want = oracles.brute_density_finite(f, alpha, mode)
                    assert abs(density_finite(f, g, mode) - want) <= 1e-12
            want = oracles.brute_density_kernel(f, blocks)
            assert abs(density_kernel(f, StepKernel(blocks)) - want) <= 1e-12

    @pytest.mark.parametrize("c", [0, 1])
    def test_c4_hom_runs_one_cubic_product(self, monkeypatch, c):
        # one A.A, then the n^2 sum of (A.A) o (A.A)^T: the guard's count is
        # that of the steps that run
        import tourlim.density
        from tourlim.density import _flops, _run, _terms, _work

        n = 300
        terms = _terms(C4, "hom", c, n)
        # one n^3 step of a multiplication and an addition per value
        assert _work(terms, n)[:6] == (0, 0, 0, 0, 0, 2)
        alpha = random_tournament(n, 11)
        if not c:
            np.fill_diagonal(alpha, 0.5)

        def call():
            if c:
                return density_finite(C4, GeneralizedTournament(alpha), "hom")
            return density_kernel(C4, StepKernel(alpha))

        executed = []

        def spy(step, ops, n):
            executed.append(step.op)
            return _run(step, ops, n)

        monkeypatch.setattr(tourlim.density, "_run", spy)
        value = call()
        assert executed.count("dot") == 1
        assert value == pytest.approx(np.trace(np.linalg.matrix_power(alpha, 4)) / n**4,
                                      rel=1e-12)
        count = _flops(terms, n)
        monkeypatch.setattr(tourlim.density, "MAX_FINITE_FLOPS", count)
        call()
        monkeypatch.setattr(tourlim.density, "MAX_FINITE_FLOPS", count - 1)
        with pytest.raises(ValidationError, match="cost guard"):
            call()

    def test_c4_hom_peak_memory_holds_one_product(self):
        # the repeat reuses the one n x n product, so no two are alive at
        # once
        import tracemalloc

        n = 1000
        g = GeneralizedTournament(random_tournament(n, 12))
        tracemalloc.start()
        try:
            density_finite(C4, g, "hom")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n

    def test_sliced_passes_reuse_no_product(self, limits):
        # a term whose plan keeps a 3-index intermediate and makes one
        # product twice, once from operands that carry the cut vertex and
        # once from operands that do not: in a pass over some rows of the
        # cut the two differ, so each is made as it is
        from tourlim.density import _evaluate, _passes, _plan

        k = 6
        factors = ((0, 1, "e"), (0, 3, "e"), (1, 4, "e"), (1, 5, "e"),
                   (2, 4, "e"), (2, 5, "e"), (3, 4, "e"), (3, 5, "e"))
        plan = _plan(k, factors)
        assert plan.repeated and plan.width == 3
        n = 7
        a = random_tournament(n, 13) * 0.8 + 0.1 * (1 - np.eye(n))
        term = ((1.0, k, factors),)
        limits(_MAX_ELEMENTS=2 * n ** 2)
        assert {len(_passes(plan, i, n)) for i in plan.sliced} == {4}
        want = oracles.brute_hom_sum(sorted((u, v) for u, v, _ in factors), k, a)
        assert _evaluate(term, {"e": a}, n) == pytest.approx(want, rel=1e-12)

    def test_term_sliced_at_the_default_ceiling_equals_it_unsliced(self, limits):
        # P_A's widest intermediates carry 3 indices: at n = 300 they run in
        # passes of 186 and 114 rows, and under a ceiling of 2^25 values in
        # one pass (about 0.5 s and a 620 MiB peak); its sliced passes sum
        # leaves of cut and uncut factors into vectors of one key
        from tourlim.density import _chosen, _passes, _terms

        n = 300
        u = np.triu(np.random.default_rng(300).random((n, n)), 1)
        g = GeneralizedTournament(u + np.tril(1.0 - u.T, -1))
        (_, k, factors), = _terms(P_A, "hom", 1, n)
        plan = _chosen(k, factors, n)
        passes = {tuple(len(range(n)[r]) for r in _passes(plan, i, n)) for i in plan.sliced}
        assert passes == {(186, 114)}
        sliced = density_finite(P_A, g, "hom")
        limits(_MAX_ELEMENTS=2**25)
        assert {len(_passes(plan, i, n)) for i in plan.sliced} == {1}
        whole = density_finite(P_A, g, "hom")
        assert abs(sliced - whole) <= 1e-12 * abs(whole)

    @pytest.mark.parametrize("n", [1, 7, 50, 300])
    def test_kernel_c3_is_the_degree_identity(self, n):
        w = random_step_kernel(n, seed=n)
        assert abs(density_kernel(C3, w) - c3_from_degree(w)) <= 1e-12

    def test_c3_plans_quadratic_work(self):
        from tourlim.density import _terms, _work

        for c in (0, 1):
            assert degree(_work(_terms(C3, "hom", c, 1000), 1000)) == 2

    def test_the_cycle_rewrite_is_chosen_by_its_count_at_n(self):
        # just above 2^13 multiply-adds, C3 inj's 3-vertex term is no longer
        # tiny, but its rewrite into plain sums counts more than its own
        # elimination up to 16 vertices, so it stays; at 17 the rewrite
        # counts fewer and is taken
        from tourlim.density import _expansion, _flops, _terms

        for n, most in ((14, 5894), (15, 7215), (16, 8720), (17, 1802)):
            assert _flops(_terms(C3, "inj", 1, n), n) <= most
        for n in range(4, 41):
            planned = _flops(_terms(C3, "inj", 1, n), n)
            assert planned <= _flops(_expansion(C3, "inj", 1, False), n), n

    def test_planning_at_another_size_misses_no_size_free_cache(self):
        # _order, _plan, _symmetrize, _rewrites and _expansion are keyed
        # without n, so once a sweep is planned at 100 vertices, planning
        # it at 101 only reads them; it holds about 7,000 symmetrized terms
        # and 5,000 plans
        import tourlim.density as d

        caches = (d._order, d._plan, d._symmetrize, d._rewrites, d._expansion)

        def sweep(n):
            for f in SMALL_CLASSES + LONG_CYCLES:
                for mode in ("hom", "inj", "ind"):
                    for zero_one in (True, False):
                        d._terms(f, mode, 1, n, zero_one)

        sweep(100)
        misses = [cache.cache_info().misses for cache in caches]
        sweep(101)
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_disconnected_term_contracts_its_components_apart(self):
        from tourlim.density import _plan, _work

        paths = ((0, 1, "e"), (1, 2, "e"), (3, 4, "e"), (5, 4, "e"))
        assert len(_plan(6, paths).scalars) == 2
        assert degree(_work([(1.0, 6, paths)], 1000)) == 2
        # two equal components share their steps: one n^2 sum and one n sum
        two_edges = (1.0, 4, ((0, 1, "e"), (2, 3, "e")))
        assert _work([two_edges], 1000) == (0,) * 6 + (1, 1, 0)

    def test_guard_reads_the_planned_count(self, monkeypatch):
        # a 0/1 tournament plans the terms without an edge both ways, a
        # generalised one every term
        import tourlim.density
        from tourlim.density import _terms, _work

        a = random_tournament(200, 1)
        for x, zero_one in ((a, True), (0.8 * a + 0.1 * (1 - np.eye(200)), False)):
            g = GeneralizedTournament(x)
            assert g.is_tournament == zero_one
            work = _work(_terms(C4, "inj", 1, 200, zero_one), 200)
            count = sum(c * 200.0 ** (8 - i) for i, c in enumerate(work))
            monkeypatch.setattr(tourlim.density, "MAX_FINITE_FLOPS", count)
            density_finite(C4, g, "inj")
            monkeypatch.setattr(tourlim.density, "MAX_FINITE_FLOPS", count - 1)
            with pytest.raises(ValidationError, match="cost guard"):
                density_finite(C4, g, "inj")

    def test_guard_counts_once_per_terms_and_size(self, monkeypatch):
        import tourlim.density
        from tourlim.density import _flops, _terms, _work

        n = 123
        g = GeneralizedTournament(random_tournament(n, 4))
        _terms(C4, "inj", 1, n)
        _flops.cache_clear()
        calls = []

        def spy(*args):
            calls.append(args)
            return _work(*args)

        monkeypatch.setattr(tourlim.density, "_work", spy)
        assert density_finite(C4, g, "inj") == density_finite(C4, g, "inj")
        assert len(calls) == 1

    @pytest.mark.parametrize("f, mode", [(C4, "ind"), (DigraphPattern.cycle(5), "ind"),
                                         (DigraphPattern.transitive(5), "inj"),
                                         (P_A, "hom"), (P_A, "inj"), (P_B, "hom"), (P_B, "inj")])
    def test_ragged_slices_match_the_unsliced_plan(self, limits, f, mode):
        # 7 rows of the cut vertex per pass at n = 30: four passes of 7 rows
        # and one of 2
        from tourlim.density import _passes, _plan, _terms

        n = 30
        g = GeneralizedTournament(random_tournament(n, 7) * 0.8 + 0.1 * (1 - np.eye(n)))
        plans = [_plan(k, factors) for _, k, factors in _terms(f, mode, 1, n) if factors]
        width = max(plan.width for plan in plans)
        assert width >= 3
        limits(_MAX_ELEMENTS=n**width)
        whole = density_finite(f, g, mode)
        limits(_MAX_ELEMENTS=7 * n ** (width - 1))
        wide = [plan for plan in plans if plan.width == width]
        assert {len(_passes(plan, i, n)) for plan in wide for i in plan.sliced} == {5}
        assert density_finite(f, g, mode) == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("f, mode, n, sliced, zero_one", [
        pytest.param(C4, "ind", 300, True, True, id="C4-ind-300"),
        pytest.param(DigraphPattern.cycle(8), "inj", 60, False, True, id="C8-inj-60"),
        pytest.param(C4, "ind", 300, True, False, id="C4-ind-300-generalised"),
        pytest.param(DigraphPattern.cycle(8), "inj", 60, False, False,
                     id="C8-inj-60-generalised"),
    ])
    def test_sliced_steps_are_the_counted_steps(self, monkeypatch, f, mode, n, sliced, zero_one):
        # C4 ind at 300 slices its widest term.  C8 inj at 60 slices none,
        # but some of its terms make A.A three times, and the first of them
        # only feeds a vector that an earlier term memoised: the other two
        # make it once.  Every step of a term that is not tiny has at most
        # three operands, and the multiply-adds of the steps that run, read
        # off their operand shapes, are the guard's count: on a 0/1
        # tournament that of the terms without an edge both ways, on a
        # generalised one that of every term
        import tourlim.density
        from tourlim.density import _flops, _passes, _plan, _run, _terms

        terms = _terms(f, mode, 1, n, zero_one)
        assert sliced == any(len(_passes(_plan(k, ff), i, n)) > 1 for _, k, ff in terms if ff
                             for i in _plan(k, ff).sliced)
        a = random_tournament(n, 8)
        g = GeneralizedTournament(a if zero_one else 0.8 * a + 0.1 * (1 - np.eye(n)))
        executed = []

        def spy(step, ops, n):
            if step.op == "dot":
                i, j = step.spec
                size = ops[0].size * ops[1].size // ops[0].shape[i]
            else:
                size = math.prod(einsum_dims(step.spec, ops).values())
            executed.append((len(ops), step.count * size))
            return _run(step, ops, n)

        monkeypatch.setattr(tourlim.density, "_run", spy)
        density_finite(f, g, mode)
        assert max(arity for arity, _ in executed) <= 3
        assert sum(flops for _, flops in executed) == _flops(terms, n)

    def test_the_largest_parent_sizes_fit_the_ceiling(self, monkeypatch):
        # plan only: steps return zero-stride stand-ins of their output shape
        import tourlim.density

        sizes = []

        def shapes_only(step, ops, n):
            if step.op == "dot":
                i, j = step.spec
                shape = ops[0].shape[:i] + ops[0].shape[i + 1:] + ops[1].shape[:j] + ops[1].shape[j + 1:]
            else:
                dims = einsum_dims(step.spec, ops)
                shape = tuple(dims[x] for x in step.spec.split("->")[1])
            sizes.append(math.prod(shape))
            return np.broadcast_to(np.float64(0.0), shape)

        monkeypatch.setattr(tourlim.density, "_run", shapes_only)
        S33 = DigraphPattern.star(3, 3)
        C = DigraphPattern.cycle
        for f, mode, n in [(C(4), "ind", 359), (C(5), "ind", 99), (C(6), "ind", 43),
                           (C(7), "ind", 23), (C(8), "ind", 15), (S33, "ind", 24),
                           (DigraphPattern.transitive(8), "hom", 16)]:
            sizes.clear()
            density_finite(f, GeneralizedTournament(random_tournament(n, n)), mode)
            assert 0 < max(sizes) <= max(n * n, 2**24)
        # one row of C8 ind's 7-index intermediates holds 19^6 > 2^24 values
        sizes.clear()
        with pytest.raises(ValidationError, match="too wide"):
            density_finite(C(8), GeneralizedTournament(random_tournament(19, 19)), "ind")
        assert sizes == []

    def test_sliced_c4_ind_peak_memory(self):
        import tracemalloc

        g = GeneralizedTournament(random_tournament(350, 9))
        tracemalloc.start()
        try:
            density_finite(C4, g, "ind")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**24 * 8

    def test_t5_inj_at_100(self):
        # four terms of treewidth 3, 2, 2, 2: about 4e8 FLOPs, one n^3
        # intermediate; checked against numpy's own planner term by term
        from tourlim.density import _terms

        n = 100
        a = random_tournament(n, 5)
        start = time.perf_counter()
        got = density_finite(DigraphPattern.transitive(5), GeneralizedTournament(a), "inj")
        assert time.perf_counter() - start < 1.0
        want = 0.0
        for coef, k, factors in _terms(DigraphPattern.transitive(5), "inj", 1, n):
            spec = ",".join("abcdefgh"[u] + "abcdefgh"[v] for u, v, _ in factors) + "->"
            touched = len({x for u, v, _ in factors for x in (u, v)})
            ops = [a] * len(factors)
            want += coef * np.einsum(spec, *ops, optimize=("greedy", n**3)) * n ** (k - touched)
        assert got == pytest.approx(want / falling(n, 5), abs=1e-12)

    def test_s33_inj_at_2000_matches_closed_form(self):
        # plans are made once per pattern, independent of n
        density_finite(DigraphPattern.star(3, 3), GeneralizedTournament(random_tournament(9, 6)), "inj")
        n = 2000
        a = random_tournament(n, 6)
        g = GeneralizedTournament(a)
        start = time.perf_counter()
        got = density_finite(DigraphPattern.star(3, 3), g, "inj")
        assert time.perf_counter() - start < 1.0
        s = a.sum(axis=1)
        want = sum(falling(x, 3) * falling(n - 1 - x, 3) for x in s) / falling(n, 7)
        assert got == pytest.approx(want, abs=1e-12)


SMALL_CLASSES = [f for k in range(1, 6) for f in tournament_classes(k)]
LONG_CYCLES = [DigraphPattern.cycle(k) for k in (6, 7, 8)]
S11 = DigraphPattern.star(1, 1)


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def every_term(f, g, mode) -> float:
    """The ``mode`` density of ``f`` in g from every term with every
    factor, each step in float64: g's float64 matrix, not its bools, read
    as a generalised tournament."""
    from tourlim.density import _densities

    return _densities((f,), g.alpha, mode, 1)[0]


class TestZeroOneTournaments:
    """On a 0/1 tournament A(x, y) A(y, x) = 0 for every x and y, so the
    terms with an edge both ways are exactly 0 and are left out, and
    A(x, y)^2 = A(x, y), so a term keeps one copy of a repeated factor."""

    @pytest.mark.parametrize("seed, as_bools", [(0, False), (1, True)])
    def test_small_classes_and_long_cycles_match_bruteforce(self, seed, as_bools):
        # hom of the long cycles at 4 vertices, inj and ind at 8; the
        # classes of at most 4 vertices also at 14, where a 3-cycle's plain
        # sum, 3 * 14^3 = 8232 operations, exceeds 2^13, so that the terms
        # made by the rewrite under the 0/1 rules meet brute force too; the
        # value equals the float64 evaluation of every term to the bit
        hosts = {}
        for n in (4, 6, 8, 14):
            a = random_tournament(n, seed * 10 + n)
            hosts[n] = (a, GeneralizedTournament(a > 0.5 if as_bools else a))
        for f in SMALL_CLASSES + LONG_CYCLES:
            for mode in ("hom", "inj", "ind"):
                sizes = (6, 14) if f.k <= 4 else (6,) if f.k <= 5 else (4 if mode == "hom" else 8,)
                for a, g in map(hosts.get, sizes):
                    want = oracles.brute_density_finite(f, a, mode)
                    got = density_finite(f, g, mode)
                    assert got == pytest.approx(want, abs=1e-12)
                    assert float_bits(got) == float_bits(every_term(f, g, mode))

    @pytest.mark.parametrize("n, patterns", [
        pytest.param(30, SMALL_CLASSES + LONG_CYCLES, id="30"),
        pytest.param(200, [C3, C4, S11, DigraphPattern.transitive(4), DigraphPattern.cycle(5),
                           DigraphPattern.cycle(6)], id="200"),
        pytest.param(500, [C3, C4, S11], id="500"),
    ])
    def test_equal_bit_for_bit_to_every_term(self, n, patterns):
        from tourlim.density import _terms

        assert len(_terms(DigraphPattern.cycle(8), "inj", 1, 30, True)) < len(
            _terms(DigraphPattern.cycle(8), "inj", 1, 30))
        g = GeneralizedTournament(random_tournament(n, n) > 0.5)
        compared = 0
        for f in patterns:
            for mode in ("hom", "inj", "ind"):
                try:
                    every = every_term(f, g, mode)
                except ValidationError:
                    continue  # every term together is refused
                assert float_bits(density_finite(f, g, mode)) == float_bits(every)
                compared += 1
        assert compared >= 2 * len(patterns)

    def test_repeated_factors_are_kept_once(self):
        # A(x, y)^2 = A(x, y) on a 0/1 tournament: at 30 every term holds
        # each factor once and no edge both ways, and the swap rule under
        # the same rules leaves it as it is; densities equal brute force
        # where it can enumerate the maps
        # (``test_equal_bit_for_bit_to_every_term`` checks the values
        # against every term with every factor)
        from tourlim.density import _EDGE, _symmetrize, _terms

        T4 = DigraphPattern.transitive(4)
        assert any(len(set(ff)) < len(ff) for _, _, ff in _terms(T4, "hom", 1, 30))
        a = random_tournament(30, 31)
        g = GeneralizedTournament(a > 0.5)
        for f in SMALL_CLASSES + LONG_CYCLES:
            for mode in ("hom", "inj", "ind"):
                for _, k, factors in _terms(f, mode, 1, 30, True):
                    assert len(set(factors)) == len(factors), (f, mode, factors)
                    edges = {(u, v) for u, v, kind in factors if kind == _EDGE}
                    assert not any((v, u) in edges for u, v in edges), (f, mode, factors)
                    assert _symmetrize(k, factors, 1, True) == ((1.0, k, factors),), (f, mode)
                if f.k <= 3:
                    want = oracles.brute_density_finite(f, a, mode)
                    assert density_finite(f, g, mode) == pytest.approx(want, abs=1e-12)

    def test_c3_inj_reads_no_factor_twice(self, monkeypatch):
        # its 0.5 hom(A(b, a) A(b, a)) keeps A(b, a) once, and the swap rule
        # makes that the constant (n^2 - n) / 4: no step sums A's rows
        # (ba->b) or a vector (b->)
        import tourlim.density
        from tourlim.density import _densities, _run

        steps = []

        def spy(step, ops, n):
            factors = [id(op) for op in ops if op.ndim == 2]
            assert len(set(factors)) == len(factors), step
            steps.append(step.spec)
            return _run(step, ops, n)

        a = random_tournament(500, 5)
        want = _densities((C3,), a, "inj", 1)[0]
        monkeypatch.setattr(tourlim.density, "_run", spy)
        got = density_finite(C3, GeneralizedTournament(a > 0.5), "inj")
        assert steps and "ba->b" not in steps and "b->" not in steps
        assert float_bits(got) == float_bits(want)

    def test_kernels_and_generalised_inputs_plan_every_term(self, monkeypatch):
        import tourlim.density

        seen = []
        priced = tourlim.density._priced

        def spy(patterns, mode, c, n, zero_one=False):
            seen.append(zero_one)
            return priced(patterns, mode, c, n, zero_one)

        monkeypatch.setattr(tourlim.density, "_priced", spy)
        a = random_tournament(40, 3)
        w = random_step_kernel(5, seed=1)
        density_kernel(C4, w)
        fingerprint(w, 3)
        density_finite(C4, GeneralizedTournament(0.8 * a + 0.1 * (1 - np.eye(40))), "inj")
        assert seen == [False] * 3
        density_finite(C4, GeneralizedTournament(a), "inj")
        density_finite(C4, GeneralizedTournament(a > 0.5), "inj")
        assert seen == [False] * 3 + [True] * 2

    def test_admissions_move_only_for_0_1_tournaments(self):
        # C8 inj plans 9.86e10 FLOPs at 259 vertices and C7 inj 3.92e9 with
        # every term, 1.02e11 together; on a 0/1 tournament the two plan
        # 4.92e9 together, and 1.01e11 at 710, where each fits alone
        from tourlim.density import _flops, _priced, _terms

        def planned(f, mode, n, zero_one):
            try:
                return _flops(_terms(f, mode, 1, n, zero_one), n)
            except ValidationError:
                return math.inf  # a term too wide

        # a 0/1 tournament plans at most what a generalised one does, but
        # for 12 to 16 vertices: there a 3-vertex term that keeps fewer
        # factors may turn tiny, and its plain sum runs as one step but
        # counts more than the elimination it replaces
        stars = [DigraphPattern.star(a, b) for a in range(8) for b in range(8 - a)]
        transitive = [DigraphPattern.transitive(k) for k in (6, 7)]
        for f in SMALL_CLASSES + LONG_CYCLES + transitive + stars:
            for mode in ("hom", "inj", "ind"):
                for n in (8, 11, 17, 30, 100, 257, 1000):
                    if mode == "hom" or f.k <= n:
                        assert planned(f, mode, n, True) <= planned(f, mode, n, False), (f, mode, n)

        C7, C8 = DigraphPattern.cycle(7), DigraphPattern.cycle(8)
        _priced([C8], "inj", 1, 259)
        _priced([C7], "inj", 1, 259)
        with pytest.raises(ValidationError, match="cost guard"):
            _priced([C8, C7], "inj", 1, 259)
        _priced([C8, C7], "inj", 1, 259, True)
        _priced([C8], "inj", 1, 710, True)
        _priced([C7], "inj", 1, 710, True)
        with pytest.raises(ValidationError, match="cost guard"):
            _priced([C8, C7], "inj", 1, 710, True)


class TestExactArithmetic:
    """A 0/1 tournament is contracted as float32: a step whose subtree sums
    e vertices has integer values of at most n^e and runs in float32 when
    n^e <= 2^24, else in float64.  Both are exact up to 2^53, so there
    every density equals the float64 evaluation of every term to the bit."""

    @staticmethod
    def spy_precisions(monkeypatch) -> list:
        """Spies on ``_run``: the list it returns collects, per step run,
        n^summed and the dtypes of the step's operands and of its result."""
        import tourlim.density
        from tourlim.density import _run

        seen = []

        def spy(step, ops, n):
            out = _run(step, ops, n)
            seen.append((n ** step.summed, {op.dtype for op in ops}, out.dtype))
            return out

        monkeypatch.setattr(tourlim.density, "_run", spy)
        return seen

    @pytest.mark.parametrize("n, patterns", [
        pytest.param(30, SMALL_CLASSES + LONG_CYCLES, id="30"),
        # 256^3 = 2^24: the steps of three summed vertices are float32 at
        # 256 and float64 at 257
        pytest.param(256, SMALL_CLASSES[:8] + [C4, S11], id="256"),
        pytest.param(257, SMALL_CLASSES[:8] + [C4, S11], id="257"),
    ])
    def test_bools_equal_the_float64_path_bit_for_bit(self, monkeypatch, n, patterns):
        assert max(f.k for f in SMALL_CLASSES[:8]) == 4
        g = GeneralizedTournament(random_tournament(n, n) > 0.5)
        seen = self.spy_precisions(monkeypatch)
        results = set()
        compared = 0
        for f in patterns:
            for mode in ("hom", "inj", "ind"):
                try:
                    want = every_term(f, g, mode)
                except ValidationError:
                    continue  # every term together is refused
                seen.clear()
                assert float_bits(density_finite(f, g, mode)) == float_bits(want), (f, mode)
                if n > 30:
                    # the steps of three summed vertices
                    results.update(out for size, _, out in seen if size == n**3)
                compared += 1
        assert compared >= 2 * len(patterns)
        if n > 30:
            assert results == {np.dtype(np.float32 if n == 256 else np.float64)}

    @pytest.mark.parametrize("n", [98, 99])
    def test_c8_takes_the_exact_path_up_to_2_53(self, monkeypatch, n):
        # 98^8 < 2^53 < 99^8: at 98 the value equals the float64 evaluation
        # of every term to the bit, at 99 to rounding.  At both sizes every
        # step whose values fit in 2^24 reads float32 operands only, and
        # every other step makes float64
        C8 = DigraphPattern.cycle(8)
        g = GeneralizedTournament(random_tournament(n, n) > 0.5)
        compared = 0
        for mode in ("hom", "inj", "ind"):
            try:
                want = every_term(C8, g, mode)
            except ValidationError:
                continue  # one row of C8 ind's widest terms exceeds 2^24 values
            with monkeypatch.context() as m:
                seen = self.spy_precisions(m)
                got = density_finite(C8, g, mode)
            if n == 98:
                assert float_bits(got) == float_bits(want), mode
            else:
                assert abs(got - want) <= 1e-12 * abs(want), (mode, got, want)
            assert {np.dtype(np.float32)} == set().union(
                *(ops for size, ops, _ in seen if size <= 2**24)), mode
            assert {out for size, _, out in seen if size > 2**24} == {np.dtype(np.float64)}, mode
            compared += 1
        assert compared == 2

    def test_c4_inj_product_at_500_runs_on_float32(self, monkeypatch):
        # the one A.A product of C4 inj reads the float32 cast of the bools
        import tourlim.density
        from tourlim.density import _run

        products = []

        def spy(step, ops, n):
            if step.op == "dot":
                products.append([op.dtype for op in ops])
            return _run(step, ops, n)

        g = GeneralizedTournament(random_tournament(500, 5) > 0.5)
        want = every_term(C4, g, "inj")
        monkeypatch.setattr(tourlim.density, "_run", spy)
        got = density_finite(C4, g, "inj")
        assert products == [[np.float32, np.float32]]
        assert float_bits(got) == float_bits(want)


class TestStarDensity:
    def test_constant_half(self):
        w = StepKernel(np.full((2, 2), 0.5))
        for m, n in [(0, 0), (1, 1), (2, 3)]:
            assert star_density(w, m, n) == pytest.approx(0.5 ** (m + n), abs=1e-15)

    def test_vertex_density_is_one(self):
        assert star_density(StepKernel([[0.5]]), 0, 0) == 1.0

    def test_identity_limit_one_sixth(self):
        # transitive kernels have the midpoint-identity score cells
        for m in (10, 100, 400):
            s = star_density(transitive_kernel(m), 1, 1)
            assert abs(s - 1 / 6) <= 1 / (4 * m * m)

    @given(step_kernels(min_n=1, max_n=6), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_agrees_with_pattern_density(self, w, m, n):
        assert star_density(w, m, n) == pytest.approx(
            density_kernel(DigraphPattern.star(m, n), w), abs=1e-12
        )


class TestC3FromDegree:
    def test_constant_half(self):
        w = StepKernel(np.full((3, 3), 0.5))
        assert c3_from_degree(w) == pytest.approx(1 / 8, abs=1e-15)

    def test_transitive_tends_to_zero(self):
        values = [c3_from_degree(transitive_kernel(n)) for n in (3, 9, 27)]
        assert values[0] > values[1] > values[2] > 0
        assert values[2] == pytest.approx(1 / (8 * 27 * 27), abs=1e-12)

    @given(step_kernels(min_n=1, max_n=10))
    @settings(max_examples=80)
    def test_identity_with_density(self, w):
        assert abs(c3_from_degree(w) - density_kernel(C3, w)) <= 1e-12

    @given(step_kernels(min_n=1, max_n=8))
    @settings(max_examples=40)
    def test_transitivity_criterion_via_second_moment(self, w):
        from tourlim import moments_of_score_function, score_function_of_kernel

        a = moments_of_score_function(score_function_of_kernel(w), 2)
        c3 = c3_from_degree(w)
        # c3 = 1/2 - 3/2 a_2 whenever a_1 = 1/2 (always true for kernels)
        assert abs(a.a[1] - 0.5) < 1e-12
        assert c3 == pytest.approx(0.5 - 1.5 * a.a[2], abs=1e-12)


class TestFingerprint:
    def test_class_counts(self):
        w = StepKernel(np.full((2, 2), 0.5))
        fp = fingerprint(w, 5)
        sizes = {}
        for key in fp.entries:
            k = int(key.split(":")[0])
            sizes[k] = sizes.get(k, 0) + 1
        assert sizes == {1: 1, 2: 1, 3: 2, 4: 4, 5: 12}

    def test_constant_half_densities(self):
        fp = fingerprint(StepKernel(np.full((2, 2), 0.5)), 3)
        for key, value in fp.entries.items():
            k = int(key.split(":")[0])
            assert value == pytest.approx(0.5 ** (k * (k - 1) // 2), abs=1e-15)

    def test_differs_between_half_and_transitive(self):
        half = fingerprint(StepKernel(np.full((3, 3), 0.5)), 3)
        trans = fingerprint(transitive_kernel(3), 3)
        assert half.differs_from(trans)
        assert not half.differs_from(half)

    @given(step_kernels(min_n=2, max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_relabelling_invariance(self, w, rnd):
        perm = list(range(w.n))
        rnd.shuffle(perm)
        pulled = StepKernel(w.blocks[np.ix_(perm, perm)].copy())
        a = fingerprint(w, 3)
        b = fingerprint(pulled, 3)
        for key in a.entries:
            assert a.entries[key] == pytest.approx(b.entries[key], abs=1e-12)

    def test_selfconverse_kernel_fingerprint_is_conversion_invariant(self):
        from tourlim import ScoreSequence, realize_self_converse

        g = realize_self_converse(ScoreSequence(np.array([1, 1, 2, 2]), "integer"))
        w = step_kernel_from_tournament(g)
        fp = fingerprint(w, 4)
        fp_conv = fingerprint(converse(w), 4)
        for key in fp.entries:
            assert fp.entries[key] == pytest.approx(fp_conv.entries[key], abs=1e-12)

    def test_order_guard(self):
        with pytest.raises(ValidationError):
            fingerprint(StepKernel([[0.5]]), 6)

    def test_json_shape(self):
        fp = fingerprint(StepKernel([[0.5]]), 2)
        d = fp.to_json_dict()
        assert d["K"] == 2
        assert all(set(e) == {"pattern", "density"} for e in d["entries"])
