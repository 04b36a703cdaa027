"""Seeded random tournaments from a step kernel, self-converse pair sampling,
empirical degree data and convergence diagnostics.

Randomness contract: PCG64 streams derived from (seed, stream key) via
SeedSequence spawn keys, one independent stream per repetition, so identical
configuration yields bit-identical samples and repetitions may run in any
order.  A sampler refuses, before drawing anything, a size whose n x n
float64 matrix would exceed 2 GiB (n > 16384).

``convergence_report`` runs the repetitions of each size from
``_PARALLEL_FROM`` (256) vertices up on a thread pool, and smaller sizes
serially through the same per-repetition function.  The results are
collected in repetition order, so the report is bit-identical to the serial
order for any worker count.  The workers are at most the CPUs in the
process's affinity mask (so ``taskset`` limits them, and a process pinned to
one CPU runs serially), the repetitions, and the n x n float64 matrices
that fit together in the 2 GiB matrix budget.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DegreeDistribution,
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    _MAX_MATRIX_BYTES,
    _check_matrix_size,
    _row_counts,
    _w1,
    degree_distribution,
    scores_of_tournament,
)
from .density import _densities, _priced, density_kernel


@dataclass(frozen=True)
class SampleConfig:
    n: int
    seed: int = 0
    reps: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("sample size n must be at least 1")
        if self.reps < 1:
            raise ValidationError("repetition count must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


def _rng(seed: int, key) -> np.random.Generator:
    if not isinstance(key, tuple):
        key = (key,)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    )


def _cells_of(x: np.ndarray, blocks: int) -> np.ndarray:
    return np.minimum((x * blocks).astype(int), blocks - 1)


def random_step_kernel(n: int, seed: int = 0, rep=0) -> StepKernel:
    """A random kernel with i.i.d. uniform values above the diagonal and
    exact complements below it."""
    u = np.triu(_rng(seed, rep).random((n, n)), 1)
    return StepKernel(u + np.tril(1.0 - u.T, -1) + np.eye(n) / 2)


_DRAW_BLOCK = 1 << 16
"""About how many uniforms a sampler draws at a time."""


def _draw_pairs(rng: np.random.Generator, blocks: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, out: np.ndarray, flip: bool) -> None:
    """Orient every pair of the n x n bool matrix ``out`` by one draw.

    With u = rng.random((n, n)), for i < j the draw is u[i, j] <
    blocks[rows[i], cols[j]]; out[i, j] is the draw and out[j, i] its
    negation when ``flip``, else the draw again.  The diagonal is False
    when ``flip``, else drawn likewise.  u comes a block of about
    _DRAW_BLOCK entries at a time, which consumes the stream as the one
    (n, n) draw does, and each block's rows are compared from their
    diagonal on and mirrored while they are in cache.
    """
    n = len(rows)
    step = min(n, max(1, _DRAW_BLOCK // n))
    u = np.empty((step, n))
    wins = np.empty((step, n), bool)
    above = ~np.tri(step, dtype=bool)
    for r in range(0, n, step):
        k = min(step, n - r)
        rng.random(out=u[:k])
        band = np.less(u[:k, r:], blocks[rows[r:r + k]][:, cols[r:]], out=wins[:k, r:])
        # the block's rows from the diagonal on, and their mirror column;
        # the square where the two meet keeps the rows' upper triangle
        lower = out[r:, r:r + k]
        if flip:
            np.logical_not(band.T, out=lower)
        else:
            lower[...] = band.T
        out[r:r + k, r + k:] = band[:, k:]
        corner = out[r:r + k, r:r + k]
        np.copyto(corner, band[:, :k], where=above[:k, :k])
        if flip:
            np.fill_diagonal(corner, False)


def sample_tournament(w: StepKernel, cfg: SampleConfig, rep=0) -> GeneralizedTournament:
    """One W-random tournament G(n, W).

    Draws latent positions X_1..X_n uniformly, then orients each pair i < j
    towards j with probability W(X_i, X_j); for a step kernel only the cell
    of X matters.
    """
    _check_matrix_size(cfg.n)
    rng = _rng(cfg.seed, rep)
    cells = _cells_of(rng.random(cfg.n), w.n)
    wins = np.empty((cfg.n, cfg.n), bool)
    _draw_pairs(rng, w.blocks, cells, cells, wins, flip=True)
    return GeneralizedTournament._handed(wins)


def witness_permutation(n: int) -> np.ndarray:
    """The vertex swap v_i <-> w_i on the 2n vertices of a paired sample."""
    return np.concatenate([np.arange(n, 2 * n), np.arange(n)])


_CHECK_ROWS = 128


def _reversed_by(a: np.ndarray, perm: np.ndarray) -> bool:
    """Whether relabelling the square matrix ``a`` by perm gives exactly
    its transpose, checked _CHECK_ROWS rows of the relabelled matrix at a
    time."""
    for r in range(0, len(a), _CHECK_ROWS):
        rows = a[perm[r:r + _CHECK_ROWS]][:, perm]
        if not np.array_equal(rows, a[:, r:r + _CHECK_ROWS].T):
            return False
    return True


def is_selfconverse_under(g: GeneralizedTournament, perm: np.ndarray) -> bool:
    """Exact check that relabelling by perm reverses every orientation."""
    return _reversed_by(g._entries, np.asarray(perm))


def sample_self_converse(
    w: StepKernel, sigma: np.ndarray, cfg: SampleConfig, rep=0
) -> GeneralizedTournament:
    """A self-converse random tournament on 2n vertices {v_1..v_n, w_1..w_n}.

    Requires a block involution sigma with W(x, y) = W(sigma(y), sigma(x)).
    The v-side is an ordinary W-random tournament; w-edges mirror reversed
    v-edges; cross pairs (v_i, w_j) with i <= j are drawn with probability
    W(X_i, sigma(X_j)) and the remaining cross pairs copy their mirrors,
    so that swapping v_i <-> w_i reverses the whole edge set exactly.
    The diagonal pair (v_i, w_i) is its own mirror and is simply drawn.
    """
    _check_matrix_size(2 * cfg.n)
    n = w.n
    sigma = np.asarray(sigma, dtype=int)
    if sigma.shape != (n,) or sorted(sigma.tolist()) != list(range(n)):
        raise ValidationError("sigma must be a permutation of the blocks")
    if not np.array_equal(sigma[sigma], np.arange(n)):
        raise ValidationError("sigma must be an involution")
    pulled = w.blocks[np.ix_(sigma, sigma)].T
    if np.max(np.abs(pulled - w.blocks)) > 1e-12:
        raise ValidationError(
            "kernel is not strongly self-converse under sigma"
        )

    rng = _rng(cfg.seed, rep)
    m = cfg.n
    cells = _cells_of(rng.random(m), n)
    # out[i, j]: v_i -> v_j; out[i, m + j]: v_i -> w_j, drawn for i <= j
    # and mirrored
    out = np.empty((2 * m, 2 * m), bool)
    _draw_pairs(rng, w.blocks, cells, cells, out[:m, :m], flip=True)
    _draw_pairs(rng, w.blocks, cells, sigma[cells], out[:m, m:], flip=False)
    # w_i -> w_j iff v_j -> v_i, and w_j -> v_i iff not v_i -> w_j (the
    # cross block is its own transpose)
    out[m:, m:] = out[:m, :m].T
    np.logical_not(out[:m, m:], out=out[m:, :m])
    if not _reversed_by(out, witness_permutation(m)):
        raise RuntimeError("sampled tournament is not self-converse under the witness")
    return GeneralizedTournament._handed(out)


def empirical_degree_distribution(g: GeneralizedTournament) -> DegreeDistribution:
    """The multiset of normalised out-scores d_i / n as an atomic law."""
    scores = np.asarray(scores_of_tournament(g).values, dtype=float)
    return DegreeDistribution.from_samples(scores / g.n)


@dataclass(frozen=True)
class ConvergenceRow:
    pattern: str
    n: int
    mean: float
    stderr: float
    exact: float


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    rows: tuple
    w1_samples: dict  # size -> tuple of per-rep Wasserstein-1 distances

    def to_csv(self) -> str:
        lines = ["pattern,n,mean,stderr,exact"]
        for r in self.rows:
            lines.append(f"{r.pattern},{r.n},{r.mean!r},{r.stderr!r},{r.exact!r}")
        return "\n".join(lines) + "\n"


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


_PARALLEL_FROM = 256
"""The smallest sample size whose repetitions run concurrently.  Below it
the threads mostly wait for the interpreter lock, which each repetition
holds between its numpy calls: on a 2-vCPU VM, 12 repetitions of S0,1,
S1,1 and C3 on two threads took 1.9-2.1x the serial time at n = 100,
0.66-0.87x at n = 256 and 300 (faster in 7-10 of 10 pairs) and
0.75-0.83x at n = 500 (10 of 10), with bool scores counted in uint16
(medians of 10 alternating pairs, which vary with the host's load).  At
n = 200 the sets of pairs disagree: 0.91x and 0.92x (10 and 9 of 10)
where it was the first size its process ran, 1.08-1.41x (0-2 of 10)
where it ran after n = 100."""


def _workers(size: int, reps: int) -> int:
    """How many repetitions of samples of ``size`` run at once: one below
    ``_PARALLEL_FROM``, else as many as there are repetitions, CPUs this
    process may run on, and n x n float64 matrices within
    ``_MAX_MATRIX_BYTES``."""
    if size < _PARALLEL_FROM:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, reps, _MAX_MATRIX_BYTES // (8 * size * size))


def _repetition(w: StepKernel, fs: list, target: DegreeDistribution, size: int,
                seed: int, key: tuple) -> tuple:
    """The injective densities of ``fs`` and the degree distribution's
    Wasserstein-1 distance to ``target`` of the sample of repetition ``key``."""
    g = sample_tournament(w, SampleConfig(size, seed, 1), rep=key)
    wins = g._entries
    return _densities(fs, wins, "inj", 1), _score_w1(wins, target)


def _score_w1(wins: np.ndarray, target: DegreeDistribution) -> float:
    """``wasserstein1(empirical_degree_distribution(g), target)`` for the
    bool matrix ``wins`` of a tournament g, from its integer scores without
    building the distribution: its atoms are the distinct scores over n,
    and an atom of c scores weighs the c-th partial sum of 1/n, the sum
    that DegreeDistribution's merge of c equal atoms adds up."""
    n = len(wins)
    counts = np.bincount(_row_counts(wins), minlength=n)
    seen = np.flatnonzero(counts)
    weights = np.cumsum(np.full(n, 1.0 / n))[counts[seen] - 1]
    return _w1(seen / n, weights, target.positions, target.weights)


def convergence_report(
    w: StepKernel,
    patterns: dict[str, DigraphPattern],
    sizes,
    cfg: SampleConfig,
) -> ConvergenceReport:
    """Empirical injective densities and degree-distribution distances of
    W-random tournaments against their kernel values, per pattern and size.

    The per-size Wasserstein-1 samples are reported both as summary rows
    (pattern name "degree_w1", exact 0) and raw in ``w1_samples``.
    Sizes must be distinct.  The matrix budget of the largest size and, per
    size, the cost guard of the patterns' densities together, as one
    repetition contracts them with one memo, are checked before the kernel
    densities and the first draw.

    From ``_PARALLEL_FROM`` vertices a size's repetitions run on up to
    ``_workers`` threads; each draws from its own stream and their results
    are collected in repetition order, so the report is bit-identical to a
    serial run.  An exception in a repetition is raised unchanged.
    """
    if len(set(sizes)) != len(sizes):
        raise ValidationError("sample sizes must be distinct")
    _check_matrix_size(max(sizes, default=0))
    fs = list(patterns.values())
    for size in sizes:
        # every sample is a 0/1 tournament
        _priced(fs, "inj", 1, size, True)
    target = degree_distribution(w)
    exact = {name: density_kernel(f, w) for name, f in patterns.items()}
    results = {}
    for si, size in enumerate(sizes):
        run = partial(_repetition, w, fs, target, size, cfg.seed)
        keys = [(si, r) for r in range(cfg.reps)]
        workers = _workers(size, cfg.reps)
        if workers > 1:
            # about 4 ms to import, paid only by a call that uses it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(workers) as pool:
                results[size] = list(pool.map(run, keys))
        else:
            results[size] = list(map(run, keys))
    rows = []
    for i, name in enumerate(patterns):
        for size in sizes:
            mean, stderr = _mean_stderr([values[i] for values, _ in results[size]])
            rows.append(ConvergenceRow(name, size, mean, stderr, exact[name]))
    w1_samples = {size: tuple(w1 for _, w1 in results[size]) for size in sizes}
    for size in sizes:
        mean, stderr = _mean_stderr(w1_samples[size])
        rows.append(ConvergenceRow("degree_w1", size, mean, stderr, 0.0))
    return ConvergenceReport(tuple(rows), w1_samples)
