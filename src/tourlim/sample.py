"""Seeded random tournaments from a step kernel, self-converse pair sampling,
empirical degree data and convergence diagnostics.

Randomness contract: PCG64 streams derived from (seed, stream key) via
SeedSequence spawn keys, one independent stream per repetition, so identical
configuration yields bit-identical samples and repetitions may run in any
order.  A sample of n vertices takes n uniforms for the latent positions,
then decides each arc from one byte of ceil(n^2 / 8) raw 64-bit outputs and
settles the ties, one pair in 256, with one uniform each (``_draw_pairs``):
an arc of kernel value p has probability p exactly whenever p is a multiple
of 2^-61, as every p >= 2^-9 is.  A sampler refuses, before drawing
anything, a size whose n x n float64 matrix would exceed 2 GiB (n > 16384).

``convergence_report`` runs the repetitions of each size from
``_PARALLEL_FROM`` (600) vertices up on a thread pool, and smaller sizes
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
    _cdf,
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
"""About how many random bytes, one per pair, a sampler draws at a time.
Each block is a whole number of 64-bit words, so the blocks read the
stream as one draw of the (n, n) byte matrix would: samples do not depend
on this value."""


def _draw_pairs(rng: np.random.Generator, split: tuple, rows: np.ndarray,
                cols: np.ndarray, out: np.ndarray, flip: bool) -> None:
    """Orient every pair of the n x n bool matrix ``out`` by one draw.

    The pairs drawn are i < j when ``flip``, else i <= j.  With hi and lo
    the ``StepKernel._split`` of the kernel value p = W(rows[i], cols[j]),
    pair (i, j) reads byte B[i, j] of the (n, n) byte matrix B: the
    little-endian bytes of ceil(n^2 / 8) consecutive 64-bit outputs of
    rng's bit generator, row-major.  B < hi wins and B > hi loses.  A tie,
    of probability 1/256, is settled after all the bytes, the tied pairs in
    row-major order, by one ``rng.random(T)``: u < lo wins.  So a pair wins
    with probability hi / 256 + ceil(lo 2^53) / 2^61, which is p exactly
    when p is a multiple of 2^-61, as every p >= 2^-9 is, and otherwise
    exceeds it by less than 2^-61.

    out[i, j] is the draw and out[j, i] its negation when ``flip``, else
    the draw again; the diagonal is False when ``flip``.  B comes in blocks
    of rows of about _DRAW_BLOCK bytes, each a whole number of words, and
    each block's rows are compared from their diagonal on and mirrored
    while they are in cache.
    """
    n = len(rows)
    hi, lo = split
    # a block of a multiple of 8 / gcd(n, 8) rows ends on a word boundary
    q = 8 // math.gcd(n, 8)
    step = min(n, max(q, _DRAW_BLOCK // n // q * q))
    wins = np.empty((step, n), bool)
    # the pairs of a block's corner square that are drawn; int16 compares
    # faster than int64, and a block has fewer than 2^15 rows
    ar = np.arange(step, dtype=np.int16)
    drawn = (np.less if flip else np.less_equal).outer(ar, ar)
    raw = rng.bit_generator.random_raw
    tied = []
    for r in range(0, n, step):
        k = min(step, n - r)
        b = raw(-(-k * n // 8)).astype("<u8", copy=False).view(np.uint8)
        b = b[:k * n].reshape(k, n)[:, r:]
        h = hi[rows[r:r + k]][:, cols[r:]]
        band = np.less(b, h, out=wins[:k, r:])
        tie = b == h
        tie[:, :k] &= drawn[:k, :k]
        at = np.flatnonzero(tie)
        if len(at):
            # pair (r + a // (n - r), r + a % (n - r)) as its index i n + j
            tied.append(at + at // (n - r) * r + r * (n + 1) if r else at)
        # the block's rows from the diagonal on, and their mirror column;
        # the square where the two meet keeps the rows' upper triangle
        lower = out[r:, r:r + k]
        if flip:
            np.logical_not(band.T, out=lower)
        else:
            lower[...] = band.T
        out[r:r + k, r + k:] = band[:, k:]
        np.copyto(out[r:r + k, r:r + k], band[:, :k], where=drawn[:k, :k])
    if flip:
        np.fill_diagonal(out, False)
    if tied:
        i, j = np.divmod(np.concatenate(tied), n)
        won = rng.random(len(i)) < lo[rows[i], cols[j]]
        out[i, j] = won
        out[j, i] = ~won if flip else won


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
    _draw_pairs(rng, w._split, cells, cells, wins, flip=True)
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
    _draw_pairs(rng, w._split, cells, cells, out[:m, :m], flip=True)
    _draw_pairs(rng, w._split, cells, sigma[cells], out[:m, m:], flip=False)
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


_PARALLEL_FROM = 600
"""The smallest sample size whose repetitions run concurrently.  Below it
the threads mostly wait for the interpreter lock, which each repetition
holds between its numpy calls; the byte draw left little RNG work outside
it.  On a 2-vCPU VM, 12 repetitions of S0,1, S1,1 and C3 on two threads
took 1.20-1.28x the serial time at n = 100 and 200 (faster in 0 of 10
pairs), 1.04-1.21x at 256, 300 and 400 (0-3 of 10), 0.97-1.11x at 500
(2-8 of 10 over three sets) and 1.01-1.04x at 450 and 550 (3-5 of 10),
but 0.81-0.97x at 600 (7 and 9 of 10), 0.91-0.93x at 700 (6 and 9 of 10)
and 0.78-0.81x at 800 and 900 (10 of 10): medians of 10 alternating
pairs, which vary with the host's load."""


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


def _repetition(w: StepKernel, fs: list, target: DegreeDistribution, tables: tuple,
                size: int, seed: int, key: tuple) -> tuple:
    """The injective densities of ``fs`` and the degree distribution's
    Wasserstein-1 distance to ``target``, with ``tables`` its
    ``_w1_tables``, of the sample of repetition ``key``."""
    g = sample_tournament(w, SampleConfig(size, seed, 1), rep=key)
    wins = g._entries
    return _densities(fs, wins, "inj", 1), _score_w1(wins, target, tables)


def _w1_tables(target: DegreeDistribution, n: int) -> tuple:
    """The tables ``_score_w1`` reads, made once per size: the CDF table
    of ``target`` and the partial sums of 1/n."""
    return _cdf(target.weights), np.cumsum(np.full(n, 1.0 / n))


def _score_w1(wins: np.ndarray, target: DegreeDistribution, tables: tuple | None = None) -> float:
    """``wasserstein1(empirical_degree_distribution(g), target)`` for the
    bool matrix ``wins`` of a tournament g, from its integer scores without
    building the distribution: its atoms are the distinct scores over n,
    and an atom of c scores weighs the c-th partial sum of 1/n, the sum
    that DegreeDistribution's merge of c equal atoms adds up.  ``tables``
    is ``_w1_tables(target, n)``, made here when it is not given."""
    n = len(wins)
    cdf, partials = tables or _w1_tables(target, n)
    counts = np.bincount(_row_counts(wins), minlength=n)
    seen = np.flatnonzero(counts)
    return _w1(seen / n, _cdf(partials[counts[seen] - 1]), target.positions, cdf)


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
        run = partial(_repetition, w, fs, target, _w1_tables(target, size), size, cfg.seed)
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
