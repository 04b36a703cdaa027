"""Seeded random tournaments from a step kernel, self-converse pair sampling,
empirical degree data and convergence diagnostics.

Randomness contract: PCG64 streams derived from (seed, stream key) via
SeedSequence spawn keys, one independent stream per repetition, so identical
configuration yields bit-identical samples and repetitions may run in any
order.  A sampler refuses, before drawing anything, a size whose n x n
float64 matrix would exceed 2 GiB (n > 16384).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegreeDistribution,
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    _check_matrix_size,
    degree_distribution,
    scores_of_tournament,
    wasserstein1,
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
    return GeneralizedTournament(wins)


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
    return _reversed_by(g.alpha, np.asarray(perm))


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
    # the witness is checked on the bools, which convert exactly
    if not _reversed_by(out, witness_permutation(m)):
        raise RuntimeError("sampled tournament is not self-converse under the witness")
    return GeneralizedTournament(out)


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
    """
    if len(set(sizes)) != len(sizes):
        raise ValidationError("sample sizes must be distinct")
    _check_matrix_size(max(sizes, default=0))
    fs = list(patterns.values())
    for size in sizes:
        _priced(fs, "inj", 1, size)
    target = degree_distribution(w)
    exact = {name: density_kernel(f, w) for name, f in patterns.items()}
    rows = []
    w1_samples: dict[int, tuple] = {}
    stats: dict[str, dict[int, list[float]]] = {name: {} for name in patterns}
    for si, size in enumerate(sizes):
        w1s = []
        for r in range(cfg.reps):
            g = sample_tournament(w, SampleConfig(size, cfg.seed, 1), rep=(si, r))
            for name, value in zip(patterns, _densities(fs, g.alpha, "inj", 1)):
                stats[name].setdefault(size, []).append(value)
            w1s.append(wasserstein1(empirical_degree_distribution(g), target))
        w1_samples[size] = tuple(w1s)
    for name in patterns:
        for size in sizes:
            mean, stderr = _mean_stderr(stats[name][size])
            rows.append(ConvergenceRow(name, size, mean, stderr, exact[name]))
    for size in sizes:
        mean, stderr = _mean_stderr(w1_samples[size])
        rows.append(ConvergenceRow("degree_w1", size, mean, stderr, 0.0))
    return ConvergenceReport(tuple(rows), w1_samples)
