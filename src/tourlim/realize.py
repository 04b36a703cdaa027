"""Constructive realizations.

Score sequences are realised by peeling one vertex at a time, the
constructive proof of Landau's theorem and of Moon's extension to
generalised tournaments.  Each step settles every game of the peeled vertex
against the vertices still left: on integer scores it loses to the
vertices with the largest residual scores, on real scores the losses are
spread by water-filling.  Both kinds run in the same loop in O(n^2 log n)
numpy work; integer input comes back as a 0/1 tournament.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .conditions import DEFAULT_TOL, _exact, check_condition_I, check_eplett, check_landau
from .core import (
    GeneralizedTournament,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    ValidationError,
    _check_matrix_size,
    _sorted_distinct,
    scores_of_tournament,
    step_kernel_from_tournament,
)


def _water_fill(r: np.ndarray, total: float) -> np.ndarray:
    """clip(r - t, 0, 1) with the level t set so that its sum is total.

    Prefix sums only locate the bracket of t among the levels r and r - 1;
    t is then solved on the partially clipped entries with exactly rounded
    sums, and the residue of the final sum goes to the entry with the most
    room on both sides.
    """
    k = len(r)
    if total <= 0:
        return np.zeros(k)
    if total >= k:
        return np.ones(k)
    a = np.sort(r)
    # r holds no -0.0 (scores are stored as max(v, 0.0)): np.unique's levels
    levels = _sorted_distinct(np.concatenate((a - 1.0, a)))
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    lo = np.searchsorted(a, levels, side="right")
    hi = np.searchsorted(a, levels + 1.0, side="left")
    filled = (k - hi) + (prefix[hi] - prefix[lo]) - (hi - lo) * levels
    j = int(np.searchsorted(-filled, -total, side="right")) - 1
    j = min(max(j, 0), len(levels) - 2)
    mid = (levels[j] + levels[j + 1]) / 2.0
    part = (r > mid) & (r < mid + 1.0)
    t = levels[j]
    if part.any():
        full = np.count_nonzero(r >= mid + 1.0)
        t = (math.fsum(r[part].tolist()) + full - total) / np.count_nonzero(part)
    x = np.clip(r - t, 0.0, 1.0)
    i = int(np.argmax(np.minimum(x, 1.0 - x)))
    x[i] = min(max(x[i] + (total - math.fsum(x.tolist())), 0.0), 1.0)
    return x


def _peel(d: np.ndarray, integer: bool) -> np.ndarray:
    """The peel of realize_scores on scores d, without checks."""
    n = len(d)
    r = d.astype(float)
    alpha = np.zeros((n, n))
    for v in range(n - 1):
        k = n - 1 - v
        r_v = d[v] - math.fsum(alpha[v, :v].tolist())
        losses = min(max(k - r_v, 0.0), float(k))
        rest = r[v + 1:]
        if integer:
            x = np.zeros(k)
            x[np.argsort(rest, kind="stable")[k - int(losses):]] = 1.0
        else:
            x = _water_fill(rest, losses)
        alpha[v + 1:, v] = x
        alpha[v, v + 1:] = 1.0 - x
        rest -= x
    return alpha


def realize_scores(s: ScoreSequence, tol: float = DEFAULT_TOL) -> GeneralizedTournament:
    """A (generalised) tournament whose score sequence is s, in order.

    Raises :class:`ValidationError` with the failing report when s is not
    Landau-valid.  Integer input yields a 0/1 tournament.

    Vertices are peeled in index order.  With r the residual scores of the
    m vertices v..n-1, v loses L = m - 1 - r_v of its games with the later
    vertices: each u gets x_u in [0, 1], sum(x) = L, alpha(u, v) = x_u,
    alpha(v, u) = 1 - x_u, and r_u -= x_u.  Integer scores put x = 1 on
    the L largest residuals (Landau's construction); real scores take
    x_u = clip(r_u - t, 0, 1).

    The residual stays realizable.  By Moon's theorem r has a realization,
    and its games of v give a feasible x*.  Let y = r - x and z = r - x*
    on the later vertices.  For every c, sum (c - y)^+ <= sum (c - z)^+:
    below t every y_u < c equals r_u >= z_u, above t every y_u > c equals
    r_u - 1 <= z_u, and sum(y) = sum(z).  So y is majorized by z, hence by
    (0, 1, ..., m - 2), which is Landau's condition.  The integer case
    puts t at the smallest decremented residual; the peel order is free.

    Row sums are checked before returning; integer rows must match
    exactly.  r_v is recomputed from s_v and the settled games of v by an
    exactly rounded sum, so rounding moves a real row by under 64 n eps
    (eps = 2^-52).  Input that check_landau accepts only within tol gets
    L clamped to [0, m - 1]; over 10^5 random inputs at the Landau
    boundary no row missed by more than twice the input's infeasibility
    and all rows together by at most three times it, so 3 tol is allowed.
    """
    _check_matrix_size(s.n)
    report = check_landau(s, tol)
    if not report.valid:
        raise ValidationError("score sequence is not realizable", report)
    d = np.asarray(s.values, dtype=float)
    alpha = _peel(d, s.kind == "integer")
    miss = float(np.max(np.abs(alpha.sum(axis=1) - d), initial=0.0))
    bound = 0.0 if s.kind == "integer" else 3 * tol + 64 * s.n * np.finfo(float).eps
    if not miss <= bound:
        raise RuntimeError(
            "internal consistency error: realized row sums miss the scores "
            f"by {miss:.3g} > {bound:.3g}"
        )
    return GeneralizedTournament(alpha)


def _cell_sums(f: ScoreFunction, n: int) -> np.ndarray:
    """For each of n equal cells, the correctly rounded sum of f's cell means
    over the lcm(m, n) grid cells inside it, without building that grid.

    With f's cells exact ints C_j over 2**e, F(t) = sum_{j<q} C_j n + C_q r,
    (q, r) = divmod(t, n), is 2**e times the integral of f on [0, t/(m n)]
    in units of 1/(m n).  Cell i spans t = i m .. (i + 1) m, and one lcm
    cell is gcd(m, n) such units, so its sum is the exact int
    (F_{i+1} - F_i) / gcd over 2**e; int / int rounds correctly.
    """
    m = f.m
    c, _, e = _exact(f.cells, 0.0)
    prefix = [0, *accumulate(c)]
    c = [*c, 0]  # read only at t = m n, where r = 0
    F = [prefix[q] * n + c[q] * r for q, r in (divmod(i * m, n) for i in range(n + 1))]
    g = math.gcd(m, n)
    return np.array([(b - a) // g / (1 << e) for a, b in zip(F, F[1:])])


def discretize_score_function(
    f: ScoreFunction, n: int, tol: float = DEFAULT_TOL
) -> ScoreSequence:
    """The n-vertex generalised score sequence induced by a score function.

    d_i = n^2 * integral over the i-th n-cell of (f(x) - 1/(2n)), from the
    exact cell sums of ``_cell_sums`` in O(m + n); the prefix-integral
    condition on f guarantees the result is Landau-valid, which is asserted.
    """
    return _discretized(f, n, tol)[0]


def _discretized(f: ScoreFunction, n: int, tol: float) -> tuple:
    """``discretize_score_function(f, n, tol)`` and the cell sums it came
    from."""
    if n < 1:
        raise ValidationError("vertex count must be at least 1")
    report = check_condition_I(f, tol)
    if not report.valid:
        raise ValidationError(
            "score function fails the prefix-integral condition", report
        )
    sums = _cell_sums(f, n)
    d = n * n / math.lcm(f.m, n) * sums - 0.5
    d[(d < 0) & (d > -tol)] = 0.0  # rounding dust only
    seq = ScoreSequence(d, "real")
    out = check_landau(seq, tol)
    if not out.valid:  # unreachable for condition-I input
        raise RuntimeError(f"discretization produced an invalid sequence: {out.witness}")
    return seq, sums


def kernel_from_score_function(
    f: ScoreFunction, n: int, tol: float = DEFAULT_TOL
) -> StepKernel:
    """An n-block step kernel whose score function is the n-cell average of f."""
    seq, sums = _discretized(f, n, tol)
    kernel = step_kernel_from_tournament(realize_scores(seq, tol))
    target = sums / (math.lcm(f.m, n) // n)
    got = np.array([math.fsum(row) / n for row in kernel.blocks.tolist()])
    if np.max(np.abs(got - target)) > max(tol, 1e-9):  # unreachable
        raise RuntimeError("realized kernel does not average the score function")
    return kernel


def symmetrize_self_converse(
    g: GeneralizedTournament, tol: float = DEFAULT_TOL
) -> GeneralizedTournament:
    """Average a tournament with its reversed relabelling to force the
    self-converse identity alpha(i,j) + alpha(rho(i), rho(j)) = 1, rho(i) =
    n-1-i, exactly, without changing the score sequence.

    Requires the Eplett pairing on the scores (otherwise averaging would
    move them).  The result is returned with rows sorted by score.
    """
    scores = scores_of_tournament(g)
    report = check_eplett(scores, tol)
    if not report.valid:
        raise ValidationError("scores do not satisfy the Eplett pairing", report)
    n = g.n
    order = np.argsort(np.asarray(scores.values, dtype=float), kind="stable")
    a = g.alpha[np.ix_(order, order)]
    v = (a + 1.0 - a[::-1, ::-1]) / 2.0
    del a
    # the orbit {(i, j), (rho(j), rho(i))} of upper pairs takes v at its
    # lexicographically first pair, the one with i + j <= n - 1
    k = np.arange(n)
    v = np.where(k[:, None] + k <= n - 1, v, v[::-1, ::-1].T)
    out = np.triu(v, 1)
    del v
    out += np.tril(1.0 - out.T, -1)
    return GeneralizedTournament(out)


def realize_self_converse(
    s: ScoreSequence, tol: float = DEFAULT_TOL
) -> GeneralizedTournament:
    """A self-converse generalised tournament with (sorted) score sequence s.

    Integer input may come back with 1/2 entries: the averaging step
    produces a generalised witness even when a 0/1 self-converse tournament
    exists.
    """
    report = check_eplett(s, tol)
    if not report.valid:
        raise ValidationError("score sequence fails the Eplett check", report)
    return symmetrize_self_converse(realize_scores(s, tol), tol)
