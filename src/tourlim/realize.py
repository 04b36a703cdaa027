"""Constructive realizations.

Score sequences are realised by peeling one vertex at a time, the
constructive proof of Landau's theorem and of Moon's extension to
generalised tournaments.  Each step settles every game of the peeled vertex
against the vertices still left: on integer scores it loses to the
vertices with the largest residual scores, on real scores the losses are
spread by water-filling.  Both kinds run in the same loop; a step with k
vertices left makes a fixed number of numpy calls, O(k log k) work, and
O(log k) interpreter work.  Integer input comes back as a 0/1 tournament.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    score_function_of_kernel,
    scores_of_tournament,
    step_kernel_from_tournament,
)


def _water_fill(r: np.ndarray, total: float, x: np.ndarray) -> None:
    """Write clip(r - t, 0, 1) into the zeros ``x``, with the level t set
    so that its sum is total.

    The sum filled(t) falls as t rises through the distinct levels of r
    and r - 1, in pieces linear between them.  The bracket of t among the
    levels is found by a binary search over them, O(log k) evaluations of
    filled from bisections in sorted r and its prefix sums; t is then
    solved on the partially clipped entries with an exactly rounded sum,
    and the residue of the final sum goes to the entry with the most room
    on both sides.  A step makes a fixed number of numpy calls, O(k log k)
    work in all.

    The search probes the levels in the order of numpy's searchsorted over
    the whole vector filled, and each probe evaluates filled with the same
    float operations in the same order, so it returns the same bracket as
    the vector search, even where rounding makes filled rise by an ulp
    (``tests/oracles.reference_peel`` is that vector search).
    """
    k = len(r)
    if total <= 0:
        return
    if total >= k:
        x[:] = 1.0
        return
    a = np.sort(r)
    # r holds no -0.0 (scores are stored as max(v, 0.0)): np.unique's levels
    levels = _sorted_distinct(np.concatenate((a - 1.0, a))).tolist()
    prefix = [0.0, *a.cumsum().tolist()]
    a = a.tolist()

    def unfilled(i: int) -> float:
        """-filled(levels[i]), ascending as the search expects."""
        level = levels[i]
        lo = bisect_right(a, level)
        hi = bisect_left(a, level + 1.0)
        return -((k - hi) + (prefix[hi] - prefix[lo]) - (hi - lo) * level)

    j = bisect_right(range(len(levels)), -total, key=unfilled) - 1
    j = min(max(j, 0), len(levels) - 2)
    mid = (levels[j] + levels[j + 1]) / 2.0
    # the partially clipped entries, mid < r < mid + 1, are a[lo:hi]
    lo = bisect_right(a, mid)
    hi = bisect_left(a, mid + 1.0)
    t = levels[j]
    if hi > lo:
        t = (math.fsum(a[lo:hi]) + (k - hi) - total) / (hi - lo)
    np.subtract(r, t, out=x).clip(0.0, 1.0, out=x)
    i = int(np.minimum(x, 1.0 - x).argmax())
    x[i] = min(max(x[i] + (total - math.fsum(x.tolist())), 0.0), 1.0)


_MIRROR_ROWS = 64


def _mirror(alpha: np.ndarray) -> None:
    """Turn each step's x, held right of the diagonal in the row of its
    vertex, into alpha in place: x below the diagonal, 1 - x above it.

    Runs over blocks of _MIRROR_ROWS rows from the last, so the x that a
    block copies below its diagonal, from the rows above it, is
    complemented only later; no temporary exceeds _MIRROR_ROWS rows."""
    n = len(alpha)
    below = np.tri(min(n, _MIRROR_ROWS), k=-1, dtype=bool)
    for i in range((n - 1) // _MIRROR_ROWS * _MIRROR_ROWS, -1, -_MIRROR_ROWS):
        j = min(i + _MIRROR_ROWS, n)
        alpha[i:j, :i] = alpha[:i, i:j].T
        block, lower = alpha[i:j, i:j], below[:j - i, :j - i]
        np.copyto(block, block.T, where=lower)
        np.subtract(1.0, block, out=block, where=lower.T)
        np.subtract(1.0, alpha[i:j, j:], out=alpha[i:j, j:])


def _peel(d: np.ndarray, integer: bool) -> np.ndarray:
    """The peel of realize_scores on scores d, without checks."""
    n = len(d)
    r = d.astype(float)
    scores = d.tolist()
    alpha = np.zeros((n, n))
    for v in range(n - 1):
        k = n - 1 - v
        rest, x = r[v + 1:], alpha[v, v + 1:]
        if integer:
            # integer residuals are exact
            losses = min(max(k - r.item(v), 0.0), float(k))
            x[rest.argsort(kind="stable")[k - int(losses):]] = 1.0
        else:
            # the settled games of v, x of earlier steps, are column v
            r_v = scores[v] - math.fsum(alpha[:v, v].tolist())
            _water_fill(rest, min(max(k - r_v, 0.0), float(k)), x)
        rest -= x
    _mirror(alpha)
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
    exactly, and integer residuals are exact.  A real r_v is recomputed
    from s_v and the settled games of v by an exactly rounded sum, so
    rounding moves a real row by under 64 n eps (eps = 2^-52).  Input that
    check_landau accepts only within tol gets L clamped to [0, m - 1];
    over 10^5 random inputs at the Landau boundary no row missed by more
    than twice the input's infeasibility and all rows together by at most
    three times it, so 3 tol is allowed.
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
    # the peel's matrix is its own; construction casts a 0/1 one to bools
    return GeneralizedTournament._handed(alpha)


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
    got = score_function_of_kernel(kernel).cells
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
    # a tournament's bools convert exactly in the arithmetic below
    a = g._entries[np.ix_(order, order)]
    v = (a + 1.0 - a[::-1, ::-1]) / 2.0
    del a
    # the orbit {(i, j), (rho(j), rho(i))} of upper pairs takes v at its
    # lexicographically first pair, the one with i + j <= n - 1
    k = np.arange(n)
    v = np.where(k[:, None] + k <= n - 1, v, v[::-1, ::-1].T)
    out = np.triu(v, 1)
    del v
    np.subtract(1.0, out.T, out=out, where=np.tri(n, k=-1, dtype=bool))
    return GeneralizedTournament._handed(out)


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
