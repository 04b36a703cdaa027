"""Exact pattern densities in finite tournaments and step kernels.

Every density is a sum over maps of the pattern's vertices into [n] of a
product with one n x n factor per pattern edge: alpha for a finite
(generalised) tournament, the block matrix M for a step kernel, plus, for
induced densities, the symmetric blank factor (1 - alpha) o (1 - alpha^T) on
each absent pair.  ``density_finite``, ``density_kernel`` and ``fingerprint``
evaluate these sums along one path of three steps.

1. Moebius pruning.  Injective and induced sums come from the homomorphism
   sums of quotient patterns by Moebius inversion over the partition
   lattice.  A partition that merges the two endpoints of a pattern edge
   puts that edge on the diagonal of alpha, which is zero, so the term is
   exactly 0 and is dropped; a merged blank pair lands on the diagonal of
   the blank factor, which is one.  Every term that merges vertices, a
   quotient here or R / {u = v} in step 2, is made by one relabelling,
   which also applies two rules on a 0/1 tournament.  There
   A(x, y) A(y, x) = 0 for every x and y, x = y included, so a term with
   an edge both ways, u -> v and v -> u, sums products that are each
   exactly 0, and is dropped like a loop; and A(x, y)^2 = A(x, y), so a
   term keeps one copy of a repeated factor.  Step 2 otherwise only
   deletes edges and reverses an edge alone on its pair, so the swap rule
   and the rewrite see and make only terms reduced this way, and terms
   that then coincide are merged.  Under both rules every partial sum is
   still a nonnegative integer (see Arithmetic), so up to n^k = 2^53 the
   density is the one of every term to the bit, and beyond it the two
   agree to rounding.  Kernels and generalised tournaments keep every term
   and factor.

2. Skew identity.  Kernels satisfy M + M^T = J and finite inputs
   A + A^T = J - I, i.e. A(x, y) + A(y, x) = 1 - c [x = y] with c = 0 for
   kernels and c = 1 for finite inputs.  Let the pair {u, v} of F carry
   exactly one factor, the edge u -> v, and let R be the rest of F.  Summing
   the pointwise identity against the product over R gives

       hom(R + u->v) + hom(R + v->u) = hom(R) - c hom(R / {u = v}).

   Swap rule: if a relabelling sigma swaps u and v and maps R onto itself
   (blank factors as unordered pairs), then sigma F = R + v->u has the same
   hom as F, so 2 hom(F) = hom(R) - c hom(R / {u = v}).  The rule is applied
   recursively and memoised per pattern (it does not depend on n).  It only
   deletes edges and merges vertices, so no term costs more than F; T4 goes
   from n^4 to n^3 (on kernels t(T4) = sum M o (M M^T)^2 / (2 n^4)).

   Cycle rewrite: a term whose edges the swap rule cannot remove, e.g. a
   directed cycle, may instead replace one lone edge u -> v by
   hom(R) - c hom(R / {u = v}) - hom(R + v->u), each reduced by the swap
   rule.  The rewrites are derived once per term, independent of n; at n
   the term takes the one with the lowest planned count (step 3), and only
   when that count is strictly lower than its own, a rewrite with a term
   that the guard refuses as too wide counting as refused.  An edge whose
   reversed term R + v->u the swap rule leaves as it is costs at least
   what F costs and is not tried.  C3 becomes the path minus the
   transitive triangle, i.e. stars: n^2 instead of n^3.

3. Contraction.  Each term is contracted by bucket elimination along a
   vertex order that is searched once per term over all orders (dynamic
   programming over the set of eliminated vertices) and cached independent
   of n.  Eliminating a vertex contracts the operands that carry it in one
   BLAS product or one einsum of at most three operands, so a term costs
   about n^(w + 1) for the widest neighbourhood w along its order, and
   separate components never meet.  A term's plain sum is its one-step
   plan: a single einsum over all its factors, n^k times its factor count
   multiply-adds; a term runs it only when that costs at most 2^13 (below
   that, running the steps costs more than it saves).  No intermediate
   holds more than max(n^2, 2^24) values: when the widest ones would, the
   plan runs over row ranges of one vertex that all of them carry (a
   slice, after Gray and Kourtis 2021), one pass per range, and the passes
   are summed; a term that one row does not fit is refused.  Each step is
   keyed by what it computes.  The patterns of one call (one density, the
   classes of a fingerprint, the patterns of a ``converge`` repetition)
   are contracted with one memo, which keeps results by key: those with
   at most one index (a leaf summed out into a vector, a plain sum), for
   every later term of every pattern, and each BLAS product of two n x n
   operands that a term makes more than once (C4 along the order b, d:
   A.A both times), keyed up to the order of its operands, until that
   term ends.  A sliced pass reads some rows of its factors under the
   keys of whole ones, so it memoises nothing.  A term in which several
   vertices would make one such product is also planned with those
   vertices first, and takes that plan when it keeps every intermediate
   to two indices and counts strictly fewer operations, each repeated
   product once: C4 then runs one n^3 product instead of two.  The cost
   guard prices the patterns of a call together, before any of them is
   contracted: it reads the exact count of multiplications and additions
   of what runs, each shared or reused step once, kept per list of terms
   and n.

Arithmetic.  Kernels and generalised tournaments run every step in
float64.  A 0/1 tournament is handed over as bools and cast to float32
once per call, and every value a step makes is an integer: a sum, over the
e vertices that its subtree sums (recorded per step when it is planned),
of products of 0s and 1s, so at most n^e.  A step on float32 operands runs
in float32 when n^e <= 2^24 and in float64 otherwise.  Every partial sum is
a nonnegative integer no larger than the result, so every step is exact up
to 2^53, and so is the float64 evaluation of every term: each density is
the same to the bit.  Beyond 2^53 the float64 steps round as that
evaluation does.

Values agree with the plain assignment sum to rounding (1e-12 or better).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .core import (
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    score_function_of_kernel,
)

MAX_PATTERN_VERTICES = 8
# multiplications and additions of one density_finite, density_kernel or
# fingerprint call, or of one convergence_report repetition, as counted by
# the contraction plans
MAX_FINITE_FLOPS = 10**11
# terms whose plain sum is at most this many multiply-adds run it as one step
_DIRECT_FLOPS = 2**13
# no intermediate holds more than max(n^2, _MAX_ELEMENTS) values
_MAX_ELEMENTS = 2**24
# the integers that float32 holds exactly, with all below them
_SINGLE = 2**24
_LETTERS = "abcdefgh"
_MODES = ("hom", "inj", "ind")
# factor kinds: a pattern edge (alpha or M) and a blank pair (induced mode)
_EDGE, _BLANK = "e", "b"


@dataclass(frozen=True)
class DensityFingerprint:
    """Densities of every tournament pattern on at most K vertices.

    Keys are canonical descriptors "k:bits" where bits orient the pairs
    (i, j), i < j, in lexicographic order (1 means i -> j), minimised over
    relabelings.  Two kernels with fingerprints that differ are certified
    non-equivalent; equal fingerprints certify nothing.
    """

    K: int
    entries: dict

    def differs_from(self, other: "DensityFingerprint", tol: float = 1e-9) -> bool:
        keys = set(self.entries) | set(other.entries)
        return any(
            abs(self.entries.get(k, 0.0) - other.entries.get(k, 0.0)) > tol
            for k in keys
        )

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "entries": [
                {"pattern": k, "density": float(v)}
                for k, v in sorted(self.entries.items())
            ],
        }


# ---------------------------------------------------------------------------
# contraction: an elimination-order planner


class _Plan(NamedTuple):
    """How one term is contracted: fixed per term, independent of n.

    Operand ids count the term's factors first, each an n x n operand over
    its two vertices, then one id per ``_Step``.  A step consumes its
    operands, so the steps form a tree under each of the 0-d ``scalars``,
    whose product, times n for each of the ``free`` vertices that no factor
    touches, is the sum.  ``width`` is the most indices an intermediate
    carries, and ``cut`` a vertex that every intermediate of that many
    indices carries (None if there is none): when those intermediates are
    too large, the ``sliced`` scalars, those whose trees carry ``cut``, are
    summed over row ranges of ``cut`` one pass at a time.  ``repeated``
    holds the keys of the BLAS products of two n x n operands that more
    than one step makes.
    """

    steps: tuple
    scalars: tuple
    free: int
    width: int
    cut: int | None
    sliced: frozenset
    repeated: frozenset


class _Step(NamedTuple):
    """One contraction step.  op "dot" is one BLAS product over the operand
    axes ``spec``; op "einsum" runs the subscripts ``spec`` on at most three
    operands.  ``key`` names the computation up to vertex names, and whole
    passes memoise results by it: those with at most ``rank`` 1 for the
    terms of a call, a repeated rank-2 product for its term.  The step
    makes ``count`` multiplications and additions per value of the
    vertices ``over``, and its subtree sums ``summed`` vertices."""

    op: str
    ids: tuple
    spec: object
    key: tuple
    over: tuple
    count: int
    rank: int
    summed: int


def _indices(vertices) -> str:
    return "".join(_LETTERS[x] for x in vertices)


def _pairs(operands) -> frozenset:
    """The vertex pairs that some operand, a tuple of vertices, carries."""
    return frozenset(pair for out in operands for pair in combinations(sorted(out), 2))


@cache
def _order(vertices: tuple, pairs: frozenset) -> tuple:
    """An elimination order that minimises the sum of n^(|N(x)| + 1) over its
    steps, compared coefficient by coefficient from the highest power down.

    N(x) is the neighbourhood of x when it is eliminated: the remaining
    vertices that x reaches through eliminated ones.  Dynamic programming
    over the eliminated set covers every order in 2^k k steps; a sum of
    powers is held as the integer sum of 2^(16 power), which compares like
    the coefficient tuple while every coefficient stays below 2^16.  Ties
    go to the order that takes vertices of fewer neighbours first, so that
    leaves are summed out into vectors that other terms share.
    """
    k = len(vertices)
    at = {x: i for i, x in enumerate(vertices)}
    adj = [0] * k
    for a, b in pairs:
        adj[at[a]] |= 1 << at[b]
        adj[at[b]] |= 1 << at[a]
    around = [0] * (1 << k)  # the vertices adjacent to some vertex of a set
    for mask in range(1, 1 << k):
        low = mask & -mask
        around[mask] = around[mask ^ low] | adj[low.bit_length() - 1]

    def step(done: int, i: int) -> int:
        reach = 1 << i
        while (grown := reach | (around[reach] & done)) != reach:
            reach = grown
        return 1 << 16 * (bin(around[reach] & ~done & ~(1 << i)).count("1") + 1)

    degree = [bin(a).count("1") for a in adj]
    best = [(0, (), ())] * (1 << k)
    for done in range(1, 1 << k):
        best[done] = min(
            (
                best[rest][0] + step(rest, i),
                best[rest][1] + (degree[i],),
                best[rest][2] + (vertices[i],),
            )
            for i in range(k)
            if done >> i & 1
            for rest in (done & ~(1 << i),)
        )
    return best[-1][2]


def _renamed(spec: str) -> str:
    """einsum subscripts with letters renamed in order of appearance."""
    names: dict = {}
    for ch in spec:
        if ch.isalpha() and ch not in names:
            names[ch] = _LETTERS[len(names)]
    return "".join(names.get(ch, ch) for ch in spec)


class _Elimination:
    """One term's bucket elimination in progress: its live operands, each
    the tuple of the vertices it carries, their keys, and the steps so far.

    Eliminating x contracts the operands that carry x.  While more than two
    remain, the two with the fewest indices between them are multiplied
    elementwise, except that three operands stay for one einsum when no
    such product leaves two that share only x.  Two operands that share
    only x become one BLAS product; anything else is one einsum.
    """

    def __init__(self, factors: tuple):
        self.factors = factors
        self.live = {i: (u, v) for i, (u, v, _) in enumerate(factors)}
        self.keys = {i: kind for i, (_, _, kind) in enumerate(factors)}
        self.summed = dict.fromkeys(self.live, 0)
        self.steps: list = []
        self.outs: list = []

    def vertices(self) -> tuple:
        """The vertices that some live operand still carries."""
        return tuple(sorted({x for out in self.live.values() for x in out}))

    def emit(self, op, ids, spec, out, count) -> int:
        live, keys = self.live, self.keys
        new = len(self.factors) + len(self.steps)
        keys[new] = (op, _renamed(spec) if op == "einsum" else spec, *(keys[i] for i in ids))
        over = tuple(sorted(set().union(*(live[i] for i in ids))))
        # a vertex is summed once, by the step that drops it from every operand
        summed = self.summed[new] = sum(self.summed[i] for i in ids) + len(over) - len(out)
        self.steps.append(_Step(op, ids, spec, keys[new], over, count, len(out), summed))
        for i in ids:
            del live[i]
        live[new] = out
        self.outs.append({*out})
        return new

    def einsum(self, ids, out) -> int:
        live = self.live
        union = set().union(*(live[i] for i in ids))
        spec = ",".join(_indices(live[i]) for i in ids) + "->" + _indices(out)
        return self.emit("einsum", ids, spec, out, len(ids) - 1 + (len(union) > len(out)))

    def product(self, x) -> frozenset | None:
        """The BLAS product of two n x n operands that eliminating x makes,
        as its set of (axis, operand key), which swapping the two operands
        keeps; None when eliminating x makes no such product."""
        live = self.live
        bucket = [i for i in live if x in live[i]]
        if len(bucket) != 2 or {*live[bucket[0]]} & {*live[bucket[1]]} != {x}:
            return None
        if any(len(live[i]) != 2 for i in bucket):
            return None
        return frozenset((live[i].index(x), self.keys[i]) for i in bucket)

    def eliminate(self, x) -> None:
        live = self.live
        bucket = [i for i in live if x in live[i]]
        while len(bucket) > 2:
            i, j = min(combinations(bucket, 2), key=lambda p: len({*live[p[0]], *live[p[1]]}))
            union = {*live[i], *live[j]}
            if len(bucket) == 3 and union & {*live[({*bucket} - {i, j}).pop()]} != {x}:
                break
            bucket = [b for b in bucket if b not in (i, j)]
            bucket.append(self.einsum((i, j), tuple(sorted(union))))
        if len(bucket) == 2 and {*live[bucket[0]]} & {*live[bucket[1]]} == {x}:
            i, j = bucket
            spec = (live[i].index(x), live[j].index(x))
            # a product that an earlier step made with its operands swapped
            # is made that step's way, so that both compute one array
            if len(live[i]) == len(live[j]) == 2 and (
                    ("dot", spec[::-1], self.keys[j], self.keys[i]) in self.keys.values()):
                i, j, spec = j, i, spec[::-1]
            out = tuple(y for y in live[i] + live[j] if y != x)
            self.emit("dot", (i, j), spec, out, 2)
        else:
            out = set().union(*(live[i] for i in bucket)) - {x}
            self.einsum(tuple(bucket), tuple(sorted(out)))

    def plan(self, k: int) -> _Plan:
        """The finished plan.  The cut is the least vertex that every output
        of the most indices carries."""
        factors, steps = self.factors, self.steps
        width = max(map(len, self.outs))
        cut = min(set.intersection(*(out for out in self.outs if len(out) == width)), default=None)
        carries = [cut in (u, v) for u, v, _ in factors]
        for step in steps:
            carries.append(any(carries[i] for i in step.ids))
        made = Counter(step.key for step in steps if step.op == "dot" and step.rank == 2)
        touched = {x for u, v, _ in factors for x in (u, v)}
        return _Plan(
            steps=tuple(steps),
            scalars=tuple(self.live),
            free=k - len(touched),
            width=width,
            cut=cut,
            sliced=frozenset(i for i in self.live if carries[i]),
            repeated=frozenset(key for key, times in made.items() if times > 1),
        )


@cache
def _plan(k: int, factors: tuple, plain: bool = False) -> _Plan:
    """Bucket elimination of one term along the order of ``_order``, or,
    when ``plain``, its plain sum as one einsum step over all factors.

    A term in which eliminating two or more vertices would make one BLAS
    product takes the order of ``_products_first`` instead, when that plan
    keeps every intermediate to two indices (so it never runs sliced) and
    its count, each repeated product once, is strictly lower.
    """
    e = _Elimination(factors)
    if plain:
        e.einsum(tuple(e.live), ())
        return e.plan(k)
    for x in _order(e.vertices(), _pairs(e.live.values())):
        e.eliminate(x)
    plan = e.plan(k)
    other = _products_first(k, factors)
    if other is None or other.width > 2 or _counted(other, factors) >= _counted(plan, factors):
        return plan
    return other


def _products_first(k: int, factors: tuple) -> _Plan | None:
    """The term eliminated repeated products first: while two or more
    vertices would each make one BLAS product of the same two n x n
    operands, those vertices are eliminated, each while its product is
    still that one; then the rest along ``_order``.  None when no product
    repeats."""
    e = _Elimination(factors)
    while True:
        products = {x: e.product(x) for x in e.vertices()}
        times = Counter(products.values())
        repeated = [x for x, p in products.items() if p is not None and times[p] > 1]
        if not repeated:
            break
        for x in repeated:
            if e.product(x) == products[x]:
                e.eliminate(x)
    if not e.steps:
        return None
    for x in _order(e.vertices(), _pairs(e.live.values())):
        e.eliminate(x)
    return e.plan(k)


def _tiny(k: int, factors: tuple, n: int) -> bool:
    """Whether the term's plain sum makes at most _DIRECT_FLOPS operations."""
    (step,) = _plan(k, factors, True).steps
    return n ** len(step.over) * step.count <= _DIRECT_FLOPS


def _chosen(k: int, factors: tuple, n: int) -> _Plan:
    """The plan the term runs at n: its plain sum when that is tiny, else
    its elimination plan."""
    return _plan(k, factors, _tiny(k, factors, n))


def _rows(plan: _Plan, n: int) -> int:
    """Rows of ``plan.cut`` per pass: n when every intermediate fits in
    max(n^2, _MAX_ELEMENTS) values, else as many as fit, 0 if not one."""
    ceiling = max(n * n, _MAX_ELEMENTS)
    if n ** plan.width <= ceiling:
        return n
    return 0 if plan.cut is None else ceiling // n ** (plan.width - 1)


def _passes(plan: _Plan, i: int, n: int | None) -> list:
    """The row ranges of ``plan.cut`` that scalar i is summed over, one per
    pass; [None] for one pass over every row."""
    rows = n if n is None or i not in plan.sliced else _rows(plan, n)
    return [None] if rows == n else [slice(a, a + rows) for a in range(0, n, rows)]


def _value(plan: _Plan, i: int, leaves: list | tuple, memo: dict | None, run):
    """Operand i of ``plan``, made by a step: ``run(step, operands)`` on
    the factors from ``leaves`` and the results of earlier steps, or the
    result of a step of the same key in ``memo``, which keeps every result
    with at most one index and every product of ``plan.repeated``.  A
    sliced pass, whose leaves are cut to some rows, passes None: its results
    differ from the whole pass's under the same keys, so none is kept.
    """
    k = len(leaves)
    step = plan.steps[i - k]
    if memo is not None and step.key in memo:
        return memo[step.key]
    ops = [leaves[j] if j < k else _value(plan, j, leaves, memo, run) for j in step.ids]
    out = run(step, ops)
    if memo is not None and (step.rank <= 1 or step.key in plan.repeated):
        memo[step.key] = out
    return out


def _run(step: _Step, ops: list, n: int) -> np.ndarray:
    """The result of ``step`` on ``ops``.  Float32 operands are those of a
    0/1 tournament, on which the step's values are integers of at most
    n^summed: it runs in float64 when that exceeds 2^24."""
    wide = n ** step.summed > _SINGLE and any(op.dtype == np.float32 for op in ops)
    if step.op == "dot":
        if wide:
            ops = [op.astype(np.float64, copy=False) for op in ops]
        return _dot(ops[0], step.spec[0], ops[1], step.spec[1])
    return np.einsum(step.spec, *ops, dtype=np.float64 if wide else None)


def _dot(a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
    """Sum over axis i of a against axis j of b (BLAS); the result carries
    a's other axes, then b's."""
    if a.ndim <= 2 and b.ndim <= 2:
        return (a.T if i == 0 and a.ndim == 2 else a) @ (b.T if j == 1 else b)
    return np.tensordot(a, b, axes=(i, j))


def _hom(k: int, factors: tuple, mats: dict, n: int, memo: dict) -> float:
    """Sum over all of [n]^k of the product of the term's factors, each
    (u, v, kind) read as mats[kind][x_u, x_v], sharing step results with
    the other terms of the call through ``memo``.  A sliced pass reads only
    its rows of the cut vertex and memoises nothing; the term's repeated
    products leave ``memo`` when it ends."""
    if not factors:
        return float(n) ** k
    leaves = [mats[kind] for _, _, kind in factors]
    plan = _chosen(k, factors, n)
    run = partial(_run, n=n)
    value = float(n) ** plan.free
    for i in plan.scalars:
        total = 0.0
        for rows in _passes(plan, i, n):
            ops = leaves if rows is None else [
                m[rows] if u == plan.cut else m[:, rows] if v == plan.cut else m
                for m, (u, v, _) in zip(leaves, factors)
            ]
            total += float(_value(plan, i, ops, memo if rows is None else None, run))
        value *= total
    for key in plan.repeated:
        memo.pop(key, None)
    return value


def _work(terms, n: int) -> tuple:
    """The multiplications and additions of the steps that ``_evaluate``
    runs on ``terms`` at n, as the coefficients of n^8, n^7, ..., n^0: a
    tiny term counts its plain sum, and a step over the cut vertex in a
    pass of r rows counts r times per n^(power - 1) values.  A shared or
    repeated step is counted once, as it runs."""
    work = [0] * (MAX_PATTERN_VERTICES + 1)
    memo: dict = {}
    for _, k, factors in terms:
        if factors:
            _count(_chosen(k, factors, n), factors, n, memo, work)
    return tuple(work)


def _count(plan: _Plan, factors: tuple, n: int | None, memo: dict, work: list) -> None:
    """Add to ``work`` the count of each step of ``plan`` that ``_hom`` runs
    at n (see ``_work``), or without n in one pass, sharing results through
    ``memo``."""
    top = MAX_PATTERN_VERTICES
    for i in plan.scalars:
        rows = n if n is None or i not in plan.sliced else _rows(plan, n)
        passes = 1 if rows == n else -(-n // rows)  # len(_passes(plan, i, n))

        # the passes run each step once each, but a step over the cut on
        # n^(power - 1) values per row, n rows in all
        def add(step, _):
            if passes > 1 and plan.cut in step.over:
                work[top - len(step.over) + 1] += n * step.count
            else:
                work[top - len(step.over)] += passes * step.count

        _value(plan, i, factors, memo if passes == 1 else None, add)
    for key in plan.repeated:
        memo.pop(key, None)


def _counted(plan: _Plan, factors: tuple) -> tuple:
    """The count of ``plan`` alone, in one pass, as the coefficients of
    ``_work``."""
    work = [0] * (MAX_PATTERN_VERTICES + 1)
    _count(plan, factors, None, {}, work)
    return tuple(work)


@lru_cache(maxsize=1024)
def _flops(terms: tuple, n: int) -> float:
    """The planned multiplications and additions of ``terms`` on n x n
    operands.  Raises for a term of which one row of the cut vertex does
    not fit in max(n^2, _MAX_ELEMENTS) values."""
    for _, k, factors in terms:
        if factors and not _rows(plan := _chosen(k, factors, n), n):
            raise ValidationError(
                f"density term too wide (cost guard: one row of its {plan.width}-index "
                f"intermediates exceeds {max(n * n, _MAX_ELEMENTS):.3g} values)"
            )
    top = MAX_PATTERN_VERTICES
    return sum(count * float(n) ** (top - i) for i, count in enumerate(_work(terms, n)))


def _planned(terms: tuple, n: int) -> float:
    """``_flops(terms, n)``, or inf when the guard refuses a term as too
    wide."""
    try:
        return _flops(terms, n)
    except ValidationError:
        return math.inf


def _evaluate(terms, mats: dict, n: int, memo: dict | None = None) -> float:
    """The sum of ``terms``; ``memo`` carries keyed step results between
    calls on the same matrices."""
    memo = {} if memo is None else memo
    return sum(coef * _hom(k, factors, mats, n, memo) for coef, k, factors in terms)


# ---------------------------------------------------------------------------
# term expansion: Moebius pruning, swap rule and cycle rewrite


def _relabel(factors, label, zero_one: bool) -> tuple | None:
    """Factors under the vertex map ``label``; None when the term is exactly
    0: an edge becomes a loop (a zero diagonal entry of alpha) or, on a 0/1
    tournament (``zero_one``), two edges run both ways.  Blank loops are 1
    and dropped.  On a 0/1 tournament a repeated factor is kept once: every
    factor is 0 or 1."""
    out = []
    for u, v, kind in factors:
        a, b = label[u], label[v]
        if a == b:
            if kind == _EDGE:
                return None
            continue
        out.append((min(a, b), max(a, b), kind) if kind == _BLANK else (a, b, kind))
    if zero_one:
        edges = {(a, b) for a, b, kind in out if kind == _EDGE}
        if any((b, a) in edges for a, b in edges):
            return None
    return tuple(sorted(set(out) if zero_one else out))


def _profile(factors: tuple) -> dict:
    """The sorted factor tags on every ordered pair: a relabelling maps the
    factor multiset onto itself exactly when it keeps every pair's tags."""
    profile: dict = {}
    for a, b, kind in factors:
        forward, backward = ("out", "in") if kind == _EDGE else ("blank", "blank")
        profile.setdefault((a, b), []).append(forward)
        profile.setdefault((b, a), []).append(backward)
    return {pair: sorted(tags) for pair, tags in profile.items()}


def _swappable(k: int, profile: dict, u: int, v: int) -> bool:
    """Whether some relabelling swaps u and v and maps the rest R onto
    itself, R being the factors of ``profile`` off the pair {u, v}.

    The relabelling is built vertex by vertex, each new image checked
    against the vertices already placed; no check reads the pair {u, v}.
    """
    sigma = {u: v, v: u}
    others = [w for w in range(k) if w not in sigma]

    def extend(i: int) -> bool:
        if i == len(others):
            return True
        w = others[i]
        used = set(sigma.values())
        for x in others:
            if x in used:
                continue
            sigma[w] = x
            if all(profile.get((w, y)) == profile.get((x, sigma[y])) for y in sigma):
                if extend(i + 1):
                    return True
            del sigma[w]
        return False

    return extend(0)


def _lone_edges(factors: tuple):
    """(index, u, v) of each edge that carries the only factor on its pair."""
    load = Counter((min(u, v), max(u, v)) for u, v, _ in factors)
    for i, (u, v, kind) in enumerate(factors):
        if kind == _EDGE and load[(min(u, v), max(u, v))] == 1:
            yield i, u, v


def _both_ways(k: int, rest: tuple, u: int, v: int, c: int, zero_one: bool) -> Counter:
    """hom(R + u->v) + hom(R + v->u) = hom(R) - c hom(R / {u = v}) as
    symmetrized terms {(k, factors): coefficient}, under ``_relabel``'s
    rules."""
    out = Counter()
    for coef, kk, ff in _symmetrize(k, rest, c, zero_one):
        out[(kk, ff)] += coef
    label = [w - (w > v) for w in range(k)]
    label[v] = label[u]
    if c and (merged := _relabel(rest, label, zero_one)) is not None:
        for coef, kk, ff in _symmetrize(k - 1, merged, c, zero_one):
            out[(kk, ff)] -= coef
    return out


def _as_terms(combination: Counter) -> tuple:
    return tuple((coef, kk, ff) for (kk, ff), coef in combination.items() if coef)


@cache
def _symmetrize(k: int, factors: tuple, c: int, zero_one: bool) -> tuple:
    """hom(F) as a combination of (coefficient, k, factors) terms with every
    symmetric edge removed by the swap rule (see the module docstring),
    under ``_relabel``'s rules."""
    profile = _profile(factors)
    # a swap of u and v maps the tags around u in R onto those around v
    around = [sorted(tuple(profile.get((w, y), ())) for y in range(k)) for w in range(k)]

    def in_rest(w: int, tag: tuple) -> list:
        tags = list(around[w])
        tags[tags.index(tag)] = ()
        return sorted(tags)

    for i, u, v in _lone_edges(factors):
        if in_rest(u, ("out",)) != in_rest(v, ("in",)):
            continue
        if _swappable(k, profile, u, v):
            both = _both_ways(k, factors[:i] + factors[i + 1:], u, v, c, zero_one)
            return _as_terms(Counter({key: coef / 2 for key, coef in both.items()}))
    return ((1.0, k, factors),)


@cache
def _rewrites(k: int, factors: tuple, c: int, zero_one: bool) -> tuple:
    """hom(F) through the cycle rewrite of each lone edge whose reversed
    term the swap rule reduces, as one tuple of terms per edge, under
    ``_relabel``'s rules."""
    out = []
    for i, u, v in _lone_edges(factors):
        rest = factors[:i] + factors[i + 1:]
        flipped = tuple(sorted(rest + ((v, u, _EDGE),)))
        reverse = _symmetrize(k, flipped, c, zero_one)
        if reverse == ((1.0, k, flipped),):
            continue  # F with u -> v reversed costs what F costs
        combination = _both_ways(k, rest, u, v, c, zero_one)
        for coef, kk, ff in reverse:
            combination[(kk, ff)] -= coef
        out.append(_as_terms(combination))
    return tuple(out)


def _set_partitions(k: int):
    """All partitions of range(k) as lists of tuples."""
    parts: list[list[int]] = []

    def rec(i):
        if i == k:
            yield [tuple(b) for b in parts]
            return
        for b in parts:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        parts.append([i])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


def _mobius(partition) -> int:
    mu = 1
    for block in partition:
        mu *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
    return mu


@cache
def _expansion(f: DigraphPattern, mode: str, c: int, zero_one: bool) -> tuple:
    """The assignment sum of ``f`` in ``mode`` as (coefficient, k, factors)
    terms after Moebius pruning and the swap rule, each factor (u, v, kind),
    under ``_relabel``'s rules; c is 1 for finite inputs, 0 for
    kernels.  hom sums the one quotient by the partition into singletons."""
    factors = [(u, v, _EDGE) for u, v in f.edges]
    if mode == "ind":
        factors += [
            (u, v, _BLANK)
            for u, v in combinations(range(f.k), 2)
            if (u, v) not in f.edges and (v, u) not in f.edges
        ]
    partitions = [[(v,) for v in range(f.k)]] if mode == "hom" else _set_partitions(f.k)
    out = Counter()
    for partition in partitions:
        label = [0] * f.k
        for b, block in enumerate(partition):
            for v in block:
                label[v] = b
        projected = _relabel(factors, label, zero_one)
        if projected is not None:
            for coef, kk, ff in _symmetrize(len(partition), projected, c, zero_one):
                out[(kk, ff)] += _mobius(partition) * coef
    return _as_terms(out)


@lru_cache(maxsize=1024)
def _terms(f: DigraphPattern, mode: str, c: int, n: int, zero_one: bool = False) -> tuple:
    """The terms that are contracted for ``f`` at n: the expansion, with
    every term too large for the plain sum taking the cycle rewrite that
    ``_planned`` counts lowest at n, when that is strictly lower than its
    own count.  On a 0/1 tournament (``zero_one``) every term is made under
    ``_relabel``'s 0/1 rules."""
    out = Counter()
    for coef, k, factors in _expansion(f, mode, c, zero_one):
        best = ((1.0, k, factors),)
        if factors and not _tiny(k, factors, n):
            # min keeps the first of equal counts: the term itself
            best = min((best, *_rewrites(k, factors, c, zero_one)),
                       key=lambda terms: _planned(terms, n))
        for sub, kk, ff in best:
            out[(kk, ff)] += coef * sub
    return _as_terms(out)


def _priced(patterns, mode: str, c: int, n: int, zero_one: bool = False) -> list:
    """Each pattern's ``_terms`` at n (on a 0/1 tournament when
    ``zero_one``), or None where its inj or ind density is 0 because it has
    more vertices than n, once the cost guard admits them together: the
    planned count of all of them, contracted with one memo, at most
    MAX_FINITE_FLOPS."""
    if any(f.k > MAX_PATTERN_VERTICES for f in patterns):
        raise ValidationError(f"pattern too large (k > {MAX_PATTERN_VERTICES})")
    if mode not in _MODES:
        raise ValidationError("mode must be one of 'hom', 'inj', 'ind'")
    priced = [None if mode != "hom" and f.k > n else _terms(f, mode, c, n, zero_one)
              for f in patterns]
    flops = _flops(tuple(t for terms in priced if terms for t in terms), n)
    if flops > MAX_FINITE_FLOPS:
        raise ValidationError(
            f"density contraction too large (cost guard: {flops:.3g} planned FLOPs)"
        )
    return priced


def _densities(patterns, alpha: np.ndarray, mode: str, c: int) -> list:
    """The ``mode`` densities of ``patterns`` on the n x n factor ``alpha``
    (c = 1 for a finite input, 0 for a kernel's blocks), priced together by
    ``_priced`` and contracted with one memo.  Bools are a 0/1 tournament:
    its terms are made under the 0/1 rules, and it is cast to float32 once
    (see Arithmetic); any other ``alpha`` runs in float64."""
    n = len(alpha)
    zero_one = alpha.dtype == bool
    priced = _priced(patterns, mode, c, n, zero_one)
    alpha = alpha.astype(np.float32 if zero_one else float, copy=False)
    mats = {_EDGE: alpha}
    if mode == "ind" and any(len(f.edges) < f.k * (f.k - 1) // 2 for f in patterns):
        mats[_BLANK] = (1.0 - alpha) * (1.0 - alpha.T)
    memo: dict = {}
    return [
        0.0 if terms is None else _evaluate(terms, mats, n, memo)
        / (float(n) ** f.k if mode == "hom" else math.perm(n, f.k))
        for f, terms in zip(patterns, priced)
    ]


# ---------------------------------------------------------------------------
# public densities


def density_finite(
    f: DigraphPattern, g: GeneralizedTournament, mode: str = "hom"
) -> float:
    """Homomorphism, injective or induced density of a pattern in a finite
    (generalised) tournament.

    hom weighs every map by the product of alpha over pattern edges and
    divides by n^k; inj restricts to injective maps and divides by the
    falling factorial; ind additionally weighs fully absent pairs by
    (1 - alpha(x, y))(1 - alpha(y, x)), which vanishes on tournaments.
    Calls whose planned contraction work exceeds MAX_FINITE_FLOPS are
    rejected before any of it runs.
    """
    return _densities((f,), g._entries, mode, 1)[0]


def density_kernel(f: DigraphPattern, w: StepKernel) -> float:
    """t(F, W) for a step kernel: the normalised block-assignment sum.
    Calls whose planned contraction work exceeds MAX_FINITE_FLOPS are
    rejected before any of it runs."""
    return _densities((f,), w.blocks, "hom", 0)[0]


def star_density(w: StepKernel, m: int, n: int) -> float:
    """The (m, n) star moment: mean over cells of f^m (1-f)^n, where f is
    the score function of the kernel."""
    if m < 0 or n < 0:
        raise ValidationError("star indices must be non-negative")
    f = score_function_of_kernel(w).cells
    return math.fsum(f**m * (1.0 - f) ** n) / len(f)


def c3_from_degree(w: StepKernel) -> float:
    """The 3-cycle density computed from the degree distribution alone.

    Expanding the reversed-triangle product over a kernel with the skew
    identity gives 2 t(C3) = 1 - 3/2 + 3 t(S_{1,1}), i.e.
    t(C3) = 3 t(S_{1,1}) / 2 - 1/4.
    """
    return 1.5 * star_density(w, 1, 1) - 0.25


@lru_cache(maxsize=None)
def _tournament_pattern_classes(k: int):
    """Canonical representatives of all k-vertex tournament patterns.

    Masks are visited in increasing order; the first mask of each
    relabelling orbit is the orbit's minimum and becomes the representative,
    and its whole orbit is marked as seen.
    """
    pairs = list(combinations(range(k), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    maps = []
    for perm in permutations(range(k)):
        mapping = []
        for i, j in pairs:
            a, b = perm[i], perm[j]
            if a < b:
                mapping.append((pair_index[(a, b)], 0))
            else:
                mapping.append((pair_index[(b, a)], 1))
        maps.append(mapping)
    seen = bytearray(1 << len(pairs))
    classes = []
    for canon in range(1 << len(pairs)):
        if seen[canon]:
            continue
        for mapping in maps:
            out = 0
            for p, (target, flip) in enumerate(mapping):
                out |= (((canon >> p) & 1) ^ flip) << target
            seen[out] = 1
        edges = frozenset(
            (i, j) if (canon >> p) & 1 else (j, i) for p, (i, j) in enumerate(pairs)
        )
        bit_str = "".join(str((canon >> p) & 1) for p in range(len(pairs)))
        classes.append((f"{k}:{bit_str}", DigraphPattern(k, edges)))
    return sorted(classes)


def fingerprint(w: StepKernel, K: int) -> DensityFingerprint:
    """Densities of every tournament pattern on 1..K vertices (K <= 5).
    The planned FLOPs of all classes together are checked against
    MAX_FINITE_FLOPS before any class is contracted, and the classes share
    their keyed step results."""
    if not 1 <= K <= 5:
        raise ValidationError("fingerprint order K must be in 1..5")
    classes = [c for k in range(1, K + 1) for c in _tournament_pattern_classes(k)]
    values = _densities([f for _, f in classes], w.blocks, "hom", 0)
    return DensityFingerprint(K, {d: v for (d, _), v in zip(classes, values)})
