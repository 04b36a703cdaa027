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
   the blank factor, which is one.

2. Skew symmetrization.  Kernels satisfy M + M^T = J and finite inputs
   A + A^T = J - I, i.e. A(x, y) + A(y, x) = 1 - c [x = y] with c = 0 for
   kernels and c = 1 for finite inputs.  Let the pair {u, v} of F carry
   exactly one factor, the edge u -> v, let R be the rest of F, and let a
   relabelling sigma swap u and v and map R onto itself (blank factors as
   unordered pairs).  Then

       hom(F) = hom(sigma F) = hom(R + v->u), since hom is relabelling
                invariant and sigma F = R + v->u;
       hom(R + u->v) + hom(R + v->u) = hom(R) - c hom(R / {u = v}),
                by summing the pointwise identity against the product over R,

   so 2 hom(F) = hom(R) - c hom(R / {u = v}).  The rule is applied
   recursively and memoised per pattern (it does not depend on n).  It only
   deletes edges and merges vertices, so no term costs more than F; T4 goes
   from n^4 to n^3 (on kernels t(T4) = sum M o (M M^T)^2 / (2 n^4)).

3. Contraction.  Each remaining term is one einsum.  Its plan comes from
   ``np.einsum_path(..., optimize=("greedy", budget))`` with every
   intermediate held to max(n^2, 2^18) elements, and is cached per
   subscripts and operand shapes.  A term whose plain sum takes at most
   2^15 multiply-adds (n^k times its factor count) is contracted directly,
   without a plan: below that, running a plan costs more than it saves.

Values agree with the plain assignment sum to rounding (1e-12 or better).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .core import (
    DigraphPattern,
    GeneralizedTournament,
    StepKernel,
    ValidationError,
    score_function_of_kernel,
)

MAX_PATTERN_VERTICES = 8
# planned FLOPs of one density_finite, density_kernel or fingerprint call
# (numpy's einsum_path estimate); the largest calls in the tests and the
# benchmark, C4 and T4 inj at n = 500, plan 5e8
MAX_FINITE_FLOPS = 10**11
_LETTERS = "abcdefgh"
# intermediates of a contraction stay within max(n^2, _MIN_BUDGET) elements
_MIN_BUDGET = 2**18
# plain sums up to this many multiply-adds skip planning: a planned einsum
# has a fixed cost of about 40 us, which a plain C4 sum reaches near n = 8
_DIRECT_FLOPS = 2**15
_MODES = ("hom", "inj", "ind")
# factor kinds: a pattern edge (alpha or M) and a blank pair (induced mode)
_EDGE, _BLANK = "e", "b"
_FLOPS = re.compile(r"Optimized FLOP count:\s*(\S+)")


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
# contraction


@lru_cache(maxsize=1024)
def _subscripts(pairs: tuple, k: int) -> tuple:
    """einsum subscripts for factors on ``pairs`` (vertices relettered in
    order) and the number of the k vertices that no factor touches."""
    touched = sorted({x for pair in pairs for x in pair})
    letter = {x: _LETTERS[i] for i, x in enumerate(touched)}
    subscripts = ",".join(letter[u] + letter[v] for u, v in pairs) + "->"
    return subscripts, k - len(touched)


@lru_cache(maxsize=1024)
def _plan(subscripts: str, shapes: tuple) -> tuple:
    """Contraction path and planned FLOPs for n x n operands.

    Intermediates stay within max(n^2, 2^18) elements.  Small sums are
    contracted directly (path False) at n^k |E| FLOPs.
    """
    n = shapes[0][0]
    width = len(set(subscripts) - set(",->"))
    if n**width * len(shapes) <= _DIRECT_FLOPS:
        return False, n**width * len(shapes)
    budget = max(n * n, _MIN_BUDGET)
    dummies = [np.broadcast_to(0.0, s) for s in shapes]
    path, report = np.einsum_path(subscripts, *dummies, optimize=("greedy", budget))
    return tuple(path), float(_FLOPS.search(report).group(1))


def _contract(factors, k: int, n: int) -> float:
    """Sum over all of [n]^k of the product of per-edge matrix entries.

    ``factors`` is a list of (u, v, matrix); u == v picks the diagonal.
    Vertices not touched by any factor contribute a free factor n each.
    """
    if not factors:
        return float(n) ** k
    subscripts, free = _subscripts(tuple((u, v) for u, v, _ in factors), k)
    ops = [m for _, _, m in factors]
    path, _ = _plan(subscripts, tuple(m.shape for m in ops))
    return float(np.einsum(subscripts, *ops, optimize=path)) * float(n) ** free


def _check_cost(terms, n: int) -> None:
    """Reject, before any contraction, terms whose planned FLOPs on n x n
    operands exceed MAX_FINITE_FLOPS."""
    flops = 0.0
    for _, k, factors in terms:
        if factors:
            subscripts, _ = _subscripts(tuple((u, v) for u, v, _ in factors), k)
            flops += _plan(subscripts, ((n, n),) * len(factors))[1]
    if flops > MAX_FINITE_FLOPS:
        raise ValidationError(
            f"density contraction too large (cost guard: {flops:.3g} planned FLOPs)"
        )


def _evaluate(terms, mats: dict, n: int) -> float:
    return sum(
        coef * _contract([(u, v, mats[kind]) for u, v, kind in factors], k, n)
        for coef, k, factors in terms
    )


# ---------------------------------------------------------------------------
# term expansion: Moebius pruning and skew symmetrization


def _relabel(factors, label) -> tuple | None:
    """Factors under the vertex map ``label``; None when an edge becomes a
    loop (a zero diagonal entry of alpha).  Blank loops are 1 and dropped."""
    out = []
    for u, v, kind in factors:
        a, b = label[u], label[v]
        if a == b:
            if kind == _EDGE:
                return None
            continue
        out.append((min(a, b), max(a, b), kind) if kind == _BLANK else (a, b, kind))
    return tuple(sorted(out))


def _swappable(k: int, rest: tuple, u: int, v: int) -> bool:
    """Whether some relabelling swaps u and v and maps ``rest`` onto itself.

    A relabelling maps the factor multiset onto itself exactly when it keeps
    the factors on every ordered pair (``profile``); it is built vertex by
    vertex, each new image checked against the vertices already placed.
    """
    profile: dict = {}
    for a, b, kind in rest:
        forward, backward = ("out", "in") if kind == _EDGE else ("blank", "blank")
        profile.setdefault((a, b), []).append(forward)
        profile.setdefault((b, a), []).append(backward)
    profile = {pair: sorted(tags) for pair, tags in profile.items()}
    if profile.get((u, v)) != profile.get((v, u)):
        return False
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


@lru_cache(maxsize=1024)
def _symmetrize(k: int, factors: tuple, c: int) -> tuple:
    """hom(F) as a combination of (coefficient, k, factors) terms with every
    symmetric edge removed (see the module docstring)."""
    load = Counter((min(u, v), max(u, v)) for u, v, _ in factors)
    for i, (u, v, kind) in enumerate(factors):
        if kind != _EDGE or load[(min(u, v), max(u, v))] != 1:
            continue
        rest = factors[:i] + factors[i + 1:]
        if not _swappable(k, rest, u, v):
            continue
        out = Counter()
        for coef, kk, ff in _symmetrize(k, rest, c):
            out[(kk, ff)] += coef / 2
        if c:
            label = [w - (w > v) for w in range(k)]
            label[v] = label[u]
            for coef, kk, ff in _symmetrize(k - 1, _relabel(rest, label), c):
                out[(kk, ff)] -= coef / 2
        return tuple((coef, kk, ff) for (kk, ff), coef in out.items() if coef)
    return ((1.0, k, factors),)


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


@lru_cache(maxsize=256)
def _terms(f: DigraphPattern, mode: str, c: int) -> tuple:
    """The assignment sum of ``f`` in ``mode`` as (coefficient, k, factors)
    terms, each factor (u, v, kind); c is 1 for finite inputs, 0 for kernels."""
    factors = [(u, v, _EDGE) for u, v in f.edges]
    if mode == "ind":
        factors += [
            (u, v, _BLANK)
            for u, v in combinations(range(f.k), 2)
            if (u, v) not in f.edges and (v, u) not in f.edges
        ]
    factors = tuple(sorted(factors))
    if mode == "hom":
        quotients = [(1, f.k, factors)]
    else:
        quotients = []
        for partition in _set_partitions(f.k):
            label = [0] * f.k
            for b, block in enumerate(partition):
                for v in block:
                    label[v] = b
            projected = _relabel(factors, label)
            if projected is not None:
                quotients.append((_mobius(partition), len(partition), projected))
    out = Counter()
    for mu, k, projected in quotients:
        for coef, kk, ff in _symmetrize(k, projected, c):
            out[(kk, ff)] += mu * coef
    return tuple((coef, kk, ff) for (kk, ff), coef in out.items() if coef)


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
    if f.k > MAX_PATTERN_VERTICES:
        raise ValidationError(f"pattern too large (k > {MAX_PATTERN_VERTICES})")
    if mode not in _MODES:
        raise ValidationError("mode must be one of 'hom', 'inj', 'ind'")
    n = g.n
    if mode != "hom" and f.k > n:
        return 0.0
    terms = _terms(f, mode, 1)
    _check_cost(terms, n)
    mats = {_EDGE: g.alpha}
    if mode == "ind" and len(f.edges) < f.k * (f.k - 1) // 2:
        mats[_BLANK] = (1.0 - g.alpha) * (1.0 - g.alpha.T)
    total = _evaluate(terms, mats, n)
    return total / (float(n) ** f.k if mode == "hom" else math.perm(n, f.k))


def density_kernel(f: DigraphPattern, w: StepKernel) -> float:
    """t(F, W) for a step kernel: the normalised block-assignment sum.
    Calls whose planned contraction work exceeds MAX_FINITE_FLOPS are
    rejected before any of it runs."""
    n = w.n
    if f.k > MAX_PATTERN_VERTICES:
        raise ValidationError(f"pattern too large (k > {MAX_PATTERN_VERTICES})")
    terms = _terms(f, "hom", 0)
    _check_cost(terms, n)
    return _evaluate(terms, {_EDGE: w.blocks}, n) / float(n) ** f.k


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
    MAX_FINITE_FLOPS before any class is contracted."""
    if not 1 <= K <= 5:
        raise ValidationError("fingerprint order K must be in 1..5")
    classes = [c for k in range(1, K + 1) for c in _tournament_pattern_classes(k)]
    _check_cost([t for _, f in classes for t in _terms(f, "hom", 0)], w.n)
    return DensityFingerprint(K, {d: density_kernel(f, w) for d, f in classes})
