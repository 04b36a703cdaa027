"""Brute-force reference implementations that expected test values are
computed against.  Most of them enumerate: maps, tournaments, relabelings,
quantile grids; the score conditions are evaluated in exact rationals, the
realizer is checked against a max-flow construction and its peel against
the whole-vector peel it replaced, the self-converse average against its
pair-by-pair loop and the samplers against their pair-by-pair scatters.
Deliberately independent of the library's own algorithms."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import numpy as np

from tourlim import ScoreSequence, ValidationError


# ---------------------------------------------------------------------------
# score conditions on the exact rational values of the given doubles


def exact_landau(values, kind: str, tol: float, eplett: bool = False) -> bool:
    """Landau's condition, and with ``eplett`` the pairing
    d_i + d_{n+1-i} = n - 1, within ``tol`` (0 for integer kind)."""
    t = Fraction(0) if kind == "integer" else Fraction(tol)
    d = sorted(Fraction(float(v)) for v in values)
    n = len(d)
    sums = list(accumulate(d))
    ok = all(sums[k - 1] >= Fraction(k * (k - 1), 2) - t for k in range(1, n))
    ok = ok and abs(sums[-1] - Fraction(n * (n - 1), 2)) <= t
    if ok and eplett:
        ok = all(abs(d[i] + d[n - 1 - i] - (n - 1)) <= t for i in range(n))
    return ok


def exact_condition(cells, which: str, tol: float) -> bool:
    """Condition I (prefix integrals of the sorted cells at r = k/m at
    least r^2/2, total 1/2) or II (c_i + c_{m+1-i} = 1 on the sorted
    cells), within ``tol``."""
    c = sorted(Fraction(float(x)) for x in cells)
    m = len(c)
    t = Fraction(tol)
    if which == "II":
        return all(abs(c[i] + c[m - 1 - i] - 1) <= t for i in range(m))
    integrals = [s / m for s in accumulate(c)]
    ok = all(integrals[k - 1] >= Fraction(k * k, 2 * m * m) - t for k in range(1, m))
    return ok and abs(integrals[-1] - Fraction(1, 2)) <= t


def lcm_grid_cell_sums(cells, n: int) -> np.ndarray:
    """For each of n equal cells, math.fsum of the cell means over the
    lcm(m, n) grid cells inside it, on the grid itself."""
    m = len(cells)
    grid = math.lcm(m, n)
    fine = np.repeat(np.asarray(cells, dtype=float), grid // m)
    per = grid // n
    return np.array([math.fsum(fine[i * per:(i + 1) * per]) for i in range(n)])


def pair_list(n):
    return list(combinations(range(n), 2))


def mask_to_alpha(n: int, mask: int) -> np.ndarray:
    """Decode an orientation bitmask over the pairs (i, j), i < j, into a
    0/1 adjacency matrix (bit 1 means i -> j)."""
    alpha = np.zeros((n, n))
    for p, (i, j) in enumerate(pair_list(n)):
        if (mask >> p) & 1:
            alpha[i, j] = 1.0
        else:
            alpha[j, i] = 1.0
    return alpha


def all_tournaments(n: int):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield mask, mask_to_alpha(n, mask)


def score_multiset(alpha: np.ndarray) -> tuple:
    return tuple(sorted(int(x) for x in alpha.sum(axis=1)))


def realizable_multisets(n: int) -> set:
    return {score_multiset(a) for _, a in all_tournaments(n)}


def candidate_multisets(n: int):
    """All non-decreasing integer tuples with entries in 0..n-1 summing to
    n(n-1)/2 (the only candidates a score multiset could be)."""
    from itertools import combinations_with_replacement

    total = n * (n - 1) // 2
    for tup in combinations_with_replacement(range(n), n):
        if sum(tup) == total:
            yield tup


def canonical_form(n: int, mask: int, _cache={}) -> int:
    """Minimum orientation bitmask over all relabelings."""
    if n not in _cache:
        pairs = pair_list(n)
        index = {p: i for i, p in enumerate(pairs)}
        maps = []
        for perm in permutations(range(n)):
            mapping = []
            for i, j in pairs:
                a, b = perm[i], perm[j]
                mapping.append((index[(a, b)], 0) if a < b else (index[(b, a)], 1))
            maps.append(mapping)
        _cache[n] = maps
    best = mask
    for mapping in _cache[n]:
        out = 0
        for p, (target, flip) in enumerate(mapping):
            out |= (((mask >> p) & 1) ^ flip) << target
        if out < best:
            best = out
    return best


def iso_classes_by_score(n: int) -> dict:
    """Score multiset -> set of isomorphism classes realising it."""
    classes: dict[tuple, set] = {}
    for mask, alpha in all_tournaments(n):
        classes.setdefault(score_multiset(alpha), set()).add(canonical_form(n, mask))
    return classes


def brute_hom_sum(edges, k: int, mat: np.ndarray) -> float:
    n = mat.shape[0]
    total = 0.0
    for phi in product(range(n), repeat=k):
        term = 1.0
        for u, v in edges:
            term *= mat[phi[u], phi[v]]
        total += term
    return total


def brute_density_finite(pattern, alpha: np.ndarray, mode: str) -> float:
    k = pattern.k
    n = alpha.shape[0]
    edges = sorted(pattern.edges)
    if mode == "hom":
        return brute_hom_sum(edges, k, alpha) / n**k
    if k > n:
        return 0.0
    absent = [
        (u, v)
        for u, v in combinations(range(k), 2)
        if (u, v) not in pattern.edges and (v, u) not in pattern.edges
    ]
    total = 0.0
    for phi in permutations(range(n), k):
        term = 1.0
        for u, v in edges:
            term *= alpha[phi[u], phi[v]]
        if mode == "ind":
            for u, v in absent:
                term *= (1.0 - alpha[phi[u], phi[v]]) * (1.0 - alpha[phi[v], phi[u]])
        total += term
    denom = 1
    for i in range(k):
        denom *= n - i
    return total / denom


def brute_density_kernel(pattern, blocks: np.ndarray) -> float:
    n = blocks.shape[0]
    return brute_hom_sum(sorted(pattern.edges), pattern.k, blocks) / n**pattern.k


def quantiles(dist, ts: np.ndarray) -> np.ndarray:
    cum = np.cumsum(dist.weights)
    idx = np.minimum(np.searchsorted(cum, ts, side="left"), len(dist.positions) - 1)
    return dist.positions[idx]


def riemann_w1(mu, nu, steps: int = 200_000) -> float:
    """Quantile-grid approximation of the Wasserstein-1 distance."""
    ts = (np.arange(steps) + 0.5) / steps
    return float(np.mean(np.abs(quantiles(mu, ts) - quantiles(nu, ts))))


def symmetrize_by_orbits(a: np.ndarray) -> np.ndarray:
    """The self-converse average of a score-sorted alpha, one pair orbit
    {(i, j), (rho(j), rho(i))} at a time, rho(i) = n-1-i."""
    n = a.shape[0]
    rho = lambda i: n - 1 - i
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p, q = rho(j), rho(i)
            if (p, q) < (i, j):
                continue  # orbit already handled from its partner pair
            v = (a[i, j] + 1.0 - a[rho(i), rho(j)]) / 2.0
            out[i, j], out[j, i] = v, 1.0 - v
            out[p, q], out[q, p] = v, 1.0 - v
    return out


def _reference_water_fill(r: np.ndarray, total: float) -> np.ndarray:
    """clip(r - t, 0, 1) summing to total, with the bracket of t found by
    evaluating the filled sum at every level of r and r - 1 at once and
    numpy's searchsorted over that whole vector."""
    k = len(r)
    if total <= 0:
        return np.zeros(k)
    if total >= k:
        return np.ones(k)
    a = np.sort(r)
    levels = np.unique(np.concatenate((a - 1.0, a)))
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


def reference_peel(d: np.ndarray, integer: bool) -> np.ndarray:
    """The realizer's peel of scores d, one vertex at a time, with whole
    vector operations per step: integer scores put the losses on the
    largest residuals (ties to the later vertex), real ones water-fill;
    r_v is s_v less the exactly rounded sum of its settled games."""
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
            x = _reference_water_fill(rest, losses)
        alpha[v + 1:, v] = x
        alpha[v, v + 1:] = 1.0 - x
        rest -= x
    return alpha


def _pairs_by_bytes(rng, probs, pairs) -> np.ndarray:
    """Whether each pair of ``pairs``, row-major (i, j) index arrays into
    the n x n matrix ``probs`` of win probabilities, wins, by the samplers'
    two-stage draw: the byte of pair (i, j) is byte i n + j of the
    little-endian bytes of ceil(n^2 / 8) raw 64-bit outputs; with p scaled
    by 256 as hi + lo, hi = min(floor(256 p), 255), a byte below hi wins,
    above it loses, and the tied pairs, in order, take one uniform each
    and win when it is below lo."""
    n = len(probs)
    raw = rng.bit_generator.random_raw(-(-n * n // 8))
    data = b"".join(int(word).to_bytes(8, "little") for word in raw)
    byte = np.frombuffer(data, np.uint8)[:n * n].reshape(n, n)[pairs]
    scaled = probs[pairs] * 256
    hi = np.minimum(np.floor(scaled), 255)
    wins = byte < hi
    tied = byte == hi
    wins[tied] = rng.random(np.count_nonzero(tied)) < (scaled - hi)[tied]
    return wins


def sample_by_pair_scatter(w, cfg, rep=0) -> np.ndarray:
    """alpha of ``sample_tournament(w, cfg, rep)``: the pairs i < j drawn
    by ``_pairs_by_bytes`` at once, scattered over the upper triangle and
    mirrored."""
    from tourlim.sample import _cells_of, _rng

    rng = _rng(cfg.seed, rep)
    cells = _cells_of(rng.random(cfg.n), w.n)
    probs = w.blocks[np.ix_(cells, cells)]
    alpha = np.zeros((cfg.n, cfg.n))
    iu = np.triu_indices(cfg.n, 1)
    wins = _pairs_by_bytes(rng, probs, iu).astype(float)
    alpha[iu] = wins
    alpha[(iu[1], iu[0])] = 1.0 - wins
    return alpha


def self_converse_by_pair_scatter(w, sigma, cfg, rep=0) -> np.ndarray:
    """alpha of ``sample_self_converse(w, sigma, cfg, rep)``: the v-side
    pairs i < j, then the cross pairs (v_i, w_j) with i <= j, each drawn by
    ``_pairs_by_bytes``, scattered pair by pair."""
    from tourlim.sample import _cells_of, _rng

    n = w.n
    sigma = np.asarray(sigma, dtype=int)
    rng = _rng(cfg.seed, rep)
    m = cfg.n
    x = rng.random(m)
    cells = _cells_of(x, n)
    sig_cells = sigma[cells]

    vv = np.zeros((m, m), dtype=bool)  # vv[i, j]: edge v_i -> v_j present
    iu = np.triu_indices(m, 1)
    vv[iu] = _pairs_by_bytes(rng, w.blocks[np.ix_(cells, cells)], iu)

    vw = np.zeros((m, m), dtype=bool)  # vw[i, j]: edge v_i -> w_j present
    i_idx, j_idx = np.triu_indices(m, 0)  # pairs i <= j, row-major
    vw[i_idx, j_idx] = _pairs_by_bytes(rng, w.blocks[np.ix_(cells, sig_cells)],
                                       (i_idx, j_idx))
    vw[j_idx, i_idx] = vw[i_idx, j_idx]  # forced mirrors (no-op on the diagonal)

    alpha = np.zeros((2 * m, 2 * m))
    v, ww = slice(0, m), slice(m, 2 * m)
    a_vv = np.zeros((m, m))
    a_vv[iu] = vv[iu].astype(float)
    a_vv[(iu[1], iu[0])] = 1.0 - a_vv[iu]
    alpha[v, v] = a_vv
    alpha[ww, ww] = a_vv.T  # w_i -> w_j iff v_j -> v_i
    a_vw = vw.astype(float)
    alpha[v, ww] = a_vw
    alpha[ww, v] = 1.0 - a_vw.T
    return alpha


def random_kernel_by_pair_scatter(n: int, seed: int = 0, rep=0) -> np.ndarray:
    """blocks of ``random_step_kernel(n, seed, rep)`` as first built: the
    same draws, scattered over the upper triangle and mirrored."""
    from tourlim.sample import _rng

    u = _rng(seed, rep).random((n, n))
    m = np.full((n, n), 0.5)
    iu = np.triu_indices(n, 1)
    m[iu] = u[iu]
    m[(iu[1], iu[0])] = 1.0 - u[iu]
    return m


# ---------------------------------------------------------------------------
# JSON input, as the stdlib reads it


def json_matrix(text: str, field: str) -> np.ndarray:
    """The float array the CLI built from a JSON input before it had its
    own matrix reader: json's value of ``field``, through numpy."""
    return np.asarray(json.loads(text)[field], dtype=float)


# ---------------------------------------------------------------------------
# max-flow realization, the reference for the peel in tourlim.realize

_SCALE_LIMIT = 1 << 20  # largest common denominator used for exact scaling


@dataclass(frozen=True)
class FlowArc:
    src: int
    dst: int
    capacity: float

    def __post_init__(self):
        if self.capacity < 0:
            raise ValidationError("flow arc capacities must be non-negative")


@dataclass(frozen=True)
class FlowNetwork:
    """The realization network of a score sequence.

    Node ids: 0 is the source, 1..P are the pair nodes for the unordered
    pairs in lexicographic order, P+1..P+n the vertex nodes, P+n+1 the sink.
    """

    n: int
    labels: tuple
    arcs: tuple
    source: int
    sink: int

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


def build_flow_network(s: ScoreSequence) -> FlowNetwork:
    n = s.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = ["source"]
    labels += [("pair", i, j) for (i, j) in pairs]
    labels += [("vertex", i) for i in range(n)]
    labels += ["sink"]
    source, sink = 0, len(labels) - 1
    vertex_node = lambda i: 1 + len(pairs) + i
    arcs = []
    for p, (i, j) in enumerate(pairs):
        arcs.append(FlowArc(source, 1 + p, 1))
        arcs.append(FlowArc(1 + p, vertex_node(i), 1))
        arcs.append(FlowArc(1 + p, vertex_node(j), 1))
    for i, d in enumerate(s.values):
        arcs.append(FlowArc(vertex_node(i), sink, float(d)))
    return FlowNetwork(n, tuple(labels), tuple(arcs), source, sink)


class _Dinic:
    """Blocking-flow max flow; exact on integers, eps-thresholded on floats."""

    def __init__(self, num_nodes: int, eps=0):
        self.eps = eps
        self.head = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list = []

    def add_edge(self, u: int, v: int, c) -> int:
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.to.append(u)
        self.cap.append(0 * c)  # keeps int capacities int
        self.head[u].append(eid)
        self.head[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int):
        return self.cap[eid ^ 1]

    def _levels(self, s: int, t: int):
        level = [-1] * len(self.head)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if level[v] < 0 and self.cap[eid] > self.eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, iters):
        # iterative DFS for one augmenting path in the level graph
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= bottleneck
                    self.cap[e ^ 1] += bottleneck
                return bottleneck
            moved = False
            while iters[u] < len(self.head[u]):
                eid = self.head[u][iters[u]]
                v = self.to[eid]
                if self.cap[eid] > self.eps and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    moved = True
                    break
                iters[u] += 1
            if not moved:
                if u == s:
                    return None
                level[u] = -1
                u = self.to[path.pop() ^ 1]

    def max_flow(self, s: int, t: int):
        total = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            iters = [0] * len(self.head)
            while True:
                pushed = self._augment(s, t, level, iters)
                if pushed is None:
                    break
                total += pushed


def _dyadic_denominator(values) -> int | None:
    """Common denominator of float values when small enough for exact flow."""
    den = 1
    for v in values:
        den = math.lcm(den, Fraction(float(v)).denominator)
        if den > _SCALE_LIMIT:
            return None
    return den


def _exact_landau(scaled: list[int], den: int) -> bool:
    d = sorted(scaled)
    prefix = 0
    n = len(d)
    for k in range(1, n):
        prefix += d[k - 1]
        if prefix < den * (k * (k - 1) // 2):
            return False
    return prefix + d[-1] == den * (n * (n - 1) // 2)


def _arithmetic_mode(s: ScoreSequence):
    """(unit, eps): exact integer flow grid when available, else floats."""
    if s.kind == "integer":
        return 1, 0
    den = _dyadic_denominator(s.values)
    if den is not None:
        scaled = [int(Fraction(float(v)) * den) for v in s.values]
        if _exact_landau(scaled, den):
            return den, 0
    return 1.0, 1e-12


def flow_realize(s, tol: float = 1e-9):
    """Realize s by max flow on the pair/vertex network: one unit of flow per
    unordered vertex pair, routed to one of its endpoints and drained
    through per-vertex arcs of capacity s_i.  Returns alpha, or None when
    the maximum flow falls short of n(n-1)/2 (s is not realizable).

    Integer scores run on exact integers, real scores on a common dyadic
    grid when one exists and is exactly Landau-valid, else in floating
    point with a residual threshold of 1e-12.
    """
    n = s.n
    if n == 1:
        return np.zeros((1, 1))
    unit, eps = _arithmetic_mode(s)
    exact = eps == 0

    net = build_flow_network(s)
    solver = _Dinic(net.num_nodes, eps=eps)
    win_arc = {}
    for arc in net.arcs:
        cap = int(Fraction(arc.capacity) * unit) if exact else float(arc.capacity)
        eid = solver.add_edge(arc.src, arc.dst, cap)
        src, dst = net.labels[arc.src], net.labels[arc.dst]
        if isinstance(src, tuple) and src[0] == "pair" and dst == ("vertex", src[1]):
            win_arc[(src[1], src[2])] = eid

    value = solver.max_flow(net.source, net.sink)
    expected = (n * (n - 1) // 2) * unit
    if exact:
        feasible = value == expected
    else:
        feasible = abs(value - expected) <= 100 * tol * max(1.0, float(expected))
    if not feasible:
        return None

    alpha = np.zeros((n, n))
    for (i, j), eid in win_arc.items():
        a = min(1.0, max(0.0, float(solver.flow_on(eid) / unit)))
        alpha[i, j] = a
        alpha[j, i] = 1.0 - a
    return alpha
