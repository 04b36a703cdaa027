"""Output checks and reference values that do not use tourlim.

Every check takes the raw bytes a CLI call wrote and raises
:class:`CheckError` when they are wrong.  References come from closed forms
or brute force written here with numpy and exact rationals, so a defect in
the package under test cannot make its own output pass.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

DENSITY_RTOL = 1e-9
DENSITY_ATOL = 1e-12


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _close(got: float, want: float, what: str, rtol=DENSITY_RTOL, atol=DENSITY_ATOL):
    _require(
        abs(got - want) <= atol + rtol * abs(want),
        f"{what}: got {got!r}, reference {want!r}",
    )


# ---------------------------------------------------------------------------
# structural checks


def _tournament01(alpha: np.ndarray, n: int):
    _require(alpha.shape == (n, n), f"expected a {n}x{n} matrix, got {alpha.shape}")
    _require(bool(np.all((alpha == 0.0) | (alpha == 1.0))), "entries are not 0/1")
    off = ~np.eye(n, dtype=bool)
    _require(bool(np.all(np.diag(alpha) == 0.0)), "diagonal is not zero")
    _require(bool(np.all((alpha + alpha.T)[off] == 1.0)), "not skew: a + a^T != 1")


def _generalized(alpha: np.ndarray, n: int, tol=1e-12):
    _require(alpha.shape == (n, n), f"expected a {n}x{n} matrix, got {alpha.shape}")
    _require(bool(np.all((alpha >= 0.0) & (alpha <= 1.0))), "entries outside [0, 1]")
    _require(bool(np.all(np.diag(alpha) == 0.0)), "diagonal is not zero")
    s = alpha + alpha.T
    np.fill_diagonal(s, 1.0)
    _require(float(np.max(np.abs(s - 1.0))) <= tol, "not skew: a + a^T != 1")


def _kernel(blocks: np.ndarray, n: int, tol=1e-12):
    _require(blocks.shape == (n, n), f"expected {n}x{n} blocks, got {blocks.shape}")
    _require(bool(np.all((blocks >= 0.0) & (blocks <= 1.0))), "entries outside [0, 1]")
    _require(bool(np.all(np.diag(blocks) == 0.5)), "diagonal is not 1/2")
    _require(float(np.max(np.abs(blocks + blocks.T - 1.0))) <= tol, "not skew")


def row_means(m: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) / m.shape[1] for row in m])


# ---------------------------------------------------------------------------
# exact verdicts


def landau_verdict(values, kind: str, eplett: bool, tol: float = 1e-9) -> bool:
    """Landau (and Eplett) validity with exact rational prefix sums.

    Integer data is judged exactly; real data within ``tol`` of each bound,
    which is the documented contract for real-kind checks.
    """
    t = Fraction(0) if kind == "integer" else Fraction(tol)
    d = sorted(Fraction(v) for v in values)
    n = len(d)
    prefix = Fraction(0)
    for k in range(1, n):
        prefix += d[k - 1]
        if prefix < Fraction(k * (k - 1), 2) - t:
            return False
    if abs(prefix + d[-1] - Fraction(n * (n - 1), 2)) > t:
        return False
    if eplett:
        return all(abs(d[i] + d[n - 1 - i] - (n - 1)) <= t for i in range(n))
    return True


def condition_verdict(cells, condition: str, tol: float = 1e-9) -> bool:
    """Prefix-integral (I) or point-symmetry (II) condition, exactly."""
    c = [Fraction(x) for x in cells]
    m = len(c)
    t = Fraction(tol)
    if condition == "II":
        return all(abs(c[i] + c[m - 1 - i] - 1) <= t for i in range(m))
    prefix = Fraction(0)
    for k, x in enumerate(sorted(c)[:-1], start=1):
        prefix += x
        if prefix / m < Fraction(k * k, 2 * m * m) - t:
            return False
    return abs((prefix + max(c)) / m - Fraction(1, 2)) <= t


def exact_discretization(cells, n: int) -> list[Fraction]:
    """d_i = n^2 * integral of (f - 1/(2n)) over the i-th of n cells."""
    m = len(cells)
    grid = m if m % n == 0 else math.lcm(m, n)
    fine = [Fraction(x) for x in np.repeat(np.asarray(cells), grid // m)]
    per = grid // n
    return [
        Fraction(n * n, grid) * sum(fine[i * per:(i + 1) * per]) - Fraction(1, 2)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# density references


def t4_sum_tournament(a: np.ndarray) -> float:
    """Sum over all maps of the T4 edge product in a generalised tournament.

    For fixed images (x0, x1), the remaining sum is v^T A v with
    v = A[x0] * A[x1]; the skew identity A + A^T = J - I turns that into
    ((sum v)^2 - sum v^2) / 2.  Non-injective maps vanish on the zero
    diagonal, so this is also the injective sum.
    """
    p = a @ a.T
    q = (a * a) @ (a * a).T
    return float(0.5 * np.sum(a * (p * p - q)))


def t4_sum_kernel(m: np.ndarray) -> float:
    """Same as :func:`t4_sum_tournament` for a kernel, where M + M^T = J."""
    p = m @ m.T
    return float(0.5 * np.sum(m * p * p))


def c4_sum(a: np.ndarray) -> float:
    p = a @ a
    return float(np.sum(p * p.T))


def c3_sum(a: np.ndarray) -> float:
    return float(np.sum((a @ a) * a.T))


def s11_inj_sum_tournament(a: np.ndarray) -> float:
    """Injective sum of alpha(c, u) alpha(w, c) over distinct c, u, w."""
    r, c = a.sum(axis=1), a.sum(axis=0)
    return float(np.sum(r * c) - np.sum(a * a.T))


def c4_ind_inj_sum(a: np.ndarray) -> float:
    """Brute-force injective sum for induced C4: the four cycle edges times
    the blank weight (1 - a)(1 - a^T) on both diagonals of the square."""
    n = a.shape[0]
    blank = (1.0 - a) * (1.0 - a.T)
    idx = np.arange(n)
    total = 0.0
    for x0 in range(n):
        # t[x1, x2, x3] over distinct x1, x2, x3, all different from x0
        t = (
            a[x0][:, None, None]
            * a[:, :, None]
            * a[None, :, :]
            * a[:, x0][None, None, :]
            * blank[x0][None, :, None]
            * blank[:, None, :]
        )
        mask = (
            (idx[:, None, None] != idx[None, :, None])
            & (idx[None, :, None] != idx[None, None, :])
            & (idx[:, None, None] != idx[None, None, :])
        )
        mask &= (idx != x0)[:, None, None] & (idx != x0)[None, :, None]
        mask &= (idx != x0)[None, None, :]
        total += float(np.sum(t[mask]))
    return total


def kernel_density(edges, k: int, m: np.ndarray) -> float:
    """t(F, W) for a step kernel by a direct einsum over all block maps."""
    n = m.shape[0]
    letters = "abcdefgh"
    if not edges:
        return 1.0
    subs = ",".join(letters[u] + letters[v] for u, v in edges) + "->"
    touched = {x for e in edges for x in e}
    total = float(np.einsum(subs, *([m] * len(edges)), optimize="greedy"))
    return total * n ** (k - len(touched)) / float(n) ** k


def kernel_star_moment(m: np.ndarray, out: int, inn: int) -> float:
    f = row_means(m)
    return math.fsum(f**out * (1.0 - f) ** inn) / len(f)


def kernel_reference(spec: str, m: np.ndarray) -> float:
    """Reference kernel densities for the pattern specs the workloads use."""
    n = m.shape[0]
    if spec == "C3":
        return 1.5 * kernel_star_moment(m, 1, 1) - 0.25
    if spec == "C4":
        return c4_sum(m) / float(n) ** 4
    if spec == "T4":
        return t4_sum_kernel(m) / float(n) ** 4
    if spec == "S1,1":
        return kernel_star_moment(m, 1, 1)
    if spec == "S0,1":
        return kernel_star_moment(m, 0, 1)
    raise ValueError(f"no kernel reference for pattern {spec}")


def finite_reference(spec: str, mode: str, a: np.ndarray) -> float:
    """Reference densities in finite tournaments for the workload cases."""
    n = a.shape[0]
    is01 = bool(np.all((a == 0.0) | (a == 1.0)))
    if (spec, mode) == ("T4", "hom"):
        return t4_sum_tournament(a) / float(n) ** 4
    if (spec, mode) == ("T4", "inj"):
        return t4_sum_tournament(a) / math.perm(n, 4)
    if (spec, mode) == ("C3", "hom"):
        return c3_sum(a) / float(n) ** 3
    if (spec, mode) == ("C3", "inj"):
        # every pair of C3 is an edge, so non-injective maps hit the diagonal
        return c3_sum(a) / math.perm(n, 3)
    if (spec, mode) == ("C4", "inj") and is01:
        # the only non-injective C4 maps that avoid the zero diagonal use a
        # 2-cycle, which a 0/1 tournament does not have
        return c4_sum(a) / math.perm(n, 4)
    if (spec, mode) == ("S1,1", "inj"):
        return s11_inj_sum_tournament(a) / math.perm(n, 3)
    if (spec, mode) == ("C4", "ind"):
        return c4_ind_inj_sum(a) / math.perm(n, 4)
    raise ValueError(f"no finite reference for {spec} {mode}")


# ---------------------------------------------------------------------------
# tournament pattern classes (for fingerprint keys)

TOURNAMENT_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12}


def _pattern_from_key(key: str):
    k_str, bits = key.split(":")
    k = int(k_str)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    _require(len(bits) == len(pairs), f"key {key} has the wrong length")
    edges = [(i, j) if b == "1" else (j, i) for (i, j), b in zip(pairs, bits)]
    return k, pairs, edges


def _is_canonical(key: str) -> bool:
    """Whether the key's bit value is minimal over all relabelings."""
    k, pairs, edges = _pattern_from_key(key)
    index = {p: i for i, p in enumerate(pairs)}
    own = sum(1 << p for p, (i, j) in enumerate(pairs) if (i, j) in edges)
    for perm in permutations(range(k)):
        value = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a < b:
                value |= 1 << index[(a, b)]
        if value < own:
            return False
    return True


# ---------------------------------------------------------------------------
# per-command checks (each returns a function of the output bytes)


def _load(out: bytes):
    return json.loads(out)


def check_landau_report(values, kind: str, eplett: bool):
    want = landau_verdict(values, kind, eplett)

    def check(out: bytes):
        got = _load(out)["valid"]
        _require(got is want, f"verdict {got}, exact verdict {want}")

    return check, (0 if want else 1)


def check_condition_report(cells, condition: str):
    want = condition_verdict(cells, condition)

    def check(out: bytes):
        got = _load(out)["valid"]
        _require(got is want, f"verdict {got}, exact verdict {want}")

    return check, (0 if want else 1)


def check_realize(values):
    """Integer input: a 0/1 tournament with exactly the input scores, in order."""
    target = np.asarray(values, dtype=float)

    def check(out: bytes):
        alpha = np.asarray(_load(out)["alpha"], dtype=float)
        _tournament01(alpha, len(target))
        _require(bool(np.all(alpha.sum(axis=1) == target)), "row sums differ from input")

    return check


def check_realize_selfconverse(values):
    target = np.sort(np.asarray(values, dtype=float))

    def check(out: bytes):
        alpha = np.asarray(_load(out)["alpha"], dtype=float)
        n = len(target)
        _generalized(alpha, n)
        err = float(np.max(np.abs(alpha.sum(axis=1) - target)))
        _require(err <= 1e-9, f"sorted scores differ from input by {err}")
        ident = alpha + alpha[::-1, ::-1]
        np.fill_diagonal(ident, 1.0)
        _require(float(np.max(np.abs(ident - 1.0))) <= 1e-12,
                 "alpha(i,j) + alpha(n-1-i, n-1-j) != 1")

    return check


def check_discretize(cells, n: int):
    want = [float(x) for x in exact_discretization(cells, n)]

    def check(out: bytes):
        data = _load(out)
        _require(data["kind"] == "real", "discretize must return a real sequence")
        got = np.asarray(data["values"], dtype=float)
        _require(got.shape == (n,), f"expected {n} values")
        err = float(np.max(np.abs(got - want)))
        _require(err <= 1e-9, f"values differ from the exact discretization by {err}")

    return check


def check_kernel_from_fn(cells, n: int):
    c = np.asarray(cells, dtype=float)
    per = len(c) // n
    target = np.array([math.fsum(c[i * per:(i + 1) * per]) / per for i in range(n)])

    def check(out: bytes):
        blocks = np.asarray(_load(out)["blocks"], dtype=float)
        _kernel(blocks, n)
        err = float(np.max(np.abs(row_means(blocks) - target)))
        _require(err <= 1e-9, f"row means differ from the cell averages by {err}")

    return check


def check_density(value: float):
    def check(out: bytes):
        _close(float(_load(out)["density"]), value, "density")

    return check


def _parse_csv(out: bytes, header: str):
    """Rows split from the right: the first field may hold commas ("S1,1")."""
    lines = out.decode().strip().splitlines()
    _require(lines and lines[0] == header, f"missing CSV header {header!r}")
    columns = header.count(",")
    return [ln.rsplit(",", columns) for ln in lines[1:]]


def check_degree_dist(positions: np.ndarray):
    pos, counts = np.unique(positions, return_counts=True)
    weights = counts / len(positions)

    def check(out: bytes):
        rows = _parse_csv(out, "position,weight")
        got = np.array([[float(p), float(w)] for p, w in rows])
        _require(got.shape == (len(pos), 2), f"expected {len(pos)} atoms")
        _require(float(np.max(np.abs(got[:, 0] - pos))) <= 1e-12, "atom positions differ")
        _require(float(np.max(np.abs(got[:, 1] - weights))) <= 1e-12, "atom weights differ")

    return check


def check_sample(n: int):
    def check(out: bytes):
        data = _load(out)
        _require(data["n"] == n, f"expected n={n}")
        _tournament01(np.asarray(data["alpha"], dtype=float), n)

    return check


def check_sample_selfconverse(m: int):
    perm = np.concatenate([np.arange(m, 2 * m), np.arange(m)])

    def check(out: bytes):
        alpha = np.asarray(_load(out)["alpha"], dtype=float)
        _tournament01(alpha, 2 * m)
        _require(bool(np.array_equal(alpha[np.ix_(perm, perm)], alpha.T)),
                 "swapping v_i and w_i does not reverse every edge")

    return check


def check_converge(blocks: np.ndarray, specs, sizes):
    exact = {spec: kernel_reference(spec, blocks) for spec in specs}

    def check(out: bytes):
        rows = _parse_csv(out, "pattern,n,mean,stderr,exact")
        want_keys = [(s, n) for s in specs for n in sizes]
        want_keys += [("degree_w1", n) for n in sizes]
        _require([(r[0], int(r[1])) for r in rows] == want_keys, "unexpected rows")
        for name, n, mean, stderr, ex in rows:
            mean, stderr, ex = float(mean), float(stderr), float(ex)
            _require(0.0 <= mean <= 1.0 and stderr >= 0.0, f"{name} n={n}: bad mean")
            if name == "degree_w1":
                _require(ex == 0.0, "degree_w1 exact must be 0")
                if int(n) >= 100:
                    _require(mean <= 0.25, f"W1 at n={n} is {mean}")
                continue
            _close(ex, exact[name], f"{name} exact")
            if int(n) >= 100:
                _require(abs(mean - ex) <= 0.1, f"{name} n={n}: mean {mean} far from {ex}")

    return check


def check_perturb(blocks: np.ndarray, refine_rounds: int, expect_certificate: bool):
    base_means = row_means(blocks)

    def check(out: bytes):
        data = _load(out)
        if not expect_certificate:
            _require(data == {"result": "transitive-like"}, "expected transitive-like")
            return
        _require(data["result"] == "certificate", "expected a certificate")
        k = np.asarray(data["kernel"]["blocks"], dtype=float)
        factor = k.shape[0] // blocks.shape[0]
        _require(factor in [2**r for r in range(refine_rounds + 1)], "bad resolution")
        _kernel(k, k.shape[0])
        moved = float(np.max(np.abs(row_means(k) - np.repeat(base_means, factor))))
        _require(moved <= 1e-12, f"perturbation moved the score function by {moved}")
        _close(float(data["c4_base"]), kernel_reference("C4", blocks), "c4_base", atol=1e-10)
        _close(float(data["c4_perturbed"]), kernel_reference("C4", k), "c4_perturbed",
               atol=1e-10)
        _require(abs(data["c4_perturbed"] - data["c4_base"]) > 1e-9, "C4 did not move")
        _require(0.0 <= data["score_max_diff"] <= 1e-12, "bad score_max_diff")

    return check


def check_fingerprint(blocks: np.ndarray, order: int):
    def check(out: bytes):
        data = _load(out)
        _require(data["K"] == order, "wrong order")
        keys = [e["pattern"] for e in data["entries"]]
        _require(len(set(keys)) == len(keys), "duplicate keys")
        for k in range(1, order + 1):
            count = sum(1 for key in keys if key.startswith(f"{k}:"))
            _require(count == TOURNAMENT_CLASS_COUNTS[k], f"{count} classes on {k} vertices")
        for entry in data["entries"]:
            key = entry["pattern"]
            _require(_is_canonical(key), f"key {key} is not canonical")
            k, _, edges = _pattern_from_key(key)
            _close(float(entry["density"]), kernel_density(edges, k, blocks), key)

    return check
