"""Validity checkers: Landau, Eplett, the prefix-integral and point-symmetry
score-function conditions, irreducibility, Avery simplicity, and Hausdorff
moment tests.

Every checker returns a :class:`ValidityReport`; on failure the report
carries a witness holding both sides of the first violated inequality, so
callers (and tests) can re-evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MomentSequence,
    ScoreFunction,
    ScoreSequence,
    ValidationError,
)

DEFAULT_TOL = 1e-9
"""Tolerance for checks on real-kind data (integer data is checked exactly)."""

#: the irreducible score sequences realised by a unique isomorphism class
SIMPLE_BLOCKS = frozenset({(0,), (1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2, 2)})


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    witness: dict | None = None

    def __post_init__(self):
        if not self.valid and self.witness is None:
            raise ValidationError("an invalid report must carry a witness")

    def to_json_dict(self) -> dict:
        return {"valid": self.valid, "witness": self.witness}


def _exact(values, tol: float) -> tuple:
    """``values`` and ``tol`` as Python ints over one power of two:
    x = X / 2**e for each of them, with e >= 1 so that 1/2 is an int too.
    A negative tolerance would fail equalities that hold exactly."""
    if not math.isfinite(tol) or tol < 0:
        raise ValidationError("tolerance must be finite and non-negative")
    mant, exp = np.frexp(np.append(np.asarray(values, dtype=float), tol))
    mant = (mant * 2.0**53).astype(np.int64)  # exact: 53 significant bits
    exp = np.where(mant != 0, exp - 53, 0)
    e = max(1, -int(exp.min()))
    ints = np.left_shift(mant.astype(object), (exp + e).astype(object))
    return ints[:-1], ints[-1], e


def _first(bad: np.ndarray) -> int:
    """1-based index of the first True entry, or 0."""
    return int(np.argmax(bad)) + 1 if bad.any() else 0


def _prefix_test(x: np.ndarray, t: int, e: int) -> tuple:
    """Landau's test on sorted ints ``x`` over 2**e, within ``t``.

    Returns the exact prefix sums P_k, the bounds B_k = k(k-1)/2 in the
    same units and the first failing k: P_k < B_k - t for k < n, or
    |P_n - B_n| > t for k = n; 0 when none fails.
    """
    k = np.arange(1, len(x) + 1)
    prefix = np.cumsum(x)
    bound = np.left_shift((k * (k - 1)).astype(object), e - 1)
    bad = prefix < bound - t
    bad[-1] = abs(prefix[-1] - bound[-1]) > t
    return prefix, bound, _first(bad)


def _pairing(x, total: int, t: int, e: int, check: str, required: float) -> ValidityReport:
    """Whether x_i + x_{n+1-i} = total within t for every i (ints over
    2**e); the witness names ``check`` and the first failing 1-based i."""
    i = _first(np.abs(x + x[::-1] - total) > t)
    if not i:
        return ValidityReport(True)
    return ValidityReport(False, {
        "check": check, "i": i, "sum": (x[i - 1] + x[-i]) / 2**e, "required": required,
    })


def _sorted_scores(s: ScoreSequence, tol: float) -> tuple:
    """``_exact`` of the sorted scores; integer data is checked with tol 0."""
    return _exact(np.sort(s.values), 0.0 if s.kind == "integer" else tol)


def check_landau(s: ScoreSequence, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Realizability of a score sequence by a (generalised) tournament.

    Sorts non-decreasingly and checks the exact prefix sums against
    k(k-1)/2, with equality at the full prefix.  Checking prefixes of the
    sorted sequence suffices because any k-subset sum dominates the
    smallest-k sum.  Witness numbers are ints for integer data and the
    correctly rounded floats of the exact values for real data.
    """
    return _landau(s, *_sorted_scores(s, tol))


def _landau(s: ScoreSequence, x, t: int, e: int) -> ValidityReport:
    """``check_landau`` on the ``_sorted_scores`` ``x, t, e`` of ``s``."""
    prefix, bound, k = _prefix_test(x, t, e)
    if not k:
        return ValidityReport(True)
    num = (lambda v: v >> e) if s.kind == "integer" else (lambda v: v / 2**e)
    witness = {"check": "landau-prefix", "k": k} if k < s.n else {"check": "landau-total"}
    return ValidityReport(False, {
        **witness, "sum": num(prefix[k - 1]), "bound": num(bound[k - 1]),
    })


def check_eplett(s: ScoreSequence, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Realizability by a self-converse (generalised) tournament: Landau
    plus the pairing d_i + d_{n+1-i} = n - 1 in sorted order."""
    x, t, e = _sorted_scores(s, tol)
    landau = _landau(s, x, t, e)
    if not landau.valid:
        return landau
    return _pairing(x, (s.n - 1) << e, t, e, "eplett-pair", float(s.n - 1))


def check_condition_I(f: ScoreFunction, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Prefix-integral lower bound for score functions.

    The minimum of the integral of f over a set of measure r is the prefix
    integral of the increasing rearrangement, so it is enough to check, for
    every grid point r = k/m, that this prefix integral is at least r^2/2,
    with equality at r = 1.  Between grid points the integral is linear in
    r while the bound is convex, so grid points suffice.  Scaled by m^2
    this is Landau's test on the sorted values m c_i - 1/2, within m^2 tol.
    """
    m = f.m
    c, t, e = _exact(np.sort(f.cells), tol)
    prefix, _, k = _prefix_test(m * c - (1 << (e - 1)), m * m * t, e)
    if not k:
        return ValidityReport(True)
    r = k / m
    witness = (
        {"check": "prefix-integral", "k": k, "r": r, "bound": r * r / 2}
        if k < m else {"check": "total-mass", "required": 0.5}
    )
    integral = (prefix[k - 1] + (k << (e - 1))) / (m * m << e)
    return ValidityReport(False, {**witness, "integral": integral})


def check_condition_II(f: ScoreFunction, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Point symmetry f(x) + f(1-x) = 1 of the increasing rearrangement,
    cell-wise (for odd m, the middle cell against 1/2).  Score functions are
    defined up to rearrangement, and the sorted pairing is the best one.
    """
    c, t, e = _exact(np.sort(f.cells), tol)
    return _pairing(c, 1 << e, t, e, "point-symmetry", 1.0)


def irreducible_decomposition(s: ScoreSequence) -> list[ScoreSequence]:
    """Split a sorted integer score sequence at every prefix equality.

    Each block is returned renormalised (the count of lower-block vertices
    subtracted from its scores) and is itself irreducible: an equality
    inside a block would have been an equality of the original sequence.
    """
    if s.kind != "integer":
        raise ValidationError("irreducible decomposition needs an integer sequence")
    rep = check_landau(s)
    if not rep.valid:
        raise ValidationError("score sequence fails the Landau check", rep)
    prefix, bound, _ = _prefix_test(*_sorted_scores(s, 0.0))
    ends = np.flatnonzero(prefix == bound) + 1
    d = np.sort(s.values)
    return [ScoreSequence(d[a:b] - a, "integer") for a, b in zip([0, *ends], ends)]


def is_simple_avery(s: ScoreSequence) -> bool:
    """Whether exactly one isomorphism class realises the sequence: every
    irreducible block must be one of {0}, {1,1,1}, {1,1,2,2}, {2,2,2,2,2}."""
    blocks = irreducible_decomposition(s)
    return all(tuple(int(v) for v in b.values) in SIMPLE_BLOCKS for b in blocks)


def check_hausdorff_moments(a: MomentSequence, order: int) -> ValidityReport:
    """Finite truncation of the two classical moment criteria.

    (ii) all iterated differences sum((-1)^k C(m,k) a_{n+k}) with
    n + m <= order are non-negative (down to -1e-12), and
    (iii) the Hankel matrix [a_{n+m}] for n, m <= order//2 has smallest
    eigenvalue >= -1e-9.  The m = 1 differences are exactly the
    non-increasing requirement on moments of a [0,1]-valued function.
    """
    if order < 0:
        raise ValidationError("order must be non-negative")
    if a.order < order:
        raise ValidationError(f"need at least {order + 1} moments, got {a.order + 1}")
    vals = a.a
    if abs(vals[0] - 1.0) > 1e-12:
        return ValidityReport(False, {
            "check": "a0", "value": float(vals[0]), "required": 1.0,
        })
    for m in range(order + 1):
        for n in range(order + 1 - m):
            diff = math.fsum(
                (-1) ** k * math.comb(m, k) * vals[n + k] for k in range(m + 1)
            )
            if diff < -1e-12:
                return ValidityReport(False, {
                    "check": "difference", "n": n, "m": m, "value": float(diff),
                })
    half = order // 2
    hankel = np.array([[vals[i + j] for j in range(half + 1)] for i in range(half + 1)])
    lam = float(np.linalg.eigvalsh(hankel)[0])
    if lam < -1e-9:
        return ValidityReport(False, {
            "check": "hankel", "min_eigenvalue": lam,
        })
    return ValidityReport(True)


def moments_of_score_function(f: ScoreFunction, order: int) -> MomentSequence:
    """Power moments a_k = mean(cells^k) for k = 0..order."""
    if order < 0:
        raise ValidationError("order must be non-negative")
    m = f.m
    a = [math.fsum(f.cells**k) / m for k in range(order + 1)]
    return MomentSequence(np.asarray(a))
