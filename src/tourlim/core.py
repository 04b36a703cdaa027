"""Core types and conversions for tournaments, step kernels and score data.

Vertices, blocks and cells are 0-indexed throughout.  A step kernel on n
blocks is stored as the n x n matrix of its values on the uniform grid of
squares; a score function on m cells is stored as the vector of its cell
means on the intervals ((i)/m, (i+1)/m].  All objects are immutable after
construction (their arrays are frozen) and every operation in this package
is a pure function of its inputs, so shared instances are safe to use from
concurrent code.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Literal

import numpy as np

TOL = 1e-12
"""Comparison tolerance for float-stored structural invariants."""


class ValidationError(ValueError):
    """An input violates a structural contract or fails a required check.

    When the rejection came from one of the checkers in
    :mod:`tourlim.conditions`, the offending report is attached.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _float_array(x, name: str, ndim: int,
                 handed: bool = False) -> tuple[np.ndarray, float, float]:
    """``x`` as a checked float array, with its least and its greatest
    entry: a new array, unless ``handed``, when an ``x`` that its caller
    made, hands over and no longer touches is kept if it already is one."""
    try:
        a = np.asarray(x, dtype=float) if handed else np.array(x, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"field '{name}' must be numeric") from exc
    if a.ndim != ndim:
        raise ValidationError(f"field '{name}' must be {ndim}-dimensional")
    if a.size == 0:
        raise ValidationError(f"field '{name}' must be non-empty")
    lo, hi = float(a.min()), float(a.max())
    # a NaN or an infinity anywhere would be one of the two
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"field '{name}' contains non-finite entries")
    return a, lo, hi


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for a finite 1-d float array, except that of 0.0 and
    -0.0 either may be kept; np.unique imports numpy.ma, about 15 ms in a
    fresh process."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _clipped(a: np.ndarray, lo: float, hi: float, name: str) -> np.ndarray:
    """The float array ``a`` of range [lo, hi], clipped to [0, 1] in place."""
    # tolerate rounding-level excursions, reject anything larger
    if lo < -TOL or hi > 1 + TOL:
        raise ValidationError(f"field '{name}' has entries outside [0, 1]")
    # clipping leaves entries in [0, 1] as they are, -0.0 included
    if lo < 0.0 or hi > 1.0:
        np.clip(a, 0.0, 1.0, out=a)
    return a


def _unit_array(x, name: str) -> np.ndarray:
    """``x`` as a new finite 1-d array clipped to [0, 1]."""
    return _clipped(*_float_array(x, name, ndim=1), name)


_SKEW_TILE = 256


def _mirrored_tiles(a: np.ndarray, op, diagonal):
    """``op(upper, lower.T)`` for each pair of mirrored _SKEW_TILE x
    _SKEW_TILE tiles of the square ``a``, upper on or above the diagonal,
    one pair at a time in one tile buffer, so that no n x n temporary is
    made; where the result covers a's diagonal, it holds ``diagonal``."""
    n = a.shape[0]
    buf = np.empty(min(n, _SKEW_TILE) ** 2, a.dtype)
    for i in range(0, n, _SKEW_TILE):
        for j in range(i, n, _SKEW_TILE):
            upper = a[i:i + _SKEW_TILE, j:j + _SKEW_TILE]
            s = op(upper, a[j:j + _SKEW_TILE, i:i + _SKEW_TILE].T,
                   out=buf[:upper.size].reshape(upper.shape))
            if i == j:
                np.fill_diagonal(s, diagonal)
            yield s


def _is_skew(a: np.ndarray) -> bool:
    """Whether a(i, j) + a(j, i) = 1 within TOL for all i != j of the float
    matrix ``a``; the diagonal is not checked."""
    for s in _mirrored_tiles(a, np.add, 1.0):
        # s - 1 is monotone in s, so its largest magnitude is at an extreme
        if s.max() - 1.0 > TOL or 1.0 - s.min() > TOL:
            return False
    return True


def _as_bools(a: np.ndarray) -> np.ndarray | None:
    """The square float matrix ``a`` as bools when every entry is 0 or 1,
    else None: tested one _SKEW_TILE x _SKEW_TILE tile at a time, up to
    the first tile with another entry."""
    b = np.empty(a.shape, bool)
    for i in range(0, len(a), _SKEW_TILE):
        for j in range(0, len(a), _SKEW_TILE):
            t = a[i:i + _SKEW_TILE, j:j + _SKEW_TILE]
            ones = np.equal(t, 1.0, out=b[i:i + _SKEW_TILE, j:j + _SKEW_TILE])
            if not (ones | (t == 0.0)).all():
                return None
    return b


def _diagonal_error(name: str, diagonal: float) -> ValidationError:
    return ValidationError(f"field '{name}' must have {diagonal:g} on the diagonal")


def _skew_error(name: str) -> ValidationError:
    return ValidationError(f"field '{name}' violates {name}(i,j) + {name}(j,i) = 1")


def _skew_matrix(x, name: str, diagonal: float, handed: bool = False) -> np.ndarray:
    """``x`` as a frozen square matrix in [0, 1] with ``diagonal`` on its
    diagonal and a(i, j) + a(j, i) = 1 off it, each within TOL; a new one
    unless ``handed``, when ``x`` is an array that its caller hands over and
    no longer touches.  With ``diagonal`` 0, bools exactly when every entry
    is 0 or 1: those are checked as bools, a zero diagonal and a(i, j) xor
    a(j, i) off it, with the errors, in their order, of the float path."""
    if (diagonal == 0.0 and isinstance(x, np.ndarray) and x.dtype == bool
            and x.ndim == 2 and 0 < len(x) == x.shape[1]):
        if x.diagonal().any():
            raise _diagonal_error(name, diagonal)
        if not all(s.all() for s in _mirrored_tiles(x, np.not_equal, True)):
            raise _skew_error(name)
        return _freeze(x if handed else x.copy())
    a, lo, hi = _float_array(x, name, 2, handed)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValidationError(f"field '{name}' must be square")
    if np.any(np.abs(np.diag(a) - diagonal) > TOL):
        raise _diagonal_error(name, diagonal)
    a = _clipped(a, lo, hi, name)
    np.fill_diagonal(a, diagonal)
    if diagonal == 0.0 and (b := _as_bools(a)) is not None:
        return _skew_matrix(b, name, diagonal, handed=True)
    if not _is_skew(a):
        raise _skew_error(name)
    return _freeze(a)


_MAX_MATRIX_BYTES = 2**31
"""Largest n x n float64 matrix an entry point may build: 2 GiB, n = 16384."""


def _check_matrix_size(n: int) -> None:
    """Reject a result whose n x n float64 matrix would exceed
    ``_MAX_MATRIX_BYTES``, before anything is drawn or allocated."""
    if 8 * n * n > _MAX_MATRIX_BYTES:
        raise ValidationError(
            f"an {n}x{n} float64 matrix needs {8 * n * n} bytes, "
            f"more than the {_MAX_MATRIX_BYTES}-byte limit"
        )


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class ScoreSequence:
    """Per-vertex out-scores of a finite (generalised) tournament.

    ``kind`` is "integer" for ordinary tournaments (values below 2**53,
    stored as int64) and "real" for generalised ones.  Values must be
    non-negative; whether they are actually realizable is the business of
    the Landau checker, not of construction.
    """

    values: np.ndarray
    kind: Literal["integer", "real"] = "real"

    def __post_init__(self):
        if self.kind not in ("integer", "real"):
            raise ValidationError("field 'kind' must be 'integer' or 'real'")
        v, lo, _ = _float_array(self.values, "values", ndim=1)
        if lo < -TOL:
            raise ValidationError("field 'values' has negative entries")
        np.maximum(v, 0.0, out=v)
        if self.kind == "integer":
            if not np.all(v == np.round(v)):
                raise ValidationError(
                    "field 'values' must be integral for kind='integer'"
                )
            # every int below 2**53 is exact in float64 and int64, and any
            # larger input rounds to 2**53 or more
            if np.any(v >= 2.0**53):
                raise ValidationError(
                    "field 'values' must be below 2**53 for kind='integer'"
                )
            v = v.astype(np.int64)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist(), "kind": self.kind}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScoreSequence":
        if not isinstance(d, dict) or "values" not in d:
            raise ValidationError("field 'values' is missing")
        return cls(d["values"], d.get("kind", "real"))


@dataclass(frozen=True, eq=False)
class ScoreFunction:
    """A piecewise-constant function [0,1] -> [0,1], stored as cell means."""

    cells: np.ndarray

    def __post_init__(self):
        c = _unit_array(self.cells, "cells")
        object.__setattr__(self, "cells", _freeze(c))

    @property
    def m(self) -> int:
        return len(self.cells)

    def to_json_dict(self) -> dict:
        return {"cells": self.cells.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScoreFunction":
        if not isinstance(d, dict) or "cells" not in d:
            raise ValidationError("field 'cells' is missing")
        return cls(d["cells"])


class GeneralizedTournament:
    """An n x n skew matrix alpha with alpha(i,j) + alpha(j,i) = 1 off the
    zero diagonal.  Entries in {0, 1} make it an ordinary tournament.

    Immutable, like the dataclasses of this module.  It holds one frozen
    array, ``_entries``: bools exactly when every entry is 0 or 1 (a float
    0/1 matrix is cast once, at construction), else float64, and the
    encoder, the densities, ``scores_of_tournament`` and the samplers read
    it as it is.  ``alpha`` is that array, or a tournament's float64 matrix,
    built on first use and kept; two threads that build it at once each
    build it, with equal values, and later reads see one of the two.  The
    constructor never freezes, keeps or aliases the caller's array;
    ``_handed`` is for the samplers and the realizers, which hand over
    their own.
    """

    def __init__(self, alpha):
        self.__dict__["_entries"] = _skew_matrix(alpha, "alpha", 0.0)

    @classmethod
    def _handed(cls, alpha: np.ndarray) -> "GeneralizedTournament":
        """``cls(alpha)`` for an array that the caller made and hands over:
        checked and frozen in place, not copied, unless it is cast to
        bools."""
        g = cls.__new__(cls)
        g.__dict__["_entries"] = _skew_matrix(alpha, "alpha", 0.0, handed=True)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    @property
    def alpha(self) -> np.ndarray:
        if not self.is_tournament:
            return self._entries
        alpha = self.__dict__.get("_alpha")
        if alpha is None:
            alpha = self.__dict__["_alpha"] = _freeze(self._entries.astype(float))
        return alpha

    @property
    def n(self) -> int:
        return len(self._entries)

    @property
    def is_tournament(self) -> bool:
        """Whether every entry is 0 or 1: whether the held array is bools."""
        return self._entries.dtype == bool

    def to_json_dict(self) -> dict:
        return {"n": self.n, "alpha": self.alpha.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GeneralizedTournament":
        if not isinstance(d, dict) or "alpha" not in d:
            raise ValidationError("field 'alpha' is missing")
        g = cls(d["alpha"])
        if "n" in d and d["n"] != g.n:
            raise ValidationError("field 'n' does not match the alpha matrix")
        return g


@dataclass(frozen=True, eq=False)
class StepKernel:
    """A kernel constant on the uniform n x n grid of squares, stored as the
    block matrix M with M(i,j) + M(j,i) = 1 and M(i,i) = 1/2."""

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", _skew_matrix(self.blocks, "blocks", 0.5))

    @classmethod
    def _handed(cls, blocks: np.ndarray) -> "StepKernel":
        """``cls(blocks)`` for a float64 array that the caller made and
        hands over: checked, clipped and frozen in place, not copied."""
        w = cls.__new__(cls)
        object.__setattr__(w, "blocks", _skew_matrix(blocks, "blocks", 0.5, handed=True))
        return w

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """Each block value p as hi = min(floor(256 p), 255), in uint8, and
        lo = 256 p - hi, in [0, 1], so that p = (hi + lo) / 256: both
        exact, since scaling by 256 is.  The samplers decide an arc by a
        random byte against hi and a tie by a uniform against lo
        (``sample._draw_pairs``); made once per kernel, on first use."""
        scaled = self.blocks * 256.0
        hi = np.minimum(scaled, 255.0).astype(np.uint8)
        return _freeze(hi), _freeze(scaled - hi)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "blocks": self.blocks.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "StepKernel":
        if not isinstance(d, dict) or "blocks" not in d:
            raise ValidationError("field 'blocks' is missing")
        w = cls(d["blocks"])
        if "n" in d and d["n"] != w.n:
            raise ValidationError("field 'n' does not match the blocks matrix")
        return w

    def refine(self, factor: int = 2) -> "StepKernel":
        """Split every block into factor^2 equal sub-blocks (same kernel a.e.)."""
        if factor < 1:
            raise ValidationError("refinement factor must be >= 1")
        _check_matrix_size(self.n * factor)
        m = np.kron(self.blocks, np.ones((factor, factor)))
        return StepKernel(m)


_PATTERN_SPEC = re.compile(r"^S_?\{?(\d+)[,;](\d+)\}?$")


@dataclass(frozen=True)
class DigraphPattern:
    """A small simple digraph used as a density probe.

    Vertices are 0..k-1; edges are ordered pairs without self-loops and
    without both orientations of the same pair.
    """

    k: int
    edges: frozenset

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("pattern must have at least one vertex")
        edges = frozenset((int(u), int(v)) for (u, v) in self.edges)
        for u, v in edges:
            if not (0 <= u < self.k and 0 <= v < self.k):
                raise ValidationError("pattern edge endpoint out of range")
            if u == v:
                raise ValidationError("pattern may not contain self-loops")
            if (v, u) in edges:
                raise ValidationError("pattern may not contain a 2-cycle")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def cycle(cls, k: int) -> "DigraphPattern":
        """Directed k-cycle 0 -> 1 -> ... -> k-1 -> 0 (k >= 3)."""
        if k < 3:
            raise ValidationError("a directed cycle pattern needs k >= 3")
        return cls(k, frozenset((i, (i + 1) % k) for i in range(k)))

    @classmethod
    def transitive(cls, k: int) -> "DigraphPattern":
        """Transitive tournament pattern with edges (i, j) for i < j."""
        return cls(k, frozenset((i, j) for i in range(k) for j in range(i + 1, k)))

    @classmethod
    def star(cls, m: int, n: int) -> "DigraphPattern":
        """Centre vertex with m out-neighbours and n in-neighbours.

        Its kernel density is the (m, n) score moment: the integral of
        f(x)^m (1 - f(x))^n over the centre position x.
        """
        if m < 0 or n < 0:
            raise ValidationError("star indices must be non-negative")
        out_edges = {(0, 1 + i) for i in range(m)}
        in_edges = {(1 + m + j, 0) for j in range(n)}
        return cls(1 + m + n, frozenset(out_edges | in_edges))

    @classmethod
    def from_spec(cls, spec: str) -> "DigraphPattern":
        """Parse "C3", "C4", "T5", "S1,1", "S_{2,0}" and friends."""
        spec = spec.strip()
        if spec.startswith("C") and spec[1:].isdigit():
            return cls.cycle(int(spec[1:]))
        if spec.startswith("T") and spec[1:].isdigit():
            return cls.transitive(int(spec[1:]))
        m = _PATTERN_SPEC.match(spec)
        if m:
            return cls.star(int(m.group(1)), int(m.group(2)))
        raise ValidationError(f"unknown pattern spec '{spec}'")

    def converse(self) -> "DigraphPattern":
        return DigraphPattern(self.k, frozenset((v, u) for (u, v) in self.edges))


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """An atomic probability distribution on [0, 1].

    Atoms are kept sorted with exact duplicates merged; an empirical sample
    list enters through :meth:`from_samples` as equal-weight atoms.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = _unit_array(self.positions, "positions")
        w, lightest, _ = _float_array(self.weights, "weights", 1)
        if p.shape != w.shape:
            raise ValidationError("positions and weights differ in length")
        if lightest <= 0:
            raise ValidationError("field 'weights' must be positive")
        if abs(math.fsum(w.tolist()) - 1.0) > TOL:
            raise ValidationError("field 'weights' must sum to 1")
        # canonical form: sorted positions, exact duplicates merged (add.at
        # adds each atom's duplicates in index order)
        uniq, inverse = np.unique(p, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, w)
        object.__setattr__(self, "positions", _freeze(uniq))
        object.__setattr__(self, "weights", _freeze(merged))

    @classmethod
    def from_atoms(cls, atoms) -> "DegreeDistribution":
        pos, wts = zip(*atoms)
        return cls(np.asarray(pos, dtype=float), np.asarray(wts, dtype=float))

    @classmethod
    def from_samples(cls, samples) -> "DegreeDistribution":
        s = np.asarray(samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValidationError("field 'samples' must be a non-empty vector")
        return cls(s, np.full(s.size, 1.0 / s.size))

    def mean(self) -> float:
        return float(np.dot(self.positions, self.weights))

    def to_csv(self) -> str:
        lines = ["position,weight"]
        lines += [f"{float(p)!r},{float(w)!r}" for p, w in zip(self.positions, self.weights)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DegreeDistribution":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "position,weight":
            raise ValidationError("field 'position,weight' header is missing")
        atoms = []
        for ln in lines[1:]:
            try:
                p, w = ln.split(",")
                atoms.append((float(p), float(w)))
            except ValueError as exc:
                raise ValidationError(f"malformed CSV row '{ln}'") from exc
        return cls.from_atoms(atoms)


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """A putative power-moment vector (a_0, ..., a_K) of a [0,1] function.

    Entries must lie in [0, 1]; a_0 = 1 and monotonicity are *reported* by
    the Hausdorff checker rather than enforced here, so that invalid inputs
    can be diagnosed with a witness.
    """

    a: np.ndarray

    def __post_init__(self):
        a = _unit_array(self.a, "a")
        object.__setattr__(self, "a", _freeze(a))

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def to_json_dict(self) -> dict:
        return {"a": self.a.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MomentSequence":
        if not isinstance(d, dict) or "a" not in d:
            raise ValidationError("field 'a' is missing")
        return cls(d["a"])


# ---------------------------------------------------------------------------
# conversions and rearrangements


def step_kernel_from_tournament(g: GeneralizedTournament) -> StepKernel:
    """The step kernel of a finite (generalised) tournament: off-diagonal
    blocks copy alpha, diagonal blocks are 1/2."""
    m = g._entries.astype(float)
    np.fill_diagonal(m, 0.5)
    return StepKernel._handed(m)


def _row_counts(a: np.ndarray) -> np.ndarray:
    """The True cells of each row of the 2-d bool array ``a``, counted in
    uint16 while a row has fewer than 2^16 cells, else in int64.  bool's
    own ``sum`` widens every cell to int64 on the way: at n = 500 and 900
    it took 137 and 480 us against 36 and 91 us for the uint16 count on a
    2-vCPU Xeon."""
    return a.view(np.uint8).sum(axis=1, dtype=np.uint16 if a.shape[1] < 2**16 else np.int64)


def scores_of_tournament(g: GeneralizedTournament) -> ScoreSequence:
    """Row sums of alpha.  Integer kind when g is an ordinary tournament,
    counted on its bools by ``_row_counts`` and stored as int64."""
    if g.is_tournament:
        return ScoreSequence(_row_counts(g._entries), "integer")
    vals = np.array([math.fsum(row) for row in g.alpha.tolist()])
    return ScoreSequence(vals, "real")


def score_function_of_kernel(w: StepKernel) -> ScoreFunction:
    """Cell means of the outdegree profile f(x) = integral of W(x, .).

    Row sums are accumulated with exactly rounded summation so that
    score-preserving constructions (the cyclic perturbation in particular)
    compare as exactly equal at double precision.
    """
    n = w.n
    cells = np.array([math.fsum(row) / n for row in w.blocks.tolist()])
    return ScoreFunction(cells)


def converse(x):
    """Reverse every orientation.  An exact involution (plain transpose)."""
    if isinstance(x, GeneralizedTournament):
        return GeneralizedTournament(x._entries.T)
    if isinstance(x, StepKernel):
        return StepKernel(x.blocks.T)
    raise TypeError("converse expects a GeneralizedTournament or StepKernel")


def decreasing_rearrangement(f: ScoreFunction) -> ScoreFunction:
    return ScoreFunction(np.sort(f.cells)[::-1])


def increasing_rearrangement(f: ScoreFunction) -> ScoreFunction:
    return ScoreFunction(np.sort(f.cells))


def rearrangement_permutation(f: ScoreFunction, decreasing: bool = True) -> np.ndarray:
    """The measure-preserving relabelling sigma with f[sigma] sorted.

    On a grid the transformation is just the sorting permutation of the
    cells; ties are broken by original index (stable sort).
    """
    key = -f.cells if decreasing else f.cells
    return np.argsort(key, kind="stable")


def degree_distribution(w: StepKernel, marginal: str = "out") -> DegreeDistribution:
    """Outdegree (or indegree) marginal of the kernel degree distribution.

    Atoms sit at the score-function cell values with weight 1/n each; the
    joint distribution is concentrated on the line x + y = 1, so either
    marginal determines it.
    """
    cells = score_function_of_kernel(w).cells
    if marginal == "out":
        pos = cells
    elif marginal == "in":
        pos = 1.0 - cells
    else:
        raise ValidationError("marginal must be 'out' or 'in'")
    n = len(pos)
    return DegreeDistribution(pos, np.full(n, 1.0 / n))


def wasserstein1(mu: DegreeDistribution, nu: DegreeDistribution) -> float:
    """Exact Wasserstein-1 distance between two atomic distributions.

    Computed as the area between the two CDF step functions, by merging
    their breakpoints.
    """
    return _w1(mu.positions, _cdf(mu.weights), nu.positions, _cdf(nu.weights))


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF table of atoms of ``weights``: 0, then the partial sums."""
    return np.concatenate(([0.0], np.cumsum(weights)))


def _w1(p_mu: np.ndarray, cdf_mu: np.ndarray, p_nu: np.ndarray, cdf_nu: np.ndarray) -> float:
    """wasserstein1 of the atomic laws with sorted distinct positions p and
    CDF tables ``_cdf`` of their weights, unchecked."""
    # the breakpoints are only compared and subtracted, so the sign of a zero is moot
    xs = _sorted_distinct(np.concatenate((p_mu, p_nu)))
    # one CDF lookup per side; before the first atom it reads the leading 0
    f_mu, f_nu = (
        cdf[np.searchsorted(p, xs, "right")] for p, cdf in ((p_mu, cdf_mu), (p_nu, cdf_nu))
    )
    return float(np.sum(np.abs(f_mu[:-1] - f_nu[:-1]) * np.diff(xs)))
