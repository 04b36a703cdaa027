"""Score-preserving cyclic perturbations and non-uniqueness certificates.

Reversing 3-cycle mass inside a box of three blocks leaves every row sum of
a step kernel unchanged but moves the 4-cycle density along a quartic in
the perturbation strength, so any kernel with an interior cyclic box admits
a second, non-equivalent kernel with the same degree distribution.  Kernels
without such a box (0/1 off-diagonal entries everywhere, the transitive
family in particular) are reported as "transitive-like".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StepKernel, ValidationError, score_function_of_kernel
from .density import DigraphPattern, density_kernel

S_GRID_POINTS = 17
C4_DIFF_THRESHOLD = 1e-9


@dataclass(frozen=True)
class CyclicBox:
    """An ordered triple of distinct blocks whose cyclic entries M(i,j),
    M(j,k), M(k,i) all sit at distance at least delta from {0, 1}."""

    blocks: tuple
    delta: float

    def __post_init__(self):
        i, j, k = self.blocks
        if len({i, j, k}) != 3:
            raise ValidationError("cyclic box blocks must be distinct")
        if not 0.0 < self.delta <= 0.5:
            raise ValidationError("cyclic box margin must lie in (0, 1/2]")


@dataclass(frozen=True, eq=False)
class NonUniquenessCertificate:
    """A witness pair: same degree distribution, different C4 density."""

    s0: float
    kernel_s0: StepKernel
    c4_base: float
    c4_perturbed: float
    score_max_diff: float

    def __post_init__(self):
        if self.score_max_diff > 1e-12:
            raise ValidationError("certificate does not preserve the score function")
        if abs(self.c4_perturbed - self.c4_base) <= C4_DIFF_THRESHOLD:
            raise ValidationError("certificate C4 densities are too close")

    def to_json_dict(self) -> dict:
        return {
            "s0": float(self.s0),
            "c4_base": float(self.c4_base),
            "c4_perturbed": float(self.c4_perturbed),
            "score_max_diff": float(self.score_max_diff),
            "kernel": self.kernel_s0.to_json_dict(),
        }


def s_max_for(w: StepKernel, box: CyclicBox) -> float:
    """Largest admissible strength: s/n may not exceed the box margin."""
    return min(1.0, w.n * box.delta)


def find_cyclic_box(w: StepKernel) -> CyclicBox | None:
    """The ordered block triple maximising the interior margin.

    Returns None when every triple has margin 0, i.e. each cyclic entry
    set touches {0, 1}; ties go to the lexicographically smallest triple
    (argmax in C order).
    """
    n = w.n
    if n < 3:
        raise ValidationError("a cyclic box needs at least 3 blocks")
    m = w.blocks
    g = np.minimum(m, 1.0 - m)  # distance to {0, 1}
    margins = np.minimum(np.minimum(g[:, :, None], g[None, :, :]), g.T[:, None, :])
    idx = np.arange(n)
    margins[idx, idx, :] = -1.0
    margins[idx, :, idx] = -1.0
    margins[:, idx, idx] = -1.0
    flat = int(np.argmax(margins))
    i, j, k = np.unravel_index(flat, margins.shape)
    best = float(margins[i, j, k])
    if best <= 0.0:
        return None
    return CyclicBox((int(i), int(j), int(k)), best)


def perturb_family(w: StepKernel, box: CyclicBox, s: float) -> StepKernel:
    """The kernel W_s: cyclic entries of the box raised by s/n, their
    transposes lowered by s/n, everything else untouched.

    Each affected row gains s/n on one entry and loses it on another, so
    the score function is unchanged.
    """
    i, j, k = box.blocks
    n = w.n
    m = w.blocks
    for a, b in ((i, j), (j, k), (k, i)):
        entry = m[a, b]
        if min(entry, 1.0 - entry) + 1e-12 < box.delta:
            raise ValidationError("box margin does not match this kernel")
    smax = s_max_for(w, box)
    if not 0.0 <= s <= smax + 1e-12:
        raise ValidationError(f"strength s must lie in [0, {smax}]")
    shift = s / n
    out = m.copy()
    for a, b in ((i, j), (j, k), (k, i)):
        out[a, b] = m[a, b] + shift
        out[b, a] = m[b, a] - shift
    return StepKernel(out)


def c4_polynomial(w: StepKernel, box: CyclicBox) -> np.ndarray:
    """Coefficients (a_0..a_4) of the quartic s -> t(C4, W_s), fitted
    exactly from 5 evaluations via a Vandermonde solve.

    Boxes whose margin is so small that the strength powers underflow give
    a degenerate grid and are rejected.
    """
    smax = s_max_for(w, box)
    s_pts = np.linspace(0.0, smax, 5)
    c4 = DigraphPattern.cycle(4)
    vals = [density_kernel(c4, perturb_family(w, box, float(s))) for s in s_pts]
    try:
        coeffs = np.linalg.solve(np.vander(s_pts, 5, increasing=True), np.asarray(vals))
    except np.linalg.LinAlgError as exc:
        raise ValidationError("degenerate strength grid for this box") from exc
    base = density_kernel(c4, w)
    if not abs(coeffs[0] - base) <= 1e-10:  # also rejects NaN
        raise RuntimeError("quartic must anchor at t(C4, W)")
    if not coeffs[4] >= -1e-10:
        raise RuntimeError("leading coefficient must be non-negative")
    return coeffs


def nonuniqueness_certificate(
    w: StepKernel, refine_rounds: int = 0
) -> NonUniquenessCertificate | None:
    """Search for a score-preserving perturbation that moves t(C4).

    Scans 17 strengths in (0, s_max]; returns None ("transitive-like") when
    no cyclic box exists or no strength moves the C4 density beyond 1e-9.
    Optional grid refinement (factor 2 per round) can expose cyclic mass
    hiding inside diagonal blocks; it is off by default, so 0/1 transitive
    kernels report transitive-like at their native resolution.
    """
    if refine_rounds < 0:
        raise ValidationError("refine_rounds must be non-negative")
    c4 = DigraphPattern.cycle(4)
    current = w
    for round_idx in range(refine_rounds + 1):
        if current.n >= 3:
            box = find_cyclic_box(current)
            if box is not None:
                smax = s_max_for(current, box)
                base = density_kernel(c4, current)
                best_s, best_diff, best_kernel = None, 0.0, None
                for step in range(1, S_GRID_POINTS + 1):
                    s = smax * step / S_GRID_POINTS
                    cand = perturb_family(current, box, s)
                    diff = abs(density_kernel(c4, cand) - base)
                    if diff > best_diff:
                        best_s, best_diff, best_kernel = s, diff, cand
                if best_diff > C4_DIFF_THRESHOLD:
                    f0 = score_function_of_kernel(current).cells
                    f1 = score_function_of_kernel(best_kernel).cells
                    return NonUniquenessCertificate(
                        s0=float(best_s),
                        kernel_s0=best_kernel,
                        c4_base=base,
                        c4_perturbed=density_kernel(c4, best_kernel),
                        score_max_diff=float(np.max(np.abs(f1 - f0))),
                    )
        if round_idx < refine_rounds:
            current = current.refine(2)
    return None
