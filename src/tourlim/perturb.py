"""Score-preserving cyclic perturbations and non-uniqueness certificates.

Reversing 3-cycle mass inside a box of three blocks leaves every row sum of
a step kernel unchanged but moves the 4-cycle density along a closed-form
quartic in the perturbation strength, so any kernel with a cyclic box
admits a second, non-equivalent kernel with the same degree distribution.
Kernels without one (every ordered block triple has a cyclic entry 1, the
transitive family in particular) are reported as "transitive-like".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density
from .core import StepKernel, ValidationError, score_function_of_kernel
from .density import DigraphPattern, density_kernel

C4_DIFF_THRESHOLD = 1e-9
# elementwise operations of find_cyclic_box per ordered block triple: two
# minima and an argmax
_SCAN_OPS = 3
_CIRCULATION = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


@dataclass(frozen=True)
class CyclicBox:
    """An ordered triple of distinct blocks whose cyclic entries M(i,j),
    M(j,k), M(k,i) all have room at least delta below 1, which is also the
    room their transposes have above 0."""

    blocks: tuple
    delta: float

    def __post_init__(self):
        i, j, k = self.blocks
        if len({i, j, k}) != 3:
            raise ValidationError("cyclic box blocks must be distinct")
        if not 0.0 < self.delta <= 1.0:
            raise ValidationError("cyclic box room must lie in (0, 1]")


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
    """Largest admissible strength: s/n may not exceed the box room."""
    return min(1.0, w.n * box.delta)


def find_cyclic_box(w: StepKernel) -> CyclicBox | None:
    """The ordered block triple with the most room 1 - M on cyclic entries.

    Returns None when every triple has room 0, i.e. some cyclic entry is 1;
    ties go to the lexicographically smallest triple.  The triples are
    scanned one first block at a time, in O(n^2) memory.
    """
    n = w.n
    if n < 3:
        raise ValidationError("a cyclic box needs at least 3 blocks")
    room = 1.0 - w.blocks
    np.fill_diagonal(room, -1.0)  # rules out triples with a repeated block
    best, blocks = 0.0, None
    for i in range(n):
        # room of the triple (i, j, k) at [j, k]
        r = np.minimum(np.minimum(room, room[i][:, None]), room[:, i])
        j, k = divmod(int(np.argmax(r)), n)
        if r[j, k] > best:
            best, blocks = float(r[j, k]), (i, j, k)
    return None if blocks is None else CyclicBox(blocks, best)


def _check_round(n: int) -> None:
    """Reject a round of ``nonuniqueness_certificate`` on n blocks before it
    starts: t(C4) under density_kernel's guard, and its planned count plus
    the box scan's _SCAN_OPS n^3 elementwise operations at most
    MAX_FINITE_FLOPS."""
    (terms,) = density._priced((DigraphPattern.cycle(4),), "hom", 0, n)
    flops = density._flops(terms, n)
    flops += _SCAN_OPS * float(n) ** 3 if n >= 3 else 0.0
    if flops > density.MAX_FINITE_FLOPS:
        raise ValidationError(
            f"cyclic box scan too large (cost guard: {flops:.3g} planned operations "
            f"with t(C4) on {n} blocks)"
        )


def perturb_family(w: StepKernel, box: CyclicBox, s: float) -> StepKernel:
    """The kernel W_s: cyclic entries of the box raised by s/n, their
    transposes lowered by s/n, everything else untouched.

    Each affected row gains s/n on one entry and loses it on another, so
    the score function is unchanged.
    """
    i, j, k = box.blocks
    m = w.blocks
    for a, b in ((i, j), (j, k), (k, i)):
        if 1.0 - m[a, b] + 1e-12 < box.delta:
            raise ValidationError("box room does not match this kernel")
    smax = s_max_for(w, box)
    if not 0.0 <= s <= smax + 1e-12:
        raise ValidationError(f"strength s must lie in [0, {smax}]")
    shift = s / w.n
    out = m.copy()
    for a, b in ((i, j), (j, k), (k, i)):
        out[a, b] = m[a, b] + shift
        out[b, a] = m[b, a] - shift
    return StepKernel(out)


def c4_polynomial(w: StepKernel, box: CyclicBox) -> np.ndarray:
    """Coefficients (a_0..a_4) of s -> t(C4, W_s) = tr((M + sP)^4) / n^4,
    where the box circulation P is +1/n on the cyclic entries and -1/n on
    their transposes.  Over n^4: a_0 = tr(M^4), a_1 = 4 tr(M^3 P), a_2 =
    4 tr(M^2 P^2) + 2 tr((MP)^2), a_3 = 4 tr(M P^3), a_4 = tr(P^4).  P is
    zero off the box rows and columns B, so tr(X P^r) = tr(X[B,B] P[B,B]^r).
    """
    n = w.n
    m = w.blocks
    b = list(box.blocks)
    p = _CIRCULATION / n
    p2 = p @ p
    m2 = m @ m
    mb = m[np.ix_(b, b)]
    coeffs = np.array([
        np.sum(m2 * m2.T),
        4 * np.trace(m2[b] @ m[:, b] @ p),
        4 * np.trace(m2[np.ix_(b, b)] @ p2) + 2 * np.trace(mb @ p @ mb @ p),
        4 * np.trace(mb @ p2 @ p),
        np.trace(p2 @ p2),
    ]) / float(n) ** 4
    base = density_kernel(DigraphPattern.cycle(4), w)
    if not abs(coeffs[0] - base) <= 1e-10:  # also rejects NaN
        raise RuntimeError("quartic must anchor at t(C4, W)")
    if not coeffs[4] >= -1e-10:
        raise RuntimeError("leading coefficient must be non-negative")
    return coeffs


def nonuniqueness_certificate(
    w: StepKernel, refine_rounds: int = 0
) -> NonUniquenessCertificate | None:
    """Search for a score-preserving perturbation that moves t(C4).

    Perturbs the box with the most room at the strength in (0, s_max] that
    maximises |q(s) - q(0)| for the quartic q of c4_polynomial: s_max or a
    root of q'.  Returns None ("transitive-like") when no cyclic box exists
    or t(C4) moves by at most 1e-9.  Optional grid refinement (factor 2 per
    round, off by default) can expose cyclic mass inside diagonal blocks.
    A round whose t(C4) count and box scan together exceed
    MAX_FINITE_FLOPS is refused before it starts, and a round on a
    refinement before the refinement is built.
    """
    if refine_rounds < 0:
        raise ValidationError("refine_rounds must be non-negative")
    c4 = DigraphPattern.cycle(4)
    current = w
    _check_round(current.n)
    for round_idx in range(refine_rounds + 1):
        base = density_kernel(c4, current)
        box = find_cyclic_box(current) if current.n >= 3 else None
        if box is not None:
            q = c4_polynomial(current, box)
            smax = s_max_for(current, box)
            # real parts of all roots of q': a spurious candidate is harmless
            roots = np.roots((q[1:] * np.arange(1, 5))[::-1]).real
            cands = np.append(smax, roots[(roots > 0.0) & (roots < smax)])
            s0 = float(cands[np.argmax(np.abs(np.polyval(q[::-1], cands) - q[0]))])
            kernel = perturb_family(current, box, s0)
            c4_perturbed = density_kernel(c4, kernel)
            if abs(c4_perturbed - base) > C4_DIFF_THRESHOLD:
                f0 = score_function_of_kernel(current).cells
                f1 = score_function_of_kernel(kernel).cells
                moved = float(np.max(np.abs(f1 - f0)))
                return NonUniquenessCertificate(s0, kernel, base, c4_perturbed, moved)
        if round_idx < refine_rounds:
            _check_round(2 * current.n)
            current = current.refine(2)
    return None
