"""Workload definitions: seeded inputs and the fixed list of CLI calls.

Inputs are generated here with numpy from the benchmark's own seed, never
with ``tourlim.sample``, so a change to the package cannot change what the
benchmark feeds it.  Each call carries the check its output must pass.

Every workload ends with the same five tiny calls (``_tail``).  They keep
every layer's counters and times non-zero in every workload, at a cost of a
few milliseconds per pass, so that a layer's prediction of "no change" on a
workload is a measured value rather than a missing one.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("scores", "densities", "sampling")  # also listed in run.py

# How strongly each workload's call times follow run.py's calibration step
# from run to run.  Over ten-run sets on a shared 2-vCPU Xeon, the slope of
# log call time on log calibration time was 0.6-1.3 for the interpreter-bound
# calls that make up `scores` and most of `sampling` (the flow realizer, JSON
# encoding, every short call) and 0.1-0.5 for the numpy contractions that
# dominate `densities` (T4, C4, fingerprints); the quartile spreads of each
# workload's end-to-end metrics were smallest near these exponents.
CALIBRATION_EXPONENTS = {"scores": 1.0, "densities": 0.5, "sampling": 1.0}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``tourlim <cmd> --input <input> <opts>``."""

    cmd: str
    input: str
    opts: tuple
    check: Callable[[bytes], None]
    exit_code: int = 0

    def argv(self, indir: Path, output: Path) -> list[str]:
        return [self.cmd, "--input", str(indir / self.input), *self.opts,
                "--output", str(output)]

    def label(self) -> str:
        return " ".join([self.cmd, self.input, *self.opts])


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    tail: tuple        # the tiny calls, also run by the set-up probe
    probe: tuple       # known-defect calls, run after timing and not gated
    input_digest: str
    calibration_exponent: float


# ---------------------------------------------------------------------------
# seeded generators (numpy only)


def _tournament(rng, n: int) -> np.ndarray:
    """Uniform random 0/1 tournament."""
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return a + np.tril(1.0 - a.T, -1)


def _generalized(rng, n: int) -> np.ndarray:
    """Generalised tournament with uniform [0, 1] entries above the diagonal."""
    a = np.triu(rng.random((n, n)), 1)
    return a + np.tril(1.0 - a.T, -1)


def _kernel(rng, n: int, lo=0.0, hi=1.0) -> np.ndarray:
    a = np.triu(lo + (hi - lo) * rng.random((n, n)), 1)
    m = a + np.tril(1.0 - a.T, -1)
    np.fill_diagonal(m, 0.5)
    return m


def _symmetric_dyadic_kernel(rng, n: int) -> np.ndarray:
    """Kernel with entries in multiples of 1/8 and M(a,b) = M(n-1-b, n-1-a),
    so its score function meets both score-function conditions exactly."""
    a = np.triu(rng.integers(0, 5, (n, n)) / 4.0, 1)
    m = a + np.tril(1.0 - a.T, -1)
    np.fill_diagonal(m, 0.5)
    return (m + m[::-1, ::-1].T) / 2.0


def _transitive_kernel(n: int) -> np.ndarray:
    m = np.triu(np.ones((n, n)), 1)
    np.fill_diagonal(m, 0.5)
    return m


def _self_converse_tournament(rng, n: int) -> np.ndarray:
    """0/1 tournament with an anti-automorphism swapping v_i and w_i (and
    fixing a middle vertex when n is odd), so its scores meet Eplett."""
    h = n // 2
    vv = _tournament(rng, h)
    vw = np.triu((rng.random((h, h)) < 0.5).astype(float))
    vw = vw + np.triu(vw, 1).T
    a = np.block([[vv, vw], [1.0 - vw.T, vv.T]])
    if n % 2:
        c = (rng.random(h) < 0.5).astype(float)
        row = np.concatenate([c, 1.0 - c])
        a = np.block([[a, 1.0 - row[:, None]], [row[None, :], np.zeros((1, 1))]])
    return a


def _real_scores(rng, n: int, dyadic: bool) -> np.ndarray:
    """Row sums of a random generalised tournament, built in row chunks so
    that n in the thousands never holds an n x n matrix."""
    scores = np.zeros(n)
    cols = np.arange(n)[None, :]
    for start in range(0, n, 256):
        stop = min(n, start + 256)
        shape = (stop - start, n)
        u = rng.integers(0, 5, shape) / 4.0 if dyadic else rng.random(shape)
        upper = cols > np.arange(start, stop)[:, None]
        u = np.where(upper, u, 0.0)
        scores[start:stop] += u.sum(axis=1)
        scores += np.where(upper, 1.0 - u, 0.0).sum(axis=0)
    return scores


def _eplett_real(rng, n: int) -> np.ndarray:
    """Average of a dyadic score sequence with its converse: Landau-valid
    (the realizable set is convex) and paired exactly."""
    d = np.sort(_real_scores(rng, n, dyadic=True))
    return rng.permutation((d + (n - 1) - d[::-1]) / 2.0)


# ---------------------------------------------------------------------------
# input files


class _Inputs:
    def __init__(self, indir: Path):
        self.indir = indir
        self.names: list[str] = []

    def write(self, name: str, payload: dict) -> str:
        (self.indir / name).write_text(json.dumps(payload))
        self.names.append(name)
        return name

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.names):
            h.update(name.encode())
            h.update((self.indir / name).read_bytes())
        return h.hexdigest()


def _seq(values, kind):
    vals = [int(v) for v in values] if kind == "integer" else [float(v) for v in values]
    return {"values": vals, "kind": kind}


def _alpha(a):
    return {"n": a.shape[0], "alpha": a.tolist()}


def _blocks(m):
    return {"n": m.shape[0], "blocks": m.tolist()}


def _cells(m):
    return {"cells": (m.sum(axis=1) / m.shape[0]).tolist()}


# ---------------------------------------------------------------------------
# call builders


def _check_seq(inp, name, values, kind, eplett=False):
    check, code = checks.check_landau_report(values, kind, eplett)
    opts = ("--eplett",) if eplett else ()
    return Call("check-score-seq", inp.write(name, _seq(values, kind)), opts, check, code)


def _realize(inp, name, values):
    return Call("realize", inp.write(name, _seq(values, "integer")), (),
                checks.check_realize(values))


def _realize_sc(inp, name, values):
    return Call("realize-selfconverse", inp.write(name, _seq(values, "integer")), (),
                checks.check_realize_selfconverse(values))


def _density_finite(file, a, spec, mode):
    return Call("density", file, ("--pattern", spec, "--mode", mode),
                checks.check_density(checks.finite_reference(spec, mode, a)))


def _density_kernel(file, m, spec):
    return Call("density", file, ("--pattern", spec),
                checks.check_density(checks.kernel_reference(spec, m)))


def _converge(file, m, specs, sizes, reps, seed):
    opts = [x for spec in specs for x in ("--pattern", spec)]
    opts += ["--sizes", ",".join(map(str, sizes)), "--reps", str(reps), "--seed", str(seed)]
    return Call("converge", file, tuple(opts), checks.check_converge(m, specs, sizes))


def _perturb(file, m, refine, certificate):
    opts = ("--refine-rounds", str(refine)) if refine else ()
    return Call("perturb", file, opts, checks.check_perturb(m, refine, certificate))


def _fingerprint(file, m, order):
    return Call("fingerprint", file, ("--order", str(order)),
                checks.check_fingerprint(m, order))


def _tail(rng, inp, seed) -> list[Call]:
    """Tiny calls that touch every layer (see the module docstring)."""
    sc = _self_converse_tournament(rng, 9).sum(axis=1)
    fn16 = _symmetric_dyadic_kernel(rng, 16)
    cells16 = fn16.sum(axis=1) / 16
    k3, k4c, k4p = _kernel(rng, 3), _kernel(rng, 4), _kernel(rng, 4, 0.2, 0.8)
    return [
        _realize_sc(inp, "tail_sc9.json", sc),
        Call("kernel-from-fn", inp.write("tail_fn16.json", _cells(fn16)), ("--blocks", "8"),
             checks.check_kernel_from_fn(cells16, 8)),
        _fingerprint(inp.write("tail_k3.json", _blocks(k3)), k3, 5),
        _converge(inp.write("tail_k4.json", _blocks(k4c)), k4c, ("C3", "S1,1"),
                  (8, 16), 2, seed),
        _perturb(inp.write("tail_k4p.json", _blocks(k4p)), k4p, 0, True),
    ]


def _scores(rng, inp, seed):
    calls = []
    for n in (50, 100, 200, 300):
        calls.append(_realize(inp, f"realize_{n}.json", _tournament(rng, n).sum(axis=1)))
    for n in (75, 150):
        sc = rng.permutation(_self_converse_tournament(rng, n).sum(axis=1))
        calls.append(_realize_sc(inp, f"selfconverse_{n}.json", sc))
    fn = _symmetric_dyadic_kernel(rng, 256)
    cells = fn.sum(axis=1) / 256
    fn_file = inp.write("fn_256.json", _cells(fn))
    for blocks in (64, 128):
        calls.append(Call("kernel-from-fn", fn_file, ("--blocks", str(blocks)),
                          checks.check_kernel_from_fn(cells, blocks)))
    for blocks in (32, 64, 128):
        calls.append(Call("discretize", fn_file, ("--blocks", str(blocks)),
                          checks.check_discretize(cells, blocks)))
    calls.append(_check_seq(inp, "int_400.json", _tournament(rng, 400).sum(axis=1),
                            "integer"))
    calls.append(_check_seq(inp, "int_sc_400.json",
                            _self_converse_tournament(rng, 400).sum(axis=1),
                            "integer", eplett=True))
    calls.append(_check_seq(inp, "int_1000.json", _tournament(rng, 1000).sum(axis=1),
                            "integer"))
    calls.append(_check_seq(inp, "real_sc_1500.json", _eplett_real(rng, 1500), "real",
                            eplett=True))
    calls.append(_check_seq(inp, "real_3000.json", _real_scores(rng, 3000, True), "real"))
    calls.append(_check_seq(inp, "real_sc_6000.json", _eplett_real(rng, 6000), "real",
                            eplett=True))
    check, code = checks.check_condition_report(cells, "I")
    calls.append(Call("check-score-fn", fn_file, ("--condition", "I"), check, code))
    fine = np.repeat(cells, 16)
    fine_file = inp.write("fn_4096.json", {"cells": fine.tolist()})
    for cond in ("I", "II"):
        check, code = checks.check_condition_report(fine, cond)
        calls.append(Call("check-score-fn", fine_file, ("--condition", cond), check, code))
    # Real-kind inputs that are not dyadic: valid by construction, but the
    # naive-prefix Landau check rejects some of them.  They are run and
    # reported apart from the timed calls (see README, "Known defect").
    probe = [
        _check_seq(inp, f"probe_real_{n}_{i}.json", _real_scores(rng, n, False), "real")
        for n in (3000, 6000) for i in range(2)
    ]
    return calls, probe


def _densities(rng, inp, seed):
    calls = []
    t100 = _tournament(rng, 100)
    f = inp.write("tournament_100.json", _alpha(t100))
    calls += [_density_finite(f, t100, "T4", "hom"), _density_finite(f, t100, "T4", "inj")]
    g80 = _generalized(rng, 80)
    f = inp.write("generalized_80.json", _alpha(g80))
    calls += [_density_finite(f, g80, "T4", "inj"), _density_finite(f, g80, "C3", "hom")]
    t500 = _tournament(rng, 500)
    f = inp.write("tournament_500.json", _alpha(t500))
    calls += [_density_finite(f, t500, spec, mode)
              for spec, mode in (("C4", "inj"), ("C3", "hom"), ("C3", "inj"), ("S1,1", "inj"))]
    calls.append(Call("degree-dist", f, (), checks.check_degree_dist(t500.sum(axis=1) / 500)))
    g48 = _generalized(rng, 48)
    calls.append(_density_finite(inp.write("generalized_48.json", _alpha(g48)), g48,
                                 "C4", "ind"))
    k40 = _kernel(rng, 40)
    f = inp.write("kernel_40.json", _blocks(k40))
    calls += [_density_kernel(f, k40, spec) for spec in ("C3", "C4", "T4")]
    k20 = _kernel(rng, 20, 0.2, 0.8)
    f = inp.write("kernel_20.json", _blocks(k20))
    calls += [_fingerprint(f, k20, 5), _perturb(f, k20, 0, True)]
    k60 = _kernel(rng, 60)
    f = inp.write("kernel_60.json", _blocks(k60))
    calls += [_fingerprint(f, k60, 4), _density_kernel(f, k60, "T4")]
    calls.append(Call("degree-dist", f, (), checks.check_degree_dist(checks.row_means(k60))))
    tr = _transitive_kernel(8)
    f = inp.write("transitive_8.json", _blocks(tr))
    # the transitive kernel is determined by its degree distribution, so no
    # refinement may produce a certificate
    calls += [_perturb(f, tr, 0, False), _perturb(f, tr, 2, False)]
    return calls, []


def _sampling(rng, inp, seed):
    calls = []
    k8 = _kernel(rng, 8)
    f = inp.write("kernel_8.json", _blocks(k8))
    for i, n in enumerate((125, 250, 500, 900)):
        calls.append(Call("sample", f, ("--size", str(n), "--seed", str(seed + i)),
                          checks.check_sample(n)))
    calls.append(_converge(f, k8, ("C3", "S1,1", "C4"), (100, 200), 6, seed))
    ks = _symmetric_dyadic_kernel(rng, 8)
    f = inp.write("kernel_sc_8.json", _blocks(ks))
    for i, m in enumerate((100, 250, 400)):
        calls.append(Call("sample-selfconverse", f,
                          ("--size", str(m), "--sigma", "reverse", "--seed", str(seed + i)),
                          checks.check_sample_selfconverse(m)))
    calls.append(Call("degree-dist", f, (), checks.check_degree_dist(checks.row_means(ks))))
    half = np.full((1, 1), 0.5)
    f = inp.write("kernel_half.json", _blocks(half))
    calls.append(_converge(f, half, ("S0,1", "S1,1", "C3"), (500,), 12, seed))
    return calls, []


_BUILDERS = {"scores": _scores, "densities": _densities, "sampling": _sampling}


def build(name: str, seed: int, indir: Path) -> Workload:
    """Write the workload's inputs for ``seed`` into ``indir``."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    inp = _Inputs(indir)
    calls, probe = _BUILDERS[name](rng, inp, seed)
    tail = _tail(rng, inp, seed)
    return Workload(name, tuple(calls + tail), tuple(tail), tuple(probe), inp.digest(),
                    CALIBRATION_EXPONENTS[name])
