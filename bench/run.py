"""tourlim benchmark: fixed lists of CLI calls, timed end to end and traced
layer by layer.

    python3 bench/run.py --workload scores --seed 1 --seconds 30 --trace 0

One client drives ``tourlim.cli.main(argv)`` in this process as a closed
loop: the next call starts only after the previous one returned and its
output was checked.  ``--trace 0`` times CLI calls, short ones several times
a pass, and reports the end-to-end metrics from each call's median scaled
latency; ``--trace 1`` alternates CLI passes with traced replay passes
(``replay.py``) and reports the per-layer metrics.  Report lines go
to stdout; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results and spans are written under
``.bench_out/`` at the repository root.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scores", "densities", "sampling")  # as in workloads.py
SETUP_PROBES = 9
WARMUP_PASSES = 2
MIN_PASSES = 3
# a call that took t in warm-up runs min(MAX_REPEATS, round(REPEAT_TARGET_S / t))
# times in a row in each timed pass
REPEAT_TARGET_S = 0.2
MAX_REPEATS = 10
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

# span name -> per-layer time metric (self time, seconds per pass)
LAYER_SPANS = (
    "cli.decode", "cli.encode",
    "core.decode", "core.encode", "core.w1",
    "conditions.check",
    "realize.scores", "realize.selfconverse", "realize.discretize",
    "density.finite", "density.kernel", "density.fingerprint",
    "sample.draw", "sample.converge",
    "perturb.certificate",
)
COUNTERS = (
    "cli.bytes_in", "cli.bytes_out", "conditions.calls", "realize.pairs",
    "density.finite_calls", "density.assignments", "sample.pairs_drawn",
    "perturb.calls",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "cli.residual_s": "s",
    "conditions.calls": "count",
    "conditions.false_reject": "count",
    "realize.pairs": "count",
    "realize.ns_per_pair": "ns",
    "density.finite_calls": "count",
    "density.assignments": "count",
    "density.small_call_ms": "ms",
    "sample.pairs_drawn": "count",
    "perturb.calls": "count",
    "trace.overhead_frac": "frac",
}


def _pin_blas_threads() -> int:
    """Run OpenBLAS on one thread; returns the number of usable CPUs.

    On a 2-CPU machine the workloads' small matrix products ran slower and
    less steadily on two BLAS threads than on one (densities pass 4.1 s
    against 3.3 s).  One thread keeps the client a single-threaded process.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def _blas_info() -> dict:
    import numpy as np

    info = {"blas": "unknown", "blas_version": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas["name"], blas["version"]
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["blas_threads"] = fn()
    return info


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# The machine this benchmark was tuned on changes speed by 10-40 % over
# seconds to minutes (other tenants share its cores and memory).  A fixed
# calibration step, run untimed just before every timed call, does the kinds
# of work a small CLI call does, with none of tourlim's code: an interpreter
# loop, JSON encoding and decoding through a file, and small numpy products.
# Each call's latency is scaled by (CALIBRATION_REF_S / the calibration just
# before it) ** e, where e is the workload's calibration_exponent: how
# strongly its calls follow the calibration (see workloads.py).  Times are
# thus reported in seconds of a machine on which the calibration takes
# CALIBRATION_REF_S, about what it took on that Xeon.
CALIBRATION_REF_S = 7e-3


class Calibration:
    """The fixed calibration step; calling it returns its time in seconds."""

    def __init__(self, scratch: Path):
        import numpy as np

        self.np = np
        self.values = [i * 0.37 for i in range(3000)]
        self.matrix = np.arange(10000.0).reshape(100, 100) / 1e4
        self.file = scratch / "calibration.json"

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        s = 0
        for i in range(10000):
            s += i * i % 7
        self.file.write_text(json.dumps({"v": self.values}, indent=2, sort_keys=True))
        a = np.array(json.loads(self.file.read_text())["v"]).reshape(30, 100)
        [list(map(float, row)) for row in a @ (self.matrix @ self.matrix)]
        return time.perf_counter() - t0


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except AttributeError:  # not glibc
    def _malloc_trim(pad: int) -> int:
        return 0


def _fresh_heap():
    """Free what earlier calls left behind, as a new CLI process would start.

    Without this, a small call after a large one ran at two distinct speeds
    depending on whether the allocator still held the large call's pages.
    """
    gc.collect()
    _malloc_trim(0)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs a workload's calls and keeps every call's verdict."""

    def __init__(self, workload, indir: Path, outdir: Path):
        # numpy users are imported only once run() has pinned the BLAS threads
        import checks
        from tourlim import cli

        self.cli = cli
        self.checks = checks
        self.wl = workload
        self.indir = indir
        self.outdir = outdir
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_in = [(indir / c.input).stat().st_size for c in workload.calls]
        self.bytes_out = [0] * len(workload.calls)
        self.calibrate = Calibration(outdir)

    def scale(self, seconds: float, calibration: float) -> float:
        """A latency in seconds of the reference machine (CALIBRATION_REF_S)."""
        return seconds * (CALIBRATION_REF_S / calibration) ** self.wl.calibration_exponent

    def _verify(self, i: int, code: int, output: Path, how: str):
        """Exit code, then the full check once, then bit-for-bit equality."""
        self.attempted += 1
        call = self.wl.calls[i]
        checks = self.checks
        try:
            if code != call.exit_code:
                raise checks.CheckError(f"exit code {code}, expected {call.exit_code}")
            if i not in self.digests:
                data = output.read_bytes()
                call.check(data)
                self.digests[i] = hashlib.sha256(data).hexdigest()
                self.bytes_out[i] = len(data)
            elif _digest(output) != self.digests[i]:
                raise checks.CheckError("output differs from the checked output")
        except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append(f"{how} {call.label()}: {exc}")

    def cli_pass(self, repeats=None) -> list[list[tuple[float, float]]]:
        """One pass of CLI calls, call i run ``repeats[i]`` times in a row
        (once each by default): per call, one ``(latency, calibration)``
        pair in seconds per run."""
        samples = []
        for i, call in enumerate(self.wl.calls):
            output = self.outdir / f"{i}.out"
            argv = call.argv(self.indir, output)
            runs = []
            for _ in range(repeats[i] if repeats else 1):
                _fresh_heap()
                calibration = self.calibrate()
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                runs.append((time.perf_counter() - t0, calibration))
                self._verify(i, code, output, "cli")
            samples.append(runs)
        return samples

    def traced_pass(self, rec) -> list[float]:
        """One pass of replays; each must write the CLI's bytes."""
        import replay

        times = []
        for i, call in enumerate(self.wl.calls):
            output = self.outdir / f"{i}.replay"
            rec.call_id = i
            _fresh_heap()
            t0 = time.perf_counter()
            code = replay.replay(call, self.indir, output, rec)
            times.append(time.perf_counter() - t0)
            self._verify(i, code, output, "replay")
        return times

    def known_defect(self) -> int:
        """Valid inputs from the workload's probe list that the CLI rejects."""
        rejected = 0
        for j, call in enumerate(self.wl.probe):
            output = self.outdir / f"probe{j}.out"
            code = self.cli.main(call.argv(self.indir, output))
            if code != call.exit_code:
                rejected += 1
        return rejected


def _setup_times(workload, indir: Path, outdir: Path, runner: Runner) -> list[float]:
    """Fresh interpreter to ready, once per probe, scaled by the median of
    five calibrations just before it."""
    calls_file = outdir / "probe_calls.json"
    argvs = [c.argv(indir, outdir / f"setup{j}.out") for j, c in enumerate(workload.tail)]
    calls_file.write_text(json.dumps(argvs))
    times = []
    for _ in range(SETUP_PROBES):
        calibration = statistics.median(runner.calibrate() for _ in range(5))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(SRC), str(calls_file)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        runner.attempted += 1
        if line != "ready":
            runner.failures.append(f"setup probe printed {line!r}")
        times.append(runner.scale(elapsed, calibration))
    return times


def _timed_loop(seconds: float, min_rounds: int, one_round) -> None:
    """Run rounds until the next one would end after ``seconds``, but at
    least ``min_rounds`` of them."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return


def _quantile(samples, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _layer_values(rec) -> dict:
    """Per-layer values of one traced pass."""
    own = rec.self_times()
    values = {f"{name}_s": 0.0 for name in LAYER_SPANS}
    small = []
    for (name, start, end, parent, _), t in zip(rec.spans, own):
        if name in LAYER_SPANS:
            values[f"{name}_s"] += t
        if name == "density.finite" and parent is not None \
                and rec.spans[parent][0] == "sample.converge":
            small.append((end - start) * 1e3)
    values["layers_s"] = sum(values[f"{name}_s"] for name in LAYER_SPANS)
    values["replay_glue_s"] = sum(t for s, t in zip(rec.spans, own) if s[0] == "call")
    values["density.small_call_ms"] = statistics.median(small)
    for name in COUNTERS:
        values[name] = rec.counts[name]
    return values


def run(args) -> int:
    if not (SRC / "tourlim" / "__init__.py").is_file():
        print(f"error: no tourlim sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np
    import tourlim

    if Path(tourlim.__file__).resolve().parent != (SRC / "tourlim").resolve():
        print(f"error: imported tourlim from {tourlim.__file__}", file=sys.stderr)
        return 2
    import replay
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    indir, outdir = workdir / "in", workdir / "out"
    try:
        indir.mkdir(parents=True)
        outdir.mkdir()
        wl = workloads.build(args.workload, args.seed, indir)
        runner = Runner(wl, indir, outdir)
        setup = [] if args.trace else _setup_times(wl, indir, outdir, runner)
        for _ in range(WARMUP_PASSES):
            warm = runner.cli_pass()
        # what is alive now (modules, inputs, checked outputs) stays alive;
        # kept out of the collector, it no longer makes each _fresh_heap()
        # cost about as much as a small call
        gc.freeze()
        # Short calls run several times in a row in each timed pass: the
        # calls around p50 get tens of samples in a run while a pass still
        # takes a few seconds.  Traced rounds pair one plain CLI pass with
        # one replay pass.
        repeats = None if args.trace else [
            min(MAX_REPEATS, max(1, round(REPEAT_TARGET_S / runs[0][0]))) for runs in warm]
        if args.trace:
            runner.traced_pass(replay.Recorder())

        passes: list[list[list[tuple[float, float]]]] = []
        recorders = []
        traced: list[float] = []

        def one_round():
            passes.append(runner.cli_pass(repeats))
            if args.trace:
                rec = replay.Recorder()
                traced.append(sum(runner.traced_pass(rec)))
                recorders.append(rec)

        _timed_loop(args.seconds, MIN_PASSES, one_round)
        false_rejects = runner.known_defect()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ncalls = len(wl.calls)
    walls = [sum(t for runs in p for t, _ in runs) for p in passes]
    # every timed run of call i, scaled by the calibration just before it
    scaled = [[runner.scale(t, c) for p in passes for t, c in p[i]]
              for i in range(ncalls)]
    per_call = [statistics.median(runs) for runs in scaled]
    samples = sum(len(runs) for runs in scaled)
    p90 = _quantile(per_call, 90)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, **_blas_info(), "nproc": nproc,
        "tourlim": tourlim.__version__, "commit": _git_commit(),
        "input_digest": wl.input_digest, "closed_loop_clients": 1,
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_exponent": wl.calibration_exponent,
    }
    if args.trace:
        per_pass = [_layer_values(rec) for rec in recorders]
        med = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics = {k: med[k] for k in PER_LAYER if k in med}
        # each traced pass is compared with the CLI pass just before it, so
        # that both saw the machine in the same state
        metrics["cli.residual_s"] = statistics.median(
            w - p["layers_s"] for w, p in zip(walls, per_pass))
        metrics["conditions.false_reject"] = false_rejects
        # every workload realizes and converges at least in its tail calls
        metrics["realize.ns_per_pair"] = med["realize.scores_s"] / med["realize.pairs"] * 1e9
        metrics["trace.overhead_frac"] = statistics.median(
            t / w - 1.0 for t, w in zip(traced, walls))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_call),
            "call_p50_ms": statistics.median(per_call) * 1e3,
            "call_p90_ms": p90 * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    beyond_p90 = sum(1 for runs in scaled for t in runs if t > p90)
    calls = [
        {"call": c.label(), "bytes_in": runner.bytes_in[i], "bytes_out": runner.bytes_out[i],
         "runs_per_pass": repeats[i] if repeats else 1, "median_ms": per_call[i] * 1e3}
        for i, c in enumerate(wl.calls)
    ]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **result, "meta": meta, "calls": calls, "failures": runner.failures,
        "pass_walls": walls, "call_samples": samples,
        "per_call_runs": [[r for p in passes for r in p[i]] for i in range(ncalls)],
        "samples_beyond_p90": beyond_p90, "setup_samples": setup,
        "known_defect_rejects": false_rejects, "known_defect_calls": len(wl.probe),
    }, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [{"pass": p, "spans": rec.as_json()} for p, rec in enumerate(recorders)]))

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# {ncalls} calls per pass, {len(passes)} timed passes after "
          f"{WARMUP_PASSES} warm-up; {samples} call samples, {beyond_p90} beyond p90; "
          f"{len(setup)} set-up probes")
    for k in units:
        print(f"# {k:<24} {metrics[k]:>16.6f} {units[k]}")
    if args.trace:
        print(f"# accounting (unscaled medians over rounds): CLI pass "
              f"{statistics.median(walls):.4f} s, traced layers {med['layers_s']:.4f} s, "
              f"replay pass {statistics.median(traced):.4f} s of which file I/O "
              f"{med['replay_glue_s']:.4f} s; cli.residual_s is the median of "
              f"per-round CLI pass minus traced layers")
    print(f"# failed {len(runner.failures)} of {runner.attempted} attempted "
          f"(failed_frac {len(runner.failures) / runner.attempted:.6f})")
    for failure in runner.failures[:10]:
        print(f"#   FAILED {failure}")
    if wl.probe:
        print(f"# known defect, not gated: check-score-seq rejected {false_rejects} of "
              f"{len(wl.probe)} valid non-dyadic real score sequences")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
