"""Traced replay: each CLI call re-run as its sequence of public calls.

A replay does what the CLI handler does, one public function at a time,
with a span around each.  Span names are ``<layer>.<what>``; the layer is
the tourlim module whose function runs inside it.  The replay must write
exactly the bytes the CLI writes for the same call, otherwise it is not
measuring the same work (``run.py`` checks this on every traced pass).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
from checks import TOURNAMENT_CLASS_COUNTS

from tourlim import conditions, density, perturb, realize, sample
from tourlim.core import (
    DigraphPattern,
    GeneralizedTournament,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    degree_distribution,
    step_kernel_from_tournament,
    wasserstein1,
)

# CLI defaults that the workloads rely on
TOLERANCE = 1e-9
DEFAULT_SEED = 0
DEFAULT_REPS = 20



class Recorder:
    """Spans ``(name, start, end, parent, call_id)`` and counters, in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.call_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.call_id)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def as_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "call_id")
        return [dict(zip(keys, s)) for s in self.spans]


def parse_opts(opts) -> dict:
    """``("--pattern", "C3", "--eplett")`` -> ``{"pattern": ["C3"], "eplett": True}``."""
    out: dict = {}
    i = 0
    while i < len(opts):
        key = opts[i][2:].replace("-", "_")
        if i + 1 < len(opts) and not opts[i + 1].startswith("--"):
            out.setdefault(key, []).append(opts[i + 1])
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _one(o: dict, key: str, default=None):
    return o[key][-1] if key in o else default


# ---------------------------------------------------------------------------
# handlers: (decoded JSON, options, recorder) -> (payload dict or text, exit code)


def _check_score_seq(data, o, rec):
    with rec.span("core.decode"):
        seq = ScoreSequence.from_json_dict(data)
    with rec.span("conditions.check"):
        check = conditions.check_eplett if o.get("eplett") else conditions.check_landau
        report = check(seq, TOLERANCE)
    rec.counts["conditions.calls"] += 1
    with rec.span("core.encode"):
        payload = report.to_json_dict()
    return payload, 0 if report.valid else 1


def _check_score_fn(data, o, rec):
    with rec.span("core.decode"):
        fn = ScoreFunction.from_json_dict(data)
    with rec.span("conditions.check"):
        if _one(o, "condition", "I") == "I":
            report = conditions.check_condition_I(fn, TOLERANCE)
        else:
            report = conditions.check_condition_II(fn, TOLERANCE)
    rec.counts["conditions.calls"] += 1
    with rec.span("core.encode"):
        payload = report.to_json_dict()
    return payload, 0 if report.valid else 1


def _realize_scores(seq, rec):
    with rec.span("realize.scores"):
        g = realize.realize_scores(seq, TOLERANCE)
    rec.counts["realize.pairs"] += seq.n * (seq.n - 1) // 2
    return g


def _realize(data, o, rec):
    with rec.span("core.decode"):
        seq = ScoreSequence.from_json_dict(data)
    g = _realize_scores(seq, rec)
    with rec.span("core.encode"):
        payload = g.to_json_dict()
    return payload, 0


def _realize_selfconverse(data, o, rec):
    with rec.span("core.decode"):
        seq = ScoreSequence.from_json_dict(data)
    with rec.span("conditions.check"):
        report = conditions.check_eplett(seq, TOLERANCE)
    rec.counts["conditions.calls"] += 1
    if not report.valid:
        raise RuntimeError("replay input fails the Eplett check")
    g = _realize_scores(seq, rec)
    with rec.span("realize.selfconverse"):
        g = realize.symmetrize_self_converse(g, TOLERANCE)
    with rec.span("core.encode"):
        payload = g.to_json_dict()
    return payload, 0


def _discretize(data, o, rec):
    with rec.span("core.decode"):
        fn = ScoreFunction.from_json_dict(data)
    with rec.span("realize.discretize"):
        seq = realize.discretize_score_function(fn, int(_one(o, "blocks")), TOLERANCE)
    with rec.span("core.encode"):
        payload = seq.to_json_dict()
    return payload, 0


def _kernel_from_fn(data, o, rec):
    with rec.span("core.decode"):
        fn = ScoreFunction.from_json_dict(data)
    with rec.span("realize.discretize"):
        seq = realize.discretize_score_function(fn, int(_one(o, "blocks")), TOLERANCE)
    g = _realize_scores(seq, rec)
    with rec.span("realize.discretize"):
        w = step_kernel_from_tournament(g)
    with rec.span("core.encode"):
        payload = w.to_json_dict()
    return payload, 0


def _decode_kernel_or_tournament(data, rec):
    with rec.span("core.decode"):
        if "blocks" in data:
            return StepKernel.from_json_dict(data)
        return GeneralizedTournament.from_json_dict(data)


def _density_finite(f, g, mode, rec):
    with rec.span("density.finite"):
        value = density.density_finite(f, g, mode)
    rec.counts["density.finite_calls"] += 1
    rec.counts["density.assignments"] += g.n**f.k
    return value


def _density_kernel(f, w, rec):
    with rec.span("density.kernel"):
        value = density.density_kernel(f, w)
    rec.counts["density.assignments"] += w.n**f.k
    return value


def _density(data, o, rec):
    spec = _one(o, "pattern")
    with rec.span("core.decode"):
        pattern = DigraphPattern.from_spec(spec)
    obj = _decode_kernel_or_tournament(data, rec)
    if isinstance(obj, StepKernel):
        value = _density_kernel(pattern, obj, rec)
        return {"pattern": spec, "mode": "kernel", "density": value}, 0
    mode = _one(o, "mode", "hom")
    value = _density_finite(pattern, obj, mode, rec)
    return {"pattern": spec, "mode": mode, "density": value}, 0


def _degree_dist(data, o, rec):
    obj = _decode_kernel_or_tournament(data, rec)
    with rec.span("core.w1"):
        if isinstance(obj, StepKernel):
            dist = degree_distribution(obj, marginal=_one(o, "marginal", "out"))
        else:
            dist = sample.empirical_degree_distribution(obj)
    with rec.span("core.encode"):
        text = dist.to_csv()
    return text, 0


def _seed(o) -> int:
    return int(_one(o, "seed", DEFAULT_SEED))


def _sample(data, o, rec):
    with rec.span("core.decode"):
        w = StepKernel.from_json_dict(data)
    size = int(_one(o, "size"))
    with rec.span("sample.draw"):
        g = sample.sample_tournament(w, sample.SampleConfig(size, _seed(o), 1))
    rec.counts["sample.pairs_drawn"] += size * (size - 1) // 2
    with rec.span("core.encode"):
        payload = g.to_json_dict()
    return payload, 0


def _sample_selfconverse(data, o, rec):
    with rec.span("core.decode"):
        w = StepKernel.from_json_dict(data)
    size = int(_one(o, "size"))
    spec = _one(o, "sigma", "identity")
    sigma = np.arange(w.n)[::-1].copy() if spec == "reverse" else np.arange(w.n)
    with rec.span("sample.draw"):
        cfg = sample.SampleConfig(size, _seed(o), 1)
        g = sample.sample_self_converse(w, sigma, cfg)
    # v-v pairs i < j plus the drawn cross pairs i <= j
    rec.counts["sample.pairs_drawn"] += size * size
    with rec.span("core.encode"):
        payload = g.to_json_dict()
    return payload, 0


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _converge(data, o, rec):
    """``sample.convergence_report`` spelled out as its public calls."""
    with rec.span("core.decode"):
        w = StepKernel.from_json_dict(data)
        specs = o["pattern"]
        patterns = {spec: DigraphPattern.from_spec(spec) for spec in specs}
    sizes = [int(x) for x in _one(o, "sizes").split(",")]
    reps = int(_one(o, "reps", DEFAULT_REPS))
    cfg = sample.SampleConfig(max(sizes), _seed(o), reps)
    with rec.span("sample.converge"):
        with rec.span("core.w1"):
            target = degree_distribution(w)
        exact = {name: _density_kernel(f, w, rec) for name, f in patterns.items()}
        stats = {name: {} for name in patterns}
        w1_samples = {}
        for si, size in enumerate(sizes):
            w1s = []
            for r in range(cfg.reps):
                with rec.span("sample.draw"):
                    g = sample.sample_tournament(
                        w, sample.SampleConfig(size, cfg.seed, 1), rep=(si, r)
                    )
                rec.counts["sample.pairs_drawn"] += size * (size - 1) // 2
                for name, f in patterns.items():
                    stats[name].setdefault(size, []).append(
                        _density_finite(f, g, "inj", rec)
                    )
                with rec.span("core.w1"):
                    w1s.append(wasserstein1(sample.empirical_degree_distribution(g), target))
            w1_samples[size] = tuple(w1s)
        rows = []
        for name in patterns:
            for size in sizes:
                mean, stderr = _mean_stderr(stats[name][size])
                rows.append(sample.ConvergenceRow(name, size, mean, stderr, exact[name]))
        for size in sizes:
            mean, stderr = _mean_stderr(w1_samples[size])
            rows.append(sample.ConvergenceRow("degree_w1", size, mean, stderr, 0.0))
        report = sample.ConvergenceReport(tuple(rows), w1_samples)
    with rec.span("core.encode"):
        text = report.to_csv()
    return text, 0


def _perturb(data, o, rec):
    with rec.span("core.decode"):
        w = StepKernel.from_json_dict(data)
    with rec.span("perturb.certificate"):
        cert = perturb.nonuniqueness_certificate(
            w, refine_rounds=int(_one(o, "refine_rounds", 0))
        )
    rec.counts["perturb.calls"] += 1
    if cert is None:
        return {"result": "transitive-like"}, 0
    with rec.span("core.encode"):
        payload = cert.to_json_dict()
    payload["result"] = "certificate"
    return payload, 0


def _fingerprint(data, o, rec):
    with rec.span("core.decode"):
        w = StepKernel.from_json_dict(data)
    order = int(_one(o, "order", 3))
    with rec.span("density.fingerprint"):
        fp = density.fingerprint(w, order)
    rec.counts["density.assignments"] += sum(
        TOURNAMENT_CLASS_COUNTS[k] * w.n**k for k in range(1, order + 1)
    )
    with rec.span("core.encode"):
        payload = fp.to_json_dict()
    return payload, 0


HANDLERS = {
    "check-score-seq": _check_score_seq,
    "check-score-fn": _check_score_fn,
    "realize": _realize,
    "realize-selfconverse": _realize_selfconverse,
    "discretize": _discretize,
    "kernel-from-fn": _kernel_from_fn,
    "density": _density,
    "degree-dist": _degree_dist,
    "sample": _sample,
    "sample-selfconverse": _sample_selfconverse,
    "converge": _converge,
    "perturb": _perturb,
    "fingerprint": _fingerprint,
}


def replay(call, indir: Path, output: Path, rec: Recorder) -> int:
    """Run ``call`` through the public API, writing what the CLI would."""
    with rec.span("call"):
        text = (indir / call.input).read_text()
        with rec.span("cli.decode"):
            data = json.loads(text)
        result, code = HANDLERS[call.cmd](data, parse_opts(call.opts), rec)
        if isinstance(result, dict):
            with rec.span("cli.encode"):
                result = json.dumps(result, indent=2, sort_keys=True) + "\n"
        output.write_text(result)
    # inputs and outputs are ASCII JSON or CSV: characters are bytes
    rec.counts["cli.bytes_in"] += len(text)
    rec.counts["cli.bytes_out"] += len(result)
    return code
