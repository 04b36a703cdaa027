"""Command-line surface.

Exit codes: 0 success, 1 validation failure (the failing report is still
emitted), 2 usage error (bad flags, malformed input files).  All randomized
commands are seeded; with --strict the seed must be given explicitly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import conditions, density, perturb, realize, sample
from .core import (
    DigraphPattern,
    GeneralizedTournament,
    MomentSequence,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    ValidationError,
    degree_distribution,
)


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"malformed JSON in {path}: expected an object")
    return data


def _decode(path: str, cls, data: dict | None = None):
    """Decode a typed object from ``path`` (or from its already loaded
    ``data``); schema problems are usage errors (exit 2)."""
    if data is None:
        data = _load_json(path)
    try:
        return cls.from_json_dict(data)
    except ValidationError as exc:
        raise UsageError(f"invalid input in {path}: {exc}") from exc


def _decode_kernel_or_tournament(path: str):
    data = _load_json(path)
    try:
        if "blocks" in data:
            return StepKernel.from_json_dict(data)
        if "alpha" in data:
            return GeneralizedTournament.from_json_dict(data)
    except ValidationError as exc:
        raise UsageError(f"invalid input in {path}: {exc}") from exc
    raise UsageError(f"invalid input in {path}: field 'blocks' or 'alpha' required")


def _json_text(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``,
    except that ``payload``, or a value in its str-keyed dicts, may be a
    2-D float64 array where that call would take its ``tolist()``."""
    return _encode(payload, "") + "\n"


def _encode(x, indent: str) -> str:
    """``x`` as json writes it with indent 2, nested at ``indent``.

    Dicts with str keys recurse, so arrays may sit in their values.  A
    float64 matrix goes through ``_matrix_text``, because json's indented
    encoder is pure Python and calls ``floatstr`` once per entry.  Anything
    else is json's own text with ``indent`` put after every newline, which
    is safe because json escapes newlines inside strings.
    """
    if isinstance(x, dict) and all(isinstance(k, str) for k in x):
        if not x:
            return "{}"
        inner = indent + "  "
        items = [f"{inner}{json.dumps(k)}: {_encode(x[k], inner)}" for k in sorted(x)]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64:
        return _matrix_text(x, indent) if x.size else _encode(x.tolist(), indent)
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _matrix_text(a: np.ndarray, indent: str) -> str:
    """A non-empty float64 matrix as json writes its ``tolist()``.

    Each distinct bit pattern is written once with json's own float text
    (so -0.0, NaN and Infinity come out as json writes them); the cells
    index that table and each row is one join.
    """
    keys, inv = np.unique(a.view(np.uint64), return_inverse=True)
    words = np.array([json.dumps(v) for v in keys.view(np.float64).tolist()], dtype=object)
    row_in, cell_in = indent + "  ", indent + "    "
    sep = ",\n" + cell_in
    rows = [
        f"{row_in}[\n{cell_in}{sep.join(row)}\n{row_in}]"
        for row in words[inv.reshape(a.shape)].tolist()
    ]
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    if args.strict and args.seed is None:
        raise UsageError("--strict requires an explicit --seed")
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    return 0 if args.seed is None else args.seed


def _parse_sigma(spec: str, n: int) -> np.ndarray:
    if spec == "identity":
        return np.arange(n)
    if spec == "reverse":
        return np.arange(n)[::-1].copy()
    try:
        perm = np.asarray([int(x) - 1 for x in spec.split(",")], dtype=int)
    except ValueError as exc:
        raise UsageError(f"cannot parse --sigma '{spec}'") from exc
    return perm


def _parse_pattern(spec: str) -> DigraphPattern:
    try:
        return DigraphPattern.from_spec(spec)
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (output text, exit code)


def _cmd_check_score_seq(args):
    seq = _decode(args.input, ScoreSequence)
    if args.eplett:
        report = conditions.check_eplett(seq, args.tolerance)
    else:
        report = conditions.check_landau(seq, args.tolerance)
    return _json_text(report.to_json_dict()), 0 if report.valid else 1


def _cmd_check_score_fn(args):
    fn = _decode(args.input, ScoreFunction)
    if args.condition == "I":
        report = conditions.check_condition_I(fn, args.tolerance)
    else:
        report = conditions.check_condition_II(fn, args.tolerance)
    return _json_text(report.to_json_dict()), 0 if report.valid else 1


def _cmd_realize(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_scores(seq, args.tolerance)
    return _json_text({"n": g.n, "alpha": g.alpha}), 0


def _cmd_realize_selfconverse(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_self_converse(seq, args.tolerance)
    return _json_text({"n": g.n, "alpha": g.alpha}), 0


def _cmd_discretize(args):
    fn = _decode(args.input, ScoreFunction)
    seq = realize.discretize_score_function(fn, args.blocks, args.tolerance)
    return _json_text(seq.to_json_dict()), 0


def _cmd_kernel_from_fn(args):
    fn = _decode(args.input, ScoreFunction)
    w = realize.kernel_from_score_function(fn, args.blocks, args.tolerance)
    return _json_text({"n": w.n, "blocks": w.blocks}), 0


def _cmd_density(args):
    if len(args.pattern) > 1:
        raise UsageError("density takes exactly one --pattern")
    pattern = _parse_pattern(args.pattern[0])
    obj = _decode_kernel_or_tournament(args.input)
    if isinstance(obj, StepKernel):
        value = density.density_kernel(pattern, obj)
        payload = {"pattern": args.pattern[0], "mode": "kernel", "density": value}
    else:
        value = density.density_finite(pattern, obj, args.mode)
        payload = {"pattern": args.pattern[0], "mode": args.mode, "density": value}
    return _json_text(payload), 0


def _cmd_degree_dist(args):
    obj = _decode_kernel_or_tournament(args.input)
    if isinstance(obj, StepKernel):
        dist = degree_distribution(obj, marginal=args.marginal)
    else:
        dist = sample.empirical_degree_distribution(obj)
    return dist.to_csv(), 0


def _cmd_sample(args):
    w = _decode(args.input, StepKernel)
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_tournament(w, cfg)
    return _json_text({"n": g.n, "alpha": g.alpha}), 0


def _cmd_sample_selfconverse(args):
    w = _decode(args.input, StepKernel)
    sigma = _parse_sigma(args.sigma, w.n)
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_self_converse(w, sigma, cfg)
    return _json_text({"n": g.n, "alpha": g.alpha}), 0


def _cmd_converge(args):
    w = _decode(args.input, StepKernel)
    patterns = {spec: _parse_pattern(spec) for spec in args.pattern}
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse --sizes '{args.sizes}'") from exc
    if not sizes or any(n < 1 for n in sizes):
        raise UsageError("--sizes entries must be positive")
    if args.reps < 1:
        raise UsageError("--reps must be positive")
    cfg = sample.SampleConfig(max(sizes), _seed(args), args.reps)
    report = sample.convergence_report(w, patterns, sizes, cfg)
    return report.to_csv(), 0


def _cmd_perturb(args):
    w = _decode(args.input, StepKernel)
    cert = perturb.nonuniqueness_certificate(w, refine_rounds=args.refine_rounds)
    if cert is None:
        return _json_text({"result": "transitive-like"}), 0
    payload = cert.to_json_dict()
    payload["result"] = "certificate"
    return _json_text(payload), 0


def _cmd_fingerprint(args):
    w = _decode(args.input, StepKernel)
    fp = density.fingerprint(w, args.order)
    return _json_text(fp.to_json_dict()), 0


def _cmd_moments(args):
    data = _load_json(args.input)
    if "cells" in data:
        fn = _decode(args.input, ScoreFunction, data)
        moments = conditions.moments_of_score_function(fn, args.order)
        return _json_text(moments.to_json_dict()), 0
    if "a" in data:
        seq = _decode(args.input, MomentSequence, data)
        report = conditions.check_hausdorff_moments(seq, min(args.order, seq.order))
        return _json_text(report.to_json_dict()), 0 if report.valid else 1
    raise UsageError(f"invalid input in {args.input}: field 'cells' or 'a' required")


_HANDLERS = {
    "check-score-seq": _cmd_check_score_seq,
    "check-score-fn": _cmd_check_score_fn,
    "realize": _cmd_realize,
    "realize-selfconverse": _cmd_realize_selfconverse,
    "discretize": _cmd_discretize,
    "kernel-from-fn": _cmd_kernel_from_fn,
    "density": _cmd_density,
    "degree-dist": _cmd_degree_dist,
    "sample": _cmd_sample,
    "sample-selfconverse": _cmd_sample_selfconverse,
    "converge": _cmd_converge,
    "perturb": _cmd_perturb,
    "fingerprint": _cmd_fingerprint,
    "moments": _cmd_moments,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls."""
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", required=True, help="input JSON file")
    io.add_argument("--output", help="output file (default: stdout)")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=1e-9)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    seeded.add_argument("--strict", action="store_true",
                        help="require an explicit --seed")

    parser = argparse.ArgumentParser(
        prog="tourlim",
        description="Score sequences, step tournament kernels and their densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-score-seq", parents=[io, tolerance]).add_argument(
        "--eplett", action="store_true", help="also require the self-converse pairing"
    )
    p = sub.add_parser("check-score-fn", parents=[io, tolerance])
    p.add_argument("--condition", choices=["I", "II"], default="I")
    sub.add_parser("realize", parents=[io, tolerance])
    sub.add_parser("realize-selfconverse", parents=[io, tolerance])
    for name in ("discretize", "kernel-from-fn"):
        sub.add_parser(name, parents=[io, tolerance]).add_argument(
            "--blocks", type=int, required=True
        )
    p = sub.add_parser("density", parents=[io])
    p.add_argument("--pattern", action="append", required=True)
    p.add_argument("--mode", choices=["hom", "inj", "ind"], default="hom")
    p = sub.add_parser("degree-dist", parents=[io])
    p.add_argument("--marginal", choices=["out", "in"], default="out")
    p = sub.add_parser("sample", parents=[io, seeded])
    p.add_argument("--size", type=int, required=True)
    p = sub.add_parser("sample-selfconverse", parents=[io, seeded])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--sigma", default="identity",
                   help="'identity', 'reverse', or a 1-based permutation like 3,2,1")
    p = sub.add_parser("converge", parents=[io, seeded])
    p.add_argument("--pattern", action="append", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=20)
    p = sub.add_parser("perturb", parents=[io])
    p.add_argument("--refine-rounds", type=int, default=0)
    sub.add_parser("fingerprint", parents=[io]).add_argument("--order", type=int, default=3)
    sub.add_parser("moments", parents=[io]).add_argument("--order", type=int, default=8)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        payload = {"error": str(exc)}
        if exc.report is not None:
            payload["report"] = exc.report.to_json_dict()
        _emit(_json_text(payload), args.output)
        return 1
    _emit(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
