"""Command-line surface.

Exit codes: 0 success, 1 validation failure (the failing report is still
emitted), 2 usage error (bad flags, malformed input files).  All randomized
commands are seeded; with --strict the seed must be given explicitly.
"""

from __future__ import annotations

import argparse
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _require_format(args, expected: str):
    fmt = args.format or expected
    if fmt != expected:
        raise UsageError(f"command '{args.command}' only supports --format {expected}")
    return fmt


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
    _require_format(args, "json")
    return _json_text(report.to_json_dict()), 0 if report.valid else 1


def _cmd_check_score_fn(args):
    fn = _decode(args.input, ScoreFunction)
    if args.condition == "I":
        report = conditions.check_condition_I(fn, args.tolerance)
    else:
        report = conditions.check_condition_II(fn, args.tolerance)
    _require_format(args, "json")
    return _json_text(report.to_json_dict()), 0 if report.valid else 1


def _cmd_realize(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_scores(seq, args.tolerance)
    _require_format(args, "json")
    return _json_text(g.to_json_dict()), 0


def _cmd_realize_selfconverse(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_self_converse(seq, args.tolerance)
    _require_format(args, "json")
    return _json_text(g.to_json_dict()), 0


def _cmd_discretize(args):
    fn = _decode(args.input, ScoreFunction)
    if args.blocks is None:
        raise UsageError("--blocks is required for discretize")
    seq = realize.discretize_score_function(fn, args.blocks, args.tolerance)
    _require_format(args, "json")
    return _json_text(seq.to_json_dict()), 0


def _cmd_kernel_from_fn(args):
    fn = _decode(args.input, ScoreFunction)
    if args.blocks is None:
        raise UsageError("--blocks is required for kernel-from-fn")
    w = realize.kernel_from_score_function(fn, args.blocks, args.tolerance)
    _require_format(args, "json")
    return _json_text(w.to_json_dict()), 0


def _cmd_density(args):
    if not args.pattern:
        raise UsageError("--pattern is required for density")
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
    _require_format(args, "json")
    return _json_text(payload), 0


def _cmd_degree_dist(args):
    obj = _decode_kernel_or_tournament(args.input)
    if isinstance(obj, StepKernel):
        dist = degree_distribution(obj, marginal=args.marginal)
    else:
        dist = sample.empirical_degree_distribution(obj)
    _require_format(args, "csv")
    return dist.to_csv(), 0


def _cmd_sample(args):
    w = _decode(args.input, StepKernel)
    if args.size is None:
        raise UsageError("--size is required for sample")
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_tournament(w, cfg)
    _require_format(args, "json")
    return _json_text(g.to_json_dict()), 0


def _cmd_sample_selfconverse(args):
    w = _decode(args.input, StepKernel)
    if args.size is None:
        raise UsageError("--size is required for sample-selfconverse")
    sigma = _parse_sigma(args.sigma, w.n)
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_self_converse(w, sigma, cfg)
    _require_format(args, "json")
    return _json_text(g.to_json_dict()), 0


def _cmd_converge(args):
    w = _decode(args.input, StepKernel)
    if not args.pattern:
        raise UsageError("at least one --pattern is required for converge")
    if not args.sizes:
        raise UsageError("--sizes is required for converge")
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
    _require_format(args, "csv")
    return report.to_csv(), 0


def _cmd_perturb(args):
    w = _decode(args.input, StepKernel)
    cert = perturb.nonuniqueness_certificate(w, refine_rounds=args.refine_rounds)
    _require_format(args, "json")
    if cert is None:
        return _json_text({"result": "transitive-like"}), 0
    payload = cert.to_json_dict()
    payload["result"] = "certificate"
    return _json_text(payload), 0


def _cmd_fingerprint(args):
    w = _decode(args.input, StepKernel)
    order = 3 if args.order is None else args.order
    fp = density.fingerprint(w, order)
    _require_format(args, "json")
    return _json_text(fp.to_json_dict()), 0


def _cmd_moments(args):
    data = _load_json(args.input)
    order = 8 if args.order is None else args.order
    _require_format(args, "json")
    if "cells" in data:
        fn = _decode(args.input, ScoreFunction, data)
        moments = conditions.moments_of_score_function(fn, order)
        return _json_text(moments.to_json_dict()), 0
    if "a" in data:
        seq = _decode(args.input, MomentSequence, data)
        report = conditions.check_hausdorff_moments(seq, min(order, seq.order))
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="input JSON file")
    common.add_argument("--output", help="output file (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument("--blocks", type=int)
    common.add_argument("--order", type=int)
    common.add_argument("--strict", action="store_true",
                        help="require explicit --seed for randomized commands")

    parser = argparse.ArgumentParser(
        prog="tourlim",
        description="Score sequences, step tournament kernels and their densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-score-seq", parents=[common]).add_argument(
        "--eplett", action="store_true", help="also require the self-converse pairing"
    )
    p = sub.add_parser("check-score-fn", parents=[common])
    p.add_argument("--condition", choices=["I", "II"], default="I")
    sub.add_parser("realize", parents=[common])
    sub.add_parser("realize-selfconverse", parents=[common])
    sub.add_parser("discretize", parents=[common])
    sub.add_parser("kernel-from-fn", parents=[common])
    p = sub.add_parser("density", parents=[common])
    p.add_argument("--pattern", action="append")
    p.add_argument("--mode", choices=["hom", "inj", "ind"], default="hom")
    p = sub.add_parser("degree-dist", parents=[common])
    p.add_argument("--marginal", choices=["out", "in"], default="out")
    p = sub.add_parser("sample", parents=[common])
    p.add_argument("--size", type=int)
    p = sub.add_parser("sample-selfconverse", parents=[common])
    p.add_argument("--size", type=int)
    p.add_argument("--sigma", default="identity",
                   help="'identity', 'reverse', or a 1-based permutation like 3,2,1")
    p = sub.add_parser("converge", parents=[common])
    p.add_argument("--pattern", action="append")
    p.add_argument("--sizes", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=20)
    p = sub.add_parser("perturb", parents=[common])
    p.add_argument("--refine-rounds", type=int, default=0)
    sub.add_parser("fingerprint", parents=[common])
    sub.add_parser("moments", parents=[common])
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
