"""Command-line surface.

Exit codes: 0 success, 1 validation failure (the failing report is still
emitted), 2 usage error (bad flags, malformed input files).  All randomized
commands are seeded; with --strict the seed must be given explicitly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import mmap
import os
import re
import stat
import sys
from json.decoder import JSONObject

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
        text = _read_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"malformed input in {path}: not UTF-8 text ({exc})") from exc
    try:
        data = json.loads(text, cls=_MatrixDecoder)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"malformed JSON in {path}: expected an object")
    return data


# the smallest regular file that _read_text maps: below it a map and its
# page faults cost more than the bytes copy they save (tens of us on a
# 1 KB file, break-even near 16 KB, 0.7 ms saved on 1.25 MB)
_MAP_FROM = 1 << 16


def _read_text(path: str) -> str:
    """``Path(path).read_text(encoding="utf-8")``, errors included, with the
    text held once: a regular file of at least ``_MAP_FROM`` bytes is
    decoded straight from a read-only map of it, closed before this
    returns, rather than from a bytes copy.  Other files (smaller ones,
    FIFOs, devices) and files that cannot be mapped are read."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        text = None
        if stat.S_ISREG(st.st_mode) and st.st_size >= _MAP_FROM:
            try:
                m = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                pass  # e.g. a file system without mmap
            else:
                with m:
                    text = str(m, "utf-8")
        if text is None:
            text = f.read().decode("utf-8")
    # the universal newlines of text mode
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class _MatrixDecoder(json.JSONDecoder):
    """json's decoder, except that a value of the top-level object that
    ``_number_matrix`` reads, a 0/1 matrix, comes back as its bool array.
    json's own object scanner walks that object; every other value, and
    everything inside them, is json's own, errors included."""

    def __init__(self):
        super().__init__()
        scan = self.scan_once

        def value(s, i):
            return _number_matrix(s, i) or scan(s, i)

        def document(s, i):
            if s.startswith("{", i):
                return JSONObject((s, i + 1), self.strict, value, None, None, {})
            return scan(s, i)

        self.scan_once = document


_FIRST_ROW = re.compile(r"\[[ \t\n\r]*(\[([^\]]*)\])(?:([ \t\n\r]*,[ \t\n\r]*)\[)?")
"""The opening of a matrix: its first row (group 1), that row's text inside
the brackets (group 2) and, when a second row follows, the separator
between the two (group 3)."""
_MATRIX_END = re.compile(r"[ \t\n\r]*\]")
_NUMBER = rb"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?"
_NUMBERS = re.compile(_NUMBER + rb"(?:," + _NUMBER + rb")*")
"""Comma-separated JSON numbers: json.scanner.NUMBER_RE without its groups,
which make a long match several times slower."""
_IN_GAP = np.zeros(256, bool)
_IN_GAP[list(b"[], \t\n\r")] = True
"""Per byte, whether it may stand between two numbers of a row."""
_BLOCK_BYTES = 1 << 16
"""About how many bytes of matrix text ``_number_matrix`` reads at a time."""
_INVALID = 255
"""The code of a cell that is neither word of ``_number_matrix``, whose
words have the codes 0 and 1."""
_MIN_CELLS = 512
"""The fewest cells ``_number_matrix`` reads; json reads smaller matrices.
The reader's fixed cost, about 25 numpy calls, came to 40-120 us on
matrices of up to 16 x 16 cells, where json took 2-70 us; the two met at
about 24 x 24 cells."""


def _number_matrix(text: str, i: int):
    """``(a, end)`` when ``text[i:end]`` is a JSON array of n >= 1 arrays of
    m >= 1 numbers each, n m >= _MIN_CELLS of them, laid out alike, whose
    cells are all words of its first and last row: at most two words, of
    one width, that json reads as +0.0 or 1.0 and that differ in at most
    one byte position.  ``a`` is then the n x m bool array of those values.
    None for any other value, which json then reads.

    Laid out alike means that the rows start at one stride, the cells of a
    row at another, and every byte equals the first row's byte, or the
    first separator's, except at the byte position of each cell at which
    the words differ.  That byte is read through a strided view and looked
    up in a byte table made from the words; a cell that is neither word
    reads as ``_INVALID`` and declines the matrix.
    """
    head = _FIRST_ROW.match(text, i)
    if head is None or (first := _row_words(head[2])) is None:
        return None
    start, rowlen, sep = head.start(1), len(head[1]), head[3] or ""
    stride = rowlen + len(sep)
    # the rows are the "[" at that stride
    opens = text[start::stride] if sep else "["
    n = len(opens) - len(opens.lstrip("["))
    if n * first[0] < _MIN_CELLS:
        return None
    last = start + (n - 1) * stride
    tail = _MATRIX_END.match(text, last + rowlen)
    if tail is None or (final := _row_words(text[last + 1:last + rowlen - 1])) is None:
        return None
    if any(text[start + rowlen + j:last:stride] != c * (n - 1) for j, c in enumerate(sep)):
        return None
    words = sorted(first[1] | final[1])
    m, width = first[0], len(words[0])
    if (final[0] != m or len(words) > 2 or any(len(w) != width for w in words)
            or not _NUMBERS.fullmatch(",".join(words).encode("ascii", "replace"))):
        return None
    # json reads the integer spelling -0 as the int 0, so as +0.0
    values = [0.0 if w == "-0" else float(w) for w in words]
    if not all(v == 1.0 or v == 0.0 and math.copysign(1.0, v) > 0 for v in values):
        return None
    varying = [j for j in range(width) if words[0][j] != words[-1][j]] or [0]
    row = np.frombuffer(head[1].encode(), np.uint8)
    gap = _IN_GAP[row]
    # a cell starts where a gap byte is followed by a word byte
    cell_starts = np.flatnonzero(gap[:-1] > gap[1:]) + 1
    periods = cell_starts[1:] - cell_starts[:-1]
    period = periods[0] if m > 1 else width
    if len(varying) > 1 or (periods != period).any():
        return None
    at = varying[0]
    codes = np.full(256, _INVALID, np.uint8)
    codes[[ord(w[at]) for w in words]] = values
    varies = np.zeros(rowlen, bool)
    varies[cell_starts + at] = True
    out = np.empty((n, m), bool)
    step = max(1, _BLOCK_BYTES // stride)
    for r in range(0, n, step):
        k, begin = min(step, n - r), start + r * stride
        block = text[begin:begin + (k - 1) * stride + rowlen].encode("ascii", "replace")
        rows = np.ndarray((k, rowlen), np.uint8, block, 0, (stride, 1))
        if not ((rows == row) | varies).all():
            return None
        cells = np.ndarray((k, m), np.uint8, block, cell_starts[0] + at, (stride, period))
        got = out[r:r + k].view(np.uint8)
        np.take(codes, cells, out=got, mode="clip")
        if got.max() == _INVALID:
            return None
    return out, tail.end()


def _row_words(row: str):
    """``(m, words)`` for the text inside a row's brackets when it holds m
    words of one width, at most two distinct ones: the set ``words``.  Else
    None."""
    words = row.split(",")
    distinct = {w.strip(" \t\n\r") for w in set(words)}
    if len(distinct) > 2 or len({len(w) for w in distinct}) != 1:
        return None
    return len(words), distinct


def _decode(path: str, cls):
    """Decode a typed object from ``path``.  ``cls`` is its class, or a dict
    from a field name to the class of objects that hold it, tried in order;
    schema problems are usage errors (exit 2)."""
    data = _load_json(path)
    if isinstance(cls, dict):
        found = [c for name, c in cls.items() if name in data]
        if not found:
            required = " or ".join(map(repr, cls))
            raise UsageError(f"invalid input in {path}: field {required} required")
        cls = found[0]
    try:
        return cls.from_json_dict(data)
    except ValidationError as exc:
        raise UsageError(f"invalid input in {path}: {exc}") from exc


_KERNEL_OR_TOURNAMENT = {"blocks": StepKernel, "alpha": GeneralizedTournament}


_CHUNK_BYTES = 1 << 18
"""About how many bytes of matrix text ``_matrix_chunks`` builds at a time.
A block's arrays are fresh pages of a trimmed heap, so the first block
costs page faults in proportion to its size: against 1 MiB blocks,
encoding a 500-vertex 0/1 sample after ``malloc_trim`` faulted about 370
fewer pages and took 5.8 instead of 7.8 ms on a 2-vCPU Xeon."""


def _json_text(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``,
    except that ``payload``, or a value in its str-keyed dicts, may be a
    2-D float64 array where that call would take its ``tolist()``, or a
    2-D bool array where it would take the ``tolist()`` of its float64
    values: a bool matrix is written as 0.0 and 1.0."""
    return b"".join(_json_chunks(payload)).decode("ascii")


def _json_chunks(payload):
    """The text of ``_json_text(payload)`` as a stream of ASCII bytes
    chunks; a matrix comes in blocks of whole rows of about
    ``_CHUNK_BYTES`` each."""
    yield from _encode(payload, "")
    yield b"\n"


def _encode(x, indent: str):
    """``x`` as json writes it with indent 2, nested at ``indent``, in
    bytes chunks.

    Dicts with str keys recurse, so arrays may sit in their values.  A
    float64 or bool matrix goes through ``_matrix_chunks``, because json's
    indented encoder is pure Python and calls ``floatstr`` once per entry.
    A bool matrix is written as its float64 values.  Anything
    else is json's own text with ``indent`` put after every newline, which
    is safe because json escapes newlines inside strings.
    """
    if isinstance(x, dict) and all(isinstance(k, str) for k in x):
        if not x:
            yield b"{}"
            return
        inner, opener = indent + "  ", "{\n"
        for k in sorted(x):
            yield f"{opener}{inner}{json.dumps(k)}: ".encode()
            yield from _encode(x[k], inner)
            opener = ",\n"
        yield f"\n{indent}}}".encode()
    elif isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype in (np.float64, bool):
        yield from _matrix_chunks(x, indent) if x.size else _encode(x.tolist(), indent)
    else:
        yield json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + indent).encode()


_WIDEST_WORD = 24
"""The longest text json gives a float64, as in -2.2250738585072014e-308."""


def _matrix_chunks(a: np.ndarray, indent: str):
    """A non-empty float64 or bool matrix as json writes the ``tolist()``
    of its float64 values, in blocks of whole rows.

    A bool matrix's words are 0.0 and 1.0, picked by each cell's bit
    through the matrix's uint8 view.  A float64 matrix is written a block
    of rows at a time, each distinct bit pattern of the block once with
    json's own float text (so -0.0, NaN and Infinity come out as json
    writes them), so only one block's texts are alive at once.  When a block's texts have
    one length, as for every 0/1 matrix, its rows are built as bytes;
    otherwise each row is one join of its words.  Either way a chunk
    holds whole rows, about ``_CHUNK_BYTES`` of them.
    """
    row_in, cell_in = indent + "  ", indent + "    "
    yield b"[\n"
    if a.dtype == bool:
        yield from _fixed_width_rows(["0.0", "1.0"], lambda rows: a[rows].view(np.uint8),
                                     a.shape, row_in, cell_in)
    else:
        n, m = a.shape
        step = max(1, _CHUNK_BYTES // (m * (_WIDEST_WORD + len(cell_in) + 2)))
        for i in range(0, n, step):
            block = a[i:i + step]
            keys, inv = np.unique(block.view(np.uint64), return_inverse=True)
            # json's text of a list of floats is their texts joined by ", "
            words = json.dumps(keys.view(np.float64).tolist())[1:-1].split(", ")
            rows = _fixed_width_rows if len(set(map(len, words))) == 1 else _joined_rows
            if i:
                yield b",\n"
            yield from rows(words, inv.reshape(block.shape).__getitem__, block.shape,
                            row_in, cell_in)
    yield f"\n{indent}]".encode()


def _fixed_width_rows(words: list, index, shape: tuple, row_in: str, cell_in: str):
    """Rows of words of one length, built as bytes from a template row;
    ``index(rows)`` gives the word of each cell of those rows: its position
    in ``words``, or, for a bool matrix against the words 0.0 and 1.0, its
    bit as uint8.

    The template holds the brackets, the separators and the first word in
    every cell and is repeated once for a block of rows; for each block,
    each byte position at which the words differ is filled by one
    ``np.take`` from that position's column of the word table.  A bool
    matrix's one such byte is ord("0") + bit, written by one ``np.add``:
    on a 23 x 900 block, 12 instead of 37 us on a 2-vCPU Xeon.
    """
    table = np.frombuffer("".join(words).encode(), np.uint8).reshape(len(words), -1)
    varying = np.flatnonzero((table != table[0]).any(axis=0))
    columns = table[:, varying].T.copy()
    # every word is followed by a separator, the last one of a row by the
    # row's end and ",\n", which has the same length
    head, sep, end = f"{row_in}[\n{cell_in}", ",\n" + cell_in, f"\n{row_in}],\n"
    n, m = shape
    row = np.frombuffer((head + (words[0] + sep) * (m - 1) + words[0] + end).encode(), np.uint8)
    step = max(1, _CHUNK_BYTES // len(row))
    block = row[None].repeat(min(step, n), axis=0)
    cells = block[:, len(head):].reshape(len(block), m, -1)
    for i in range(0, n, step):
        idx = index(slice(i, i + step))
        for b, column in zip(varying, columns):
            out = cells[:len(idx), :, b]
            if idx.dtype == np.uint8:
                # bits against the column ord("0"), ord("1")
                np.add(idx, column[0], out=out)
            else:
                # every index is in range; "clip" writes to the strided out directly
                np.take(column, idx, out=out, mode="clip")
        text = block[:len(idx)].reshape(-1)
        # no ",\n" after the matrix's last row
        yield (text if i + step < n else text[:-2]).tobytes()


def _joined_rows(words: list, index, shape: tuple, row_in: str, cell_in: str):
    """Rows of words of mixed lengths, each row one ``sep.join``, as one
    chunk: ``_matrix_chunks`` hands over one block of rows at a time."""
    sep = ",\n" + cell_in
    rows = np.array(words, dtype=object)[index(slice(None))].tolist()
    yield ",\n".join(f"{row_in}[\n{cell_in}{sep.join(row)}\n{row_in}]" for row in rows).encode()


def _emit(chunks, output: str | None):
    """Write the bytes ``chunks`` as they come, to the file ``output`` or
    to stdout's binary buffer.

    ``output`` is written over in place from its start and, when it is a
    regular file, cut to the bytes written: truncating a file that holds
    blocks before writing its new bytes cost more than writing them.
    FIFOs and devices (/dev/null, /dev/stdout on a pipe) are not cut.  A
    crash mid-write leaves the new bytes followed by the old file's tail.
    """
    if output:
        with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.writelines(chunks)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    else:
        # what is already written to the text layer goes out first
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)


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
# command handlers: each returns (bytes chunks, exit code); every computation
# and validation is done before they return, only the formatting is left


def _tournament_chunks(g: GeneralizedTournament):
    """The chunks of ``{"n": g.n, "alpha": g.alpha}``, the alpha of a 0/1
    tournament handed to the encoder as its bools.  Construction casts
    every 0/1 matrix to bools, so a 0/1 tournament's alpha holds +0.0
    only, and the bools write it as it is."""
    return _json_chunks({"n": g.n, "alpha": g._entries})


def _cmd_check_score_seq(args):
    seq = _decode(args.input, ScoreSequence)
    if args.eplett:
        report = conditions.check_eplett(seq, args.tolerance)
    else:
        report = conditions.check_landau(seq, args.tolerance)
    return _json_chunks(report.to_json_dict()), 0 if report.valid else 1


def _cmd_check_score_fn(args):
    fn = _decode(args.input, ScoreFunction)
    if args.condition == "I":
        report = conditions.check_condition_I(fn, args.tolerance)
    else:
        report = conditions.check_condition_II(fn, args.tolerance)
    return _json_chunks(report.to_json_dict()), 0 if report.valid else 1


def _cmd_realize(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_scores(seq, args.tolerance)
    return _tournament_chunks(g), 0


def _cmd_realize_selfconverse(args):
    seq = _decode(args.input, ScoreSequence)
    g = realize.realize_self_converse(seq, args.tolerance)
    return _tournament_chunks(g), 0


def _cmd_discretize(args):
    fn = _decode(args.input, ScoreFunction)
    seq = realize.discretize_score_function(fn, args.blocks, args.tolerance)
    return _json_chunks(seq.to_json_dict()), 0


def _cmd_kernel_from_fn(args):
    fn = _decode(args.input, ScoreFunction)
    w = realize.kernel_from_score_function(fn, args.blocks, args.tolerance)
    return _json_chunks({"n": w.n, "blocks": w.blocks}), 0


def _cmd_density(args):
    if len(args.pattern) > 1:
        raise UsageError("density takes exactly one --pattern")
    pattern = _parse_pattern(args.pattern[0])
    obj = _decode(args.input, _KERNEL_OR_TOURNAMENT)
    if isinstance(obj, StepKernel):
        # on a kernel the blank factor (1 - W) o (1 - W^T) = W o W^T is not zero
        if args.mode == "ind":
            raise UsageError("--mode ind needs a finite (generalised) tournament, not a kernel")
        value = density.density_kernel(pattern, obj)
        payload = {"pattern": args.pattern[0], "mode": "kernel", "density": value}
    else:
        value = density.density_finite(pattern, obj, args.mode)
        payload = {"pattern": args.pattern[0], "mode": args.mode, "density": value}
    return _json_chunks(payload), 0


def _cmd_degree_dist(args):
    obj = _decode(args.input, _KERNEL_OR_TOURNAMENT)
    if isinstance(obj, StepKernel):
        dist = degree_distribution(obj, marginal=args.marginal)
    else:
        dist = sample.empirical_degree_distribution(obj)
    return [dist.to_csv().encode()], 0


def _cmd_sample(args):
    w = _decode(args.input, StepKernel)
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_tournament(w, cfg)
    return _tournament_chunks(g), 0


def _cmd_sample_selfconverse(args):
    w = _decode(args.input, StepKernel)
    sigma = _parse_sigma(args.sigma, w.n)
    cfg = sample.SampleConfig(args.size, _seed(args), 1)
    g = sample.sample_self_converse(w, sigma, cfg)
    return _tournament_chunks(g), 0


def _cmd_converge(args):
    w = _decode(args.input, StepKernel)
    patterns = {spec: _parse_pattern(spec) for spec in args.pattern}
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse --sizes '{args.sizes}'") from exc
    if not sizes or any(n < 1 for n in sizes):
        raise UsageError("--sizes entries must be positive")
    if len(set(sizes)) != len(sizes):
        raise UsageError("--sizes entries must be distinct")
    if args.reps < 1:
        raise UsageError("--reps must be positive")
    cfg = sample.SampleConfig(max(sizes), _seed(args), args.reps)
    report = sample.convergence_report(w, patterns, sizes, cfg)
    return [report.to_csv().encode()], 0


def _cmd_perturb(args):
    w = _decode(args.input, StepKernel)
    cert = perturb.nonuniqueness_certificate(w, refine_rounds=args.refine_rounds)
    if cert is None:
        return _json_chunks({"result": "transitive-like"}), 0
    payload = cert.to_json_dict()
    payload["result"] = "certificate"
    return _json_chunks(payload), 0


def _cmd_fingerprint(args):
    w = _decode(args.input, StepKernel)
    fp = density.fingerprint(w, args.order)
    return _json_chunks(fp.to_json_dict()), 0


def _cmd_moments(args):
    obj = _decode(args.input, {"cells": ScoreFunction, "a": MomentSequence})
    if isinstance(obj, ScoreFunction):
        moments = conditions.moments_of_score_function(obj, args.order)
        return _json_chunks(moments.to_json_dict()), 0
    report = conditions.check_hausdorff_moments(obj, min(args.order, obj.order))
    return _json_chunks(report.to_json_dict()), 0 if report.valid else 1


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
        chunks, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        payload = {"error": str(exc)}
        if exc.report is not None:
            payload["report"] = exc.report.to_json_dict()
        _emit(_json_chunks(payload), args.output)
        return 1
    _emit(chunks, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
