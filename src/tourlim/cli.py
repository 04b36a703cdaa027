"""Command-line surface.

Exit codes: 0 success, 1 validation failure (the failing report is still
emitted), 2 usage error (bad flags, malformed input files).  All randomized
commands are seeded; with --strict the seed must be given explicitly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
        data = _read_json(path)
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"malformed input in {path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"malformed JSON in {path}: expected an object")
    return data


# the smallest regular file that _read_json maps.  Map against read() for
# compact 0/1 tournaments, heap trimmed, medians of 400 alternating calls
# on a 2-vCPU Xeon: 1 KB 1.14x, 16 KB 1.05x, 32 KB 1.03x, 50 KB 1.02x,
# 64 KB 1.00x, 128 KB 0.97x, 256 KB 0.89x the time of read()
_MAP_FROM = 1 << 16


def _read_json(path: str):
    """``json.loads(Path(path).read_text(encoding="utf-8"))``, errors
    included, except that a value of the top-level object that
    ``_number_matrix`` reads, a 0/1 matrix, is its bool array.

    The file's bytes are decoded where they lie: a regular file of at
    least ``_MAP_FROM`` bytes from a read-only map of it, closed before
    this returns, and other files (smaller ones, FIFOs, devices) and files
    that cannot be mapped from the bytes that ``read()`` returns."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size >= _MAP_FROM:
            try:
                m = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                pass  # e.g. a file system without mmap
            else:
                with m:
                    return _loads(m)
        return _loads(f.read())


def _loads(buf):
    """The document in the bytes ``buf`` as ``_read_json`` gives it.

    When ``_skeleton`` takes a matrix, json parses only the skeleton, the
    text with each taken matrix replaced by ``@``.  Any other document is
    parsed by json from its whole text, as ``read_text`` gives it: one in
    which no matrix is taken, one in which a taken matrix is not a value
    of the top-level object, and one whose skeleton json rejects, so that
    its values and errors are json's own.  On the benchmark's compact
    500-vertex tournament (1.25 MB) this took 0.93 instead of 1.78 ms for
    the whole text, heap trimmed, on a 2-vCPU Xeon.
    """
    skeleton = _skeleton(buf)
    data = None if skeleton is None else _parse_skeleton(*skeleton)
    if data is not None:
        return data
    text = str(buf, "utf-8")
    if "\r" in text:
        # the universal newlines of text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def _parse_skeleton(text: str, places: list, matrices: list):
    """json's value of the skeleton ``text``, each ``@`` at ``places``
    standing for its matrix, or None.

    json's own scanner rejects ``@`` as a value, so each must be consumed
    by the top-level object's scanner, at its own place.  None when json
    rejects the text, or when an ``@`` lies in a string, deeper down or
    outside an object, where that scanner does not consume it."""
    decoder = json.JSONDecoder()
    scan, taken = decoder.scan_once, 0

    def value(s, i):
        nonlocal taken
        if taken < len(places) and i == places[taken]:
            taken += 1
            return matrices[taken - 1], i + 1
        return scan(s, i)

    def document(s, i):
        if s.startswith("{", i):
            return JSONObject((s, i + 1), decoder.strict, value, None, None, {})
        return scan(s, i)

    decoder.scan_once = document
    try:
        data = decoder.decode(text)
    except json.JSONDecodeError:
        return None
    return data if taken == len(places) else None


_MATRIX_OPEN = re.compile(rb":[ \t\n\r]*(\[[ \t\n\r]*\[)")
"""The opening of an array of arrays after a colon, as every value of an
object is: arrays nested in arrays are left to json unread."""


def _skeleton(buf):
    """``(text, places, matrices)`` for the bytes ``buf`` when
    ``_number_matrix`` takes at least one matrix in them: the UTF-8 text
    with each taken matrix replaced by ``@``, the index of each ``@`` in
    it and each matrix's bool array, in order.  None when it takes none, or
    when a piece of text between them is not UTF-8.

    Every numpy view of ``buf`` is gone when this returns, so that a map
    of it can be closed."""
    data = np.frombuffer(buf, np.uint8)
    pieces, matrices, done, i = [], [], 0, 0
    while (opening := _MATRIX_OPEN.search(data, i)) is not None:
        i = opening.start(1)
        got = _number_matrix(data, i)
        if got is None:
            i += 1
            continue
        pieces.append(data[done:i])
        matrices.append(got[0])
        done = i = got[1]
    if not matrices:
        return None
    pieces.append(data[done:])
    try:
        # a piece ends before "[" and starts after "]", so it cuts no
        # character in two
        pieces = [str(p, "utf-8") for p in pieces]
    except UnicodeDecodeError:
        return None
    places = itertools.accumulate((len(p) + 1 for p in pieces[1:-1]), initial=len(pieces[0]))
    return "@".join(pieces), list(places), matrices


_FIRST_ROW = re.compile(rb"\[[ \t\n\r]*(\[([^\[\]]*)\])(?:([ \t\n\r]*,[ \t\n\r]*)\[)?")
"""The opening of a matrix: its first row (group 1), that row's text inside
the brackets (group 2) and, when a second row follows, the separator
between the two (group 3).  A row holds no "[", so that the openings of
nested arrays fail at once and no row is read twice."""
_MATRIX_END = re.compile(rb"[ \t\n\r]*\]")
_NUMBER = rb"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?"
_NUMBERS = re.compile(_NUMBER + rb"(?:," + _NUMBER + rb")*")
"""Comma-separated JSON numbers: json.scanner.NUMBER_RE without its groups,
which make a long match several times slower."""
_IN_GAP = np.zeros(256, bool)
_IN_GAP[list(b"[], \t\n\r")] = True
"""Per byte, whether it may stand between two numbers of a row."""
_BLOCK_BYTES = 1 << 16
"""About how many bytes of matrix text ``_number_matrix`` checks at a time."""
_MIN_CELLS = 512
"""The fewest cells ``_number_matrix`` reads; json reads smaller matrices.
The reader's fixed cost came to about 60 us on compact matrices of 4 x 4
to 32 x 32 cells, where json took 4-90 us; the two met at about 26 x 26
cells, so that up to about 700 cells the reader costs up to 20 us more
than json."""


def _number_matrix(data: np.ndarray, i: int):
    """``(a, end)`` when the bytes ``data[i:end]`` of the uint8 array
    ``data`` are a JSON array of n >= 1 arrays of m >= 1 numbers each,
    n m >= _MIN_CELLS of them, laid out alike, whose cells are all words of
    its first and last row: at most two words, of one width, that json
    reads as +0.0 or 1.0 and that differ in at most one byte position.
    ``a`` is then the n x m bool array of those values.  None for any other
    value, which json then reads.

    Laid out alike means that the rows start at one stride, the cells of a
    row at another, and every byte equals the first row's byte, or the
    first separator's, except at the byte position of each cell at which
    the words differ, where it is one of the two words' bytes.  The rows
    are checked a block of about ``_BLOCK_BYTES`` at a time, each with its
    separator but the last: one ``np.bitwise_or`` sets, at that position
    of each cell, the bits by which the two bytes differ, and one
    ``np.array_equal`` compares the block with a template block made so
    from the first row; the first block that differs declines the matrix,
    so a declined one costs at most a block beyond its first and last
    rows.  Words that json reads as +0.0 and 1.0 differ in
    the one bit of "0" and "1", which one strided ``np.subtract`` then
    reads into the result; two words of one value fill it with that value.
    """
    head = _FIRST_ROW.match(data, i)
    if head is None or (first := _row_words(head[2])) is None:
        return None
    start, rowlen, sep = head.start(1), len(head[1]), head[3] or b""
    stride = rowlen + len(sep)
    # the rows are the "[" at that stride, looked for in doubling windows
    # so that a small array costs little in a long text
    n, window = 1, 8
    while sep:
        opens = data[start + n * stride:start + (n + window) * stride:stride].tobytes()
        found = len(opens) - len(opens.lstrip(b"["))
        n, window = n + found, 2 * window
        if found < window // 2:
            break
    if n * first[0] < _MIN_CELLS:
        return None
    last = start + (n - 1) * stride
    tail = _MATRIX_END.match(data, last + rowlen)
    if tail is None or (final := _row_words(data[last + 1:last + rowlen - 1].tobytes())) is None:
        return None
    words = sorted(first[1] | final[1])
    m, width = first[0], len(words[0])
    if (final[0] != m or len(words) > 2 or any(len(w) != width for w in words)
            or not _NUMBERS.fullmatch(b",".join(words))):
        return None
    # json reads the integer spelling -0 as the int 0, so as +0.0
    values = [0.0 if w == b"-0" else float(w) for w in words]
    if not all(v == 1.0 or v == 0.0 and math.copysign(1.0, v) > 0 for v in values):
        return None
    varying = [j for j in range(width) if words[0][j] != words[-1][j]] or [0]
    starts = _cell_starts(head[1], m, width)
    if len(varying) > 1 or starts is None:
        return None
    at = varying[0]
    chars = (words[0][at], words[-1][at])
    read_bits = values[0] != values[-1]
    if read_bits and (values[0], chars) != (0.0, (ord("0"), ord("1"))):
        return None  # only "0" and "1" spell 0.0 and 1.0 at one position
    flips = chars[0] ^ chars[1]
    cells = slice(starts.start + at, starts.stop + at, starts.step)
    mask = np.zeros(stride, np.uint8)
    mask[cells] = flips
    template = np.frombuffer(head[1] + sep, np.uint8) | mask
    step = max(1, _BLOCK_BYTES // stride)
    expected = np.tile(template, (min(step, n - 1) or 1, 1))
    checked = np.empty_like(expected)
    out = np.empty((n, m), bool)
    if not read_bits:
        out.fill(values[0])
    # the rows before the last with their separators, then the last row
    blocks = ((r, min(step, n - 1 - r), stride) for r in range(0, n - 1, step))
    for r, k, w in itertools.chain(blocks, [(n - 1, 1, rowlen)]):
        begin = start + r * stride
        rows = data[begin:begin + k * w].reshape(k, w)
        np.bitwise_or(rows, mask[:w], out=checked[:k, :w])
        if not np.array_equal(checked[:k, :w], expected[:k, :w]):
            return None
        if read_bits:
            np.subtract(rows[:, cells], ord("0"), out=out[r:r + k].view(np.uint8))
        elif flips & (flips - 1) and not np.isin(rows[:, cells], chars).all():
            # the bitwise_or admits more bytes than the two
            return None
    return out, tail.end()


def _cell_starts(row: bytes, m: int, width: int):
    """The slice of a row's text, brackets included, at which its m cells
    start, when they start at one period; else None."""
    gap = _IN_GAP[np.frombuffer(row, np.uint8)]
    # a cell starts where a gap byte is followed by a word byte
    starts = np.flatnonzero(gap[:-1] > gap[1:]) + 1
    periods = starts[1:] - starts[:-1]
    period = int(periods[0]) if m > 1 else width
    if (periods != period).any():
        return None
    return slice(int(starts[0]), int(starts[-1]) + 1, period)


def _row_words(row: bytes):
    """``(m, words)`` for the text inside a row's brackets when it holds m
    words of one width, at most two distinct ones: the set ``words``.  Else
    None."""
    words = row.split(b",")
    distinct = {w.strip(b" \t\n\r") for w in set(words)}
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
