import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from tourlim import (
    DigraphPattern,
    GeneralizedTournament,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    density,
    perturb,
    random_step_kernel,
    realize,
    sample,
    step_kernel_from_tournament,
)
from tourlim import cli
from tourlim.cli import _json_text, main


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def cli_within_60s(*argv, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    """``tourlim`` run on ``argv`` in a new process, with ``stdin`` piped to
    it, which must end within 60 s."""
    src = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "tourlim.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          input=stdin, timeout=60)


@pytest.fixture
def half3(tmp_path):
    return write_json(tmp_path, "half3.json", {"n": 3, "blocks": [[0.5] * 3] * 3})


@pytest.fixture
def transitive9(tmp_path):
    w = step_kernel_from_tournament(
        GeneralizedTournament(np.triu(np.ones((9, 9)), 1))
    )
    return write_json(tmp_path, "t9.json", w.to_json_dict())


class TestExitCodes:
    def test_invalid_sequence_exits_1_with_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [0, 0, 3], "kind": "integer"})
        code = main(["check-score-seq", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["valid"] is False
        assert out["witness"]["k"] == 2

    def test_valid_sequence_exits_0(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [1, 1, 1], "kind": "integer"})
        assert main(["check-score-seq", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-score-seq", "--input", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["degree-dist"], ["check-score-seq"],
                                      ["density", "--pattern", "C3"], ["sample", "--size", "2"]])
    def test_input_that_is_not_utf8_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": 1, "alpha": [[0\xff]]}')
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not UTF-8" in captured.err

    def test_missing_field_named_in_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"kind": "integer"})
        assert main(["check-score-seq", "--input", path]) == 2
        assert "values" in capsys.readouterr().err

    def test_integer_scores_from_2_53_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [2**70, 0, 1], "kind": "integer"})
        assert main(["check-score-seq", "--input", path]) == 2
        captured = capsys.readouterr()
        assert "2**53" in captured.err and captured.out == ""

    def test_either_class_names_both_fields(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {"n": 3})
        assert main(["density", "--input", path, "--pattern", "C3"]) == 2
        assert "field 'blocks' or 'alpha' required" in capsys.readouterr().err
        assert main(["degree-dist", "--input", path]) == 2
        assert "field 'blocks' or 'alpha' required" in capsys.readouterr().err
        assert main(["moments", "--input", path]) == 2
        assert "field 'cells' or 'a' required" in capsys.readouterr().err
        # the first field present picks the class; its own errors are usage errors
        bad = write_json(tmp_path, "bad.json", {"blocks": [[0.5, 0.2], [0.2, 0.5]],
                                                "alpha": [[0, 1], [0, 0]]})
        assert main(["density", "--input", bad, "--pattern", "C3"]) == 2
        assert "field 'blocks' violates" in capsys.readouterr().err

    def test_matrix_budget_exits_1_before_allocating(self, tmp_path, capsys, monkeypatch):
        import tourlim.core

        def no_peel(*args):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(tourlim.core, "_MAX_MATRIX_BYTES", 8 * 10 * 10)
        monkeypatch.setattr(realize, "_peel", no_peel)
        path = write_json(tmp_path, "fn.json", {"cells": [0.5]})
        assert main(["kernel-from-fn", "--input", path, "--blocks", "11"]) == 1
        assert "bytes" in json.loads(capsys.readouterr().out)["error"]

    def test_unknown_flag_exits_2(self, half3):
        assert main(["perturb", "--input", half3, "--bogus"]) == 2

    def test_option_of_another_subcommand_exits_2(self, tmp_path, half3):
        seq = write_json(tmp_path, "seq.json", {"values": [1, 1, 1], "kind": "integer"})
        fn = write_json(tmp_path, "fn.json", {"cells": [0.5]})
        assert main(["realize", "--input", seq, "--blocks", "3"]) == 2
        assert main(["realize", "--input", seq, "--format", "json"]) == 2
        assert main(["density", "--input", half3, "--pattern", "C3", "--seed", "1"]) == 2
        assert main(["perturb", "--input", half3, "--tolerance", "1e-9"]) == 2
        assert main(["degree-dist", "--input", half3, "--order", "3"]) == 2
        assert main(["discretize", "--input", fn]) == 2  # --blocks is required

    def test_unknown_command_exits_2(self, half3):
        assert main(["frobnicate", "--input", half3]) == 2

    def test_realize_on_invalid_sequence_exits_1_and_reports(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [0, 0, 3], "kind": "integer"})
        code = main(["realize", "--input", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["report"]["witness"]["check"] == "landau-prefix"

    @pytest.mark.parametrize("cmd", ["check-score-seq", "realize"])
    def test_negative_tolerance_exits_1_with_the_error(self, tmp_path, capsys, cmd):
        path = write_json(tmp_path, "seq.json", {"values": [1, 1, 1], "kind": "real"})
        assert main([cmd, "--input", path, "--tolerance", "-1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "tolerance must be finite and non-negative"}

    @pytest.mark.parametrize("cmd,payload,field", [
        ("density", {"alpha": [[0, 10**400], [0, 0]]}, "alpha"),
        ("density", {"blocks": [[0.5, 10**400], [0, 0.5]]}, "blocks"),
        ("check-score-seq", {"values": [0, 10**400, 1], "kind": "integer"}, "values"),
        ("check-score-fn", {"cells": [0.5, 10**400]}, "cells"),
        ("density", {"alpha": [[0, 1], [0]]}, "alpha"),
    ])
    def test_entries_numpy_cannot_convert_exit_2(self, tmp_path, capsys, cmd, payload, field):
        path = write_json(tmp_path, "big.json", payload)
        extra = ["--pattern", "C3"] if cmd == "density" else []
        assert main([cmd, "--input", path, *extra]) == 2
        captured = capsys.readouterr()
        assert f"field '{field}' must be numeric" in captured.err and captured.out == ""

    def test_malformed_cells_exit_2_like_check_score_fn(self, tmp_path, capsys):
        path = write_json(tmp_path, "fn.json", {"cells": [0.5, 1.5]})
        assert main(["check-score-fn", "--input", path]) == 2
        assert main(["moments", "--input", path]) == 2
        assert "cells" in capsys.readouterr().err

    def test_strict_requires_seed(self, half3, capsys):
        assert main(["sample", "--input", half3, "--size", "5", "--strict"]) == 2
        assert main(["sample", "--input", half3, "--size", "5", "--strict",
                     "--seed", "3"]) == 0
        capsys.readouterr()

    def test_reused_parser_matches_fresh_parser(self, half3, capsys):
        # the parser is built once per process; no call may leave state
        # (such as an appended --pattern) behind for the next
        from tourlim import cli

        calls = [
            ["density", "--input", half3, "--pattern", "C3"],
            ["density", "--input", half3],
            ["density", "--input", half3, "--pattern", "C4", "--pattern", "T4"],
            ["density", "--input", half3, "--pattern", "C4"],
        ]
        reused = [(main(argv), capsys.readouterr()) for argv in calls]
        assert [code for code, _ in reused] == [0, 2, 2, 0]
        for argv, want in zip(calls, reused):
            cli._build_parser.cache_clear()
            assert (main(argv), capsys.readouterr()) == want


class TestCommands:
    def test_realize_round_trip(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [1, 1, 1], "kind": "integer"})
        assert main(["realize", "--input", path]) == 0
        g = GeneralizedTournament.from_json_dict(json.loads(capsys.readouterr().out))
        assert sorted(g.alpha.sum(axis=1).tolist()) == [1.0, 1.0, 1.0]

    def test_realize_selfconverse(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [1, 1, 2, 2], "kind": "integer"})
        assert main(["realize-selfconverse", "--input", path]) == 0
        g = GeneralizedTournament.from_json_dict(json.loads(capsys.readouterr().out))
        rho = np.arange(4)[::-1]
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(
            (g.alpha + g.alpha[np.ix_(rho, rho)])[off], np.ones((4, 4))[off]
        )

    def test_eplett_flag(self, tmp_path, capsys):
        path = write_json(tmp_path, "seq.json", {"values": [0, 2, 2, 2], "kind": "integer"})
        assert main(["check-score-seq", "--input", path]) == 0
        assert main(["check-score-seq", "--input", path, "--eplett"]) == 1
        capsys.readouterr()

    def test_check_score_fn_conditions(self, tmp_path, capsys):
        path = write_json(tmp_path, "fn.json", {"cells": [0.25, 0.75]})
        assert main(["check-score-fn", "--input", path]) == 0
        assert main(["check-score-fn", "--input", path, "--condition", "II"]) == 0
        bad = write_json(tmp_path, "bad.json", {"cells": [0.3, 0.9]})
        assert main(["check-score-fn", "--input", bad, "--condition", "II"]) == 1
        capsys.readouterr()

    def test_discretize_and_kernel_from_fn(self, tmp_path, capsys):
        path = write_json(tmp_path, "fn.json", {"cells": [1 / 6, 3 / 6, 5 / 6]})
        assert main(["discretize", "--input", path, "--blocks", "3"]) == 0
        seq = json.loads(capsys.readouterr().out)
        assert seq["values"] == [0.0, 1.0, 2.0]
        assert main(["kernel-from-fn", "--input", path, "--blocks", "3"]) == 0
        kernel = StepKernel.from_json_dict(json.loads(capsys.readouterr().out))
        assert kernel.n == 3

    def test_density_on_transitive_kernel(self, transitive9, capsys):
        assert main(["density", "--pattern", "C3", "--input", transitive9]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["density"] == pytest.approx(1 / (8 * 81), abs=1e-15)

    def test_density_ind_on_a_kernel_exits_2(self, tmp_path, capsys):
        # the induced blank factor of a kernel is W o W^T, not zero: ind is
        # not the kernel density, while inj is
        path = write_json(tmp_path, "w.json", {"n": 2, "blocks": [[0.5, 0.3], [0.7, 0.5]]})
        args = ["density", "--pattern", "S1,1", "--input", path]
        assert main(args + ["--mode", "ind"]) == 2
        capsys.readouterr()
        outputs = []
        for extra in ([], ["--mode", "hom"], ["--mode", "inj"]):
            assert main(args + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]
        out = json.loads(outputs[0])
        assert out["mode"] == "kernel"
        assert out["density"] == pytest.approx(0.24, abs=1e-15)

    def test_density_on_finite_tournament(self, tmp_path, capsys):
        g = {"n": 3, "alpha": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}
        path = write_json(tmp_path, "g.json", g)
        assert main(["density", "--pattern", "C3", "--input", path,
                     "--mode", "hom"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["density"] == pytest.approx(1 / 9, abs=1e-15)

    def test_perturb_certificate(self, half3, capsys):
        assert main(["perturb", "--input", half3]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "certificate"
        assert out["c4_perturbed"] - out["c4_base"] == pytest.approx(2 / 729, abs=1e-12)
        assert out["score_max_diff"] == 0.0

    def test_perturb_transitive_like(self, transitive9, capsys):
        assert main(["perturb", "--input", transitive9]) == 0
        assert json.loads(capsys.readouterr().out) == {"result": "transitive-like"}

    def test_perturb_refinement_past_cost_guard_exits_1(self, tmp_path, monkeypatch, capsys):
        w = step_kernel_from_tournament(GeneralizedTournament(np.triu(np.ones((8, 8)), 1)))
        path = write_json(tmp_path, "t8.json", w.to_json_dict())
        monkeypatch.setattr(density, "MAX_FINITE_FLOPS", 10**6)
        assert main(["perturb", "--input", path, "--refine-rounds", "40"]) == 1
        assert "cost guard" in json.loads(capsys.readouterr().out)["error"]

    def test_degree_dist_csv(self, transitive9, capsys):
        assert main(["degree-dist", "--input", transitive9]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,weight"
        assert len(lines) == 10
        assert main(["degree-dist", "--input", transitive9, "--format", "json"]) == 2

    def test_sample_deterministic_bytes(self, half3, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sample", "--input", half3, "--size", "12", "--seed", "7"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        g = GeneralizedTournament.from_json_dict(json.loads(out1.read_text()))
        assert g.is_tournament

    # a kernel with tied and untied bytes of every kind: 0 and 1, dyadic and
    # not; self-converse under the reversal of its blocks
    GOLDEN_KERNEL = [[0.5, 0.3, 0.9, 1.0], [0.7, 0.5, 0.6, 0.9],
                     [0.1, 0.4, 0.5, 0.3], [0.0, 0.1, 0.7, 0.5]]

    @pytest.mark.parametrize("argv, digest", [
        (["sample", "--size", "40", "--seed", "3"],
         "fb5fcd12446c0de91b951648ee6ec6b0e986a328dd350c1fb5ba46cbb3b34bd3"),
        (["sample-selfconverse", "--size", "17", "--sigma", "reverse", "--seed", "4"],
         "ff0c3cac0c3dcfde9f86855b05b2275e5426711debc9c99272235a341f04d464"),
        (["converge", "--pattern", "C3", "--pattern", "S1,1", "--sizes", "12,30", "--reps", "3",
          "--seed", "5"],
         "6775480e624bc7ce5b61cb9e4d6f96fc86e5dc647b8c158de34cf1386a1a92cf"),
    ])
    def test_sampler_outputs_keep_their_digests(self, tmp_path, argv, digest):
        """Any change to what a seed draws must be deliberate: these are the
        SHA-256 digests of the outputs of the byte-and-tie draw."""
        kernel = write_json(tmp_path, "k4.json", {"n": 4, "blocks": self.GOLDEN_KERNEL})
        out = tmp_path / "out"
        assert main([argv[0], "--input", kernel, *argv[1:], "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_sample_selfconverse(self, half3, capsys):
        assert main(["sample-selfconverse", "--input", half3, "--size", "6",
                     "--seed", "2", "--sigma", "identity"]) == 0
        g = GeneralizedTournament.from_json_dict(json.loads(capsys.readouterr().out))
        assert g.n == 12

    def test_converge_csv(self, half3, capsys):
        assert main(["converge", "--input", half3, "--pattern", "C3",
                     "--pattern", "S0,1", "--sizes", "20,40", "--reps", "3",
                     "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "pattern,n,mean,stderr,exact"
        assert len(lines) == 1 + 2 * 2 + 2  # patterns x sizes + degree_w1 rows

    def test_converge_prices_the_patterns_of_a_repetition_together(self, half3):
        # on the 0/1 samples, C8 inj and C7 inj at 710 vertices each fit
        # the cost guard alone, but a repetition contracts both: 1.01e11
        # planned FLOPs.  The refusal is exit 1 with the error as output,
        # within 60 s
        proc = cli_within_60s("converge", "--input", half3, "--pattern", "C8",
                              "--pattern", "C7", "--sizes", "710")
        assert proc.returncode == 1
        assert "cost guard" in json.loads(proc.stdout)["error"]

    def test_converge_repeated_sizes_are_a_usage_error(self, half3, capsys):
        assert main(["converge", "--input", half3, "--pattern", "C3",
                     "--sizes", "20,20", "--reps", "2"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_fingerprint(self, half3, capsys):
        assert main(["fingerprint", "--input", half3, "--order", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 3
        assert len(out["entries"]) == 4

    def test_moments_both_directions(self, tmp_path, capsys):
        fn = write_json(tmp_path, "fn.json", {"cells": [0.5]})
        assert main(["moments", "--input", fn, "--order", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a"] == [1.0, 0.5, 0.25, 0.125]
        mom = write_json(tmp_path, "mom.json", {"a": [1, 0.5, 0.5, 0.1]})
        assert main(["moments", "--input", mom, "--order", "3"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["witness"]["value"] == pytest.approx(-0.4)

    def test_emitted_json_reparses_equal(self, half3, tmp_path, capsys):
        assert main(["sample", "--input", half3, "--size", "9", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        g = GeneralizedTournament.from_json_dict(json.loads(text))
        assert json.dumps(g.to_json_dict(), indent=2, sort_keys=True) + "\n" == text


def json_reference(payload) -> str:
    """What the CLI promises to write: json's own text for the payload
    with every array replaced by the ``tolist()`` of its float64 values."""

    def as_lists(x):
        if isinstance(x, np.ndarray):
            return x.astype(float).tolist()
        if isinstance(x, dict):
            return {k: as_lists(v) for k, v in x.items()}
        return x

    return json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"


special_floats = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e300])
strings = st.text(max_size=6) | st.sampled_from(["", "\n", "a\nb", "é\u2028ü", '"\\'])
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | special_floats
    | strings
)
plain = st.recursive(
    scalars,
    lambda c: st.lists(c, max_size=4)
    | st.dictionaries(strings, c, max_size=4)
    | st.dictionaries(st.integers(-3, 3), c, max_size=3),
    max_leaves=12,
)
matrix_shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))
# at most two bit patterns: float64 matrices that still take the sort, as
# every float64 matrix does; only bool matrices skip it
few_patterns = st.lists(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1.0]),
    min_size=1, max_size=2,
).flatmap(lambda pair: arrays(np.float64, matrix_shapes, elements=st.sampled_from(pair)))
float_matrices = (
    arrays(np.float64, matrix_shapes, elements=st.floats() | special_floats)
    | few_patterns
    | arrays(bool, matrix_shapes)
)
payloads = st.recursive(
    plain | float_matrices,
    lambda c: st.dictionaries(strings, c, max_size=4),
    max_leaves=10,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    @example({"alpha": np.array([[-0.0, math.nan], [math.inf, -math.inf]]), "n": 2})
    @example({"blocks": np.array([[0.5]]), "big": 2**70, "s": "é\n", "e": [], "d": {}})
    @example(np.array([[1.0, 0.0, 1.0], [0.0, -0.0, 1e-300]]))
    @example({"alpha": np.array([[0.0, -0.0], [-0.0, 0.0]])})
    @example({"alpha": np.full((2, 3), math.nan)})
    @example({"alpha": np.array([[math.inf, -math.inf, math.inf]])})
    @example({"alpha": np.full((3, 1), 0.5)})
    @example({"alpha": np.zeros((0, 0), bool), "e": np.zeros((2, 0), bool)})
    @example({"alpha": np.ones((1, 1), bool), "n": 1})
    @example({"alpha": np.array([[False, True], [False, False]]), "n": 2})
    def test_matches_json_dumps(self, payload):
        assert _json_text(payload) == json_reference(payload)

    @pytest.mark.parametrize("a", [
        [[0.1, 0.2], [0.3, 0.4]],  # three or more words, all of one width
        [[0.25, 1.75], [6.25, 0.75]],  # ... differing at several positions
        [[0.25, 1.75], [1.75, 0.25]],
        [[1.0, 0.5], [0.0, -1.0]],
        [[0.5, 0.25], [1.0, 0.1]],  # mixed widths
        [[1e-300, -0.0, math.nan], [0.30000000000000004, 7.0, -math.inf]],
        [[0.25]],
        [[1.0], [0.0], [0.125]],
        [[0.0, 1.0, 0.5, -0.0]],
    ])
    def test_word_widths_and_shapes(self, a):
        payload = {"alpha": np.array(a), "n": len(a)}
        assert _json_text(payload) == json_reference(payload)

    @pytest.mark.parametrize("chunk_bytes", [1, 200, 5000])
    def test_matrix_across_chunks(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(7)
        zero_one = rng.random((30, 17)) < 0.5
        # reals with -0.0 and 0.0, and first rows whose words have one width:
        # each block of rows gets its own table
        reals = rng.random((30, 17))
        reals[:4] = rng.choice([0.25, 0.75], (4, 17))
        reals[rng.random((30, 17)) < 0.1] = -0.0
        reals[rng.random((30, 17)) < 0.1] = 0.0
        for a in (zero_one, zero_one.astype(float), rng.integers(0, 9, (30, 17)) / 8, reals):
            payload = {"alpha": a, "z": 1}
            chunks = list(cli._json_chunks(payload))
            assert len(chunks) > 5
            assert b"".join(chunks) == json_reference(payload).encode()

    def test_bools_write_their_bits_and_floats_look_up_their_words(self, monkeypatch):
        # a bool matrix's varying byte is ord("0") + bit, one np.add per
        # block; a float64 matrix of 0.0 and 1.0 indexes its word table
        zero_one = np.random.default_rng(8).random((40, 23)) < 0.5
        for a, want in ((zero_one, {"add"}), (zero_one.astype(float), {"take"})):
            made = set()
            take, add = np.take, np.add
            with monkeypatch.context() as m:
                m.setattr(cli, "_CHUNK_BYTES", 2000)
                m.setattr(np, "take", lambda *args, **kw: made.add("take") or take(*args, **kw))
                m.setattr(np, "add", lambda *args, **kw: made.add("add") or add(*args, **kw))
                chunks = list(cli._json_chunks({"alpha": a, "n": 40}))
            assert made == want and len(chunks) > 5
            assert b"".join(chunks) == json_reference({"alpha": a, "n": 40}).encode()

    def test_many_valued_matrix_peak_is_bounded_by_a_block(self, tmp_path):
        """Only one block's value texts are alive at once: a 600 x 600
        matrix of uniform reals writes 9 MiB of text within a few MiB of
        tracemalloc (38.4 MiB when every distinct value's text was held)."""
        a = np.random.default_rng(600).random((600, 600))
        path = tmp_path / "alpha.json"
        tracemalloc.start()
        try:
            cli._emit(cli._json_chunks({"alpha": a}), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak / 2**20
        assert path.read_text() == json_reference({"alpha": a})


def matrix_text(rows, indent, newline, uneven=None) -> str:
    """A JSON array of arrays of the given number spellings, inline with
    ``indent`` as the separator's tail when ``newline`` is empty, else laid
    out one value per line like json's indented text at depth 1.  Row
    ``uneven``, when given, gets one more space before its "]"."""
    sep = "," + (newline or indent)
    if newline:
        i1, i2, i3 = indent, indent * 2, indent * 3
        texts = [f"{i2}[{newline}" + sep.join(i3 + w for w in row) + f"{newline}{i2}]"
                 for row in rows]
    else:
        texts = ["[" + sep.join(row) + "]" for row in rows]
    if uneven is not None:
        texts[uneven] = texts[uneven][:-1] + " ]"
    if newline:
        return f"[{newline}" + sep.join(texts) + f"{newline}{i1}]"
    return "[" + sep.join(texts) + "]"


SPELLING_POOLS = [
    ["0", "1"],
    ["0.0", "1.0", "0.5"],
    ["-0", "10", "-1"],
    ["-0.0", "1E+0", "5e-1", "0.50", "1e-0"],
    ["12345678", "-1234567", "1.25e-07"],
    ["12345678901234567890", "10000000000000000000"],
    ["0", "-0", "1", "-0.0", "1E+0", "5e-1", "0.50", "12345678901234567890"],
    ["1E0", "0E0", "0e0", "-0", "1.0"],
]
LAYOUTS = [("", ""), (" ", ""), ("  ", "\n"), ("\t", "\n"), ("  ", "\r\n")]


def matrix_document(rows, indent, newline, uneven=None, reverse=False, duplicate=False):
    """A JSON object text with a matrix of number spellings under "alpha",
    that matrix's rows, and whether they are laid out alike (row ``uneven``
    gets one more space than the others).  ``reverse`` puts "n" first and
    ``duplicate`` puts a one-row "alpha" before both: json keeps the last
    value."""
    fields = [f'"alpha": {matrix_text(rows, indent, newline, uneven)}', f'"n": {len(rows)}']
    if reverse:
        fields.reverse()
    if duplicate:
        fields.insert(0, f'"alpha": {matrix_text([["1", "0"]], indent, newline)}')
    sep = "," + (newline + indent if newline else " ")
    text = "{" + newline + indent + sep.join(fields) + newline + "}"
    return text, rows, uneven is None or len(rows) == 1


def above_floor(rows):
    """``rows`` repeated, in order, until they hold at least the reader's
    ``cli._MIN_CELLS`` cells."""
    return rows * -(-cli._MIN_CELLS // (len(rows) * len(rows[0])))


@st.composite
def matrix_documents(draw):
    """``matrix_document`` of 1 to 4 drawn rows of 1 to 6 spellings from
    one pool, repeated up to the reader's floor, in a drawn layout."""
    pool = draw(st.sampled_from(SPELLING_POOLS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = above_floor([[draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(n)])
    indent, newline = draw(st.sampled_from(LAYOUTS))
    uneven = draw(st.none() | st.integers(0, len(rows) - 1))
    return matrix_document(rows, indent, newline, uneven, draw(st.booleans()), draw(st.booleans()))


def reader_takes(rows, alike) -> bool:
    """Whether ``cli._number_matrix`` reads these rows rather than json:
    at least ``cli._MIN_CELLS`` cells, rows laid out alike, the words of the
    first and last row at most two, of one width, that json reads as +0.0
    or 1.0 and that differ in at most one byte position, and every cell
    one of those words."""
    ends = set(rows[0]) | set(rows[-1])
    if len(rows) * len(rows[0]) < cli._MIN_CELLS or not alike:
        return False
    if len(ends) > 2 or len({len(w) for w in ends}) != 1:
        return False
    if any(w not in ends for row in rows for w in row):
        return False
    values = [json.loads(w) for w in ends]
    if not all(v == 1 or v == 0 and math.copysign(1.0, v) > 0 for v in values):
        return False
    return sum(len(set(col)) > 1 for col in zip(*ends)) <= 1


def load_text(text: str) -> dict:
    return cli._loads(text.encode())


def read_text_loads(text: str):
    """``json.loads`` of ``text`` as ``Path.read_text`` gives it back from
    its UTF-8 bytes: with universal newlines."""
    return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))


# a 24 x 24 0/1 matrix: 576 cells, above the reader's floor
_WIDE = ((np.arange(24)[:, None] + np.arange(24)) % 3 == 0).astype(float)
MUTATION_BASES = [
    '{"n": 2, "alpha": [[0.0, 1.0], [0.0, 0.0]], "x": {"a": [[1, 2]]}}',
    _json_text({"alpha": np.array([[0.0, 1.0], [1.0, 0.0]]), "n": 2}),
    '{"blocks": [[0.5, 1], [0, 0.5]], "s": "[[0, 1]]", "k": null, "t": true}',
    '{"c": [[1, 0], [0, 1]], "d": [[-0, 1E+0]]}',
    "[[0, 1], [1, 0]]",
    json.dumps({"n": 24, "alpha": _WIDE.tolist(), "k": None}),
    _json_text({"alpha": _WIDE, "n": 24}),
    '{"d": ' + json.dumps(np.where(_WIDE, 10, -1).tolist()).replace("-1", "-0") + "}",
]


@st.composite
def mutated_documents(draw):
    """One of ``MUTATION_BASES`` with a few bytes inserted, deleted or
    replaced."""
    text = draw(st.sampled_from(MUTATION_BASES))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from('[]{},:" \t\n\r0123456789.-+eEtruenlfasN\\\u00e9'))
        text = draw(st.sampled_from([text[:k] + c + text[k:], text[:k] + text[k + 1:],
                                     text[:k] + c + text[k + 1:]]))
    return text


def decode_or_error(loads, text):
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


def assert_loads_as_read_text(path: Path, arrays=None):
    """``cli._load_json(path)`` gives what ``json.loads`` gives for
    ``path.read_text(encoding="utf-8")``: the same object, where a bool
    array stands for json's list of the same float64 values, or the
    message of the same error.  ``arrays``, when given, is the set of the
    fields that must come back as arrays."""
    try:
        want = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        want = f"malformed input in {path}: not UTF-8 text ({exc})"
    except json.JSONDecodeError as exc:
        want = f"malformed JSON in {path}: {exc}"
    try:
        got = cli._load_json(str(path))
    except cli.UsageError as exc:
        got = str(exc)
    if not isinstance(want, (str, dict)):
        want = f"malformed JSON in {path}: expected an object"
    if isinstance(want, str):
        assert got == want
        return
    assert list(got) == list(want)
    for k, v in got.items():
        if isinstance(v, np.ndarray):
            assert v.dtype == bool
            expected = np.asarray(want[k], dtype=float)
            assert np.array_equal(v.astype(float).view(np.uint64), expected.view(np.uint64))
        else:
            assert v == want[k]
    if arrays is not None:
        assert {k for k, v in got.items() if isinstance(v, np.ndarray)} == arrays


class TestMatrixReader:
    """``cli._number_matrix`` must give exactly the array json and numpy
    give, and leave every input it declines to json unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(matrix_documents())
    @example(matrix_document(above_floor([["0.5"]]), "", ""))
    @example(matrix_document(above_floor([["1"], ["0"], ["1"]]), "", ""))
    @example(matrix_document(above_floor([["0", "1"], ["1", "0"]]), " ", ""))
    @example(matrix_document(above_floor([["0", "1"], ["1", "0"]]), " ", "", uneven=3))
    @example(matrix_document(above_floor([["0", "1"], ["1", "0"]]), "  ", "\r\n"))
    @example(matrix_document([["0", "1"], ["1", "0"]], " ", ""))
    def test_equals_json_bit_for_bit(self, doc):
        text, rows, alike = doc
        data, want = load_text(text), json.loads(text)
        got = data["alpha"]
        assert isinstance(got, np.ndarray) == reader_takes(rows, alike)
        assert not isinstance(got, np.ndarray) or got.dtype == bool
        expected = oracles.json_matrix(text, "alpha")
        got = np.asarray(got, dtype=float)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert {k: v for k, v in data.items() if k != "alpha"} == (
            {k: v for k, v in want.items() if k != "alpha"}
        )

    @pytest.mark.parametrize("rows", [
        # the benchmark's kernel_half.json, a 3 x 3 kernel and transitive_8.json
        [["0.5"]],
        [["0.5"] * 3] * 3,
        [["0.5" if i == j else "1.0" if i < j else "0.0" for j in range(8)] for i in range(8)],
        # one cell below the floor, and at it
        [(["0", "1"] * 37)[:73]] * 7,
        [["0", "1"] * 16] * 16,
    ])
    def test_floor_sends_small_matrices_to_json(self, rows):
        text, rows, _ = matrix_document(rows, " ", "")
        got = load_text(text)["alpha"]
        zero_one = {w for row in rows for w in row} <= {"0", "1"}
        taken = zero_one and len(rows) * len(rows[0]) >= cli._MIN_CELLS
        assert isinstance(got, np.ndarray) == taken == reader_takes(rows, True)
        expected = oracles.json_matrix(text, "alpha")
        got = np.asarray(got, dtype=float)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=500, deadline=None)
    @given(mutated_documents())
    @example('{"c": [[1, 0], 1[, 1]]}')
    @example('{"c": [[1, 0],2[, 1]]}')
    def test_any_text_decodes_as_json_does(self, text):
        got, want = decode_or_error(load_text, text), decode_or_error(read_text_loads, text)
        if not isinstance(got, dict):
            assert got == want
            return
        assert isinstance(want, dict) and list(got) == list(want)
        for k, v in got.items():
            if isinstance(v, np.ndarray):
                expected = np.asarray(want[k], dtype=float)
                got = np.asarray(v, dtype=float)
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            else:
                assert v == want[k]

    @pytest.mark.parametrize("value", [
        "[[0, 1], [0]]",
        "[[0], [0, 1]]",
        "[[]]",
        "[[], []]",
        "[[[0, 1], [0, 0]]]",
        "[[00, 01], [00, 00]]",
        "[[1., 0.], [0., 1.]]",
        "[[.5, .5], [.5, .5]]",
        "[[+1, +0], [+0, +1]]",
        "[[1 0, 11], [00, 11]]",
        "[[0, 1], [0, 0],]",
        "[[0, 1], [0, 0]",
        # words that json reads as other values than +0.0 and 1.0
        "[[0.5, 0.0], [0.0, 0.5]]",
        "[[0, 2], [2, 0]]",
        "[[-0.0, 1.0], [1.0, -0.0]]",
        # +0.0 and 1.0 spelled with words that differ in two byte positions
        "[[0e0, 1E0], [1E0, 0e0]]",
        "[[0.100000, 0.200000, 0.300000], [0.400000, 0.500000, 0.600000]]",
        "[[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.125, 0.25, 0.0]]",
        "[[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.1, 0.2, 0.3]]",
        "[[NaN, NaN], [NaN, NaN]]",
        "[[Infinity, Infinity]]",
        "[[true, false], [true, false]]",
        '[["1", "0"], ["0", "1"]]',
        "[[0, 1], [0, \u0661]]",
        "[[0, 1], [0, 0\u00e9]]",
        '"[[0, 1], [0, 0]]"',
        f"[[1{'0' * 400}, 1{'0' * 400}], [1{'0' * 400}, 1{'0' * 400}]]",
        # 0/1 first and last rows with reals between them
        "[[0.000000, 1.000000], [0.250000, 0.750000], [1.000000, 0.000000]]",
        "[[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]",
        # rows laid out differently
        "[[0, 1], [1, 0], [0,1]]",
        "[[0, 1],\n [1, 0], [0, 1]]",
    ])
    def test_declined_inputs_take_json_path(self, tmp_path, capsys, monkeypatch, value):
        # declined for what they hold, not for their size
        monkeypatch.setattr(cli, "_MIN_CELLS", 1)
        text = ('{"n": 2, "alpha": ' + value + "}").encode()
        data = np.frombuffer(text, np.uint8)
        assert cli._number_matrix(data, text.index(value.encode())) is None
        path = tmp_path / "in.json"
        path.write_bytes(text)
        argv = ["density", "--input", str(path), "--pattern", "C3"]
        got = main(argv), capsys.readouterr()
        monkeypatch.setattr(cli, "_number_matrix", lambda data, i: None)
        assert (main(argv), capsys.readouterr()) == got

    def test_declined_matrix_costs_what_json_costs(self):
        """0/1 first and last rows with reals between them: the reader must
        decline after reading about one block of text beyond those rows,
        not the whole matrix.  Counted as the bytes it slices from the
        text, which no load on the machine changes."""
        rng = np.random.default_rng(4)
        a = rng.random((500, 500))
        a[[0, -1]] = a[[0, -1]] < 0.5
        text = ", ".join("[" + ", ".join(f"{x:.6f}" for x in row) + "]" for row in a)
        text = '{"n": 500, "alpha": [' + text + "]}"
        sliced = []

        class Counted(np.ndarray):
            def __getitem__(self, key):
                got = super().__getitem__(key)
                if self.ndim == 1:
                    sliced.append(got.size)
                return got

        i = text.index("[[")
        data = np.frombuffer(text.encode(), np.uint8).view(Counted)
        assert cli._number_matrix(data, i) is None
        row = text.index("]", i) - i
        # the last row, one byte per row for where the rows start and for
        # each of the separator's two bytes, and one block of rows: the
        # separators are read with their block, and the row starts in
        # doubling windows, at most about two bytes per row
        assert sum(sliced) <= row + 3 * len(a) + cli._BLOCK_BYTES + row
        assert load_text(text)["alpha"] == json.loads(text)["alpha"]

    @pytest.mark.parametrize("n,indent", [(500, None), (900, 2)])
    def test_peak_of_a_0_1_tournament(self, tmp_path, n, indent):
        """The tracemalloc peak of ``_load_json`` on a compact 500-vertex and
        an indented 900-vertex 0/1 tournament (the benchmark's and the CLI's
        layouts) is the bool result and a few blocks of rows: the mapped
        text is read in place, never copied."""
        u = np.triu(np.random.default_rng(n).random((n, n)) < 0.5, 1)
        payload = {"n": n, "alpha": u + np.tril(1.0 - u.T, -1)}
        path = tmp_path / "t.json"
        if indent:
            path.write_text(_json_text(payload))
        else:
            path.write_text(json.dumps({"n": n, "alpha": payload["alpha"].tolist()}))
        tracemalloc.start()
        try:
            got = cli._load_json(str(path))["alpha"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, payload["alpha"])
        assert peak <= got.nbytes + 4 * cli._BLOCK_BYTES

    @pytest.mark.parametrize("words, dtype", [
        (("0", "1"), bool), (("0.0", "1.0"), bool), (("0e0", "1E0"), float),
        # json reads the integer -0 as 0, and the float -0.0 as itself
        (("-0", "-0"), bool), (("-0.0", "-0.0"), float), (("-0.0", "-1.0"), float),
        (("0.0", "0.5"), float), (("0", "2"), float),
    ])
    def test_zero_one_words_decode_to_bools(self, words, dtype):
        """+0.0 and 1.0 spelled by words that differ in at most one byte
        position read as bools; anything else, -0.0 and the spellings 0e0
        and 1E0 included, is json's list, which the CLI reads as float64."""
        rows = above_floor([[words[(i + j) % 2] for j in range(24)] for i in range(2)])
        text, _, _ = matrix_document(rows, " ", "")
        got = load_text(text)["alpha"]
        if dtype is bool:
            assert isinstance(got, np.ndarray) and got.dtype == bool
        else:
            assert got == json.loads(text)["alpha"]
        expected = oracles.json_matrix(text, "alpha")
        assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                              expected.view(np.uint64))

    @pytest.mark.parametrize("middle, taken", [("0e2", True), ("0e3", False), ("0e0", False)])
    def test_words_of_one_value_may_differ_in_several_bits(self, middle, taken):
        """The bytes "1" and "2" of 0e1 and 0e2, both +0.0, differ in two
        bits, which let "0" and "3" pass the layout check too: a cell 0e0
        or 0e3 is neither word, and declines the matrix."""
        rows = above_floor([["0e1", "0e2"] * 12, ["0e2", "0e1"] * 12])
        rows = [rows[0], [middle] * 24, *rows[1:]]
        text, rows, alike = matrix_document(rows, " ", "")
        got = load_text(text)["alpha"]
        assert isinstance(got, np.ndarray) == taken == reader_takes(rows, alike)
        assert np.array_equal(np.asarray(got, dtype=float), np.zeros((len(rows), 24)))

    def test_bool_decoded_tournament_is_known_as_one(self, tmp_path, monkeypatch):
        """A 0/1 tournament read as bools is a tournament from its
        construction: no later call looks at its n^2 cells again."""
        n = 40
        u = np.triu(np.random.default_rng(n).random((n, n)) < 0.5, 1)
        alpha = (u + np.tril(1.0 - u.T, -1)).tolist()
        path = write_json(tmp_path, "t.json", {"n": n, "alpha": alpha})
        assert cli._load_json(path)["alpha"].dtype == bool
        g = cli._decode(path, GeneralizedTournament)
        assert g.is_tournament and g._entries.dtype == bool and "_alpha" not in vars(g)
        assert g.alpha.dtype == np.float64 and not g.alpha.flags.writeable
        assert np.array_equal(g.alpha, alpha)
        # the same messages, in the same order, as the float path
        for bad, message in [(np.eye(n), "diagonal"), (np.ones((n, n)) - np.eye(n), "violates")]:
            path = write_json(tmp_path, "bad.json", {"n": n, "alpha": bad.tolist()})
            assert cli._load_json(path)["alpha"].dtype == bool
            with pytest.raises(cli.UsageError, match=message) as fast:
                cli._decode(path, GeneralizedTournament)
            monkeypatch.setattr(cli, "_number_matrix", lambda text, i: None)
            with pytest.raises(cli.UsageError) as slow:
                cli._decode(path, GeneralizedTournament)
            monkeypatch.undo()
            assert str(fast.value) == str(slow.value)

    def test_sample_read_back_matches_json_path(self, tmp_path, monkeypatch):
        """A sample, which the reader reads as bools, and a self-converse
        realization with values 0, 1/2 and 1, which it declines, give the
        same outputs with the reader on and off."""
        w = write_json(tmp_path, "w.json", random_step_kernel(4, seed=6).to_json_dict())
        seq = write_json(tmp_path, "seq.json", {"values": [12] * 25, "kind": "integer"})
        made = {}
        for argv, bools in [(["sample", "--input", w, "--size", "300", "--seed", "2"], True),
                            (["realize-selfconverse", "--input", seq], False)]:
            made[argv[0]] = str(tmp_path / f"{argv[0]}.json")
            assert main([*argv, "--output", made[argv[0]]]) == 0
            assert isinstance(cli._load_json(made[argv[0]])["alpha"], np.ndarray) == bools
        calls = [["density", "--pattern", "C3", "--mode", "inj"], ["degree-dist"]]

        def outputs():
            out = tmp_path / "out"
            for path in made.values():
                for argv in calls:
                    assert main([argv[0], "--input", path, *argv[1:], "--output", str(out)]) == 0
                    yield out.read_bytes()

        fast = list(outputs())
        monkeypatch.setattr(cli, "_number_matrix", lambda text, i: None)
        assert list(outputs()) == fast


class TestInputText:
    """An input is read as ``Path.read_text(encoding="utf-8")`` reads it: a
    regular file of at least ``cli._MAP_FROM`` bytes through a read-only
    map, closed before the reader returns, and anything else through
    read."""

    @staticmethod
    def sample(half3, path, size):
        assert main(["sample", "--input", half3, "--size", str(size), "--seed", "1",
                     "--output", str(path)]) == 0
        return path

    @pytest.fixture
    def sampled(self, half3, tmp_path):
        path = self.sample(half3, tmp_path / "sample.json", 60)
        assert 0 < path.stat().st_size < cli._MAP_FROM
        return path

    @pytest.fixture
    def mapped(self, half3, tmp_path):
        path = self.sample(half3, tmp_path / "mapped.json", 200)
        assert path.stat().st_size >= cli._MAP_FROM
        return path

    @pytest.mark.parametrize("input", ["sampled", "mapped"])
    def test_crlf_and_lone_cr_give_the_bytes_of_lf(self, request, input, tmp_path,
                                                   capsysbinary):
        text = request.getfixturevalue(input).read_bytes()
        outputs = {}
        for newline in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "copy.json"
            path.write_bytes(text.replace(b"\n", newline))
            assert_loads_as_read_text(path, {"alpha"})
            for argv in (["density", "--pattern", "C3", "--mode", "inj"], ["degree-dist"]):
                assert main([argv[0], "--input", str(path), *argv[1:]]) == 0
                outputs.setdefault(argv[0], []).append(capsysbinary.readouterr().out)
        for got in outputs.values():
            assert got[0] and got == [got[0]] * 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_and_piped_stdin_decode(self, sampled, tmp_path, capsysbinary):
        import threading

        assert main(["degree-dist", "--input", str(sampled)]) == 0
        want = capsysbinary.readouterr().out
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(sampled.read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            assert main(["degree-dist", "--input", str(fifo)]) == 0
        finally:
            writer.join(timeout=60)
        assert capsysbinary.readouterr().out == want
        proc = cli_within_60s("degree-dist", "--input", "/dev/stdin", stdin=sampled.read_bytes())
        assert proc.returncode == 0 and proc.stdout == want

    def test_empty_and_non_utf8_files_exit_2_with_the_messages_of_read_text(self, tmp_path,
                                                                           capsys):
        for name, data in [("empty.json", b""), ("latin1.json", '{"\xe9": 1}'.encode("latin-1")),
                           ("cut.json", b'{"n": "\xe2\x82'),
                           ("mapped.json", b'{"n": "' + b"x" * cli._MAP_FROM + b'\xe9"}')]:
            path = tmp_path / name
            path.write_bytes(data)
            try:
                json.loads(path.read_text(encoding="utf-8"))
            except UnicodeDecodeError as exc:
                want = f"malformed input in {path}: not UTF-8 text ({exc})"
            except json.JSONDecodeError as exc:
                want = f"malformed JSON in {path}: {exc}"
            assert main(["degree-dist", "--input", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {want}\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_the_map_is_closed_before_the_reader_returns(self, sampled, mapped, monkeypatch):
        import mmap

        listed = []
        real = mmap.mmap

        def spy(*args, **kwargs):
            m = real(*args, **kwargs)
            listed.append(Path("/proc/self/maps").read_text())
            return m

        monkeypatch.setattr(mmap, "mmap", spy)
        assert cli._load_json(str(sampled))["alpha"].dtype == bool
        assert listed == []  # below _MAP_FROM the file is read
        name = os.path.realpath(mapped)
        assert cli._load_json(str(mapped))["alpha"].dtype == bool
        assert len(listed) == 1 and name in listed[0]
        assert name not in Path("/proc/self/maps").read_text()

    @pytest.mark.parametrize("error", [OSError(19, "No such device"), ValueError("mmap")])
    def test_a_file_that_cannot_be_mapped_is_read(self, mapped, monkeypatch, error):
        # as on a file system without mmap (ENODEV)
        import mmap

        refused = []

        def refuse(*args, **kwargs):
            refused.append(args)
            raise error

        want = cli._load_json(str(mapped))
        monkeypatch.setattr(mmap, "mmap", refuse)
        assert_loads_as_read_text(mapped, {"alpha"})
        assert len(refused) == 1
        got = cli._load_json(str(mapped))
        assert got["n"] == want["n"] and np.array_equal(got["alpha"], want["alpha"])


# the 576-cell 0/1 matrix _WIDE spelled 1.0 and 0.0, and 1 and 0
_WIDE_TEXT = json.dumps(_WIDE.tolist())
_WIDE_INTS = json.dumps(_WIDE.astype(int).tolist())


class TestSkeleton:
    """A document in which the reader takes a matrix decodes as
    ``json.loads(Path.read_text())`` does, mapped or read: when the
    matrix's text is not a value of the top-level object, when the text
    around it is not UTF-8 or not JSON, and whatever its newlines."""

    @pytest.fixture(params=["mapped", "read"])
    def map_from(self, request, monkeypatch):
        monkeypatch.setattr(cli, "_MAP_FROM", 0 if request.param == "mapped" else 1 << 62)

    @pytest.mark.parametrize("doc, arrays", [
        # the matrix's text inside a string, after a colon or not
        ('{"note": "' + _WIDE_TEXT + '"}', set()),
        ('{"n": 24, "note": "' + _WIDE_TEXT + '", "alpha": ' + _WIDE_TEXT + "}", {"alpha"}),
        ('{"n": 24, "note": "n: ' + _WIDE_TEXT + '", "alpha": ' + _WIDE_TEXT + "}", set()),
        ('{"alpha": ' + _WIDE_TEXT + ', "note": "n:' + _WIDE_INTS + '"}', set()),
        # one level below the top
        ('{"x": {"alpha": ' + _WIDE_TEXT + "}}", set()),
        ('{"x": [' + _WIDE_TEXT + "]}", set()),
        ('{"alpha": ' + _WIDE_TEXT + ', "x": {"beta": ' + _WIDE_INTS + "}}", set()),
        ("[" + _WIDE_TEXT + "]", None),
        (_WIDE_TEXT, None),
        # two matrices, and one declined matrix between them
        ('{"a": ' + _WIDE_TEXT + ', "b": ' + _WIDE_INTS + "}", {"a", "b"}),
        ('{"a": ' + _WIDE_INTS + ', "c": [[0.5, 1], [0, 0.5]], "b": ' + _WIDE_TEXT + "}",
         {"a", "b"}),
        ('{"a": ' + _WIDE_TEXT + ', "a": ' + _WIDE_INTS + "}", {"a"}),
        # the placeholder's byte in the document
        ('{"s": "@", "alpha": ' + _WIDE_TEXT + ', "t": "@"}', {"alpha"}),
        ('{"s": @, "alpha": ' + _WIDE_TEXT + "}", None),
        ('{"alpha": ' + _WIDE_TEXT + ', "s": @}', None),
        # non-ASCII text before and after the matrix
        ('{"\u00e9": "\u20ac", "alpha": ' + _WIDE_TEXT + ', "z": "\U0001f600 \u00fc"}',
         {"alpha"}),
        # JSON errors before and after it, and a CR in a string after it
        ('{"n": , "alpha": ' + _WIDE_TEXT + "}", None),
        ('{"alpha": ' + _WIDE_TEXT + ', "n": }', None),
        ('{"alpha": ' + _WIDE_TEXT + ', "n": 1} x', None),
        ('{"alpha": ' + _WIDE_TEXT + ',\r\n "s": "a\rb"}', None),
    ])
    def test_decodes_as_read_text(self, tmp_path, map_from, doc, arrays):
        path = tmp_path / "doc.json"
        path.write_bytes(doc.encode())
        assert_loads_as_read_text(path, arrays)

    @pytest.mark.parametrize("doc", [
        b'{"n": "\xe9", "alpha": ' + _WIDE_TEXT.encode() + b"}",
        b'{"n": "\xe2\x82", "alpha": ' + _WIDE_TEXT.encode() + b"}",
        b'{"alpha": ' + _WIDE_TEXT.encode() + b', "n": "\xff"}',
        b'{"alpha": ' + _WIDE_TEXT.encode() + b', "n": "\xf0\x9f\x98"}',
        b'{"alpha": ' + _WIDE_TEXT.encode() + b', "a": ' + _WIDE_INTS.encode() + b"}\x80",
    ])
    def test_invalid_utf8_before_and_after_the_matrix(self, tmp_path, map_from, doc):
        path = tmp_path / "doc.json"
        path.write_bytes(doc)
        assert_loads_as_read_text(path)
        with pytest.raises(cli.UsageError, match="not UTF-8 text"):
            cli._load_json(str(path))

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
    @pytest.mark.parametrize("layout", ["compact", "indented"])
    def test_crlf_and_lone_cr_layouts(self, tmp_path, map_from, newline, layout):
        if layout == "compact":
            doc = '{"n": 24,\n"alpha": ' + _WIDE_TEXT + ',\n"s": "x"\n}\n'
        else:
            doc = _json_text({"alpha": _WIDE, "n": 24, "s": "x"})
        path = tmp_path / "doc.json"
        path.write_bytes(doc.replace("\n", newline).encode())
        assert_loads_as_read_text(path, {"alpha"})


class TestMatrixOutputsMatchSchema:
    """The matrix subcommands hand arrays to the encoder; their bytes must
    stay those of ``to_json_dict`` for the object the library returns."""

    @staticmethod
    def run(args, tmp_path):
        out = tmp_path / "out.json"
        assert main(args + ["--output", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("values,kind", [([3, 1, 4, 3, 5, 2, 3], "integer"),
                                             ([0.25, 1.5, 1.25, 3.0], "real")])
    def test_realize_and_selfconverse(self, tmp_path, values, kind):
        seq = ScoreSequence(np.array(values), kind)
        path = write_json(tmp_path, "seq.json", seq.to_json_dict())
        g = realize.realize_scores(seq, 1e-9)
        assert self.run(["realize", "--input", path], tmp_path) == json_reference(
            g.to_json_dict()
        )
        pair = ScoreSequence(np.array([1, 1, 2, 2]), "integer")
        path = write_json(tmp_path, "pair.json", pair.to_json_dict())
        g = realize.realize_self_converse(pair, 1e-9)
        assert self.run(["realize-selfconverse", "--input", path], tmp_path) == (
            json_reference(g.to_json_dict())
        )

    def test_kernel_from_fn(self, tmp_path):
        fn = ScoreFunction(np.array([0.2, 0.45, 0.5, 0.85]))
        path = write_json(tmp_path, "fn.json", fn.to_json_dict())
        w = realize.kernel_from_score_function(fn, 8, 1e-9)
        assert self.run(["kernel-from-fn", "--input", path, "--blocks", "8"],
                        tmp_path) == json_reference(w.to_json_dict())

    def test_sample_and_selfconverse(self, tmp_path, half3):
        w = random_step_kernel(5, seed=3)
        path = write_json(tmp_path, "w.json", w.to_json_dict())
        g = sample.sample_tournament(w, sample.SampleConfig(40, 9, 1))
        assert self.run(["sample", "--input", path, "--size", "40", "--seed", "9"],
                        tmp_path) == json_reference(g.to_json_dict())
        g = sample.sample_self_converse(
            StepKernel(np.full((3, 3), 0.5)), np.arange(3)[::-1], sample.SampleConfig(17, 4, 1)
        )
        assert self.run(["sample-selfconverse", "--input", half3, "--size", "17",
                         "--seed", "4", "--sigma", "reverse"], tmp_path) == (
            json_reference(g.to_json_dict())
        )

    def test_perturb_certificate(self, tmp_path):
        w = random_step_kernel(6, seed=1)
        path = write_json(tmp_path, "w.json", w.to_json_dict())
        cert = perturb.nonuniqueness_certificate(w)
        assert cert is not None
        payload = cert.to_json_dict()
        payload["result"] = "certificate"
        assert self.run(["perturb", "--input", path], tmp_path) == json_reference(payload)


def test_fresh_process_does_not_import_numpy_ma(tmp_path, half3):
    """np.unique and np.union1d import numpy.ma, about 15 ms that a fresh
    ``kernel-from-fn``, real ``realize`` or ``converge`` would pay."""
    fn = write_json(tmp_path, "fn.json", {"cells": [0.2, 0.45, 0.5, 0.85]})
    seq = write_json(tmp_path, "seq.json", {"kind": "real", "values": [0.25, 1.5, 1.25, 3.0]})
    out = str(tmp_path / "out")
    calls = [["kernel-from-fn", "--input", fn, "--blocks", "8", "--output", out],
             ["realize", "--input", seq, "--output", out],
             ["converge", "--input", half3, "--pattern", "C3", "--sizes", "8,16", "--reps", "2",
              "--seed", "1", "--output", out]]
    script = ("import sys\nfrom tourlim.cli import main\n"
              f"assert all(main(argv) == 0 for argv in {calls!r})\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_sample_900_is_fast(tmp_path):
    """Writing a 900-vertex sample must not walk its 810,000 entries
    through json's pure-Python indented encoder (about 1 s)."""
    path = write_json(tmp_path, "w.json", random_step_kernel(5, seed=0).to_json_dict())
    args = ["sample", "--input", path, "--size", "900", "--seed", "1",
            "--output", str(tmp_path / "out.json")]
    start = time.perf_counter()
    assert main(args) == 0
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("size", [2, 700])
def test_sample_stdout_and_output_file_bytes(tmp_path, capsysbinary, size):
    w = random_step_kernel(4, seed=2)
    path = write_json(tmp_path, "w.json", w.to_json_dict())
    args = ["sample", "--input", path, "--size", str(size), "--seed", "5"]
    out = tmp_path / "out.json"
    assert main(args + ["--output", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(args) == 0
    stdout = capsysbinary.readouterr().out
    g = sample.sample_tournament(w, sample.SampleConfig(size, 5, 1))
    want = json.dumps(g.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == stdout == want.encode()


def test_refused_sample_writes_only_the_error(half3, tmp_path, capsys):
    args = ["sample", "--input", half3, "--size", "20000", "--seed", "1"]
    out = tmp_path / "out.json"
    assert main(args + ["--output", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    payload = json.loads(out.read_text())
    assert list(payload) == ["error"] and "20000" in payload["error"]
    assert out.read_text() == json_reference(payload)
    assert main(args) == 1
    assert capsys.readouterr() == (out.read_text(), "")


class TestOutputInPlace:
    """--output is written over in place and cut to length when it is a
    regular file; FIFOs and devices are written, never cut."""

    def args(self, half3, size):
        return ["sample", "--input", half3, "--size", str(size), "--seed", "3"]

    def test_over_a_longer_file_leaves_a_fresh_write(self, half3, tmp_path):
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        assert main(self.args(half3, 60) + ["--output", str(fresh)]) == 0
        reused.write_bytes(b"x" * (5 * fresh.stat().st_size))
        os.chmod(reused, 0o640)
        assert main(self.args(half3, 60) + ["--output", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        # the file is written over, not made anew
        assert reused.stat().st_mode & 0o777 == 0o640
        assert main(self.args(half3, 200) + ["--output", str(reused)]) == 0
        assert main(self.args(half3, 60) + ["--output", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()

    def test_a_900_vertex_sample_cut_to_125(self, half3, tmp_path):
        # a 125-vertex sample over a 900-vertex one leaves the bytes of a
        # fresh write, and of --output /dev/stdout, a pipe, in a new process
        out, fresh = tmp_path / "s.json", tmp_path / "s125.json"
        args = ["sample", "--input", half3, "--seed", "1", "--size"]
        assert main(args + ["900", "--output", str(out)]) == 0
        assert main(args + ["125", "--output", str(out)]) == 0
        assert main(args + ["125", "--output", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tourlim.cli", *args, "125", "--output", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True)
        assert proc.stdout == out.read_bytes()

    def test_devnull_is_not_cut(self, half3):
        # ftruncate on a character device fails (EINVAL), so a cut would raise
        assert main(self.args(half3, 40) + ["--output", os.devnull]) == 0

    def test_fifo_is_written_and_not_cut(self, half3, tmp_path):
        import threading

        fifo, want = tmp_path / "fifo", tmp_path / "want.json"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            # ftruncate on a FIFO fails (EINVAL), so a cut would raise
            assert main(self.args(half3, 300) + ["--output", str(fifo)]) == 0
        finally:
            reader.join(timeout=60)
        assert main(self.args(half3, 300) + ["--output", str(want)]) == 0
        assert got == [want.read_bytes()]

    def test_unwritable_paths_raise_as_open_does(self, half3, tmp_path):
        for target in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
            with pytest.raises(OSError) as want:
                open(target, "wb")
            with pytest.raises(OSError) as got:
                main(self.args(half3, 5) + ["--output", target])
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        assert not (tmp_path / "missing").exists()

    def test_output_may_be_the_input(self, tmp_path):
        # the input is decoded before anything is written: a shorter and a
        # longer output over the file that was read
        sampled = tmp_path / "t.json"
        kernel = write_json(tmp_path, "w.json", random_step_kernel(3, seed=1).to_json_dict())
        assert main(["sample", "--input", kernel, "--size", "50", "--seed", "2",
                     "--output", str(sampled)]) == 0
        copy = tmp_path / "copy.json"
        copy.write_bytes(sampled.read_bytes())
        density_args = ["density", "--pattern", "C3", "--mode", "inj"]
        assert main(density_args + ["--input", str(copy), "--output", str(tmp_path / "want")]) == 0
        assert main(density_args + ["--input", str(sampled), "--output", str(sampled)]) == 0
        assert sampled.read_bytes() == (tmp_path / "want").read_bytes()
        seq = write_json(tmp_path, "seq.json", {"values": [2, 2, 2, 2, 2], "kind": "integer"})
        fresh = tmp_path / "realized.json"
        assert main(["realize", "--input", seq, "--output", str(fresh)]) == 0
        assert main(["realize", "--input", seq, "--output", seq]) == 0
        assert Path(seq).read_bytes() == fresh.read_bytes()


def test_the_cli_reads_its_own_0_1_output_back_and_c4_hom_is_exact(half3, tmp_path):
    """A 900-vertex sample, read back from its indented output, and a
    1500-vertex 0/1 tournament written compactly, each through density and
    degree-dist, each command within 60 s; C4 hom runs one A.A, and on a
    0/1 matrix every partial sum is an integer below 2^53, so it equals
    tr(A^4) / n^4 exactly."""
    sampled = tmp_path / "sample900.json"
    assert cli_within_60s("sample", "--input", half3, "--size", "900", "--seed", "1",
                          "--output", str(sampled)).returncode == 0
    n = 1500
    u = np.triu(np.random.default_rng(n).random((n, n)) < 0.5, 1)
    a = u + np.tril(1.0 - u.T, -1)
    compact = write_json(tmp_path, "tournament1500.json", {"n": n, "alpha": a.tolist()})
    for path in (str(sampled), compact):
        assert cli._load_json(path)["alpha"].dtype == bool
        g = GeneralizedTournament.from_json_dict(json.loads(Path(path).read_text()))
        proc = cli_within_60s("density", "--input", path, "--pattern", "C3", "--mode", "inj")
        assert proc.returncode == 0
        want = density.density_finite(DigraphPattern.cycle(3), g, "inj")
        assert json.loads(proc.stdout)["density"] == want
        proc = cli_within_60s("degree-dist", "--input", path)
        assert proc.returncode == 0
        assert proc.stdout.decode() == sample.empirical_degree_distribution(g).to_csv()
    proc = cli_within_60s("density", "--input", compact, "--pattern", "C4", "--mode", "hom")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["density"] == np.trace(np.linalg.matrix_power(a, 4)) / n**4


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_converge_writes_the_same_bytes_on_one_cpu_as_on_all(half3, tmp_path):
    # from 600 vertices a size's repetitions run on one thread per CPU the
    # process may use; the child pinned to one CPU runs them serially
    argv = ["converge", "--input", half3, "--pattern", "C3", "--pattern", "C4",
            "--sizes", "300,600", "--reps", "6", "--seed", "1"]
    one, every = tmp_path / "one_cpu.csv", tmp_path / "all_cpus.csv"
    script = ("import os, sys\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "from tourlim import sample\n"
              "from tourlim.cli import main\n"
              "assert sample._workers(600, 6) == 1\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).parents[1])
    subprocess.run([sys.executable, "-c", script, *argv, "--output", str(one)],
                   env={**os.environ, "PYTHONPATH": src}, check=True)
    assert main([*argv, "--output", str(every)]) == 0
    assert one.read_bytes() == every.read_bytes()


def test_samples_over_many_draw_blocks_and_skew_tiles(half3):
    """converge at 3000 vertices, whose C3 steps run in float32 on values up
    to 3000^2 = 9e6, and a 1500-vertex self-converse sample, each within
    60 s."""
    proc = cli_within_60s("converge", "--input", half3, "--pattern", "C3", "--sizes", "3000",
                          "--reps", "2", "--seed", "1")
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.decode().splitlines()]
    assert [row[:2] for row in rows] == [["pattern", "n"], ["C3", "3000"], ["degree_w1", "3000"]]
    assert abs(float(rows[1][2]) - 0.125) < 1e-3
    proc = cli_within_60s("sample-selfconverse", "--input", half3, "--size", "1500",
                          "--sigma", "reverse", "--seed", "1", "--output", "/dev/null")
    assert proc.returncode == 0


@pytest.mark.parametrize("n, spec", [(350, "C4"), (90, "C5")])
def test_sliced_induced_densities_within_60s(tmp_path, n, spec):
    """C4 ind at 350 vertices and C5 ind at 90, on generalised tournaments,
    whose widest terms run in passes over row ranges of their cut vertex,
    each within 60 s."""
    u = np.triu(np.random.default_rng(n).random((n, n)), 1)
    alpha = u + np.tril(1.0 - u.T, -1)
    path = write_json(tmp_path, f"gt{n}.json", {"n": n, "alpha": alpha.tolist()})
    plans = [density._chosen(k, factors, n)
             for _, k, factors in density._terms(DigraphPattern.from_spec(spec), "ind", 1, n)
             if factors]
    assert any(len(density._passes(plan, i, n)) > 1 for plan in plans for i in plan.sliced)
    proc = cli_within_60s("density", "--input", path, "--pattern", spec, "--mode", "ind")
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= json.loads(proc.stdout)["density"] <= 1.0


def test_0_1_tournaments_never_build_float64(half3, tmp_path, monkeypatch):
    """sample, sample-selfconverse, integer realize, degree-dist, density
    and converge on a 0/1 input read and write or contract the bools, and
    never build the float64 alpha."""
    built = []
    alpha = GeneralizedTournament.alpha
    monkeypatch.setattr(GeneralizedTournament, "alpha",
                        property(lambda g: built.append(g.n) or alpha.fget(g)))
    sampled, out = tmp_path / "sample.json", str(tmp_path / "out")
    seq = write_json(tmp_path, "seq.json", {"values": [40] * 81, "kind": "integer"})
    for argv in (["sample", "--input", half3, "--size", "60", "--output", str(sampled)],
                 ["sample-selfconverse", "--input", half3, "--size", "30", "--output", out],
                 ["realize", "--input", seq, "--output", out],
                 ["degree-dist", "--input", str(sampled), "--output", out]):
        assert main(argv) == 0
    assert built == []
    assert main(["density", "--input", str(sampled), "--pattern", "C3", "--output", out]) == 0
    assert main(["converge", "--input", half3, "--pattern", "C3", "--pattern", "C4",
                 "--sizes", "30,300", "--reps", "2", "--output", out]) == 0
    assert built == []
