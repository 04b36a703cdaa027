"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Each workload's inputs at seed 0, with a Runner over them."""
    out = {}
    for name in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        (base / "in").mkdir()
        (base / "out").mkdir()
        wl = workloads.build(name, 0, base / "in")
        out[name] = (wl, run.Runner(wl, base / "in", base / "out"))
    return out


def test_names_use_the_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_spec_matches_what_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_same_seed_gives_identical_inputs(tmp_path):
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        d.mkdir()
        digests.append(workloads.build("sampling", seed, d).input_digest)
    assert digests[0] == digests[1] != digests[2]


def test_wrong_output_is_counted_as_failed(built):
    wl, runner = built["densities"]
    i = next(i for i, c in enumerate(wl.calls) if c.cmd == "density")
    output = runner.outdir / "wrong.out"
    code = runner.cli.main(wl.calls[i].argv(runner.indir, output))
    data = json.loads(output.read_text())
    data["density"] += 1e-6
    output.write_text(json.dumps(data))
    before = len(runner.failures)
    runner._verify(i, code, output, "test")
    assert len(runner.failures) == before + 1
    runner._verify(i, 1, output, "test")  # wrong exit code
    assert len(runner.failures) == before + 2


def test_replay_writes_the_cli_bytes(built):
    seen = set()
    for name, (wl, runner) in built.items():
        # the cheapest call of each subcommand, by input size
        order = sorted(range(len(wl.calls)), key=lambda i: runner.bytes_in[i])
        for i in order:
            call = wl.calls[i]
            if call.cmd in seen:
                continue
            seen.add(call.cmd)
            cli_out, replay_out = runner.outdir / "cli.out", runner.outdir / "replay.out"
            code = runner.cli.main(call.argv(runner.indir, cli_out))
            rec = replay.Recorder()
            assert replay.replay(call, runner.indir, replay_out, rec) == code
            assert replay_out.read_bytes() == cli_out.read_bytes(), call.label()
            assert all(s is not None for s in rec.spans)
    assert seen == set(replay.HANDLERS)


def test_self_times_subtract_children():
    rec = replay.Recorder()
    with rec.span("call"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    own = rec.self_times()
    total = rec.spans[0][2] - rec.spans[0][1]
    assert sum(own) == pytest.approx(total, abs=1e-12)
    assert [s[3] for s in rec.spans] == [None, 0, 0, 2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "scores", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
