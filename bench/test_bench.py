"""Smoke tests of the benchmark at a small size.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import E2E  # noqa: E402
from tracing import METRICS  # noqa: E402
from worker import Runner, _attempt, _verdict  # noqa: E402
from workloads import build  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    runs = []
    for name in ("a", "b"):
        spec, _ = build("cli", 5, tmp_path / name, tmp_path / name, scripts=40)
        runs.append((_files(tmp_path / name), json.dumps(spec)))
    assert len(runs[0][0]) >= 8 and runs[0] == runs[1]


@pytest.mark.parametrize("workload", ["cli", "recognize", "ask"])
def test_every_seed_runs_the_same_sequence_of_op_shapes(tmp_path, workload):
    shapes = []
    for seed in (1, 2):
        spec, _ = build(workload, seed, tmp_path / str(seed), tmp_path / str(seed), scripts=40)
        shapes.append([(op["kind"], op.get("language"), op.get("generalization"),
                        op.get("long"), "--json" in op.get("argv", ())) for op in spec["ops"]])
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("workload", ["cli", "recognize", "ask"])
def test_oracle_passes_on_ops_that_avoid_known_defects(monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # CLI ops name their files relative to the root
    work = Path(".bench_work") / f"test-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    spec, _ = build(workload, 3, work, Path("."), scripts=40)
    import scriptkb
    import scriptkb.cli
    runner = Runner(scriptkb, scriptkb.cli, spec)
    runner.load()
    good = [op for op in spec["ops"] if not op.get("long")]
    assert len(good) >= 20
    for op in good:  # each sentence supports the script it was written for
        if op.get("generalization"):
            assert op["target"] in [r[0] for r in op["expect"]["results"]]
    causes = [_verdict(runner, op, _attempt(runner, op)[1]) for op in good]
    assert causes == [None] * len(good)
    long_ops = [op for op in spec["ops"] if op.get("long")]
    assert {_verdict(runner, op, _attempt(runner, op)[1]) for op in long_ops} <= {
        None, "long-phrase"}


def _traced(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--scripts", "40"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    first, second = _traced(9), _traced(9)
    counts = [n for n, (unit, _) in METRICS.items() if unit == "count"]
    assert first["correct"] and second["correct"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["scripts.build_script.calls"]["value"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, (u, b) in METRICS.items()]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
