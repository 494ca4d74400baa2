"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest bench/check_bench.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(spec):
    # Four classes, so the kNN half-size run still has two; ten instances per
    # class, the evaluator's default fold count.
    return dataclasses.replace(spec, classes=4, instances=10, base_total=30, step=5)


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "WORKLOADS", {n: tiny(s) for n, s in harness.WORKLOADS.items()})
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(harness, "recorded_digests", lambda workload, seed: None)
    return tmp_path


def run_bench(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_bench, workload, trace, kind):
    result = run_bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def round_outputs(tmp_path, workload="paper-regulator", seed=5):
    spec = tiny(harness.WORKLOADS[workload])
    data = tmp_path / "data"
    assert harness.generate(spec, seed, data, tmp_path).returncode == 0
    rnd = tmp_path / "round"
    ops = harness.run_round(spec, seed, data, rnd)
    return spec, seed, data, rnd, ops


def test_corrupt_defended_file_counts_as_failed_op(tmp_path):
    spec, seed, data, rnd, ops = round_outputs(tmp_path)
    counts = verify.original_counts(data)
    clean = harness.check_round(spec, counts, rnd, ops, None)
    assert not any(op.failed for op in ops.values())

    copy = tmp_path / "copy"
    shutil.copytree(rnd, copy)
    victim = sorted((copy / "sim1").iterdir())[0]
    lines = victim.read_text(encoding="utf-8").splitlines(keepends=True)
    real = next(i for i, line in enumerate(lines) if line.endswith("\tR\n"))
    lines[real] = lines[real].replace("\tR\n", "\tD\n")
    victim.write_text("".join(lines), encoding="utf-8")

    for reference in (None, clean):
        fresh = {name: dataclasses.replace(op, problems=[]) for name, op in ops.items()}
        harness.check_round(spec, counts, copy, fresh, reference)
        result = run.report(list(fresh.values()), {})
        assert result["failed"] > 0 and not result["correct"]
        assert fresh["simulate"].failed


def test_same_seed_generates_identical_dataset(tmp_path):
    spec = tiny(harness.WORKLOADS["many-short-knn"])
    digests = []
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        assert harness.generate(spec, seed, tmp_path / name, tmp_path).returncode == 0
        digests.append(verify.tree_digest(tmp_path / name))
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-regulator", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
