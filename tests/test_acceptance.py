"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5 needs a real
closed-world dataset directory in the WFDEFEND_DFCW environment variable
and is skipped otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_conservation_and_fifo,
    assert_same_schedule,
    random_params,
    random_trace,
)
from oracle_regulator import reference_defend

from wfdefend import (
    Dataset,
    Direction,
    PacketKind,
    apply_front,
    apply_regulator,
    apply_tamaraw,
    evaluate_closed_world,
    feature_matrix,
    generate_classes,
    parse_trace,
    separable_profiles,
    trace_stats,
)
from wfdefend.cli import main
from wfdefend.metrics import bandwidth_overhead, estimated_latency_overhead, latency_overhead
from wfdefend.regulator import target_rate
from wfdefend.seeding import stable_seed
from wfdefend.presets import FRONT_PRESETS, REGULATOR_PRESETS, TAMARAW_PRESETS
from wfdefend.stats import post_tenth_packet_profile

HEAVY = REGULATOR_PRESETS["regulator-heavy"]
LIGHT = REGULATOR_PRESETS["regulator-light"]
FRONT = FRONT_PRESETS["front-2500"]
TAMARAW = TAMARAW_PRESETS["tamaraw"]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_oracle_equivalence():
    """Optimized simulator == naive event-by-event reference on 200 traces."""
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    checked = 0
    for i in range(200):
        trace = random_trace(rng, 500)
        if i % 25 == 0:
            params = HEAVY if i % 50 == 0 else LIGHT
        else:
            params = random_params(rng, max_budget=400)
        seed = int(rng.integers(0, 2**63))
        mine = apply_regulator(trace, params, seed)
        reference, _ = reference_defend(trace, params, seed)
        assert mine.drawn_budget == reference.drawn_budget
        assert_same_schedule(mine, reference, tol=1e-9)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 200 and elapsed < 10.0
    report(1, ok, f"{checked} traces identical, {elapsed:.1f}s")
    assert checked == 200
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s, budget 10s"


def test_criterion_2_rate_law():
    at_zero = target_rate(HEAVY, 0.0)
    at_ten = target_rate(HEAVY, 10.0)
    direct = 277.0 * 0.94**10  # 149.1964, evaluated directly
    floored = target_rate(HEAVY, 120.0)
    ok = (
        at_zero == 277.0
        and abs(at_ten - direct) <= 0.01
        and abs(at_ten - 149.1963866) <= 0.01
        and floored == 1.0
    )
    report(2, ok, f"rate(0)={at_zero}, rate(10)={at_ten:.4f}, rate(120)={floored}")
    assert at_zero == 277.0
    assert at_ten == pytest.approx(direct, abs=0.01)
    assert floored == 1.0


def test_criterion_3_invariant_suite():
    """Defense invariants over at least 1000 random (trace, seed) pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(31337)
    pairs = 0

    for _ in range(500):  # regulator pairs
        trace = random_trace(rng, 250)
        params = random_params(rng, max_budget=300)
        seed = int(rng.integers(0, 2**63))
        defended = apply_regulator(trace, params, seed)
        pairs += 1
        assert_conservation_and_fifo(trace, defended)
        assert defended.dummy_count(Direction.DOWNLOAD) <= defended.drawn_budget
        assert defended.drawn_budget <= params.N
        for p in defended:
            if p.kind is PacketKind.REAL and p.direction is Direction.UPLOAD:
                assert p.delay <= params.C + 1e-9
        if len(trace) and trace.duration > 0:
            assert latency_overhead(trace, defended) >= 0.0

    for _ in range(300):  # front pairs
        trace = random_trace(rng, 250)
        seed = int(rng.integers(0, 2**63))
        defended = apply_front(trace, FRONT, seed)
        pairs += 1
        assert_conservation_and_fifo(trace, defended)
        if len(trace) and trace.duration > 0:
            assert latency_overhead(trace, defended) == 0.0

    for _ in range(300):  # tamaraw pairs (deterministic; seed unused)
        trace = random_trace(rng, 250)
        defended = apply_tamaraw(trace, TAMARAW)
        pairs += 1
        assert_conservation_and_fifo(trace, defended)
        for direction, rho in (
            (Direction.DOWNLOAD, TAMARAW.rho_in),
            (Direction.UPLOAD, TAMARAW.rho_out),
        ):
            times = [p.send_time for p in defended if p.direction is direction]
            assert len(times) % TAMARAW.L == 0 and len(times) > 0
            gaps = np.diff(times)
            assert np.all(np.abs(gaps - rho) <= 1e-9)
        if len(trace) and trace.duration > 0:
            assert latency_overhead(trace, defended) >= 0.0

    elapsed = time.monotonic() - start
    ok = pairs >= 1000 and elapsed < 60.0
    report(3, ok, f"{pairs} pairs, {elapsed:.1f}s")
    assert pairs >= 1000
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s, budget 60s"


def test_criterion_4_adjustment_rule(capsys):
    code = main(
        ["adjust", "--preset", "regulator-heavy", "--reference", "1000", "--target", "2431"]
    )
    scaled = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    code2 = main(
        ["adjust", "--preset", "regulator-heavy", "--reference", "2100.9", "--target", "2100.9"]
    )
    identity = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    ok = (
        code == 0
        and code2 == 0
        and scaled["R"] == "673"
        and identity["R"] == "277"
        and identity["N"] == "3550"
    )
    report(4, ok, f"scaled R={scaled['R']}, identity R={identity['R']}")
    assert code == 0 and code2 == 0
    assert scaled["R"] == "673"
    assert identity["R"] == "277" and identity["N"] == "3550"


def test_criterion_5_dataset_statistics():
    if "WFDEFEND_DFCW" not in os.environ:
        print("[ACCEPTANCE] criterion 5: SKIP (set WFDEFEND_DFCW to a dataset directory)")
        pytest.skip("set WFDEFEND_DFCW to a closed-world dataset directory to run")
    root = Path(os.environ["WFDEFEND_DFCW"])
    files = sorted(p for p in root.iterdir() if p.is_file())
    assert files, f"no trace files in {root}"

    # Deterministic stride samples keep the runtime bounded on full datasets.
    stats_files = files[:: max(1, len(files) // 4000)]
    traces = []
    for path in stats_files:
        try:
            traces.append(parse_trace(path.read_text(encoding="utf-8")))
        except Exception:
            continue
    dataset = Dataset(tuple(traces), name=root.name)

    mean_count = float(np.mean([len(t) for t in traces]))
    median_iqr = float(np.median([trace_stats(t).time_iqr for t in traces if len(t)]))
    profile = post_tenth_packet_profile(dataset)
    uploads = sum(t.count(Direction.UPLOAD) for t in traces)
    downloads = sum(t.count(Direction.DOWNLOAD) for t in traces)
    ratio = downloads / uploads

    overhead_sample = [t for t in traces if len(t) >= 2 and t.duration > 0][:1000]
    assert len(overhead_sample) >= 1000, "need a >= 1000-trace sample"
    bandwidths, latencies = [], []
    for i, trace in enumerate(overhead_sample):
        defended = apply_regulator(trace, HEAVY, stable_seed(5, "dfcw", i))
        bandwidths.append(bandwidth_overhead(trace, defended))
        latencies.append(estimated_latency_overhead(trace, defended))
    mean_bw = float(np.mean(bandwidths))
    mean_lat = float(np.mean(latencies))

    checks = {
        "mean_count~2100.9": abs(mean_count - 2100.9) <= 0.05 * 2100.9,
        "median_iqr~3.96": abs(median_iqr - 3.96) <= 0.05 * 3.96,
        "post10_median~7.57": abs(profile.median_offset - 7.57) <= 0.05 * 7.57,
        "ratio~5.96": abs(ratio - 5.96) <= 0.05 * 5.96,
        "heavy_bw~0.797": abs(mean_bw - 0.797) <= 0.10,
        "heavy_lat~0.066": abs(mean_lat - 0.066) <= 0.05,
    }
    detail = ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    report(5, all(checks.values()), detail)
    assert all(checks.values()), detail


def test_criterion_6_attack_evaluator_sanity():
    start = time.monotonic()
    profiles = separable_profiles(10)
    dataset = generate_classes(profiles, instances=50, seed=4242)

    undefended = evaluate_closed_world(dataset, k=5, folds=10, seed=7).accuracy
    heavy = evaluate_closed_world(
        dataset,
        feature_matrix(
            HEAVY.apply(tr, stable_seed(7, "c6", i)) for i, tr in enumerate(dataset.traces)
        ),
        k=5,
        folds=10,
        seed=7,
    ).accuracy
    tamaraw = evaluate_closed_world(
        dataset,
        feature_matrix(TAMARAW.apply(tr, 0) for tr in dataset.traces),
        k=5,
        folds=10,
        seed=7,
    ).accuracy

    elapsed = time.monotonic() - start
    ok = (
        undefended >= 0.9
        and heavy < undefended
        and tamaraw <= heavy + 0.05
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"undefended={undefended:.3f}, heavy={heavy:.3f}, tamaraw={tamaraw:.3f}, "
        f"{elapsed:.1f}s",
    )
    assert undefended >= 0.9
    assert heavy < undefended
    assert tamaraw <= heavy + 0.05
    assert elapsed < 120.0, f"evaluator sanity took {elapsed:.1f}s, budget 120s"


def test_criterion_7_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    code = main(
        ["synth", "--out", str(data), "--classes", "3", "--instances", "4",
         "--seed", "9", "--base-total", "40", "--step", "10"]
    )
    assert code == 0

    def tree(root: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    mismatches = []

    # synth reruns
    data2 = tmp_path / "data2"
    main(["synth", "--out", str(data2), "--classes", "3", "--instances", "4",
          "--seed", "9", "--base-total", "40", "--step", "10"])
    if tree(data) != tree(data2):
        mismatches.append("synth")

    # simulate reruns, including a parallel run
    outs = []
    for name, jobs in (("s1", "1"), ("s2", "1"), ("s3", "2")):
        out = tmp_path / name
        main(["simulate", str(data), "--out", str(out), "--defense",
              "regulator-heavy", "--seed", "11", "--jobs", jobs])
        outs.append(tree(out) | {"report": (tmp_path / f"{name}.overhead.csv").read_bytes()})
    if not (outs[0] == outs[1] == outs[2]):
        mismatches.append("simulate")

    # eval feature export reruns
    feats = []
    for name in ("f1.csv", "f2.csv"):
        main(["eval", str(data), "--seed", "3", "--folds", "2", "--k", "1",
              "--defense", "front-1700", "--features-out", str(tmp_path / name)])
        feats.append((tmp_path / name).read_bytes())
    if feats[0] != feats[1]:
        mismatches.append("eval")

    # tune log reruns
    logs = []
    for name in ("t1.jsonl", "t2.jsonl"):
        main(["tune", str(data), "--trials", "1", "--seed", "5", "--log",
              str(tmp_path / name), "--folds", "2", "--k", "1"])
        logs.append((tmp_path / name).read_bytes())
    if logs[0] != logs[1]:
        mismatches.append("tune")

    # stats table reruns
    tables = []
    for name in ("g1", "g2"):
        main(["stats", str(data), "--out", str(tmp_path / name)])
        tables.append(
            tuple((tmp_path / f"{name}{suffix}").read_bytes()
                  for suffix in ("_traces.csv", "_decay.csv", "_per_second.csv"))
        )
    if tables[0] != tables[1]:
        mismatches.append("stats")

    capsys.readouterr()  # drop accumulated command output
    ok = not mismatches
    report(7, ok, "all commands byte-identical" if ok else f"mismatch: {mismatches}")
    assert not mismatches
