#!/usr/bin/env python3
"""Benchmark for the wfdefend CLI: seeded workloads, timed commands, traced layers.

Run from the repository root:

    python3 bench/run.py --workload paper-regulator --seed 0 --seconds 30 --trace 0

The program under test is the package in `src/` of the checkout this file
sits in. `--trace 0` generates the workload's dataset from the seed, then
runs rounds of the workload's commands, each in its own child process, one
at a time (closed loop, one client), for `--seconds`. Every output is
verified; the end-to-end metrics are medians over the rounds. `--trace 1`
runs one untraced round and an in-process traced replay of the same
commands and reports per-layer metrics instead (see traced.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A run record (versions, CPU, dataset shape)
and, for traced runs, the spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import harness
import traced


def report(ops: list, metrics: dict) -> dict:
    failed = [op for op in ops if op.failed]
    for op in failed:
        reason = op.problems or [f"exit {op.returncode}: {op.stderr.strip()[-300:]}"]
        print(f"FAILED {op.name}: {'; '.join(reason)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_frac = {len(failed) / len(ops):.6g} ratio ({len(failed)} of {len(ops)} ops)")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "wfdefend" / "__init__.py").is_file():
        print(f"bench: no wfdefend package under {harness.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind: the running child is killed and waited for, and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = harness.WORKLOADS[args.workload]
    out_dir = harness.OUT_DIR
    work = harness.WORK_DIR / f"{spec.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            ops, metrics, extras = traced.traced_run(spec, args.seed, work, out_dir)
        else:
            ops, metrics, extras = harness.timed_run(spec, args.seed, args.seconds, work)
        record = harness.run_record(spec, args.seed, work / "data")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(extras, trace=args.trace, metrics=metrics)
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print("run record: " + json.dumps({k: record[k] for k in (
        "python", "numpy", "nproc", "cpu_model", "git_commit", "seed", "dataset")}, sort_keys=True))
    print(json.dumps(report(ops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
