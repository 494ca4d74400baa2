#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10                 # every workload, seeds 0..9
    python3 bench/spread.py --runs 1 --first-seed 7   # every workload once, seed 7
    python3 bench/spread.py --runs 5 --workload many-short-knn
    python3 bench/spread.py --runs 10 --record        # also rewrite the baseline files
    python3 bench/spread.py --runs 10 --compare bench/baseline.json

For each workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, against the bound in
BENCHMARK.json. `--compare` also prints how far each median moved from a
recorded baseline, in the metric's worse direction. `--record` writes
bench/baseline.json (medians, quartiles, run records) and
bench/digests.json (the SHA-256 of every output, per workload and seed),
which later runs of those seeds must match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed", flush=True)
        print("\n".join(line for line in proc.stdout.splitlines() if line.startswith("FAILED")), flush=True)
    return result


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    baseline = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None

    summary, digests, records = {}, {}, {}
    for workload in workloads:
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
        summary[workload] = {}
        for name, m in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            summary[workload][name] = s
            flag = "OK" if s["spread"] < m["bound"] / 3 else ("WIDE" if s["spread"] <= m["bound"] else "OVER")
            line = (f"{workload:20s} {name:30s} median {s['median']:10.4f} {m['unit']:14s} "
                    f"spread {s['spread']:.3f} (bound {m['bound']}) {flag}")
            if baseline is not None:
                old = baseline["workloads"][workload][name]["median"]
                worse = (old - s["median"]) / old if m["better"] == "higher" else (s["median"] - old) / old
                line += f" worse by {worse:+.3f}" + (" REGRESSED" if worse > m["bound"] else "")
            print(line, flush=True)
        for seed in seeds:
            record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
            digests.setdefault(workload, {})[str(seed)] = record["digests"]
            records.setdefault(workload, []).append(
                {k: record[k] for k in ("seed", "dataset", "rounds", "python", "numpy", "nproc",
                                        "cpu_model", "git_commit", "src_sha256")})

    if args.record:
        # Merge, so recording one workload keeps the others' entries.
        path = BENCH_DIR / "baseline.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for key, value in (("workloads", summary), ("records", records)):
            old.setdefault(key, {}).update(value)
        old.update(run_seconds=bench["run_seconds"], seeds=list(seeds))
        path.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        path = BENCH_DIR / "digests.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for workload, by_seed in digests.items():
            old.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
