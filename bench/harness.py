"""Shared pieces of the benchmark: workloads, child processes, rounds, records."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import verify  # noqa: E402

SETUP_SAMPLES = 3  # per round
MIN_ROUNDS = 2
TUNE_SEED = 0

# A fixed CPU-bound job like the program's inner loops: build and sort
# (time, direction) rows, format them as trace text, parse it back. It runs
# in an isolated interpreter (-I) that reads nothing from the checkout, so
# it times the machine and not the program. See calibrate().
CALIBRATION_JOB = """
rows = [((i * 7919 % 10007) / 1000.0, 1 if i % 5 else -1) for i in range(80000)]
rows.sort()
text = "".join(f"{t:.6f}\\t{d}\\n" for t, d in rows)
total = 0.0
for line in text.splitlines():
    a, b = line.split()
    total += float(a) * int(b)
"""
# Seconds the job takes at the reference speed, by number of concurrent
# copies: the medians on the machine the baseline was recorded on (Intel
# Xeon, 2 vCPUs, Python 3.11.7).
CALIBRATION_NOMINAL_S = {1: 0.285, 2: 0.31}
# Commands that run on both cores, so are calibrated with two copies.
TWO_CORE = {"simulate_j2", "simulate_j2_again"}


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    instances: int
    base_total: int
    step: int
    defense: str
    tune_trials: int
    # Regulator search space for `tune`; None keeps the tuner's default,
    # which brackets the presets for paper-scale (~2,400 packet) traces.
    tune_space: Optional[dict] = None

    @property
    def traces(self) -> int:
        return self.classes * self.instances

    def synth_args(self) -> list[str]:
        return ["--classes", str(self.classes), "--instances", str(self.instances),
                "--base-total", str(self.base_total), "--step", str(self.step)]


# Trace counts are scaled down from the paper-scale sizes so a round of every
# command fits the run time; packets per trace, class structure and the
# defense (so the layer each workload loads) are kept. BENCHMARK.json says
# why each workload is there, README.md says more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-regulator",
            classes=6, instances=10, base_total=2280, step=40,
            defense="regulator-heavy", tune_trials=1,
        ),
        Workload(
            "many-short-knn",
            classes=100, instances=12, base_total=60, step=1,
            defense="tamaraw", tune_trials=1,
            # The default space scaled to ~110-packet traces the way
            # `wfdefend adjust` scales a preset: R and N times 110/2380.
            tune_space={"R": [5.0, 28.0], "N": [23, 370]},
        ),
        Workload(
            "padding-front-tune",
            classes=10, instances=10, base_total=165, step=3,
            defense="front-2500", tune_trials=2,
        ),
    )
}

# Metric names, units and bounds; the metrics print in this order.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def with_units(values: dict, kind: str) -> dict:
    """{name: {value, unit}} for every `kind` metric of BENCHMARK.json."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCHMARK[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One child process: a CLI command or an import."""

    name: str
    argv: list
    wall_s: float = 0.0
    slowdown: float = 1.0  # calibration jobs around it over their nominal time
    peak_rss_mb: float = 0.0
    returncode: int = -1
    stdout: str = ""
    stderr: str = ""
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.problems)

    @property
    def nominal_wall_s(self) -> float:
        """Wall time scaled to the reference machine speed."""
        return self.wall_s / self.slowdown


def run_child(name: str, argv: list, cwd: Path) -> Op:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    op = Op(name, argv)
    out_path, err_path = cwd / f".{name}.stdout", cwd / f".{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        op.wall_s = time.perf_counter() - start
    proc.returncode = op.returncode = os.waitstatus_to_exitcode(status)
    op.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    op.stdout = out_path.read_text(encoding="utf-8", errors="replace")
    op.stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return op


def cli(*args) -> list:
    return [sys.executable, "-m", "wfdefend", *map(str, args)]


def generate(spec: Workload, seed: int, out: Path, cwd: Path) -> Op:
    """Write the workload's dataset with `wfdefend synth`; same seed, same bytes."""
    return run_child("synth", cli("synth", "--out", out, "--seed", seed, *spec.synth_args()), cwd)


def check_dataset(spec: Workload, data: Path, synth: Op, reference: Optional[dict]) -> str:
    """Fail the synth op on a wrong dataset; returns the dataset's digest."""
    if synth.returncode != 0 or not data.is_dir():
        raise RuntimeError(f"wfdefend synth failed: {synth.stderr.strip()[-300:]}")
    files = sum(1 for _ in data.iterdir())
    if files != spec.traces:
        synth.problems.append(f"wrote {files} trace files, expected {spec.traces}")
    digest = verify.tree_digest(data)
    if reference is not None and reference.get("data") != digest:
        synth.problems.append("dataset digest differs from the recorded one")
    return digest


def measure_setup(cwd: Path, samples: int) -> list:
    """Fresh interpreters importing the CLI, after one warm-up (the first
    warm-up also writes the bytecode cache), between two calibrations."""
    argv = [sys.executable, "-c", "import wfdefend.cli"]
    run_child("import", argv, cwd)
    before = calibrate(cwd)
    ops = [run_child("import", argv, cwd) for _ in range(samples)]
    after = calibrate(cwd)
    for op in ops:
        op.slowdown = (before + after) / 2 / CALIBRATION_NOMINAL_S[1]
    bad = [op for op in ops if op.returncode != 0]
    if bad:
        raise RuntimeError(f"importing wfdefend.cli failed: {bad[0].stderr.strip()}")
    return ops


def calibrate(cwd: Path, copies: int = 1) -> float:
    """Wall seconds for `copies` concurrent runs of CALIBRATION_JOB, each in
    a fresh interpreter.

    On the shared machine the benchmark was written on, the wall time of
    one command moved by 20% or more from one run to the next, as the CPU
    got faster and slower for stretches of seconds to minutes. The job runs
    before and after every timed child, and the child's time is divided by
    the mean of the two over CALIBRATION_NOMINAL_S. Measured there, the log
    of the job's time correlated 0.8 with the log of the next `eval`'s, and
    the scaling halved the spread of medians over three runs. A command
    that runs on both cores (`--jobs 2`) is calibrated with two concurrent
    copies: they correlated 0.6 with it, one copy 0.3. The raw times are
    kept in the run record.
    """
    argv = [sys.executable, "-I", "-c", CALIBRATION_JOB]
    start = time.perf_counter()
    procs = [subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
             for _ in range(copies)]
    try:
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RuntimeError(f"calibration job exited {codes}")
    return time.perf_counter() - start


def round_commands(spec: Workload, seed: int, data: Path, rnd: Path) -> list:
    """(name, argv) of one round, in run order. Writes the tune space file."""
    # A fixed tune seed: with one or two trials, the sampled parameters
    # would otherwise set most of the command's work.
    tune = ["tune", data, "--trials", spec.tune_trials, "--seed", TUNE_SEED,
            "--log", rnd / "tune.jsonl"]
    if spec.tune_space is not None:
        space = rnd / "space.json"
        space.write_text(json.dumps(spec.tune_space), encoding="utf-8")
        tune += ["--space", space]
    defense = ["--defense", spec.defense, "--seed", seed]
    return [
        ("simulate", cli("simulate", data, "--out", rnd / "sim1", *defense, "--jobs", 1)),
        ("simulate_j2", cli("simulate", data, "--out", rnd / "sim2", *defense, "--jobs", 2)),
        ("overhead", cli("overhead", data, rnd / "sim1", "--out", rnd / "overhead.csv")),
        ("stats", cli("stats", data, "--out", rnd / "stats")),
        ("eval", cli("eval", data, *defense)),
        ("eval_undefended", cli("eval", data, "--seed", seed)),
        ("tune", cli(*tune)),
        # `--jobs 2` depends on both cores and was the least steady command,
        # so each round times it twice, apart.
        ("simulate_j2_again", cli("simulate", data, "--out", rnd / "sim3", *defense, "--jobs", 2)),
    ]


def run_round(spec: Workload, seed: int, data: Path, rnd: Path) -> dict:
    """Run every command of one round in a fresh directory, with the
    calibration job before and after each; name -> Op."""
    if rnd.exists():
        shutil.rmtree(rnd)
    rnd.mkdir(parents=True)
    ops = {}
    last = (0, 0.0)  # (copies, seconds) of the latest calibration
    for name, argv in round_commands(spec, seed, data, rnd):
        copies = 2 if name in TWO_CORE else 1
        before = last[1] if last[0] == copies else calibrate(rnd, copies)
        ops[name] = run_child(name, argv, rnd)
        last = (copies, calibrate(rnd, copies))
        ops[name].slowdown = (before + last[1]) / 2 / CALIBRATION_NOMINAL_S[copies]
    return ops


def recorded_digests(workload: str, seed: int) -> Optional[dict]:
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def check_round(spec, counts: dict, rnd: Path, ops: dict, reference: Optional[dict]) -> dict:
    """Verify a round's outputs, attach problems to the ops that made them and
    return the digest of every output. `reference` holds the digests every
    output must match (recorded ones, or those of the run's first round)."""
    stdout = {name: op.stdout for name, op in ops.items()}
    problems, digests = verify.check_round(spec, TUNE_SEED, counts, rnd, stdout)
    if reference is not None:
        problems += verify.compare_digests(digests, reference)
    for command, text in problems:
        ops[command].problems.append(text)
    return digests


def dataset_shape(data: Path) -> dict:
    packets = [up + down for up, down in verify.original_counts(data).values()]
    return {
        "traces": len(packets),
        "mean_packets_per_trace": statistics.fmean(packets),
        "bytes_on_disk": sum(p.stat().st_size for p in data.iterdir()),
    }


def run_record(spec: Workload, seed: int, data: Path) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "wfdefend").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(),
    ).stdout.strip()
    return {
        "workload": spec.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "dataset": dataset_shape(data),
    }


def timed_metrics(spec: Workload, rounds: list, setup: list, seconds=lambda op: op.nominal_wall_s) -> dict:
    """Medians over the rounds, timing each op by `seconds` (by default its
    wall time at the reference speed). Peak RSS is as measured."""
    by_name = {name: [r[name] for r in rounds] for name in rounds[0]}

    def rate(traces: int, name: str) -> float:
        return statistics.median(traces / seconds(op) for op in by_name[name])

    n = spec.traces
    return {
        "setup_s": statistics.median(seconds(op) for op in setup),
        "simulate_traces_per_s": rate(n, "simulate"),
        "simulate_j2_traces_per_s": statistics.median(
            n / seconds(op) for op in by_name["simulate_j2"] + by_name["simulate_j2_again"]),
        "overhead_traces_per_s": rate(n, "overhead"),
        "stats_traces_per_s": rate(n, "stats"),
        "eval_traces_per_s": rate(n, "eval"),
        "eval_undefended_traces_per_s": rate(n, "eval_undefended"),
        "tune_traces_per_s": rate(n * spec.tune_trials, "tune"),
        "simulate_peak_rss_mb": statistics.median(op.peak_rss_mb for op in by_name["simulate"]),
        "eval_peak_rss_mb": statistics.median(op.peak_rss_mb for op in by_name["eval"]),
    }


def timed_run(spec: Workload, seed: int, seconds: float, work: Path) -> tuple:
    """Returns (ops, metrics with units, record extras)."""
    data = work / "data"
    reference = recorded_digests(spec.name, seed)
    synth = generate(spec, seed, data, work)
    data_digest = check_dataset(spec, data, synth, reference)
    counts = verify.original_counts(data)
    ops = [synth]
    setup = []
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # Start-up samples are spread over the run like the commands are.
        setup += measure_setup(work, SETUP_SAMPLES)
        rnd_ops = run_round(spec, seed, data, work / "round")
        digests = check_round(spec, counts, work / "round", rnd_ops, reference)
        reference = reference or digests
        rounds.append(rnd_ops)
        ops.extend(rnd_ops.values())
    metrics = with_units(timed_metrics(spec, rounds, setup), "end_to_end")
    extras = {"rounds": len(rounds), "digests": dict(digests, data=data_digest),
              "raw_metrics": timed_metrics(spec, rounds, setup, lambda op: op.wall_s),
              "setup_wall_s": [op.wall_s for op in setup],
              "setup_slowdown": [op.slowdown for op in setup],
              "wall_s": {name: [r[name].wall_s for r in rounds] for name in rounds[0]},
              "slowdown": {name: [r[name].slowdown for r in rounds] for name in rounds[0]}}
    return ops, metrics, extras
