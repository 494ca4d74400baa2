"""Output checks behind the benchmark's failed-operation count.

A command counts as failed when it exits non-zero or when any of these
checks finds a problem in what it wrote:

- Both `simulate --jobs 2` runs write the same bytes as `--jobs 1`.
- Every defended file holds only `R`/`D` lines, and its `R` lines carry the
  original trace's per-direction packet counts.
- `overhead` prints the same aggregate lines as `simulate` (minus
  `report=`), and its per-trace CSV rows match simulate's, each value to
  one unit in the sixth decimal: simulate measures from in-memory times,
  overhead from the microsecond-quantized files. (At the seed commit,
  `mean_estimated_latency_overhead` differs in that digit on some seeds.)
- `stats`, `eval` and `tune` print the shape of output the dataset implies.
- Every output matches its recorded SHA-256 digest (bench/digests.json,
  recorded from the seed commit) when one exists for the workload and
  seed, and otherwise the digest of the run's first round.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CSV_TOLERANCE = 1.0000001e-6

# Output -> the command that wrote it.
OWNERS = {
    "data": "synth",
    "sim1": "simulate",
    "sim1.overhead.csv": "simulate",
    "simulate.stdout": "simulate",
    "overhead.stdout": "overhead",
    "overhead.csv": "overhead",
    "stats.stdout": "stats",
    "stats_traces.csv": "stats",
    "stats_decay.csv": "stats",
    "stats_per_second.csv": "stats",
    "eval.stdout": "eval",
    "eval_undefended.stdout": "eval_undefended",
    "tune.stdout": "tune",
    "tune.jsonl": "tune",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(path: Path) -> str:
    """Digest of a directory's file names and contents."""
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode("utf-8") + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def strip_report(stdout: str) -> str:
    """simulate's stdout without the `report=` line, which names a path."""
    return "".join(line + "\n" for line in stdout.splitlines() if not line.startswith("report="))


def original_counts(data: Path) -> dict:
    """(upload, download) packet counts of every undefended trace file."""
    counts = {}
    for path in sorted(data.iterdir()):
        up = down = 0
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if fields:
                if float(fields[1]) > 0:
                    up += 1
                else:
                    down += 1
        counts[path.name] = (up, down)
    return counts


def check_defended(counts: dict, out: Path) -> list:
    names = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if names != sorted(counts):
        return [f"{out.name}: wrote {len(names)} files for {len(counts)} traces"]
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        real = (text.count("\t1\tR\n"), text.count("\t-1\tR\n"))
        dummies = text.count("\t1\tD\n") + text.count("\t-1\tD\n")
        if sum(real) + dummies != text.count("\n") or not text.endswith("\n"):
            return [f"{out.name}/{name}: a line is not `time<TAB>±1<TAB>R|D`"]
        if real != counts[name]:
            return [f"{out.name}/{name}: real (up, down) {real} != original {counts[name]}"]
    return []


def compare_overhead_csv(expected: str, got: str) -> list:
    a, b = expected.splitlines(), got.splitlines()
    if len(a) != len(b) or a[:1] != b[:1]:
        return [f"overhead CSV has {len(b)} lines, simulate's {len(a)}"]
    for row_a, row_b in zip(a[1:], b[1:]):
        fa, fb = row_a.split(","), row_b.split(",")
        if len(fa) != len(fb) or fa[:3] != fb[:3] or not all(
            close(x, y) for x, y in zip(fa[3:], fb[3:])
        ):
            return [f"overhead CSV row {row_b!r} != simulate's {row_a!r}"]
    return []


def num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


def close(a: str, b: str) -> bool:
    return abs(num(a) - num(b)) <= CSV_TOLERANCE


def same_values(expected: dict, got: dict) -> bool:
    """Same keys, `traces` equal, every other value within CSV_TOLERANCE."""
    return (expected.keys() == got.keys() and bool(expected)
            and expected.get("traces") == got.get("traces")
            and all(close(value, got[key]) for key, value in expected.items()))


def seed_of(line: str):
    try:
        return json.loads(line)["master_seed"]
    except (ValueError, KeyError, TypeError):
        return None


def kv(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.is_file() else ""


def check_round(spec, tune_seed: int, counts: dict, rnd: Path, stdout: dict) -> tuple:
    """Check one round's outputs against the dataset's per-trace (upload,
    download) counts. Returns ([(command, problem)], {output: digest})."""
    problems = []
    n = len(counts)

    def expect(command: str, ok: bool, text: str):
        if not ok:
            problems.append((command, text))

    sim1 = rnd / "sim1"
    for text in check_defended(counts, sim1):
        problems.append(("simulate", text))
    for command, out in (("simulate_j2", "sim2"), ("simulate_j2_again", "sim3")):
        same = (sim1.is_dir() and (rnd / out).is_dir() and tree_digest(sim1) == tree_digest(rnd / out)
                and read(rnd / "sim1.overhead.csv") == read(rnd / f"{out}.overhead.csv")
                and strip_report(stdout["simulate"]) == strip_report(stdout[command]))
        expect(command, same, "--jobs 2 output differs from --jobs 1")
    sim_kv = strip_report(stdout["simulate"])
    expect("simulate", kv(sim_kv).get("traces") == str(n), f"simulate reported {kv(sim_kv).get('traces')} traces")

    expect("overhead", same_values(kv(sim_kv), kv(stdout["overhead"])), "aggregate lines differ from simulate's")
    for text in compare_overhead_csv(read(rnd / "sim1.overhead.csv"), read(rnd / "overhead.csv")):
        problems.append(("overhead", text))

    stats = kv(stdout["stats"])
    mean = sum(up + down for up, down in counts.values()) / n
    expect("stats", stats.get("traces") == str(n) and stats.get("skipped_files") == "0",
           f"stats reported traces={stats.get('traces')} skipped={stats.get('skipped_files')}")
    expect("stats", abs(num(stats.get("mean_packet_count")) - mean) <= 5e-7,
           f"stats mean_packet_count {stats.get('mean_packet_count')} != {mean:.6f}")
    expect("stats", read(rnd / "stats_traces.csv").count("\n") == n + 1, "stats_traces.csv row count")

    for command in ("eval", "eval_undefended"):
        values = kv(stdout[command])
        classes = [k for k in values if k.startswith("class_")]
        accuracy = num(values.get("accuracy"))
        expect(command, 0.0 <= accuracy <= 1.0 and values.get("folds") == "10"
               and len(classes) == spec.classes, f"{command} printed {stdout[command][:80]!r}")

    log = read(rnd / "tune.jsonl").splitlines()
    expect("tune", len(stdout["tune"].splitlines()) == 1 + spec.tune_trials and len(log) == spec.tune_trials
           and all(seed_of(line) == tune_seed for line in log),
           f"tune wrote {len(log)} log lines for {spec.tune_trials} trials")

    return problems, digest_outputs(rnd, stdout)


def digest_outputs(rnd: Path, stdout: dict) -> dict:
    """SHA-256 of every output in OWNERS but the dataset."""
    digests = {"sim1": tree_digest(rnd / "sim1") if (rnd / "sim1").is_dir() else ""}
    for name in OWNERS:
        if name.endswith(".stdout"):
            text = stdout[name[: -len(".stdout")]]
            digests[name] = sha256((strip_report(text) if name == "simulate.stdout" else text).encode())
        elif name not in digests and name != "data":
            digests[name] = sha256(read(rnd / name).encode())
    return digests


def compare_digests(digests: dict, reference: dict) -> list:
    return [(OWNERS[name], f"{name} digest differs from the recorded one")
            for name, value in digests.items() if name in reference and reference[name] != value]
