"""Byte-identity floor: every subcommand over every preset it accepts.

Builds a tiny synthetic dataset, runs each command in process, and
compares the SHA-256 of each stdout and each output file (a directory
counts as one output: its file names and bytes in name order) with the
table in `output_digests.json`. Temporary paths in stdout are replaced
by `<tmp>` before hashing.

The table was recorded with the numpy version it names; floating-point
results may differ under another. To record it again after a change
that is meant to change outputs (and say which output and why):

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from wfdefend.cli import main
from wfdefend.presets import PRESETS, REGULATOR_PRESETS

TABLE = Path(__file__).with_name("output_digests.json")

SYNTH = [
    "--classes", "4", "--instances", "3", "--seed", "5", "--base-total", "300", "--step", "20",
]
SYNTH_SKEWED = [
    "--classes", "2", "--instances", "2", "--seed", "6", "--base-total", "60", "--step", "10",
    "--upload-fraction", "0.35", "--jitter", "0.05",
]


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for item in sorted(path.iterdir()):
            h.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _defenses() -> list[tuple[str, list[str]]]:
    """(label, --defense argv) of every preset, plus a regulator override."""
    runs = [(name, ["--defense", name]) for name in sorted(PRESETS)]
    override = ["--defense", "regulator-light", "--U", "5", "--N", "300"]
    return runs + [("regulator-light --U 5 --N 300", override)]


def record(root: Path) -> dict[str, str]:
    """`{"<command>: <output>": sha256}` of every run, made under `root`."""
    table: dict[str, str] = {}

    def run(label: str, argv: list[str], outputs: dict[str, Path]) -> None:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, f"{label} exited {code}"
        text = stdout.getvalue().replace(str(root), "<tmp>")
        table[f"{label}: stdout"] = hashlib.sha256(text.encode()).hexdigest()
        for name, path in outputs.items():
            table[f"{label}: {name}"] = _digest(path)

    data = root / "data"
    run("synth", ["synth", "--out", str(data), *SYNTH], {"out": data})
    skewed = root / "skewed"
    run("synth skewed", ["synth", "--out", str(skewed), *SYNTH_SKEWED], {"out": skewed})
    run("stats", ["stats", str(data), "--out", str(root / "st")], {
        suffix: root / f"st_{suffix}.csv" for suffix in ("per_second", "traces", "decay")
    })
    features = root / "features.csv"
    run("eval undefended", ["eval", str(data), "--folds", "3", "--seed", "3",
                            "--features-out", str(features)], {"features": features})

    for i, (label, defense) in enumerate(_defenses()):
        for jobs in ("1", "2"):
            out = root / f"def{i}-{jobs}"
            run(f"simulate {label} --jobs {jobs}",
                ["simulate", str(data), "--out", str(out), *defense, "--seed", "7",
                 "--jobs", jobs],
                {"out": out, "report": root / f"def{i}-{jobs}.overhead.csv"})
        csv = root / f"overhead{i}.csv"
        run(f"overhead {label}", ["overhead", str(data), str(root / f"def{i}-1"),
                                  "--out", str(csv)], {"out": csv})
        run(f"eval {label}", ["eval", str(data), *defense, "--folds", "3", "--seed", "3",
                              "--features-out", str(features)], {"features": features})

    log = root / "trials.jsonl"
    run("tune --trials 2", ["tune", str(data), "--trials", "2", "--seed", "4", "--folds", "3",
                            "--log", str(log)],
        {"log": log, "fingerprint": root / "trials.jsonl.fingerprint.json"})
    for name in sorted(REGULATOR_PRESETS):
        run(f"adjust {name}", ["adjust", "--preset", name, "--reference", "2000",
                               "--target", "1300"], {})
    run("adjust regulator-heavy --C 3", ["adjust", "--preset", "regulator-heavy", "--C", "3",
                                         "--reference", "2000", "--target", "1300"], {})
    return table


def test_every_command_and_preset_writes_the_recorded_bytes(tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    recorded_with = expected.pop("numpy")
    observed = record(tmp_path)
    assert sorted(observed) == sorted(expected), "the table lists other runs than the test makes"
    for key, digest in expected.items():
        assert observed[key] == digest, (
            f"{key} differs from the bytes recorded with numpy {recorded_with} "
            f"(numpy {np.__version__} here)"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {"numpy": np.__version__, **record(Path(tmp))}
    print(json.dumps(table, indent=1))
