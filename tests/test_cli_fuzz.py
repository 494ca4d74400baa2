"""A CLI fuzz: every subcommand, and `simulate` under every preset, on
small hostile trace directories.

Each directory holds 2-6 files: traces with times up to 10**6 s, long gaps
and ties, one-direction traces, NUL bytes, text that is not UTF-8, empty
files, and names that hold `,`, `"`, `=`, tabs or spaces. Its commands run
in one child process, under limits on its address space and CPU seconds,
so that an unbounded command fails the test instead of the machine. Each
command must exit 0, 1 or 2; a failure prints exactly one
`wfdefend: error:` line and no traceback; the input tree stays as it was;
each output is whole or absent; and no output holds more lines than the
slot limits allow. Each example also runs one of `eval`, `overhead`,
`stats` and `tune`, in turn, with its output named inside its input
directory, which must be refused with exit 1.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wfdefend.presets import defense_names
from wfdefend.traces import MAX_SLOTS, UnusableTrace, read_trace

# The child's limits: far above what any command here needs (about 150 MB
# and a few CPU seconds), far below what a runaway command would take.
ADDRESS_SPACE = 2 * 1024**3
CPU_SECONDS = 120

CHILD = """
import contextlib, io, json, resource, sys
address_space, cpu_seconds = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
from wfdefend.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""

TIMES = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, 0.5, 999_999.0, 1e6]),  # ties and the longest gap
)
DIRECTIONS = st.sampled_from([1, -1, 512, -1500])


def _render(packets, separator, style) -> bytes:
    return "".join(f"{style.format(t)}{separator}{d}\n" for t, d in packets).encode()


def _texts(min_size: int):
    """Trace text of min_size to 40 packets, in either direction or in one."""
    both = st.lists(st.tuples(TIMES, DIRECTIONS), min_size=min_size, max_size=40)
    one = st.builds(lambda times, d: [(t, d) for t in times],
                    st.lists(TIMES, min_size=min_size, max_size=40), DIRECTIONS)
    return st.builds(_render, st.one_of(both, one), st.sampled_from(["\t", " ", "  "]),
                     st.sampled_from(["{:.6f}", "{!r}"]))


CONTENTS = st.one_of(
    _texts(0),
    _texts(1).map(lambda text: text.replace(b"\n", b"\0\n", 1)),
    st.binary(max_size=24),  # NUL bytes and text that is not UTF-8
    st.just(b""),
)
NAMES = st.one_of(
    st.builds("{}-{}".format, st.sampled_from("ab"), st.integers(0, 3)),
    # No `.`: a temporary output's name starts with one.
    st.text(st.sampled_from('ab01-,"=\t '), min_size=1, max_size=6),
)


@st.composite
def directories(draw):
    """2-6 files: up to four that `eval` and `tune` could use, two classes
    of two instances, then hostile ones."""
    files = draw(st.dictionaries(st.sampled_from(["a-0", "a-1", "b-0", "b-1"]), _texts(2),
                                 max_size=4))
    files.update(draw(st.dictionaries(NAMES, CONTENTS, min_size=max(0, 2 - len(files)),
                                      max_size=6 - len(files))))
    return files


# The most lines that each output may hold, from the code's limits, with
# M = MAX_SLOTS and p the packets of the input trace. A defended trace has
# at most 2p + 4M: the regulator sends p real packets, at most N <= M
# download dummies, at most M upload slots before the surge, and at most
# one upload slot per download slot, of which there are at most p + 2M
# (real, dummy and at most M silent past the budget); Tamaraw pads each
# direction to at most (M + 1) + (L - 1) <= 2M slots, and FRONT adds
# N_s + N_c <= 2M dummies. A synth trace is two surges of at most M
# packets. A table has a header and at most one row per usable trace, or
# M per usable trace for the per-second rows (each trace ends before
# second M) and the decay bins (whole seconds below M, pooled).
def _defended_lines(packets: int) -> int:
    return 2 * packets + 4 * MAX_SLOTS


SYNTH_LINES = 2 * MAX_SLOTS


def _usable(data: Path) -> dict[str, int]:
    """The packet count of each trace in `data` that the commands use."""
    packets = {}
    for path in data.iterdir():
        try:
            packets[path.name] = len(read_trace(path))
        except UnusableTrace:
            pass
    return packets


def _tree(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def _commands(data: Path, out: Path, reference: float, target: float, synth: tuple):
    """(argv, outputs) of every command on `data`, writing under `out`; an
    output is (path, the line limit of the file of each name)."""
    fuzz = ["--seed", "0", "--folds", "2", "--k", "1"]
    classes, instances, base_total, step = synth
    packets = _usable(data)
    row = lambda name: 1 + len(packets)
    per_second = lambda name: 1 + MAX_SLOTS * len(packets)
    defended = lambda name: _defended_lines(packets[name])
    tables = out / "tables" / "fig"
    commands = [
        (["stats", str(data)], []),
        (["stats", str(data), "--out", str(tables)],
         [(Path(f"{tables}_per_second.csv"), per_second), (Path(f"{tables}_traces.csv"), row),
          (Path(f"{tables}_decay.csv"), per_second)]),
        (["eval", str(data), *fuzz], []),
        (["eval", str(data), *fuzz, "--defense", "tamaraw", "--features-out", f"{out}/f.csv"],
         [(out / "f.csv", row)]),
        (["tune", str(data), "--trials", "1", *fuzz, "--log", f"{out}/trials.jsonl"], []),
        (["adjust", "--preset", "regulator-light", "--reference", str(reference),
          "--target", str(target)], []),
        (["synth", "--out", f"{out}/synth", "--seed", "0", f"--classes={classes}",
          f"--instances={instances}", f"--base-total={base_total}", f"--step={step}"],
         [(out / "synth", lambda name: SYNTH_LINES)]),
    ]
    for preset in defense_names():
        commands.append((
            ["simulate", str(data), "--defense", preset, "--seed", "0", "--out", f"{out}/{preset}"],
            [(out / preset, defended), (out / f"{preset}.overhead.csv", row)],
        ))
        commands.append((
            ["overhead", str(data), f"{out}/{preset}", "--out", f"{out}/{preset}.csv"],
            [(out / f"{preset}.csv", row)],
        ))
    return commands


# The commands whose output is named inside their input directory, one per
# example in turn, as (argv, the name of that output in the input). A cycle,
# not a drawn value, so that ten examples run each command at least twice.
INSIDE = itertools.cycle([
    (["eval", "{data}", "--seed", "0", "--folds", "2", "--k", "1",
      "--features-out", "{data}/f.csv"], "f.csv"),
    (["overhead", "{data}", "{out}/tamaraw", "--out", "{data}/o.csv"], "o.csv"),
    (["stats", "{data}", "--out", "{data}/fig"], "fig_per_second.csv"),
    (["tune", "{data}", "--trials", "1", "--seed", "0", "--log", "{data}/t.jsonl"], "t.jsonl"),
])


def _assert_whole(path: Path, limit) -> None:
    """A CSV output ends in a newline and has its header's field count in
    every row; a directory output holds only whole files; and no file holds
    more than `limit(its name)` lines."""
    if path.is_dir():
        for child in path.iterdir():
            assert child.is_file() and not child.name.startswith("."), child
            assert child.read_bytes().count(b"\n") <= limit(child.name), child
        return
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n"), path
    header, *rows = text.splitlines()
    assert all(row.count(",") == header.count(",") for row in rows), path
    assert 1 + len(rows) <= limit(path.name), path


@settings(
    max_examples=10, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    directory=directories(),
    reference=st.floats(allow_nan=True, allow_infinity=True),
    target=st.floats(0.5, 1e6),
    synth=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 300), st.integers(0, 9)),
)
def test_every_command_exits_cleanly_and_leaves_whole_outputs(
    tmp_path_factory, directory, reference, target, synth
):
    root = tmp_path_factory.mktemp("fuzz")
    data, out = root / "data", root / "out"
    data.mkdir()
    out.mkdir()
    for name, content in directory.items():
        (data / name).write_bytes(content)
    before = _tree(data)
    commands = _commands(data, out, reference, target, synth)
    template, name = next(INSIDE)
    inside = [arg.format(data=data, out=out) for arg in template]
    commands.append((inside, [(data / name, None)]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(CPU_SECONDS)],
        input=json.dumps([argv for argv, _ in commands]), capture_output=True, text=True,
        env=env, timeout=4 * CPU_SECONDS,
    )
    assert child.returncode == 0, child.stderr
    for (argv, outputs), (code, err) in zip(commands, json.loads(child.stdout), strict=True):
        assert code in ((1,) if argv is inside else (0, 1, 2)), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        errors = [line for line in err.splitlines() if line.startswith("wfdefend: error:")]
        assert len(errors) == (code != 0), (argv, err)
        for path, limit in outputs:
            if code == 0:
                _assert_whole(path, limit)
            else:
                assert not path.exists(), (argv, path)
        if argv[0] == "tune" and (out / "trials.jsonl").exists():
            lines = (out / "trials.jsonl").read_text(encoding="utf-8").splitlines(True)
            assert len(lines) <= 1, lines  # one line per trial
            for line in lines:
                assert line.endswith("\n") and json.loads(line), line
    assert _tree(data) == before
    # No temporary file or staging directory is left behind.
    assert sorted(os.listdir(root)) == ["data", "out"]
    for _, dirs, files in os.walk(out):
        assert not [name for name in dirs + files if name.startswith(".")]
