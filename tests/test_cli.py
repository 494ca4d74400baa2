import concurrent.futures
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import wfdefend
from wfdefend import cli, metrics, regulator, stats, synth, traces
from wfdefend.cli import main
from wfdefend.traces import read_trace, write_trace

from helpers import listing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_synth_dataset(capsys, out_dir, classes=3, instances=4, seed=9):
    code, _, err = run(
        capsys,
        "synth",
        "--out",
        str(out_dir),
        "--classes",
        str(classes),
        "--instances",
        str(instances),
        "--seed",
        str(seed),
        "--base-total",
        "40",
        "--step",
        "10",
    )
    assert code == 0, err


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestSimulate:
    def test_writes_defended_files_and_summary(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out = tmp_path / "defended"
        code, stdout, err = run(
            capsys, "simulate", str(data), "--out", str(out),
            "--defense", "regulator-heavy", "--seed", "7",
        )
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in data.iterdir()
        )
        assert "mean_bandwidth_overhead=" in stdout
        assert (tmp_path / "defended.overhead.csv").is_file()

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            code, _, err = run(
                capsys, "simulate", str(data), "--out", str(out),
                "--defense", "front-2500", "--seed", "3",
            )
            assert code == 0, err
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        for out, jobs in ((out1, "1"), (out2, "2")):
            code, _, err = run(
                capsys, "simulate", str(data), "--out", str(out),
                "--defense", "regulator-light", "--seed", "3", "--jobs", jobs,
            )
            assert code == 0, err
        assert tree_bytes(out1) == tree_bytes(out2)

    @pytest.mark.parametrize("out", ["data", "data/", "link"])
    def test_out_that_is_the_input_is_usage_error(self, capsys, tmp_path, out):
        # `simulate data --out data` once replaced every recorded trace with
        # its defended schedule and exited 0.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (tmp_path / "link").symlink_to(data, target_is_directory=True)
        before = tree_bytes(data), sorted(p.name for p in tmp_path.iterdir())
        code, stdout, err = run(
            capsys, "simulate", str(data), "--out", f"{tmp_path}/{out}",
            "--defense", "front-2500", "--seed", "3",
        )
        assert code == 1
        assert stdout == ""
        assert f"cannot write {Path(tmp_path, out)}: it is the input {data}" in err
        assert (tree_bytes(data), sorted(p.name for p in tmp_path.iterdir())) == before

    @pytest.mark.parametrize("out, refused", [
        ("data/def", "data/def"),
        ("data/a/b", "data/a/b"),
        ("link/def", "link/def"),
        # A link in the input that leads out of it: the rename that puts the
        # output in place would replace the link itself.
        ("data/away", "data/away"),
    ])
    def test_out_inside_the_input_is_usage_error(self, capsys, tmp_path, out, refused):
        # `simulate data --out data/def` once wrote data/def/ and
        # data/def.overhead.csv, which every later command on data then read.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (tmp_path / "link").symlink_to(data, target_is_directory=True)
        (tmp_path / "elsewhere").mkdir()
        (data / "away").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        before = listing(tmp_path)
        code, stdout, err = run(
            capsys, "simulate", str(data), "--out", f"{tmp_path}/{out}",
            "--defense", "front-2500", "--seed", "3",
        )
        assert code == 1
        assert stdout == ""
        assert f"cannot write {tmp_path}/{refused}: it lies inside the input {data}" in err
        assert listing(tmp_path) == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path, jobs):
        # Both once ran serially and exited 0.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, stdout, err = run(
            capsys, "simulate", str(data), "--out", str(tmp_path / "out"),
            "--defense", "tamaraw", "--jobs", jobs,
        )
        assert code == 1
        assert f"--jobs must be >= 1, got {jobs}" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("jobs, cpus, workers", [
        ("64", 3, [3]), ("2", 3, [2]), ("2", 1, []), ("1", 3, []),
    ])
    def test_pool_never_outnumbers_the_usable_cpus(
        self, capsys, tmp_path, monkeypatch, jobs, cpus, workers
    ):
        # The pool forks all its workers at the first task, so it is counted
        # by a stand-in that maps serially, never by starting one.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        # `simulate` imports the pool class from its module when it makes a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        outputs = {}
        for name, argv_jobs in (("serial", "1"), ("pooled", jobs)):
            code, _, err = run(
                capsys, "simulate", str(data), "--out", str(tmp_path / name),
                "--defense", "regulator-light", "--seed", "3", "--jobs", argv_jobs,
            )
            assert code == 0, err
            outputs[name] = tree_bytes(tmp_path / name)
        assert started == workers
        assert outputs["pooled"] == outputs["serial"]

    def test_only_reports_cross_the_pool(self, capsys, tmp_path, monkeypatch):
        # The workers write the defended files where they make them; what a
        # task sends back to the parent is one report per usable file.
        crossed = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                assert fn.func is traces._read_chunk
                for outcomes, error in map(fn, *iterables):
                    crossed.extend(result for result, why in outcomes if why is None)
                    yield outcomes, error

        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=3, instances=8)
        (data / "0-9").write_text("")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        for name, jobs in (("serial", "1"), ("pooled", "2")):
            code, _, err = run(
                capsys, "simulate", str(data), "--out", str(tmp_path / name),
                "--defense", "tamaraw", "--jobs", jobs,
            )
            assert code == 0, err
        assert len(crossed) == 24
        assert all(isinstance(result, metrics.OverheadReport) for result in crossed)
        assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "serial")

    def test_a_real_pool_writes_what_one_process_writes(self, capsys, tmp_path, monkeypatch):
        # 40 files over three chunks: canonical ones, a CRLF one, one whose
        # 9-decimal times spoil its run, and an empty one and a name the
        # outputs cannot carry, which are skipped.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=19)
        lines = (data / "0-3").read_text().splitlines()
        (data / "0-3").write_text(
            "".join(f"{float(t):.9f}\t{d}\n" for t, d in (line.split("\t") for line in lines))
        )
        (data / "1-7").write_bytes((data / "1-7").read_bytes().replace(b"\n", b"\r\n"))
        (data / "0-99").write_text("")
        (data / "1,x-0").write_bytes((data / "1-0").read_bytes())
        assert len(os.listdir(data)) == 40 > 2 * traces.CHUNK_FILES
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        outputs = {}
        for jobs in ("1", "2"):
            # Relative --out paths, so that the `report=` lines compare too.
            work = tmp_path / f"jobs{jobs}"
            work.mkdir()
            monkeypatch.chdir(work)
            code, stdout, err = run(
                capsys, "simulate", str(data), "--out", "defended",
                "--defense", "regulator-light", "--seed", "3", "--jobs", jobs,
            )
            assert code == 0, err
            outputs[jobs] = (
                tree_bytes(work / "defended"), (work / "defended.overhead.csv").read_bytes(),
                stdout, err,
            )
        assert outputs["2"] == outputs["1"]
        files, _, stdout, err = outputs["1"]
        assert len(files) == 38
        assert stdout.endswith("report=defended.overhead.csv\n")
        assert err.count("skipping ") == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_defense_error_in_a_chunk_comes_after_the_files_before_it(
        self, capsys, tmp_path, monkeypatch, jobs
    ):
        # A chunk of files is one task; a pool sends back its results up to
        # the error, which is raised where reading one file at a time would.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=10)
        (data / "0-10").write_text("0.0\t1\n")
        (data / "0-5").write_text("0.0\t1\n20000.0\t-1\n")
        (data / "1-10").write_text("")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "defended"
        code, stdout, err = run(
            capsys, "simulate", str(data), "--out", str(out), "--defense", "tamaraw", "--jobs", jobs
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"skipping {data / '0-10'}: zero duration, 1 packet(s)\n"
            "wfdefend: error: 0-5: Tamaraw needs more than 1000000 download slots "
            "to reach the last packet at 20000.0 s\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["data"]

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_unknown_defense_is_usage_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(tmp_path / "x"),
            "--defense", "nosuch", "--seed", "1",
        )
        assert code == 1
        assert "nosuch" in err

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(tmp_path / "x"),
            "--defense", "regulator-heavy",
        )
        assert code == 1
        assert "--seed" in err

    def test_tamaraw_needs_no_seed(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(tmp_path / "t"),
            "--defense", "tamaraw",
        )
        assert code == 0, err

    def test_unreadable_input_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", str(tmp_path / "missing"), "--out",
            str(tmp_path / "x"), "--defense", "tamaraw",
        )
        assert code == 2
        assert "error" in err

    def test_non_finite_time_is_prompt_data_error(self, capsys, tmp_path):
        # A download packet at inf once kept the slot clock running forever.
        data = tmp_path / "data"
        data.mkdir()
        rows = "".join(f"0.{i}\t-1\n" for i in range(10))
        (data / "0-0").write_text(rows + "inf\t-1\n")
        start = time.monotonic()
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(tmp_path / "x"),
            "--defense", "regulator-heavy", "--seed", "1",
        )
        assert code == 2
        assert "0-0: line 11: non-finite time" in err
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_data_error_leaves_out_dir_as_it_was(self, capsys, tmp_path, jobs):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (data / "9-9").write_text("0\t-1\n1e8\t-1\n")  # sorts last; past the slot limit
        out = tmp_path / "out"
        out.mkdir()  # an existing output directory must be empty
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(out),
            "--defense", "tamaraw", "--jobs", jobs,
        )
        assert code == 2
        assert "error: 9-9: Tamaraw needs more than 1000000 download slots" in err
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "out"]

    def test_out_and_its_missing_parents_are_created_only_on_success(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (data / "9-9").write_text("0\t-1\n1e8\t-1\n")  # past the slot limit
        argv = ["simulate", str(data), "--out", str(tmp_path / "a" / "b" / "out"),
                "--defense", "tamaraw"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error: 9-9: Tamaraw needs more than" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]
        (data / "9-9").unlink()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        parent = tmp_path / "a" / "b"
        assert sorted(p.name for p in parent.iterdir()) == ["out", "out.overhead.csv"]
        assert len(list((parent / "out").iterdir())) == 12

    def test_slot_clock_that_cannot_advance_is_data_error(self, capsys, tmp_path):
        # At --R 1e20 the slot gap is lost in rounding; the run once never
        # ended and left its staging directory behind when killed.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        env = {**os.environ, "PYTHONPATH": str(Path(wfdefend.__file__).parents[1])}
        runs = {
            "simulate": ["--out", str(tmp_path / "out")],
            "eval": ["--folds", "3"],
        }
        for command, extra in runs.items():
            result = subprocess.run(
                [sys.executable, "-m", "wfdefend", command, str(data), *extra,
                 "--defense", "regulator-heavy", "--seed", "1", "--R", "1e20"],
                capture_output=True, text=True, env=env, timeout=15,
            )
            assert result.returncode == 2, result.stderr
            assert "too small to advance the slot clock" in result.stderr
            if command == "simulate":
                assert "error: 0-0: slot gap" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_creeping_slot_clock_hits_the_silent_slot_limit(self, tmp_path):
        # At --R 1e20 from slot 0 the gap 1e-20 s still moves the clock, so
        # after the budget's dummies about 1e17 silent slots would pass
        # before the download at 1 ms.
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text("0\t-1\n" * 10 + "0.001\t-1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(wfdefend.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "wfdefend", "simulate", str(data), "--out",
             str(tmp_path / "out"), "--defense", "regulator-heavy", "--seed", "1",
             "--R", "1e20"],
            capture_output=True, text=True, env=env, timeout=15,
        )
        assert result.returncode == 2, result.stderr
        assert "error: 0-0: more than 1000000 silent download slots" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("defense, text, message", [
        ("regulator-heavy", "0\t-1\n" * 9 + "1e8\t-1\n100000001\t-1\n", "the upload prelude"),
        ("tamaraw", "0\t-1\n1e8\t-1\n", "Tamaraw needs more than 1000000 download slots"),
    ])
    def test_slot_limit_is_data_error_naming_the_file(
        self, capsys, tmp_path, defense, text, message
    ):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (data / "9-9").write_text(text)
        code, _, err = run(capsys, "simulate", str(data), "--out", str(tmp_path / "out"),
                           "--defense", defense, "--seed", "1")
        assert code == 2
        assert f"error: 9-9: {message}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]
        (data / "9-9").rename(data / "0-9")  # a fifth instance of class 0
        code, _, err = run(capsys, "eval", str(data), "--defense", defense, "--seed", "1",
                           "--folds", "3")
        assert code == 2
        assert f"error: 0-9: {message}" in err

    def test_parameter_override(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", str(data), "--out", str(out1),
            "--defense", "regulator-heavy", "--seed", "5")
        run(capsys, "simulate", str(data), "--out", str(out2),
            "--defense", "regulator-heavy", "--seed", "5", "--N", "0")
        assert tree_bytes(out1) != tree_bytes(out2)


class TestOverhead:
    def test_matches_simulate_report(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out = tmp_path / "defended"
        code, sim_out, _ = run(
            capsys, "simulate", str(data), "--out", str(out),
            "--defense", "regulator-heavy", "--seed", "7",
        )
        assert code == 0
        code, ovh_out, err = run(capsys, "overhead", str(data), str(out))
        assert code == 0, err
        sim = dict(l.split("=") for l in sim_out.splitlines() if "=" in l and "," not in l)
        ovh = dict(l.split("=") for l in ovh_out.splitlines() if "=" in l)
        # Bandwidth survives the disk round trip exactly; latency only up to
        # the microsecond quantization of send times.
        assert ovh["aggregate_bandwidth_overhead"] == sim["aggregate_bandwidth_overhead"]
        assert abs(
            float(ovh["mean_latency_overhead"]) - float(sim["mean_latency_overhead"])
        ) < 1e-4

    def test_degenerate_trace_skipped_but_names_stay_aligned(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text("0.0\t1\n1.0\t-1\n")
        (data / "0-1").write_text("0.0\t1\n")  # zero duration, skipped in report
        (data / "1-0").write_text("0.0\t1\n2.0\t-1\n")
        out = tmp_path / "defended"
        run(capsys, "simulate", str(data), "--out", str(out), "--defense", "tamaraw")
        report = tmp_path / "report.csv"
        code, _, err = run(
            capsys, "overhead", str(data), str(out), "--out", str(report)
        )
        assert code == 0, err
        rows = report.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0-0", "1-0"]

    def test_missing_defended_file_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "0-0").write_text("0.000000\t1\tR\n")
        code, _, err = run(capsys, "overhead", str(data), str(empty))
        assert code == 2

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"x y\n", "line 1: "),
            (b"\xff\n", "'utf-8' codec can't decode"),
            (b"0.0\t-1\tR\n", "missing real upload packets"),
        ],
        ids=["malformed", "not-utf8", "schedule-mismatch"],
    )
    def test_bad_defended_file_is_data_error_naming_it(self, capsys, tmp_path, content, reason):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        out = tmp_path / "defended"
        code, _, err = run(capsys, "simulate", str(data), "--out", str(out), "--defense", "tamaraw")
        assert code == 0, err
        (out / "1-2").write_bytes(content)
        code, stdout, err = run(capsys, "overhead", str(data), str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"wfdefend: error: {out / '1-2'}: ")
        assert reason in err

    @pytest.mark.parametrize("bad", ["parse", "missing", "directory", "not-utf8"])
    def test_bad_defended_file_in_a_chunk_fails_after_the_files_before_it(
        self, capsys, tmp_path, bad
    ):
        # The defended files of a chunk of originals are read, and then
        # parsed, together; the error and the warnings before it are still
        # those of reading one pair at a time.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=10)
        out = tmp_path / "defended"
        code, _, err = run(capsys, "simulate", str(data), "--out", str(out), "--defense", "tamaraw")
        assert code == 0, err
        # In filename order the first chunk is 0-0, 0-1, 0-10, 0-2, ..., 1-3.
        (data / "0-10").write_text("0.0\t1\n")
        (data / "1-10").write_text("")
        target = out / "0-5"
        lines = target.read_text().splitlines(keepends=True)
        if bad == "parse":
            target.write_text("".join(lines[:2] + ["x\t1\tR\n"] + lines[3:]))
            reason = f"{target}: line 3: non-numeric time field 'x'"
        elif bad in ("missing", "directory"):
            target.unlink()
            if bad == "directory":
                target.mkdir()
            reason = f"no defended trace for 0-5 in {out}"
        else:
            target.write_bytes(b"\xff" + "".join(lines).encode())
            reason = (f"{target}: 'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte")
        code, stdout, err = run(capsys, "overhead", str(data), str(out))
        assert code == 2
        assert stdout == ""
        assert err == (
            f"skipping {data / '0-10'}: zero duration, 1 packet(s)\n"
            f"wfdefend: error: {reason}\n"
        )

    def test_memory_does_not_grow_with_the_trace_count(self, capsys, tmp_path):
        # Originals of about 2,000 packets each. Every original was once
        # read before the first defended file was matched, and 32 of them
        # then peaked at 2.25 times the memory of 4.
        def peak(instances):
            data, defended = tmp_path / f"data{instances}", tmp_path / f"defended{instances}"
            code, _, err = run(
                capsys, "synth", "--out", str(data), "--classes", "2", "--instances",
                str(instances), "--seed", "1", "--base-total", "2000", "--step", "10",
            )
            assert code == 0, err
            code, _, err = run(
                capsys, "simulate", str(data), "--out", str(defended), "--defense", "tamaraw"
            )
            assert code == 0, err
            tracemalloc.start()
            try:
                code, stdout, err = run(capsys, "overhead", str(data), str(defended))
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, err
            assert f"traces={2 * instances}\n" in stdout
            return used

        assert peak(16) <= 1.5 * peak(2)


class TestStats:
    def test_prints_summary_and_tables(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        prefix = tmp_path / "tables" / "fig"
        code, stdout, err = run(capsys, "stats", str(data), "--out", str(prefix))
        assert code == 0, err
        assert "median_time_iqr=" in stdout
        assert Path(f"{prefix}_traces.csv").is_file()
        assert Path(f"{prefix}_decay.csv").is_file()
        assert Path(f"{prefix}_per_second.csv").is_file()

    def test_out_bytes_are_pinned(self, capsys, tmp_path):
        # Mixed directions with tied times; 0-1 has fewer than ten
        # downloads, 1-0 is a single packet and so skipped, 1-1 starts at
        # 10 s in its file and has an empty second.
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text(
            "0.0\t1\n0.0\t-1\n0.1\t-1\n0.1\t-1\n0.25\t1\n0.3\t-1\n0.5\t-1\n"
            "0.5\t-1\n0.5\t-1\n0.9\t-1\n1.0\t-1\n1.0\t1\n1.2\t-1\n1.7\t-1\n"
            "2.0\t-1\n2.5\t1\n3.1\t-1\n3.75\t-1\n"
        )
        (data / "0-1").write_text("0.0\t1\n0.4\t-1\n0.4\t-1\n1.5\t1\n2.2\t-1\n")
        (data / "1-0").write_text("0.0\t-1\n")
        (data / "1-1").write_text(
            "10.0\t-1\n10.0\t-1\n10.0\t1\n10.25\t-1\n10.5\t-1\n10.5\t-1\n"
            "10.5\t1\n11.0\t-1\n11.0\t-1\n11.5\t-1\n12.0\t1\n12.0\t-1\n"
            "12.75\t-1\n13.5\t-1\n15.5\t-1\n"
        )
        prefix = tmp_path / "tables" / "fig"
        code, stdout, err = run(capsys, "stats", str(data), "--out", str(prefix))
        assert code == 0, err
        assert stdout == (
            "traces=3\n"
            "skipped_files=1\n"
            "median_time_iqr=1.312500\n"
            "mean_packet_count=12.666667\n"
            "mean_duration=3.816667\n"
            "download_upload_ratio=3.222222\n"
            "post_tenth_median_offset=1.350000\n"
            "post_tenth_skipped_traces=1\n"
        )
        assert Path(f"{prefix}_traces.csv").read_text() == (
            "name,packet_count,duration,time_iqr,download_upload_ratio\n"
            "0-0,18,3.750000,1.312500,3.500000\n"
            "0-1,5,2.200000,1.100000,1.500000\n"
            "1-1,15,5.500000,1.625000,4.000000\n"
        )
        assert Path(f"{prefix}_decay.csv").read_text() == (
            "offset_bin_start,count\n"
            "0.000000,3\n"
            "1.000000,1\n"
            "2.000000,2\n"
        )
        assert Path(f"{prefix}_per_second.csv").read_text() == (
            "name,second,upload_count,download_count\n"
            "0-0,0,2,8\n0-0,1,1,3\n0-0,2,1,1\n0-0,3,0,2\n"
            "0-1,0,1,2\n0-1,1,1,0\n0-1,2,0,1\n"
            "1-1,0,2,5\n1-1,1,0,3\n1-1,2,1,2\n1-1,3,0,1\n1-1,4,0,0\n1-1,5,0,1\n"
        )

    def test_out_computes_trace_stats_once_per_trace(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        calls = []
        original = stats.trace_stats
        monkeypatch.setattr(stats, "trace_stats", lambda t: calls.append(t) or original(t))
        code, _, err = run(capsys, "stats", str(data), "--out", str(tmp_path / "fig"))
        assert code == 0, err
        assert len(calls) == 12

    def test_span_past_the_row_limit_is_named_and_writes_nothing(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text("0.0\t1\n0.5\t-1\n")
        (data / "0-1").write_text("0.0\t1\n1e300\t-1\n")
        prefix = tmp_path / "tables" / "fig"
        code, _, err = run(capsys, "stats", str(data), "--out", str(prefix))
        assert code == 2
        assert "error: 0-1: more than 1000000 seconds of per-second rows" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_out_memory_does_not_grow_with_the_trace_count(self, capsys, tmp_path):
        # Each file is two packets 50,000 s apart, so 50,001 per-second rows.
        # The tables were once rendered whole before any was written, and
        # four such files then peaked at 3.3 times the memory of one.
        def peak(count):
            data = tmp_path / f"data{count}"
            data.mkdir()
            for i in range(count):
                (data / f"0-{i}").write_text("0.0\t1\n50000.0\t-1\n")
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "stats", str(data), "--out", str(tmp_path / f"fig{count}"))
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, err
            return used

        one = peak(1)
        assert peak(4) <= 1.5 * one
        assert (tmp_path / "fig4_per_second.csv").read_text().count("\n") == 1 + 4 * 50_001

    def test_long_span_without_out_prints_summary(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text("0.0\t1\n1e15\t-1\n")
        start = time.monotonic()
        code, stdout, err = run(capsys, "stats", str(data))
        assert code == 0, err
        assert "mean_duration=1000000000000000.000000\n" in stdout
        assert time.monotonic() - start < 5.0

    def test_empty_trace_is_named(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "0-0").write_text("0.0\t1\n0.5\t-1\n")
        (data / "0-1").write_text("")
        code, stdout, err = run(capsys, "stats", str(data))
        assert code == 0, err
        assert f"skipping {data / '0-1'}: zero duration, 0 packet(s)" in err
        assert "traces=1\nskipped_files=1\n" in stdout

    def test_empty_dir_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "stats", str(empty))
        assert code == 2


class TestEval:
    def test_accuracy_on_separable_dataset(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=3, instances=6)
        code, stdout, err = run(
            capsys, "eval", str(data), "--seed", "1", "--folds", "3", "--k", "3",
        )
        assert code == 0, err
        accuracy = float(stdout.splitlines()[0].split("=")[1])
        assert accuracy >= 0.9

    def test_defended_eval_and_features_export(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=3, instances=6)
        features = tmp_path / "features.csv"
        code, stdout, err = run(
            capsys, "eval", str(data), "--seed", "1", "--folds", "3", "--k", "3",
            "--defense", "tamaraw", "--features-out", str(features),
        )
        assert code == 0, err
        assert features.is_file()
        assert features.read_text().splitlines()[0].startswith("label,cum_0")

    def test_features_out_defends_each_trace_once(self, capsys, tmp_path, monkeypatch):
        # The module function is looked up when a defense is applied, so
        # replacing it counts every call.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=3, instances=6)
        seeds = []
        original = regulator.apply_regulator

        def counting(trace, params, seed):
            seeds.append(seed)
            return original(trace, params, seed)

        monkeypatch.setattr(regulator, "apply_regulator", counting)
        code, _, err = run(
            capsys, "eval", str(data), "--seed", "1", "--folds", "3", "--k", "3",
            "--defense", "regulator-heavy", "--features-out", str(tmp_path / "f.csv"),
        )
        assert code == 0, err
        assert len(seeds) == len(set(seeds)) == 18

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_usage_error(self, capsys, tmp_path, monkeypatch, k):
        # --k 0 once died in max() with exit 2, and --k -3 printed an accuracy.
        def unexpected(*args):
            raise AssertionError("a trace was defended")

        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        monkeypatch.setattr(regulator, "apply_regulator", unexpected)
        code, stdout, err = run(
            capsys, "eval", str(data), "--seed", "1", "--folds", "3", "--k", k,
            "--defense", "regulator-heavy",
        )
        assert code == 1
        assert f"--k must be >= 1, got {k}" in err
        assert stdout == ""

    def test_too_many_folds_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=3)
        code, _, err = run(capsys, "eval", str(data), "--seed", "1", "--folds", "5")
        assert code == 2
        assert "fewer than" in err

    def test_too_many_folds_fails_before_any_trace_is_defended(
        self, capsys, tmp_path, monkeypatch
    ):
        def unexpected(*args):
            raise AssertionError("a trace was defended")

        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=3)
        monkeypatch.setattr(regulator, "apply_regulator", unexpected)
        code, _, err = run(
            capsys, "eval", str(data), "--seed", "1", "--folds", "5",
            "--defense", "regulator-heavy",
        )
        assert code == 2
        assert "fewer than" in err

    @pytest.mark.parametrize("classes, message", [
        (2, "class '0' has 3 instances, fewer than 5 folds"),
        (1, "closed-world evaluation needs at least 2 classes"),
    ])
    def test_tune_fold_or_class_error_writes_nothing_and_defends_no_trace(
        self, capsys, tmp_path, monkeypatch, classes, message
    ):
        def unexpected(*args):
            raise AssertionError("a trace was defended")

        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=classes, instances=3)
        monkeypatch.setattr(regulator, "apply_regulator", unexpected)
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "0", "--folds", "5",
            "--log", str(tmp_path / "trials.jsonl"),
        )
        assert code == 2
        assert message in err
        assert stdout == ""
        assert sorted(tmp_path.rglob("*")) == before


def regulator_argv(command, data, tmp_path):
    """A run of `command` under regulator-heavy, ready for overrides."""
    if command == "simulate":
        return ["simulate", str(data), "--out", str(tmp_path / "out"),
                "--defense", "regulator-heavy", "--seed", "1"]
    if command == "eval":
        return ["eval", str(data), "--defense", "regulator-heavy", "--seed", "1",
                "--folds", "3"]
    return ["adjust", "--preset", "regulator-heavy", "--reference", "1", "--target", "2"]


class TestOverrides:
    @pytest.mark.parametrize("command", ["simulate", "eval", "adjust"])
    @pytest.mark.parametrize("n", ["3550.9", "inf"])
    def test_non_integral_n_is_usage_error(self, capsys, tmp_path, command, n):
        # 3550.9 was once truncated to 3550 (adjust printed N=7100), and
        # inf escaped as an OverflowError traceback.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, stdout, err = run(capsys, *regulator_argv(command, data, tmp_path), "--N", n)
        assert code == 1
        assert "wfdefend: error: N must be a whole number" in err
        assert stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "eval", "adjust"])
    def test_n_past_the_slot_limit_is_usage_error(self, capsys, tmp_path, command):
        # A budget of 1e12 dummies at 1 slot/s once ran without end.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, stdout, err = run(capsys, *regulator_argv(command, data, tmp_path), "--N", "1e12")
        assert code == 1
        assert "wfdefend: error: N must be at most 1000000 packets" in err
        assert stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "eval", "adjust"])
    @pytest.mark.parametrize("value", ["-1e5", "-inf"], ids=["exponent", "infinity"])
    def test_negative_override_is_refused_by_value(self, capsys, tmp_path, command, value):
        # argparse once took these for options: `expected one argument`.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        code, stdout, err = run(capsys, *regulator_argv(command, data, tmp_path), "--R", value)
        assert (code, stdout) == (1, "")
        assert err == f"wfdefend: error: R must be finite and > 0, got {float(value)}\n"
        assert not (tmp_path / "out").exists()

    def test_adjusted_n_past_the_slot_limit_is_usage_error(self, capsys):
        code, stdout, err = run(capsys, "adjust", "--preset", "regulator-heavy",
                                "--reference", "1", "--target", "1000")
        assert code == 1
        assert "N must be at most 1000000 packets" in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "{data}", "--seed", "1", "--R", "5"],
        ["simulate", "{data}", "--out", "{out}", "--defense", "tamaraw", "--R", "5"],
        ["adjust", "--preset", "front-1700", "--reference", "1", "--target", "2", "--R", "5"],
    ])
    def test_override_without_regulator_defense_is_usage_error(self, capsys, tmp_path, argv):
        # eval once ignored --R when no --defense was given, and exited 0.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        argv = [a.format(data=data, out=tmp_path / "out") for a in argv]
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert "regulator" in err
        assert stdout == ""


class TestTune:
    def test_writes_sorted_log_and_is_idempotent(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        argv = (
            "tune", str(data), "--trials", "2", "--seed", "5", "--log", str(log),
            "--folds", "2", "--k", "1",
        )
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        lines = [l for l in log.read_text().splitlines() if l.strip()]
        assert len(lines) == 2
        table = stdout.splitlines()
        assert table[0].startswith("trial,loss,")
        losses = [float(row.split(",")[1]) for row in table[1:]]
        assert losses == sorted(losses)

        before = log.read_bytes()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert log.read_bytes() == before  # trial count already met

    def test_longer_log_ranks_only_the_trials_asked_for(self, capsys, tmp_path):
        # A 4-trial log resumed with --trials 2 once ranked all four trials
        # and printed the best two, which were trials 0 and 3.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        base = ("tune", str(data), "--seed", "5", "--folds", "2", "--k", "1")
        log, fresh = tmp_path / "trials.jsonl", tmp_path / "fresh.jsonl"
        run(capsys, *base, "--log", str(log), "--trials", "4")
        before = log.read_bytes()
        code, stdout, err = run(capsys, *base, "--log", str(log), "--trials", "2")
        assert code == 0, err
        assert log.read_bytes() == before
        assert (code, stdout, err) == run(capsys, *base, "--log", str(fresh), "--trials", "2")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_usage_error(self, capsys, tmp_path, k):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        code, stdout, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5", "--log", str(log),
            "--folds", "2", "--k", k,
        )
        assert code == 1
        assert f"--k must be >= 1, got {k}" in err
        assert stdout == ""
        assert not log.exists()

    def test_resume_appends_missing_trials(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        base = ("tune", str(data), "--seed", "5", "--log", str(log),
                "--folds", "2", "--k", "1")
        run(capsys, *base, "--trials", "1")
        run(capsys, *base, "--trials", "3")
        lines = [l for l in log.read_text().splitlines() if l.strip()]
        assert [json.loads(l)["trial_index"] for l in lines] == [0, 1, 2]

        fresh_log = tmp_path / "fresh.jsonl"
        run(capsys, "tune", str(data), "--seed", "5", "--log", str(fresh_log),
            "--folds", "2", "--k", "1", "--trials", "3")
        assert fresh_log.read_bytes() == log.read_bytes()

    @pytest.mark.parametrize("keep", [60, None])
    def test_resume_repairs_torn_last_line(self, capsys, tmp_path, caplog, keep):
        # keep=60: the write stopped mid-record; keep=None: only its newline is lost.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        base = ("tune", str(data), "--seed", "5", "--folds", "2", "--k", "1")
        run(capsys, *base, "--log", str(log), "--trials", "2")
        first, second = log.read_text().splitlines()
        log.write_text(first + "\n" + second[:keep])

        # A resume refused for another --k once repaired the tail first.
        before = log.read_bytes(), fingerprint.read_bytes()
        code, stdout, err = run(capsys, *base, "--log", str(log), "--trials", "3", "--k", "3")
        assert code == 2
        assert stdout == ""
        assert f"trial log {log} was produced with k=1, not 3" in err
        assert (log.read_bytes(), fingerprint.read_bytes()) == before

        code, _, err = run(capsys, *base, "--log", str(log), "--trials", "3")
        assert code == 0, err
        assert ("torn last line" in caplog.text) == (keep is not None)
        fresh = tmp_path / "fresh.jsonl"
        run(capsys, *base, "--log", str(fresh), "--trials", "3")
        assert log.read_bytes() == fresh.read_bytes()

    def test_malformed_line_before_the_last_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        base = ("tune", str(data), "--seed", "5", "--log", str(log),
                "--folds", "2", "--k", "1")
        run(capsys, *base, "--trials", "2")
        first, second = log.read_bytes().splitlines()
        third = second.replace(b'"trial_index": 1', b'"trial_index": 2')

        def first_with(**fields):
            return json.dumps({**json.loads(first), **fields}, sort_keys=True).encode()

        params = json.loads(first)["params"]
        # A log that is not UTF-8 once raised a bare UnicodeDecodeError
        # that did not name the log. A repeated trial once made the run
        # print it twice and never run trial 1; a gap made it repeat trial
        # 2 and skip trial 1. A refusal comes before a torn tail is cut. A
        # string or null score once failed only while the ranking printed,
        # and a float index was printed as 0.0.
        malformed = f"{log} line 1: malformed trial record"
        for content, message in [
            (first[:60] + b"\n" + second + b"\n", malformed),
            (first_with(loss="x") + b"\n" + second + b"\n", malformed),
            (first_with(accuracy=None) + b"\n" + second + b"\n", malformed),
            (first_with(trial_index=0.0) + b"\n" + second + b"\n", malformed),
            (first_with(params={**params, "tail_grace": 5.0}) + b"\n" + second + b"\n",
             malformed),
            (b"\xff" + first + b"\n" + second + b"\n",
             f"{log}: 'utf-8' codec can't decode byte 0xff in position 0"),
            (first + b"\n" + first + b"\n", f"{log} line 2: trial 0 where trial 1 belongs"),
            (first + b"\n" + third + b"\n", f"{log} line 2: trial 2 where trial 1 belongs"),
            (first + b"\n" + first + b"\n" + third[:60],
             f"{log} line 2: trial 0 where trial 1 belongs"),
        ]:
            log.write_bytes(content)
            before = log.read_bytes(), fingerprint.read_bytes()
            code, stdout, err = run(capsys, *base, "--trials", "3")
            assert code == 2
            assert stdout == ""
            assert err.startswith(f"wfdefend: error: {message}")
            assert (log.read_bytes(), fingerprint.read_bytes()) == before

    def test_killed_run_keeps_every_trial_it_finished(self, capsys, tmp_path, monkeypatch):
        # The log was block-buffered: a run that died during trial 3 of 6
        # left it empty, and the next run repeated trials 0 to 2. The death
        # comes in a child process, as os._exit would end this one.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log, fresh = tmp_path / "trials.jsonl", tmp_path / "fresh.jsonl"
        base = ("tune", str(data), "--trials", "6", "--seed", "5", "--folds", "2", "--k", "1")
        script = (
            "import os, sys\n"
            "from wfdefend import cli, tuner\n"
            "scored = tuner.run_trial\n"
            "def dying(dataset, params, trial_seed, weights, trial_index, *rest):\n"
            "    if trial_index == 3:\n"
            "        os._exit(9)\n"
            "    return scored(dataset, params, trial_seed, weights, trial_index, *rest)\n"
            "tuner.run_trial = dying\n"
            "cli.main(sys.argv[1:])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(wfdefend.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script, *base, "--log", str(log)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 9, result.stderr
        assert [json.loads(line)["trial_index"] for line in log.read_text().splitlines()] == [
            0, 1, 2
        ]

        ran = []
        scored = cli.tuner.run_trial

        def counted(dataset, params, trial_seed, weights, trial_index, *rest):
            ran.append(trial_index)
            return scored(dataset, params, trial_seed, weights, trial_index, *rest)

        monkeypatch.setattr(cli.tuner, "run_trial", counted)
        code, stdout, err = run(capsys, *base, "--log", str(log))
        assert code == 0, err
        assert ran == [3, 4, 5]
        assert (code, stdout, err) == run(capsys, *base, "--log", str(fresh))
        assert log.read_bytes() == fresh.read_bytes()

    def test_seed_mismatch_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        run(capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--log", str(log), "--folds", "2", "--k", "1")
        before = log.read_bytes(), fingerprint.read_bytes()
        code, stdout, err = run(
            capsys, "tune", str(data), "--trials", "2", "--seed", "6",
            "--log", str(log), "--folds", "2", "--k", "1",
        )
        assert code == 2
        assert stdout == ""
        assert f"trial log {log} was produced with seed 5, not 6" in err
        assert (log.read_bytes(), fingerprint.read_bytes()) == before

    def test_fingerprint_records_the_run(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        code, _, err = run(capsys, "tune", str(data), "--trials", "1", "--seed", "5",
                           "--log", str(log), "--folds", "2", "--k", "1")
        assert code == 0, err
        fingerprint = json.loads((tmp_path / "trials.jsonl.fingerprint.json").read_text())

        def columns_digest(path):  # of the times as <f8 bytes, then the directions
            trace = read_trace(path)
            return hashlib.blake2b(trace.times.astype("<f8").tobytes() + trace.direction.tobytes(),
                                   digest_size=16).hexdigest()

        assert fingerprint == {
            "space": {"R": [100.0, 600.0], "D": [0.7, 0.99], "T": [1.0, 10.0],
                      "N": [500, 8000], "U": [1.0, 8.0], "C": [0.5, 5.0]},
            "weights": {"w_accuracy": 1.0, "w_bandwidth": 1.0, "w_latency": 1.0},
            "k": 1,
            "folds": 2,
            "dataset": {p.name: columns_digest(p) for p in sorted(data.iterdir())},
        }

    @pytest.mark.parametrize("change, field", [
        ("k", "k=1, not 2"),
        ("space", "space.R=[100.0, 600.0], not [50, 100]"),
        ("dataset", "dataset.1-3="),
        ("dataset-same-size", "dataset.1-3="),
    ])
    def test_fingerprint_mismatch_is_data_error(self, capsys, tmp_path, change, field):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        base = ["tune", str(data), "--seed", "5", "--log", str(log), "--folds", "2"]
        code, _, err = run(capsys, *base, "--trials", "1", "--k", "1")
        assert code == 0, err
        k = "1"
        if change == "k":
            k = "2"
        elif change == "space":
            space = tmp_path / "s.json"
            space.write_text(json.dumps({"R": [50, 100]}))
            base += ["--space", str(space)]
        elif change == "dataset":
            with (data / "1-3").open("a") as trace:
                trace.write("99.0\t-1\n")
        else:
            # The fingerprint once held each file's size only, so a resume
            # after this edit exited 0 and ranked trial 0, scored on the old
            # 1-3, beside trial 1: packet 1 takes packet 0's time, 0.000000.
            trace = data / "1-3"
            first, second, *rest = trace.read_text().splitlines(keepends=True)
            edited = first.split("\t")[0] + "\t" + second.split("\t")[1]
            assert len(edited) == len(second) and edited != second
            trace.write_text("".join([first, edited, *rest]))
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        before = log.read_bytes(), fingerprint.read_bytes()
        code, stdout, err = run(capsys, *base, "--trials", "2", "--k", k)
        assert code == 2
        assert stdout == ""
        assert f"trial log {log} was produced with {field}" in err
        assert (log.read_bytes(), fingerprint.read_bytes()) == before

    @pytest.mark.parametrize("content, reason", [
        (b"{", "Expecting property name"),
        (b"[]", "not a JSON object"),
        (b"\xff", "'utf-8' codec can't decode"),
    ], ids=["torn", "not-object", "not-utf8"])
    def test_unreadable_fingerprint_is_data_error(self, capsys, tmp_path, content, reason):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        base = ("tune", str(data), "--seed", "5", "--folds", "2", "--k", "1")
        log = tmp_path / "trials.jsonl"
        run(capsys, *base, "--log", str(log), "--trials", "1")
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        fingerprint.write_bytes(content)
        code, _, err = run(capsys, *base, "--log", str(log), "--trials", "2")
        assert code == 2
        assert err.startswith(f"wfdefend: error: {fingerprint}: ")
        assert reason in err
        assert len(log.read_text().splitlines()) == 1

    def test_log_without_fingerprint_is_refused(self, capsys, tmp_path):
        # Such a log was once adopted: trial 0, scored with --k 1, was ranked
        # beside trial 1, scored with --k 3, under a fingerprint claiming 3.
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        base = ("tune", str(data), "--seed", "5", "--folds", "2")
        log = tmp_path / "trials.jsonl"
        fingerprint = tmp_path / "trials.jsonl.fingerprint.json"
        run(capsys, *base, "--k", "1", "--log", str(log), "--trials", "1")
        fingerprint.unlink()
        before = log.read_bytes()
        code, stdout, err = run(capsys, *base, "--k", "3", "--log", str(log), "--trials", "2")
        assert code == 2
        assert stdout == ""
        assert err == (
            f"wfdefend: error: trial log {log} has records but no fingerprint "
            f"{fingerprint}; it cannot be shown to fit this run\n"
        )
        assert log.read_bytes() == before
        assert not fingerprint.exists()

    def test_slot_limit_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data)
        (data / "0-9").write_text("0\t-1\n" * 9 + "1e8\t-1\n100000001\t-1\n")
        code, _, err = run(capsys, "tune", str(data), "--trials", "1", "--seed", "0",
                           "--folds", "3", "--log", str(tmp_path / "log.jsonl"))
        assert code == 2
        assert "error: 0-9: the upload prelude" in err

    def test_missing_weights_file_is_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        code, _, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--weights", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "weights" in err

    def test_missing_space_file_is_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        code, _, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--space", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "space file not found" in err

    @pytest.mark.parametrize("option, content, reason", [
        ("--space", b"{", "Expecting property name"),
        ("--space", b'{"R": 5}', "'int' object is not iterable"),
        ("--space", b'{"Q": [1, 2]}', "unexpected keyword argument 'Q'"),
        ("--space", b"\xff", "'utf-8' codec can't decode"),
        ("--space", b"[]", "not a JSON object"),
        ("--weights", b"", "Expecting value: line 1 column 1 (char 0)"),
        ("--weights", b'{"Q": 1}', "unexpected keyword argument 'Q'"),
        ("--weights", b'{"w_accuracy": -1}', "w_accuracy must be finite and >= 0, got -1"),
    ], ids=["space-malformed", "space-non-list", "space-unknown-key", "space-not-utf8",
            "space-not-object", "weights-malformed", "weights-unknown-key",
            "weights-negative"])
    def test_bad_json_file_is_data_error_naming_it(
        self, capsys, tmp_path, option, content, reason
    ):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        path = tmp_path / "file.json"
        path.write_bytes(content)
        log = tmp_path / "log.jsonl"
        code, stdout, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--log", str(log), option, str(path),
        )
        assert code == 2
        assert err.startswith(f"wfdefend: error: {path}: ")
        assert reason in err
        assert stdout == ""
        assert not log.exists()

    def test_weights_and_space_files(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"w_accuracy": 1.0, "w_bandwidth": 0.0, "w_latency": 0.0}))
        space = tmp_path / "s.json"
        space.write_text(json.dumps({"R": [50, 100], "N": [0, 10]}))
        code, stdout, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--log", str(tmp_path / "log.jsonl"), "--folds", "2", "--k", "1",
            "--weights", str(weights), "--space", str(space),
        )
        assert code == 0, err
        row = stdout.splitlines()[1].split(",")
        assert 50 <= float(row[5]) <= 100  # R drawn from the file's interval


# Files a failed page load can leave in a crawl, and the reason each is skipped.
UNUSABLE_FILES = {
    "bad-empty": (b"", "zero duration, 0 packet(s)"),
    "bad-one-packet": (b"0.5\t-1\n", "zero duration, 1 packet(s)"),
    "bad-zero-duration": (b"0.5\t1\n0.5\t-1\n", "zero duration, 2 packet(s)"),
    "bad-text": (b"x y\n", "line 1: non-numeric time field 'x'"),
    "bad-not-utf8": (b"\xff\xfe\t-1\n", "'utf-8' codec can't decode byte 0xff"),
    # Usable text under a name that a CSV row or `key=value` line cannot carry.
    **{
        name: (b"0.0\t1\n0.5\t-1\n", f"file name holds {char!r}, which the CSV and "
               "key=value outputs cannot carry")
        for name, char in (("0,1-0", ","), ('0"1-0', '"'), ("0=1-0", "="), ("0\t1-0", "\t"))
    },
}


@pytest.mark.parametrize("argv", [
    ["simulate", "{data}", "--out", "{out}/defended", "--defense", "regulator-heavy",
     "--seed", "7", "--jobs", "1"],
    ["simulate", "{data}", "--out", "{out}/defended", "--defense", "regulator-heavy",
     "--seed", "7", "--jobs", "2"],
    ["overhead", "{data}", "{defended}", "--out", "{out}/overhead.csv"],
    ["stats", "{data}", "--out", "{out}/fig"],
    ["eval", "{data}", "--seed", "1", "--folds", "3", "--features-out", "{out}/f.csv"],
    ["eval", "{data}", "--seed", "1", "--folds", "3", "--defense", "tamaraw",
     "--features-out", "{out}/f.csv"],
    ["tune", "{data}", "--trials", "1", "--seed", "5", "--folds", "2", "--k", "1",
     "--log", "{out}/trials.jsonl"],
], ids=["simulate-j1", "simulate-j2", "overhead", "stats", "eval", "eval-tamaraw", "tune"])
def test_unusable_files_are_skipped_by_every_command(capsys, tmp_path, argv):
    # Each command skips the same files, names each with its reason, and
    # writes what it writes without them.
    clean = tmp_path / "clean"
    write_synth_dataset(capsys, clean)
    mixed = tmp_path / "mixed"
    shutil.copytree(clean, mixed)
    for name, (data, _) in UNUSABLE_FILES.items():
        (mixed / name).write_bytes(data)
    defended = tmp_path / "defended"
    code, _, err = run(capsys, "simulate", str(clean), "--out", str(defended),
                       "--defense", "tamaraw")
    assert code == 0, err

    results = {}
    for data in (clean, mixed):
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, err = run(
            capsys, *(a.format(data=data, out=out, defended=defended) for a in argv)
        )
        assert code == 0, err
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert files
        shutil.rmtree(out)
        results[data.name] = stdout, err, files

    clean_stdout, clean_err, clean_files = results["clean"]
    mixed_stdout, mixed_err, mixed_files = results["mixed"]
    assert "skipping" not in clean_err
    for name, (_, reason) in UNUSABLE_FILES.items():
        assert f"skipping {mixed / name}: {reason}" in mixed_err
    assert mixed_files == clean_files
    if argv[0] == "stats":
        assert "skipped_files=0\n" in clean_stdout
        skipped = f"skipped_files={len(UNUSABLE_FILES)}\n"
        assert skipped in mixed_stdout
        mixed_stdout = mixed_stdout.replace(skipped, "skipped_files=0\n")
    assert mixed_stdout == clean_stdout


@pytest.mark.parametrize("argv, message", [
    (["tune", "{data}", "--seed", "1", "--trials", "-2", "--folds", "2", "--log", "{out}"],
     "--trials must be >= 1, got -2"),
    (["tune", "{data}", "--seed", "1", "--trials", "0", "--folds", "2", "--log", "{out}"],
     "--trials must be >= 1, got 0"),
    (["tune", "{data}", "--seed", "1", "--trials", "1", "--folds", "1", "--log", "{out}"],
     "--folds must be >= 2, got 1"),
    (["eval", "{data}", "--seed", "1", "--folds", "1", "--features-out", "{out}"],
     "--folds must be >= 2, got 1"),
    (["eval", "{data}", "--seed", "1", "--folds", "1", "--defense", "regulator-heavy"],
     "--folds must be >= 2, got 1"),
    (["synth", "--out", "{out}", "--seed", "1", "--classes", "0"],
     "--classes must be >= 1, got 0"),
    (["synth", "--out", "{out}", "--seed", "1", "--instances", "-1"],
     "--instances must be >= 1, got -1"),
    (["simulate", "{data}", "--out", "{out}", "--defense", "tamaraw", "--jobs", "0"],
     "--jobs must be >= 1, got 0"),
], ids=["tune-trials-2", "tune-trials0", "tune-folds1", "eval-folds1",
        "eval-defended-folds1", "synth-classes0", "synth-instances-1", "simulate-jobs0"])
def test_count_below_its_minimum_is_usage_error_writing_nothing(capsys, tmp_path, argv, message):
    # `tune --trials -2` once exited 0 and wrote the log's fingerprint, and
    # `eval --folds 1` and `synth --classes 0` exited 2 as if the data were
    # at fault.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run(capsys, *(a.format(data=data, out=tmp_path / "out") for a in argv))
    assert code == 1
    assert f"wfdefend: error: {message}\n" == err
    assert stdout == ""
    assert sorted(tmp_path.rglob("*")) == before


# Each command that writes an output path, with that path as {out}.
OUTPUTS = {
    "overhead": ["overhead", "{data}", "{defended}", "--out", "{out}"],
    "stats": ["stats", "{data}", "--out", "{out}"],
    "eval": ["eval", "{data}", "--seed", "1", "--folds", "2", "--features-out", "{out}"],
    "tune": ["tune", "{data}", "--trials", "1", "--seed", "1", "--folds", "2", "--k", "1",
             "--log", "{out}"],
    "simulate": ["simulate", "{data}", "--out", "{out}", "--defense", "tamaraw"],
    "synth": ["synth", "--out", "{out}", "--seed", "1", "--classes", "1", "--instances", "1"],
}
DIRECTORY_OUTPUTS = {"simulate", "synth"}


@pytest.mark.parametrize("command", OUTPUTS)
@pytest.mark.parametrize("problem", ["under-a-file", "wrong-kind"])
def test_bad_output_path_fails_before_any_input_is_read(capsys, tmp_path, command, problem):
    # Such a path used to fail only after the work was done and its result
    # printed, naming a temporary file. The input paths here do not exist,
    # so reading any of them would be another error.
    out = tmp_path / "f" / "x" if problem == "under-a-file" else tmp_path / "x"
    checked = Path(f"{out}_per_second.csv") if command == "stats" else out
    if problem == "under-a-file":
        (tmp_path / "f").write_text("")
        reason = f"{tmp_path / 'f'} is not a directory"
    elif command in DIRECTORY_OUTPUTS:
        checked.write_text("")
        reason = "it is not a directory"
    else:
        checked.mkdir()
        reason = "it is a directory"
    before = sorted(tmp_path.rglob("*"))
    argv = (a.format(data=tmp_path / "data", defended=tmp_path / "defended", out=out)
            for a in OUTPUTS[command])
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err == f"wfdefend: error: cannot write {checked}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", OUTPUTS)
def test_empty_output_is_refused_before_any_trace_is_read(capsys, tmp_path, monkeypatch, command):
    # `stats --out ''`, `overhead --out ''` and `eval --features-out ''` once
    # exited 0 having written nothing; the other three failed as data errors.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data, classes=2, instances=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a trace was read")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "iter_dataset", refuse)
    monkeypatch.chdir(tmp_path)
    before = listing(tmp_path)
    argv = [a.format(data=data, defended=data, out="") for a in OUTPUTS[command]]
    option = argv[argv.index("") - 1]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.endswith(f"wfdefend: error: argument {option}: an output path may not be empty\n")
    assert listing(tmp_path) == before


INPUTS = {
    "simulate": (["simulate", "{data}", "--out", "{out}", "--defense", "tamaraw"], "input"),
    "overhead-original": (["overhead", "{data}", "{data}"], "original"),
    "overhead-defended": (["overhead", "{data}", "{data}"], "defended"),
    "stats": (["stats", "{data}"], "input"),
    "eval": (["eval", "{data}", "--seed", "1", "--folds", "2"], "input"),
    "tune": (["tune", "{data}", "--trials", "1", "--seed", "1", "--folds", "2", "--k", "1",
              "--log", "{out}"], "input"),
    "tune-space": (["tune", "{data}", "--trials", "1", "--seed", "1", "--folds", "2",
                    "--k", "1", "--log", "{out}", "--space", "{data}"], "--space"),
    "tune-weights": (["tune", "{data}", "--trials", "1", "--seed", "1", "--folds", "2",
                      "--k", "1", "--log", "{out}", "--weights", "{data}"], "--weights"),
}


@pytest.mark.parametrize("command", INPUTS)
def test_empty_input_is_refused_before_any_trace_is_read(capsys, tmp_path, monkeypatch, command):
    # An empty path once meant the working directory, or for `--space` and
    # `--weights` the default, and the command ran on it.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data, classes=2, instances=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a trace was read")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "iter_dataset", refuse)
    monkeypatch.chdir(data)
    before = listing(tmp_path)
    template, option = INPUTS[command]
    argv = [a.format(data=data, out=tmp_path / "out") for a in template]
    if option.startswith("--"):
        argv[argv.index(option) + 1] = ""
    else:
        argv[[i for i, a in enumerate(argv) if a == str(data)][option == "defended"]] = ""
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.endswith(f"wfdefend: error: argument {option}: an input path may not be empty\n")
    assert listing(tmp_path) == before


@pytest.mark.parametrize("command", OUTPUTS)
def test_missing_output_directories_are_created(capsys, tmp_path, command):
    data = tmp_path / "data"
    write_synth_dataset(capsys, data)
    code, _, err = run(capsys, "simulate", str(data), "--out", str(tmp_path / "defended"),
                       "--defense", "tamaraw")
    assert code == 0, err
    out = tmp_path / "a" / "b" / "x"
    argv = (a.format(data=data, defended=tmp_path / "defended", out=out)
            for a in OUTPUTS[command])
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    if command == "stats":
        assert Path(f"{out}_traces.csv").is_file()
    else:
        assert out.is_dir() if command in DIRECTORY_OUTPUTS else out.is_file()


@pytest.mark.parametrize("command", sorted(DIRECTORY_OUTPUTS))
def test_directory_output_that_is_not_empty_is_refused_and_left_as_it_was(capsys, tmp_path, command):
    # A rerun into an earlier run's directory once merged the two runs: a
    # synth of 2 classes over one of 3 kept the third class's files.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data, classes=2, instances=2)
    out = tmp_path / "out"
    write_synth_dataset(capsys, out)
    before = tree_bytes(out), sorted(p.name for p in tmp_path.iterdir())
    argv = (a.format(data=data, out=out) for a in OUTPUTS[command])
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err == f"wfdefend: error: cannot write {out}: it is a directory that is not empty\n"
    assert (tree_bytes(out), sorted(p.name for p in tmp_path.iterdir())) == before


@pytest.mark.parametrize("command", sorted(DIRECTORY_OUTPUTS))
@pytest.mark.parametrize("out", ["link", "."])
def test_directory_output_at_a_link_or_dot_is_refused_before_any_trace_is_read(
    capsys, tmp_path, monkeypatch, command, out
):
    # A link to an empty directory was once followed and filled; one rename
    # would replace the link itself. Renaming onto `.` cannot work either.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data, classes=2, instances=2)
    (data / "9-9").write_text("0\t-1\n1e8\t-1\n")  # read, it would be a data error
    empty = tmp_path / "empty"
    empty.mkdir()
    (tmp_path / "link").symlink_to(empty, target_is_directory=True)
    monkeypatch.chdir(empty if out == "." else tmp_path)
    before = sorted(tmp_path.rglob("*"))
    argv = (a.format(data=data, out=out) for a in OUTPUTS[command])
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err == (
        f"wfdefend: error: cannot write {out}: a directory output may not be a link, . or ..\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


# Each output named onto or inside a path that its command reads, with the
# output that is refused and the input it is refused for. {data} holds the
# traces, {defended} simulate's output of them, {link} leads to {data}, and
# {data}/away.csv is a link out of {data} to a file beside it.
EVAL = ["eval", "{data}", "--seed", "1", "--folds", "2", "--k", "1"]
TUNE = ["tune", "{data}", "--trials", "1", "--seed", "1", "--folds", "2", "--k", "1"]
OVERLAPS = {
    "eval-onto-a-trace": (
        [*EVAL, "--features-out", "{data}/0-0"], "{data}/0-0", "{data}"),
    "eval-inside": (
        [*EVAL, "--features-out", "{data}/f.csv"], "{data}/f.csv", "{data}"),
    "overhead-inside-the-original": (
        ["overhead", "{data}", "{defended}", "--out", "{data}/o.csv"], "{data}/o.csv", "{data}"),
    "overhead-inside-the-defended": (
        ["overhead", "{data}", "{defended}", "--out", "{defended}/o.csv"],
        "{defended}/o.csv", "{defended}"),
    "stats-prefix-inside": (
        ["stats", "{data}", "--out", "{data}/fig"], "{data}/fig_per_second.csv", "{data}"),
    "tune-log-inside": (
        [*TUNE, "--log", "{data}/t.jsonl"], "{data}/t.jsonl", "{data}"),
    "tune-log-is-the-space": (
        [*TUNE, "--space", "{tmp}/space.json", "--log", "{tmp}/space.json"],
        "{tmp}/space.json", "{tmp}/space.json"),
    "tune-log-is-the-weights": (
        [*TUNE, "--weights", "{tmp}/weights.json", "--log", "{tmp}/weights.json"],
        "{tmp}/weights.json", "{tmp}/weights.json"),
    "tune-fingerprint-is-the-space": (
        [*TUNE, "--space", "{tmp}/t.jsonl.fingerprint.json", "--log", "{tmp}/t.jsonl"],
        "{tmp}/t.jsonl.fingerprint.json", "{tmp}/t.jsonl.fingerprint.json"),
    "eval-through-a-link": (
        [*EVAL, "--features-out", "{link}/f.csv"], "{link}/f.csv", "{data}"),
    "eval-onto-a-link-in-the-input": (
        [*EVAL, "--features-out", "{data}/away.csv"], "{data}/away.csv", "{data}"),
}


@pytest.mark.parametrize("case", OVERLAPS)
def test_output_onto_or_inside_an_input_is_refused_before_any_trace_is_read(
    capsys, tmp_path, monkeypatch, case
):
    # Each of these once exited 0 having replaced or added a file in what
    # the command read: `eval --features-out data/0-0` replaced trace 0-0
    # with the feature CSV, and `tune --log space.json` made the search
    # space a trial log.
    data, defended = tmp_path / "data", tmp_path / "defended"
    write_synth_dataset(capsys, data, classes=2, instances=2)
    code, _, err = run(capsys, "simulate", str(data), "--out", str(defended),
                       "--defense", "tamaraw")
    assert code == 0, err
    for name in ("space.json", "weights.json", "t.jsonl.fingerprint.json"):
        (tmp_path / name).write_text("{}\n")
    (tmp_path / "link").symlink_to(data, target_is_directory=True)
    (tmp_path / "elsewhere.csv").write_text("kept\n")
    (data / "away.csv").symlink_to(tmp_path / "elsewhere.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("a trace was read")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "iter_dataset", refuse)
    names = {"data": data, "defended": defended, "link": tmp_path / "link", "tmp": tmp_path}
    argv, refused, source = OVERLAPS[case]
    argv = [a.format(**names) for a in argv]
    refused, source = refused.format(**names), source.format(**names)
    where = "is" if refused == source else "lies inside"
    before = listing(tmp_path)
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err == f"wfdefend: error: cannot write {refused}: it {where} the input {source}\n"
    assert listing(tmp_path) == before


def test_write_whole_error_names_the_destination(tmp_path):
    target = tmp_path / "out.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        cli._write_whole(target, "text")
    assert str(caught.value) == f"[Errno 21] Is a directory: '{target}'"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file is left


def test_outputs_get_the_modes_of_a_plain_write(capsys, tmp_path):
    # Under umask 027 a plain write makes files 0o640 and directories 0o750;
    # a file made by `tempfile.mkstemp` would be 0o600.
    umask = os.umask(0o027)
    try:
        write_synth_dataset(capsys, tmp_path / "synth" / "data", classes=2, instances=3)
        data = tmp_path / "synth" / "data"
        runs = [
            ["stats", str(data), "--out", str(tmp_path / "stats" / "fig")],
            ["simulate", str(data), "--out", str(tmp_path / "sim" / "def"),
             "--defense", "regulator-light", "--seed", "1"],
            ["overhead", str(data), str(tmp_path / "sim" / "def"),
             "--out", str(tmp_path / "overhead" / "o.csv")],
            ["eval", str(data), "--seed", "1", "--folds", "3",
             "--features-out", str(tmp_path / "eval" / "f.csv")],
            ["tune", str(data), "--trials", "1", "--seed", "0", "--folds", "3", "--k", "1",
             "--log", str(tmp_path / "tune" / "t.jsonl")],
        ]
        for argv in runs:
            code, _, err = run(capsys, *argv)
            assert code == 0, err
    finally:
        os.umask(umask)
    made = sorted(tmp_path.rglob("*"))
    files = [path.relative_to(tmp_path).as_posix() for path in made if path.is_file()]
    assert files == [
        "eval/f.csv", "overhead/o.csv",
        *(f"sim/def/{c}-{i}" for c in "01" for i in "012"), "sim/def.overhead.csv",
        *(f"stats/fig{suffix}" for suffix in ("_decay.csv", "_per_second.csv", "_traces.csv")),
        *(f"synth/data/{c}-{i}" for c in "01" for i in "012"),
        "tune/t.jsonl", "tune/t.jsonl.fingerprint.json",
    ]
    for path in made:
        assert stat.S_IMODE(path.stat().st_mode) == (0o750 if path.is_dir() else 0o640), path


TUNE = ["tune", "{data}", "--seed", "1", "--trials", "1", "--folds", "2", "--log", "{out}"]


@pytest.mark.parametrize("argv, content, code, message", [
    (TUNE + ["--space", "{file}"], '{"R": [1, Infinity]}', 2,
     "{file}: R must be finite and > 0, got inf"),
    (TUNE + ["--space", "{file}"], '{"T": [1, NaN]}', 2,
     "{file}: T must be finite and > 0, got nan"),
    (TUNE + ["--space", "{file}"], '{"N": [10.5, 20]}', 2,
     "{file}: N must be a non-negative integer, got 10.5"),
    (TUNE + ["--space", "{file}"], '{"N": [true, 5]}', 2,
     "{file}: N must be a non-negative integer, got True"),
    (TUNE + ["--weights", "{file}"], '{"w_latency": NaN}', 2,
     "{file}: w_latency must be finite and >= 0, got nan"),
    (["synth", "--out", "{out}", "--seed", "1", "--jitter", "inf"], None, 2,
     "jitter must be finite and >= 0, got inf"),
    (["synth", "--out", "{out}", "--seed", "1", "--jitter", "nan"], None, 2,
     "jitter must be finite and >= 0, got nan"),
    (["synth", "--out", "{out}", "--seed", "1", "--base-total", "100000000000"], None, 2,
     "surge size must be at most 1000000 packets, got 60000000000"),
    (["synth", "--out", "{out}", "--seed", "1", "--base-total", "1", "--classes", "3"], None, 2,
     "class 0 would have 1 packet(s), fewer than 2"),
    (["synth", "--out", "{out}", "--seed", "1", "--base-total", "10", "--step", "-5"], None, 2,
     "class 2 would have 0 packet(s), fewer than 2"),
    (["synth", "--out", "{out}", "--seed", "1", "--step", "0"], None, 2,
     "step must be nonzero, or the classes are identical"),
    (["simulate", "{data}", "--out", "{out}", "--defense", "regulator-heavy", "--seed", "1",
      "--R", "inf"], None, 1, "R must be finite and > 0, got inf"),
    (["simulate", "{data}", "--out", "{out}", "--defense", "regulator-heavy", "--seed", "1",
      "--U", "0.5"], None, 1, "U must be at least 1 download slot per upload slot, got 0.5"),
    (TUNE + ["--space", "{file}"], '{"U": [0.5, 8]}', 2,
     "{file}: U must be at least 1 download slot per upload slot, got 0.5"),
], ids=["space-R-inf", "space-T-nan", "space-N-fraction", "space-N-bool", "weights-nan",
        "synth-jitter-inf", "synth-jitter-nan", "synth-base-total", "synth-total-below-two",
        "synth-negative-step", "synth-zero-step", "simulate-R-inf",
        "simulate-U-below-one", "space-U-below-one"])
def test_bad_parameter_is_one_line_error_writing_nothing(
    capsys, tmp_path, argv, content, code, message
):
    # The space ends once raised OverflowError tracebacks after the log was
    # begun, or were drawn from as 10 and 1; a NaN weight wrote "loss": NaN
    # into the log; synth ended in tracebacks, one a 447 GiB MemoryError;
    # --R inf failed on every trace at the slot clock, a data error; --U 0.5
    # wrote the bytes of --U 1.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data)
    path = tmp_path / "file.json"
    if content is not None:
        path.write_text(content)
    before = sorted(tmp_path.rglob("*"))
    fields = dict(data=data, out=tmp_path / "out", file=path)
    result = run(capsys, *(a.format(**fields) for a in argv))
    assert result == (code, "", f"wfdefend: error: {message.format(**fields)}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["stats", "{data}"],
    ["eval", "{data}", "--seed", "1", "--folds", "3"],
    ["tune", "{data}", "--trials", "2", "--seed", "5", "--folds", "2", "--k", "1",
     "--log", "{log}"],
], ids=["stats", "eval", "tune"])
def test_closed_stdout_ends_quietly(capsys, tmp_path, argv, buffered):
    # `wfdefend stats DIR | true` once printed "error: [Errno 32] Broken
    # pipe" and exited 2, as if the data were at fault.
    data = tmp_path / "data"
    write_synth_dataset(capsys, data)
    env = {**os.environ, "PYTHONPATH": str(Path(wfdefend.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "wfdefend",
             *(a.format(data=data, log=tmp_path / "log.jsonl") for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=30,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == cli.EXIT_PIPE == 141


class TestAdjust:
    def test_reproduces_scaled_rate(self, capsys):
        code, stdout, err = run(
            capsys, "adjust", "--preset", "regulator-heavy",
            "--reference", "1000", "--target", "2431",
        )
        assert code == 0, err
        values = dict(line.split("=") for line in stdout.splitlines())
        assert values["R"] == "673"
        assert values["N"] == "8630"

    def test_identity_at_ratio_one(self, capsys):
        code, stdout, err = run(
            capsys, "adjust", "--preset", "regulator-heavy",
            "--reference", "2100.9", "--target", "2100.9",
        )
        assert code == 0, err
        values = dict(line.split("=") for line in stdout.splitlines())
        assert values["R"] == "277"
        assert values["N"] == "3550"
        assert values["D"] == "0.94"

    def test_non_positive_ratio_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "adjust", "--preset", "regulator-heavy",
            "--reference", "0", "--target", "2431",
        )
        assert code == 1

    def test_ratio_that_rounds_r_to_zero_is_usage_error_naming_it(self, capsys):
        # This once read "R must be > 0, got 0.0", which hid the rescaling.
        code, stdout, err = run(capsys, "adjust", "--preset", "regulator-heavy",
                                "--reference", "1000", "--target", "1")
        assert (code, stdout) == (1, "")
        assert err == (
            "wfdefend: error: the count ratio 0.001 rescales R to 0.277, which rounds to 0\n"
        )

    def test_argument_error_has_the_one_error_prefix(self, capsys):
        # An option with no value is argparse's own error, which once read
        # `wfdefend adjust: error:`, unlike every other.
        code, stdout, err = run(capsys, "adjust", "--preset", "regulator-heavy",
                                "--target", "1", "--reference")
        assert (code, stdout) == (1, "")
        assert err.endswith("\nwfdefend: error: argument --reference: expected one argument\n")

    @pytest.mark.parametrize("value", ["-2.39e+16", "-inf"], ids=["exponent", "infinity"])
    def test_negative_number_after_an_option_is_its_value(self, capsys, value):
        # argparse once took these for options: `expected one argument`.
        code, stdout, err = run(capsys, "adjust", "--preset", "regulator-light",
                                "--reference", value, "--target", "1")
        assert (code, stdout) == (1, "")
        assert err == (
            "wfdefend: error: mean packet counts must be finite and positive, "
            f"got {float(value)} and 1.0\n"
        )

    def test_unknown_preset_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "adjust", "--preset", "tamaraw",
            "--reference", "1", "--target", "2",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "reference, target",
        [("1", "inf"), ("nan", "1"), ("1e-300", "1e300")],
    )
    def test_non_finite_count_or_ratio_is_one_line_usage_error(self, capsys, reference, target):
        code, stdout, err = run(
            capsys, "adjust", "--preset", "regulator-heavy",
            "--reference", reference, "--target", target,
        )
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("wfdefend: error: ")
        assert "Traceback" not in err


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            write_synth_dataset(capsys, out, classes=2, instances=3, seed=4)
        assert tree_bytes(out1) == tree_bytes(out2)
        assert len(tree_bytes(out1)) == 6

    def test_writes_the_generated_datasets_filenames(self, capsys, tmp_path):
        write_synth_dataset(capsys, tmp_path / "s", classes=3, instances=4, seed=9)
        profiles = synth.separable_profiles(3, base_total=40, step=10)
        dataset = synth.generate_classes(profiles, 4, seed=9)
        assert tree_bytes(tmp_path / "s") == {
            name: write_trace(trace).encode()
            for name, trace in zip(dataset.filenames, dataset.traces, strict=True)
        }

    def test_requires_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--seed" in err

    def test_failed_write_leaves_no_out_dir(self, capsys, tmp_path, monkeypatch):
        write_text = Path.write_text
        calls = []

        def third_write_fails(self, *args, **kwargs):
            calls.append(self.name)
            if len(calls) == 3:
                raise OSError("disk full")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", third_write_fails)
        out = tmp_path / "sub" / "out"
        code, _, err = run(
            capsys, "synth", "--out", str(out), "--classes", "2", "--instances", "2",
            "--seed", "1", "--base-total", "40", "--step", "10",
        )
        assert code == 2
        assert "disk full" in err
        assert calls == ["0-0", "0-1", "1-0"]
        assert list(tmp_path.iterdir()) == []
