import json
import time
from pathlib import Path

import pytest

from wfdefend.cli import main


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
        (data / "9-9").write_text("0.0\t1\nnan\t-1\n")  # sorts last
        out = tmp_path / "out"
        out.mkdir()
        (out / "0-0").write_text("earlier run\n")
        code, _, err = run(
            capsys, "simulate", str(data), "--out", str(out),
            "--defense", "regulator-heavy", "--seed", "1", "--jobs", jobs,
        )
        assert code == 2
        assert "9-9: line 2: non-finite time" in err
        assert tree_bytes(out) == {"0-0": b"earlier run\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "out"]

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

    def test_too_many_folds_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=3)
        code, _, err = run(capsys, "eval", str(data), "--seed", "1", "--folds", "5")
        assert code == 2
        assert "fewer than" in err


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
        base = ("tune", str(data), "--seed", "5", "--folds", "2", "--k", "1")
        run(capsys, *base, "--log", str(log), "--trials", "2")
        first, second = log.read_text().splitlines()
        log.write_text(first + "\n" + second[:keep])

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
        base = ("tune", str(data), "--seed", "5", "--log", str(log),
                "--folds", "2", "--k", "1")
        run(capsys, *base, "--trials", "2")
        first, second = log.read_text().splitlines()
        log.write_text(first[:60] + "\n" + second + "\n")
        before = log.read_bytes()
        code, _, err = run(capsys, *base, "--trials", "3")
        assert code == 2
        assert "line 1: malformed trial record" in err
        assert log.read_bytes() == before

    def test_seed_mismatch_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        log = tmp_path / "trials.jsonl"
        run(capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--log", str(log), "--folds", "2", "--k", "1")
        code, _, err = run(
            capsys, "tune", str(data), "--trials", "2", "--seed", "6",
            "--log", str(log), "--folds", "2", "--k", "1",
        )
        assert code == 2
        assert "seed" in err

    def test_missing_weights_file_is_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_dataset(capsys, data, classes=2, instances=4)
        code, _, err = run(
            capsys, "tune", str(data), "--trials", "1", "--seed", "5",
            "--weights", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "weights" in err

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

    def test_unknown_preset_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "adjust", "--preset", "tamaraw",
            "--reference", "1", "--target", "2",
        )
        assert code == 1


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            write_synth_dataset(capsys, out, classes=2, instances=3, seed=4)
        assert tree_bytes(out1) == tree_bytes(out2)
        assert len(tree_bytes(out1)) == 6

    def test_requires_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--seed" in err
