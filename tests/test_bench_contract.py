"""The traced benchmark replay's contract with the package.

`bench/traced.py` wraps the functions it names in TRACED and runs each
COUNTERS entry on the arguments and result of its function. A renamed
function, or a result of another shape, would otherwise show only in a
traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from wfdefend.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("traced")


def test_every_traced_name_resolves(traced):
    for qualname in traced.TRACED:
        module, attr = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"wfdefend.{module}"), attr, None)), qualname
    assert set(traced.COUNTERS) <= set(traced.TRACED)
    assert set(traced.PER_TRACE.values()) <= set(traced.TRACED)


def test_every_counter_reads_the_real_output_of_its_function(traced, capsys, tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "2", "--instances", "2",
                 "--seed", "1", "--base-total", "40", "--step", "10"]) == 0
    tracer = traced.Tracer("contract")
    with traced.installed(tracer):
        for defense in ("regulator-heavy", "front-1700", "tamaraw"):
            assert main(["simulate", str(data), "--out", str(tmp_path / defense),
                         "--defense", defense, "--seed", "3"]) == 0
        assert main(["overhead", str(data), str(tmp_path / "regulator-heavy")]) == 0
        assert main(["eval", str(data), "--seed", "1", "--folds", "2", "--k", "1"]) == 0
    capsys.readouterr()

    called = {name for name, *_rest in tracer.spans}
    assert set(traced.COUNTERS) <= called
    counts = tracer.counts
    for key in ("traces.bytes_read", "traces.parse.packets", "traces.bytes_written",
                "regulator.download.slots", "regulator.upload.real",
                "regulator.packets", "baselines.front.packets", "baselines.tamaraw.packets",
                "attack.knn.distance_rows"):
        assert counts[key] > 0, key
    assert counts["regulator.upload.flushes"] <= counts["regulator.upload.real"]
    assert counts["regulator.download.silent"] <= counts["regulator.download.slots"]
    assert counts["regulator.dummies"] <= counts["regulator.packets"]
