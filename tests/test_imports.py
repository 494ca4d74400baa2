"""What each entry point imports, checked in a fresh interpreter.

A module counts as loaded once its body has run. `import wfdefend`
registers every library module in sys.modules unrun, as a module of its
own type; the type becomes a plain module when the body runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wfdefend
from wfdefend.cli import main

SRC = str(Path(wfdefend.__file__).parents[1])

EXPORTS = {
    "traces": [
        "Dataset", "DefendedTrace", "Direction", "PacketKind", "ParseError", "Trace",
        "attach_sources", "load_dataset", "parse_defended_schedule", "parse_trace",
        "write_defended_trace", "write_trace",
    ],
    "regulator": ["RegulatorParams", "apply_regulator"],
    "baselines": ["FrontParams", "TamarawParams", "apply_front", "apply_tamaraw"],
    "presets": ["resolve_defense"],
    "metrics": ["dataset_overhead", "trace_overhead"],
    "stats": ["dataset_stats", "trace_stats"],
    "attack": ["evaluate_closed_world", "extract_features", "feature_matrix"],
    "synth": ["generate_classes", "separable_profiles"],
    "tuner": ["LossWeights", "SearchSpace", "random_search"],
}

LOADED = """
def loaded():
    import sys, types
    return sorted(name for name, module in sys.modules.items() if type(module) is types.ModuleType)
"""


def fresh(script: str):
    """The value that `script`, run in a fresh interpreter, prints last."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED + script],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_import_wfdefend_loads_no_numpy():
    assert "numpy" not in fresh("import wfdefend\nprint(loaded())")


def test_import_wfdefend_registers_every_library_module_unrun():
    # A tool that patches every wfdefend module in sys.modules, as the
    # bench's traced replay does, finds each one there from the first import.
    script = f"""
import sys, types
import wfdefend
for name in {[*EXPORTS, "seeding"]!r}:
    module = sys.modules["wfdefend." + name]
    assert module is getattr(wfdefend, name), name
    assert type(module) is not types.ModuleType, name
print(loaded())
"""
    assert "numpy" not in fresh(script)


def test_threads_that_first_read_a_module_at_once_all_find_it_whole():
    # With importlib's LazyLoader (Python 3.11), the first thread made the
    # module plain before running its body, so the others read it half made
    # and 3 of 4 raised "module 'wfdefend.stats' has no attribute ...".
    script = """
import threading
import wfdefend
names = ["dataset_stats", "feature_matrix", "random_search", "trace_overhead"] * 2
barrier, errors = threading.Barrier(len(names)), []
def read(name):
    barrier.wait()
    try:
        getattr(wfdefend, name)
        from wfdefend.stats import per_second_table
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=read, args=(name,)) for name in names]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors)
"""
    assert fresh(script) == []


def test_import_cli_loads_only_what_every_subcommand_needs():
    loaded = set(fresh("import wfdefend.cli\nprint(loaded())"))
    deferred = {"concurrent.futures.process", "multiprocessing", "json", "wfdefend.tuner",
                "wfdefend.attack", "wfdefend.stats", "wfdefend.synth", "wfdefend.metrics"}
    assert not loaded & deferred


def test_every_export_is_its_module_object():
    script = f"""
import importlib
import wfdefend
exports = {EXPORTS!r}
assert sorted(wfdefend.__all__) == sorted(name for names in exports.values() for name in names)
assert set(wfdefend.__all__) <= set(dir(wfdefend))
for module, names in exports.items():
    for name in names:
        assert getattr(wfdefend, name) is getattr(importlib.import_module("wfdefend." + module), name), name
try:
    wfdefend.no_such_name
except AttributeError as exc:
    print(repr(str(exc)))
"""
    assert fresh(script) == "module 'wfdefend' has no attribute 'no_such_name'"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    assert main(["synth", "--out", str(root / "data"), "--classes", "2", "--instances", "3",
                 "--seed", "1", "--base-total", "40", "--step", "10"]) == 0
    assert main(["simulate", str(root / "data"), "--out", str(root / "defended"),
                 "--defense", "tamaraw"]) == 0
    return root


# The wfdefend modules, beyond the CLI's own (traces, presets, regulator,
# baselines), whose bodies each subcommand runs.
SUBCOMMANDS = {
    "simulate": ("{root}/data --out {root}/sim --defense front-1700 --seed 1 --jobs 1",
                 {"metrics", "seeding"}),
    "overhead": ("{root}/data {root}/defended", {"metrics"}),
    "stats": ("{root}/data", {"stats"}),
    "eval": ("{root}/data --seed 1 --folds 2 --k 1", {"attack", "seeding"}),
    "tune": ("{root}/data --trials 1 --seed 1 --folds 2 --k 1 --log {root}/t.jsonl",
             {"attack", "metrics", "seeding", "tuner"}),
    "adjust": ("--preset regulator-heavy --reference 2 --target 1", {"stats"}),
    "synth": ("--out {root}/synth --seed 1 --classes 1 --instances 1", {"seeding", "synth"}),
}


def loaded_by(root, command: str) -> set[str]:
    """The modules loaded after `command`, run in a fresh interpreter."""
    argv = command.format(root=root).split()
    script = f"""
import contextlib, io
from wfdefend.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print(loaded())
"""
    return set(fresh(script))


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_runs_only_its_modules(root, command):
    args, modules = SUBCOMMANDS[command]
    loaded = loaded_by(root, f"{command} {args}")
    own = {"wfdefend", "wfdefend.cli", "wfdefend.traces", "wfdefend.presets",
           "wfdefend.regulator", "wfdefend.baselines"}
    assert {name for name in loaded if name.startswith("wfdefend")} == own | {
        f"wfdefend.{name}" for name in modules
    }
    # A single worker never needs the process pool.
    assert "multiprocessing" not in loaded


def test_a_seedless_defense_hashes_no_seed(root):
    # Tamaraw ignores its seed, so `simulate` derives none, and hashlib,
    # whose OpenSSL load costs a few MB, stays unloaded.
    loaded = loaded_by(root, "simulate {root}/data --out {root}/tamaraw --defense tamaraw")
    assert not {"hashlib", "_hashlib", "wfdefend.seeding"} & loaded


def test_stats_takes_its_medians_without_numpy_ma(root):
    loaded = loaded_by(root, "stats {root}/data --out {root}/figures")
    assert "numpy.ma" not in loaded
