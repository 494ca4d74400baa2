"""Traced run: per-layer metrics from spans around calls into wfdefend's modules.

One untraced round of the workload's commands, each in its own child
process as in the timed run, gives every command's wall time. The same
commands (all but `simulate --jobs 2`) are then replayed in this process
through `wfdefend.cli.main`, with the public functions listed in TRACED
replaced, in every wfdefend module that imported them, by wrappers that
record one span per call: name, start, end, parent span, workload and the
call's ordinal within its command (the trace it worked on). Spans stay in
memory and are written to `.bench_out/` at the end. A layer's busy time is
the self time of its spans: span duration minus the spans nested in it.

After the replay, FRONT and Tamaraw are applied to the first PROBE_TRACES
traces, so both baselines are measured on every workload, and the kNN is
timed again on half the classes for its scaling exponent.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import harness
import verify

PROBE_TRACES = 100

# Traced function (module.name) -> the layer that owns its self time.
TRACED = {
    "traces.load_dataset": "traces.parse",
    "traces.parse_trace": "traces.parse",
    "traces.write_defended_trace": "traces.serialize",
    "traces.parse_defended_schedule": "traces.parse_defended",
    "traces.attach_sources": "traces.attach",
    "regulator.simulate_download": "regulator.download",
    "regulator.simulate_upload": "regulator.upload",
    "regulator.apply_regulator": "regulator.merge",
    "baselines.apply_front": "baselines.front",
    "baselines.apply_tamaraw": "baselines.tamaraw",
    "metrics.trace_overhead": "metrics.overhead",
    "metrics.dataset_overhead": "metrics.overhead",
    "metrics.aggregate_reports": "metrics.overhead",
    "metrics.csv_table": "metrics.overhead",
    "stats.dataset_stats": "stats.dataset",
    "stats.post_tenth_packet_profile": "stats.dataset",
    "stats.iqr_table": "stats.tables",
    "stats.decay_table": "stats.tables",
    "stats.per_second_table": "stats.tables",
    "attack.extract_features": "attack.features",
    "attack.evaluate_closed_world": "attack.knn",
    "tuner.run_trial": "tuner.trial",
    "synth.generate_classes": "synth.generate",
}

# Layers with a per-trace time: layer -> the function called once per trace.
PER_TRACE = {
    "traces.parse": "traces.parse_trace",
    "traces.serialize": "traces.write_defended_trace",
    "traces.parse_defended": "traces.parse_defended_schedule",
    "traces.attach": "traces.attach_sources",
    "regulator.download": "regulator.simulate_download",
    "regulator.upload": "regulator.simulate_upload",
    "baselines.front": "baselines.apply_front",
    "baselines.tamaraw": "baselines.apply_tamaraw",
    "metrics.overhead": "metrics.trace_overhead",
    "attack.features": "attack.extract_features",
}

# Layers whose busy time is the whole call, children included.
INCLUSIVE = {"tuner.trial"}

REPLAYED = ("simulate", "overhead", "stats", "eval", "eval_undefended", "tune")

class Tracer:
    """Spans in memory: [name, start, end, parent index, command, ordinal]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.command = ""
        self.ordinals: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
                  self.command, self.ordinals[name]]
        self.ordinals[name] += 1
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def run_command(self, name: str):
        self.command, self.ordinals = name, Counter()
        with self.span(f"cli.{name}"):
            yield

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                # Its own span, so counting is not charged to the caller's self time.
                with self.span("bench.count"):
                    count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, command, ordinal in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                      "workload": self.workload, "command": command,
                                      "trace": ordinal}) + "\n")


def _count_parse(c, args, kwargs, trace):
    c["traces.bytes_read"] += len(args[0])
    c["traces.parse.packets"] += len(trace)


def _count_parse_defended(c, args, kwargs, rows):
    c["traces.bytes_read"] += len(args[0])


def _count_serialize(c, args, kwargs, text):
    c["traces.bytes_written"] += len(text)


def _count_download(c, args, kwargs, schedule):
    from wfdefend.regulator import ACTIVATION_PACKETS

    slots = len(schedule.slots)
    sent_in_slots = len(schedule.packets) - ACTIVATION_PACKETS if slots else 0
    c["regulator.download.slots"] += slots
    c["regulator.download.silent"] += slots - sent_in_slots


def _count_upload(c, args, kwargs, packets):
    from wfdefend.traces import PacketKind

    cap = args[1].C
    real = [p for p in packets if p.kind is PacketKind.REAL]
    c["regulator.upload.real"] += len(real)
    c["regulator.upload.flushes"] += sum(1 for p in real if p.send_time == p.source_time + cap)


def _count_defended(prefix):
    def count(c, args, kwargs, defended):
        c[f"{prefix}.packets"] += len(defended)
        c[f"{prefix}.dummies"] += defended.dummy_count()

    return count


def _count_knn(c, args, kwargs, result):
    """Distance rows: sum over folds of test rows x training rows. Folds are
    stratified, so a class of n traces puts n//F (+1 for the first n%F
    folds) in each of the F folds."""
    dataset, folds = args[0], kwargs.get("folds", 10)
    sizes = Counter()
    for n in Counter(t.label for t in dataset.traces).values():
        for f in range(folds):
            sizes[f] += n // folds + (1 if f < n % folds else 0)
    c["attack.knn.distance_rows"] += sum(s * (len(dataset) - s) for s in sizes.values())


COUNTERS = {
    "traces.parse_trace": _count_parse,
    "traces.parse_defended_schedule": _count_parse_defended,
    "traces.write_defended_trace": _count_serialize,
    "regulator.simulate_download": _count_download,
    "regulator.simulate_upload": _count_upload,
    "regulator.apply_regulator": _count_defended("regulator"),
    "baselines.apply_front": _count_defended("baselines.front"),
    "baselines.apply_tamaraw": _count_defended("baselines.tamaraw"),
    "attack.evaluate_closed_world": _count_knn,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper in each wfdefend module
    that holds it, and put the originals back afterwards."""
    import importlib

    modules = [m for name, m in sys.modules.items() if name == "wfdefend" or name.startswith("wfdefend.")]
    swapped = []
    try:
        for qualname in TRACED:
            module_name, attr = qualname.split(".")
            original = getattr(importlib.import_module(f"wfdefend.{module_name}"), attr)
            wrapper = tracer.wrap(qualname, original, COUNTERS.get(qualname))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, original))
        yield
    finally:
        for module, attr, original in swapped:
            setattr(module, attr, original)


def import_program():
    """Import wfdefend from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(harness.SRC))
    import wfdefend.cli

    if Path(wfdefend.__file__).resolve().parent != (harness.SRC / "wfdefend").resolve():
        raise RuntimeError(f"imported wfdefend from {wfdefend.__file__}, not {harness.SRC}")
    return wfdefend


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of the spans nested in it."""
    nested = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            nested[parent] += end - start
    return [end - start - nested[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def tail(samples: list) -> tuple:
    """(percentile, value): the highest of p99/p95/p90/p80 with at least
    ten samples beyond it, else the maximum."""
    n = len(samples)
    for p in (99, 95, 90, 80):
        if n * (100 - p) >= 1000:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return 100, max(samples)


def ratio(a: float, b: float) -> float:
    return a / b if b else float("nan")


def layer_metrics(tracer: Tracer, own: list, untraced: dict, setup_s: float, knn_half: tuple) -> tuple:
    spans = tracer.spans
    busy = defaultdict(float)
    per_trace = defaultdict(list)
    for i, (name, start, end, *_rest) in enumerate(spans):
        layer = TRACED.get(name)
        if layer is not None:
            busy[layer] += (end - start) if layer in INCLUSIVE else own[i]
        per_trace[name].append((end - start) * 1000.0)

    values, notes = {}, {}
    for layer in dict.fromkeys(TRACED.values()):
        values[f"{layer}.busy_s"] = busy[layer]
        if layer in PER_TRACE:
            samples = per_trace[PER_TRACE[layer]]
            p, value = tail(samples)
            values[f"{layer}.median_ms"] = statistics.median(samples)
            values[f"{layer}.tail_ms"] = value
            notes[layer] = f"{len(samples)} calls, tail = p{p}"
    c = tracer.counts
    values.update({
        "traces.parse.pkts_per_s": ratio(c["traces.parse.packets"], busy["traces.parse"]),
        "traces.bytes_read": c["traces.bytes_read"],
        "traces.bytes_written": c["traces.bytes_written"],
        "regulator.download.slots": c["regulator.download.slots"],
        "regulator.download.silent_frac": ratio(c["regulator.download.silent"], c["regulator.download.slots"]),
        "regulator.upload.flush_frac": ratio(c["regulator.upload.flushes"], c["regulator.upload.real"]),
        "regulator.dummy_frac": ratio(c["regulator.dummies"], c["regulator.packets"]),
        "baselines.front.dummy_frac": ratio(c["baselines.front.dummies"], c["baselines.front.packets"]),
        "baselines.tamaraw.dummy_frac": ratio(c["baselines.tamaraw.dummies"], c["baselines.tamaraw.packets"]),
        "attack.knn.distance_rows": c["attack.knn.distance_rows"],
    })
    (n_full, t_full), (n_half, t_half) = knn_half
    values["attack.knn.scaling_exp"] = math.log(t_full / t_half) / math.log(n_full / n_half)
    notes["attack.knn.scaling"] = f"{t_full:.3f} s at {n_full} traces, {t_half:.3f} s at {n_half}"
    for name in REPLAYED:
        # Time in the command outside every traced layer (file I/O, argv,
        # formatting), plus interpreter start-up, which the replay skips.
        root_span = next(i for i, s in enumerate(spans) if s[0] == f"cli.{name}" and s[3] is None)
        values[f"cli.{name}.other_s"] = own[root_span] + setup_s
    values["cli.pool.speedup"] = untraced["simulate"] / untraced["simulate_j2"]
    traced_total = sum(end - start for name, start, end, parent, *_ in spans
                       if parent is None and name[len("cli."):] in REPLAYED)
    untraced_total = sum(untraced[name] - setup_s for name in REPLAYED)
    values["trace.overhead_frac"] = traced_total / untraced_total - 1.0
    notes["trace.overhead"] = (f"traced replay {traced_total:.3f} s vs untraced {untraced_total:.3f} s "
                               f"(command wall minus {setup_s:.3f} s start-up)")
    return values, notes


def knn_self_time(spans: list, own: list, command: str) -> float:
    return sum(t for s, t in zip(spans, own) if s[0] == "attack.evaluate_closed_world" and s[4] == command)


def traced_run(spec, seed: int, work: Path, out_dir: Path) -> tuple:
    """Returns (ops, per-layer metrics with units, record extras)."""
    wfdefend = import_program()
    from wfdefend import attack, baselines, presets, seeding
    from wfdefend.traces import Dataset, load_dataset

    data = work / "data"
    reference = harness.recorded_digests(spec.name, seed)
    synth = harness.generate(spec, seed, data, work)
    harness.check_dataset(spec, data, synth, reference)
    setup_s = statistics.median(op.wall_s for op in harness.measure_setup(work, 3))
    rounds = work / "round"
    untraced = harness.run_round(spec, seed, data, rounds)
    digests = harness.check_round(spec, verify.original_counts(data), rounds, untraced, reference)
    ops = [synth, *untraced.values()]

    dataset = load_dataset(data)
    labels = sorted({t.label for t in dataset.traces}, key=int)[: math.ceil(spec.classes / 2)]
    half = Dataset(tuple(t for t in dataset.traces if t.label in set(labels)), name="half")

    tracer = Tracer(spec.name)
    replay = work / "traced"
    replay.mkdir()
    stdout = {}
    commands = dict(harness.round_commands(spec, seed, data, replay))
    with installed(tracer):
        with tracer.run_command("synth"):
            with contextlib.redirect_stdout(io.StringIO()):
                wfdefend.cli.main(["synth", "--out", str(work / "data_traced"), "--seed", str(seed),
                                   *spec.synth_args()])
        for name in REPLAYED:
            op = harness.Op(f"traced_{name}", commands[name])
            buffer = io.StringIO()
            with tracer.run_command(name), contextlib.redirect_stdout(buffer):
                op.returncode = wfdefend.cli.main(commands[name][3:])
            stdout[name] = op.stdout = buffer.getvalue()
            ops.append(op)
        with tracer.run_command("probe"):
            front, tamaraw = presets.FRONT_PRESETS["front-2500"], presets.TAMARAW_PRESETS["tamaraw"]
            for i, trace in enumerate(dataset.traces[:PROBE_TRACES]):
                baselines.apply_front(trace, front, seeding.stable_seed(seed, "probe", i))
                baselines.apply_tamaraw(trace, tamaraw)
        with tracer.run_command("knn_half"):
            attack.evaluate_closed_world(half, k=5, folds=10, seed=seed)

    # The replay must write what the child processes wrote.
    traced_digests = verify.digest_outputs(replay, stdout)
    problems = verify.compare_digests(traced_digests, digests)
    if verify.tree_digest(work / "data_traced") != verify.tree_digest(data):
        problems.append(("synth", "in-process synth differs from the child's"))
    by_name = {op.name: op for op in ops}
    for command, text in problems:
        by_name.get(f"traced_{command}", synth).problems.append(text)

    own = self_times(tracer.spans)
    knn = ((len(dataset), knn_self_time(tracer.spans, own, "eval_undefended")),
           (len(half), knn_self_time(tracer.spans, own, "knn_half")))
    walls = {name: op.wall_s for name, op in untraced.items()}
    values, notes = layer_metrics(tracer, own, walls, setup_s, knn)
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{spec.name}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    for layer, note in notes.items():
        print(f"note {layer}: {note}")
    metrics = harness.with_units(values, "per_layer")
    extras = {"spans": spans_path.name, "span_count": len(tracer.spans),
              "notes": notes, "untraced_wall_s": walls, "digests": digests}
    return ops, metrics, extras
