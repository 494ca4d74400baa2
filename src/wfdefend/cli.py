"""Command-line entry point for reproducible batch workflows.

Subcommands: simulate, overhead, stats, eval, tune, adjust, synth.
Exit codes: 0 success, 1 usage error, 2 data error. Every randomized
command requires an explicit --seed; there is no wall-clock default, so
reruns with the same seed are byte-identical regardless of --jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .attack import check_folds, evaluate_closed_world, feature_matrix, feature_matrix_csv
from .metrics import aggregate_reports, csv_table, kv_lines, trace_overhead
from .presets import (
    OVERRIDE_FIELDS,
    REGULATOR_PRESETS,
    DefenseParams,
    defense_names,
    resolve_defense,
)
from .regulator import RegulatorParams
from .seeding import stable_seed
from .stats import (
    dataset_stats,
    decay_table,
    iqr_table,
    per_second_table,
    post_tenth_packet_profile,
    volume_adjustment,
)
from .synth import generate_classes, separable_profiles
from .traces import (
    ParseError,
    attach_sources,
    load_dataset,
    parse_defended_schedule,
    parse_trace,
    write_defended_trace,
    write_trace,
)
from .tuner import (
    LossWeights,
    SearchSpace,
    TrialRecord,
    parse_trial_json,
    random_search,
    trial_json,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    for name in OVERRIDE_FIELDS:
        parser.add_argument(f"--{name}", type=float, default=None,
                            help=f"override regulator parameter {name}")


def _defense(args, name: Optional[str]) -> Optional[DefenseParams]:
    """The params of preset `name` with this command's --R ... --C
    overrides; None when there is no preset and no override."""
    overrides = {field: getattr(args, field) for field in OVERRIDE_FIELDS}
    if name is None:
        if any(value is not None for value in overrides.values()):
            raise UsageError("parameter overrides need a regulator --defense")
        return None
    try:
        return resolve_defense(name, overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_seed(args, randomized: bool = True) -> int:
    if args.seed is None:
        if randomized:
            raise UsageError("--seed is required for randomized commands")
        return 0
    return args.seed


def _require_k(args) -> None:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")


def _print_params(params) -> None:
    for name, value in asdict(params).items():
        print(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}")


def _simulate_one(task: tuple[str, str, DefenseParams, int]):
    """Defend one trace file; top-level so worker processes can run it."""
    name, text, params, sub_seed = task
    try:
        trace = parse_trace(text)
        defended = params.apply(trace, sub_seed)
    except ValueError as exc:  # a ParseError or a defense that cannot run
        raise ValueError(f"{name}: {exc}") from None
    report = trace_overhead(trace, defended) if len(trace) and trace.duration > 0 else None
    return name, write_defended_trace(defended), report


def cmd_simulate(args) -> int:
    params = _defense(args, args.defense)
    seed = _require_seed(args, params.randomized)

    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise ValueError(f"not a directory: {in_dir}")
    files = sorted(p for p in in_dir.iterdir() if p.is_file())
    if not files:
        raise ValueError(f"no trace files in {in_dir}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Each result is written to a staging directory beside out_dir as it
    # arrives, so finished results are not held in memory, and moved into
    # out_dir only once every trace is defended: a data error part-way
    # through leaves out_dir as it was.
    tasks = (
        (p.name, p.read_text(encoding="utf-8"), params, stable_seed(seed, p.name))
        for p in files
    )
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    reports = []
    names = []
    try:
        with contextlib.ExitStack() as stack:
            if args.jobs > 1:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
                results = pool.map(_simulate_one, tasks, chunksize=8)
            else:
                results = map(_simulate_one, tasks)
            for name, text, report in results:
                (staging / name).write_text(text, encoding="utf-8")
                if report is not None:
                    reports.append(report)
                    names.append(name)
        for p in files:
            os.replace(staging / p.name, out_dir / p.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    if reports:
        overhead = aggregate_reports(reports)
        report_path = out_dir.parent / f"{out_dir.name}.overhead.csv"
        report_path.write_text(csv_table(overhead, names), encoding="utf-8")
        for line in kv_lines(overhead):
            print(line)
        print(f"report={report_path}")
    else:
        print("traces=0 (no non-degenerate traces; overhead not reported)")
    return EXIT_OK


def cmd_overhead(args) -> int:
    original_dir = Path(args.original)
    defended_dir = Path(args.defended)
    dataset = load_dataset(original_dir)
    assert dataset.filenames is not None
    reports = []
    names = []
    for name, original in zip(dataset.filenames, dataset.traces):
        defended_path = defended_dir / name
        if not defended_path.is_file():
            raise ValueError(f"no defended trace for {name} in {defended_dir}")
        schedule = parse_defended_schedule(defended_path.read_text(encoding="utf-8"))
        defended = attach_sources(original, schedule)
        if len(original) and original.duration > 0:
            reports.append(trace_overhead(original, defended))
            names.append(name)
    if not reports:
        raise ValueError("no non-degenerate trace pairs to report on")
    overhead = aggregate_reports(reports)
    for line in kv_lines(overhead):
        print(line)
    if args.out:
        Path(args.out).write_text(csv_table(overhead, names), encoding="utf-8")
    return EXIT_OK


def cmd_stats(args) -> int:
    dataset = load_dataset(Path(args.input))
    summary = dataset_stats(dataset)
    profile = post_tenth_packet_profile(dataset)
    print(f"traces={summary.trace_count}")
    print(f"skipped_files={dataset.skipped}")
    print(f"median_time_iqr={summary.median_iqr:.6f}")
    print(f"mean_packet_count={summary.mean_packet_count:.6f}")
    print(f"mean_duration={summary.mean_duration:.6f}")
    print(f"download_upload_ratio={summary.download_upload_ratio:.6f}")
    print(f"post_tenth_median_offset={profile.median_offset:.6f}")
    print(f"post_tenth_skipped_traces={profile.skipped}")
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}_traces.csv").write_text(iqr_table(dataset), encoding="utf-8")
        Path(f"{prefix}_decay.csv").write_text(decay_table(profile), encoding="utf-8")
        Path(f"{prefix}_per_second.csv").write_text(
            per_second_table(dataset), encoding="utf-8"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    params = _defense(args, args.defense)
    seed = _require_seed(args)
    _require_k(args)

    dataset = load_dataset(Path(args.input))
    check_folds(dataset, args.folds)  # before any trace is defended
    observed = dataset.traces
    if params is not None:
        # A generator: each defended trace is dropped once its row is made.
        observed = (
            params.apply(trace, stable_seed(seed, name))
            for trace, name in zip(dataset.traces, dataset.filenames)
        )
    features = feature_matrix(observed)
    result = evaluate_closed_world(
        dataset, features=features, k=args.k, folds=args.folds, seed=seed
    )
    print(f"accuracy={result.accuracy:.6f}")
    print(f"folds={result.fold_count}")
    for label in sorted(result.per_class_accuracy):
        print(f"class_{label}={result.per_class_accuracy[label]:.6f}")
    if args.features_out:
        Path(args.features_out).write_text(
            feature_matrix_csv(dataset, features), encoding="utf-8"
        )
    return EXIT_OK


def _read_trial_log(log_path: Path, seed: int) -> list[TrialRecord]:
    """Records of an existing trial log, ready for appending.

    A last line without its newline that does not parse is a torn write:
    it is cut from the file with a warning and its trial runs again. A
    malformed line anywhere else is a data error.
    """
    if not log_path.is_file():
        return []
    raw = log_path.read_bytes()
    lines = raw.decode("utf-8").split("\n")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record, master = parse_trial_json(line)
        except (ValueError, KeyError, TypeError) as exc:
            if lineno < len(lines):
                raise ValueError(
                    f"{log_path} line {lineno}: malformed trial record: {exc}"
                ) from None
            logger.warning("dropping torn last line of %s: %s", log_path, exc)
            os.truncate(log_path, raw.rfind(b"\n") + 1)
            break
        if master != seed:
            raise ValueError(f"trial log {log_path} was produced with seed {master}, not {seed}")
        records.append(record)
    else:
        if raw and not raw.endswith(b"\n"):
            # A complete last record whose newline was lost.
            with log_path.open("a", encoding="utf-8") as log:
                log.write("\n")
    return records


def cmd_tune(args) -> int:
    _require_k(args)
    if args.weights:
        weights_path = Path(args.weights)
        if not weights_path.is_file():
            raise ValueError(f"weights file not found: {weights_path}")
        weights = LossWeights(**json.loads(weights_path.read_text(encoding="utf-8")))
    else:
        weights = LossWeights()
    if args.space:
        space_path = Path(args.space)
        if not space_path.is_file():
            raise ValueError(f"space file not found: {space_path}")
        raw = json.loads(space_path.read_text(encoding="utf-8"))
        space = SearchSpace(**{k: tuple(v) for k, v in raw.items()})
    else:
        space = SearchSpace()

    dataset = load_dataset(Path(args.input))
    log_path = Path(args.log)
    existing = _read_trial_log(log_path, args.seed)
    start = len(existing)
    if start > args.trials:
        start = args.trials

    new_records = []
    if start < args.trials:
        with log_path.open("a", encoding="utf-8") as log:
            new_records = random_search(
                dataset,
                space,
                weights,
                trials=args.trials,
                seed=args.seed,
                eval_k=args.k,
                eval_folds=args.folds,
                start_trial=start,
                on_trial=lambda rec: log.write(trial_json(rec, args.seed) + "\n"),
            )
    ranked = sorted(existing + list(new_records), key=lambda r: (r.loss, r.trial_index))
    print("trial,loss,accuracy,mean_bandwidth,mean_latency,R,D,T,N,U,C")
    for r in ranked[: args.trials]:
        p = r.params
        print(
            f"{r.trial_index},{r.loss:.6f},{r.accuracy:.6f},{r.mean_bandwidth:.6f},"
            f"{r.mean_latency:.6f},{p.R:.4f},{p.D:.4f},{p.T:.4f},{p.N},{p.U:.4f},{p.C:.4f}"
        )
    return EXIT_OK


def cmd_adjust(args) -> int:
    params = _defense(args, args.preset)
    if not isinstance(params, RegulatorParams):
        raise UsageError(
            f"not a regulator preset: {args.preset!r}; "
            f"expected one of {sorted(REGULATOR_PRESETS)}"
        )
    if args.reference <= 0 or args.target <= 0:
        raise UsageError("--reference and --target must be positive packet counts")
    adjusted = volume_adjustment(args.reference, args.target, params)
    _print_params(adjusted)
    return EXIT_OK


def cmd_synth(args) -> int:
    _require_seed(args)
    profiles = separable_profiles(
        args.classes,
        base_total=args.base_total,
        step=args.step,
        upload_fraction=args.upload_fraction,
        jitter=args.jitter,
    )
    dataset = generate_classes(profiles, args.instances, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = 0
    for profile in profiles:
        for instance in range(args.instances):
            name = f"{profile.class_id}-{instance}"
            (out_dir / name).write_text(
                write_trace(dataset.traces[index]), encoding="utf-8"
            )
            index += 1
    print(f"traces={index}")
    print(f"out={out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wfdefend",
        description="Simulate and evaluate website-fingerprinting defenses on trace datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="defend every trace in a directory")
    p.add_argument("input", help="directory of undefended traces")
    p.add_argument("--out", required=True, help="output directory (same filenames)")
    p.add_argument("--defense", required=True,
                   help=f"defense preset: {', '.join(defense_names())}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_overrides(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("overhead", help="overheads of an on-disk defended dataset")
    p.add_argument("original", help="directory of undefended traces")
    p.add_argument("defended", help="directory of defended traces (same filenames)")
    p.add_argument("--out", default=None, help="per-trace CSV output path")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("stats", help="trace-population statistics")
    p.add_argument("input", help="directory of traces")
    p.add_argument("--out", default=None, help="prefix for plot-ready CSV tables")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="closed-world nearest-neighbor evaluation")
    p.add_argument("input", help="directory of labeled traces (<site>-<instance>)")
    p.add_argument("--defense", default=None,
                   help="optional defense applied before evaluation")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--features-out", default=None,
                   help="write the evaluated feature matrix as CSV")
    _add_overrides(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="random search over regulator parameters")
    p.add_argument("input", help="directory of labeled traces")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--space", default=None, help="JSON file of parameter intervals")
    p.add_argument("--weights", default=None, help="JSON file of loss weights")
    p.add_argument("--log", default="trials.jsonl", help="append-only trial log")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("adjust", help="rescale a preset for a different traffic volume")
    p.add_argument("--preset", required=True)
    p.add_argument("--reference", type=float, required=True,
                   help="mean packet count of the tuning dataset")
    p.add_argument("--target", type=float, required=True,
                   help="mean packet count of the target dataset")
    _add_overrides(p)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base-total", type=int, default=150, dest="base_total")
    p.add_argument("--step", type=int, default=3)
    p.add_argument("--upload-fraction", type=float, default=0.2, dest="upload_fraction")
    p.add_argument("--jitter", type=float, default=0.01)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"wfdefend: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"wfdefend: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
