"""Command-line entry point for reproducible batch workflows.

Subcommands: simulate, overhead, stats, eval, tune, adjust, synth.
Exit codes: 0 success, 1 usage error, 2 data error, and 141 (128 +
SIGPIPE, as the shell reports a process that SIGPIPE ended) when stdout
is closed before the output is written, which ends the command quietly.
Every randomized command requires an explicit --seed; there is no
wall-clock default, so reruns with the same seed are byte-identical
regardless of --jobs. The package registers its modules unrun, so each
subcommand runs the bodies of only the modules it uses.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional, TextIO

from . import attack, metrics, seeding, stats, synth, tuner
from .presets import (
    OVERRIDE_FIELDS,
    REGULATOR_PRESETS,
    DefenseParams,
    defend,
    defense_names,
    resolve_defense,
)
from .regulator import RegulatorParams
from .traces import (
    attach_sources,
    iter_dataset,
    load_dataset,
    parse_defended_schedules,
    write_defended_trace,
    write_trace,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPE = 141


class UsageError(Exception):
    pass


# The least value of each count option, checked for every subcommand that
# has the option before the command runs, so a bad count writes nothing.
COUNT_MINIMUMS = {"k": 1, "jobs": 1, "folds": 2, "trials": 1, "classes": 1, "instances": 1}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e5 or -inf for an option; here any argument that
        # starts as a negative number is a value, refused for what it is.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        # Every failure's prefix; the usage line above names the subcommand.
        self.exit(EXIT_USAGE, f"wfdefend: error: {message}\n")


def _path_of(kind: str) -> Callable[[str], str]:
    """The argparse type of an input or output path: an empty one, which
    would mean the working directory or a default, is refused, naming the
    option."""

    def path(value: str) -> str:
        if not value:
            raise argparse.ArgumentTypeError(f"an {kind} path may not be empty")
        return value

    return path


_input, _output = _path_of("input"), _path_of("output")


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _nearest(path: Path) -> Path:
    """The nearest existing path above `path`, where its output is staged."""
    nearest = path.absolute().parent
    while not nearest.exists():
        nearest = nearest.parent
    return nearest


def _output_path(value: str | Path, *inputs: Optional[str], directory: bool = False) -> Path:
    """`value` as the path of an output file, or of an output directory,
    checked before any trace is read. Every output follows one rule: it is
    none of the paths `inputs` that the command reads, nor inside one, by
    where links lead or by the entry its rename replaces (a usage error);
    the missing directories above it are made when it is written, so the
    nearest existing one must be a directory; `value`, if it exists, must
    be of the kind the output is; and a directory output, put in place by
    one rename, must be new or an empty directory, not a link."""
    path = Path(value)
    entry = os.path.join(os.path.realpath(path.parent), path.name)
    spots = (Path(os.path.realpath(path)), Path(os.path.normpath(entry)))
    for source in filter(None, inputs):
        read = Path(os.path.realpath(source))
        if read in spots or any(read in spot.parents for spot in spots):
            where = "is" if read in spots else "lies inside"
            raise UsageError(f"cannot write {path}: it {where} the input {source}")
    nearest = _nearest(path)
    if not nearest.is_dir():
        raise ValueError(f"cannot write {path}: {nearest} is not a directory")
    if directory and (path.is_symlink() or path.name in ("", "..")):
        raise ValueError(f"cannot write {path}: a directory output may not be a link, . or ..")
    if path.exists() and path.is_dir() != directory:
        raise ValueError(f"cannot write {path}: it is {'not ' if directory else ''}a directory")
    if directory and path.exists() and any(path.iterdir()):
        raise ValueError(f"cannot write {path}: it is a directory that is not empty")
    return path


@contextlib.contextmanager
def _staged(path: Path):
    """Where to make the output `path`: `path.name` in a staging directory
    made in the nearest existing directory above `path`. Only when the block
    ends without an error are the missing directories created and the output
    renamed onto `path` in one `os.replace`, so an error leaves the file
    system as it was and `path` is never seen in part. An output made there
    gets the mode that a plain write or `mkdir` gives."""
    staging = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=_nearest(path)))
    try:
        yield staging / path.name
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staging / path.name, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_whole(path: Path, text: str | Callable[[TextIO], object]) -> None:
    """Write `text` to `path` through `_staged`, so `path` never holds part
    of it. `text` may instead be a function that writes it to the open
    file, so that a long text is never held whole. An error names `path`."""
    try:
        with _staged(path) as made, made.open("w", encoding="utf-8") as out:
            if isinstance(text, str):
                out.write(text)
            else:
                text(out)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _trace_seed(params: DefenseParams, seed: int, name: str) -> int:
    """The seed that defends trace `name`. A defense that draws nothing
    ignores it, so no seed is hashed for it (and hashlib is not loaded)."""
    return seeding.stable_seed(seed, name) if params.randomized else seed


def _simulate_files(params: DefenseParams, seed: int, out_dir: Path, pairs: list):
    """The overhead report of each (path, trace) that iter_dataset hands
    it, once its defended text is written to `out_dir` under its name;
    top-level so worker processes can run it, and write what they make."""
    for path, trace in pairs:
        defended = defend(params, trace, _trace_seed(params, seed, path.name), path.name)
        (out_dir / path.name).write_text(write_defended_trace(defended), encoding="utf-8")
        yield metrics.trace_overhead(trace, defended)


def cmd_simulate(args) -> int:
    params = _defense(args, args.defense)
    seed = _require_seed(args, params.randomized)
    # The pool forks all its workers at its first task, so there are never
    # more than the CPUs this process may run on.
    workers = min(args.jobs, _usable_cpus())
    out_dir = _output_path(args.out, args.input, directory=True)
    report_path = _output_path(out_dir.parent / f"{out_dir.name}.overhead.csv", args.input)

    # Each defended text is written to the staged directory where it is
    # made, so only reports are held; that directory becomes out_dir once
    # all are written.
    with _staged(out_dir) as made, contextlib.ExitStack() as stack:
        made.mkdir()
        pool = None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Each task is one chunk of iter_dataset's files.
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        step = functools.partial(_simulate_files, params, seed, made)
        reports = dict(iter_dataset(args.input, step, pool))
    _print_report(reports, report_path)
    print(f"report={report_path}")
    return EXIT_OK


def _print_report(reports: dict, path: Optional[Path]) -> None:
    """Write the CSV of `reports`, by trace name, to `path` if given; then print the aggregate."""
    overhead = metrics.aggregate_reports(tuple(reports.values()))
    if path:
        _write_whole(path, metrics.csv_table(overhead, tuple(reports)))
    for line in metrics.kv_lines(overhead):
        print(line)


def _defended_text(defended_dir: Path, name: str) -> str:
    path = defended_dir / name
    if not path.is_file():
        raise ValueError(f"no defended trace for {name} in {defended_dir}")
    try:
        return path.read_text(encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


def _overhead_reports(defended_dir: Path, pairs: list):
    """The OverheadReport of each (path, original) that iter_dataset hands
    it, against its defended file. The defended texts are read up to the
    first that cannot be, then parsed in runs; each error names its
    defended file and comes after the reports of the files before it."""
    texts, failure = [], None
    for path, _ in pairs:
        try:
            texts.append(_defended_text(defended_dir, path.name))
        except (OSError, ValueError) as exc:
            failure = exc
            break
    schedules = parse_defended_schedules(texts)
    for (path, original), _ in zip(pairs, texts):
        try:
            schedule = next(schedules)
            yield metrics.trace_overhead(original, attach_sources(original, schedule))
        except ValueError as exc:  # covers ParseError
            raise ValueError(f"{defended_dir / path.name}: {exc}") from None
    if failure is not None:
        raise failure


def cmd_overhead(args) -> int:
    out = _output_path(args.out, args.original, args.defended) if args.out else None
    # Only names and reports are kept; originals are read a run at a time.
    step = functools.partial(_overhead_reports, Path(args.defended))
    _print_report(dict(iter_dataset(args.original, step)), out)
    return EXIT_OK


def cmd_stats(args) -> int:
    suffixes = ("_per_second.csv", "_traces.csv", "_decay.csv")
    outs = [_output_path(f"{args.out}{end}", args.input) for end in suffixes] if args.out else []
    dataset = load_dataset(Path(args.input))
    summary = stats.dataset_stats(dataset)
    profile = stats.post_tenth_packet_profile(dataset)
    print(f"traces={summary.trace_count}")
    print(f"skipped_files={dataset.skipped}")
    print(f"median_time_iqr={summary.median_iqr:.6f}")
    print(f"mean_packet_count={summary.mean_packet_count:.6f}")
    print(f"mean_duration={summary.mean_duration:.6f}")
    print(f"download_upload_ratio={summary.download_upload_ratio:.6f}")
    print(f"post_tenth_median_offset={profile.median_offset:.6f}")
    print(f"post_tenth_skipped_traces={profile.skipped}")
    if outs:
        # The per-second table goes first, as the one table that can refuse a
        # trace (past its row limit): it is staged, so a refusal leaves no table.
        per_second_path, traces_path, decay_path = outs
        _write_whole(per_second_path, functools.partial(stats.per_second_table, dataset))
        _write_whole(traces_path, stats.iqr_table(dataset, summary))
        _write_whole(decay_path, stats.decay_table(profile))
    return EXIT_OK


def cmd_eval(args) -> int:
    params = _defense(args, args.defense)
    seed = _require_seed(args)
    features_out = _output_path(args.features_out, args.input) if args.features_out else None

    dataset = load_dataset(Path(args.input))
    attack.check_folds(dataset, args.folds)  # before any trace is defended
    observed = dataset.traces
    if params is not None:
        # A generator: each defended trace is dropped once its row is made.
        observed = (
            defend(params, trace, _trace_seed(params, seed, name), name)
            for trace, name in zip(dataset.traces, dataset.filenames)
        )
    features = attack.feature_matrix(observed)
    result = attack.evaluate_closed_world(
        dataset, features=features, k=args.k, folds=args.folds, seed=seed
    )
    print(f"accuracy={result.accuracy:.6f}")
    print(f"folds={args.folds}")
    for label in sorted(result.per_class_accuracy):
        print(f"class_{label}={result.per_class_accuracy[label]:.6f}")
    if features_out:
        _write_whole(features_out, attack.feature_matrix_csv(dataset, features))
    return EXIT_OK


def _read_trial_log(log_path: Path, seed: int, fingerprint: dict) -> list[tuner.TrialRecord]:
    """Records of an existing trial log, ready for appending, once the log
    is found to belong to this run (`_check_fingerprint`).

    A last line without its newline that does not parse is a torn write:
    it is cut from the file with a warning and its trial runs again. A
    malformed line anywhere else is a data error, and so is a record whose
    trial is not its place in the log (trial i as the i-th record, from
    0). A refused log is left as it was.
    """
    raw = log_path.read_bytes() if log_path.is_file() else b""
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{log_path}: {exc}") from None
    records, torn = [], None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record, master = tuner.parse_trial_json(line)
        except (ValueError, KeyError, TypeError) as exc:
            if lineno < len(lines):
                raise ValueError(
                    f"{log_path} line {lineno}: malformed trial record: {exc}"
                ) from None
            torn = exc
            break
        if master != seed:
            raise ValueError(f"trial log {log_path} was produced with seed {master}, not {seed}")
        if record.trial_index != len(records):
            raise ValueError(
                f"{log_path} line {lineno}: trial {record.trial_index} "
                f"where trial {len(records)} belongs"
            )
        records.append(record)
    _check_fingerprint(log_path, fingerprint, resuming=bool(records))
    if torn is not None:
        logger.warning("dropping torn last line of %s: %s", log_path, torn)
        os.truncate(log_path, raw.rfind(b"\n") + 1)
    elif raw and not raw.endswith(b"\n"):
        # A complete last record whose newline was lost.
        with log_path.open("a", encoding="utf-8") as log:
            log.write("\n")
    return records


def _flatten(tree: dict, prefix: str = ""):
    """(dotted key, leaf value) of a nested dict, in order."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _fingerprint_path(log_path: Path) -> Path:
    """The file beside a trial log that ties it to the run that writes it."""
    return log_path.with_name(f"{log_path.name}.fingerprint.json")


def _check_fingerprint(log_path: Path, fingerprint: dict, resuming: bool) -> None:
    """Tie the trial log to the run that writes it, through the fingerprint
    file beside it (the log's own bytes hold only trial records).

    A fresh log gets the fingerprint written. A resumed log must have been
    written with the same fingerprint; a mismatch is a ValueError naming the
    first field that differs. A resumed log with no fingerprint cannot be
    shown to fit this run, so it is a ValueError naming the missing file.
    """
    import json

    path = _fingerprint_path(log_path)
    # What the file will hold, read back: tuples come back as lists.
    text = json.dumps(fingerprint, indent=1) + "\n"
    fingerprint = json.loads(text)
    if resuming:
        if not path.is_file():
            raise ValueError(
                f"trial log {log_path} has records but no fingerprint {path}; "
                "it cannot be shown to fit this run"
            )
        old, new = dict(_flatten(_read_json_object(path))), dict(_flatten(fingerprint))
        for key in [*old, *(key for key in new if key not in old)]:
            if old.get(key) != new.get(key):
                raise ValueError(
                    f"trial log {log_path} was produced with {key}={old.get(key)}, "
                    f"not {new.get(key)} (see {path})"
                )
        return
    _write_whole(path, text)


def _read_json_object(path: Path) -> dict:
    """The JSON object in the file at `path`; errors name the file."""
    import json

    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # covers JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: not a JSON object")
    return value


def _json_file(path: Optional[str], what: str, build):
    """`build(**fields)` from the JSON object in the `what` file at `path`,
    `build()` when no path is given; errors name the file."""
    if path is None:
        return build()
    if not Path(path).is_file():
        raise ValueError(f"{what} file not found: {path}")
    fields = _read_json_object(Path(path))
    try:
        return build(**fields)
    except (TypeError, ValueError) as exc:  # an unknown key, a bad interval
        raise ValueError(f"{path}: {exc}") from None


def cmd_tune(args) -> int:
    import hashlib

    inputs = (args.input, args.space, args.weights)
    log_path = _output_path(args.log, *inputs)
    _output_path(_fingerprint_path(log_path), *inputs)
    weights = _json_file(args.weights, "weights", tuner.LossWeights)
    space = _json_file(args.space, "space", tuner.SearchSpace)

    dataset = load_dataset(Path(args.input))
    attack.check_folds(dataset, args.folds)  # before the log is read or written
    fingerprint = {
        "space": asdict(space),
        "weights": asdict(weights),
        "k": args.k,
        "folds": args.folds,
        # Each file the trials read, by a digest of the columns they score:
        # a skipped file changes no result, and a same-size edit is seen.
        "dataset": {
            name: hashlib.blake2b(trace.times.astype("<f8").tobytes()
                                  + trace.direction.tobytes(), digest_size=16).hexdigest()
            for name, trace in zip(dataset.filenames, dataset.traces)
        },
    }
    # A log that holds more trials than asked for ranks only the first ones.
    records = _read_trial_log(log_path, args.seed, fingerprint)[: args.trials]
    if len(records) < args.trials:
        # Line-buffered, so each trial reaches the log as it is scored: a
        # run that is killed keeps every trial it finished.
        with log_path.open("a", encoding="utf-8", buffering=1) as log:
            trials = tuner.random_search(
                dataset, space, weights, trials=args.trials, seed=args.seed,
                eval_k=args.k, eval_folds=args.folds, start_trial=len(records),
            )
            for record in trials:
                log.write(tuner.trial_json(record, args.seed) + "\n")
                records.append(record)
    print("trial,loss,accuracy,mean_bandwidth,mean_latency,R,D,T,N,U,C")
    for r in sorted(records, key=lambda r: (r.loss, r.trial_index)):
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
    try:
        adjusted = stats.volume_adjustment(args.reference, args.target, params)
    except ValueError as exc:  # a bad count, an R that rounds to 0, an N past the limit
        raise UsageError(str(exc)) from None
    for name, value in asdict(adjusted).items():
        print(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}")
    return EXIT_OK


def cmd_synth(args) -> int:
    _require_seed(args)
    out_dir = _output_path(args.out, directory=True)
    profiles = synth.separable_profiles(
        args.classes, base_total=args.base_total, step=args.step,
        upload_fraction=args.upload_fraction, jitter=args.jitter,
    )
    dataset = synth.generate_classes(profiles, args.instances, args.seed)
    with _staged(out_dir) as made:
        made.mkdir()
        for name, trace in zip(dataset.filenames, dataset.traces):
            (made / name).write_text(write_trace(trace), encoding="utf-8")
    print(f"traces={len(dataset)}")
    print(f"out={out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wfdefend",
        description="Simulate and evaluate website-fingerprinting defenses on trace datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="defend every trace in a directory")
    p.add_argument("input", type=_input, help="directory of undefended traces")
    p.add_argument("--out", required=True, type=_output, help="output directory (same filenames)")
    p.add_argument("--defense", required=True,
                   help=f"defense preset: {', '.join(defense_names())}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the number of usable CPUs")
    _add_overrides(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("overhead", help="overheads of an on-disk defended dataset")
    p.add_argument("original", type=_input, help="directory of undefended traces")
    p.add_argument("defended", type=_input, help="directory of defended traces (same filenames)")
    p.add_argument("--out", type=_output, help="per-trace CSV output path")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("stats", help="trace-population statistics")
    p.add_argument("input", type=_input, help="directory of traces")
    p.add_argument("--out", type=_output, help="prefix for plot-ready CSV tables")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="closed-world nearest-neighbor evaluation")
    p.add_argument("input", type=_input, help="directory of labeled traces (<site>-<instance>)")
    p.add_argument("--defense", default=None,
                   help="optional defense applied before evaluation")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--features-out", type=_output,
                   help="write the evaluated feature matrix as CSV")
    _add_overrides(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="random search over regulator parameters")
    p.add_argument("input", type=_input, help="directory of labeled traces")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--space", type=_input, help="JSON file of parameter intervals")
    p.add_argument("--weights", type=_input, help="JSON file of loss weights")
    p.add_argument("--log", default="trials.jsonl", type=_output, help="append-only trial log")
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
    p.add_argument("--out", required=True, type=_output)
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
    # Warnings, such as each skipped trace file, go to this call's stderr.
    stderr_handler = logging.StreamHandler(sys.stderr)
    package_logger = logging.getLogger("wfdefend")
    package_logger.addHandler(stderr_handler)
    try:
        for name, low in COUNT_MINIMUMS.items():
            value = getattr(args, name, low)
            if value < low:
                raise UsageError(f"--{name} must be >= {low}, got {value}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # Whoever reads stdout has gone. Point stdout at the null device, so
        # the interpreter's last flush cannot raise again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except UsageError as exc:
        print(f"wfdefend: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, TypeError) as exc:  # covers ParseError, JSONDecodeError
        print(f"wfdefend: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        package_logger.removeHandler(stderr_handler)


if __name__ == "__main__":
    sys.exit(main())
