"""Packet-trace data model, dataset container, and trace file I/O.

Trace files are UTF-8 text, one packet per line: `time<TAB>direction` where
the direction is a signed number (+ = upload, - = download; the magnitude,
e.g. a cell size, is ignored). Defended traces add a third column marking
each packet real or dummy: `time<TAB>±1<TAB>{R,D}`.

Traces are columnar. A Trace holds a float64 `times` array and an int8
`direction` array (+1 upload, -1 download); a DefendedTrace holds
`send_time`, `direction` and `source_time`, where a NaN source marks a
dummy, and derives its bool `dummy` mask from that. Constructors copy the
columns into read-only arrays and validate them once, vectorized.
Iterating a trace yields per-packet row views (`Packet`, `DefendedPacket`)
built on demand, for inspection and tests.

read_trace is the one rule for a usable trace file; iter_dataset and
load_dataset walk a directory by it, skipping and naming the rest.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

# Output times are quantized to microseconds; dataset precision is coarser.
TIME_DECIMALS = 6

# Most slots a simulator runs for one trace (regulator padding budget,
# silent download slots, upload prelude, Tamaraw slots per direction) and
# most rows of a per-second table. A paper-scale trace needs a few
# thousand; past the limit an input is rejected with a ValueError instead
# of running without bound.
MAX_SLOTS = 1_000_000


def check_count(name: str, value: object, low: int) -> None:
    """Reject a count of packets or slots that is not an int (a bool is
    not one) from `low` (0 or 1) to MAX_SLOTS."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    if value > MAX_SLOTS:
        raise ValueError(f"{name} must be at most {MAX_SLOTS} packets, got {value}")


def check_positive(name: str, value: object, or_zero: bool = False) -> None:
    """Reject a rate, threshold, time or weight that is not a finite number
    (a bool is not one) above 0, or at or above 0 when `or_zero`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        (0 <= value if or_zero else 0 < value) and value < math.inf
    ):
        raise ValueError(f"{name} must be finite and {'>=' if or_zero else '>'} 0, got {value!r}")


T = TypeVar("T")


class Direction(IntEnum):
    """Packet direction. UPLOAD is client-to-network, written as +1."""

    UPLOAD = 1
    DOWNLOAD = -1


class PacketKind(Enum):
    REAL = "R"
    DUMMY = "D"


class ParseError(ValueError):
    """Malformed trace file; the message names the offending line."""


class Packet(NamedTuple):
    """Row view of one packet of a Trace."""

    time: float
    direction: Direction


class DefendedPacket(NamedTuple):
    """Row view of one packet of a DefendedTrace; dummies carry no source time."""

    send_time: float
    direction: Direction
    kind: PacketKind
    source_time: Optional[float] = None

    @property
    def delay(self) -> float:
        if self.source_time is None:
            return 0.0
        return self.send_time - self.source_time


def _column(values, dtype, name: str, length: Optional[int] = None) -> np.ndarray:
    """Read-only one-dimensional copy of `values`."""
    array = np.array(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and len(array) != length:
        raise ValueError(f"{name} has {len(array)} entries, expected {length}")
    array.flags.writeable = False
    return array


def _direction_column(values, length: int) -> np.ndarray:
    direction = _column(values, np.int8, "direction", length)
    if not np.all((direction == 1) | (direction == -1)):
        raise ValueError("direction must be +1 (upload) or -1 (download)")
    return direction


def _check_sorted(times: np.ndarray, message: str) -> None:
    if not np.isfinite(times).all():
        raise ValueError("packet times must be finite")
    if (times[1:] < times[:-1]).any():
        raise ValueError(message)


@dataclass(frozen=True, eq=False)
class Trace:
    """Time-ordered packets of one page load, times relative to the first packet.

    Build one from any two equal-length sequences, e.g.
    `Trace(times=[0.0, 0.5], direction=[1, -1], label="site")`.
    """

    times: np.ndarray
    direction: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        times = _column(self.times, np.float64, "times")
        direction = _direction_column(self.direction, len(times))
        negative = times < 0.0
        if negative.any():
            raise ValueError(f"packet time must be >= 0, got {float(times[negative][0])}")
        _check_sorted(times, "trace packets must be sorted by non-decreasing time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "direction", direction)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Packet]:
        for time, direction in zip(self.times.tolist(), self.direction.tolist()):
            yield Packet(time, Direction(direction))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.direction, other.direction)
        )

    def times_of(self, direction: Direction) -> np.ndarray:
        return self.times[self.direction == direction]

    def count(self, direction: Direction) -> int:
        return int(np.count_nonzero(self.direction == direction))

    @property
    def duration(self) -> float:
        if not len(self.times):
            return 0.0
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True, eq=False)
class DefendedTrace:
    """Defended packet schedule and the download padding budget drawn for it.

    Real packets carry the availability time of the original packet they
    deliver (`source_time`) and are never sent before it; a NaN source time
    is what marks a dummy, and `dummy` is that mask, derived once.
    `drawn_budget` is the realized download padding budget. At equal send
    times the download side is listed before the upload side, and
    earlier-queued packets first.
    """

    send_time: np.ndarray
    direction: np.ndarray
    source_time: np.ndarray
    drawn_budget: int = 0
    dummy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        send = _column(self.send_time, np.float64, "send_time")
        n = len(send)
        direction = _direction_column(self.direction, n)
        source = _column(self.source_time, np.float64, "source_time", n)
        if np.isinf(source).any():
            raise ValueError("source_time must be finite, or NaN for a dummy")
        early = send < source  # False at a NaN source
        if early.any():
            i = int(np.argmax(early))
            raise ValueError(
                f"real packet sent at {float(send[i])} before its source "
                f"time {float(source[i])}"
            )
        if self.drawn_budget < 0:
            raise ValueError("drawn_budget must be non-negative")
        _check_sorted(send, "defended packets must be sorted by send_time")
        dummy = np.isnan(source)
        dummy.flags.writeable = False
        for name, column in (
            ("send_time", send), ("direction", direction), ("source_time", source),
            ("dummy", dummy),
        ):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.send_time)

    def __iter__(self) -> Iterator[DefendedPacket]:
        for send, direction, dummy, source in zip(
            self.send_time.tolist(), self.direction.tolist(),
            self.dummy.tolist(), self.source_time.tolist(),
        ):
            if dummy:
                yield DefendedPacket(send, Direction(direction), PacketKind.DUMMY)
            else:
                yield DefendedPacket(send, Direction(direction), PacketKind.REAL, source)

    def __eq__(self, other):
        if not isinstance(other, DefendedTrace):
            return NotImplemented
        return (
            self.drawn_budget == other.drawn_budget
            and np.array_equal(self.send_time, other.send_time)
            and np.array_equal(self.direction, other.direction)
            and np.array_equal(self.source_time, other.source_time, equal_nan=True)
        )

    def dummy_count(self, direction: Optional[Direction] = None) -> int:
        mask = self.dummy if direction is None else self.dummy & (self.direction == direction)
        return int(np.count_nonzero(mask))


def one_direction(direction: Direction, send_time, source_time) -> DefendedTrace:
    """One direction of a schedule; a NaN source time marks a dummy."""
    return DefendedTrace(send_time, np.full(len(send_time), direction, np.int8), source_time)


def merge(parts: Sequence[tuple], drawn_budget: int) -> DefendedTrace:
    """One DefendedTrace of `parts`, each (send_time, direction, source_time)
    sorted by send time, with one Direction or a column of them; a NaN source
    marks a dummy. At equal send times a stable sort keeps the parts' order."""
    sends, directions, sources = [], [], []
    for send, direction, source in parts:
        send = np.asarray(send, np.float64)
        _check_sorted(send, "each merged part must be sorted by send_time")
        sends.append(send)
        directions.append(np.full(send.shape, direction, np.int8))
        sources.append(source)
    send = np.concatenate(sends)
    order = np.argsort(send, kind="stable")
    return DefendedTrace(
        send[order], np.concatenate(directions)[order], np.concatenate(sources)[order],
        drawn_budget=drawn_budget,
    )


def first_slot_at_or_after(t, gap: float):
    """For each time t >= 0, the least integer k with t <= k * gap in float64:
    the first tick at or after t of the clock 0, gap, 2*gap, ... ceil(t / gap)
    is one off where t / gap and k * gap round apart; one step corrects it."""
    k = np.ceil(np.divide(t, gap))
    k -= (k - 1) * gap >= t
    k += k * gap < t
    return k.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """A set of labeled traces, usually one directory of trace files."""

    traces: tuple[Trace, ...]
    name: str
    filenames: Optional[tuple[str, ...]] = None
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        if self.filenames is not None:
            object.__setattr__(self, "filenames", tuple(self.filenames))
            if len(self.filenames) != len(self.traces):
                raise ValueError("filenames must align with traces")

    def __len__(self) -> int:
        return len(self.traces)


def _read_lines(lines: list[str], defended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, direction values, dummy) of `lines` read one line at a time
    with `str.split` and `float()`; the ParseError names the first bad line."""
    times: list[float] = []
    values: list[float] = []
    dummy: list[bool] = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if defended and len(fields) != 3:
            raise ParseError(f"line {lineno}: expected `time<TAB>±1<TAB>R|D`, got {line!r}")
        if len(fields) < 2:
            raise ParseError(f"line {lineno}: expected `time<TAB>direction`, got {line!r}")
        try:
            time = float(fields[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric time field {fields[0]!r}") from None
        if not np.isfinite(time):
            raise ParseError(f"line {lineno}: non-finite time {fields[0]!r}")
        try:
            value = float(fields[1])
        except ValueError:
            raise ParseError(
                f"line {lineno}: non-numeric direction field {fields[1]!r}"
            ) from None
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite direction {fields[1]!r}")
        if value == 0:
            raise ParseError(f"line {lineno}: zero direction")
        if defended and fields[2] not in ("R", "D"):
            raise ParseError(f"line {lineno}: unknown packet kind {fields[2]!r}")
        times.append(time)
        values.append(value)
        dummy.append(defended and fields[2] == PacketKind.DUMMY.value)
    return np.array(times, np.float64), np.array(values, np.float64), np.array(dummy, np.bool_)


def _line_of(text: str, row: int) -> int:
    """Line number of the row-th (0-based) non-blank line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.split():
            if row == 0:
                return lineno
            row -= 1
    raise IndexError(row)


# One defended line. Two characters, not one, so a token such as `RD` is
# read whole and rejected rather than cut to `R`.
_DEFENDED_ROW = np.dtype([("time", np.float64), ("value", np.float64), ("kind", "U2")])


def _parse_columns(text: str, defended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (times, direction, dummy) of the non-blank lines, in file
    order; `dummy` is all False unless `defended`.

    numpy's C reader splits fields as `str.split` does and reads numbers
    with the routine behind `float()`, so the values are the same. Input it
    refuses (`1_0`, non-ASCII digits, wrong field counts) or whose columns
    fail a check is read again line by line, which accepts what `float()`
    accepts and names the first bad line.
    """
    if not text or text.isspace():  # loadtxt warns on input with no data
        return np.empty(0), np.empty(0, np.int8), np.empty(0, np.bool_)
    lines = text.splitlines()
    try:
        if defended:
            rows = np.loadtxt(lines, dtype=_DEFENDED_ROW, comments=None, ndmin=1)
            times, values, kinds = rows["time"], rows["value"], rows["kind"]
            dummy = kinds == PacketKind.DUMMY.value
            # numpy drops trailing NULs from strings, so `R\0` would read as `R`.
            known_kinds = "\0" not in text and (dummy | (kinds == PacketKind.REAL.value)).all()
        else:
            rows = np.loadtxt(lines, comments=None, usecols=(0, 1), ndmin=2)
            times, values = rows[:, 0], rows[:, 1]
            dummy = np.zeros(len(rows), np.bool_)
            known_kinds = True
        valid = (
            known_kinds
            and np.isfinite(times).all()
            and np.isfinite(values).all()
            and (values != 0).all()
        )
    except ValueError:
        valid = False
    if not valid:
        times, values, dummy = _read_lines(lines, defended)
    return times, np.where(values > 0, np.int8(1), np.int8(-1)), dummy


def parse_trace(text: str, label: Optional[str] = None) -> Trace:
    """Parse trace text into a Trace normalized to start at time 0.

    Lines are sorted if the input is unsorted (stable, so ties keep file
    order). Empty input yields an empty trace. Fields after the first two
    are ignored, so defended files with their dummy lines removed parse
    back directly. Non-finite times and directions are rejected.
    """
    times, direction, _ = _parse_columns(text, defended=False)
    order = np.argsort(times, kind="stable")
    times = times[order]
    if len(times):
        with np.errstate(over="ignore"):
            times -= times[0]
        if not np.isfinite(times[-1]):
            line = _line_of(text, int(order[-1]))
            raise ParseError(f"line {line}: time too far from the first packet's")
    return Trace(times, direction[order], label=label)


def _format_rows(times: np.ndarray, tails: Sequence[str], which: np.ndarray) -> str:
    """One line per time: the time formatted like f"{t:.6f}", then tails[which[i]].

    `%.6f` calls the same formatter as the f-string; one `%` over all rows
    runs the loop in C.
    """
    fields: list = [None] * (2 * len(times))
    fields[::2] = times.tolist()
    fields[1::2] = np.array(tails, dtype=object)[which].tolist()
    return (f"%.{TIME_DECIMALS}f%s" * len(times)) % tuple(fields)


def write_trace(trace: Trace) -> str:
    """Serialize a trace in the time/direction file format."""
    which = (trace.direction < 0).astype(np.intp)
    return _format_rows(trace.times, ("\t1\n", "\t-1\n"), which)


def write_defended_trace(defended: DefendedTrace) -> str:
    """Serialize a defended schedule: `time<TAB>±1<TAB>{R,D}` per packet."""
    tails = ("\t1\tR\n", "\t1\tD\n", "\t-1\tR\n", "\t-1\tD\n")
    which = 2 * (defended.direction < 0) + defended.dummy
    return _format_rows(defended.send_time, tails, which)


def parse_defended_schedule(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a defended trace file into (send_time, direction, dummy) columns,
    stably sorted by send time.

    Source times are not stored on disk; use attach_sources() with the
    original trace to recover per-packet delays.
    """
    times, direction, dummy = _parse_columns(text, defended=True)
    order = np.argsort(times, kind="stable")
    return times[order], direction[order], dummy[order]


def attach_sources(
    original: Trace, schedule: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> DefendedTrace:
    """Rebuild a full DefendedTrace from an original trace and a parsed schedule.

    Real packets are matched to original packets FIFO per direction, which
    the simulators guarantee. Send times quantized on disk may undershoot
    the source time by less than a microsecond; the source is clamped so
    the no-time-travel invariant still holds.
    """
    send, direction, dummy = schedule
    source = np.full(len(send), np.nan)
    # (row, message) of the first mismatch per direction; the earliest row wins.
    problems: list[tuple[int, str]] = []
    missing: list[str] = []
    for d in (Direction.UPLOAD, Direction.DOWNLOAD):
        rows = np.flatnonzero(~dummy & (direction == d))
        queue = original.times_of(d)
        matched = min(len(rows), len(queue))
        if len(rows) > len(queue):
            problems.append((
                int(rows[len(queue)]),
                f"defended schedule has more real {d.name.lower()} packets "
                "than the original trace",
            ))
        sent, available = send[rows[:matched]], queue[:matched]
        early = np.flatnonzero(sent < available - 10.0 ** -TIME_DECIMALS)
        if len(early):
            i = int(early[0])
            problems.append((
                int(rows[i]),
                f"real packet sent at {float(sent[i])} well before source "
                f"{float(available[i])}; schedule does not match the original trace",
            ))
        if len(rows) < len(queue):
            missing.append(f"defended schedule is missing real {d.name.lower()} packets")
        source[rows[:matched]] = np.minimum(available, sent)
    if problems:
        raise ValueError(min(problems)[1])
    if missing:
        raise ValueError(missing[0])
    dummy_downloads = int(np.count_nonzero(dummy & (direction == Direction.DOWNLOAD)))
    return DefendedTrace(send, direction, source, drawn_budget=dummy_downloads)


def label_from_filename(name: str) -> str:
    """Label per the `<site>-<instance>` convention; the site part."""
    return name.rsplit("-", 1)[0]


class UnusableTrace(ValueError):
    """A trace file that no command can use; the message says why."""


def read_trace(path: Path) -> Trace:
    """The trace in file `path`, labeled by its name, if it is usable.

    This is the one rule for a usable trace: the file reads as UTF-8, it
    parses, and its duration is positive, so it has at least 2 packets.
    That is all that features, overhead and statistics need. Anything else
    raises UnusableTrace with the reason.
    """
    try:
        text = path.read_text(encoding="utf-8")
        trace = parse_trace(text, label=label_from_filename(path.name))
    except (OSError, ValueError) as exc:  # ValueError covers ParseError and UnicodeDecodeError
        raise UnusableTrace(str(exc)) from None
    if not trace.duration > 0:
        raise UnusableTrace(f"zero duration, {len(trace)} packet(s)")
    return trace


def _attempt(step: Callable[[Path], T], path: Path) -> tuple[Optional[T], Optional[str]]:
    """(step(path), None), or (None, why) when the file is unusable."""
    try:
        return step(path), None
    except UnusableTrace as exc:
        return None, str(exc)


def iter_dataset(
    root: str | Path,
    step: Callable[[Path], T] = read_trace,
    mapper: Callable = map,
    skipped: Optional[list[tuple[str, str]]] = None,
) -> Iterator[tuple[str, T]]:
    """Lazily yield (filename, step(path)) for each file under `root`, in
    filename order, skipping every file whose `step` raises UnusableTrace.

    `step` reads the file with read_trace and may go on to use the trace;
    `mapper`, such as a process pool's `map`, runs it where the work is
    done. Each skip logs one `skipping <path>: <reason>` warning and is
    appended, as (filename, reason), to `skipped` if given. A directory
    with no usable file is a ValueError, raised once the walk is over.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    # Every path has the same parent, so names sort as the paths would, faster.
    paths = sorted((p for p in root.iterdir() if p.is_file()), key=lambda p: p.name)
    used = 0
    for path, (result, reason) in zip(paths, mapper(partial(_attempt, step), paths)):
        if reason is not None:
            logger.warning("skipping %s: %s", path, reason)
            if skipped is not None:
                skipped.append((path.name, reason))
            continue
        used += 1
        yield path.name, result
    if not used:
        raise ValueError(f"no usable trace files in {root}")


def load_dataset(root: str | Path) -> Dataset:
    """Every usable trace file under `root`, in filename order: iter_dataset
    read into memory, with Dataset.skipped counting the files it skipped."""
    skipped: list[tuple[str, str]] = []
    filenames, traces = zip(*iter_dataset(root, skipped=skipped))
    return Dataset(traces, name=Path(root).name, filenames=filenames, skipped=len(skipped))
