"""Packet-trace data model, dataset container, and trace file I/O.

Trace files are UTF-8 text, one packet per line: `time<TAB>direction` where
the direction is a signed number (+ = upload, - = download; the magnitude,
e.g. a cell size, is ignored). Defended traces add a third column marking
each packet real or dummy: `time<TAB>±1<TAB>{R,D}`.

Traces are columnar. A Trace holds a float64 `times` array and an int8
`direction` array (+1 upload, -1 download); a DefendedTrace holds
`send_time`, `direction` and `source_time`, where a NaN source marks a
dummy, and derives its bool `dummy` mask from that. Each trace is checked
once, where it is made. The public constructors (Trace, DefendedTrace,
merge) copy what they are given into read-only arrays and check it,
vectorized. Code here that has just built columns to those
invariants makes its trace with _prebuilt, without a copy or a second
check: parse_trace, the regulator's two halves (merge then checks the
whole trace), and attach_sources, which checks the schedule it is given
but not the sources it derives. Iterating a DefendedTrace yields
per-packet row views (`DefendedPacket`) built on demand, which the
benchmark's traced replay reads.

Text is written and read in bulk, with the bytes and floats of the
general paths. The writer looks each `%.6f` time up from its count of
microseconds, `rint(t * 1e6)`: that rounds as `%.6f` does unless t * 10**6
lies within the product's rounding error of a half, and those times are
counted from `f"{t:.6f}"` itself (_microseconds). The reader takes the
lines this program writes, `<1-3 digits>.<6 digits><TAB>±1[<TAB>R|D]`, as
m / 1e6, m the integer of the digits: m is exact below 2**53, and one
division is correctly rounded, so it is the float `float()` reads
(_read_canonical). Defended text is this program's own format, so that
reader takes it at any size, and recorded text from 2 KB; all other text
takes the general paths.

read_trace is the one rule for a usable trace file; iter_dataset and
load_dataset walk a directory by it, skipping and naming the rest.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cache, partial
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


class DefendedPacket(NamedTuple):
    """Row view of one packet of a DefendedTrace; dummies carry no source time."""

    send_time: float
    direction: Direction
    kind: PacketKind
    source_time: Optional[float] = None


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
    if not ((direction == 1) | (direction == -1)).all():
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

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.direction, other.direction)
        )

    # Each comparison takes int(direction): numpy compares an int8 array
    # with a plain int about four times faster than with an IntEnum member.
    def times_of(self, direction: Direction) -> np.ndarray:
        return self.times[self.direction == int(direction)]

    def count(self, direction: Direction) -> int:
        return int(np.count_nonzero(self.direction == int(direction)))

    @property
    def duration(self) -> float:
        if not len(self.times):
            return 0.0
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True, eq=False)
class DefendedTrace:
    """Defended packet schedule.

    Real packets carry the availability time of the original packet they
    deliver (`source_time`) and are never sent before it; a NaN source time
    is what marks a dummy, and `dummy` is that mask, derived once. At equal
    send times the download side is listed before the upload side, and
    earlier-queued packets first.
    """

    send_time: np.ndarray
    direction: np.ndarray
    source_time: np.ndarray
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
            np.array_equal(self.send_time, other.send_time)
            and np.array_equal(self.direction, other.direction)
            and np.array_equal(self.source_time, other.source_time, equal_nan=True)
        )

    def dummy_count(self, direction: Optional[Direction] = None) -> int:
        mask = self.dummy if direction is None else self.dummy & (self.direction == int(direction))
        return int(np.count_nonzero(mask))


def _prebuilt(cls: type[T], **columns) -> T:
    """A Trace or DefendedTrace of `columns` that its caller has just built
    to every invariant the constructor checks, as owned, C-contiguous
    arrays of the constructor's dtypes that nothing else writes to. They
    are made read-only, neither copied nor checked again; a DefendedTrace
    derives its `dummy` mask as the constructor does."""
    if cls is DefendedTrace:
        columns["dummy"] = np.isnan(columns["source_time"])
    trace = object.__new__(cls)
    for name, column in columns.items():
        if isinstance(column, np.ndarray):
            column.setflags(write=False)
        object.__setattr__(trace, name, column)
    return trace


def merge(parts: Sequence[tuple]) -> DefendedTrace:
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
        send[order], np.concatenate(directions)[order], np.concatenate(sources)[order]
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
    """A set of labeled traces, usually one directory of trace files; traces
    given without file names are named by their index."""

    traces: tuple[Trace, ...]
    name: str
    filenames: Optional[tuple[str, ...]] = None
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        names = map(str, range(len(self.traces))) if self.filenames is None else self.filenames
        object.__setattr__(self, "filenames", tuple(names))
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


# A canonical line is read as one 16-byte row that ends at the byte after
# its direction's `1`, so the time has the same columns in every row: 3-5
# whole digits (right-aligned), 6 the point, 7-12 the fraction, 13 the tab
# and 14-15 `1` and a newline (a defended line's tab), or `-1`.
_ROW_BYTES = 16
_PAD = b"\n" * _ROW_BYTES  # read before the text, so every row starts inside it
# Below this many bytes numpy's loadtxt reads a recorded file faster than
# the about 30 array operations of _read_canonical (they cross at 100-250
# lines). Defended text is read by _read_canonical at any size.
_BULK_BYTES = 2048


def _words(row: bytes) -> np.ndarray:
    """A 16-byte row as two little-endian 64-bit words."""
    return np.frombuffer(row, "<u8")


@cache
def _row_constants() -> tuple[np.ndarray, ...]:
    """_read_canonical's constants, built on first use:
    (keep, fill, fill_digits, tails, add, below, weights).

    keep[i] keeps a row's first word from column 16 - i, where a line of i
    bytes starts. The bytes before it come from `fill` instead: `0` in the
    columns that a shorter whole part leaves empty, and NUL, which
    canonical text never holds, elsewhere, so that a row of 0 or 4 whole
    digits fails. XORing `fill_digits` into the first word, and
    tails[defended][negative] into the second, turns each digit into its
    value 0-9 and the direction's columns into 0. A byte b lies from `low`
    to `high` when neither b + add, with add = 0x7F - high, nor below - b,
    with below = 0x7F + low, has its high bit set; for ASCII bytes no sum
    or difference carries into the next byte. `weights` holds each
    column's power of ten in microseconds.
    """
    keep = [_words(bytes(_ROW_BYTES - i) + b"\xff" * i)[0] for i in range(_ROW_BYTES + 1)]
    digits = _words(b"\0" * 3 + b"000" + b"\0" + b"000000" + b"\0" * 3)
    fill = _words(b"\0" * 3 + b"00" + b"\0" * 11)[0]
    tails = [
        [_words(b"\0" * 14 + tail)[1] ^ digits[1] for tail in (b"1" + after, b"-1")]
        for after in (b"\n", b"\t")
    ]
    digit = (0, 9)
    allowed = (
        [(0, 0x7F)] * 2 + [(0, 0)] + [digit] * 3 + [(ord("."),) * 2]
        + [digit] * 6 + [(ord("\t"),) * 2] + [(0, 0)] * 2
    )
    add = _words(bytes(0x7F - high for _, high in allowed))
    below = _words(bytes(0x7F + low for low, _ in allowed))
    weights = np.zeros(_ROW_BYTES)
    weights[[3, 4, 5, 7, 8, 9, 10, 11, 12]] = 10.0 ** np.arange(8, -1, -1)
    return np.array(keep), fill, fill ^ digits[0], np.array(tails), add, below, weights


_HIGH_BITS = np.uint64(0x8080808080808080)
_REAL_END, _DUMMY_END = (int.from_bytes(f"1\t{kind}\n".encode(), "little") for kind in "RD")


def _read_canonical(
    text: str, defended: bool
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(times, direction, dummy) of text whose every line is canonical,
    `<1-3 digits>.<6 digits><TAB>1` or `...<TAB>-1`, plus `<TAB>R` or
    `<TAB>D` when `defended`, each ending in `\\n`; else None.

    The text is one byte array. Each line's length is checked before any
    byte is gathered relative to its newline, so every row lies in the line
    or the 16 bytes before it. Each row is then checked one word, 8 bytes,
    at a time (see _row_constants). A time is m / 1e6, where m is the
    integer of its digits: every term and partial sum of the dot product
    that builds m is an integer below 2**53, so m is exact in any order of
    summation, and one IEEE division is correctly rounded. So the time is
    the float nearest the decimal, the same float that `float()` reads.
    """
    if not text.isascii() or "\0" in text or not text.endswith("\n"):
        return None
    data = np.frombuffer(_PAD + text.encode("ascii"), np.uint8)
    newlines = (data == ord("\n")).nonzero()[0]
    ends = newlines[len(_PAD):]
    if defended:
        ends = ends - 2  # at the tab before the kind
    lengths = ends - newlines[len(_PAD) - 1:-1]  # of each line up to `ends`
    if lengths.min() < 11 or lengths.max() > 14:
        return None
    negative = data[ends - 2] == ord("-")
    rows = np.ndarray((len(data) - _ROW_BYTES + 1,), f"V{_ROW_BYTES}", data, 0, (1,))
    words = rows[ends - negative - (_ROW_BYTES - 1)].view("<u8").reshape(-1, 2)
    keep, fill, fill_digits, tails, add, below, weights = _row_constants()
    start, end = words[:, 0], words[:, 1]
    start ^= fill
    start &= keep[lengths - negative]
    start ^= fill_digits
    positive_tail, negative_tail = tails[int(defended)]
    end ^= np.where(negative, negative_tail, positive_tail)
    # One word at a time, so that numpy's inner loop runs over the rows.
    for word, add_word, below_word in zip((start, end), add, below):
        if (((word + add_word) | (below_word - word)) & _HIGH_BITS).any():
            return None
    if defended:
        last = np.ndarray((len(data) - 3,), "<u4", data, 0, (1,))[ends - 1]
        dummy = last == _DUMMY_END
        if not (dummy | (last == _REAL_END)).all():
            return None
    else:
        dummy = np.zeros(len(ends), np.bool_)
    # einsum casts the bytes a buffer at a time; `@` would cast them whole first.
    times = np.einsum("ij,j->i", words.view(np.uint8).reshape(-1, _ROW_BYTES), weights) / 1e6
    return times, 1 - 2 * negative.view(np.int8), dummy


def _parse_columns(text: str, defended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (times, direction, dummy) of the non-blank lines, in file
    order, as new C-contiguous arrays: finite times, directions of ±1, and
    `dummy` all False unless `defended`.

    Canonical text, the shape the writers give, is read by _read_canonical:
    defended text at any size, recorded text from _BULK_BYTES. Other
    defended text is read line by line. Other recorded text goes to numpy's
    C reader, which splits fields as `str.split` does and reads numbers with
    the routine behind `float()`, so the values are the same. Input it
    refuses (`1_0`, non-ASCII digits, wrong field counts) or whose columns
    fail a check is read again line by line, which accepts what `float()`
    accepts and names the first bad line.
    """
    if defended or len(text) >= _BULK_BYTES:
        columns = _read_canonical(text, defended)
        if columns is not None:
            return columns
    if not text or text.isspace():  # loadtxt warns on input with no data
        return np.empty(0), np.empty(0, np.int8), np.empty(0, np.bool_)
    lines = text.splitlines()
    rows = None
    if not defended:
        try:
            rows = np.loadtxt(lines, comments=None, usecols=(0, 1), ndmin=2)
        except ValueError:
            pass
    if rows is not None and np.isfinite(rows).all() and (rows[:, 1] != 0).all():
        # A copy, so the times do not keep the whole two-column array alive.
        times, values, dummy = rows[:, 0].copy(), rows[:, 1], np.zeros(len(rows), np.bool_)
    else:
        times, values, dummy = _read_lines(lines, defended)
    # Every value is finite and nonzero, so its sign is +1 or -1.
    return times, np.sign(values).astype(np.int8), dummy


def parse_trace(text: str, label: Optional[str] = None) -> Trace:
    """Parse trace text into a Trace normalized to start at time 0.

    Lines are sorted if the input is unsorted (stable, so ties keep file
    order). Empty input yields an empty trace. Fields after the first two
    are ignored, so defended files with their dummy lines removed parse
    back directly. Non-finite times and directions are rejected.
    """
    times, direction, _ = _parse_columns(text, defended=False)
    last = len(times) - 1
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        times, direction, last = times[order], direction[order], int(order[-1])
    if len(times):
        # The times are sorted, so no difference overflows unless the last does.
        if not math.isfinite(float(times[-1]) - float(times[0])):
            raise ParseError(f"line {_line_of(text, last)}: time too far from the first packet's")
        times -= times[0]
    # The parsed columns hold every invariant of a Trace.
    return _prebuilt(Trace, times=times, direction=direction, label=label)


# The writer's tables hold whole seconds 0-999, so counts below 10**9 microseconds.
_TABLE_LIMIT_US = 10**9


def _microseconds(times: np.ndarray) -> Optional[np.ndarray]:
    """Each time's f"{t:.6f}" as an int64 count of microseconds, or None
    when a time has its sign bit set (`-0.0` prints `-0.000000`) or rounds
    to _TABLE_LIMIT_US or more (NaN and inf do).

    `%.6f` rounds the exact value x = t * 10**6 to an integer, ties to even.
    The product s = t * 1e6 is within half an ulp of x, at most s * 2**-53,
    so rint(s) rounds x the same way unless x lies within that of a half:
    where `|(|s - rint(s)| - 0.5)| <= s * 2**-51`, four times that bound
    (s - rint(s) is exact), the count is read back from Python's own
    f"{t:.6f}". Outside that guard, x and s lie strictly on the same side
    of the same half, so they round to the same integer.
    """
    scaled = times * 1e6
    counts = np.rint(scaled)
    if np.signbit(times).any() or not (counts < _TABLE_LIMIT_US).all():
        return None
    near = np.abs(np.abs(scaled - counts) - 0.5) <= scaled * 2.0**-51
    for i in np.flatnonzero(near).tolist():
        counts[i] = int(f"{times[i]:.{TIME_DECIMALS}f}".replace(".", ""))
    if not (counts[near] < _TABLE_LIMIT_US).all():
        return None
    return counts.astype(np.int64)


@cache
def _format_tables(tails: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three byte tables of _format_rows, NUL-padded, built on first use:
    whole seconds and the point (`<u4` by whole seconds), four fraction
    digits (`<u4` by their value), and the last two fraction digits with a
    tail of at most 6 bytes (`<u8` by 100ths * len(tails) + tail index)."""
    whole = b"".join(f"{w}.".encode().ljust(4, b"\0") for w in range(1000))
    powers = np.array([1000, 100, 10, 1], np.uint16)
    four = (np.arange(10_000, dtype=np.uint16)[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    last = b"".join(
        f"{f:02d}{tail}".encode().ljust(8, b"\0") for f in range(100) for tail in tails
    )
    return np.frombuffer(whole, "<u4"), four.view("<u4").ravel(), np.frombuffer(last, "<u8")


def _format_rows(times: np.ndarray, tails: tuple[str, ...], which: np.ndarray) -> str:
    """One line per time: the time formatted like f"{t:.6f}", then tails[which[i]].

    Times from 0 up to 1000 s are built by table lookup from their counts
    of microseconds (_microseconds): each row is 16 bytes of three table
    entries, and one `bytes.translate` drops their NUL padding. Any other
    column is formatted one row at a time.
    """
    counts = _microseconds(times)
    if counts is None:
        return "".join(
            f"{t:.{TIME_DECIMALS}f}{tails[w]}" for t, w in zip(times.tolist(), which.tolist())
        )
    whole_table, four_table, last_table = _format_tables(tails)
    whole, fraction = np.divmod(counts, 10**TIME_DECIMALS)
    four, last = np.divmod(fraction, 100)
    rows = np.empty((len(counts), 4), "<u4")
    rows[:, 0] = whole_table[whole]
    rows[:, 1] = four_table[four]
    rows.view("<u8")[:, 1] = last_table[last * len(tails) + which]
    return rows.tobytes().translate(None, b"\0").decode("ascii")


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
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        return times[order], direction[order], dummy[order]
    return times, direction, dummy


def attach_sources(
    original: Trace, schedule: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> DefendedTrace:
    """Rebuild a full DefendedTrace from an original trace and a parsed schedule.

    The schedule is checked first, as DefendedTrace checks it. Then real
    packets are matched to original packets FIFO per direction, uploads
    first, which the simulators guarantee: a direction with another count
    of real packets than the original, or with one sent more than a
    microsecond before its source, is a ValueError. Send times quantized on
    disk may undershoot the source time by less than a microsecond; the
    source is clamped so the no-time-travel invariant still holds.
    """
    send, direction, dummy = schedule
    send = _column(send, np.float64, "send_time")
    direction = _direction_column(direction, len(send))
    _check_sorted(send, "defended packets must be sorted by send_time")
    source = np.full(len(send), np.nan)
    real = ~dummy
    for d in (Direction.UPLOAD, Direction.DOWNLOAD):
        rows = (real & (direction == int(d))).nonzero()[0]
        queue = original.times_of(d)
        if len(rows) > len(queue):
            raise ValueError(
                f"defended schedule has more real {d.name.lower()} packets "
                "than the original trace"
            )
        if len(rows) < len(queue):
            raise ValueError(f"defended schedule is missing real {d.name.lower()} packets")
        sent = send[rows]
        early = sent < queue - 10.0 ** -TIME_DECIMALS
        if early.any():
            i = int(np.argmax(early))
            raise ValueError(
                f"real packet sent at {float(sent[i])} well before source "
                f"{float(queue[i])}; schedule does not match the original trace"
            )
        # Each source is an original time, finite and at most its send.
        source[rows] = np.minimum(queue, sent)
    return _prebuilt(DefendedTrace, send_time=send, direction=direction, source_time=source)


def label_from_filename(name: str) -> str:
    """Label per the `<site>-<instance>` convention; the site part."""
    return name.rsplit("-", 1)[0]


class UnusableTrace(ValueError):
    """A trace file that no command can use; the message says why."""


# Characters that a file name, or the label taken from it, cannot carry
# into a CSV field or a `key=value` line: comma, quote, equals sign, the
# control characters, and the surrogates that stand for a name's bytes
# that are not UTF-8, which no UTF-8 output can encode.
_UNSAFE_NAME = re.compile(r'[,"=\x00-\x1f\x7f-\x9f\ud800-\udfff]')


def read_trace(path: Path) -> Trace:
    """The trace in file `path`, labeled by its name, if it is usable.

    This is the one rule for a usable trace: the file's name is UTF-8 and
    holds none of `,`, `"`, `=` or a control character, since every
    command writes it or its label into a CSV or `key=value` output; the
    file reads as UTF-8;
    it parses; and its duration is positive, so it has at least 2 packets.
    That is all that features, overhead and statistics need. Anything else
    raises UnusableTrace with the reason.
    """
    unsafe = _UNSAFE_NAME.search(path.name)
    if unsafe:
        raise UnusableTrace(
            f"file name holds {unsafe.group()!r}, which the CSV and key=value outputs cannot carry"
        )
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
    # A directory entry knows its type without a stat, except for a link.
    with os.scandir(root) as entries:
        paths = [root / name for name in sorted(e.name for e in entries if e.is_file())]
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
