import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_compact_columns, float_bits, random_trace, rows

from wfdefend import (
    Dataset,
    DefendedTrace,
    Direction,
    PacketKind,
    ParseError,
    Trace,
    attach_sources,
    load_dataset,
    parse_defended_schedule,
    parse_trace,
    traces,
    write_defended_trace,
    write_trace,
)
from wfdefend.presets import PRESETS
from wfdefend.synth import generate, separable_profiles
from wfdefend.traces import (
    CHUNK_FILES,
    UnusableTrace,
    check_positive,
    first_slot_at_or_after,
    iter_dataset,
    merge,
    read_trace,
)


def test_parse_basic():
    trace = parse_trace("0.0\t1\n0.5\t-1")
    assert list(rows(trace)) == [
        (0.0, Direction.UPLOAD),
        (0.5, Direction.DOWNLOAD),
    ]


def test_parse_normalizes_and_ignores_magnitude():
    trace = parse_trace("2.0\t1\n2.5\t-512")
    assert list(rows(trace)) == [
        (0.0, Direction.UPLOAD),
        (0.5, Direction.DOWNLOAD),
    ]


def test_parse_malformed_field_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_trace("0.0\tx")


def test_parse_zero_direction_rejected():
    with pytest.raises(ParseError, match="zero direction"):
        parse_trace("0.0\t1\n1.0\t0")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400"])
def test_parse_rejects_non_finite_time(bad):
    with pytest.raises(ParseError, match=f"line 2: non-finite time '{bad}'"):
        parse_trace(f"0.0\t1\n{bad}\t-1\n")
    with pytest.raises(ParseError, match="line 3: non-finite time"):
        parse_defended_schedule(f"0.0\t1\tR\n\n{bad}\t-1\tD\n")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_parse_rejects_non_finite_direction(bad):
    # nan once read as a download and inf as an upload.
    with pytest.raises(ParseError, match=f"line 2: non-finite direction '{bad}'"):
        parse_trace(f"0\t1\n1\t{bad}\n2\tinf\n")
    with pytest.raises(ParseError, match=f"line 2: non-finite direction '{bad}'"):
        parse_defended_schedule(f"0\t1\tR\n1\t{bad}\tD\n")


def test_parse_rejects_time_span_overflow():
    with pytest.raises(ParseError, match="line 2: time too far"):
        parse_trace("-1e308\t1\n1e308\t-1\n")


def _reference_rows(text, defended):
    """Line-by-line reading of a trace file: (time, upload?, dummy?) rows in
    file order, or the ParseError message for the first bad line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            if (defended and len(fields) != 3) or len(fields) < 2:
                return f"line {lineno}: expected"
            time = float(fields[0])
        except ValueError:
            return f"line {lineno}: non-numeric time"
        if not np.isfinite(time):
            return f"line {lineno}: non-finite time"
        try:
            value = float(fields[1])
        except ValueError:
            return f"line {lineno}: non-numeric direction"
        if not np.isfinite(value):
            return f"line {lineno}: non-finite direction"
        if value == 0:
            return f"line {lineno}: zero direction"
        if defended and fields[2] not in ("R", "D"):
            return f"line {lineno}: unknown packet kind"
        rows.append((time, value > 0, defended and fields[2] == "D"))
    return rows


_tokens = st.sampled_from(
    ["0", "1", "-1", "+2", "0.5", "1e-3", ".25", "7.", "-512", "inf", "nan", "x", "R", "D",
     "0.0", "-0", "1_0", "\u0661", "RD", "é", "R\x00", "-nan"]
)
_token_lines = st.lists(_tokens, max_size=4).flatmap(
    lambda tokens: st.sampled_from(
        ["\t", " ", " \t ", "\x0c", "\x1f", "\xa0", "\u3000"]
    ).map(lambda sep: sep.join(tokens))
)
# Lines as the writers give them: 1-3 whole digits, either direction, and
# no kind, a real or a dummy.
_canonical_lines = st.builds(
    lambda time, direction, kind: f"{time:.6f}\t{direction}{kind}",
    st.floats(min_value=0.0, max_value=999.9999994),
    st.sampled_from(["1", "-1"]),
    st.sampled_from(["", "\tR", "\tD"]),
)
_lines = st.one_of(_token_lines, _canonical_lines)


def _assert_parses_like_reference(text, defended):
    expected = _reference_rows(text, defended)
    parse = parse_defended_schedule if defended else parse_trace
    if isinstance(expected, str):
        with pytest.raises(ParseError) as error:
            parse(text)
        assert str(error.value).startswith(expected)
        return
    rows = sorted(expected, key=lambda r: r[0])
    if defended:
        send, direction, dummy = parse(text)
        assert send.tolist() == [r[0] for r in rows]
        assert dummy.tolist() == [r[2] for r in rows]
    else:
        trace = parse(text)
        assert_compact_columns(trace)
        send, direction = trace.times, trace.direction
        assert send.tolist() == [r[0] - rows[0][0] for r in rows]
    assert direction.tolist() == [1 if r[1] else -1 for r in rows]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_lines, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r", "\x1e"]),
    st.booleans(),
    st.booleans(),
)
def test_parsers_match_line_by_line_reading(lines, newline, final_newline, defended):
    text = newline.join(lines) + (newline if final_newline else "")
    _assert_parses_like_reference(text, defended)


def _counting_fallback(monkeypatch):
    calls = []
    original = traces._read_lines

    def counting(lines, defended):
        calls.append(defended)
        return original(lines, defended)

    monkeypatch.setattr(traces, "_read_lines", counting)
    return calls


@pytest.mark.parametrize("text, defended", [
    ("0\t1\n1_0\t-1\n", False),  # float() accepts underscores, numpy does not
    ("0\t1\n\u0661\t-1\n", False),  # a non-ASCII digit
    ("0\t1\tR\n1_0\t-1\tD\n", True),
    ("0\t1\tR\n\u0661\t-1\tD\n", True),
    ("0\t1\tR\n1\t-1\n", True),  # ragged: a defended line lacks its kind
    ("0\t1\tR\n1\t-1\tD\tx\n", True),
    ("0\t1\n1\n", False),
    ("0\t1\tR\x00\n", True),  # numpy would read `R\0` as `R`
    ("0\t1\tRD\n", True),  # a one-character kind column would read `RD` as `R`
])
def test_fallback_reads_what_numpy_refuses_or_misreads(monkeypatch, text, defended):
    calls = _counting_fallback(monkeypatch)
    _assert_parses_like_reference(text, defended)
    assert calls == [defended]


def _counting_canonical(monkeypatch):
    """Whether each call of _read_canonical read its text."""
    taken = []
    original = traces._read_canonical

    def counting(text, defended):
        columns = original(text, defended)
        taken.append(columns is not None)
        return columns

    monkeypatch.setattr(traces, "_read_canonical", counting)
    return taken


@pytest.mark.parametrize("text, defended", [
    ("0.000000\t1\n", False),
    ("7.250000\t-1\n12.500001\t1\n999.999999\t-1\n000.000001\t1\n", False),
    ("0.000000\t1\tR\n", True),
    ("7.250000\t-1\tD\n12.500001\t1\tR\n999.999999\t-1\tR\n3.000000\t1\tD\n", True),
])
def test_canonical_text_takes_the_canonical_reader(monkeypatch, text, defended):
    taken = _counting_canonical(monkeypatch)
    _assert_parses_like_reference(text, defended)
    assert taken == [True]


@pytest.mark.parametrize("text, defended", [
    ("0.500000\t1\n1000.000000\t-1\n", False),  # 4 whole digits
    ("0.500000\t1\tR\n1234.500000\t-1\tD\n", True),
    (".500000\t1\n", False),  # none
    ("0.500000\t1\n5.12345\t-1\n", False),  # 5 decimals
    ("5.1234567\t-1\tR\n", True),  # 7
    ("5.123456\t+1\n", False),
    ("5.123456\t+1\tD\n", True),
    ("5.123456\t1 \n", False),  # a trailing space
    ("5.123456\t1\tR \n", True),
    ("5.123456\t1\r\n6.000000\t-1\r\n", False),
    ("5.123456\t1\tR\r\n", True),
    ("5.123456\t1\n6.000000\t-1", False),  # no final newline
    ("5.123456\t1\tR\n6.000000\t-1\tD", True),
    ("5.123456\t1\n\n6.000000\t-1\n", False),  # a blank line
    ("5.123456\t1\tR\n\n", True),
    ("5.123456\t1\tR\x00\n", True),
    # Short defended text that is not canonical reads line by line.
    ("1.5\t-1\tD\n", True),
    ("1e-3\t1\tR\n", True),
    ("\n0.5\t1\tR\n\n\n1.5\t-1\tD\n", True),
    ("0.5\t1\tR\r\n1.5\t-1\tD\r\n", True),
    ("0.5\t1\tR\n1.5\t-1\tR\x00\n", True),
    ("0.5\t1\tR\n1.5\t-1\tX\n", True),
    ("5.123456\t1\tR\n", False),  # a kind where none belongs
    ("5.123456\t1\n", True),  # no kind
    ("1\n", False),  # short lines, which a gather without the length check misreads
    ("1\n2\n", True),
])
def test_near_misses_take_the_general_readers(monkeypatch, text, defended):
    taken = _counting_canonical(monkeypatch)
    _assert_parses_like_reference(text, defended)
    assert taken == [False]


def test_canonical_files_never_reach_the_fallback(monkeypatch):
    calls = _counting_fallback(monkeypatch)
    original = parse_trace("0.0\t1\n0.4\t-1\n0.5\t-512\textra\n")
    defended = PRESETS["front-1700"].apply(original, 1)
    parse_trace(write_trace(original))
    parse_defended_schedule(write_defended_trace(defended))
    assert calls == []


@pytest.mark.parametrize("text", ["", "\n", "\n \n", " \t\r\n\xa0"])
def test_blank_input_is_empty_without_warnings(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_trace(text) == Trace([], [])
        send, direction, dummy = parse_defended_schedule(text)
    assert len(send) == len(direction) == len(dummy) == 0
    assert (send.dtype, direction.dtype, dummy.dtype) == (np.float64, np.int8, np.bool_)


_PAPER_TEXT = write_trace(generate(separable_profiles(1, base_total=2000)[0], 1, seed=3).traces[0])


@pytest.mark.parametrize("text", [
    "0.0\t1\n0.5\t-1\n0.75\t-1\n",  # not canonical: numpy's loadtxt
    _PAPER_TEXT,  # the canonical reader
    "3.0\t-1\n1.0\t1\n2.0\t-1\n",  # unsorted
    "0\t1\n1_0\t-1\n",  # line by line
    "",
], ids=["loadtxt", "canonical", "unsorted", "line-by-line", "empty"])
def test_parse_and_read_trace_build_without_the_constructor(monkeypatch, tmp_path, text):
    # The parser establishes every invariant of a Trace, so the constructor
    # does not check them again.
    path = tmp_path / "site-0"
    path.write_text(text)

    def constructor_called(self):
        raise AssertionError("Trace.__post_init__ ran")

    monkeypatch.setattr(Trace, "__post_init__", constructor_called)
    _assert_parses_like_reference(text, defended=False)  # values and compact columns
    trace = parse_trace(text, label="site")
    assert trace.label == "site"
    if len(trace) > 1:
        assert read_trace(path) == trace


def test_parse_empty_input_is_empty_trace():
    assert parse_trace("") == Trace([], [])
    assert parse_trace("\n\n") == Trace([], [])


def test_parse_sorts_unsorted_input():
    trace = parse_trace("3.0\t-1\n1.0\t1\n2.0\t-1")
    assert [time for time, _ in rows(trace)] == [0.0, 1.0, 2.0]
    assert next(rows(trace))[1] is Direction.UPLOAD


def test_write_defended_format():
    real = DefendedTrace([0.0], [Direction.UPLOAD], [0.0])
    assert write_defended_trace(real) == "0.000000\t1\tR\n"
    dummy = DefendedTrace([1.0], [Direction.DOWNLOAD], [np.nan])
    assert write_defended_trace(dummy) == "1.000000\t-1\tD\n"


def test_roundtrip_real_subset_via_parse_trace():
    defended = DefendedTrace(
        send_time=[0.0, 0.25, 0.5],
        direction=[Direction.UPLOAD, Direction.DOWNLOAD, Direction.DOWNLOAD],
        source_time=[0.0, np.nan, 0.4],
    )
    text = write_defended_trace(defended)
    stripped = "".join(
        line + "\n" for line in text.splitlines() if not line.endswith("D")
    )
    reparsed = parse_trace(stripped)
    assert list(rows(reparsed)) == [
        (0.0, Direction.UPLOAD),
        (0.5, Direction.DOWNLOAD),
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            st.sampled_from([Direction.UPLOAD, Direction.DOWNLOAD]),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_write_parse_roundtrip_quantized(packets):
    packets.sort(key=lambda r: r[0])
    t0 = packets[0][0]
    trace = Trace([t - t0 for t, _ in packets], [d for _, d in packets])
    reparsed = parse_trace(write_trace(trace))
    assert len(reparsed) == len(trace)
    for (a_time, a_direction), (b_time, b_direction) in zip(rows(trace), rows(reparsed)):
        assert b_direction is a_direction
        # Times quantized to 1e-6 on disk, then re-normalized on parse.
        assert abs((a_time - trace.times[0]) - b_time) <= 1e-6 + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            st.sampled_from([1, -1]),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_writers_format_times_like_python(rows):
    rows.sort(key=lambda r: r[0])
    times, direction, dummy = (list(column) for column in zip(*rows))
    source = [np.nan if k else t for t, k in zip(times, dummy)]
    defended = DefendedTrace(times, direction, source)
    assert write_defended_trace(defended) == "".join(
        f"{t:.6f}\t{d}\t{'D' if k else 'R'}\n" for t, d, k in rows
    )
    positive = sorted(abs(t) for t in times)
    assert write_trace(Trace(positive, direction)) == "".join(
        f"{t:.6f}\t{d}\n" for t, d in zip(positive, direction)
    )


def _counting_tables(monkeypatch):
    """The tails of each table lookup the writer makes."""
    calls = []
    original = traces._format_tables

    def counting(tails):
        calls.append(tails)
        return original(tails)

    monkeypatch.setattr(traces, "_format_tables", counting)
    return calls


def _python_rows(times, tails, which):
    return "".join(f"{t:.6f}{tails[w]}" for t, w in zip(times.tolist(), which.tolist()))


def test_table_writer_formats_like_python(monkeypatch):
    calls = _counting_tables(monkeypatch)
    rng = np.random.default_rng(0)
    halves = (rng.integers(0, 10**9, 3000) + 0.5) / 1e6
    ties = np.array([1, 3, 127, 127_999]) / 2.0**7  # exact halves of a microsecond
    tails = ("\t1\tR\n", "\t-1\tD\n", "\t1\n")
    for times in (
        rng.uniform(0.0, 1000.0, 3000),
        np.concatenate([halves, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf)]),
        np.concatenate([ties, ties / 2**10, [0.0, 5e-324, 1e-7, 4.9999999e-7, 999.999999]]),
        np.array([999.999999, 999.9999994]),  # just under 1000
    ):
        which = rng.integers(0, len(tails), len(times))
        calls.clear()
        assert traces._format_rows(times, tails, which) == _python_rows(times, tails, which)
        assert calls == [tails]
    # A sign bit, or a time that rounds to 1,000 s or more, is formatted one row at a time.
    for times in (
        [-0.0, 1.0], [999.9999995, 0.5], [np.nextafter(999.9999995, np.inf)], [1000.0],
        [1e12, 0.5], [2.5, -1.5],
        [0.25, 1000.0, 3.5, -0.0, 12.000001, 1234.5678915, 999.999999, 1e15, 0.0],
    ):
        times = np.array(times)
        which = np.arange(len(times)) % len(tails)
        calls.clear()
        assert traces._format_rows(times, tails, which) == _python_rows(times, tails, which)
        assert calls == []


def test_table_writer_sweeps_every_microsecond_of_a_second():
    # k / 1e6 and its neighbours lie far from a half microsecond, so each
    # prints as k microseconds.
    exact = np.arange(10**6) / 1e6
    times = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)])
    which = np.zeros(len(times), np.intp)
    second = ("0.%06d\n" * 10**6) % tuple(range(10**6))
    assert traces._format_rows(times, ("\n",), which) == second * 3


def test_writer_matches_python_formatting_at_paper_scale():
    (profile,) = separable_profiles(1, base_total=2000)
    (trace,) = generate(profile, instances=1, seed=3).traces
    assert len(trace) >= 2000
    defended = PRESETS["regulator-heavy"].apply(trace, 7)
    assert defended.dummy_count() > 0
    kinds = np.where(defended.dummy, "D", "R")
    assert write_defended_trace(defended) == "".join(
        f"{t:.6f}\t{d}\t{k}\n"
        for t, d, k in zip(defended.send_time.tolist(), defended.direction.tolist(), kinds)
    )
    assert parse_defended_schedule(write_defended_trace(defended))[2].tolist() == (
        defended.dummy.tolist()
    )


def test_canonical_text_of_any_size_takes_the_canonical_reader(monkeypatch):
    (profile,) = separable_profiles(1, base_total=2000)
    (trace,) = generate(profile, instances=1, seed=3).traces
    defended = PRESETS["regulator-heavy"].apply(trace, 7)
    for text, kinds in ((write_trace(trace), False), (write_defended_trace(defended), True)):
        assert len(text) >= 2048
        columns = traces._read_canonical(text, kinds)
        assert columns is not None
    times, direction, dummy = columns
    assert times.tolist() == [float(f"{t:.6f}") for t in defended.send_time.tolist()]
    assert direction.tolist() == defended.direction.tolist()
    assert dummy.tolist() == defended.dummy.tolist()
    # Which reader reads a text is decided by the text alone: a short
    # canonical text takes the canonical reader as a long one does.
    calls = _counting_canonical(monkeypatch)
    for text, parse in ((write_defended_trace(defended), parse_defended_schedule),
                        (write_trace(trace), parse_trace)):
        short = text[:2047].rsplit("\n", 1)[0] + "\n"
        parse(short)
        parse(text)
    assert calls == [True, True, True, True]


def test_parse_defended_schedule_and_attach_sources():
    original = parse_trace("0.0\t1\n0.4\t-1")
    rows = parse_defended_schedule("0.000000\t1\tR\n0.250000\t-1\tD\n0.500000\t-1\tR\n")
    defended = attach_sources(original, rows)
    assert defended.dummy_count() == 1
    reals = [p for p in defended if p.kind is PacketKind.REAL]
    assert [p.source_time for p in reals] == [0.0, 0.4]


def test_attach_sources_rejects_mismatched_schedule():
    original = parse_trace("0.0\t1\n0.4\t-1")
    for text, message in (
        ("0.000000\t1\tR\n", "missing real download"),
        ("0.000000\t1\tR\n0.400000\t-1\tR\n0.500000\t-1\tR\n", "more real download"),
        ("0.000000\t1\tR\n0.300000\t-1\tR\n", "sent at 0.3 well before source 0.4"),
        # A fault in each direction: the uploads are checked first.
        ("0.400000\t-1\tR\n0.500000\t-1\tR\n", "missing real upload"),
    ):
        with pytest.raises(ValueError, match=message):
            attach_sources(original, parse_defended_schedule(text))
    # A shape fault and a count fault: the schedule's shape is checked first.
    with pytest.raises(ValueError, match=r"direction must be \+1"):
        attach_sources(original, (np.array([0.0]), np.array([2], np.int8), np.array([False])))


@pytest.mark.parametrize("send, direction, message", [
    ([0.5, 0.0], [-1, 1], "defended packets must be sorted by send_time"),
    ([0.0, np.inf], [1, -1], "packet times must be finite"),
    ([0.0, np.nan], [1, -1], "packet times must be finite"),
    ([0.0, 0.4, 0.5], [1, -1, 2], r"direction must be \+1"),
])
def test_attach_sources_checks_the_schedule_as_the_constructor_does(send, direction, message):
    # Each schedule matches the original's two real packets; the last of
    # three is a dummy.
    original = parse_trace("0.0\t1\n0.4\t-1")
    dummy = np.arange(len(send)) >= 2
    with pytest.raises(ValueError, match=message):
        attach_sources(original, (np.array(send), np.array(direction, np.int8), dummy))


def test_defended_packet_invariants():
    def one(source):
        return DefendedTrace([0.0], [Direction.UPLOAD], [source])

    # A source time is finite (a real packet) or NaN (a dummy), nothing else.
    for infinite in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="source_time must be finite, or NaN"):
            one(infinite)
    assert one(np.nan).dummy.tolist() == [True]
    assert one(0.0).dummy.tolist() == [False]
    with pytest.raises(ValueError, match="before its source"):
        one(1.0)  # time travel
    with pytest.raises(ValueError, match="sorted"):
        DefendedTrace([1.0, 0.0], [1, 1], [np.nan, np.nan])
    with pytest.raises(TypeError, match="dummy"):
        DefendedTrace([0.0], [1], [0.0], dummy=[False])  # derived, never passed


def test_load_dataset(tmp_path):
    (tmp_path / "0-0").write_text("0.0\t1\n1.0\t-1\n")
    (tmp_path / "0-1").write_text("0.0\t1\n0.5\t1\n")
    (tmp_path / "1-0").write_text("0.0\t-1\n0.5\t-1\n")
    dataset = load_dataset(tmp_path)
    assert len(dataset) == 3
    assert [t.label for t in dataset.traces] == ["0", "0", "1"]
    assert dataset.filenames == ("0-0", "0-1", "1-0")
    assert dataset.skipped == 0


def test_dataset_names_traces_without_files_by_index():
    trace = Trace([0.0], [Direction.UPLOAD])
    assert Dataset((trace, trace), name="x").filenames == ("0", "1")
    with pytest.raises(ValueError, match="filenames must align"):
        Dataset((trace, trace), name="x", filenames=("a",))


def test_load_dataset_skips_malformed(tmp_path, caplog):
    (tmp_path / "0-0").write_text("0.0\t1\n0.5\t1\n")
    (tmp_path / "0-1").write_text("garbage line\n")
    (tmp_path / "1-0").write_text("0.0\t-1\n0.5\t-1\n")
    dataset = load_dataset(tmp_path)
    assert len(dataset) == 2
    assert dataset.skipped == 1


def test_load_dataset_skips_non_finite_times(tmp_path, caplog):
    (tmp_path / "0-0").write_text("0.0\t1\n0.5\t1\n")
    (tmp_path / "0-1").write_text("0.0\t1\ninf\t-1\n")
    (tmp_path / "1-0").write_text("0.0\t1\nnan\t-1\n")
    dataset = load_dataset(tmp_path)
    assert dataset.filenames == ("0-0",)
    assert dataset.skipped == 2
    assert "0-1: line 2: non-finite time 'inf'" in caplog.text
    assert "1-0: line 2: non-finite time 'nan'" in caplog.text


def test_load_dataset_empty_dir_errors(tmp_path):
    with pytest.raises(ValueError, match="no usable trace files"):
        load_dataset(tmp_path)


def test_iter_dataset_skips_each_unusable_file_with_its_reason(tmp_path, caplog):
    files = {
        "0-0": b"0.0\t1\n0.5\t-1\n",
        "0-1": b"",
        "0-2": b"0.0\t1\n",
        "0-3": b"0.25\t1\n0.25\t-1\n",
        "0-4": b"x y\n",
        "0-5": b"\xff\xfe\n",
        "1-0": b"0.0\t-1\n2.0\t1\n",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    skipped = []
    walk = iter_dataset(tmp_path, skipped=skipped)
    assert next(walk)[0] == "0-0"
    assert skipped == []  # lazy: nothing past the first usable file is read yet
    assert [name for name, _ in walk] == ["1-0"]
    assert skipped == [
        ("0-1", "zero duration, 0 packet(s)"),
        ("0-2", "zero duration, 1 packet(s)"),
        ("0-3", "zero duration, 2 packet(s)"),
        ("0-4", "line 1: non-numeric time field 'x'"),
        ("0-5", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]
    for name, reason in skipped:
        assert f"skipping {tmp_path / name}: {reason}" in caplog.text


@pytest.mark.parametrize(
    "name", ["a,b-0", 'c"d-0', "e=f-0", "g\th-0", "i\nj-0", "k\x7fl-0", "m\udcffn-0"]
)
def test_read_trace_refuses_a_name_the_outputs_cannot_carry(tmp_path, name):
    # Such a name once went unquoted into CSV rows and `class_<label>=`
    # lines; one that is not UTF-8 (the last) made `stats --out` and
    # `simulate` fail to encode their CSV, `simulate` after writing its
    # defended files.
    path = tmp_path / name
    bad = next(c for c in name if c in ',"=' or not c.isprintable())
    reason = f"file name holds {bad!r}, which the CSV and key=value outputs cannot carry"
    with pytest.raises(UnusableTrace) as error:
        read_trace(path)  # refused before the file, which does not exist, is read
    assert str(error.value) == reason
    path.write_text("0.0\t1\n0.5\t-1\n")
    (tmp_path / "a-0").write_text("0.0\t1\n0.5\t-1\n")
    skipped = []
    assert [n for n, _ in iter_dataset(tmp_path, skipped=skipped)] == ["a-0"]
    assert skipped == [(name, reason)]


def test_iter_dataset_with_nothing_usable_errors_after_the_walk(tmp_path, caplog):
    (tmp_path / "0-0").write_text("0.0\t1\n")
    skipped = []
    with pytest.raises(ValueError, match="no usable trace files in"):
        list(iter_dataset(tmp_path, skipped=skipped))
    assert skipped == [("0-0", "zero duration, 1 packet(s)")]


def test_a_step_error_closes_the_pool_map_before_it_is_raised(tmp_path):
    # Executor.map submits every chunk at once, and only closing its
    # iterator cancels the chunks no worker has started; a traceback that
    # keeps the walk's frame alive would otherwise keep them queued.
    for i in range(2 * CHUNK_FILES + 1):
        (tmp_path / f"0-{i:02d}").write_text("0.0\t1\n0.5\t-1\n")
    mapped, closed = [], []

    class Pool:
        def map(self, fn, chunks):
            try:
                for chunk in chunks:
                    mapped.append(len(chunk))
                    yield fn(chunk)
            finally:
                closed.append(True)

    def step(pairs):
        raise ValueError("no defense for these")

    try:
        for _ in iter_dataset(tmp_path, step, Pool()):
            pass
    except ValueError as error:
        assert str(error) == "no defense for these"
        assert closed == [True]
        assert mapped == [CHUNK_FILES]
    else:
        pytest.fail("the step's error was not raised")


def test_iter_dataset_walks_files_in_code_point_order_of_their_names(tmp_path):
    for name in ("b-1", "a-9", "\u00e9-1", "A-1", "a-10"):
        (tmp_path / name).write_text("0.0\t1\n0.5\t-1\n")
    (tmp_path / "sub").mkdir()
    names = [name for name, _ in iter_dataset(tmp_path)]
    assert names == ["A-1", "a-10", "a-9", "b-1", "\u00e9-1"]


def _canonical_text(rng: np.random.Generator, lines: int) -> str:
    times = np.sort(rng.uniform(0.0, 60.0, lines))
    return write_trace(Trace(times, np.where(rng.random(lines) < 0.3, 1, -1)))


def _assert_walk_reads_like_read_trace(root, caplog) -> None:
    """iter_dataset gives read_trace's names, bit-identical and compact
    columns, and its skips with their warnings, in the same order."""
    expected, expected_skips = [], []
    for name in sorted(os.listdir(root)):
        try:
            expected.append((name, read_trace(root / name)))
        except UnusableTrace as error:
            expected_skips.append((name, str(error)))
    caplog.clear()
    skipped = []
    walked = list(iter_dataset(root, skipped=skipped))
    assert [name for name, _ in walked] == [name for name, _ in expected]
    for (_, trace), (_, reference) in zip(walked, expected):
        assert trace.label == reference.label
        assert float_bits(trace.times) == float_bits(reference.times)
        assert trace.direction.tolist() == reference.direction.tolist()
        assert_compact_columns(trace)
    assert skipped == expected_skips
    assert [record.getMessage() for record in caplog.records] == [
        f"skipping {root / name}: {reason}" for name, reason in expected_skips
    ]


def test_iter_dataset_reads_a_mixed_directory_as_read_trace_does(tmp_path, caplog):
    # Canonical files share runs; every other shape is read alone, and so
    # is each canonical file of a run that it spoils.
    rng = np.random.default_rng(11)
    texts = [_canonical_text(rng, int(rng.integers(2, 401))) for _ in range(44)]
    unsorted = texts[5].splitlines(keepends=True)
    unsorted[1], unsorted[2] = unsorted[2], unsorted[1]
    texts[5] = "".join(unsorted)
    texts[9] = texts[9][:-1]  # no final newline
    texts[14] = "".join(f"{float(t):.9f}\t{d}\n" for t, d in (
        line.split("\t") for line in texts[14].splitlines()))
    texts[20] = texts[20].replace("\n", "\r\n")
    texts[23], texts[24] = "", "0.500000\t1\n"
    texts[30] = _canonical_text(rng, 6000)  # longer than a run
    data = {f"s-{i:02d}": text.encode() for i, text in enumerate(texts)}
    data["s-27"] = b"0.000000\t1\n0.\xff00000\t-1\n"  # not UTF-8
    data["s-3,x"] = texts[3].encode()  # a name the outputs cannot carry
    for name, content in data.items():
        (tmp_path / name).write_bytes(content)
    assert len(data) > 2 * traces.CHUNK_FILES
    assert len(texts[30]) > traces._RUN_BYTES
    _assert_walk_reads_like_read_trace(tmp_path, caplog)


def test_a_file_without_its_final_newline_joins_no_run(tmp_path, caplog):
    # Joined, the two would read as three canonical lines, of which the
    # first file would own one and the second two.
    (tmp_path / "s-0").write_text("0.000000\t1\n0.5")
    (tmp_path / "s-1").write_text("00000\t-1\n1.000000\t1\n")
    (tmp_path / "s-2").write_text("0.000000\t1\n2.000000\t-1\n")
    _assert_walk_reads_like_read_trace(tmp_path, caplog)
    assert caplog.records[0].getMessage() == (
        f"skipping {tmp_path / 's-0'}: line 2: expected `time<TAB>direction`, got '0.5'"
    )


def test_one_bad_file_in_a_chunk_is_skipped_as_read_trace_skips_it(tmp_path, caplog):
    rng = np.random.default_rng(12)
    for i in range(traces.CHUNK_FILES):
        (tmp_path / f"s-{i:02d}").write_text(_canonical_text(rng, 60))
    (tmp_path / "s-07").write_text("0.000000\t1\n0.100000\t-1\nx\t1\n0.300000\t1\n")
    _assert_walk_reads_like_read_trace(tmp_path, caplog)
    assert caplog.records[0].getMessage() == (
        f"skipping {tmp_path / 's-07'}: line 3: non-numeric time field 'x'"
    )


def test_a_run_of_canonical_files_is_read_in_one_pass(tmp_path, caplog, monkeypatch):
    rng = np.random.default_rng(13)
    for i in range(traces.CHUNK_FILES + 4):
        (tmp_path / f"s-{i:02d}").write_text(_canonical_text(rng, 60))
    calls = _counting_canonical(monkeypatch)
    _assert_walk_reads_like_read_trace(tmp_path, caplog)
    # read_trace reads each file as a run of its own; the walk reads each
    # chunk's files in one pass.
    assert calls == [True] * (traces.CHUNK_FILES + 4) + [True, True]


def test_a_walk_tries_each_text_in_the_canonical_reader_once(tmp_path, caplog, monkeypatch):
    # Files of 9-decimal times are not canonical: each run of them fails
    # the canonical reader once, and its files go straight to the general
    # reader, however long they are.
    rng = np.random.default_rng(14)
    for i in range(traces.CHUNK_FILES + 4):
        text = "".join(f"{float(t):.9f}\t{d}\n" for t, d in (
            line.split("\t") for line in _canonical_text(rng, 150).splitlines()))
        assert len(text) >= 2048
        (tmp_path / f"s-{i:02d}").write_text(text)
    calls = _counting_canonical(monkeypatch)
    assert len(list(iter_dataset(tmp_path))) == traces.CHUNK_FILES + 4
    assert calls == [False, False]
    _assert_walk_reads_like_read_trace(tmp_path, caplog)


def _six_kilobyte_files(root) -> None:
    """20 canonical files of 4-8 KiB: the first chunk of 16 splits into two
    64 KiB runs, and the second chunk of 4 is one run."""
    rng = np.random.default_rng(15)
    for i in range(traces.CHUNK_FILES + 4):
        text = _canonical_text(rng, 470)
        assert 4096 < len(text) <= 8192
        (root / f"s-{i:02d}").write_text(text)


def test_a_step_sees_each_chunk_once_across_its_runs(tmp_path):
    _six_kilobyte_files(tmp_path)
    calls = []

    def step(pairs):
        calls.append([path.name for path, _ in pairs])
        return (len(trace) for _, trace in pairs)

    walked = list(iter_dataset(tmp_path, step))
    assert [len(names) for names in calls] == [traces.CHUNK_FILES, 4]
    assert [name for names in calls for name in names] == [name for name, _ in walked]
    assert [count for _, count in walked] == [470] * (traces.CHUNK_FILES + 4)


def test_runs_cross_chunk_and_64_kib_boundaries(tmp_path, caplog, monkeypatch):
    _six_kilobyte_files(tmp_path)
    calls = _counting_canonical(monkeypatch)
    _assert_walk_reads_like_read_trace(tmp_path, caplog)
    # read_trace reads each file alone; the walk reads two runs of the
    # first chunk and one of the second.
    assert calls == [True] * (traces.CHUNK_FILES + 4) + [True] * 3


def test_load_dataset_deterministic(tmp_path):
    for i in range(5):
        (tmp_path / f"{i}-0").write_text(f"0.0\t1\n{i}.5\t-1\n")
    first = load_dataset(tmp_path)
    second = load_dataset(tmp_path)
    assert first == second


def test_trace_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        Trace([1.0, 0.0], [Direction.UPLOAD, Direction.UPLOAD])


def test_merge_rejects_a_part_out_of_order():
    upload = ([0.0, 1.0], Direction.UPLOAD, [0.0, 1.0])
    # The merged times would sort, so only the per-part check sees this.
    backwards = ([0.5, 0.25], Direction.DOWNLOAD, [np.nan, np.nan])
    with pytest.raises(ValueError, match="each merged part must be sorted"):
        merge((upload, backwards))
    with pytest.raises(ValueError, match="finite"):
        merge((upload, ([np.inf], Direction.DOWNLOAD, [np.nan])))


def assert_dummy_is_nan_source(defended: DefendedTrace) -> None:
    assert np.array_equal(defended.dummy, np.isnan(defended.source_time))
    assert not defended.dummy.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        defended.dummy[:] = False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(PRESETS)))
def test_dummy_mask_is_the_nan_source_of_every_defense(seed, name):
    trace = random_trace(np.random.default_rng(seed), 300)
    defended = PRESETS[name].apply(trace, seed)
    assert_dummy_is_nan_source(defended)
    schedule = parse_defended_schedule(write_defended_trace(defended))
    attached = attach_sources(trace, schedule)
    assert_dummy_is_nan_source(attached)
    assert attached.dummy.tolist() == defended.dummy.tolist()


def test_merge_orders_ties_by_part_then_position():
    down = ([0.0, 1.0], Direction.DOWNLOAD, [np.nan, 0.5])
    up = (np.array([0.0, 1.0]), np.array([1, 1]), np.array([0.0, np.nan]))
    merged = merge((down, up))
    assert merged.send_time.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert merged.direction.tolist() == [-1, 1, -1, 1]
    assert merged.dummy.tolist() == [True, False, False, True]


def _first_slot_by_loop(t: float, gap: float) -> int:
    k = 0
    while k * gap < t:
        k += 1
    return k


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0.012, 0.04, 1 / 3, 1e-3, 7.0, 1 / 4.0, 1 / 3.7, 1 / 6.1]),
    st.integers(0, 400),
    st.sampled_from([-1, 0, 1]),
)
def test_first_slot_at_or_after_matches_the_loop(gap, k, step):
    # Exact clock ticks and their float neighbours are where ceil(t / gap) errs.
    t = max(0.0, float(np.nextafter(k * gap, step * np.inf)) if step else k * gap)
    expected = _first_slot_by_loop(t, gap)
    assert int(first_slot_at_or_after(t, gap)) == expected
    assert first_slot_at_or_after(np.array([t, t]), gap).tolist() == [expected, expected]


@pytest.mark.parametrize("value", [1e-300, 0.5, 3, np.float64(2.0), 1e308])
def test_check_positive_accepts_finite_numbers_above_zero(value):
    check_positive("x", value)
    check_positive("x", value, or_zero=True)


@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("inf"), float("nan"), True, "1", None])
def test_check_positive_rejects_the_rest_naming_the_value(value):
    with pytest.raises(ValueError, match=f"^x must be finite and > 0, got {value!r}$"):
        check_positive("x", value)


def test_check_positive_or_zero_also_accepts_zero():
    check_positive("x", 0.0, or_zero=True)
    for value in (-0.5, float("inf"), float("nan"), False):
        with pytest.raises(ValueError, match=f"^x must be finite and >= 0, got {value!r}$"):
            check_positive("x", value, or_zero=True)
