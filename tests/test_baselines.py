import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_compact_columns,
    assert_conservation_and_fifo,
    float_bits,
    random_trace,
)
from oracle_tamaraw import oracle_tamaraw

from wfdefend import (
    DefendedTrace,
    Direction,
    FrontParams,
    PacketKind,
    TamarawParams,
    Trace,
    apply_front,
    apply_regulator,
    apply_tamaraw,
    attach_sources,
    parse_defended_schedule,
    write_defended_trace,
)

from wfdefend.presets import FRONT_PRESETS, REGULATOR_PRESETS
from wfdefend.traces import MAX_SLOTS

FRONT = FrontParams(N_s=2500, N_c=2500, W_min=1.0, W_max=14.0)
TAMARAW = TamarawParams(rho_out=0.04, rho_in=0.012, L=100)
REGULATOR = REGULATOR_PRESETS["regulator-heavy"]
RHOS = (0.012, 0.04, 1 / 3, 1e-3, 7.0)


# The regulator leaves a trace with fewer than 10 download packets as it
# is; 20 start its schedule.
SHORT = Trace([0.0, 0.01, 0.3, 0.3], [1, -1, -1, 1])
ACTIVE = Trace(np.arange(30) * 0.05, [1, -1, -1] * 10)


@pytest.mark.parametrize(
    "apply, trace",
    [
        (lambda t: apply_front(t, FRONT, 9), SHORT),
        (lambda t: apply_tamaraw(t, TAMARAW), SHORT),
        (lambda t: apply_regulator(t, REGULATOR, 9), SHORT),
        (lambda t: apply_regulator(t, REGULATOR, 9), ACTIVE),
    ],
    ids=["front", "tamaraw", "regulator-inactive", "regulator"],
)
def test_one_validated_defended_trace_per_trace(monkeypatch, apply, trace):
    calls = []
    validate = DefendedTrace.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(DefendedTrace, "__post_init__", counted)
    defended = apply(trace)
    assert calls == [defended]
    assert_compact_columns(defended)
    # attach_sources checks the schedule it is given, and builds its trace
    # without the constructor's second look at the sources it derives.
    calls.clear()
    attached = attach_sources(trace, parse_defended_schedule(write_defended_trace(defended)))
    assert calls == []
    assert_compact_columns(attached)
    assert attached.dummy.tolist() == defended.dummy.tolist()


class TestFront:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            FrontParams(N_s=0, N_c=1, W_min=1.0, W_max=14.0)
        with pytest.raises(ValueError):
            FrontParams(N_s=1, N_c=1, W_min=2.0, W_max=1.0)
        with pytest.raises(ValueError):
            FrontParams(N_s=1, N_c=1, W_min=0.0, W_max=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(N_s=2.5), "N_s must be a positive integer, got 2.5"),
            (dict(N_s=True), "N_s must be a positive integer, got True"),
            (dict(N_c=True), "N_c must be a positive integer, got True"),
            (dict(N_s=MAX_SLOTS + 1), f"N_s must be at most {MAX_SLOTS} packets"),
            (dict(N_c=MAX_SLOTS + 1), f"N_c must be at most {MAX_SLOTS} packets"),
            (dict(W_max=math.inf), "require 0 < W_min <= W_max < inf, got 1.0 and inf"),
            (dict(W_min=math.inf, W_max=math.inf), "got inf and inf"),
        ],
    )
    def test_counts_and_window_rules(self, kwargs, message):
        base = dict(N_s=1, N_c=1, W_min=1.0, W_max=14.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            FrontParams(**{**base, **kwargs})
        FrontParams(N_s=MAX_SLOTS, N_c=MAX_SLOTS, W_min=1.0, W_max=14.0)

    def test_empty_trace_dummy_counts_within_bounds(self):
        defended = apply_front(Trace([], []), FRONT, seed=42)
        uploads = defended.dummy_count(Direction.UPLOAD)
        downloads = defended.dummy_count(Direction.DOWNLOAD)
        assert 1 <= uploads <= FRONT.N_c
        assert 1 <= downloads <= FRONT.N_s

    def test_zero_latency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            trace = random_trace(rng, 100)
            defended = apply_front(trace, FRONT, int(rng.integers(0, 2**32)))
            for p in defended:
                if p.kind is PacketKind.REAL:
                    assert p.send_time == p.source_time

    def test_determinism(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 100)
        assert apply_front(trace, FRONT, 77) == apply_front(trace, FRONT, 77)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            trace = random_trace(rng, 100)
            defended = apply_front(trace, FRONT, int(rng.integers(0, 2**32)))
            assert_conservation_and_fifo(trace, defended)

    def test_ties_keep_the_trace_order(self):
        # FRONT only adds dummies, so at equal send times its real packets
        # keep the trace's order: the 0.5 s upload goes out before the 0.5 s
        # download, where the regulator and Tamaraw list downloads first.
        trace = Trace([0.0, 0.5, 0.5, 1.0], [1, 1, -1, -1])
        defended = apply_front(trace, FRONT_PRESETS["front-1700"], seed=1)
        real = ~defended.dummy
        assert defended.send_time[real].tolist() == [0.0, 0.5, 0.5, 1.0]
        assert defended.direction[real].tolist() == [1, 1, -1, -1]
        # attach_sources keeps the order of the schedule it is given.
        attached = attach_sources(trace, parse_defended_schedule(write_defended_trace(defended)))
        assert attached.direction[~attached.dummy].tolist() == [1, 1, -1, -1]

    def test_dummies_may_extend_past_trace(self):
        # Short trace, long Rayleigh windows: padding is not truncated.
        trace = Trace([0.0], [Direction.UPLOAD])
        defended = apply_front(trace, FRONT, seed=5)
        assert list(defended)[-1].send_time > trace.duration


class TestTamaraw:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            TamarawParams(rho_out=0.0, rho_in=0.012, L=100)
        with pytest.raises(ValueError):
            TamarawParams(rho_out=0.04, rho_in=0.012, L=0)
        with pytest.raises(ValueError, match="L must be a positive integer, got 2.5"):
            TamarawParams(rho_out=0.04, rho_in=0.012, L=2.5)
        with pytest.raises(ValueError, match="L must be a positive integer, got True"):
            TamarawParams(rho_out=0.04, rho_in=0.012, L=True)

    def test_single_download_pads_to_l(self):
        trace = Trace([0.0], [Direction.DOWNLOAD])
        defended = apply_tamaraw(trace, TAMARAW)
        down = [p for p in defended if p.direction is Direction.DOWNLOAD]
        assert len(down) == 100
        assert sum(1 for p in down if p.kind is PacketKind.REAL) == 1
        assert down[0].send_time == 0.0
        assert down[-1].send_time == pytest.approx(99 * 0.012, abs=1e-12)

    def test_no_uploads_pads_from_zero(self):
        trace = Trace([0.0], [Direction.DOWNLOAD])
        defended = apply_tamaraw(trace, TAMARAW)
        up = [p for p in defended if p.direction is Direction.UPLOAD]
        assert len(up) == 100
        assert all(p.kind is PacketKind.DUMMY for p in up)
        assert [p.send_time for p in up[:3]] == [0.0, 0.04, 0.08]

    def test_packet_waits_for_next_slot(self):
        trace = Trace([0.005], [Direction.DOWNLOAD])
        defended = apply_tamaraw(trace, TAMARAW)
        real = [p for p in defended if p.kind is PacketKind.REAL]
        assert len(real) == 1
        assert real[0].send_time == pytest.approx(0.012, abs=1e-12)

    def test_counts_multiple_of_l_and_exact_gaps(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            trace = random_trace(rng, 150)
            defended = apply_tamaraw(trace, TAMARAW)
            assert_conservation_and_fifo(trace, defended)
            for direction, rho in (
                (Direction.DOWNLOAD, TAMARAW.rho_in),
                (Direction.UPLOAD, TAMARAW.rho_out),
            ):
                times = [
                    p.send_time for p in defended if p.direction is direction
                ]
                assert len(times) % TAMARAW.L == 0 and len(times) > 0
                gaps = np.diff(times)
                assert np.all(np.abs(gaps - rho) <= 1e-9)

    def test_deterministic_without_seed(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, 100)
        assert apply_tamaraw(trace, TAMARAW) == apply_tamaraw(trace, TAMARAW)

    def test_exact_multiple_needs_no_padding(self):
        # 100 downloads available immediately occupy exactly slots 0..99.
        trace = Trace(np.zeros(100), np.full(100, Direction.DOWNLOAD))
        defended = apply_tamaraw(trace, TAMARAW)
        down = [p for p in defended if p.direction is Direction.DOWNLOAD]
        assert len(down) == 100
        assert all(p.kind is PacketKind.REAL for p in down)

    def test_slot_count_past_the_limit_is_rejected(self):
        # About 8e9 download slots lie between the two packets.
        trace = Trace([0.0, 1e8], [Direction.DOWNLOAD, Direction.DOWNLOAD])
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"more than {MAX_SLOTS} download slots"):
            apply_tamaraw(trace, TAMARAW)
        assert time.monotonic() - start < 1.0

    def test_pad_multiple_past_the_slot_limit_is_rejected(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"L must be at most {MAX_SLOTS} packets, got 10"):
            TamarawParams(rho_out=0.04, rho_in=0.012, L=10**9)
        assert time.monotonic() - start < 1.0
        TamarawParams(rho_out=0.04, rho_in=0.012, L=MAX_SLOTS)


@st.composite
def tamaraw_cases(draw):
    """A trace whose times sit on, or one float step beside, multiples of
    either clock (or between them), with many ties, and Tamaraw params."""
    rho = {d: draw(st.sampled_from(RHOS)) for d in (Direction.DOWNLOAD, Direction.UPLOAD)}
    L = draw(st.sampled_from([1, 2, 3, 7, 50]))
    packets = draw(st.lists(
        st.tuples(
            st.sampled_from([Direction.DOWNLOAD, Direction.UPLOAD]),
            st.sampled_from([Direction.DOWNLOAD, Direction.UPLOAD]),  # whose clock
            st.integers(0, 30),
            st.sampled_from(["below", "at", "above", "between"]),
            st.floats(0.0, 1.0),
        ),
        max_size=40,
    ))
    times, direction = [], []
    for d, clock, k, where, fraction in packets:
        t = k * rho[clock]
        if where == "below":
            t = float(np.nextafter(t, -np.inf))
        elif where == "above":
            t = float(np.nextafter(t, np.inf))
        elif where == "between":
            t = (k + fraction) * rho[clock]
        times.append(max(t, 0.0))
        direction.append(d)
    order = np.argsort(times, kind="stable")
    trace = Trace(np.array(times)[order], np.array(direction, np.int8)[order])
    return trace, TamarawParams(rho_out=rho[Direction.UPLOAD], rho_in=rho[Direction.DOWNLOAD], L=L)


@settings(max_examples=300, deadline=None)
@given(tamaraw_cases())
@example((Trace([], []), TamarawParams(rho_out=1 / 3, rho_in=7.0, L=1)))
@example((Trace([0.036], [Direction.DOWNLOAD]), TamarawParams(rho_out=0.04, rho_in=0.012, L=1)))
@example((Trace(np.full(5, 0.024), np.full(5, -1)), TAMARAW))
def test_tamaraw_matches_the_slot_loop_bit_for_bit(case):
    trace, params = case
    defended = apply_tamaraw(trace, params)
    send, direction, source = (np.array(column) for column in zip(*oracle_tamaraw(trace, params)))
    dummy = np.isnan(source)
    assert float_bits(defended.send_time) == float_bits(send)
    assert defended.direction.tolist() == direction.tolist()
    assert defended.dummy.tolist() == dummy.tolist()
    assert np.isnan(defended.source_time).tolist() == dummy.tolist()
    assert float_bits(defended.source_time[~dummy]) == float_bits(source[~dummy])
