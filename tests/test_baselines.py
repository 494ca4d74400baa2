import time

import numpy as np
import pytest

from helpers import assert_conservation_and_fifo, random_trace

from wfdefend import (
    Direction,
    FrontParams,
    PacketKind,
    TamarawParams,
    Trace,
    apply_front,
    apply_tamaraw,
)

from wfdefend.traces import MAX_SLOTS

FRONT = FrontParams(N_s=2500, N_c=2500, W_min=1.0, W_max=14.0)
TAMARAW = TamarawParams(rho_out=0.04, rho_in=0.012, L=100)


class TestFront:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            FrontParams(N_s=0, N_c=1, W_min=1.0, W_max=14.0)
        with pytest.raises(ValueError):
            FrontParams(N_s=1, N_c=1, W_min=2.0, W_max=1.0)
        with pytest.raises(ValueError):
            FrontParams(N_s=1, N_c=1, W_min=0.0, W_max=1.0)

    def test_empty_trace_dummy_counts_within_bounds(self):
        defended = apply_front(Trace([], []), FRONT, seed=42)
        uploads = defended.dummy_count(Direction.UPLOAD)
        downloads = defended.dummy_count(Direction.DOWNLOAD)
        assert 1 <= uploads <= FRONT.N_c
        assert 1 <= downloads <= FRONT.N_s
        assert defended.drawn_budget == downloads

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
