import math

import numpy as np
import pytest

from helpers import (
    assert_conservation_and_fifo,
    random_params,
    random_trace,
    schedule_key,
    seed_with_budget,
)
from oracle_regulator import reference_defend

from wfdefend import (
    Direction,
    PacketKind,
    RegulatorParams,
    Trace,
    apply_regulator,
)
from wfdefend.regulator import simulate_download, simulate_upload, target_rate

HEAVY = RegulatorParams(R=277.0, D=0.940, T=3.55, N=3550, U=3.95, C=1.77)


def downloads(n, time=0.0):
    return Trace(np.full(n, time), np.full(n, Direction.DOWNLOAD))


def one_upload():
    return Trace([0.0], [Direction.UPLOAD])


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(R=0.0),
            dict(R=-1.0),
            dict(D=0.0),
            dict(D=1.0001),
            dict(T=0.0),
            dict(N=-1),
            dict(U=0.0),
            dict(C=0.0),
            dict(initial_upload_rate=0.0),
            dict(tail_grace=-0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(R=277.0, D=0.94, T=3.55, N=3550, U=3.95, C=1.77)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RegulatorParams(**base)


class TestTargetRate:
    def test_at_surge_start(self):
        assert target_rate(HEAVY, 0.0) == 277.0

    def test_decayed_matches_direct_evaluation(self):
        # Oracle: evaluate R * D**t directly.
        assert target_rate(HEAVY, 10.0) == pytest.approx(277.0 * 0.94**10, abs=1e-9)

    def test_floor_engages_for_large_elapsed(self):
        assert 277.0 * 0.94**120 < 1.0
        assert target_rate(HEAVY, 120.0) == 1.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            target_rate(HEAVY, -1.0)


class TestDownload:
    def test_below_activation_passes_through(self):
        trace = downloads(9)
        schedule = simulate_download(trace, HEAVY, seed=3)
        assert math.isinf(schedule.surge_start)
        assert schedule.slots == ()
        assert [p.kind for p in schedule.packets] == [PacketKind.REAL] * 9
        assert [p.send_time for p in schedule.packets] == [0.0] * 9

    def test_twelve_packets_budget_zero(self):
        # Hand-run of the slot loop: first 10 pass through at t=0, the slot
        # at the surge start carries packet 11, the next slot (gap 1/2)
        # carries packet 12, and the loop stops at the following slot.
        params = RegulatorParams(R=2.0, D=1.0, T=1000.0, N=50, U=4.0, C=1.77)
        seed = seed_with_budget(50, 0)
        schedule = simulate_download(downloads(12), params, seed)
        assert schedule.drawn_budget == 0
        assert schedule.surge_start == 0.0
        times = [p.send_time for p in schedule.packets]
        assert times == [0.0] * 11 + [0.5]
        assert all(p.kind is PacketKind.REAL for p in schedule.packets)
        assert schedule.slots == (0.0, 0.5)

    def test_ten_packets_budget_three(self):
        # Rate floors at 1/s, so the three budgeted dummies land at the
        # surge start and one and two seconds later.
        params = RegulatorParams(R=1.0, D=1.0, T=1000.0, N=3, U=4.0, C=1.77)
        seed = seed_with_budget(3, 3)
        schedule = simulate_download(downloads(10), params, seed)
        assert schedule.drawn_budget == 3
        dummies = [p for p in schedule.packets if p.kind is PacketKind.DUMMY]
        assert [p.send_time for p in dummies] == [0.0, 1.0, 2.0]
        assert len(schedule.packets) == 13

    def test_budget_draw_within_bounds_and_recorded(self):
        rng = np.random.default_rng(0)
        for seed in rng.integers(0, 2**32, 50):
            schedule = simulate_download(downloads(10), HEAVY, int(seed))
            assert 0 <= schedule.drawn_budget <= HEAVY.N

    def test_surge_reset_keeps_rate_high(self):
        # With a tiny threshold every slot restarts the surge clock while
        # the queue lasts, so the rate never decays far from R; with a huge
        # threshold the rate decays freely and the gaps open up.
        resetting = RegulatorParams(R=10.0, D=0.5, T=0.1, N=0, U=4.0, C=1.77)
        free = RegulatorParams(R=10.0, D=0.5, T=1000.0, N=0, U=4.0, C=1.77)
        seed = seed_with_budget(0, 0)
        trace = downloads(40)
        gaps_resetting = np.diff(simulate_download(trace, resetting, seed).slots)
        gaps_free = np.diff(simulate_download(trace, free, seed).slots)
        assert gaps_resetting.max() < 0.12  # rate pinned near R=10
        assert gaps_free.max() > 0.2  # decayed well below R

    def test_slot_gap_too_small_to_advance_is_rejected(self):
        # At R=1e20 the gap 1/R is lost in rounding at t=1 s, so the slot
        # clock cannot move.
        params = RegulatorParams(R=1e20, D=0.94, T=3.55, N=10, U=3.95, C=1.77)
        with pytest.raises(ValueError, match="too small to advance the slot clock"):
            simulate_download(downloads(12, time=1.0), params, 0)


class TestUpload:
    def test_fractional_decimation(self):
        # No real uploads; 8 download slots at U=4 yield dummies at the 4th
        # and 8th slot times.
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=4.0, C=1.77)
        trace = downloads(1)
        slots = [0.1 * k for k in range(1, 9)]
        out = simulate_upload(trace, params, slots, surge_start=0.0)
        assert [(p.send_time, p.kind) for p in out] == [
            (0.4, PacketKind.DUMMY),
            (0.8, PacketKind.DUMMY),
        ]

    def test_flush_at_exact_delay_cap(self):
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=4.0, C=1.77)
        out = list(simulate_upload(one_upload(), params, [], surge_start=0.0))
        assert len(out) == 1
        assert out[0].send_time == 1.77
        assert out[0].kind is PacketKind.REAL

    def test_unit_ratio_gives_slot_per_slot(self):
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=1.0, C=5.0)
        slots = [0.5, 1.0, 1.5]
        out = simulate_upload(Trace([], []), params, slots, surge_start=0.5)
        upload_slots = [p.send_time for p in out if p.send_time >= 0.5]
        assert upload_slots == slots

    def test_prelude_rate_before_surge(self):
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=4.0, C=5.0, initial_upload_rate=4.0)
        out = simulate_upload(Trace([], []), params, [], surge_start=1.0)
        assert [p.send_time for p in out] == [0.0, 0.25, 0.5, 0.75]

    def test_slot_beats_flush_on_tie(self):
        # One upload available at 0 with C=1.0 and a slot exactly at 1.0:
        # the slot carries the packet, no dummy is emitted.
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=1.0, C=1.0)
        out = simulate_upload(one_upload(), params, [1.0], surge_start=0.0)
        assert [(p.send_time, p.kind) for p in out] == [(1.0, PacketKind.REAL)]


class TestApply:
    def test_empty_trace(self):
        defended = apply_regulator(Trace([], []), HEAVY, seed=11)
        assert len(defended) == 0
        assert 0 <= defended.drawn_budget <= HEAVY.N
        assert defended.seed == 11

    def test_determinism(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 200)
        first = apply_regulator(trace, HEAVY, seed=5)
        second = apply_regulator(trace, HEAVY, seed=5)
        assert first == second

    def test_conservation_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            trace = random_trace(rng, 300)
            params = random_params(rng)
            defended = apply_regulator(trace, params, int(rng.integers(0, 2**32)))
            assert_conservation_and_fifo(trace, defended)
            assert defended.dummy_count(Direction.DOWNLOAD) <= defended.drawn_budget <= params.N
            for p in defended:
                if p.kind is PacketKind.REAL and p.direction is Direction.UPLOAD:
                    assert p.delay <= params.C + 1e-9

    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            trace = random_trace(rng, 300)
            params = random_params(rng, max_budget=200)
            seed = int(rng.integers(0, 2**63))
            mine = apply_regulator(trace, params, seed)
            reference, _ = reference_defend(trace, params, seed)
            assert mine.drawn_budget == reference.drawn_budget
            assert schedule_key(mine) == schedule_key(reference)

    def test_slot_gaps_follow_rate_law(self):
        # The reference trail records the rate each slot's gap used; between
        # consecutive slots the gap must be the inverse of that rate.
        rng = np.random.default_rng(99)
        for _ in range(10):
            trace = random_trace(rng, 200)
            params = random_params(rng, max_budget=100)
            _, trail = reference_defend(trace, params, int(rng.integers(0, 2**32)))
            for a, b in zip(trail, trail[1:]):
                assert b.time - a.time == pytest.approx(1.0 / a.rate, abs=1e-9)

    def test_inactive_defense_passes_uploads_through(self):
        # Below the download activation threshold the whole defense is
        # inactive: upload packets keep their original times, no dummies.
        times = [float(i) for i in range(9)] + [0.5, 3.5]
        directions = [Direction.DOWNLOAD] * 9 + [Direction.UPLOAD] * 2
        order = np.argsort(times, kind="stable")
        trace = Trace(np.array(times)[order], np.array(directions)[order])
        defended = apply_regulator(trace, HEAVY, seed=2)
        assert defended.dummy_count() == 0
        assert [(p.send_time, p.direction) for p in defended] == [
            (p.time, p.direction) for p in trace
        ]

    def test_nine_downloads_keep_schedule(self):
        trace = Trace([0.3 * i for i in range(9)], [Direction.DOWNLOAD] * 9)
        defended = apply_regulator(trace, HEAVY, seed=4)
        assert defended.dummy_count() == 0
        assert [p.send_time for p in defended] == [p.time for p in trace]

    def test_tail_grace_extends_schedule(self):
        params_grace = RegulatorParams(R=1.0, D=1.0, T=1000.0, N=3, U=1.0, C=1.77, tail_grace=2.0)
        seed = seed_with_budget(3, 3)
        schedule = simulate_download(downloads(10), params_grace, seed)
        # Dummies stop at t=2 but the slot clock runs on until t=4.
        assert schedule.slots[-1] == pytest.approx(3.0)
        assert len([p for p in schedule.packets if p.kind is PacketKind.DUMMY]) == 3
