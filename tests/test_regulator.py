import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_conservation_and_fifo,
    assert_draw_spent,
    float_bits,
    random_params,
    random_trace,
    rows,
    schedule_key,
    seed_with_budget,
    surge_slots,
)
from oracle_regulator import _reference_upload, reference_defend

from wfdefend import (
    Direction,
    PacketKind,
    RegulatorParams,
    Trace,
    apply_regulator,
    regulator,
    resolve_defense,
)
from wfdefend.regulator import (
    ACTIVATION_PACKETS,
    _firing_slots,
    _floor_slots,
    simulate_download,
    simulate_upload,
)
from wfdefend.traces import MAX_SLOTS

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
            dict(N=True),
            # R=inf once passed, and every trace then failed at the slot clock.
            dict(R=math.inf),
            dict(R=True),
            dict(T=math.nan),
            dict(U=math.inf),
            dict(C=math.inf),
            dict(D=True),
            # A download slot fires at most one upload slot, so U=0.5 once ran as U=1.
            dict(U=0.5),
            dict(U=0.999),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(R=277.0, D=0.94, T=3.55, N=3550, U=3.95, C=1.77)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RegulatorParams(**base)

    def test_constants_are_not_settable(self):
        # Only the paper's six are parameters; `asdict` still lists the two
        # constants after them, as `adjust` and the trial log print them.
        base = dict(R=277.0, D=0.94, T=3.55, N=3550, U=3.95, C=1.77)
        for name in ("initial_upload_rate", "tail_grace"):
            with pytest.raises(TypeError, match=name):
                RegulatorParams(**base, **{name: 1.0})
            with pytest.raises(ValueError, match=name):
                replace(HEAVY, **{name: 1.0})
        assert list(asdict(HEAVY).items()) == [
            ("R", 277.0), ("D", 0.94), ("T", 3.55), ("N", 3550), ("U", 3.95), ("C", 1.77),
            ("initial_upload_rate", 4.0), ("tail_grace", 0.0),
        ]


@pytest.fixture(scope="module")
def surge():
    return surge_slots(HEAVY, 5000)


class TestTargetRate:
    """The rate law, read from the gaps between the slots of one surge."""

    def test_at_surge_start(self, surge):
        assert surge[:2] == [0.0, 1.0 / 277.0]

    def test_decayed_matches_direct_evaluation(self, surge):
        # Oracle: evaluate R * D**t directly, floored at 1, at every slot.
        for slot, following in zip(surge, surge[1:]):
            assert following == slot + 1.0 / max(1.0, 277.0 * 0.94 ** slot)

    def test_floor_engages_for_large_elapsed(self, surge):
        assert 277.0 * 0.94**120 < 1.0
        floored = [slot for slot in surge if 277.0 * 0.94**slot < 1.0]
        assert floored[-1] > 120.0
        assert all(b == a + 1.0 for a, b in zip(floored, floored[1:]))


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


class TestSlotLimit:
    """Accepted inputs that once kept the slot clock running now raise promptly."""

    def test_creeping_slot_clock_hits_the_silent_slot_limit(self):
        # From slot 0 the gap 1e-20 s still moves the clock, so about 1e17
        # silent slots would pass before the download at 1 ms.
        params = RegulatorParams(R=1e20, D=0.94, T=3.55, N=0, U=3.95, C=1.77)
        trace = Trace(np.r_[np.zeros(10), 0.001], np.full(11, Direction.DOWNLOAD))
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"more than {MAX_SLOTS} silent download slots"):
            apply_regulator(trace, params, 0)
        assert time.monotonic() - start < 5.0

    def test_budget_past_the_limit_is_rejected(self):
        # A budget of 1e12 dummies at 1 slot/s once ran without end.
        with pytest.raises(ValueError, match=f"N must be at most {MAX_SLOTS}"):
            resolve_defense("regulator-heavy", {"N": 1e12})
        with pytest.raises(ValueError, match=f"N must be at most {MAX_SLOTS}"):
            RegulatorParams(R=1.0, D=1.0, T=1.0, N=MAX_SLOTS + 1, U=1.0, C=1.0)
        assert RegulatorParams(R=1.0, D=1.0, T=1.0, N=MAX_SLOTS, U=1.0, C=1.0).N == MAX_SLOTS

    def test_long_upload_prelude_is_rejected(self):
        times = np.r_[np.zeros(9), 1e8, 1e8 + 1]
        trace = Trace(times, np.full(11, Direction.DOWNLOAD))
        start = time.monotonic()
        with pytest.raises(ValueError, match="upload prelude"):
            apply_regulator(trace, HEAVY, 0)
        assert time.monotonic() - start < 5.0


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
        params = RegulatorParams(R=2.0, D=1.0, T=1.0, N=0, U=4.0, C=5.0)
        out = simulate_upload(Trace([], []), params, [], surge_start=1.0)
        assert [p.send_time for p in out] == [0.0, 0.25, 0.5, 0.75]

    def test_firing_slots_are_one_walk_however_they_are_asked_for(self):
        def walk(credit_per_slot, count):
            credit, fired = 0.0, []
            for index in range(count):
                credit += credit_per_slot
                if credit >= 1.0:
                    credit -= 1.0
                    fired.append(index)
            return fired

        for U in (1.0, 3.95, 4.02, 7.3):
            for count in (0, 500, 37, 5000, 1200):
                assert list(_firing_slots(1.0 / U, count)) == walk(1.0 / U, count)
        # U switched on every call restarts the one kept walk each time.
        for U, count in [(3.95, 800), (7.3, 300), (3.95, 900), (1.0, 50), (7.3, 1200)]:
            assert list(_firing_slots(1.0 / U, count)) == walk(1.0 / U, count)

    def test_firing_slots_are_the_same_from_threads_that_share_the_walk(self, monkeypatch):
        # Threads that extended one warm walk once appended to the same list,
        # so each got the others' indices among its own, out of order.
        credit_per_slot, count = 1.0 / 3.95, 200_000
        expected = list(_firing_slots(credit_per_slot, count))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(regulator, "_firings", (0.0, 0, 0.0, []))
                _firing_slots(credit_per_slot, 1_000)  # the warm walk
                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(lambda _: _firing_slots(credit_per_slot, count),
                                            range(4)))
                assert all(result == expected for result in results)
        finally:
            sys.setswitchinterval(interval)

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
        assert 0 <= simulate_download(Trace([], []), HEAVY, seed=11).drawn_budget <= HEAVY.N

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
            seed = int(rng.integers(0, 2**32))
            defended = apply_regulator(trace, params, seed)
            assert_conservation_and_fifo(trace, defended)
            assert_draw_spent(trace, params, seed, defended)
            for p in defended:
                if p.kind is PacketKind.REAL and p.direction is Direction.UPLOAD:
                    assert p.send_time - p.source_time <= params.C + 1e-9

    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            trace = random_trace(rng, 300)
            params = random_params(rng, max_budget=200)
            seed = int(rng.integers(0, 2**63))
            mine = apply_regulator(trace, params, seed)
            reference, _ = reference_defend(trace, params, seed)
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
        assert [(p.send_time, p.direction) for p in defended] == list(rows(trace))

    def test_nine_downloads_keep_schedule(self):
        trace = Trace([0.3 * i for i in range(9)], [Direction.DOWNLOAD] * 9)
        defended = apply_regulator(trace, HEAVY, seed=4)
        assert defended.dummy_count() == 0
        assert [p.send_time for p in defended] == [time for time, _ in rows(trace)]


# Upload cases on a 0.25 s grid: slots, upload times, C and surge_start all
# land on it, so flushes fall exactly on slots, several flushes fall between
# two slots, and some fall after the last slot.
GRID = 0.25


@st.composite
def upload_cases(draw):
    up = sorted(draw(st.lists(st.integers(0, 40), max_size=25)))
    surge = draw(st.integers(0, 12))
    gaps = draw(st.lists(st.integers(1, 6), max_size=30))
    slots = (surge + np.cumsum(gaps, dtype=int)).tolist()
    if gaps and draw(st.booleans()):
        slots = [surge, *slots]
    params = RegulatorParams(
        R=2.0, D=1.0, T=1.0, N=0,
        U=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        C=draw(st.integers(1, 12)) * GRID,
    )
    trace = Trace([k * GRID for k in up], [Direction.UPLOAD] * len(up))
    return trace, params, [k * GRID for k in slots], surge * GRID


def prelude_tick_examples(test):
    """Surge starts on a prelude tick, k / initial_upload_rate, and one ulp
    to either side, as examples of `test`."""
    params = replace(HEAVY, U=1.0)
    for k in (1, 2, 3, 7, 10):
        tick = k / params.initial_upload_rate
        for surge in (math.nextafter(tick, 0.0), tick, math.nextafter(tick, math.inf)):
            trace = Trace([0.0, surge], [Direction.UPLOAD] * 2)
            test = example((trace, params, [surge, surge + 1.0], surge))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(upload_cases())
@example((Trace([], []), HEAVY, [], 0.0))
@example((Trace([0.0, 0.0, 0.25], [Direction.UPLOAD] * 3), replace(HEAVY, U=1.0, C=1.0), [], 0.0))
@example((Trace([0.0, 0.0], [Direction.UPLOAD] * 2), replace(HEAVY, U=1.0, C=1.0), [1.0], 1.0))
@prelude_tick_examples
def test_upload_matches_the_event_merge_bit_for_bit(case):
    upload_matches_the_event_merge(*case)


def upload_matches_the_event_merge(trace, params, slots, surge_start):
    """simulate_upload's send and source times equal the event merge's,
    bit for bit."""
    out = simulate_upload(trace, params, slots, surge_start)
    rows = _reference_upload(trace.times.tolist(), params, slots, surge_start)
    send = [r[0] for r in rows]
    source = [math.nan if r[3] is None else r[3] for r in rows]
    dummy = np.isnan(source)
    assert float_bits(out.send_time) == float_bits(send)
    assert out.dummy.tolist() == dummy.tolist()
    assert np.isnan(out.source_time).tolist() == dummy.tolist()
    assert float_bits(out.source_time[~dummy]) == float_bits(np.array(source)[~dummy])


def download_matches_the_oracle(trace, params, seed):
    """simulate_download's slots, send and source times equal the oracle's
    trail and download half, bit for bit; returns the oracle's trail."""
    schedule = simulate_download(trace, params, seed)
    reference, trail = reference_defend(trace, params, seed)
    down = reference.direction == Direction.DOWNLOAD
    if trace.count(Direction.DOWNLOAD) >= ACTIVATION_PACKETS:
        assert schedule.drawn_budget == reference.dummy_count(Direction.DOWNLOAD)
    assert float_bits(schedule.slots) == float_bits([slot.time for slot in trail])
    assert float_bits(schedule.packets.send_time) == float_bits(reference.send_time[down])
    assert float_bits(schedule.packets.source_time) == float_bits(reference.source_time[down])
    return trail


def short_trace(rng, duration):
    """10 to 200 packets, about a fifth of them uploads, half the traces on
    a 0.1 s grid so that bursts tie and the queue outgrows the threshold."""
    n = int(rng.integers(10, 201))
    times = np.sort(rng.uniform(0.0, duration, n))
    if rng.random() < 0.5:
        times = np.round(times, 1)
    upload = rng.random(n) < 0.2
    return Trace(times - times[0], np.where(upload, Direction.UPLOAD, Direction.DOWNLOAD))


def tuned_params(rng, N):
    """A draw from the tuner's default search space with the given N."""
    return RegulatorParams(
        R=float(rng.uniform(100.0, 600.0)), D=float(rng.uniform(0.7, 0.99)),
        T=float(rng.uniform(1.0, 10.0)), N=N, U=float(rng.uniform(1.0, 8.0)),
        C=float(rng.uniform(0.5, 5.0)),
    )


def test_download_in_the_tuners_regime_matches_the_oracle_bit_for_bit():
    # Short traces with budgets up to 8,000: most slots are dummies after
    # the last real packet.
    rng = np.random.default_rng(16)
    for _ in range(60):
        params = tuned_params(rng, int(rng.integers(0, 8001)))
        download_matches_the_oracle(short_trace(rng, 8.0), params, int(rng.integers(0, 2**63)))


def test_budget_zero_with_exactly_ten_downloads_matches_the_oracle():
    times = [0.0, 0.1, 0.1, 0.2, 0.5, 0.5, 0.7, 0.9, 1.2, 1.3, 1.4, 1.6]
    D, U = Direction.DOWNLOAD, Direction.UPLOAD
    trace = Trace(times, [D] * 9 + [U, D, U])
    params = tuned_params(np.random.default_rng(7), 0)
    assert not download_matches_the_oracle(trace, params, 0)


def test_budget_spent_before_at_and_after_the_last_real_packet_matches_the_oracle():
    # The slots that find the queue empty while real data remains do not
    # depend on the budget, so with `idle` of them a budget of idle - 1 is
    # spent before the last real packet, idle at it, idle + 1 after it.
    rng = np.random.default_rng(61)
    for _ in range(8):
        trace = short_trace(rng, 2.0)
        params = tuned_params(rng, 0)
        idle = sum(slot.emitted == "none" for slot in reference_defend(trace, params, 0)[1])
        for budget in range(max(idle - 1, 0), idle + 2):
            spent = replace(params, N=budget)
            download_matches_the_oracle(trace, spent, seed_with_budget(budget, budget))


@pytest.mark.parametrize("times, budget", [
    ([0.0] * 10 + [3.0], 0),  # silent slots while real data remains
    ([0.0] * 10 + [3.0], 40),  # dummies while real data remains do not count
])
def test_silent_slot_limit_falls_on_the_oracles_slot(monkeypatch, times, budget):
    trace = Trace(times, [Direction.DOWNLOAD] * len(times))
    params = RegulatorParams(R=20.0, D=0.8, T=5.0, N=budget, U=2.0, C=1.0)
    seed = seed_with_budget(budget, budget)
    trail = download_matches_the_oracle(trace, params, seed)
    silent = [slot.time for slot in trail if slot.emitted == "none"]
    for limit in (0, 1, len(silent) // 2, len(silent) - 1):
        monkeypatch.setattr("wfdefend.regulator.MAX_SLOTS", limit)
        message = f"more than {limit} silent download slots, the last at {silent[limit]} s"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_download(trace, params, seed)
    monkeypatch.setattr("wfdefend.regulator.MAX_SLOTS", len(silent))
    assert len(simulate_download(trace, params, seed).slots) == len(trail)


@pytest.mark.parametrize("downloads_at_one, budget", [
    (12, 0),  # the clock stalls with real packets queued
    (10, 5),  # with only dummies left
])
def test_stalled_clock_is_rejected_at_its_first_slot(downloads_at_one, budget):
    # At R=1e20 the gap 1/R is lost in rounding at t=1 s.
    params = RegulatorParams(R=1e20, D=0.94, T=3.55, N=budget, U=3.95, C=1.77)
    message = "slot gap 1/1e+20 s is too small to advance the slot clock at 1.0 s"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_download(downloads(downloads_at_one, time=1.0), params,
                          seed_with_budget(budget, budget))


# Floor runs: once the rate R * D ** x rounds below 1, the regulator sums
# the rest of its budget's dummies at 1 packet/s instead of looping over
# them. Each case below must take such a run (the `floor_runs` spy records
# them) and match the oracle bit for bit.


@pytest.fixture
def floor_runs(monkeypatch):
    """The (start, count) of every floor run the regulator sums."""
    runs = []

    def spy(start, count):
        runs.append((start, count))
        return _floor_slots(start, count)

    monkeypatch.setattr("wfdefend.regulator._floor_slots", spy)
    return runs


def regulator_matches_the_oracle(trace, params, seed):
    """Both halves, and the merged trace, equal the oracle's bit for bit;
    returns the oracle's trail."""
    trail = download_matches_the_oracle(trace, params, seed)
    mine = apply_regulator(trace, params, seed)
    reference, _ = reference_defend(trace, params, seed)
    for column in ("send_time", "source_time", "direction"):
        assert float_bits(getattr(mine, column)) == float_bits(getattr(reference, column)), column
    return trail


def mixed(downloads, uploads):
    """A trace of downloads and uploads at the given times."""
    packets = sorted([(t, Direction.DOWNLOAD) for t in downloads]
                     + [(t, Direction.UPLOAD) for t in uploads])
    return Trace([t for t, _ in packets], [d for _, d in packets])


def test_floor_runs_add_one_second_in_order():
    run = _floor_slots(0.1, 4)
    assert float_bits(run) == float_bits([0.1, 0.1 + 1.0, 0.1 + 1.0 + 1.0, 0.1 + 1.0 + 1.0 + 1.0,
                                          0.1 + 1.0 + 1.0 + 1.0 + 1.0])
    assert _floor_slots(2.0**53, 2) == [2.0**53] * 3  # a stalled clock stays stalled


def test_tuner_draws_with_fast_decay_match_the_oracle_bit_for_bit(floor_runs):
    # D in [0.5, 0.8] reaches the floor within a few seconds of a surge, so
    # budgets up to 8,000 spend most of their dummies there.
    rng = np.random.default_rng(22)
    for _ in range(30):
        params = replace(tuned_params(rng, int(rng.integers(0, 8001))),
                         D=float(rng.uniform(0.5, 0.8)))
        regulator_matches_the_oracle(short_trace(rng, 8.0), params, int(rng.integers(0, 2**63)))
    assert len(floor_runs) >= 20


@pytest.mark.parametrize("D, runs", [
    (1.0, True),  # the rate is R = 0.5 at every slot
    (1.0 - 2.0**-20, True),  # the slowest decay that takes runs
    (1.0 - 2.0**-30, False),  # too slow a decay: the loop floors each slot
])
def test_the_floor_guards_edges_match_the_oracle(floor_runs, D, runs):
    trace = mixed([0.0] * 10 + [40.0, 41.0], [0.3, 20.0])
    params = RegulatorParams(R=0.5, D=D, T=5.0, N=50, U=1.5, C=1.0)
    trail = regulator_matches_the_oracle(trace, params, seed_with_budget(50, 50))
    assert all(slot.rate == 1.0 for slot in trail)
    assert bool(floor_runs) == runs


@pytest.mark.parametrize("up, slots, C", [
    ([1.2, 2.0], [1.0 + 0.5 * k for k in range(20)], 1.0),  # the last goes out in a slot
    ([1.1], [1.0, 2.0, 3.0, 4.0], 0.25),  # the last is flushed before a slot
    ([0.0, 0.1], [1.0, 2.0, 3.0], 1.0),  # none after the surge: the prelude sends both
    ([], [1.0, 2.0, 3.0], 1.0),  # no upload at all
    ([0.5, 9.0], [1.0, 2.0, 3.0], 1.0),  # the last outlives every slot
])
def test_upload_dummy_tail_matches_the_event_merge(up, slots, C):
    trace = Trace(up, [Direction.UPLOAD] * len(up))
    params = replace(HEAVY, U=1.0, C=C)
    upload_matches_the_event_merge(trace, params, slots, 1.0)


def test_a_floor_run_that_stalls_raises_as_the_loop_does(monkeypatch, floor_runs):
    # From 2**53 s, adding the 1 s floor gap no longer moves the clock. The
    # budget's dummies are not silent, so no silent-slot limit applies.
    monkeypatch.setattr("wfdefend.regulator.MAX_SLOTS", 0)
    params = RegulatorParams(R=0.5, D=1.0, T=5.0, N=10, U=2.0, C=1.0)
    message = f"slot gap 1/1 s is too small to advance the slot clock at {2.0**53} s"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_download(downloads(10, time=2.0**53 - 4), params, seed_with_budget(10, 10))
    assert floor_runs
