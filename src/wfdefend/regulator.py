"""RegulaTor traffic shaping simulated offline over a recorded trace.

The download side replays the trace through a rate-scheduled padding loop:
after the first ten download packets pass through untouched, packets are
emitted in slots whose spacing follows a surging-then-decaying target rate.
A slot carries the oldest queued real packet if one is available, else a
dummy while a randomly drawn padding budget lasts, else nothing. When the
queue of waiting real packets outgrows a threshold proportional to the
current rate, the surge clock restarts and the rate jumps back up.

The upload side never sees the page content: before the download surge it
pads at a fixed rate, afterwards it emits one slot per U download slots,
and any real upload packet queued longer than the delay cap C is flushed
out immediately.

Everything here is a pure function of (trace, params, seed).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .traces import (
    MAX_SLOTS,
    DefendedTrace,
    Direction,
    Trace,
    _prebuilt,
    check_count,
    check_positive,
    merge,
)

# The download schedule only starts once this many download packets exist.
ACTIVATION_PACKETS = 10


@dataclass(frozen=True, slots=True)
class RegulatorParams:
    """Defense parameters.

    R: initial surge rate, packets/second.
    D: per-second multiplicative decay of the target rate, in (0, 1].
    T: surge threshold; a queue above T*rate restarts the surge.
    N: maximum download padding budget, packets; the realized budget is
       drawn uniformly from {0, ..., N} per trace.
    U: download-to-upload packet ratio (one upload slot per U download
       slots), at least 1: a download slot fires at most one upload slot.
    C: delay cap, seconds; real upload packets are never queued longer.
    initial_upload_rate and tail_grace are constants that `asdict` lists
    after the six: 4 upload slots/second before the surge begins, and 0 s
    of download clock past the last real packet and dummy.
    """

    randomized: ClassVar[bool] = True

    R: float
    D: float
    T: float
    N: int
    U: float
    C: float
    initial_upload_rate: float = field(default=4.0, init=False)
    tail_grace: float = field(default=0.0, init=False)

    def __post_init__(self):
        for name in ("R", "T", "U", "C"):
            check_positive(name, getattr(self, name))
        if isinstance(self.D, bool) or not 0 < self.D <= 1:
            raise ValueError(f"D must be in (0, 1], got {self.D!r}")
        if self.U < 1:
            raise ValueError(f"U must be at least 1 download slot per upload slot, got {self.U!r}")
        check_count("N", self.N, 0)

    def apply(self, trace: Trace, seed: int) -> DefendedTrace:
        return apply_regulator(trace, self, seed)


@dataclass(frozen=True, slots=True)
class DownloadSchedule:
    """Download half of a defended trace plus what the upload side needs."""

    packets: DefendedTrace
    slots: tuple[float, ...]
    surge_start: float
    drawn_budget: int


def simulate_download(trace: Trace, params: RegulatorParams, seed: int) -> DownloadSchedule:
    """Run the download padding loop over the trace's download packets.

    Traces with fewer than ACTIVATION_PACKETS download packets never start
    the schedule: their download packets pass through unmodified and
    surge_start is +inf. The padding budget is drawn from the seed either
    way so it is always recorded. The last slot is the one that sends the
    last real packet or the last dummy, whichever comes later. More than
    MAX_SLOTS silent slots, with no real packet waiting and the budget
    spent, raise ValueError.
    """
    rng = np.random.default_rng(seed)
    budget = int(rng.integers(0, params.N + 1))
    down_times = trace.times_of(Direction.DOWNLOAD)
    total = len(down_times)

    if total < ACTIVATION_PACKETS:
        passthrough = _half(Direction.DOWNLOAD, down_times, down_times)
        return DownloadSchedule(passthrough, (), math.inf, budget)

    # An infinite arrival past the last ends the arrival scan without a bound test.
    down = [*down_times.tolist(), math.inf]
    R, D, T = params.R, params.D, params.T
    surge_start = down[ACTIVATION_PACKETS - 1]
    surge_time = surge_start
    slot = surge_start
    next_unsent = ACTIVATION_PACKETS
    available = ACTIVATION_PACKETS
    # Every slot's time, and the index of each slot that finds the queue
    # empty: the first `budget` of those carry a dummy, the rest pass
    # silently. Every other slot carries the next real packet.
    slots: list[float] = []
    append = slots.append
    idle_at: list[int] = []

    # Phase 1, while real data remains: the queue decides each slot.
    while next_unsent < total:
        rate = R * D ** (slot - surge_time)
        if rate < 1.0:
            rate = 1.0
        while down[available] <= slot:
            available += 1
        waiting = available - next_unsent
        # A reset takes effect on the *next* slot; this slot's gap still
        # uses the rate computed above.
        if waiting > T * rate:
            surge_time = slot
        if waiting > 0:
            next_unsent += 1
        else:
            idle_at.append(len(slots))
            if len(idle_at) - budget > MAX_SLOTS:
                raise ValueError(
                    f"more than {MAX_SLOTS} silent download slots, the last at {slot} s"
                )
        append(slot)
        next_slot = slot + 1.0 / rate
        if next_slot == slot:
            raise _stalled(rate, slot)
        slot = next_slot
    phase_one = len(slots)

    # Phase 2: the rest of the budget, one dummy per slot. An empty queue
    # never resets the surge, and a clock that stalls stays stalled at the
    # slot where it stalled, so one test after the loop finds it.
    # Once the rate R * D ** x, x = slot - surge_time, rounds below 1, every
    # later dummy's slot is at the 1-packet/s floor too, 1.0 s after the
    # last, and `_floor_slots` sums them: x never falls, so with D = 1 the
    # rate stays R, and with D <= 1 - 2**-20 each step of x by about a
    # second lowers R * D ** x by a relative 2**-20 or more, far above the
    # few-ulp error of the power and the product.
    floor_runs = D == 1.0 or D <= 1.0 - 2.0**-20
    for left in range(budget - len(idle_at), 0, -1):
        rate = R * D ** (slot - surge_time)
        if rate < 1.0:
            if floor_runs:
                run = _floor_slots(slot, left)
                slot = run.pop()
                slots += run
                break
            rate = 1.0
        append(slot)
        slot = slot + 1.0 / rate
    if len(slots) > phase_one and slot == slots[-1]:
        raise _stalled(max(R * D ** (slot - surge_time), 1.0), slot)

    # Send and source time per emitted packet; a NaN source marks a dummy.
    send = np.array(slots)
    source = np.full(len(slots), math.nan)
    real = np.ones(phase_one, bool)
    real[idle_at] = False
    source[:phase_one][real] = down_times[ACTIVATION_PACKETS:]
    silent_at = idle_at[budget:]
    if silent_at:
        send, source = np.delete(send, silent_at), np.delete(source, silent_at)
    first = down_times[:ACTIVATION_PACKETS]
    packets = _half(
        Direction.DOWNLOAD, np.concatenate([first, send]), np.concatenate([first, source])
    )
    return DownloadSchedule(packets, tuple(slots), surge_start, budget)


def _half(direction: Direction, send: np.ndarray, source: np.ndarray) -> DefendedTrace:
    """One direction's packets as the slot loops build them: sends finite
    and sorted, each real packet's source finite and at most its send, a
    NaN source for a dummy. `merge` checks the whole trace, so the half is
    not checked here."""
    return _prebuilt(
        DefendedTrace, send_time=send, direction=np.full(len(send), direction, np.int8),
        source_time=source,
    )


def _floor_slots(start: float, count: int) -> list[float]:
    """`start` and the `count` slots after it at the 1-packet/s floor:
    start, start + 1.0, (start + 1.0) + 1.0, ... `np.add.accumulate` adds
    strictly in order, so each is the slot loop's `slot + 1.0 / 1.0` to the
    bit."""
    steps = np.empty(count + 1)
    steps.fill(1.0)
    steps[0] = start
    return np.add.accumulate(steps, out=steps).tolist()


def _stalled(rate: float, slot: float) -> ValueError:
    return ValueError(f"slot gap 1/{rate:g} s is too small to advance the slot clock at {slot} s")


# The download slots that fire an upload slot depend only on the credit per
# slot, 1/U, and the slot's index. A process runs one U at a time (a preset,
# or one tuner trial after another), so one walk is kept, restarted when 1/U
# changes: (1/U, slots walked, the credit after them, the indices that fired).
_firings: tuple[float, int, float, list[int]] = (0.0, 0, 0.0, [])


def _firing_slots(credit_per_slot: float, count: int) -> list[int]:
    """The indices below `count` of the download slots that fire an upload
    slot: each slot adds `credit_per_slot` to a credit that starts at 0, and
    a slot fires when the credit reaches 1, which it then loses. The walk
    is kept and extended, so every index comes from the same float
    recurrence as a walk from slot 0."""
    global _firings
    kept, walked, credit, fired = _firings
    if kept != credit_per_slot:
        walked, credit, fired = 0, 0.0, []
    fired = fired.copy()  # threads share the published walk, so it is never written to
    for index in range(walked, count):
        credit += credit_per_slot
        if credit >= 1.0:
            credit -= 1.0
            fired.append(index)
    _firings = (credit_per_slot, max(walked, count), credit, fired)
    return fired[:bisect_left(fired, count)]


def simulate_upload(
    trace: Trace,
    params: RegulatorParams,
    download_slots: Sequence[float],
    surge_start: float,
) -> DefendedTrace:
    """Schedule the upload side against an already-simulated download side.

    Upload slots run at initial_upload_rate from t=0 until the surge starts,
    then one slot fires per U download slots (fractional ratios accumulate
    credit). No real packet waits longer than C: before each slot, every
    queued packet whose `time + C` lies strictly before the slot is flushed
    out at that instant without consuming a slot. The slot then sends the
    oldest real packet queued at or before it, else a dummy; a packet whose
    flush falls exactly on a slot goes out in the slot. Packets still queued
    after the last slot are flushed at `time + C`. Flushes keep the packets'
    order, since `time + C` never decreases along the sorted upload times.

    If the download schedule never started (surge_start is +inf) the whole
    defense is inactive and upload packets pass through unmodified.
    """
    up_times = trace.times_of(Direction.UPLOAD)
    if math.isinf(surge_start):
        return _half(Direction.UPLOAD, up_times, up_times)
    if surge_start * params.initial_upload_rate > MAX_SLOTS:
        raise ValueError(
            f"the upload prelude before the surge at {surge_start} s needs more than "
            f"{MAX_SLOTS} slots"
        )

    # The prelude's ticks k * gap before the surge; the gap is 1/4 s, so
    # every tick is exact.
    prelude_gap = 1.0 / params.initial_upload_rate
    slots: list[float] = []
    while (tick := len(slots) * prelude_gap) < surge_start:
        slots.append(tick)
    slots += [download_slots[i] for i in _firing_slots(1.0 / params.U, len(download_slots))]

    cap = params.C
    up = up_times.tolist()
    total = len(up)
    # An infinite packet past the last ends both scans without a bound test.
    flushes = [*(t + cap for t in up), math.inf]
    up.append(math.inf)
    send: list[float] = []
    source: list[float] = []
    append_send, append_source = send.append, source.append
    sent = 0
    # Once the last real packet has gone out, every later slot is a dummy:
    # the slots from `dummies_from` on are added in one step.
    dummies_from = len(slots) if total else 0
    for index in range(dummies_from):
        slot = slots[index]
        if flushes[sent] < slot:
            while flushes[sent] < slot:
                append_send(flushes[sent])
                append_source(up[sent])
                sent += 1
            if sent == total:
                dummies_from = index
                break
        append_send(slot)
        if up[sent] <= slot:
            append_source(up[sent])
            sent += 1
            if sent == total:
                dummies_from = index + 1
                break
        else:
            append_source(math.nan)
    send += slots[dummies_from:]
    source += [math.nan] * (len(slots) - dummies_from)
    send += flushes[sent:total]
    source += up[sent:total]
    return _half(Direction.UPLOAD, np.array(send), np.array(source))


def apply_regulator(trace: Trace, params: RegulatorParams, seed: int) -> DefendedTrace:
    """Defend a trace; a pure function of (trace, params, seed)."""
    download = simulate_download(trace, params, seed)
    upload = simulate_upload(trace, params, download.slots, download.surge_start)
    return merge([(h.send_time, h.direction, h.source_time) for h in (download.packets, upload)])
