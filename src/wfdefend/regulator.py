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
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .traces import (
    MAX_SLOTS,
    DefendedTrace,
    Direction,
    Trace,
    check_count,
    check_positive,
    merge,
    one_direction,
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
    initial_upload_rate: upload slots/second before the surge begins.
    tail_grace: extra seconds the slot clock keeps running after both the
       real data and the padding budget are exhausted.
    """

    randomized: ClassVar[bool] = True

    R: float
    D: float
    T: float
    N: int
    U: float
    C: float
    initial_upload_rate: float = 4.0
    tail_grace: float = 0.0

    def __post_init__(self):
        for name in ("R", "T", "U", "C", "initial_upload_rate"):
            check_positive(name, getattr(self, name))
        if isinstance(self.D, bool) or not 0 < self.D <= 1:
            raise ValueError(f"D must be in (0, 1], got {self.D!r}")
        if self.U < 1:
            raise ValueError(f"U must be at least 1 download slot per upload slot, got {self.U!r}")
        check_count("N", self.N, 0)
        # An infinite grace would run the clock to the silent-slot limit.
        check_positive("tail_grace", self.tail_grace, or_zero=True)

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
    way so it is always recorded. More than MAX_SLOTS silent slots, with no
    real packet waiting and the budget spent, raise ValueError.
    """
    rng = np.random.default_rng(seed)
    budget = int(rng.integers(0, params.N + 1))
    down_times = trace.times_of(Direction.DOWNLOAD)
    total = len(down_times)

    if total < ACTIVATION_PACKETS:
        passthrough = one_direction(Direction.DOWNLOAD, down_times, down_times)
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
                raise _silent_limit(slot)
        append(slot)
        next_slot = slot + 1.0 / rate
        if next_slot == slot:
            raise _stalled(rate, slot)
        slot = next_slot
    phase_one = len(slots)

    # Phase 2: the rest of the budget, one dummy per slot. An empty queue
    # never resets the surge, and a clock that stalls stays stalled at the
    # slot where it stalled, so one test after the loop finds it.
    for _ in range(budget - len(idle_at)):
        rate = R * D ** (slot - surge_time)
        if rate < 1.0:
            rate = 1.0
        append(slot)
        slot = slot + 1.0 / rate
    if len(slots) > phase_one and slot == slots[-1]:
        raise _stalled(max(R * D ** (slot - surge_time), 1.0), slot)
    emitted = len(slots)

    # Phase 3: silent slots until tail_grace past the slot at which the real
    # data and the padding budget were both spent, so padding can outlive
    # the real data and vary the total trace volume.
    end = (slots[-1] if slots else surge_start) + params.tail_grace
    silent_at = idle_at[budget:]
    silent = len(silent_at)
    while slot < end:
        silent += 1
        if silent > MAX_SLOTS:
            raise _silent_limit(slot)
        rate = max(R * D ** (slot - surge_time), 1.0)
        append(slot)
        next_slot = slot + 1.0 / rate
        if next_slot == slot:
            raise _stalled(rate, slot)
        slot = next_slot

    # Send and source time per emitted packet; a NaN source marks a dummy.
    send = np.array(slots[:emitted])
    source = np.full(emitted, math.nan)
    real = np.ones(phase_one, bool)
    real[idle_at] = False
    source[:phase_one][real] = down_times[ACTIVATION_PACKETS:]
    if silent_at:
        send, source = np.delete(send, silent_at), np.delete(source, silent_at)
    first = down_times[:ACTIVATION_PACKETS]
    packets = one_direction(
        Direction.DOWNLOAD, np.concatenate([first, send]), np.concatenate([first, source])
    )
    return DownloadSchedule(packets, tuple(slots), surge_start, budget)


def _stalled(rate: float, slot: float) -> ValueError:
    return ValueError(f"slot gap 1/{rate:g} s is too small to advance the slot clock at {slot} s")


def _silent_limit(slot: float) -> ValueError:
    return ValueError(f"more than {MAX_SLOTS} silent download slots, the last at {slot} s")


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
    up = trace.times_of(Direction.UPLOAD).tolist()
    if math.isinf(surge_start):
        return one_direction(Direction.UPLOAD, up, up)
    if surge_start * params.initial_upload_rate > MAX_SLOTS:
        raise ValueError(
            f"the upload prelude before the surge at {surge_start} s needs more than "
            f"{MAX_SLOTS} slots"
        )

    # The prelude's ticks k * gap before the surge.
    prelude_gap = 1.0 / params.initial_upload_rate
    slots: list[float] = []
    while (tick := len(slots) * prelude_gap) < surge_start:
        slots.append(tick)
    slots += [download_slots[i] for i in _firing_slots(1.0 / params.U, len(download_slots))]

    cap = params.C
    total = len(up)
    # An infinite packet past the last ends both scans without a bound test.
    flushes = [*(t + cap for t in up), math.inf]
    up.append(math.inf)
    send: list[float] = []
    source: list[float] = []
    append_send, append_source = send.append, source.append
    sent = 0
    for slot in slots:
        while flushes[sent] < slot:
            append_send(flushes[sent])
            append_source(up[sent])
            sent += 1
        append_send(slot)
        if up[sent] <= slot:
            append_source(up[sent])
            sent += 1
        else:
            append_source(math.nan)
    send += flushes[sent:total]
    source += up[sent:total]
    return one_direction(Direction.UPLOAD, send, source)


def apply_regulator(trace: Trace, params: RegulatorParams, seed: int) -> DefendedTrace:
    """Defend a trace; a pure function of (trace, params, seed)."""
    download = simulate_download(trace, params, seed)
    upload = simulate_upload(trace, params, download.slots, download.surge_start)
    return merge([(h.send_time, h.direction, h.source_time) for h in (download.packets, upload)])
