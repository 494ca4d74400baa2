"""RegulaTor traffic shaping simulated offline over a recorded trace.

The download side replays the trace through a rate-scheduled padding loop:
after the first ten download packets pass through untouched, packets are
emitted in slots whose spacing follows a surging-then-decaying target rate.
A slot carries the oldest queued real packet if one is available, else a
dummy while a randomly drawn padding budget lasts, else nothing. When the
queue of waiting real packets outgrows a threshold proportional to the
current rate, the surge clock restarts and the rate jumps back up.

The upload side never sees the page content: before the download surge it
pads at a fixed rate, afterwards it emits one slot per 1/U download slots,
and any real upload packet queued longer than the delay cap C is flushed
out immediately.

Everything here is a pure function of (trace, params, seed).
"""

from __future__ import annotations

import math
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
    first_slot_at_or_after,
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
    U: download-to-upload packet ratio (one upload slot per U download slots).
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
    down = trace.times_of(Direction.DOWNLOAD).tolist()

    if len(down) < ACTIVATION_PACKETS:
        passthrough = one_direction(Direction.DOWNLOAD, down, down)
        return DownloadSchedule(passthrough, (), math.inf, budget)

    # Send and source time per emitted packet; a NaN source marks a dummy.
    send = down[:ACTIVATION_PACKETS]
    source = down[:ACTIVATION_PACKETS]
    surge_start = down[ACTIVATION_PACKETS - 1]
    surge_time = surge_start
    slot = surge_start
    total = len(down)
    next_unsent = ACTIVATION_PACKETS
    available = ACTIVATION_PACKETS
    sent_dummies = 0
    silent = 0
    # The slot clock runs until tail_grace past the slot at which the real
    # data and the padding budget are both spent, so padding can outlive
    # the real data and vary the total trace volume.
    end = math.inf
    if next_unsent == total and budget == 0:
        end = surge_start + params.tail_grace
    slots: list[float] = []

    while slot < end:
        rate = params.R * params.D ** (slot - surge_time)
        if rate < 1.0:
            rate = 1.0
        while available < total and down[available] <= slot:
            available += 1
        waiting = available - next_unsent
        # A reset takes effect on the *next* slot; this slot's gap still
        # uses the rate computed above.
        if waiting > params.T * rate:
            surge_time = slot
        if waiting > 0:
            send.append(slot)
            source.append(down[next_unsent])
            next_unsent += 1
            if next_unsent == total and sent_dummies == budget:
                end = slot + params.tail_grace
        elif sent_dummies < budget:
            send.append(slot)
            source.append(math.nan)
            sent_dummies += 1
            if sent_dummies == budget and next_unsent == total:
                end = slot + params.tail_grace
        else:  # Queue empty with the budget spent: the slot passes silently.
            silent += 1
            if silent > MAX_SLOTS:
                raise ValueError(
                    f"more than {MAX_SLOTS} silent download slots, the last at {slot} s"
                )
        slots.append(slot)
        next_slot = slot + 1.0 / rate
        if next_slot == slot:
            raise ValueError(
                f"slot gap 1/{rate:g} s is too small to advance the slot clock at {slot} s"
            )
        slot = next_slot

    packets = one_direction(Direction.DOWNLOAD, send, source)
    return DownloadSchedule(packets, tuple(slots), surge_start, budget)


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

    prelude_gap = 1.0 / params.initial_upload_rate
    slots = (np.arange(first_slot_at_or_after(surge_start, prelude_gap)) * prelude_gap).tolist()
    upload_credit = 0.0
    for slot in download_slots:
        upload_credit += 1.0 / params.U
        if upload_credit >= 1.0:
            upload_credit -= 1.0
            slots.append(slot)

    flushes = [t + params.C for t in up]
    send: list[float] = []
    source: list[float] = []
    sent = 0
    for slot in slots:
        while sent < len(up) and flushes[sent] < slot:
            send.append(flushes[sent])
            source.append(up[sent])
            sent += 1
        send.append(slot)
        if sent < len(up) and up[sent] <= slot:
            source.append(up[sent])
            sent += 1
        else:
            source.append(math.nan)
    send += flushes[sent:]
    source += up[sent:]
    return one_direction(Direction.UPLOAD, send, source)


def apply_regulator(trace: Trace, params: RegulatorParams, seed: int) -> DefendedTrace:
    """Defend a trace; a pure function of (trace, params, seed)."""
    download = simulate_download(trace, params, seed)
    upload = simulate_upload(trace, params, download.slots, download.surge_start)
    halves = [(h.send_time, h.direction, h.source_time) for h in (download.packets, upload)]
    return merge(halves, drawn_budget=download.drawn_budget)
