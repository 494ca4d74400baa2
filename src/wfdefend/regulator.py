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
    DefendedTrace,
    Direction,
    Trace,
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
        if not self.R > 0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if not 0 < self.D <= 1:
            raise ValueError(f"D must be in (0, 1], got {self.D}")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not (isinstance(self.N, int) and self.N >= 0):
            raise ValueError(f"N must be a non-negative integer, got {self.N}")
        if not self.U > 0:
            raise ValueError(f"U must be > 0, got {self.U}")
        if not self.C > 0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if not self.initial_upload_rate > 0:
            raise ValueError(
                f"initial_upload_rate must be > 0, got {self.initial_upload_rate}"
            )
        if self.tail_grace < 0:
            raise ValueError(f"tail_grace must be >= 0, got {self.tail_grace}")

    def apply(self, trace: Trace, seed: int) -> DefendedTrace:
        return apply_regulator(trace, self, seed)


@dataclass(frozen=True, slots=True)
class DownloadSchedule:
    """Download half of a defended trace plus what the upload side needs."""

    packets: DefendedTrace
    slots: tuple[float, ...]
    surge_start: float
    drawn_budget: int


def target_rate(params: RegulatorParams, elapsed: float) -> float:
    """Target sending rate `elapsed` seconds into a surge, floored at 1 pkt/s."""
    if elapsed < 0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    rate = params.R * params.D ** elapsed
    if rate < 1.0:
        return 1.0
    return rate


def simulate_download(trace: Trace, params: RegulatorParams, seed: int) -> DownloadSchedule:
    """Run the download padding loop over the trace's download packets.

    Traces with fewer than ACTIVATION_PACKETS download packets never start
    the schedule: their download packets pass through unmodified and
    surge_start is +inf. The padding budget is drawn from the seed either
    way so it is always recorded.
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
    # Times at which the two stop conditions were met; the slot clock keeps
    # running until tail_grace past the later of the two, so padding can
    # outlive the real data and vary the total trace volume.
    last_real_time = surge_start if next_unsent == total else None
    budget_done_time = surge_start if budget == 0 else None
    slots: list[float] = []

    while True:
        if last_real_time is not None and budget_done_time is not None:
            if slot >= max(last_real_time, budget_done_time) + params.tail_grace:
                break
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
            if next_unsent == total:
                last_real_time = slot
        elif sent_dummies < budget:
            send.append(slot)
            source.append(math.nan)
            sent_dummies += 1
            if sent_dummies == budget:
                budget_done_time = slot
        # Queue empty with the budget spent: the slot passes silently.
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
    credit). Each slot sends the oldest waiting real upload packet, else a
    dummy. Independent flush events guarantee no real packet waits longer
    than C: a packet still queued exactly C seconds after it became
    available goes out immediately without consuming a slot. When a slot
    and a flush coincide the slot fires first.

    If the download schedule never started (surge_start is +inf) the whole
    defense is inactive and upload packets pass through unmodified.
    """
    up = trace.times_of(Direction.UPLOAD).tolist()
    if math.isinf(surge_start):
        return one_direction(Direction.UPLOAD, up, up)

    slots: list[float] = []
    prelude_gap = 1.0 / params.initial_upload_rate
    k = 0
    while k * prelude_gap < surge_start:
        slots.append(k * prelude_gap)
        k += 1
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
    available = 0
    si = 0
    fi = 0
    while si < len(slots) or fi < len(up):
        if fi < sent:
            # This packet already went out through a slot; drop its flush.
            fi = sent
            continue
        slot_first = si < len(slots) and (fi >= len(up) or slots[si] <= flushes[fi])
        if slot_first:
            slot = slots[si]
            si += 1
            while available < len(up) and up[available] <= slot:
                available += 1
            send.append(slot)
            if sent < available:
                source.append(up[sent])
                sent += 1
            else:
                source.append(math.nan)
        else:
            send.append(flushes[fi])
            source.append(up[fi])
            sent = fi + 1
            fi += 1
    return one_direction(Direction.UPLOAD, send, source)


def apply_regulator(trace: Trace, params: RegulatorParams, seed: int) -> DefendedTrace:
    """Defend a trace; a pure function of (trace, params, seed)."""
    download = simulate_download(trace, params, seed)
    upload = simulate_upload(trace, params, download.slots, download.surge_start)
    return merge((download.packets, upload), seed=seed, drawn_budget=download.drawn_budget)
