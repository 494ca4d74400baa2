"""Independent event-by-event reference simulator for the regulator defense.

Deliberately naive: walks the slot clock one event at a time in the exact
statement order of the defense's control loop, keeps explicit waiting
queues, and never batches. Used as the ground-truth oracle the optimized
simulator must match packet for packet. The arithmetic expressions for
rates, gaps, credits, and flush times are kept textually identical to the
production code so floating point cannot diverge; the bookkeeping around
them is written independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from helpers import defended_from_rows
from wfdefend import (
    DefendedTrace,
    Direction,
    PacketKind,
    RegulatorParams,
    Trace,
)


def _row(send_time, direction, kind, source_time=None) -> tuple:
    """One emitted packet; dummies have no source time."""
    return (send_time, direction, kind, source_time)


@dataclass(frozen=True)
class SlotTrail:
    """One processed download slot: time, the rate its gap used, whether the
    surge clock was reset at it, and what was emitted ('real'/'dummy'/'none')."""

    time: float
    rate: float
    reset: bool
    emitted: str


def reference_defend(
    trace: Trace, params: RegulatorParams, seed: int
) -> tuple[DefendedTrace, list[SlotTrail]]:
    rng = np.random.default_rng(seed)
    budget = int(rng.integers(0, params.N + 1))

    download_times = [p.time for p in trace if p.direction is Direction.DOWNLOAD]
    upload_times = [p.time for p in trace if p.direction is Direction.UPLOAD]

    if len(download_times) < 10:
        down_out = [
            _row(t, Direction.DOWNLOAD, PacketKind.REAL, t)
            for t in download_times
        ]
        up_out = [
            _row(t, Direction.UPLOAD, PacketKind.REAL, t) for t in upload_times
        ]
        merged = sorted(down_out + up_out, key=lambda p: p[0])
        return defended_from_rows(merged), []

    down_out = [
        _row(t, Direction.DOWNLOAD, PacketKind.REAL, t)
        for t in download_times[:10]
    ]
    pending = deque(download_times[10:])
    arrivals = deque(download_times[10:])  # not yet visible to the scheduler
    waiting: deque[float] = deque()

    surge_time = download_times[9]
    next_packet_time = download_times[9]
    sent_dummy_packets = 0
    time_all_real_sent = download_times[9] if not pending else None
    time_budget_spent = download_times[9] if budget == 0 else None
    trail: list[SlotTrail] = []
    slot_times: list[float] = []

    while True:
        now = next_packet_time
        if time_all_real_sent is not None and time_budget_spent is not None:
            tail_end = max(time_all_real_sent, time_budget_spent) + params.tail_grace
            if now >= tail_end:
                break
        rate = params.R * params.D ** (now - surge_time)
        if rate < 1.0:
            rate = 1.0
        while arrivals and arrivals[0] <= now:
            waiting.append(arrivals.popleft())
        reset = len(waiting) > params.T * rate
        if reset:
            surge_time = now
        if waiting:
            source = waiting.popleft()
            pending.popleft()
            down_out.append(_row(now, Direction.DOWNLOAD, PacketKind.REAL, source))
            if not pending:
                time_all_real_sent = now
            emitted = "real"
        elif sent_dummy_packets < budget:
            down_out.append(_row(now, Direction.DOWNLOAD, PacketKind.DUMMY))
            sent_dummy_packets += 1
            if sent_dummy_packets == budget:
                time_budget_spent = now
            emitted = "dummy"
        else:
            emitted = "none"
        trail.append(SlotTrail(now, rate, reset, emitted))
        slot_times.append(now)
        next_packet_time = now + 1.0 / rate

    up_out = _reference_upload(upload_times, params, slot_times, download_times[9])
    merged = sorted(down_out + up_out, key=lambda p: p[0])
    return defended_from_rows(merged), trail


def _reference_upload(
    upload_times: list[float],
    params: RegulatorParams,
    download_slots: list[float],
    surge_start: float,
) -> list[tuple]:
    slots: list[float] = []
    gap = 1.0 / params.initial_upload_rate
    k = 0
    while k * gap < surge_start:
        slots.append(k * gap)
        k += 1
    credit = 0.0
    for slot in download_slots:
        credit += 1.0 / params.U
        if credit >= 1.0:
            credit -= 1.0
            slots.append(slot)

    # Single merged event timeline; slots (priority 0) beat flushes at ties.
    events: list[tuple[float, int, int]] = [(t, 0, -1) for t in slots]
    events.extend((t + params.C, 1, i) for i, t in enumerate(upload_times))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    queue: deque[tuple[float, int]] = deque()
    next_arrival = 0
    sent = [False] * len(upload_times)
    out: list[tuple] = []
    for time, priority, packet_index in events:
        if priority == 0:
            while next_arrival < len(upload_times) and upload_times[next_arrival] <= time:
                queue.append((upload_times[next_arrival], next_arrival))
                next_arrival += 1
            while queue and sent[queue[0][1]]:
                queue.popleft()
            if queue:
                source, idx = queue.popleft()
                sent[idx] = True
                out.append(_row(time, Direction.UPLOAD, PacketKind.REAL, source))
            else:
                out.append(_row(time, Direction.UPLOAD, PacketKind.DUMMY))
        else:
            if not sent[packet_index]:
                sent[packet_index] = True
                out.append(
                    _row(
                        time, Direction.UPLOAD, PacketKind.REAL, upload_times[packet_index]
                    )
                )
    return out
