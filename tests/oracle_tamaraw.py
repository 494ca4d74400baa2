"""Reference Tamaraw: the slot-by-slot loop the closed form replaced.

Each direction steps through its slots k*rho one at a time, sending the
oldest waiting real packet or a dummy, then pads up to a positive multiple
of L. The two directions are merged by Python's stable sort, download
before upload at equal send times. Tests compare apply_tamaraw with it bit
for bit.
"""

from __future__ import annotations

import math

from wfdefend import Direction, TamarawParams, Trace


def tamaraw_direction(times: list[float], rho: float, L: int) -> tuple[list[float], list[float]]:
    """(send, source) per slot of one direction; a NaN source marks a dummy."""
    send: list[float] = []
    source: list[float] = []
    sent = 0
    available = 0
    k = 0
    while sent < len(times):
        slot = k * rho
        while available < len(times) and times[available] <= slot:
            available += 1
        send.append(slot)
        if sent < available:
            source.append(times[sent])
            sent += 1
        else:
            source.append(math.nan)
        k += 1
    target = L * max(1, math.ceil(len(send) / L))
    while len(send) < target:
        send.append(k * rho)
        source.append(math.nan)
        k += 1
    return send, source


def oracle_tamaraw(trace: Trace, params: TamarawParams) -> list[tuple[float, int, float]]:
    """(send_time, direction, source_time) rows of the defended trace."""
    rows: list[tuple[float, int, float]] = []
    for direction, rho in ((Direction.DOWNLOAD, params.rho_in), (Direction.UPLOAD, params.rho_out)):
        send, source = tamaraw_direction(trace.times_of(direction).tolist(), rho, params.L)
        rows.extend(zip(send, [int(direction)] * len(send), source))
    return sorted(rows, key=lambda row: row[0])
