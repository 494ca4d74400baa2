"""Comparison defenses: FRONT-style front padding and Tamaraw-style regularization.

FRONT leaves real packets untouched (zero latency) and pours a random
number of dummies over the start of the trace, Rayleigh-distributed in
time. Tamaraw resends everything on fixed per-direction clocks and pads
each direction's total count up to a multiple of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

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
)


@dataclass(frozen=True, slots=True)
class FrontParams:
    """N_s / N_c: max server (download) and client (upload) dummy counts;
    W_min / W_max: bounds of the Rayleigh window draw, seconds."""

    randomized: ClassVar[bool] = True

    N_s: int
    N_c: int
    W_min: float
    W_max: float

    def __post_init__(self):
        check_count("N_s", self.N_s, 1)
        check_count("N_c", self.N_c, 1)
        if not 0 < self.W_min <= self.W_max < math.inf:
            raise ValueError(
                f"require 0 < W_min <= W_max < inf, got {self.W_min} and {self.W_max}"
            )

    def apply(self, trace: Trace, seed: int) -> DefendedTrace:
        return apply_front(trace, self, seed)


@dataclass(frozen=True, slots=True)
class TamarawParams:
    """rho_out / rho_in: seconds per upload / download slot; L: pad-to multiple.
    Tamaraw draws nothing at random, so `apply` ignores its seed."""

    randomized: ClassVar[bool] = False

    rho_out: float
    rho_in: float
    L: int

    def __post_init__(self):
        check_positive("rho_out", self.rho_out)
        check_positive("rho_in", self.rho_in)
        check_count("L", self.L, 1)

    def apply(self, trace: Trace, seed: int) -> DefendedTrace:
        return apply_tamaraw(trace, self)


def _front_side(rng: np.random.Generator, max_count: int, params: FrontParams) -> np.ndarray:
    count = int(rng.integers(1, max_count, endpoint=True))
    window = float(rng.uniform(params.W_min, params.W_max))
    return np.sort(rng.rayleigh(window, count))


def apply_front(trace: Trace, params: FrontParams, seed: int) -> DefendedTrace:
    """Apply FRONT-style padding; deterministic in the seed.

    Real packets keep their original times. The client side draws a dummy
    count on {1..N_c} and a Rayleigh scale on [W_min, W_max], then samples
    that many upload dummy times; the server side does the same with N_s
    for download dummies. Dummy times are not truncated to the trace
    duration. Draw order is client first, then server.
    """
    rng = np.random.default_rng(seed)
    client_times = _front_side(rng, params.N_c, params)
    server_times = _front_side(rng, params.N_s, params)

    parts = (
        (trace.times, trace.direction, trace.times),
        (client_times, Direction.UPLOAD, np.full(len(client_times), np.nan)),
        (server_times, Direction.DOWNLOAD, np.full(len(server_times), np.nan)),
    )
    return merge(parts, drawn_budget=len(server_times))


def _tamaraw_direction(
    times: np.ndarray, direction: Direction, rho: float, L: int
) -> tuple[np.ndarray, Direction, np.ndarray]:
    # The last real packet goes out within len(times) slots of k*rho >= its time.
    if len(times) and len(times) + times[-1] / rho > MAX_SLOTS:
        raise ValueError(
            f"Tamaraw needs more than {MAX_SLOTS} {direction.name.lower()} slots "
            f"to reach the last packet at {float(times[-1])} s"
        )
    # Packet j takes the first slot at or after its time, unless the packets
    # before it still fill that slot: slot_j = max(slot_{j-1} + 1, first_j).
    j = np.arange(len(times))
    slot = j + np.maximum.accumulate(first_slot_at_or_after(times, rho) - j)
    used = int(slot[-1]) + 1 if len(times) else 0
    # Pad the direction up to a positive multiple of L packets.
    target = L * max(1, -(-used // L))
    source = np.full(target, np.nan)
    source[slot] = times
    return np.arange(target) * rho, direction, source


def apply_tamaraw(trace: Trace, params: TamarawParams) -> DefendedTrace:
    """Apply Tamaraw-style constant-rate regularization; fully deterministic.

    Download packets go out on the k*rho_in clock and uploads on k*rho_out,
    each slot carrying the oldest waiting real packet of its direction or a
    dummy. Per direction, slots continue until every real packet has been
    sent and the total count reaches the next positive multiple of L.
    """
    down = _tamaraw_direction(
        trace.times_of(Direction.DOWNLOAD), Direction.DOWNLOAD, params.rho_in, params.L
    )
    up = _tamaraw_direction(
        trace.times_of(Direction.UPLOAD), Direction.UPLOAD, params.rho_out, params.L
    )
    down_dummies = len(down[0]) - trace.count(Direction.DOWNLOAD)
    return merge((down, up), drawn_budget=down_dummies)
