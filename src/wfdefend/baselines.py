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

from .traces import DefendedTrace, Direction, Trace, merge, one_direction


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
        if self.N_s < 1 or self.N_c < 1:
            raise ValueError("N_s and N_c must be >= 1")
        if not 0 < self.W_min <= self.W_max:
            raise ValueError("require 0 < W_min <= W_max")

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
        if not (self.rho_out > 0 and self.rho_in > 0):
            raise ValueError("rho_out and rho_in must be > 0")
        if self.L < 1:
            raise ValueError("L must be >= 1")

    def apply(self, trace: Trace, seed: int) -> DefendedTrace:
        return apply_tamaraw(trace, self)


def _front_side(
    rng: np.random.Generator, max_count: int, params: FrontParams
) -> tuple[int, np.ndarray]:
    count = int(rng.integers(1, max_count, endpoint=True))
    window = float(rng.uniform(params.W_min, params.W_max))
    times = np.sort(rng.rayleigh(window, count))
    return count, times


def apply_front(trace: Trace, params: FrontParams, seed: int) -> DefendedTrace:
    """Apply FRONT-style padding; deterministic in the seed.

    Real packets keep their original times. The client side draws a dummy
    count on {1..N_c} and a Rayleigh scale on [W_min, W_max], then samples
    that many upload dummy times; the server side does the same with N_s
    for download dummies. Dummy times are not truncated to the trace
    duration. Draw order is client first, then server.
    """
    rng = np.random.default_rng(seed)
    _, client_times = _front_side(rng, params.N_c, params)
    server_count, server_times = _front_side(rng, params.N_s, params)

    real = DefendedTrace(
        trace.times, trace.direction, np.zeros(len(trace), np.bool_), trace.times
    )
    client = one_direction(Direction.UPLOAD, client_times, np.full(len(client_times), np.nan))
    server = one_direction(Direction.DOWNLOAD, server_times, np.full(len(server_times), np.nan))
    return merge((real, client, server), seed=seed, drawn_budget=server_count)


def _tamaraw_direction(
    times: list[float], direction: Direction, rho: float, L: int
) -> DefendedTrace:
    # Send and source time per slot; a NaN source marks a dummy.
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
    # Pad the direction up to a positive multiple of L packets.
    target = L * max(1, math.ceil(len(send) / L))
    while len(send) < target:
        send.append(k * rho)
        source.append(math.nan)
        k += 1
    return one_direction(direction, send, source)


def apply_tamaraw(trace: Trace, params: TamarawParams) -> DefendedTrace:
    """Apply Tamaraw-style constant-rate regularization; fully deterministic.

    Download packets go out on the k*rho_in clock and uploads on k*rho_out,
    each slot carrying the oldest waiting real packet of its direction or a
    dummy. Per direction, slots continue until every real packet has been
    sent and the total count reaches the next positive multiple of L.
    """
    down = _tamaraw_direction(
        trace.times_of(Direction.DOWNLOAD).tolist(), Direction.DOWNLOAD, params.rho_in, params.L
    )
    up = _tamaraw_direction(
        trace.times_of(Direction.UPLOAD).tolist(), Direction.UPLOAD, params.rho_out, params.L
    )
    return merge((down, up), seed=0, drawn_budget=down.dummy_count())
