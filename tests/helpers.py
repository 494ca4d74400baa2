"""Shared test fixtures: random trace/parameter generators and invariant checks."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

import numpy as np

from wfdefend import (
    DefendedTrace,
    Direction,
    PacketKind,
    RegulatorParams,
    Trace,
)
from wfdefend.regulator import ACTIVATION_PACKETS, simulate_download


def rows(trace: Trace) -> Iterator[tuple[float, Direction]]:
    """(time, Direction) of each packet of `trace`, read from its columns."""
    for time, direction in zip(trace.times.tolist(), trace.direction.tolist()):
        yield time, Direction(direction)


def random_trace(rng: np.random.Generator, max_packets: int = 500) -> Trace:
    """Random trace mixing uniform, bursty, and tie-heavy timing styles."""
    n = int(rng.integers(0, max_packets + 1))
    if n == 0:
        return Trace([], [])
    duration = float(rng.uniform(0.5, 20.0))
    style = int(rng.integers(0, 3))
    if style == 0:
        times = np.sort(rng.uniform(0.0, duration, n))
    elif style == 1:
        surges = int(rng.integers(1, 6))
        centers = np.sort(rng.uniform(0.0, duration, surges))
        counts = rng.multinomial(n, np.ones(surges) / surges)
        parts = [
            c + np.abs(rng.normal(0.0, 0.05, k)) for c, k in zip(centers, counts) if k
        ]
        times = np.sort(np.concatenate(parts))
    else:
        # Coarse rounding forces many duplicate timestamps.
        times = np.sort(np.round(rng.uniform(0.0, duration, n), 2))
    p_upload = float(rng.uniform(0.1, 0.9))
    uploads = rng.random(n) < p_upload
    times = times - times[0]
    return Trace(times, np.where(uploads, Direction.UPLOAD, Direction.DOWNLOAD))


def random_params(rng: np.random.Generator, max_budget: int = 400) -> RegulatorParams:
    return RegulatorParams(
        R=float(rng.uniform(2.0, 300.0)),
        D=float(rng.uniform(0.7, 0.97)),
        T=float(rng.uniform(0.5, 10.0)),
        N=int(rng.integers(0, max_budget + 1)),
        U=float(rng.uniform(1.0, 8.0)),
        C=float(rng.uniform(0.5, 5.0)),
    )


def seed_with_budget(n: int, want: int, limit: int = 100_000) -> int:
    """Find a seed whose budget draw from {0..n} equals `want`."""
    for seed in range(limit):
        if int(np.random.default_rng(seed).integers(0, n + 1)) == want:
            return seed
    raise AssertionError(f"no seed in range yields budget {want} of {n}")


def surge_slots(params: RegulatorParams, budget: int) -> list[float]:
    """The download slots `simulate_download` emits for one surge that never
    resets: ten downloads at t=0 start it at 0, `budget` dummies keep the
    clock running, and T is too large for any queue to pass."""
    from wfdefend.regulator import simulate_download

    params = replace(params, T=1e12, N=budget)
    trace = Trace(np.zeros(10), np.full(10, Direction.DOWNLOAD))
    schedule = simulate_download(trace, params, seed_with_budget(budget, budget))
    assert schedule.surge_start == 0.0 and len(schedule.slots) == budget
    return list(schedule.slots)


def defended_from_rows(rows) -> DefendedTrace:
    """DefendedTrace from (send_time, direction, kind, source_time) rows;
    a DUMMY row gets the NaN source time that marks a dummy."""
    rows = list(rows)
    return DefendedTrace(
        send_time=[r[0] for r in rows],
        direction=[r[1] for r in rows],
        source_time=[np.nan if r[2] is PacketKind.DUMMY else r[3] for r in rows],
    )


def assert_conservation_and_fifo(original: Trace, defended: DefendedTrace) -> None:
    """Real packets of the defended schedule must be exactly the original
    packets, once each, FIFO per direction, never sent early."""
    for direction in (Direction.UPLOAD, Direction.DOWNLOAD):
        original_times = original.times_of(direction).tolist()
        sources = [
            p.source_time
            for p in defended
            if p.kind is PacketKind.REAL and p.direction is direction
        ]
        assert sources == original_times, (
            f"{direction.name}: real packets do not match the original schedule"
        )
    for p in defended:
        if p.kind is PacketKind.REAL:
            assert p.send_time >= p.source_time


def assert_draw_spent(
    trace: Trace, params: RegulatorParams, seed: int, defended: DefendedTrace
) -> None:
    """The regulator's drawn download budget is at most N and, once the
    schedule starts, is sent whole as download dummies; a trace that never
    starts the schedule gets no dummies."""
    budget = simulate_download(trace, params, seed).drawn_budget
    assert budget <= params.N
    if trace.count(Direction.DOWNLOAD) >= ACTIVATION_PACKETS:
        assert defended.dummy_count(Direction.DOWNLOAD) == budget
    else:
        assert defended.dummy_count() == 0


def float_bits(values) -> list[int]:
    """The int64 bit patterns of float64 values, so equal means bit-identical."""
    return np.asarray(values, np.float64).view(np.int64).tolist()


def schedule_key(defended: DefendedTrace) -> list[tuple[float, int, str]]:
    return [(p.send_time, int(p.direction), p.kind.value) for p in defended]


def assert_compact_columns(trace) -> None:
    """Every array column of a Trace or DefendedTrace is read-only and
    C-contiguous, and the buffer that it keeps alive is no larger than it
    (a column view of a bigger parsed array would hold all of it)."""
    for name, column in vars(trace).items():
        if not isinstance(column, np.ndarray):
            continue
        assert not column.flags.writeable, name
        assert column.flags.c_contiguous, name
        owner = column
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        assert memoryview(owner).nbytes == column.nbytes, name
