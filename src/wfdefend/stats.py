"""Trace-population statistics behind the surge-shaping design.

Web page traces are surge-heavy: most packets arrive in short bursts, so
the interquartile range of packet times is small compared to the page load
time, download volume decays quickly once the initial surge has started,
and upload traffic tracks download traffic second by second. The helpers
here measure those properties and emit plot-ready tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .regulator import ACTIVATION_PACKETS, RegulatorParams
from .traces import MAX_SLOTS, Dataset, Direction, Trace


@dataclass(frozen=True)
class TraceStats:
    packet_count: int
    upload_count: int
    duration: float
    time_iqr: float
    download_upload_ratio: float


@dataclass(frozen=True)
class DatasetStats:
    trace_count: int
    median_iqr: float
    mean_packet_count: float
    mean_duration: float
    download_upload_ratio: float  # aggregate over the dataset
    per_trace: tuple[TraceStats, ...]


@dataclass(frozen=True)
class PostTenthProfile:
    """Pooled offsets of download packets relative to each trace's tenth
    download packet; traces with fewer than ten download packets are skipped."""

    offsets: np.ndarray
    median_offset: float
    skipped: int


def _sorted_quantile(values: np.ndarray, q: float) -> float:
    """The q-quantile, 0 <= q < 1, of sorted, non-empty `values`, bit for
    bit what np.quantile returns: numpy's linear interpolation written out,
    without its sort and its array set-up."""
    if len(values) == 1:
        return float(values[0])
    index = (len(values) - 1) * q
    i = math.floor(index)
    g = index - i
    a, b = float(values[i]), float(values[i + 1])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _median(values) -> float:
    """np.median of finite, non-empty `values`, bit for bit, without its
    NaN check, which imports numpy.ma: the middle value of a partition, or
    the mean of the middle two. numpy's mean adds them to +0.0, so the
    `+ 0.0` turns a -0.0 median into 0.0 as numpy does."""
    a = np.asarray(values, np.float64)
    half = len(a) // 2
    if len(a) % 2:
        return float(np.partition(a, half)[half]) + 0.0
    low, high = np.partition(a, [half - 1, half])[half - 1:half + 1].tolist()
    return (low + high + 0.0) / 2


def trace_stats(trace: Trace) -> TraceStats:
    """Per-trace statistics; quantiles use linear interpolation."""
    if not len(trace):
        raise ValueError("statistics are undefined for an empty trace")
    q25, q75 = _sorted_quantile(trace.times, 0.25), _sorted_quantile(trace.times, 0.75)
    uploads = trace.count(Direction.UPLOAD)
    return TraceStats(
        packet_count=len(trace),
        upload_count=uploads,
        duration=trace.duration,
        time_iqr=q75 - q25,
        download_upload_ratio=(len(trace) - uploads) / uploads if uploads else math.inf,
    )


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Population summary plus the `trace_stats` of every trace, in order."""
    if not dataset.traces:
        raise ValueError("statistics are undefined for an empty dataset")
    per_trace = []
    for name, trace in zip(dataset.filenames, dataset.traces):
        if not len(trace):
            raise ValueError(f"{name}: statistics are undefined for an empty trace")
        per_trace.append(trace_stats(trace))
    uploads = sum(s.upload_count for s in per_trace)
    downloads = sum(s.packet_count - s.upload_count for s in per_trace)
    return DatasetStats(
        trace_count=len(dataset),
        median_iqr=_median([s.time_iqr for s in per_trace]),
        mean_packet_count=float(np.mean([s.packet_count for s in per_trace])),
        mean_duration=float(np.mean([s.duration for s in per_trace])),
        download_upload_ratio=downloads / uploads if uploads else math.inf,
        per_trace=tuple(per_trace),
    )


def post_tenth_packet_profile(dataset: Dataset) -> PostTenthProfile:
    """How download volume decays once a page's initial surge is underway.

    Pools, over all traces with at least ten download packets, the time of
    every later download packet minus the time of the tenth, and reports
    the median offset.
    """
    downs = (trace.times_of(Direction.DOWNLOAD) for trace in dataset.traces)
    offsets = [
        down[ACTIVATION_PACKETS:] - down[ACTIVATION_PACKETS - 1]
        for down in downs
        if len(down) >= ACTIVATION_PACKETS
    ]
    pooled = np.concatenate([np.empty(0), *offsets])
    median = _median(pooled) if len(pooled) else math.nan
    return PostTenthProfile(pooled, median, skipped=len(dataset.traces) - len(offsets))


def volume_adjustment(
    reference_mean_count: float, target_mean_count: float, params: RegulatorParams
) -> RegulatorParams:
    """Rescale the surge rate and padding budget for a higher- or
    lower-volume trace population.

    R and N scale by target/reference and are rounded to the nearest whole
    packet rate / packet count; all other parameters are left unchanged.
    Counts that are not finite and positive, a ratio so large that the
    rescaled R or N is not finite, and one so small that R rounds to 0
    raise ValueError.
    """
    if not (0 < reference_mean_count < math.inf and 0 < target_mean_count < math.inf):
        raise ValueError(
            "mean packet counts must be finite and positive, got "
            f"{reference_mean_count} and {target_mean_count}"
        )
    ratio = target_mean_count / reference_mean_count
    R, N = params.R * ratio, params.N * ratio
    if not (math.isfinite(R) and math.isfinite(N)):
        raise ValueError(
            f"the count ratio {ratio:g} rescales R to {R:g} and N to {N:g}, not finite"
        )
    if round(R) == 0:
        raise ValueError(f"the count ratio {ratio:g} rescales R to {R:g}, which rounds to 0")
    return replace(params, R=float(round(R)), N=int(round(N)))


def offsets_histogram(profile: PostTenthProfile) -> list[tuple[float, int]]:
    """Counts of post-tenth-packet offsets in one-second bins."""
    bins, counts = np.unique(np.floor(profile.offsets), return_counts=True)
    return list(zip(bins.tolist(), counts.tolist()))


def iqr_table(dataset: Dataset, summary: DatasetStats) -> str:
    """Per-trace stats as CSV (duration vs spread, volume, direction mix);
    `summary` is the `dataset_stats` of `dataset`."""
    rows = (
        f"{name},{s.packet_count},{s.duration:.6f},{s.time_iqr:.6f},"
        f"{s.download_upload_ratio:.6f}\n"
        for name, s in zip(dataset.filenames, summary.per_trace, strict=True)
    )
    return "name,packet_count,duration,time_iqr,download_upload_ratio\n" + "".join(rows)


def decay_table(profile: PostTenthProfile) -> str:
    """Histogram of post-tenth-packet offsets as CSV."""
    rows = (f"{start:.6f},{count}\n" for start, count in offsets_histogram(profile))
    return "offset_bin_start,count\n" + "".join(rows)


def per_second_table(dataset: Dataset, out: TextIO) -> None:
    """Write upload vs download packet counts per one-second bin, per trace,
    as CSV to `out`: a row for every second up to the last packet, at most
    MAX_SLOTS per trace. The rows are rendered one trace at a time, and each
    trace's row count is checked where its rows begin, so the rows of the
    traces before one past the limit have reached `out` when it raises."""
    named = [(name, trace) for name, trace in zip(dataset.filenames, dataset.traces) if len(trace)]
    out.write("name,second,upload_count,download_count\n")
    for name, trace in named:
        if trace.times[-1] >= MAX_SLOTS:
            raise ValueError(f"{name}: more than {MAX_SLOTS} seconds of per-second rows")
        second = trace.times.astype(np.int64)
        upload = trace.direction == int(Direction.UPLOAD)
        bins = int(second[-1]) + 1
        up = np.bincount(second[upload], minlength=bins).tolist()
        down = np.bincount(second[~upload], minlength=bins).tolist()
        out.write("".join(f"{name},{s},{u},{d}\n" for s, (u, d) in enumerate(zip(up, down))))
