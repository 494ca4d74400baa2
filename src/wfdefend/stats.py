"""Trace-population statistics behind the surge-shaping design.

Web page traces are surge-heavy: most packets arrive in short bursts, so
the interquartile range of packet times is small compared to the page load
time, download volume decays quickly once the initial surge has started,
and upload traffic tracks download traffic second by second. The helpers
here measure those properties and emit plot-ready tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .regulator import ACTIVATION_PACKETS, RegulatorParams
from .traces import Dataset, Direction, Trace


@dataclass(frozen=True)
class TraceStats:
    packet_count: int
    duration: float
    time_iqr: float
    download_upload_ratio: float
    per_second_bins: tuple[tuple[int, int], ...]  # (upload, download) per second


@dataclass(frozen=True)
class DatasetStats:
    trace_count: int
    median_iqr: float
    mean_packet_count: float
    mean_duration: float
    download_upload_ratio: float  # aggregate over the dataset


@dataclass(frozen=True)
class PostTenthProfile:
    """Pooled offsets of download packets relative to each trace's tenth
    download packet; traces with fewer than ten download packets are skipped."""

    offsets: tuple[float, ...]
    median_offset: float
    skipped: int


def trace_stats(trace: Trace) -> TraceStats:
    """Per-trace statistics; quantiles use linear interpolation."""
    if not len(trace):
        raise ValueError("statistics are undefined for an empty trace")
    times = trace.times
    q25, q75 = np.quantile(times, [0.25, 0.75])
    uploads = trace.count(Direction.UPLOAD)
    downloads = len(trace) - uploads
    ratio = downloads / uploads if uploads else math.inf
    second = times.astype(np.int64)
    bins = int(second[-1]) + 1
    upload = trace.direction == Direction.UPLOAD
    per_second = zip(
        np.bincount(second[upload], minlength=bins).tolist(),
        np.bincount(second[~upload], minlength=bins).tolist(),
    )
    return TraceStats(
        packet_count=len(trace),
        duration=trace.duration,
        time_iqr=float(q75 - q25),
        download_upload_ratio=ratio,
        per_second_bins=tuple(per_second),
    )


def dataset_stats(dataset: Dataset) -> DatasetStats:
    if not dataset.traces:
        raise ValueError("statistics are undefined for an empty dataset")
    per_trace = [trace_stats(t) for t in dataset.traces]
    uploads = sum(t.count(Direction.UPLOAD) for t in dataset.traces)
    downloads = sum(t.count(Direction.DOWNLOAD) for t in dataset.traces)
    return DatasetStats(
        trace_count=len(dataset),
        median_iqr=float(np.median([s.time_iqr for s in per_trace])),
        mean_packet_count=float(np.mean([s.packet_count for s in per_trace])),
        mean_duration=float(np.mean([s.duration for s in per_trace])),
        download_upload_ratio=downloads / uploads if uploads else math.inf,
    )


def post_tenth_packet_profile(dataset: Dataset) -> PostTenthProfile:
    """How download volume decays once a page's initial surge is underway.

    Pools, over all traces with at least ten download packets, the time of
    every later download packet minus the time of the tenth, and reports
    the median offset.
    """
    offsets: list[np.ndarray] = []
    skipped = 0
    for trace in dataset.traces:
        down = trace.times_of(Direction.DOWNLOAD)
        if len(down) < ACTIVATION_PACKETS:
            skipped += 1
            continue
        offsets.append(down[ACTIVATION_PACKETS:] - down[ACTIVATION_PACKETS - 1])
    pooled = np.concatenate(offsets) if offsets else np.empty(0)
    median = float(np.median(pooled)) if len(pooled) else math.nan
    return PostTenthProfile(tuple(pooled.tolist()), median, skipped)


def volume_adjustment(
    reference_mean_count: float, target_mean_count: float, params: RegulatorParams
) -> RegulatorParams:
    """Rescale the surge rate and padding budget for a higher- or
    lower-volume trace population.

    R and N scale by target/reference and are rounded to the nearest whole
    packet rate / packet count; all other parameters are left unchanged.
    """
    if reference_mean_count <= 0 or target_mean_count <= 0:
        raise ValueError("mean packet counts must be positive")
    ratio = target_mean_count / reference_mean_count
    return params.with_overrides(
        R=float(round(params.R * ratio)), N=int(round(params.N * ratio))
    )


def offsets_histogram(
    profile: PostTenthProfile, bin_width: float = 1.0
) -> list[tuple[float, int]]:
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not profile.offsets:
        return []
    keys = np.floor_divide(np.array(profile.offsets), bin_width).astype(np.int64)
    bins, counts = np.unique(keys, return_counts=True)
    return [(k * bin_width, c) for k, c in zip(bins.tolist(), counts.tolist())]


def iqr_table(dataset: Dataset) -> str:
    """Per-trace stats as CSV (duration vs spread, volume, direction mix)."""
    lines = ["name,packet_count,duration,time_iqr,download_upload_ratio"]
    names = dataset.filenames or [str(i) for i in range(len(dataset))]
    for name, trace in zip(names, dataset.traces):
        s = trace_stats(trace)
        lines.append(
            f"{name},{s.packet_count},{s.duration:.6f},{s.time_iqr:.6f},"
            f"{s.download_upload_ratio:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def decay_table(profile: PostTenthProfile, bin_width: float = 1.0) -> str:
    """Histogram of post-tenth-packet offsets as CSV."""
    lines = ["offset_bin_start,count"]
    for start, count in offsets_histogram(profile, bin_width):
        lines.append(f"{start:.6f},{count}")
    return "".join(line + "\n" for line in lines)


def per_second_table(dataset: Dataset) -> str:
    """Upload vs download packet counts per one-second bin, per trace, as CSV."""
    lines = ["name,second,upload_count,download_count"]
    names = dataset.filenames or [str(i) for i in range(len(dataset))]
    for name, trace in zip(names, dataset.traces):
        if not len(trace):
            continue
        for second, (up, down) in enumerate(trace_stats(trace).per_second_bins):
            lines.append(f"{name},{second},{up},{down}")
    return "".join(line + "\n" for line in lines)
