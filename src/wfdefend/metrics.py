"""Bandwidth and latency overhead metrics, per trace and per dataset.

Bandwidth overhead divides the dummy packets sent in the defended trace by
the packet count of the undefended trace. Latency overhead compares the
sending time of the last real packet in the defended trace with the last
packet of the undefended trace, clamped at zero. A second latency figure
estimates user-visible delay as the delay of the last real download packet
plus the worst delay of any upload packet, over the original duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .traces import DefendedTrace, Direction, Trace


@dataclass(frozen=True, slots=True)
class OverheadReport:
    bandwidth_overhead: float
    latency_overhead: float
    estimated_latency_overhead: float
    dummy_count: int
    real_count: int
    max_upload_delay: float
    last_real_download_delay: float


@dataclass(frozen=True)
class DatasetOverhead:
    mean_bandwidth: float
    aggregate_bandwidth: float
    mean_latency: float
    mean_estimated_latency: float
    per_trace: tuple[OverheadReport, ...]


def trace_overhead(original: Trace, defended: DefendedTrace) -> OverheadReport:
    """The three overheads of one defended trace against its original, as
    defined above. An empty or zero-duration original, or a defended trace
    with no real packets, is a ValueError."""
    if not len(original):
        raise ValueError("overhead is undefined for an empty original trace")
    t_last = float(original.times[-1])
    if t_last <= 0:
        raise ValueError("latency overhead is undefined for a zero-duration trace")
    real = ~defended.dummy
    if not real.any():
        raise ValueError("defended trace carries no real packets")
    delay = defended.send_time - defended.source_time
    download = delay[real & (defended.direction == int(Direction.DOWNLOAD))]
    upload = delay[real & (defended.direction == int(Direction.UPLOAD))]
    last_download_delay = float(download[-1]) if len(download) else 0.0
    max_upload_delay = max(0.0, float(upload.max())) if len(upload) else 0.0
    dummies = defended.dummy_count()
    return OverheadReport(
        bandwidth_overhead=dummies / len(original),
        latency_overhead=max(0.0, float(defended.send_time[real].max()) - t_last) / t_last,
        estimated_latency_overhead=(last_download_delay + max_upload_delay) / t_last,
        dummy_count=dummies,
        real_count=len(original),
        max_upload_delay=max_upload_delay,
        last_real_download_delay=last_download_delay,
    )


def aggregate_reports(reports: Sequence[OverheadReport]) -> DatasetOverhead:
    if not reports:
        raise ValueError("no overhead reports to aggregate")
    n = len(reports)
    total_real = sum(r.real_count for r in reports)
    total_dummy = sum(r.dummy_count for r in reports)
    return DatasetOverhead(
        mean_bandwidth=sum(r.bandwidth_overhead for r in reports) / n,
        aggregate_bandwidth=total_dummy / total_real,
        mean_latency=sum(r.latency_overhead for r in reports) / n,
        mean_estimated_latency=sum(r.estimated_latency_overhead for r in reports) / n,
        per_trace=tuple(reports),
    )


def dataset_overhead(
    originals: Sequence[Trace], defendeds: Sequence[DefendedTrace]
) -> DatasetOverhead:
    """Per-trace reports plus mean and aggregate (sum dummy / sum real)
    bandwidth and mean latency over pairwise-aligned trace sets."""
    if len(originals) != len(defendeds):
        raise ValueError(
            f"mismatched lengths: {len(originals)} originals, {len(defendeds)} defended"
        )
    reports = [trace_overhead(o, d) for o, d in zip(originals, defendeds)]
    return aggregate_reports(reports)


def kv_lines(overhead: DatasetOverhead) -> list[str]:
    """Line-oriented key=value rendering of a dataset overhead summary."""
    return [
        f"traces={len(overhead.per_trace)}",
        f"mean_bandwidth_overhead={overhead.mean_bandwidth:.6f}",
        f"aggregate_bandwidth_overhead={overhead.aggregate_bandwidth:.6f}",
        f"mean_latency_overhead={overhead.mean_latency:.6f}",
        f"mean_estimated_latency_overhead={overhead.mean_estimated_latency:.6f}",
    ]


CSV_HEADER = (
    "name,real_count,dummy_count,bandwidth_overhead,latency_overhead,"
    "estimated_latency_overhead,max_upload_delay,last_real_download_delay"
)


def csv_table(overhead: DatasetOverhead, names: Sequence[str]) -> str:
    """Comma-separated per-trace table for downstream plotting, one row per
    report, named by the aligned entry of `names`."""
    if len(names) != len(overhead.per_trace):
        raise ValueError("names must align with per-trace reports")
    lines = [CSV_HEADER]
    for name, r in zip(names, overhead.per_trace):
        lines.append(
            f"{name},{r.real_count},{r.dummy_count},{r.bandwidth_overhead:.6f},"
            f"{r.latency_overhead:.6f},{r.estimated_latency_overhead:.6f},"
            f"{r.max_upload_delay:.6f},{r.last_real_download_delay:.6f}"
        )
    return "".join(line + "\n" for line in lines)
