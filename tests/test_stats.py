import math

import numpy as np
import pytest

from wfdefend import (
    Dataset,
    Direction,
    RegulatorParams,
    Trace,
    dataset_stats,
    trace_stats,
)
from wfdefend.stats import (
    decay_table,
    iqr_table,
    offsets_histogram,
    per_second_table,
    post_tenth_packet_profile,
    volume_adjustment,
)

HEAVY = RegulatorParams(R=277.0, D=0.940, T=3.55, N=3550, U=3.95, C=1.77)


def downloads(times):
    return Trace(times, np.full(len(times), Direction.DOWNLOAD))


class TestTraceStats:
    def test_iqr_linear_interpolation(self):
        # Quantile oracle on 4 points: q25=0.75, q75=2.25.
        stats = trace_stats(downloads([0.0, 1.0, 2.0, 3.0]))
        assert stats.time_iqr == pytest.approx(1.5, abs=1e-12)

    def test_ratio(self):
        directions = [Direction.DOWNLOAD] * 60 + [Direction.UPLOAD] * 10
        stats = trace_stats(Trace(np.zeros(70), directions))
        assert stats.download_upload_ratio == 6.0

    def test_ratio_infinite_without_uploads(self):
        stats = trace_stats(downloads([0.0, 1.0]))
        assert math.isinf(stats.download_upload_ratio)

    def test_single_bin(self):
        stats = trace_stats(downloads([0.0, 0.3, 0.9]))
        assert stats.per_second_bins == ((0, 3),)

    def test_binning_conserves_packets(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 12, 200))
        times -= times[0]
        stats = trace_stats(downloads(times))
        assert sum(u + d for u, d in stats.per_second_bins) == 200

    def test_empty_trace_errors(self):
        with pytest.raises(ValueError):
            trace_stats(Trace([], []))


class TestDatasetStats:
    def test_identical_traces_median_iqr(self):
        trace = downloads([0.0, 1.0, 2.0, 3.0])
        stats = dataset_stats(Dataset((trace, trace, trace), name="x"))
        assert stats.median_iqr == pytest.approx(1.5)
        assert stats.mean_packet_count == 4.0
        assert stats.mean_duration == 3.0

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            dataset_stats(Dataset((), name="x"))


class TestPostTenthProfile:
    def test_all_at_tenth_packet_time(self):
        trace = downloads([0.0] * 20)
        profile = post_tenth_packet_profile(Dataset((trace,), name="x"))
        assert profile.median_offset == 0.0
        assert profile.skipped == 0
        assert len(profile.offsets) == 10

    def test_short_trace_skipped(self):
        short = downloads([0.0] * 9)
        long = downloads([0.0] * 10 + [1.0, 2.0])
        profile = post_tenth_packet_profile(Dataset((short, long), name="x"))
        assert profile.skipped == 1
        assert profile.offsets == (1.0, 2.0)
        assert profile.median_offset == 1.5

    def test_offsets_anchor_on_tenth_download(self):
        # Upload packets neither anchor nor contribute offsets.
        times = [float(i) for i in range(12)] + [0.5] * 5
        directions = [Direction.DOWNLOAD] * 12 + [Direction.UPLOAD] * 5
        order = np.argsort(times, kind="stable")
        trace = Trace(np.array(times)[order], np.array(directions)[order])
        profile = post_tenth_packet_profile(Dataset((trace,), name="x"))
        assert profile.offsets == (1.0, 2.0)  # downloads at 10, 11 minus anchor 9

    def test_histogram_tables(self):
        trace = downloads([0.0] * 10 + [0.2, 1.4, 2.6])
        profile = post_tenth_packet_profile(Dataset((trace,), name="x"))
        assert offsets_histogram(profile) == [(0.0, 1), (1.0, 1), (2.0, 1)]
        assert decay_table(profile).splitlines()[0] == "offset_bin_start,count"


class TestVolumeAdjustment:
    def test_scaling_rounds_to_whole_units(self):
        adjusted = volume_adjustment(1000.0, 2431.0, HEAVY)
        assert adjusted.R == 673.0
        assert adjusted.N == 8630  # round(3550 * 2.431)
        assert adjusted.D == HEAVY.D
        assert adjusted.T == HEAVY.T
        assert adjusted.U == HEAVY.U
        assert adjusted.C == HEAVY.C

    def test_identity_at_ratio_one(self):
        assert volume_adjustment(2100.9, 2100.9, HEAVY) == HEAVY

    def test_scaling_second_reference_point(self):
        adjusted = volume_adjustment(2100.9, 2697.2, HEAVY)
        assert adjusted.R == 356.0

    def test_non_positive_mean_errors(self):
        with pytest.raises(ValueError):
            volume_adjustment(0.0, 1.0, HEAVY)
        with pytest.raises(ValueError):
            volume_adjustment(1.0, -2.0, HEAVY)


def test_single_surge_iqr_far_below_duration():
    # One dense surge plus a late straggler: the spread of packet times
    # stays tiny compared to the page duration.
    times = list(np.linspace(0.0, 0.2, 100)) + [10.0]
    stats = trace_stats(downloads(times))
    assert stats.duration == 10.0
    assert stats.time_iqr < 0.2


def test_csv_tables_smoke():
    trace = downloads([0.0, 0.5, 1.5])
    dataset = Dataset((trace,), name="x", filenames=("0-0",))
    assert iqr_table(dataset).splitlines()[1].startswith("0-0,3,")
    lines = per_second_table(dataset).splitlines()
    assert lines[1] == "0-0,0,0,2"
    assert lines[2] == "0-0,1,0,1"
