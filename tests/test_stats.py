import io
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfdefend import (
    Dataset,
    Direction,
    RegulatorParams,
    Trace,
    dataset_stats,
    trace_stats,
)
from wfdefend import stats as stats_module
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


def per_second_rows(trace, name="0-0"):
    """(upload, download) counts per second, from the per-second table."""
    table = io.StringIO()
    per_second_table(Dataset((trace,), name="x", filenames=(name,)), table)
    rows = (row.split(",") for row in table.getvalue().splitlines()[1:])
    return [(int(up), int(down)) for _, _, up, down in rows]


class TestTraceStats:
    def test_iqr_linear_interpolation(self):
        # Quantile oracle on 4 points: q25=0.75, q75=2.25.
        stats = trace_stats(downloads([0.0, 1.0, 2.0, 3.0]))
        assert stats.time_iqr == pytest.approx(1.5, abs=1e-12)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        st.one_of(st.sampled_from([0.25, 0.75]), st.floats(0.0, 1.0, exclude_max=True)),
    )
    def test_sorted_quantile_is_np_quantile_bit_for_bit(self, values, q):
        values = np.sort(np.array(values))
        expected = np.quantile(values, q)
        assert np.float64(stats_module._sorted_quantile(values, q)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", [
        [3.5],
        [-0.0],
        [1.0, 7.0, 2.0],
        [4.0, 1.0],
        [-0.0, -0.0],
        [0.0, -0.0, 5.0, -0.0],
        [1e308, 1.7e308],  # the middle pair's sum overflows to inf
        [1.7e308, -1e308, 1.7e308],
        [-1.7e308, -1.7e308, 1e308, 1.7e308],
    ])
    def test_median_is_np_median_bit_for_bit(self, values):
        with np.errstate(over="ignore"):
            expected = np.median(values)
        assert np.float64(stats_module._median(values)).tobytes() == expected.tobytes()

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=40))
    def test_median_of_any_finite_values_is_np_median_bit_for_bit(self, values):
        with np.errstate(over="ignore"):
            expected = np.median(values)
        assert np.float64(stats_module._median(values)).tobytes() == expected.tobytes()

    def test_ratio(self):
        directions = [Direction.DOWNLOAD] * 60 + [Direction.UPLOAD] * 10
        stats = trace_stats(Trace(np.zeros(70), directions))
        assert stats.download_upload_ratio == 6.0
        assert stats.upload_count == 10

    def test_ratio_infinite_without_uploads(self):
        stats = trace_stats(downloads([0.0, 1.0]))
        assert math.isinf(stats.download_upload_ratio)

    # Per-second bins come from the per-second table, the one place that
    # bins by second.
    def test_single_bin(self):
        assert per_second_rows(downloads([0.0, 0.3, 0.9])) == [(0, 3)]

    def test_binning_conserves_packets(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 12, 200))
        times -= times[0]
        assert sum(u + d for u, d in per_second_rows(downloads(times))) == 200

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

    def test_keeps_per_trace_stats_and_counts_directions_once(self):
        directions = [Direction.DOWNLOAD] * 6 + [Direction.UPLOAD] * 2
        traces = (downloads([0.0, 1.0]), Trace(np.arange(8.0), directions))
        stats = dataset_stats(Dataset(traces, name="x"))
        assert stats.per_trace == tuple(trace_stats(t) for t in traces)
        assert stats.download_upload_ratio == 4.0  # (2 + 6) / 2

    def test_empty_trace_is_named(self):
        dataset = Dataset((downloads([0.0]), Trace([], [])), name="x", filenames=("0-0", "0-1"))
        with pytest.raises(ValueError, match="^0-1: statistics are undefined for an empty trace"):
            dataset_stats(dataset)

    def test_long_span_returns_at_once(self):
        # Per-second bins over 1e12 s once made this allocate terabytes.
        trace = Trace([0.0, 1e12], [Direction.UPLOAD, Direction.DOWNLOAD])
        start = time.monotonic()
        stats = dataset_stats(Dataset((trace,), name="x"))
        assert stats.mean_duration == 1e12
        assert time.monotonic() - start < 1.0


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
        assert profile.offsets.dtype == np.float64
        assert profile.offsets.tolist() == [1.0, 2.0]
        assert profile.median_offset == 1.5

    def test_offsets_anchor_on_tenth_download(self):
        # Upload packets neither anchor nor contribute offsets.
        times = [float(i) for i in range(12)] + [0.5] * 5
        directions = [Direction.DOWNLOAD] * 12 + [Direction.UPLOAD] * 5
        order = np.argsort(times, kind="stable")
        trace = Trace(np.array(times)[order], np.array(directions)[order])
        profile = post_tenth_packet_profile(Dataset((trace,), name="x"))
        assert profile.offsets.tolist() == [1.0, 2.0]  # downloads at 10, 11 minus anchor 9

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
    assert iqr_table(dataset, dataset_stats(dataset)).splitlines()[1].startswith("0-0,3,")
    table = io.StringIO()
    per_second_table(dataset, table)
    lines = table.getvalue().splitlines()
    assert lines[1] == "0-0,0,0,2"
    assert lines[2] == "0-0,1,0,1"


def test_per_second_row_limit_names_the_trace(monkeypatch):
    monkeypatch.setattr(stats_module, "MAX_SLOTS", 10)
    assert len(per_second_rows(downloads([0.0, 9.5]))) == 10
    with pytest.raises(ValueError, match="^1-2: more than 10 seconds of per-second rows"):
        per_second_rows(downloads([0.0, 10.0]), name="1-2")


def test_per_second_row_limit_is_checked_where_the_trace_rows_begin(monkeypatch):
    # The table is written in one pass, so the rows of the traces before
    # the one past the limit are already out; `stats --out` stages the
    # table, so the CLI still leaves none.
    monkeypatch.setattr(stats_module, "MAX_SLOTS", 10)
    dataset = Dataset(
        (downloads([0.0, 1.5]), downloads([0.0, 10.0])), name="x", filenames=("0-0", "0-1")
    )
    table = io.StringIO()
    with pytest.raises(ValueError, match="^0-1: more than 10 seconds of per-second rows"):
        per_second_table(dataset, table)
    assert table.getvalue() == "name,second,upload_count,download_count\n0-0,0,0,1\n0-0,1,0,1\n"
