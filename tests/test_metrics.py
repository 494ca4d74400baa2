import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_trace

from wfdefend import (
    DefendedTrace,
    Direction,
    Trace,
    attach_sources,
    dataset_overhead,
    parse_defended_schedule,
    trace_overhead,
    write_defended_trace,
)
from wfdefend.metrics import (
    aggregate_reports,
    bandwidth_overhead,
    csv_table,
    estimated_latency_overhead,
    kv_lines,
    latency_overhead,
)
from wfdefend.presets import PRESETS, defense_names
from wfdefend.traces import merge, one_direction

UP, DOWN = Direction.UPLOAD, Direction.DOWNLOAD


def identity_defense(trace: Trace) -> DefendedTrace:
    return DefendedTrace(
        trace.times, trace.direction, np.zeros(len(trace), bool), trace.times,
        seed=0, drawn_budget=0,
    )


def make_trace(times, direction=Direction.DOWNLOAD):
    return Trace(times, np.full(len(times), direction))


def with_dummies(defended: DefendedTrace, dummy_times, direction=Direction.DOWNLOAD):
    dummy_times = np.sort(dummy_times)
    dummies = one_direction(direction, dummy_times, np.full(len(dummy_times), np.nan))
    return merge((defended, dummies), seed=0, drawn_budget=len(dummy_times))


class TestBandwidth:
    def test_no_dummies(self):
        trace = make_trace(np.linspace(0, 10, 100))
        assert bandwidth_overhead(trace, identity_defense(trace)) == 0.0

    def test_half(self):
        trace = make_trace(np.linspace(0, 10, 100))
        defended = with_dummies(identity_defense(trace), np.linspace(0, 5, 50))
        assert bandwidth_overhead(trace, defended) == 0.5

    def test_empty_original_errors(self):
        with pytest.raises(ValueError):
            bandwidth_overhead(Trace([], []), identity_defense(make_trace([0.0, 1.0])))


class TestLatency:
    def test_identity_is_zero(self):
        trace = make_trace([0.0, 14.0, 28.0])
        assert latency_overhead(trace, identity_defense(trace)) == 0.0

    def test_definition_arithmetic(self):
        trace = make_trace([0.0, 28.0])
        defended = DefendedTrace(
            send_time=[0.0, 30.8],
            direction=[DOWN, DOWN],
            dummy=[False, False],
            source_time=[0.0, 28.0],
            seed=0,
            drawn_budget=0,
        )
        assert latency_overhead(trace, defended) == pytest.approx(0.1, abs=1e-12)

    def test_trailing_dummies_do_not_count(self):
        trace = make_trace([0.0, 28.0])
        defended = with_dummies(identity_defense(trace), [40.0])
        assert latency_overhead(trace, defended) == 0.0

    def test_zero_duration_errors(self):
        trace = make_trace([0.0])
        with pytest.raises(ValueError):
            latency_overhead(trace, identity_defense(trace))


class TestEstimatedLatency:
    def test_no_delays(self):
        trace = make_trace([0.0, 5.0, 28.0])
        assert estimated_latency_overhead(trace, identity_defense(trace)) == 0.0

    def test_definition_arithmetic(self):
        # Last download delayed 1.0s, worst upload delay 0.4s, duration 28s.
        trace = Trace([0.0, 10.0, 28.0], [UP, UP, DOWN])
        defended = DefendedTrace(
            send_time=[0.4, 10.1, 29.0],
            direction=[UP, UP, DOWN],
            dummy=[False, False, False],
            source_time=[0.0, 10.0, 28.0],
            seed=0,
            drawn_budget=0,
        )
        assert estimated_latency_overhead(trace, defended) == pytest.approx(
            (1.0 + 0.4) / 28.0, abs=1e-12
        )


class TestDatasetOverhead:
    def test_equal_real_counts(self):
        t1 = make_trace(np.linspace(0, 10, 100))
        t2 = make_trace(np.linspace(0, 10, 100))
        d1 = with_dummies(identity_defense(t1), np.linspace(0, 1, 50))
        d2 = with_dummies(identity_defense(t2), np.linspace(0, 1, 150))
        overhead = dataset_overhead([t1, t2], [d1, d2])
        assert overhead.mean_bandwidth == pytest.approx(1.0)
        assert overhead.aggregate_bandwidth == pytest.approx(1.0)

    def test_unequal_real_counts(self):
        t1 = make_trace(np.linspace(0, 10, 100))
        t2 = make_trace(np.linspace(0, 10, 300))
        d1 = with_dummies(identity_defense(t1), np.linspace(0, 1, 50))
        d2 = with_dummies(identity_defense(t2), np.linspace(0, 1, 450))
        overhead = dataset_overhead([t1, t2], [d1, d2])
        assert overhead.mean_bandwidth == pytest.approx(1.0)
        assert overhead.aggregate_bandwidth == pytest.approx((50 + 450) / 400)

    def test_single_trace_mean_equals_aggregate(self):
        t = make_trace(np.linspace(0, 10, 100))
        d = with_dummies(identity_defense(t), [0.5])
        overhead = dataset_overhead([t], [d])
        assert overhead.mean_bandwidth == overhead.aggregate_bandwidth
        assert overhead.mean_bandwidth == overhead.per_trace[0].bandwidth_overhead

    def test_aggregate_within_trace_range(self):
        rng = np.random.default_rng(6)
        originals, defendeds = [], []
        for _ in range(10):
            trace = random_trace(rng, 100)
            if len(trace) < 2 or trace.duration == 0:
                continue
            originals.append(trace)
            dummy_count = int(rng.integers(0, 50))
            defendeds.append(
                with_dummies(
                    identity_defense(trace), rng.uniform(0, 5, dummy_count)
                )
            )
        overhead = dataset_overhead(originals, defendeds)
        per_trace = [r.bandwidth_overhead for r in overhead.per_trace]
        assert min(per_trace) <= overhead.aggregate_bandwidth <= max(per_trace)

    def test_mismatched_lengths_error(self):
        t = make_trace([0.0, 1.0])
        with pytest.raises(ValueError, match="mismatched"):
            dataset_overhead([t, t], [identity_defense(t)])

    def test_serializations(self):
        t = make_trace([0.0, 1.0])
        overhead = dataset_overhead([t], [identity_defense(t)])
        lines = kv_lines(overhead)
        assert lines[0] == "traces=1"
        assert any(line.startswith("mean_bandwidth_overhead=0.000000") for line in lines)
        table = csv_table(overhead, ["0-0"])
        assert table.splitlines()[1].startswith("0-0,2,0,")
        with pytest.raises(ValueError):
            csv_table(overhead, ["a", "b"])
        with pytest.raises(ValueError):
            aggregate_reports([])


def test_trace_overhead_fields():
    trace = Trace([0.0, 1.0], [UP, DOWN])
    defended = DefendedTrace(
        send_time=[0.3, 1.5, 2.0],
        direction=[UP, DOWN, DOWN],
        dummy=[False, False, True],
        source_time=[0.0, 1.0, np.nan],
        seed=0,
        drawn_budget=1,
    )
    report = trace_overhead(trace, defended)
    assert report.real_count == 2
    assert report.dummy_count == 1
    assert report.max_upload_delay == pytest.approx(0.3)
    assert report.last_real_download_delay == pytest.approx(0.5)
    assert report.latency_overhead == pytest.approx(0.5)
    assert report.estimated_latency_overhead == pytest.approx(0.8)


@settings(max_examples=60, deadline=None)
@given(
    trace_seed=st.integers(0, 2**32 - 1),
    defense=st.sampled_from(defense_names()),
    seed=st.integers(0, 2**63 - 1),
)
def test_overhead_from_disk_matches_simulate(trace_seed, defense, seed):
    """`overhead` (defended file read back and matched to its original)
    reports what `simulate` reported from the in-memory schedule. Send
    times are stored to the microsecond, so each delay may move by up to
    5e-7 s; the latency ratios divide that by the original duration."""
    original = random_trace(np.random.default_rng(trace_seed), 300)
    assume(len(original) and original.duration > 0)
    defended = PRESETS[defense].apply(original, seed)
    schedule = parse_defended_schedule(write_defended_trace(defended))
    expected = trace_overhead(original, defended)
    actual = trace_overhead(original, attach_sources(original, schedule))
    assert actual.real_count == expected.real_count
    assert actual.dummy_count == expected.dummy_count
    ratio_tol = 1e-6 * max(1.0, 1.0 / float(original.times[-1]))
    for field, tol in (
        ("bandwidth_overhead", 1e-6),
        ("latency_overhead", ratio_tol),
        ("estimated_latency_overhead", ratio_tol),
        ("max_upload_delay", 1e-6),
        ("last_real_download_delay", 1e-6),
    ):
        assert getattr(actual, field) == pytest.approx(getattr(expected, field), abs=tol), field
