import numpy as np
import pytest

from wfdefend import (
    Dataset,
    Direction,
    Trace,
    evaluate_closed_world,
    extract_features,
)
from wfdefend.attack import CUMULATIVE_SAMPLES, FEATURE_LENGTH, feature_matrix_csv


def uniform_trace(n, direction, duration=10.0, label=None):
    times = np.linspace(0.0, duration, n)
    return Trace(times, np.full(n, direction), label=label)


def sized_dataset(class_sizes, instances, rng):
    """Classes distinguished by packet count, with mild per-instance noise."""
    traces = []
    for label, size in class_sizes.items():
        for _ in range(instances):
            n = size + int(rng.integers(0, 5))
            uploads = rng.random(n) < 0.3
            times = np.sort(rng.uniform(0, 10, n))
            times -= times[0]
            traces.append(
                Trace(
                    times,
                    np.where(uploads, Direction.UPLOAD, Direction.DOWNLOAD),
                    label=label,
                )
            )
    return Dataset(tuple(traces), name="sized")


class TestFeatures:
    def test_all_upload_is_increasing(self):
        features = extract_features(uniform_trace(100, Direction.UPLOAD))
        cumulative = features[:CUMULATIVE_SAMPLES]
        assert np.all(np.diff(cumulative) > 0)
        assert cumulative[-1] == 100.0

    def test_all_download_is_decreasing(self):
        features = extract_features(uniform_trace(100, Direction.DOWNLOAD))
        cumulative = features[:CUMULATIVE_SAMPLES]
        assert np.all(np.diff(cumulative) < 0)
        assert cumulative[-1] == -100.0

    def test_alternating_bounded(self):
        trace = Trace(
            [0.01 * i for i in range(100)],
            [Direction.UPLOAD if i % 2 == 0 else Direction.DOWNLOAD for i in range(100)],
        )
        features = extract_features(trace)
        cumulative = features[:CUMULATIVE_SAMPLES]
        assert cumulative.min() >= -1.0
        assert cumulative.max() <= 1.0

    def test_summary_features(self):
        trace = Trace(
            [0.0, 1.0, 4.0], [Direction.UPLOAD, Direction.DOWNLOAD, Direction.DOWNLOAD]
        )
        features = extract_features(trace)
        assert len(features) == FEATURE_LENGTH
        assert list(features[-4:]) == [3.0, 1.0, 2.0, 4.0]

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            extract_features(Trace([0.0], [Direction.UPLOAD]))


class TestEvaluate:
    def test_separable_classes_score_perfectly(self):
        rng = np.random.default_rng(0)
        dataset = sized_dataset({"small": 100, "large": 1000}, instances=20, rng=rng)
        result = evaluate_closed_world(dataset, k=3, folds=5, seed=1)
        assert result.accuracy == 1.0
        assert set(result.per_class_accuracy) == {"small", "large"}

    def test_shuffled_labels_score_at_chance(self):
        rng = np.random.default_rng(1)
        sizes = {str(i): 100 + 120 * i for i in range(10)}
        dataset = sized_dataset(sizes, instances=30, rng=rng)
        shuffled = list(dataset.labels())
        rng.shuffle(shuffled)
        traces = tuple(
            Trace(t.times, t.direction, label=l) for t, l in zip(dataset.traces, shuffled)
        )
        result = evaluate_closed_world(Dataset(traces, name="shuffled"), k=5, folds=5, seed=2)
        assert abs(result.accuracy - 0.1) <= 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        dataset = sized_dataset({"a": 50, "b": 200}, instances=10, rng=rng)
        first = evaluate_closed_world(dataset, k=3, folds=5, seed=9)
        second = evaluate_closed_world(dataset, k=3, folds=5, seed=9)
        assert first == second

    def test_class_below_fold_count_named(self):
        rng = np.random.default_rng(3)
        dataset = sized_dataset({"a": 50, "b": 200}, instances=4, rng=rng)
        with pytest.raises(ValueError, match="'a'"):
            evaluate_closed_world(dataset, folds=5, seed=0)

    def test_single_class_errors(self):
        rng = np.random.default_rng(4)
        dataset = sized_dataset({"a": 50}, instances=10, rng=rng)
        with pytest.raises(ValueError, match="2 classes"):
            evaluate_closed_world(dataset, folds=5, seed=0)

    def test_defense_callable_receives_indices(self):
        rng = np.random.default_rng(5)
        dataset = sized_dataset({"a": 50, "b": 200}, instances=10, rng=rng)
        seen = []

        def spy(trace, index):
            seen.append(index)
            return trace

        evaluate_closed_world(dataset, defense=spy, k=3, folds=5, seed=0)
        assert seen == list(range(len(dataset)))


def test_feature_matrix_csv():
    rng = np.random.default_rng(6)
    dataset = sized_dataset({"a": 20, "b": 60}, instances=2, rng=rng)
    csv = feature_matrix_csv(dataset)
    lines = csv.splitlines()
    assert lines[0].startswith("label,cum_0,")
    assert len(lines) == 1 + len(dataset)
    assert lines[1].split(",")[0] == "a"
    assert len(lines[1].split(",")) == 1 + FEATURE_LENGTH
