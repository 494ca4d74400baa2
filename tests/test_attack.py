import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfdefend import (
    Dataset,
    DefendedTrace,
    Direction,
    Trace,
    evaluate_closed_world,
    extract_features,
)
from wfdefend import attack
from wfdefend.attack import (
    CUMULATIVE_SAMPLES,
    FEATURE_LENGTH,
    _fold_assignment,
    _knn_predict,
    _neighbours,
    feature_matrix,
    feature_matrix_csv,
)
from wfdefend.presets import resolve_defense
from wfdefend.seeding import stable_seed
from wfdefend.synth import generate_classes, separable_profiles


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


# The features as they were first computed, by linspace and interp: the
# reference for `extract_features`, bit for bit.
def interp_features(observed):
    times = observed.send_time if isinstance(observed, DefendedTrace) else observed.times
    n = len(times)
    cumulative = np.cumsum(observed.direction, dtype=np.int64)
    samples = np.interp(
        np.linspace(0.0, n - 1, CUMULATIVE_SAMPLES), np.arange(n), cumulative
    )
    uploads = int(np.count_nonzero(observed.direction > 0))
    summary = [float(n), float(uploads), float(n - uploads), times[-1] - times[0]]
    return np.concatenate([samples, summary])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(2, 100_000),
        # n - 1 a multiple of 99, 33, 11, 9 or 3 puts sample points on packets.
        st.builds(
            lambda divisor, q: divisor * q + 1,
            st.sampled_from([99, 33, 11, 9, 3]), st.integers(1, 1000),
        ),
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_features_match_linspace_and_interp(n, seed, defended):
    rng = np.random.default_rng(seed)
    direction = np.where(rng.random(n) < rng.random(), 1, -1)
    times = np.cumsum(rng.exponential(0.01, n))
    if defended:
        observed = DefendedTrace(times, direction, np.where(rng.random(n) < 0.5, np.nan, times))
    else:
        observed = Trace(times, direction)
    features = extract_features(observed)
    assert features.view(np.int64).tolist() == interp_features(observed).view(np.int64).tolist()


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
        shuffled = [t.label for t in dataset.traces]
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

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_errors(self, k):
        rng = np.random.default_rng(5)
        dataset = sized_dataset({"a": 50, "b": 200}, instances=10, rng=rng)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            evaluate_closed_world(dataset, k=k, folds=5, seed=0)

    def test_single_class_errors(self):
        rng = np.random.default_rng(4)
        dataset = sized_dataset({"a": 50}, instances=10, rng=rng)
        with pytest.raises(ValueError, match="2 classes"):
            evaluate_closed_world(dataset, folds=5, seed=0)


def test_feature_matrix_csv():
    rng = np.random.default_rng(6)
    dataset = sized_dataset({"a": 20, "b": 60}, instances=2, rng=rng)
    csv = feature_matrix_csv(dataset, feature_matrix(dataset.traces))
    lines = csv.splitlines()
    assert lines[0].startswith("label,cum_0,")
    assert len(lines) == 1 + len(dataset)
    assert lines[1].split(",")[0] == "a"
    assert len(lines[1].split(",")) == 1 + FEATURE_LENGTH


# The evaluator as it was before any pruning: a full distance to every
# training row, then a stable sort. It is the reference for the neighbour
# order and the predictions.
def full_scan_neighbours(train_x, row, k):
    d2 = ((train_x - row) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[: min(k, len(train_x))]


def full_scan_knn_predict(train_x, train_y, test_x, k):
    predictions = []
    for row in test_x:
        order = full_scan_neighbours(train_x, row, k)
        votes = Counter(train_y[order])
        best = max(votes.values())
        for idx in order:
            if votes[train_y[idx]] == best:
                predictions.append(train_y[idx])
                break
    return predictions


def _knn_case(rng, mode, n_train, n_test):
    """(train_x, test_x) of 104-wide rows shaped to stress one way the
    filter could mislead the search."""
    def draw(n):
        if mode in ("grid", "duplicates", "far", "repeats"):
            return rng.integers(0, 3, (n, FEATURE_LENGTH)).astype(float)
        return rng.random((n, FEATURE_LENGTH))

    train_x, test_x = draw(n_train), draw(n_test)
    if mode == "duplicates":
        train_x = train_x[rng.integers(0, max(1, n_train // 4), n_train)]
        test_x[: n_test // 2] = train_x[rng.integers(0, n_train, n_test // 2)]
    elif mode == "near-ties":
        base = train_x[rng.integers(0, min(3, n_train), n_train)]
        train_x = base + rng.choice([-1e-15, 0.0, 1e-15], base.shape)
        test_x = train_x[rng.integers(0, n_train, n_test)] + rng.choice(
            [-1e-15, 0.0, 1e-15], (n_test, FEATURE_LENGTH))
    elif mode == "magnitudes":
        scale = 10.0 ** rng.uniform(-8, 8, FEATURE_LENGTH)
        train_x, test_x = train_x * scale, test_x * scale
    elif mode == "far":
        test_x = test_x * 1e150
    elif mode in ("permuted", "underflow"):
        # Training rows that are the test row plus one small offset vector
        # in permuted order: their exact distances are equal, their keys
        # differ by rounding far larger than their distances do, so only
        # the slack keeps the true nearest among the candidates. Scaled
        # down, the squares are subnormal and the slack's relative part
        # underflows to nothing.
        base = rng.random(FEATURE_LENGTH) * 10.0 ** rng.uniform(0, 3)
        offset = rng.random(FEATURE_LENGTH) * 10.0 ** rng.uniform(-9, -2)
        train_x = base + np.array([rng.permutation(offset) for _ in range(n_train)])
        test_x = np.vstack([base, train_x[rng.integers(0, n_train, n_test - 1)] - offset])
        if mode == "underflow":
            scale = 10.0 ** rng.uniform(-166, -160)
            train_x, test_x = train_x * scale, test_x * scale
    elif mode == "overflow":
        # Some rows square to inf, so keys and distances overflow and the
        # search falls back to a full scan.
        scale = 10.0 ** rng.uniform(153, 160)
        train_x[rng.random(n_train) < 0.3, rng.integers(0, FEATURE_LENGTH)] *= scale
        test_x[rng.random(n_test) < 0.3] *= scale
    elif mode == "repeats":
        # A few distinct rows, some of them training rows, each repeated;
        # beside them copies that differ in one column, and copies whose
        # zeros are -0.0: equal values, other bytes.
        train_x[::2] = np.where(train_x[::2] == 0, -0.0, train_x[::2])
        few = np.vstack([test_x[:2], train_x[rng.integers(0, n_train, 2)]])
        nudged, columns = few.copy(), rng.integers(0, FEATURE_LENGTH, len(few))
        columns[[0, -1]] = 0, FEATURE_LENGTH - 1
        nudged[np.arange(len(few)), columns] += 1.0
        few = np.vstack([few, nudged])
        few = np.vstack([few, np.where(few == 0, -0.0, few)])
        test_x = few[rng.integers(0, len(few), n_test)]
    return train_x, test_x


def assert_matches_full_scan(train_x, test_x, k):
    expected = [full_scan_neighbours(train_x, row, k).tolist() for row in test_x]
    assert _neighbours(train_x, test_x, k).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["grid", "duplicates", "near-ties", "magnitudes", "far", "uniform",
                     "repeats", "permuted", "overflow", "underflow"]),
    st.integers(1, 40),
    st.integers(1, 12),
)
def test_knn_matches_full_scan(seed, mode, n_train, k):
    rng = np.random.default_rng(seed)
    train_x, test_x = _knn_case(rng, mode, n_train, n_test=12)
    train_y = rng.integers(0, 3, n_train)
    with np.errstate(over="ignore"):
        assert_matches_full_scan(train_x, test_x, k)
        assert _knn_predict(train_x, train_y, test_x, k).tolist() == (
            full_scan_knn_predict(train_x, train_y, test_x, k)
        )


def test_knn_slack_alone_decides_candidates(monkeypatch):
    rng = np.random.default_rng(11)
    cases = [_knn_case(rng, "permuted", n_train=60, n_test=12) for _ in range(20)]
    for train_x, test_x in cases:
        assert_matches_full_scan(train_x, test_x, 3)
    # Without the slack the filter drops true neighbours in these cases.
    monkeypatch.setattr(attack, "SLACK", 0.0)
    misses = sum(
        _neighbours(train_x, test_x, 3).tolist()
        != [full_scan_neighbours(train_x, row, 3).tolist() for row in test_x]
        for train_x, test_x in cases
    )
    assert misses > 0


def test_knn_falls_back_to_a_full_scan_near_overflow(monkeypatch):
    rng = np.random.default_rng(12)
    train_x, test_x = _knn_case(rng, "grid", n_train=40, n_test=12)
    train_x[[3, 17], 5] = 1e160  # these rows square to inf, and so do their keys
    test_x[::3] *= 1e155
    # For the second query, finite keys (8.4e307, 0 and 5.4e307) but two
    # distances that overflow and tie at inf, where the lower index, row 0,
    # wins; the filter alone would keep row 2, whose key is smaller. The
    # first query is safe to filter, but it shares the second's block.
    rows = -np.outer([3e152, 0.0, 2e152], np.ones(FEATURE_LENGTH))
    queries = np.outer([0.0, 1.2e153], np.ones(FEATURE_LENGTH))
    blocks = []
    keys = attack._keys
    monkeypatch.setattr(attack, "_keys", lambda *a: blocks.append(a) or keys(*a))
    with np.errstate(over="ignore"):
        assert_matches_full_scan(train_x, test_x, 4)
        assert_matches_full_scan(rows, queries, 2)
        assert _neighbours(rows, queries, 2).tolist() == [[1, 2], [1, 0]]
    assert blocks == []


def test_knn_key_matrices_stay_under_the_block_size(monkeypatch):
    rng = np.random.default_rng(13)
    train_x, test_x = _knn_case(rng, "uniform", n_train=50, n_test=23)
    monkeypatch.setattr(attack, "KEY_BLOCK_BYTES", 8 * 50 * 5 + 7)
    sizes = []
    keys = attack._keys

    def recording(*args):
        result = keys(*args)
        sizes.append(result.nbytes)
        return result

    monkeypatch.setattr(attack, "_keys", recording)
    assert_matches_full_scan(train_x, test_x, 5)
    assert sizes == [8 * 50 * 5] * 4 + [8 * 50 * 3]


@pytest.mark.parametrize("mode, k, filtered", [
    ("uniform", 5, 2), ("near-ties", 3, 2), ("overflow", 4, 0), ("grid", 40, 0),
    ("duplicates", 55, 0),
])
def test_knn_refines_a_block_in_slices_of_pairs(monkeypatch, mode, k, filtered):
    # 18 rows a block and 7 pairs a distance slice, so each block's pairs
    # span several slices: a few candidates a row after the filter, all 40
    # training rows in an overflowing block or when k >= m.
    rng = np.random.default_rng(14)
    train_x, test_x = _knn_case(rng, mode, n_train=40, n_test=30)
    monkeypatch.setattr(attack, "KEY_BLOCK_BYTES", 8 * 40 * 18 + 7)
    monkeypatch.setattr(attack, "PAIR_SLICE", 7)
    blocks = []
    keys = attack._keys
    monkeypatch.setattr(attack, "_keys", lambda *a: blocks.append(a) or keys(*a))
    with np.errstate(over="ignore"):
        assert_matches_full_scan(train_x, test_x, k)
    assert len(blocks) == filtered


@pytest.mark.parametrize("k, overflow", [(301, False), (5, True)])
def test_knn_fallback_block_peaks_within_eight_block_sizes(monkeypatch, k, overflow):
    # Every training row is a candidate of a fallback block's rows. Its pair
    # rows, candidates, distances and sort order are each at most
    # KEY_BLOCK_BYTES, and so are the temporaries of a distance slice here.
    block_bytes = 2**18
    monkeypatch.setattr(attack, "KEY_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(15)
    train_x, test_x = rng.random((300, FEATURE_LENGTH)), rng.random((300, FEATURE_LENGTH))
    if overflow:
        test_x[:: block_bytes // (8 * 300)] *= 1e160  # one row in each block
    with np.errstate(over="ignore"):
        _neighbours(train_x, test_x[:1], k)
        tracemalloc.start()
        try:
            nearest = _neighbours(train_x, test_x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = [full_scan_neighbours(train_x, row, k).tolist() for row in test_x]
    assert peak - nearest.nbytes <= 8 * block_bytes
    assert nearest.tolist() == expected


def test_knn_ties_go_to_the_lower_training_index():
    train_x = np.zeros((6, FEATURE_LENGTH))
    train_x[[1, 4]] = 1.0  # rows 1 and 4 tie with each other, nearest
    train_y = np.array(["a", "b", "c", "b", "c", "a"], dtype=object)
    row = np.ones(FEATURE_LENGTH)
    assert _neighbours(train_x, row[None, :], 3).tolist() == [[1, 4, 0]]
    # One vote each for b, c and a: the tie goes to the nearest, row 1.
    assert _knn_predict(train_x, train_y, row[None, :], 3).tolist() == ["b"]


def test_knn_searches_once_per_distinct_row(monkeypatch):
    rng = np.random.default_rng(8)
    train_x, test_x = _knn_case(rng, "repeats", n_train=30, n_test=40)
    train_y = rng.integers(0, 3, 30)
    searched = []
    search = attack._neighbours

    def counting(train_x, rows, k):
        searched.extend(row.tobytes() for row in rows)
        return search(train_x, rows, k)

    monkeypatch.setattr(attack, "_neighbours", counting)
    predictions = _knn_predict(train_x, train_y, test_x, 5)
    distinct = {row.tobytes() for row in test_x}
    assert len(distinct) < len(test_x)
    assert sorted(searched) == sorted(distinct)
    assert predictions.tolist() == full_scan_knn_predict(train_x, train_y, test_x, 5)


def test_tamaraw_eval_matches_full_scan(monkeypatch):
    # Tamaraw pads short traces into a few anonymity sets, so most feature
    # rows repeat exactly and sit at the k-th neighbour's distance.
    dataset = generate_classes(separable_profiles(20, base_total=60, step=1), 10, seed=4)
    tamaraw = resolve_defense("tamaraw")
    features = feature_matrix(tamaraw.apply(trace, 0) for trace in dataset.traces)
    assert len(np.unique(features, axis=0)) < len(features) // 4
    grouped = evaluate_closed_world(dataset, features=features, k=5, folds=5, seed=3)
    monkeypatch.setattr(attack, "_knn_predict", full_scan_knn_predict)
    assert grouped == evaluate_closed_world(dataset, features=features, k=5, folds=5, seed=3)


# The fold assignment as it was before it grouped labels in one pass: each
# class rescans every label. It is the reference for `_fold_assignment`.
def rescanning_fold_assignment(labels, folds, seed):
    fold_of = np.empty(len(labels), dtype=int)
    for label in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == label]
        rng = np.random.default_rng(stable_seed(seed, "fold", label))
        for j, pos in enumerate(rng.permutation(len(idx))):
            fold_of[idx[pos]] = j % folds
    return fold_of


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["0", "1", "10", "2", "a", "b-c"]), min_size=1, max_size=60),
    st.integers(2, 12),
    st.integers(0, 2**63 - 1),
)
def test_fold_assignment_matches_rescanning(labels, folds, seed):
    fold_of = _fold_assignment(labels, folds, seed)
    expected = rescanning_fold_assignment(labels, folds, seed)
    assert fold_of.dtype == expected.dtype
    assert fold_of.tolist() == expected.tolist()
