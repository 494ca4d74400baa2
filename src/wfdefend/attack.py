"""Closed-world attack evaluator: cumulative features plus k-nearest neighbors.

This is a desk-scale stand-in for the deep-learning attacks used in the
literature: deterministic, dependency-free, and fast enough to run inside
a parameter search. Accuracies are comparable between defenses evaluated
here, not with published attack numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .seeding import stable_seed
from .traces import Dataset, DefendedTrace, Trace

CUMULATIVE_SAMPLES = 100
SUMMARY_FEATURES = 4
FEATURE_LENGTH = CUMULATIVE_SAMPLES + SUMMARY_FEATURES

Observable = Union[Trace, DefendedTrace]


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    per_class_accuracy: dict[str, float]
    fold_count: int


def extract_features(observed: Observable) -> np.ndarray:
    """Fixed-length feature vector over the observable packets of a trace.

    Dummies are indistinguishable from real packets on the wire, so both
    count. Layout: 100 samples of the signed cumulative packet count
    (+1 upload, -1 download) linearly interpolated over packet index,
    then total packets, upload count, download count, and duration.
    Values are unnormalized; the evaluator min-max normalizes per fold.
    """
    times = observed.send_time if isinstance(observed, DefendedTrace) else observed.times
    n = len(times)
    if n < 2:
        raise ValueError(f"need at least 2 packets to extract features, got {n}")
    cumulative = np.cumsum(observed.direction, dtype=np.int64)
    samples = np.interp(
        np.linspace(0.0, n - 1, CUMULATIVE_SAMPLES), np.arange(n), cumulative
    )
    uploads = int(np.count_nonzero(observed.direction > 0))
    summary = [float(n), float(uploads), float(n - uploads), times[-1] - times[0]]
    return np.concatenate([samples, summary])


def feature_matrix(observed: Iterable[Observable]) -> np.ndarray:
    """One `extract_features` row per observable, in order.

    An iterator is consumed one item at a time, so a generator of defended
    traces is never held in memory all at once.
    """
    return np.vstack([extract_features(o) for o in observed])


def _fold_assignment(labels: Sequence[str], folds: int, seed: int) -> np.ndarray:
    """Fold of each trace: each class, in label order, is shuffled by its own
    seeded permutation and dealt round-robin over the folds."""
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    fold_of = np.empty(len(labels), dtype=int)
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        rng = np.random.default_rng(stable_seed(seed, "fold", label))
        fold_of[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % folds
    return fold_of


# The columns whose squared differences bound the distance from below:
# every tenth cumulative sample, the last one, and the summary features.
BOUND_COLUMNS = np.r_[0:CUMULATIVE_SAMPLES:10, CUMULATIVE_SAMPLES - 1,
                      CUMULATIVE_SAMPLES:FEATURE_LENGTH]
# Both sums add non-negative terms, so each is within about 104 ulp of its
# exact value; a bound shrunk by this much never exceeds the distance.
BOUND_MARGIN = 1 - 1e-12


def _neighbours(
    train_x: np.ndarray, train_b: np.ndarray, row: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the k training rows nearest to `row`, nearest first, ties
    to the lower index: the first k of a stable argsort of the squared
    distances, found by partial-distance search (Bei and Gray, 1985).

    `train_b` holds the BOUND_COLUMNS of `train_x`. Their squared
    differences sum to a lower bound on each row's distance. The k rows of
    smallest bound have distances whose largest, tau, at least k rows
    reach; a row whose bound lies above tau lies above it too. Only rows
    whose bound does not get a full distance, with the same arithmetic a
    full scan would use, so distances and ties keep their bits.
    """
    if k >= len(train_x):
        candidates = np.arange(len(train_x))
    else:
        diff = train_b - row[BOUND_COLUMNS]
        bound = np.einsum("ij,ij->i", diff, diff)
        nearest = np.argpartition(bound, k - 1)[:k]
        tau = ((train_x[nearest] - row) ** 2).sum(axis=1).max()
        candidates = np.flatnonzero(bound * BOUND_MARGIN <= tau)
    d2 = ((train_x[candidates] - row) ** 2).sum(axis=1)
    return candidates[np.argsort(d2, kind="stable")[:k]]


def _knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, k: int
) -> list:
    """Majority label of each test row's k nearest training rows.

    A prediction depends only on the row's bytes and the training set, so
    rows with equal bytes share one search. Tamaraw's anonymity sets make
    many defended traces share one feature row, exactly.
    """
    train_b = np.ascontiguousarray(train_x[:, BOUND_COLUMNS])
    by_row: dict[bytes, object] = {}
    predictions = []
    for row in test_x:
        key = row.tobytes()
        if key not in by_row:
            order = _neighbours(train_x, train_b, row, k)
            votes = Counter(train_y[order])
            best = max(votes.values())
            # Break ties toward the nearest neighbor of a tied class.
            by_row[key] = next(train_y[i] for i in order if votes[train_y[i]] == best)
        predictions.append(by_row[key])
    return predictions


def check_folds(dataset: Dataset, folds: int) -> Counter:
    """Instances per class, once stratified `folds`-fold evaluation of the
    dataset is known to be possible. Errors name the class when any class
    has fewer instances than folds."""
    labels = [t.label for t in dataset.traces]
    if any(label is None for label in labels):
        raise ValueError("every trace needs a label for closed-world evaluation")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    counts = Counter(labels)
    if len(counts) < 2:
        raise ValueError("closed-world evaluation needs at least 2 classes")
    for label in sorted(counts):
        if counts[label] < folds:
            raise ValueError(
                f"class {label!r} has {counts[label]} instances, fewer than {folds} folds"
            )
    return counts


def evaluate_closed_world(
    dataset: Dataset,
    features: Optional[np.ndarray] = None,
    k: int = 5,
    folds: int = 10,
    seed: int = 0,
) -> EvalResult:
    """Stratified k-fold closed-world evaluation, deterministic given the seed.

    `features` holds one row per trace of `dataset`, for instance the
    `feature_matrix` of its defended traces, so the classifier sees only
    the defended schedules; by default it is that of the traces themselves.
    Features are min-max normalized on each training fold. The dataset is
    checked first, by `check_folds`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = check_folds(dataset, folds)
    labels = [t.label for t in dataset.traces]
    if features is None:
        features = feature_matrix(dataset.traces)
    if len(features) != len(dataset):
        raise ValueError(f"{len(features)} feature rows for {len(dataset)} traces")
    y = np.array(labels, dtype=object)
    fold_of = _fold_assignment(labels, folds, seed)

    fold_accuracies = []
    class_correct: Counter = Counter()
    for f in range(folds):
        test_mask = fold_of == f
        train_x, train_y = features[~test_mask], y[~test_mask]
        test_x, test_y = features[test_mask], y[test_mask]
        mins = train_x.min(axis=0)
        span = train_x.max(axis=0) - mins
        span[span == 0] = 1.0
        predictions = _knn_predict(
            (train_x - mins) / span, train_y, (test_x - mins) / span, k
        )
        hits = 0
        for predicted, actual in zip(predictions, test_y):
            if predicted == actual:
                class_correct[actual] += 1
                hits += 1
        fold_accuracies.append(hits / len(test_y))

    # Each trace is tested in exactly one fold, so a class's tests number
    # its instances.
    per_class = {label: class_correct[label] / counts[label] for label in sorted(counts)}
    return EvalResult(
        accuracy=float(np.mean(fold_accuracies)),
        per_class_accuracy=per_class,
        fold_count=folds,
    )


def feature_matrix_csv(dataset: Dataset, features: np.ndarray) -> str:
    """A feature matrix as CSV, one row per trace of `dataset` labeled with
    its class, for external attack pipelines. Features are unnormalized."""
    header = (
        "label,"
        + ",".join(f"cum_{i}" for i in range(CUMULATIVE_SAMPLES))
        + ",total_packets,upload_count,download_count,duration"
    )
    lines = [header]
    for trace, row in zip(dataset.traces, features, strict=True):
        values = ",".join(f"{v:.6f}" for v in row)
        lines.append(f"{trace.label},{values}")
    return "".join(line + "\n" for line in lines)
