"""Closed-world attack evaluator: cumulative features plus k-nearest neighbors.

This is a desk-scale stand-in for the deep-learning attacks used in the
literature: deterministic, dependency-free, and fast enough to run inside
a parameter search. Accuracies are comparable between defenses evaluated
here, not with published attack numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .seeding import stable_seed
from .traces import Dataset, DefendedTrace, Trace

CUMULATIVE_SAMPLES = 100
SUMMARY_FEATURES = 4
FEATURE_LENGTH = CUMULATIVE_SAMPLES + SUMMARY_FEATURES

Observable = Union[Trace, DefendedTrace]
DefenseFn = Callable[[Trace, int], Observable]


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


def _feature_matrix(dataset: Dataset, defense: Optional[DefenseFn]) -> np.ndarray:
    rows = []
    for i, trace in enumerate(dataset.traces):
        observed = defense(trace, i) if defense else trace
        rows.append(extract_features(observed))
    return np.vstack(rows)


def _fold_assignment(labels: Sequence[str], folds: int, seed: int) -> np.ndarray:
    fold_of = np.empty(len(labels), dtype=int)
    for label in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == label]
        rng = np.random.default_rng(stable_seed(seed, "fold", label))
        for j, pos in enumerate(rng.permutation(len(idx))):
            fold_of[idx[pos]] = j % folds
    return fold_of


def _knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, k: int
) -> list:
    predictions = []
    for row in test_x:
        d2 = ((train_x - row) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[: min(k, len(train_y))]
        votes = Counter(train_y[order])
        best = max(votes.values())
        # Break ties toward the nearest neighbor of a tied class.
        for idx in order:
            if votes[train_y[idx]] == best:
                predictions.append(train_y[idx])
                break
    return predictions


def evaluate_closed_world(
    dataset: Dataset,
    defense: Optional[DefenseFn] = None,
    k: int = 5,
    folds: int = 10,
    seed: int = 0,
) -> EvalResult:
    """Stratified k-fold closed-world evaluation, deterministic given the seed.

    `defense`, if given, is called as defense(trace, index) per trace before
    feature extraction, so the caller owns per-trace seed derivation; the
    classifier then only sees the defended schedule. Features are min-max
    normalized on each training fold. Errors name the class when any class
    has fewer instances than folds.
    """
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

    features = _feature_matrix(dataset, defense)
    y = np.array(labels, dtype=object)
    fold_of = _fold_assignment(labels, folds, seed)

    fold_accuracies = []
    class_total: Counter = Counter()
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
            class_total[actual] += 1
            if predicted == actual:
                class_correct[actual] += 1
                hits += 1
        fold_accuracies.append(hits / len(test_y))

    per_class = {
        label: class_correct[label] / class_total[label] for label in sorted(counts)
    }
    return EvalResult(
        accuracy=float(np.mean(fold_accuracies)),
        per_class_accuracy=per_class,
        fold_count=folds,
    )


def feature_matrix_csv(dataset: Dataset, defense: Optional[DefenseFn] = None) -> str:
    """Feature matrix as CSV, one labeled row per trace, for external
    attack pipelines. Features are unnormalized."""
    features = _feature_matrix(dataset, defense)
    header = (
        "label,"
        + ",".join(f"cum_{i}" for i in range(CUMULATIVE_SAMPLES))
        + ",total_packets,upload_count,download_count,duration"
    )
    lines = [header]
    for trace, row in zip(dataset.traces, features):
        values = ",".join(f"{v:.6f}" for v in row)
        lines.append(f"{trace.label},{values}")
    return "".join(line + "\n" for line in lines)
