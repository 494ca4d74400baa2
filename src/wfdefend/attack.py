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


# Each block of test rows gets a key matrix of at most this many bytes (one
# row at least), so a fold of any size is searched in bounded memory: the
# keys and their partitioned copy stay under 32 MB.
KEY_BLOCK_BYTES = 16 * 2**20
# The filter's slack per unit of ||q||^2 + max ||t||^2; see `_neighbours`.
SLACK = 4 * (FEATURE_LENGTH + 4) * np.finfo(float).eps


def _keys(train_x: np.ndarray, train_sq: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The rank key ||t||^2 - 2 q.t of every training row t (whose squared
    norms are `train_sq`) for each row q of `block`, by one matrix product.
    Scaling by -2 is exact and addition commutes, so working in place gives
    the bits of `train_sq - 2 * (block @ train_x.T)` without its temporaries."""
    keys = block @ train_x.T
    keys *= -2
    keys += train_sq
    return keys


def _neighbours(train_x: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k training rows nearest to each of `rows`, nearest
    first, ties to the lower index: row i holds the first min(k, m) of a
    stable argsort of `((train_x - rows[i]) ** 2).sum(axis=1)`, found by
    filter and refine over blocks of rows.

    Rank. For a row q and a training row t, the key ||t||^2 - 2 q.t is the
    squared distance less the row constant ||q||^2. One matrix product
    gives the keys of a block of rows.

    Filter. A training row is a candidate when its key is at most the
    k-th smallest key of the row plus 2 s_q. Refine. Only candidates get
    a distance, with the arithmetic above, and a stable sort; they are in
    ascending index order, so ties keep going to the lower index.

    Why no neighbour is lost. Let n = 104 features, u = eps/2, gamma_j =
    j u / (1 - j u), Q = ||q||^2, M = max ||t||^2. A float dot product
    in any summation order, FMA or not, is within gamma_n sum |a_i b_i| of
    the exact one (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1), so BLAS blocking and threads do not matter. With |q.t| <=
    (Q + M)/2 and a final subtraction, the computed key is within e_K =
    (2 gamma_n + 2u(1 + gamma_n))(Q + M) of the exact one. A distance
    sums n non-negative terms, each a difference squared (relative error
    gamma_3), so it is within e_D = gamma_(n+2) D <= 2 gamma_(n+2)(Q + M)
    of the exact D. Let t be a row the full scan keeps, so its distance
    is at most the k-th smallest distance, and let S be the k rows of
    smallest key, the k-th of which is kappa. Every r in S has an exact
    distance of at most Q + kappa + e_K, so the k-th smallest computed
    distance is at most Q + kappa + e_K + e_D; then t's exact distance is
    at most Q + kappa + e_K + 2 e_D, and its computed key at most
    kappa + 2 e_K + 2 e_D, about kappa + (8n + 12) u (Q + M). The limit
    kappa + 2 s_q, with s_q = SLACK (Q + M) = 8(n + 4) u (Q + M), is
    about twice that, which also covers the rounding of Q, M, s_q and
    the limit itself (each a few u relative, |kappa| <= 2(Q + M)).
    Gradual underflow adds at most 2^-1075 per product, under a thousand
    of them, far below the smallest normal number, which s_q adds too.

    The bounds assume no overflow. Every key and every distance is at most
    about 2(Q + M), so a block with a row whose 4(Q + M) is not finite
    (rows near 1e150 square to inf) gets a full scan instead, and so does
    every row when k >= m.
    """
    m = len(train_x)
    every = np.arange(m)
    nearest = np.empty((len(rows), min(k, m)), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        train_sq = np.einsum("ij,ij->i", train_x, train_x)
        row_sq = np.einsum("ij,ij->i", rows, rows)
        max_sq = train_sq.max()
        safe = np.isfinite(4 * (row_sq + max_sq))
    step = max(1, KEY_BLOCK_BYTES // (8 * m))
    for start in range(0, len(rows), step):
        block, block_sq = rows[start : start + step], row_sq[start : start + step]
        filtered = k < m and safe[start : start + step].all()
        if filtered:
            keys = _keys(train_x, train_sq, block)
            slack = SLACK * (block_sq + max_sq) + np.finfo(float).tiny
            limit = np.partition(keys, k - 1, axis=1)[:, k - 1] + 2 * slack
        for i, row in enumerate(block):
            candidates = (keys[i] <= limit[i]).nonzero()[0] if filtered else every
            d2 = ((train_x[candidates] - row) ** 2).sum(axis=1)
            nearest[start + i] = candidates[d2.argsort(kind="stable")[:k]]
    return nearest


def _knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, k: int
) -> np.ndarray:
    """Majority label code of each test row's k nearest training rows; a
    tied vote goes to the nearest neighbour among the tied classes.

    A prediction depends only on the row's bytes and the training set, so
    rows with equal bytes share one search. Tamaraw's anonymity sets make
    many defended traces share one feature row, exactly.
    """
    row_bytes = np.dtype((np.void, test_x.itemsize * test_x.shape[1]))
    _, first, inverse = np.unique(
        np.ascontiguousarray(test_x).view(row_bytes)[:, 0],
        return_index=True, return_inverse=True,
    )
    codes = train_y[_neighbours(train_x, test_x[first], k)]
    votes = (codes[:, :, None] == codes[:, None, :]).sum(axis=2)
    # argmax takes the first, nearest, neighbour of a class with the most votes.
    winner = votes.argmax(axis=1)
    return codes[np.arange(len(codes)), winner][inverse]


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
    classes = sorted(counts)
    code = {label: i for i, label in enumerate(classes)}
    y = np.array([code[label] for label in labels])
    fold_of = _fold_assignment(labels, folds, seed)

    fold_accuracies = []
    class_correct = np.zeros(len(classes), dtype=np.int64)
    for f in range(folds):
        test_mask = fold_of == f
        train_x, train_y = features[~test_mask], y[~test_mask]
        test_x, test_y = features[test_mask], y[test_mask]
        mins = train_x.min(axis=0)
        span = train_x.max(axis=0) - mins
        span[span == 0] = 1.0
        hit = test_y == _knn_predict(
            (train_x - mins) / span, train_y, (test_x - mins) / span, k
        )
        fold_accuracies.append(np.count_nonzero(hit) / len(test_y))
        class_correct += np.bincount(test_y[hit], minlength=len(classes))

    # Each trace is tested in exactly one fold, so a class's tests number
    # its instances.
    per_class = {
        label: correct / counts[label]
        for label, correct in zip(classes, class_correct.tolist())
    }
    return EvalResult(
        accuracy=float(np.mean(fold_accuracies)),
        per_class_accuracy=per_class,
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
