"""Random search over regulator parameters under a weighted loss.

Each trial samples a parameter set, defends the dataset with it, measures
closed-world accuracy plus mean overheads, and scores them as a weighted
sum. Per-trial seeds derive from (master seed, trial index), so extending
the trial count reruns nothing and never worsens the best loss found.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from .attack import evaluate_closed_world, extract_features
from .metrics import aggregate_reports, trace_overhead
from .presets import defend
from .regulator import RegulatorParams
from .seeding import stable_seed
from .traces import Dataset, check_positive


@dataclass(frozen=True, slots=True)
class LossWeights:
    w_accuracy: float = 1.0
    w_bandwidth: float = 1.0
    w_latency: float = 1.0

    def __post_init__(self):
        for name, weight in asdict(self).items():
            check_positive(name, weight, or_zero=True)
        if self.w_accuracy == self.w_bandwidth == self.w_latency == 0:
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True, slots=True)
class SearchSpace:
    """Closed sampling intervals per parameter; defaults bracket the presets.
    Each interval is held as a (lo, hi) tuple."""

    R: tuple[float, float] = (100.0, 600.0)
    D: tuple[float, float] = (0.7, 0.99)
    T: tuple[float, float] = (1.0, 10.0)
    N: tuple[int, int] = (500, 8000)
    U: tuple[float, float] = (1.0, 8.0)
    C: tuple[float, float] = (0.5, 5.0)

    def __post_init__(self):
        intervals = {name: tuple(bounds) for name, bounds in asdict(self).items()}
        for name, (lo, hi) in intervals.items():
            if lo > hi:
                raise ValueError(f"empty interval for {name}: ({lo}, {hi})")
            object.__setattr__(self, name, (lo, hi))
        # Every RegulatorParams rule is an interval, so when the params of
        # all low ends and of all high ends are valid, so is every draw.
        for end in (0, 1):
            RegulatorParams(**{name: bounds[end] for name, bounds in intervals.items()})


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    seed: int
    params: RegulatorParams
    accuracy: float
    mean_bandwidth: float
    mean_latency: float
    loss: float


def loss(
    weights: LossWeights, accuracy: float, bandwidth: float, latency: float
) -> float:
    """Weighted combination of attack accuracy and the two overheads."""
    return (
        weights.w_accuracy * accuracy
        + weights.w_bandwidth * bandwidth
        + weights.w_latency * latency
    )


def sample_params(space: SearchSpace, rng: np.random.Generator) -> RegulatorParams:
    """Uniform draw from the space; N as an integer. Draw order is fixed."""
    return RegulatorParams(
        R=float(rng.uniform(*space.R)),
        D=float(rng.uniform(*space.D)),
        T=float(rng.uniform(*space.T)),
        N=int(rng.integers(space.N[0], space.N[1], endpoint=True)),
        U=float(rng.uniform(*space.U)),
        C=float(rng.uniform(*space.C)),
    )


def run_trial(
    dataset: Dataset,
    params: RegulatorParams,
    trial_seed: int,
    weights: LossWeights,
    trial_index: int,
    eval_k: int = 5,
    eval_folds: int = 10,
) -> TrialRecord:
    # Each defended trace is reduced to its overhead report and feature row
    # as it is made, so a trial never holds the whole defended dataset.
    reports, features = [], []
    for i, (trace, name) in enumerate(zip(dataset.traces, dataset.filenames)):
        defended = defend(params, trace, stable_seed(trial_seed, "trace", i), name)
        reports.append(trace_overhead(trace, defended))
        features.append(extract_features(defended))
    overhead = aggregate_reports(reports)
    result = evaluate_closed_world(
        dataset, np.vstack(features), k=eval_k, folds=eval_folds, seed=trial_seed
    )
    trial_loss = loss(
        weights, result.accuracy, overhead.mean_bandwidth, overhead.mean_latency
    )
    return TrialRecord(
        trial_index=trial_index,
        seed=trial_seed,
        params=params,
        accuracy=result.accuracy,
        mean_bandwidth=overhead.mean_bandwidth,
        mean_latency=overhead.mean_latency,
        loss=trial_loss,
    )


def random_search(
    dataset: Dataset,
    space: SearchSpace,
    weights: LossWeights,
    trials: int,
    seed: int,
    eval_k: int = 5,
    eval_folds: int = 10,
    start_trial: int = 0,
) -> Iterator[TrialRecord]:
    """Yield trials [start_trial, trials) in run order, each as soon as it
    is scored, so a caller can log it before the next one runs. The best
    trial is the least (loss, trial_index). Fully deterministic given the
    seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= start_trial <= trials:
        raise ValueError("start_trial must lie in [0, trials]")
    for index in range(start_trial, trials):
        trial_seed = stable_seed(seed, "trial", index)
        params = sample_params(space, np.random.default_rng(trial_seed))
        yield run_trial(dataset, params, trial_seed, weights, index, eval_k, eval_folds)


def trial_json(record: TrialRecord, master_seed: int) -> str:
    """One-line JSON encoding for the append-only trial log."""
    payload = {
        "master_seed": master_seed,
        "trial_index": record.trial_index,
        "seed": record.seed,
        "params": asdict(record.params),
        "accuracy": record.accuracy,
        "mean_bandwidth": record.mean_bandwidth,
        "mean_latency": record.mean_latency,
        "loss": record.loss,
    }
    return json.dumps(payload, sort_keys=True)


def parse_trial_json(line: str) -> tuple[TrialRecord, int]:
    """The record and master seed of one trial-log line; a ValueError,
    KeyError or TypeError marks a malformed record. Its params may leave
    out the constants of RegulatorParams, but not hold other values."""
    payload = json.loads(line)
    params = {**payload["params"]}
    for name, value in ((f.name, f.default) for f in fields(RegulatorParams) if not f.init):
        if (held := params.pop(name, value)) != value:
            raise ValueError(f"{name} is fixed at {value}, got {held!r}")
    for name in ("trial_index", "seed", "master_seed"):
        if type(payload[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {payload[name]!r}")
    for name in ("accuracy", "mean_bandwidth", "mean_latency", "loss"):
        if type(payload[name]) not in (int, float) or not math.isfinite(payload[name]):
            raise ValueError(f"{name} must be a finite number, got {payload[name]!r}")
    record = TrialRecord(
        trial_index=payload["trial_index"],
        seed=payload["seed"],
        params=RegulatorParams(**params),
        accuracy=payload["accuracy"],
        mean_bandwidth=payload["mean_bandwidth"],
        mean_latency=payload["mean_latency"],
        loss=payload["loss"],
    )
    return record, payload["master_seed"]
