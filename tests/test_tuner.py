import weakref

import pytest

from wfdefend import (
    LossWeights,
    RegulatorParams,
    SearchSpace,
    generate_classes,
    random_search,
    separable_profiles,
)
from wfdefend import regulator
from wfdefend.traces import MAX_SLOTS
from wfdefend.tuner import loss, parse_trial_json, run_trial, trial_json

SMALL_SPACE = SearchSpace(
    R=(50.0, 300.0), D=(0.8, 0.95), T=(1.0, 5.0), N=(0, 200), U=(2.0, 6.0), C=(1.0, 3.0)
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_classes(separable_profiles(2, base_total=40, step=10), instances=4, seed=13)


class TestLoss:
    def test_accuracy_only(self):
        assert loss(LossWeights(1, 0, 0), 0.25, 0.8, 0.05) == 0.25

    def test_equal_weights(self):
        assert loss(LossWeights(1, 1, 1), 0.2, 0.8, 0.05) == pytest.approx(1.05)

    def test_all_zero_measurements(self):
        assert loss(LossWeights(1, 1, 1), 0.0, 0.0, 0.0) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-1, 1, 1)
        with pytest.raises(ValueError):
            LossWeights(0, 0, 0)


class TestSearchSpace:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            SearchSpace(R=(300.0, 100.0))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(D=(0.5, 1.5))
        with pytest.raises(ValueError):
            SearchSpace(N=(-5, 10))
        with pytest.raises(ValueError, match="N interval must lie in"):
            SearchSpace(N=(0, MAX_SLOTS + 1))


class TestRandomSearch:
    def test_single_trial_internally_consistent(self, tiny_dataset):
        weights = LossWeights(1.0, 1.0, 1.0)
        records = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=1, seed=3, eval_folds=2, eval_k=1
        )
        assert len(records) == 1
        record = records[0]
        assert record.loss == loss(
            weights, record.accuracy, record.mean_bandwidth, record.mean_latency
        )

    def test_same_seed_identical(self, tiny_dataset):
        weights = LossWeights()
        kwargs = dict(trials=3, seed=8, eval_folds=2, eval_k=1)
        first = random_search(tiny_dataset, SMALL_SPACE, weights, **kwargs)
        second = random_search(tiny_dataset, SMALL_SPACE, weights, **kwargs)
        assert first == second

    def test_sorted_by_loss_and_bandwidth_objective(self, tiny_dataset):
        weights = LossWeights(0.0, 1.0, 0.0)
        records = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=4, seed=5, eval_folds=2, eval_k=1
        )
        losses = [r.loss for r in records]
        assert losses == sorted(losses)
        assert records[0].mean_bandwidth == min(r.mean_bandwidth for r in records)

    def test_more_trials_never_worse(self, tiny_dataset):
        weights = LossWeights()
        short = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=2, seed=4, eval_folds=2, eval_k=1
        )
        long = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=4, seed=4, eval_folds=2, eval_k=1
        )
        assert long[0].loss <= short[0].loss
        # The first two trials are reproduced identically inside the longer run.
        by_index = {r.trial_index: r for r in long}
        for record in short:
            assert by_index[record.trial_index] == record

    def test_start_trial_resume(self, tiny_dataset):
        weights = LossWeights()
        full = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=3, seed=4, eval_folds=2, eval_k=1
        )
        tail = random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=3, seed=4,
            eval_folds=2, eval_k=1, start_trial=2,
        )
        assert [r.trial_index for r in tail] == [2]
        assert tail[0] == next(r for r in full if r.trial_index == 2)

    def test_invalid_trials(self, tiny_dataset):
        with pytest.raises(ValueError):
            random_search(tiny_dataset, SMALL_SPACE, LossWeights(), trials=0, seed=1)


def test_trial_json_roundtrip(tiny_dataset):
    records = random_search(
        tiny_dataset, SMALL_SPACE, LossWeights(), trials=1, seed=9, eval_folds=2, eval_k=1
    )
    line = trial_json(records[0], master_seed=9)
    parsed, master = parse_trial_json(line)
    assert master == 9
    assert parsed == records[0]


def test_run_trial_streams_defended_traces(tiny_dataset, monkeypatch):
    # Each defended trace is dropped once its report and feature row exist.
    # (DefendedTrace defines __eq__, so it is unhashable and cannot go in a
    # WeakSet; a list of weak references counts the same thing.)
    made = []
    most_live = 0
    original = regulator.apply_regulator

    def tracked(trace, params, seed):
        nonlocal most_live
        defended = original(trace, params, seed)
        made.append(weakref.ref(defended))
        most_live = max(most_live, sum(ref() is not None for ref in made))
        return defended

    monkeypatch.setattr(regulator, "apply_regulator", tracked)
    params = RegulatorParams(R=100.0, D=0.9, T=3.0, N=50, U=3.0, C=1.5)
    run_trial(tiny_dataset, params, 5, LossWeights(), 0, eval_k=1, eval_folds=2)
    assert len(tiny_dataset) == 8
    assert most_live <= 2
