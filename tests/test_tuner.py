import json
import math
import re
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
        # A NaN weight once wrote "loss": NaN into the trial log.
        with pytest.raises(ValueError, match="^w_bandwidth must be finite and >= 0, got nan$"):
            LossWeights(1, math.nan, 1)
        with pytest.raises(ValueError, match="^w_accuracy must be finite and >= 0, got inf$"):
            LossWeights(math.inf, 0, 0)


class TestSearchSpace:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            SearchSpace(R=(300.0, 100.0))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(D=(0.5, 1.5))
        with pytest.raises(ValueError):
            SearchSpace(N=(-5, 10))
        with pytest.raises(ValueError, match=f"N must be at most {MAX_SLOTS} packets"):
            SearchSpace(N=(0, MAX_SLOTS + 1))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(R=[1.0, math.inf]), "R must be finite and > 0, got inf"),
        (dict(T=[1.0, math.nan]), "T must be finite and > 0, got nan"),
        (dict(U=[True, 2.0]), "U must be finite and > 0, got True"),
        (dict(D=[0.5, True]), "D must be in (0, 1], got True"),
        (dict(N=[10.5, 20]), "N must be a non-negative integer, got 10.5"),
        (dict(N=[True, 5]), "N must be a non-negative integer, got True"),
        (dict(N=[500.0, 8000]), "N must be a non-negative integer, got 500.0"),
    ], ids=["R-inf", "T-nan", "U-bool", "D-bool", "N-fraction", "N-bool", "N-float"])
    def test_each_end_must_be_a_valid_regulator_value(self, kwargs, message):
        # R=inf and T=nan once raised OverflowError at the first draw, and
        # N=10.5 and N=True were drawn from as if they were 10 and 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SearchSpace(**kwargs)

    def test_bounds_are_held_as_tuples(self):
        space = SearchSpace(R=[50, 100], N=[0, 10])
        assert (space.R, space.N, space.D) == ((50, 100), (0, 10), (0.7, 0.99))


class TestRandomSearch:
    def test_single_trial_internally_consistent(self, tiny_dataset):
        weights = LossWeights(1.0, 1.0, 1.0)
        records = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=1, seed=3, eval_folds=2, eval_k=1
        ))
        assert len(records) == 1
        record = records[0]
        assert record.loss == loss(
            weights, record.accuracy, record.mean_bandwidth, record.mean_latency
        )

    def test_same_seed_identical(self, tiny_dataset):
        weights = LossWeights()
        kwargs = dict(trials=3, seed=8, eval_folds=2, eval_k=1)
        first = list(random_search(tiny_dataset, SMALL_SPACE, weights, **kwargs))
        second = list(random_search(tiny_dataset, SMALL_SPACE, weights, **kwargs))
        assert first == second

    def test_sorted_by_loss_and_bandwidth_objective(self, tiny_dataset):
        weights = LossWeights(0.0, 1.0, 0.0)
        records = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=4, seed=5, eval_folds=2, eval_k=1
        ))
        assert [r.trial_index for r in records] == [0, 1, 2, 3]
        ranked = sorted(records, key=lambda r: (r.loss, r.trial_index))
        assert [r.loss for r in ranked] == sorted(r.mean_bandwidth for r in records)
        assert ranked[0].mean_bandwidth == min(r.mean_bandwidth for r in records)

    def test_more_trials_never_worse(self, tiny_dataset):
        weights = LossWeights()
        short = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=2, seed=4, eval_folds=2, eval_k=1
        ))
        long = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=4, seed=4, eval_folds=2, eval_k=1
        ))
        assert min(r.loss for r in long) <= min(r.loss for r in short)
        # The first two trials are reproduced identically inside the longer run.
        by_index = {r.trial_index: r for r in long}
        for record in short:
            assert by_index[record.trial_index] == record

    def test_start_trial_resume(self, tiny_dataset):
        weights = LossWeights()
        full = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=3, seed=4, eval_folds=2, eval_k=1
        ))
        tail = list(random_search(
            tiny_dataset, SMALL_SPACE, weights, trials=3, seed=4,
            eval_folds=2, eval_k=1, start_trial=2,
        ))
        assert [r.trial_index for r in tail] == [2]
        assert tail[0] == full[2]

    def test_invalid_trials(self, tiny_dataset):
        # The checks run when iteration starts.
        with pytest.raises(ValueError):
            next(random_search(tiny_dataset, SMALL_SPACE, LossWeights(), trials=0, seed=1))
        with pytest.raises(ValueError, match="start_trial"):
            next(random_search(
                tiny_dataset, SMALL_SPACE, LossWeights(), trials=2, seed=1, start_trial=3
            ))


def test_trial_json_roundtrip(tiny_dataset):
    records = list(random_search(
        tiny_dataset, SMALL_SPACE, LossWeights(), trials=1, seed=9, eval_folds=2, eval_k=1
    ))
    line = trial_json(records[0], master_seed=9)
    parsed, master = parse_trial_json(line)
    assert master == 9
    assert parsed == records[0]
    # A record may leave out the two constants of RegulatorParams.
    payload = json.loads(line)
    del payload["params"]["initial_upload_rate"], payload["params"]["tail_grace"]
    assert parse_trial_json(json.dumps(payload)) == (records[0], 9)


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
