import math
import re

import pytest

from helpers import rows

from wfdefend import (
    Direction,
    evaluate_closed_world,
    generate_classes,
    separable_profiles,
)
from wfdefend.synth import SynthProfile, generate
from wfdefend.traces import MAX_SLOTS


def profile(**kwargs):
    base = dict(
        class_id="c0",
        surge_sizes=(80, 60),
        surge_times=(0.0, 2.0),
        upload_fraction=0.2,
        jitter=0.05,
    )
    base.update(kwargs)
    return SynthProfile(**base)


class TestProfileValidation:
    def test_mismatched_lists(self):
        with pytest.raises(ValueError):
            profile(surge_sizes=(80,))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            profile(upload_fraction=0.0)
        with pytest.raises(ValueError):
            profile(upload_fraction=1.0)

    def test_zero_size(self):
        with pytest.raises(ValueError):
            profile(surge_sizes=(0, 60))

    @pytest.mark.parametrize("size, message", [
        (MAX_SLOTS + 1, f"surge size must be at most {MAX_SLOTS} packets"),
        (2.5, "surge size must be a positive integer, got 2.5"),
    ], ids=["past-the-limit", "fraction"])
    def test_size_is_a_bounded_count(self, size, message):
        # A size of 6e10 once asked numpy for 447 GiB.
        with pytest.raises(ValueError, match=message):
            profile(surge_sizes=(80, size))

    @pytest.mark.parametrize("jitter", [math.inf, math.nan, -0.1])
    def test_jitter_must_be_finite_and_non_negative(self, jitter):
        with pytest.raises(ValueError, match=f"^jitter must be finite and >= 0, got {jitter}$"):
            profile(jitter=jitter)


class TestGenerate:
    def test_zero_jitter_gives_identical_instances(self):
        dataset = generate(profile(jitter=0.0), instances=2, seed=3)
        assert dataset.traces[0] == dataset.traces[1]

    def test_deterministic_per_seed(self):
        first = generate(profile(), instances=3, seed=5)
        second = generate(profile(), instances=3, seed=5)
        assert first.traces == second.traces
        different = generate(profile(), instances=3, seed=6)
        assert first.traces != different.traces

    def test_upload_fraction_binomial(self):
        dataset = generate(
            profile(surge_sizes=(700,), surge_times=(0.0,),
                    upload_fraction=1 / 7),
            instances=1,
            seed=11,
        )
        uploads = dataset.traces[0].count(Direction.UPLOAD)
        assert abs(uploads - 100) <= 30

    def test_gap_between_surges(self):
        dataset = generate(
            profile(jitter=0.0, surge_times=(0.0, 10.0)), instances=1, seed=0
        )
        times = [time for time, _ in rows(dataset.traces[0])]
        first_surge_end = max(t for t in times if t < 5.0)
        in_gap = [t for t in times if first_surge_end < t < 10.0]
        assert in_gap == []

    def test_labels_carry_class_id(self):
        dataset = generate(profile(class_id="site7"), instances=2, seed=1)
        assert [t.label for t in dataset.traces] == ["site7", "site7"]


def test_separable_classes_establish_evaluator_baseline():
    profiles = separable_profiles(3)
    dataset = generate_classes(profiles, instances=12, seed=21)
    assert len(dataset) == 36
    result = evaluate_closed_world(dataset, k=3, folds=3, seed=1)
    assert result.accuracy >= 0.9


@pytest.mark.parametrize("kwargs, message", [
    (dict(num_classes=3, base_total=1), "class 0 would have 1 packet(s), fewer than 2"),
    (dict(num_classes=3, base_total=10, step=-5), "class 2 would have 0 packet(s), fewer than 2"),
    (dict(num_classes=2, step=0), "step must be nonzero, or the classes are identical"),
], ids=["total-below-two", "negative-step", "zero-step"])
def test_separable_profiles_refuse_classes_that_collide_or_shrink(kwargs, message):
    # Each surge was once clamped to a packet, so classes 0 and 1 of
    # base_total 1 and step 1 both totalled 2, and step 0 made them all one.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        separable_profiles(**kwargs)


def test_separable_profiles_keep_every_total_of_two_or_more():
    profiles = separable_profiles(3, base_total=2, step=1)
    assert [sum(p.surge_sizes) for p in profiles] == [2, 3, 4]
    assert len(separable_profiles(1, step=0)) == 1
