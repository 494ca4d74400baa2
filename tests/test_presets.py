from dataclasses import asdict

import numpy as np
import pytest

from helpers import random_trace

from wfdefend import (
    FrontParams,
    RegulatorParams,
    TamarawParams,
    apply_front,
    apply_regulator,
    apply_tamaraw,
    resolve_defense,
)
from wfdefend.presets import PRESETS, defense_names


def module_apply(params, trace, seed):
    """The defense's module function, called directly."""
    if isinstance(params, RegulatorParams):
        return apply_regulator(trace, params, seed)
    if isinstance(params, FrontParams):
        return apply_front(trace, params, seed)
    assert isinstance(params, TamarawParams)
    return apply_tamaraw(trace, params)


@pytest.fixture(scope="module")
def trace():
    return random_trace(np.random.default_rng(31), 400)


@pytest.mark.parametrize("name", defense_names())
def test_apply_matches_module_function(name, trace):
    params = PRESETS[name]
    for seed in (0, 17, 2**40 + 3):
        assert params.apply(trace, seed) == module_apply(params, trace, seed)


@pytest.mark.parametrize("name", defense_names())
def test_only_tamaraw_ignores_its_seed(name, trace):
    params = PRESETS[name]
    assert params.randomized is (name != "tamaraw")
    assert "randomized" not in asdict(params)  # a class flag, not a field
    first, second = params.apply(trace, 1), params.apply(trace, 2)
    if params.randomized:
        assert not np.array_equal(first.send_time, second.send_time)
    else:
        assert first == second


class TestResolve:
    def test_preset_without_overrides_is_the_table_entry(self):
        for name in defense_names():
            assert resolve_defense(name, {"R": None}) is PRESETS[name]

    def test_overrides_replace_regulator_fields(self):
        params = resolve_defense("regulator-heavy", {"R": 100.0, "N": 12.0})
        assert params.R == 100.0
        assert params.N == 12 and isinstance(params.N, int)
        assert params.D == PRESETS["regulator-heavy"].D

    @pytest.mark.parametrize("n", [3550.9, float("inf"), float("nan")])
    def test_non_integral_n_is_rejected(self, n):
        with pytest.raises(ValueError, match="N must be a whole number"):
            resolve_defense("regulator-light", {"N": n})

    def test_override_of_a_baseline_is_rejected(self):
        with pytest.raises(ValueError, match="only apply to regulator presets"):
            resolve_defense("front-1700", {"R": 5.0})

    def test_unknown_name_and_field_are_rejected(self):
        with pytest.raises(ValueError, match="unknown defense 'nosuch'"):
            resolve_defense("nosuch")
        with pytest.raises(ValueError, match="unknown regulator overrides"):
            resolve_defense("regulator-heavy", {"tail_grace": 1.0})

    def test_out_of_range_value_is_rejected(self):
        with pytest.raises(ValueError, match="D must be"):
            resolve_defense("regulator-heavy", {"D": 1.5})
