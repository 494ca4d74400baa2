"""Named defense presets and the resolver that every command uses.

Each preset is a params object that applies itself: `params.apply(trace,
seed)` defends one trace, and `params.randomized` says whether the seed
matters (Tamaraw's does not).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from .baselines import FrontParams, TamarawParams
from .regulator import RegulatorParams
from .traces import DefendedTrace, Trace

DefenseParams = Union[RegulatorParams, FrontParams, TamarawParams]

REGULATOR_PRESETS: dict[str, RegulatorParams] = {
    "regulator-heavy": RegulatorParams(R=277.0, D=0.940, T=3.55, N=3550, U=3.95, C=1.77),
    "regulator-light": RegulatorParams(R=260.0, D=0.860, T=3.75, N=2080, U=4.02, C=2.08),
}

FRONT_PRESETS: dict[str, FrontParams] = {
    "front-1700": FrontParams(N_s=1700, N_c=1700, W_min=1.0, W_max=14.0),
    "front-2500": FrontParams(N_s=2500, N_c=2500, W_min=1.0, W_max=14.0),
}

TAMARAW_PRESETS: dict[str, TamarawParams] = {
    "tamaraw": TamarawParams(rho_out=0.04, rho_in=0.012, L=100),
}

PRESETS: dict[str, DefenseParams] = {**REGULATOR_PRESETS, **FRONT_PRESETS, **TAMARAW_PRESETS}

# Regulator parameters that may be overridden from the command line.
OVERRIDE_FIELDS = ("R", "D", "T", "N", "U", "C")


def defense_names() -> list[str]:
    return sorted(PRESETS)


def resolve_defense(name: str, overrides: Optional[dict] = None) -> DefenseParams:
    """The params of preset `name`, with regulator overrides applied.

    Overrides whose value is None are ignored. An unknown name, an override
    of a non-regulator preset, an unknown field, a non-integral N or an
    out-of-range value raises ValueError.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown defense {name!r}; expected one of {defense_names()}")
    params = PRESETS[name]
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    if not overrides:
        return params
    if not isinstance(params, RegulatorParams):
        raise ValueError(f"parameter overrides only apply to regulator presets, not {name!r}")
    unknown = set(overrides) - set(OVERRIDE_FIELDS)
    if unknown:
        raise ValueError(f"unknown regulator overrides: {sorted(unknown)}")
    if "N" in overrides:
        if not float(overrides["N"]).is_integer():
            raise ValueError(f"N must be a whole number of packets, got {overrides['N']}")
        overrides["N"] = int(overrides["N"])
    return replace(params, **overrides)


def defend(params: DefenseParams, trace: Trace, seed: int, name: str) -> DefendedTrace:
    """`params.apply(trace, seed)`; a defense that cannot run on the trace
    (one past the slot limit) raises a ValueError that starts with `name`."""
    try:
        return params.apply(trace, seed)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
