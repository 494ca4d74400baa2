"""Deterministic toolkit for simulating and evaluating website-fingerprinting defenses.

Applies the RegulaTor traffic-shaping defense and two comparison baselines
(FRONT, Tamaraw) to recorded packet traces, measures bandwidth/latency
overheads, reproduces the traffic-pattern statistics that motivate surge
shaping, scores defense efficacy with a closed-world nearest-neighbor
classifier, and searches defense parameters under a weighted loss.

`import wfdefend` loads none of the modules: each exported name imports
its module on first use (PEP 562), so a caller pays only for what it uses.
"""

import importlib

_MODULE_EXPORTS = {
    "traces": (
        "Dataset",
        "DefendedTrace",
        "Direction",
        "PacketKind",
        "ParseError",
        "Trace",
        "attach_sources",
        "load_dataset",
        "parse_defended_schedule",
        "parse_trace",
        "write_defended_trace",
        "write_trace",
    ),
    "regulator": ("RegulatorParams", "apply_regulator"),
    "baselines": ("FrontParams", "TamarawParams", "apply_front", "apply_tamaraw"),
    "presets": ("resolve_defense",),
    "metrics": ("dataset_overhead", "trace_overhead"),
    "stats": ("dataset_stats", "trace_stats"),
    "attack": ("evaluate_closed_world", "extract_features", "feature_matrix"),
    "synth": ("generate_classes", "separable_profiles"),
    "tuner": ("LossWeights", "SearchSpace", "random_search"),
}
_HOME = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
