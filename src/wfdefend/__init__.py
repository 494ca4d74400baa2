"""Deterministic toolkit for simulating and evaluating website-fingerprinting defenses.

Applies the RegulaTor traffic-shaping defense and two comparison baselines
(FRONT, Tamaraw) to recorded packet traces, measures bandwidth/latency
overheads, reproduces the traffic-pattern statistics that motivate surge
shaping, scores defense efficacy with a closed-world nearest-neighbor
classifier, and searches defense parameters under a weighted loss.

`import wfdefend` runs none of its modules: it registers each in sys.modules,
and as a package attribute, unrun, and a module's body runs when one of its
attributes is first read. Exported names are read off those modules on first
use (PEP 562), so a caller pays only for what it uses.
"""

import importlib.util
import sys
import threading
import types

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

_RUNNING = threading.RLock()


class _Unrun(types.ModuleType):
    """A library module whose body has not run. Reading any attribute runs
    it, once: other threads wait on the lock until the whole body has run,
    and reads from the body's own thread pass, as in any import."""

    def __getattribute__(self, attr):
        spec = types.ModuleType.__getattribute__(self, "__spec__")
        with _RUNNING:
            if type(self) is _Unrun and not hasattr(spec, "running"):
                spec.running = True
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


# Every module but the entry points (cli, __main__), so a tool that patches
# each loaded wfdefend module, as the bench's traced replay does, finds all.
for _name in (*_MODULE_EXPORTS, "seeding"):
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    sys.modules[_module.__name__] = globals()[_name] = _module
    _module.__class__ = _Unrun
del _name, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
