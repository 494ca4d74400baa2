"""Deterministic toolkit for simulating and evaluating website-fingerprinting defenses.

Applies the RegulaTor traffic-shaping defense and two comparison baselines
(FRONT, Tamaraw) to recorded packet traces, measures bandwidth/latency
overheads, reproduces the traffic-pattern statistics that motivate surge
shaping, scores defense efficacy with a closed-world nearest-neighbor
classifier, and searches defense parameters under a weighted loss.
"""

from .traces import (
    Dataset,
    DefendedTrace,
    Direction,
    PacketKind,
    ParseError,
    Trace,
    attach_sources,
    load_dataset,
    parse_defended_schedule,
    parse_trace,
    write_defended_trace,
    write_trace,
)
from .regulator import RegulatorParams, apply_regulator
from .baselines import FrontParams, TamarawParams, apply_front, apply_tamaraw
from .presets import resolve_defense
from .metrics import dataset_overhead, trace_overhead
from .stats import dataset_stats, trace_stats
from .attack import evaluate_closed_world, extract_features, feature_matrix
from .synth import generate_classes, separable_profiles
from .tuner import LossWeights, SearchSpace, random_search

__version__ = "0.1.0"
