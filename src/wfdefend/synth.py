"""Seeded synthetic trace generator for tests and demos.

Produces surge-shaped, web-like traffic (bursts of downloads with uploads
interleaved) so the whole suite runs without an external dataset. The
per-class packet pattern is drawn once from the seed; instances of a class
differ only in where their surges land within the jitter window, so jitter
zero yields identical instances. This is a test fixture, not a traffic
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import stable_seed
from .traces import Dataset, Direction, Trace, check_count, check_positive

# Intra-surge inter-packet gap bounds, seconds.
_GAP_LOW = 0.0005
_GAP_HIGH = 0.002


@dataclass(frozen=True)
class SynthProfile:
    class_id: str
    surge_sizes: tuple[int, ...]
    surge_times: tuple[float, ...]
    upload_fraction: float
    jitter: float

    def __post_init__(self):
        object.__setattr__(self, "surge_sizes", tuple(self.surge_sizes))
        object.__setattr__(self, "surge_times", tuple(self.surge_times))
        if len(self.surge_sizes) != len(self.surge_times):
            raise ValueError("surge_sizes and surge_times must have one entry per surge")
        for size in self.surge_sizes:
            check_count("surge size", size, 1)
        if not 0 < self.upload_fraction < 1:
            raise ValueError("upload_fraction must be in (0, 1)")
        check_positive("jitter", self.jitter, or_zero=True)


def generate(profile: SynthProfile, instances: int, seed: int) -> Dataset:
    """Generate `instances` traces of one class, deterministic per seed."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    base = np.random.default_rng(stable_seed(seed, "synth-base", profile.class_id))
    surges = []
    for size in profile.surge_sizes:
        gaps = base.uniform(_GAP_LOW, _GAP_HIGH, size - 1)
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        is_upload = base.random(size) < profile.upload_fraction
        surges.append((offsets, is_upload))

    direction = np.concatenate([
        np.where(is_upload, Direction.UPLOAD, Direction.DOWNLOAD) for _, is_upload in surges
    ])
    traces, names = [], []
    for instance in range(instances):
        rng = np.random.default_rng(
            stable_seed(seed, "synth-inst", profile.class_id, instance)
        )
        times = np.concatenate([
            max(0.0, anchor + float(rng.uniform(-profile.jitter, profile.jitter))) + offsets
            for anchor, (offsets, _) in zip(profile.surge_times, surges)
        ])
        order = np.argsort(times, kind="stable")
        times = times[order]
        traces.append(
            Trace(times - times[0], direction[order], label=profile.class_id)
        )
        names.append(f"{profile.class_id}-{instance}")
    return Dataset(tuple(traces), name=f"synth:{profile.class_id}", filenames=tuple(names))


def generate_classes(
    profiles: list[SynthProfile], instances: int, seed: int
) -> Dataset:
    """One dataset holding `instances` traces per profile, grouped by class."""
    traces, names = [], []
    for profile in profiles:
        dataset = generate(profile, instances, seed)
        traces.extend(dataset.traces)
        names.extend(dataset.filenames)
    return Dataset(tuple(traces), name="synth", filenames=tuple(names))


def separable_profiles(
    num_classes: int,
    base_total: int = 150,
    step: int = 3,
    upload_fraction: float = 0.2,
    jitter: float = 0.01,
) -> list[SynthProfile]:
    """Volume-separable class family used for evaluator sanity checks.

    Classes get disjoint total volumes (base_total + step*i) and slightly
    staggered second surges. The steps are kept small so that count-based
    regularization collapses the classes while an undefended classifier
    still separates them cleanly.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    profiles = []
    for i in range(num_classes):
        total = base_total + step * i
        first = max(1, (total * 3) // 5)
        profiles.append(
            SynthProfile(
                class_id=str(i),
                surge_sizes=(first, max(1, total - first)),
                surge_times=(0.0, 1.0 + 0.04 * i),
                upload_fraction=upload_fraction,
                jitter=jitter,
            )
        )
    return profiles
