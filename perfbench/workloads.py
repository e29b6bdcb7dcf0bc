"""The four benchmark workloads, built from a seed through the public API.

Each workload replays one pre-generated open-loop Poisson request stream
(arrival times are fixed in simulated time and never wait on the
simulator) through ``StorageSystem.run``, one simulation at a time in one
process.  Every run starts with an empty cache and every disk
spinning-idle at t=0.  Sizes, rates and configs are listed in NOTES.md.

Library entry points are looked up on their modules at call time
(``generator.generate_workload``, ``runner.allocate``) so the traced run
can wrap them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.system import runner
from repro.system.config import StorageConfig
from repro.system.storage import StorageSystem
from repro.units import GiB, MB
from repro.workload import generator, mixed


@dataclass
class Inputs:
    """One workload instance: what ``StorageSystem.run`` is handed."""

    catalog: Any
    stream: Any
    mapping: np.ndarray
    config: StorageConfig
    #: Builds a fresh observer per run (``None``: unobserved runs).
    observer: Optional[Callable[[], Any]] = None

    def run(self, **overrides):
        """Build a fresh system and replay the stream once.

        A fresh ``StorageSystem`` per run: the event engine's environment
        lives on the system and cannot be replayed twice.
        """
        config = self.config.with_overrides(**overrides) if overrides else self.config
        observer = self.observer() if self.observer is not None else None
        system = StorageSystem(self.catalog, self.mapping, config)
        return system.run(self.stream, observer=observer)


def _paper_readonly(seed: int) -> Inputs:
    wl = generator.generate_workload(
        generator.SyntheticWorkloadParams(
            n_files=40_000, arrival_rate=8.0, duration=400_000.0, seed=seed
        )
    )
    config = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    alloc = runner.allocate(wl.catalog, "pack", config, 8.0)
    return Inputs(wl.catalog, wl.stream, alloc.mapping(wl.catalog.n), config)


def _slo_control(seed: int) -> Inputs:
    duration = 40_000.0
    wl = generator.generate_workload(
        generator.SyntheticWorkloadParams(
            n_files=20_000, arrival_rate=4.0, duration=duration,
            s_min=20 * MB, s_max=500 * MB, seed=seed,
        )
    )
    config = StorageConfig(
        num_disks=100,
        engine="fast",
        dpm_ladder="drpm4",
        dpm_policy="slo_feedback",
        slo_target=12.0,
        control_interval=duration / 100,
        scheduler="slack_defer",
        metrics_mode="streaming",
        chunk_size=65_536,
    )
    alloc = runner.allocate(wl.catalog, "round_robin", config, 4.0, num_disks=100)
    return Inputs(wl.catalog, wl.stream, alloc.mapping(wl.catalog.n), config)


def _cached_mixed(seed: int, engine: str) -> Inputs:
    duration = 8_000.0
    base = generator.generate_workload(
        generator.SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=20.0, duration=duration,
            s_min=20 * MB, s_max=500 * MB, seed=seed,
        )
    )
    catalog, stream = mixed.generate_mixed_workload(
        base.catalog,
        mixed.MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3, arrival_rate=20.0,
            duration=duration, seed=seed + 1,
        ),
    )
    config = StorageConfig(
        num_disks=100,
        load_constraint=0.7,
        fleet="mixed_generation",
        write_policy="cheapest_spinning",
        cache_policy="lru",
        cache_capacity=16 * GiB,
        engine=engine,
    )
    alloc = runner.allocate(base.catalog, "pack", config, 20.0)
    # New-file writes enter unmapped; the dispatcher places them online.
    mapping = np.concatenate(
        [
            alloc.mapping(base.catalog.n),
            np.full(catalog.n - base.catalog.n, -1, dtype=np.int64),
        ]
    )
    return Inputs(catalog, stream, mapping, config, obs_trace.TraceRecorder)


#: Workload name -> function making its inputs from a seed.  Why each was
#: chosen is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS: Dict[str, Callable[[int], Inputs]] = {
    "paper_readonly": _paper_readonly,
    "slo_control": _slo_control,
    "cached_mixed_fleet": lambda seed: _cached_mixed(seed, "fast"),
    "event_cached_mixed": lambda seed: _cached_mixed(seed, "event"),
}
