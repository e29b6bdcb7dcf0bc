"""Output checks run on every simulation the benchmark makes.

Each check returns a list of failure messages (empty when the outputs
hold); a run with any failure counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List

import numpy as np

from repro.disk.power import DiskState

#: Relative slack for float sums checked against exact products.
_REL = 1e-9


def state_label(state) -> str:
    return state.name.lower() if isinstance(state, DiskState) else str(state)


def fingerprint(result) -> str:
    """Digest of every modelled output of a run, bit for bit."""
    h = hashlib.sha256()

    def put(value) -> None:
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")

    for value in (
        result.energy, result.duration, result.arrivals, result.completions,
        result.spinups, result.spindowns, result.always_on_energy,
        result.energy_per_disk, result.requests_per_disk,
        result.spinups_per_disk, result.final_mapping,
        result.response_times, result.response_stats, result.cache_stats,
    ):
        put(value)
    put(sorted((state_label(k), v) for k, v in result.state_durations.items()))
    put(json.dumps(result.extra.get("dpm"), sort_keys=True))
    return h.hexdigest()


def _power_envelope(config, num_disks: int):
    """Per-disk (lowest, highest) draw over every state the drive can be in."""
    if config.fleet is not None:
        specs = config.resolved_fleet(num_disks).specs
    else:
        specs = [config.spec] * num_disks
    ladder = config.ladder()
    lo = np.empty(num_disks)
    hi = np.empty(num_disks)
    for d, spec in enumerate(specs):
        powers = [
            spec.idle_power, spec.standby_power, spec.active_power,
            spec.seek_power, spec.spinup_power, spec.spindown_power,
        ]
        if ladder is not None:
            powers.extend(ladder.power_table(spec).values())
        lo[d] = min(powers)
        hi[d] = max(powers)
    return lo, hi


def check_outputs(result, inputs) -> List[str]:
    """Conservation laws every run must satisfy."""
    failures = []
    horizon = result.duration
    n = result.num_disks
    pool_time = sum(result.state_durations.values())
    if not math.isclose(pool_time, n * horizon, rel_tol=_REL):
        failures.append(
            f"state residencies sum to {pool_time!r}, not "
            f"{n} disks x {horizon!r} s"
        )
    lo, hi = _power_envelope(inputs.config, n)
    energy = np.asarray(result.energy_per_disk, dtype=float)
    outside = np.flatnonzero(
        (energy < lo * horizon * (1 - _REL)) | (energy > hi * horizon * (1 + _REL))
    )
    if outside.size:
        d = int(outside[0])
        failures.append(
            f"disk {d} energy {energy[d]!r} J outside "
            f"[{lo[d] * horizon!r}, {hi[d] * horizon!r}] J "
            f"({outside.size} disks outside)"
        )
    if not math.isclose(float(energy.sum()), result.energy, rel_tol=_REL):
        failures.append("per-disk energy does not sum to the total")
    before = int(np.count_nonzero(np.asarray(inputs.stream.times) < horizon))
    if not result.completions <= result.arrivals <= before:
        failures.append(
            f"completions {result.completions} <= arrivals {result.arrivals} "
            f"<= requests before the horizon {before} does not hold"
        )
    if result.response_times is not None and (
        result.response_times.size != result.completions
    ):
        failures.append("response array length differs from completions")
    return failures


def check_same_trajectory(timed, full) -> List[str]:
    """A streaming run against its full-metrics replay: identical physics."""
    failures = []
    for field in ("energy", "spinups", "spindowns", "arrivals", "completions"):
        a, b = getattr(timed, field), getattr(full, field)
        if a != b:
            failures.append(f"full-metrics replay {field} {b!r} != {a!r}")
    if timed.response_stats.count != full.completions:
        failures.append("streaming response count != full-run completions")
    return failures


def check_engines_agree(event, fast) -> List[str]:
    """The event engine against the fast kernel on identical inputs."""
    failures = []
    for field in ("energy", "mean_response"):
        a, b = getattr(event, field), getattr(fast, field)
        if not math.isclose(a, b, rel_tol=1e-6):
            failures.append(f"fast-engine {field} {b!r} vs event {a!r}")
    for field in ("spinups", "completions"):
        a, b = getattr(event, field), getattr(fast, field)
        if a != b:
            failures.append(f"fast-engine {field} {b} != event {a}")
    if event.cache_stats.hits != fast.cache_stats.hits:
        failures.append(
            f"fast-engine cache hits {fast.cache_stats.hits} != "
            f"event {event.cache_stats.hits}"
        )
    return failures
