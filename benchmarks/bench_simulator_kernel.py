"""Bench: the discrete-event kernel and drive substrate throughput.

Not a paper figure — these establish that the simulation substrate is fast
enough for the full-scale experiments (hundreds of thousands of events per
second) and guard against regressions.  The largest cases pit the batched
fast kernel (``engine="fast"``) against the event kernel — on a Figure 2/4
style read-only scenario (>= 3x enforced) and on a shared-cache mixed
read/write scenario through the global-merge path (>= 5x enforced) — and
the sweep case drives a grid through the orchestrator's caching.
"""

import math
import time

import numpy as np
import pytest

from repro.disk import DiskDrive, ST3500630AS
from repro.experiments.orchestrator import SimTask, SweepRunner
from repro.sim import Environment
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB, MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload


def test_event_loop_throughput(benchmark):
    """Ping-pong processes: ~100k event dispatches."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ticker(env, 5_000))
        env.run()
        return env.now

    assert benchmark(run) == 5_000.0


def test_drive_request_throughput(benchmark):
    """One drive serving 5k requests with idle gaps and spin cycles."""
    rng = np.random.default_rng(2)
    gaps = rng.exponential(10.0, size=5_000)

    def run():
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=20.0)

        def feeder(env):
            for gap in gaps:
                yield env.timeout(gap)
                drive.submit(0, 36 * MB)

        env.process(feeder(env))
        env.run()
        return drive.stats.completions

    assert benchmark(run) == 5_000


def test_fast_engine_speedup(scale, capsys):
    """Largest case: both kernels on a Fig 2/4-style run; fast must win 3x."""
    params = SyntheticWorkloadParams(
        n_files=8_000,
        arrival_rate=8.0,
        duration=max(600.0, 4_000.0 * scale),
        seed=7,
    )
    workload = generate_workload(params)
    cfg = StorageConfig(num_disks=100, load_constraint=0.7)
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run_engine(engine):
        system = StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        )
        return system.run(workload.stream)

    def timed(engine, rounds):
        best = math.inf
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = run_engine(engine)
            best = min(best, time.perf_counter() - t0)
        return result, best

    # Best-of-N so a scheduling hiccup on a shared CI runner cannot flip
    # the speedup assertion (the fast run is only milliseconds long).
    event, event_s = timed("event", rounds=2)
    fast, fast_s = timed("fast", rounds=5)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.mean_response == pytest.approx(event.mean_response, rel=1e-6)
    assert fast.spinups == event.spinups
    assert fast.completions == event.completions
    with capsys.disabled():
        print(
            f"\n[kernel] {len(workload.stream)} requests: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 3.0 * fast_s


def test_fast_engine_speedup_cached_mixed(scale, capsys):
    """The global-merge path: cache + writes; fast must win 5x."""
    base = generate_workload(
        SyntheticWorkloadParams(
            n_files=4_000,
            arrival_rate=6.0,
            duration=max(600.0, 4_000.0 * scale),
            seed=7,
        )
    )
    catalog, stream = generate_mixed_workload(
        base.catalog,
        MixedWorkloadParams(
            write_fraction=0.2,
            new_file_fraction=0.3,
            arrival_rate=8.0,
            duration=max(600.0, 4_000.0 * scale),
            seed=11,
        ),
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.7,
        cache_policy="lru",
        cache_capacity=16 * GiB,
    )
    alloc = allocate(base.catalog, "pack", cfg, 8.0)
    mapping = np.concatenate(
        [
            alloc.mapping(base.catalog.n),
            np.full(catalog.n - base.catalog.n, -1, dtype=np.int64),
        ]
    )

    def run_engine(engine):
        system = StorageSystem(catalog, mapping, cfg.with_overrides(engine=engine))
        return system.run(stream)

    def timed(engine, rounds):
        best = math.inf
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = run_engine(engine)
            best = min(best, time.perf_counter() - t0)
        return result, best

    event, event_s = timed("event", rounds=2)
    fast, fast_s = timed("fast", rounds=5)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.mean_response == pytest.approx(event.mean_response, rel=1e-6)
    assert fast.spinups == event.spinups
    assert fast.completions == event.completions
    assert fast.cache_stats.hits == event.cache_stats.hits
    assert fast.cache_stats.hit_ratio == pytest.approx(
        event.cache_stats.hit_ratio, rel=1e-9
    )
    with capsys.disabled():
        print(
            f"\n[kernel/cached-mixed] {len(stream)} requests "
            f"(hit ratio {event.cache_stats.hit_ratio:.3f}): "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


def test_orchestrated_sweep_throughput(scale, capsys):
    """A rate x load grid through the SweepRunner: cold pass vs cached."""
    cfg = StorageConfig(num_disks=100)
    tasks = [
        SimTask(
            label=f"pack R={rate:g} L={load:g}",
            workload=SyntheticWorkloadParams(
                n_files=2_000,
                arrival_rate=rate,
                duration=max(300.0, 2_000.0 * scale),
                seed=11,
            ),
            config=cfg.with_overrides(load_constraint=load),
            policy="pack",
            arrival_rate=rate,
            num_disks=100,
            key=(rate, load),
        )
        for rate in (2.0, 6.0)
        for load in (0.5, 0.7, 0.9)
    ]
    runner = SweepRunner(max_workers=1, engine="fast")
    t0 = time.perf_counter()
    cold = runner.run_map(tasks)
    t1 = time.perf_counter()
    runner.run_map(tasks)
    t2 = time.perf_counter()

    assert runner.stats.executed == len(tasks)
    assert runner.stats.cached == len(tasks)
    assert all(r.completions > 0 for r in cold.values())
    with capsys.disabled():
        print(
            f"\n[sweep] {len(tasks)} points: cold {t1 - t0:.2f}s, "
            f"cached {t2 - t1:.4f}s"
        )
    assert t2 - t1 < t1 - t0
