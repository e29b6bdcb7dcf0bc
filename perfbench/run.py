"""Repository benchmark: simulator speed and the modelled power/response
trade-off on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_readonly --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  Human-readable lines go to
stdout first; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts simulation runs; a run that raises or fails an output
check (``checks.py``) counts as failed.  Workloads are defined in
``workloads.py`` and described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Timed set-ups follow one untimed warm-up: at least SETUP_REPEATS, and
#: more until SETUP_SECONDS have passed; setup_s is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
#: Fewest timed simulation repeats per run, however long each takes.
MIN_REPEATS = 2
#: Seconds ``calibration_seconds`` takes on the reference host.  Shared
#: hosts drift in speed by up to 2x over tens of seconds, and a fixed
#: kernel drifts with the simulator, so each host time is scaled to the
#: reference speed by the calibration timed around it.  Changing the
#: kernel or this constant re-bases every host metric.
CAL_REFERENCE_S = 0.1


class Ledger:
    """Simulation runs attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def calibration_seconds() -> float:
    """Time a fixed mix of interpreter and NumPy work like the simulator's:
    a float loop with heap and dict traffic, then sorts and scans of a
    2 MiB array.  Small in memory, so it barely moves ``peak_rss_mb``, and
    independent of ``src/``."""
    import numpy as np

    t0 = perf_counter()
    acc = 0.0
    heap: list = []
    recent: dict = {}
    for i in range(200_000):
        x = (i * 0.6180339887498949) % 1.0
        acc += x
        if x < 0.3:
            heapq.heappush(heap, (x, i))
        elif heap and x > 0.9:
            heapq.heappop(heap)
        recent[i & 4095] = acc
    values = np.random.default_rng(0).random(262_144)
    for _ in range(4):
        np.sort(values)
        np.cumsum(values)
    return perf_counter() - t0


def _calibrated(step, min_repeats: int, seconds: float):
    """Call ``step`` at least ``min_repeats`` times and until ``seconds``
    have passed.  ``step`` returns the seconds it timed, or ``None`` when
    it failed.  Returns a (seconds, calibration) pair per good step; the
    calibration is the mean of those timed just before and after it."""
    samples = []
    calls = 0
    calibration_seconds()  # warm-up
    before = calibration_seconds()
    deadline = perf_counter() + seconds
    while calls < min_repeats or perf_counter() < deadline:
        calls += 1
        elapsed = step()
        after = calibration_seconds()
        if elapsed is not None:
            samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


def _at_reference_speed(samples):
    """Seconds scaled to the reference host (see CAL_REFERENCE_S)."""
    return [t * CAL_REFERENCE_S / cal for t, cal in samples]


def _exact_percentiles(responses):
    import numpy as np

    return [float(v) for v in np.percentile(responses, (50.0, 95.0, 99.0))]


class Session:
    """One benchmark invocation: a workload, a seed, a time budget."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from workloads import WORKLOADS

        self.workload = workload
        self.build = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.ledger = Ledger()
        self.reference = None  # fingerprint every plain repeat must match

    def setup(self):
        from repro.system.storage import StorageSystem

        inputs = self.build(self.seed)
        # Construction counts as set-up; every run builds its own system.
        StorageSystem(inputs.catalog, inputs.mapping, inputs.config)
        return inputs

    def timed_setups(self):
        """One warm-up set-up, then timed ones (see SETUP_REPEATS).

        Returns the last inputs and the (seconds, calibration) samples.
        """
        inputs = self.setup()

        def step():
            nonlocal inputs
            inputs = None  # one instance alive at a time
            gc.collect()
            t0 = perf_counter()
            inputs = self.setup()
            return perf_counter() - t0

        samples = _calibrated(step, SETUP_REPEATS, SETUP_SECONDS)
        return inputs, samples

    def simulate(self, inputs, label: str, compare=None, **overrides):
        """Run once and check the outputs; only ``inputs.run`` is timed.

        Runs with ``overrides`` are replays under another engine or metrics
        mode: ``compare`` checks them against the timed result instead of
        the bit-for-bit fingerprint every plain repeat must match.
        Returns ``(result, seconds)``, or ``(None, None)`` if the run raised.
        """
        from checks import check_outputs, fingerprint

        gc.collect()
        try:
            t0 = perf_counter()
            result = inputs.run(**overrides)
            elapsed = perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.ledger.record(label, ["raised"])
            return None, None
        problems = check_outputs(result, inputs)
        if compare is not None:
            problems += compare(result)
        else:
            digest = fingerprint(result)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("modelled outputs differ from the first run")
        self.ledger.record(label, problems)
        return result, elapsed

    def timed_runs(self, inputs):
        """A warm-up, then repeats until ``seconds`` have passed.

        Returns the last good result and the (seconds, calibration) samples
        of the good repeats (``None, []`` when none succeeded).
        """
        result, _ = self.simulate(inputs, "warm-up")
        attempts = 0

        def step():
            nonlocal result, attempts
            attempts += 1
            r, elapsed = self.simulate(inputs, f"repeat {attempts}")
            if r is not None:
                result = r
            return elapsed

        samples = _calibrated(step, MIN_REPEATS, self.seconds)
        return (result, samples) if samples else (None, [])

    def cross_check(self, inputs, result):
        """The workload's independent replay; returns exact p50/p95/p99."""
        from checks import check_engines_agree, check_same_trajectory

        if inputs.config.engine == "event":
            self.simulate(
                inputs, "fast-engine replay", engine="fast",
                compare=lambda fast: check_engines_agree(result, fast),
            )
        elif result.response_times is None:
            full, _ = self.simulate(
                inputs, "full-metrics replay", metrics_mode="full",
                compare=lambda full: check_same_trajectory(result, full),
            )
            if full is None:
                return [math.nan] * 3
            return _exact_percentiles(full.response_times)
        return _exact_percentiles(result.response_times)


def end_to_end(session):
    inputs, setup_samples = session.timed_setups()
    result, run_samples = session.timed_runs(inputs)
    if result is None:
        return None, []
    p50, p95, p99 = session.cross_check(inputs, result)
    beyond = "n/a (streaming metrics)"
    if result.response_times is not None:
        beyond = int((result.response_times > p99).sum())
    raw_run = statistics.median(t for t, _ in run_samples)
    metrics = {
        "requests_per_s": statistics.median(
            result.arrivals / t for t in _at_reference_speed(run_samples)
        ),
        "setup_s": statistics.median(_at_reference_speed(setup_samples)),
        # This process is fresh per run and ran only this workload.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_power_w": result.mean_power,
        "mean_response_s": result.mean_response,
        "p95_response_s": p95,
        "p99_response_s": p99,
        "completion_ratio": result.completion_ratio,
        "spin_transitions": result.spinups + result.spindowns,
    }
    cals = [c for _, c in run_samples + setup_samples]
    notes = [
        f"requests_per_s: {result.arrivals} arrivals per run, median of "
        f"{len(run_samples)} warmed runs; raw host median "
        f"{result.arrivals / raw_run:.6g} req/s",
        f"setup_s: median of {len(setup_samples)} after a warm-up; raw host "
        f"median {statistics.median(t for t, _ in setup_samples):.4f} s",
        f"calibration median {statistics.median(cals):.4f} s here against "
        f"{CAL_REFERENCE_S} s on the reference host",
        f"exact p50 {p50!r} s; responses beyond p99: {beyond}",
    ]
    return metrics, notes


def per_layer(session):
    from checks import state_label
    from layers import Tracer, traced
    from repro.obs.trace import write_trace

    warm = session.setup()
    tracer = Tracer()
    with traced(tracer, warm.config):
        inputs = session.setup()
    del warm
    result, samples = session.timed_runs(inputs)
    if result is None:
        return None, []
    exact = session.cross_check(inputs, result)
    with traced(tracer, inputs.config):
        traced_result, traced_s = session.simulate(inputs, "traced run")
    if traced_result is None:
        return None, []
    path = write_trace(
        tracer.chrome_trace(),
        ROOT / ".perfbench" / f"trace_{session.workload}_{session.seed}.json",
    )

    reported = [result.response_percentile(q) for q in (50.0, 95.0, 99.0)]
    dpm = traced_result.extra.get("dpm")
    states = {}
    for k, v in traced_result.state_durations.items():
        states[state_label(k)] = states.get(state_label(k), 0.0) + v
    pool_time = traced_result.num_disks * traced_result.duration
    stats = traced_result.cache_stats
    total, own, calls = tracer.total, tracer.own, tracer.calls
    releases = calls["system.scheduling.release"]
    untraced_s = statistics.median(t for t, _ in samples)
    metrics = {
        "workload.generate_s": total["workload.generate"],
        "core.allocate_s": total["core.allocate"],
        "system.storage.self_s": own["system.storage"],
        "sim.fastkernel.self_s": own["sim.fastkernel"],
        "control.advance_s": total["control.advance"],
        "control.advance_calls": calls["control.advance"],
        "control.policy_update_s": total["control.policy_update"],
        "control.p95_estimate_error": (
            abs(dpm["p95_running"][-1] - exact[1]) / exact[1] if dpm else 0.0
        ),
        "system.scheduling.setup_s": total["system.scheduling.setup"],
        "system.scheduling.release_s": total["system.scheduling.release"],
        "system.scheduling.release_calls": releases,
        "system.scheduling.held_fraction": (
            tracer.held / releases if releases else 0.0
        ),
        "system.metrics.accumulate_s": total["system.metrics.accumulate"],
        "system.metrics.accumulate_calls": calls["system.metrics.accumulate"],
        "system.metrics.quantile_rel_error": max(
            abs(r - e) / e for r, e in zip(reported, exact)
        ),
        "cache.lookup_s": total["cache.lookup"],
        "cache.admit_s": total["cache.admit"],
        "cache.lookups": stats.lookups if stats else 0,
        "cache.evictions": stats.evictions if stats else 0,
        "cache.hit_ratio": stats.hit_ratio if stats else 0.0,
        "placement.choose_s": total["placement.choose"],
        "placement.choose_calls": calls["placement.choose"],
        "obs.hook_s": total["obs.hook"],
        "obs.hook_calls": calls["obs.hook"],
        "obs.snapshot_s": total["obs.snapshot"],
        "sim.environment.self_s": own["sim.environment"],
        "sim.environment.events": calls["sim.environment.events"],
        "system.dispatcher.submit_s": total["system.dispatcher.submit"],
        "system.dispatcher.submit_calls": calls["system.dispatcher.submit"],
        "disk.busy_fraction": (states.get("seek", 0.0) + states.get("active", 0.0))
        / pool_time,
        "disk.standby_fraction": states.get("standby", 0.0) / pool_time,
        "disk.spinups": traced_result.spinups,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    notes = [
        f"traced run {traced_s:.4f} s against an untraced median of "
        f"{untraced_s:.4f} s over {len(samples)} runs",
        f"exact p50/p95/p99 {exact}; program reported {reported}",
        f"chrome trace: {path.relative_to(ROOT)}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    session = Session(args.workload, args.seed, args.seconds)
    measured, notes = (per_layer if args.trace else end_to_end)(session)
    if measured is None:
        print("error: no successful simulation run to measure", file=sys.stderr)
        return 1

    ledger = session.ledger
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}")
    for m in wanted:
        value = float(measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:34s} {value:.6g} {m['unit']}")
    for line in notes:
        print(f"  note: {line}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    correct = not ledger.failures and all(
        math.isfinite(v["value"]) for v in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
