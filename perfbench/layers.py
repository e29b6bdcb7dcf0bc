"""Outside-in layer tracing: wrap each layer's public entry points.

Nothing in the library changes.  For the traced run the benchmark swaps
the callables each layer is reached through for timing wrappers, in the
namespace the caller looks them up in (``repro.system.storage`` imports
``simulate_fast`` by name, so that is where it is wrapped) or on the
class whose bound methods the kernels hoist at run start.  Wrappers are
installed before ``run()`` and restored afterwards.

A layer's self time is its span's duration minus the time covered by the
spans it encloses, computed with a span stack.  Spans stay in memory and
are written once, as a Chrome trace, when the benchmark ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.cache.base import make_cache
from repro.control.controller import ThresholdController
from repro.control.policies import make_dpm_policy
from repro.obs.trace import TraceRecorder
from repro.sim.environment import Environment
from repro.system import runner, storage
from repro.system.dispatcher import Dispatcher
from repro.system.metrics import ResponseAccumulator
from repro.workload import generator, mixed

#: Spans kept per layer for the Chrome trace; totals count every call.
SPANS_PER_LAYER = 2_000

_OBS_HOOKS = ("on_state_span", "on_cache_event", "on_thresholds", "on_placement")


class Tracer:
    """Span stack plus per-layer totals (inclusive and self seconds, calls)."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.held = 0
        self.spans: List[Tuple[str, float, float, str]] = []
        self._stack: List[List[Any]] = []
        self._origin = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, total, own, calls = self._stack, self.total, self.own, self.calls
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                total[name] += dur
                own[name] += dur - frame[1]
                calls[name] += 1
                if calls[name] <= SPANS_PER_LAYER:
                    parent = stack[-1][0] if stack else ""
                    spans.append((name, start, dur, parent))

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Count calls without a span (per-event hot paths)."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def release_counter(self, fn: Callable) -> Callable:
        """Count scheduler releases later than the request's arrival."""

        @functools.wraps(fn)
        def release(sched, t, *args, **kwargs):
            r = fn(sched, t, *args, **kwargs)
            if r > t:
                self.held += 1
            return r

        return release

    def chrome_trace(self) -> Dict[str, Any]:
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - self._origin) * 1e6, "dur": dur * 1e6,
                "args": {"parent": parent},
            }
            for name, start, dur, parent in self.spans
        ]
        events.append({
            "name": "layer totals", "ph": "i", "pid": 0, "tid": 0, "ts": 0,
            "s": "g",
            "args": {
                name: {"total_s": self.total[name], "self_s": self.own[name],
                       "calls": self.calls[name]}
                for name in sorted(self.calls)
            },
        })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _targets(config) -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer) for every entry point this config reaches."""
    targets = [
        (generator, "generate_workload", "workload.generate"),
        (mixed, "generate_mixed_workload", "workload.generate"),
        (runner, "allocate", "core.allocate"),
        (storage.StorageSystem, "run", "system.storage"),
        (storage, "simulate_fast", "sim.fastkernel"),
        (storage, "simulate_fast_chunked", "sim.fastkernel"),
        (storage, "build_scheduling_setup", "system.scheduling.setup"),
        (storage, "observability_snapshot", "obs.snapshot"),
        (ThresholdController, "advance", "control.advance"),
        (ThresholdController, "finalize", "control.advance"),
        (ResponseAccumulator, "add", "system.metrics.accumulate"),
        (ResponseAccumulator, "result", "system.metrics.accumulate"),
        (Environment, "run", "sim.environment"),
        (Dispatcher, "submit", "system.dispatcher.submit"),
    ]
    targets += [(TraceRecorder, hook, "obs.hook") for hook in _OBS_HOOKS]
    policy = make_dpm_policy(config.dpm_policy)
    targets.append((type(policy), "update", "control.policy_update"))
    scheduler = config.request_scheduler()
    if scheduler is not None:
        targets.append((type(scheduler), "release", "system.scheduling.release"))
    if config.cache_policy:
        cache = type(make_cache(config.cache_policy, config.cache_capacity))
        targets += [(cache, "lookup", "cache.lookup"), (cache, "admit", "cache.admit")]
    targets.append((type(config.placement_policy()), "choose", "placement.choose"))
    return targets


@contextmanager
def traced(tracer: Tracer, config):
    """Install the wrappers for ``config``'s layers; restore on exit."""
    saved = []

    def swap(owner, attr, make):
        own = attr in vars(owner)
        original = getattr(owner, attr)
        saved.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    def make(layer):
        def wrapped(fn):
            if layer == "system.scheduling.release":
                fn = tracer.release_counter(fn)
            return tracer.wrap(layer, fn)

        return wrapped

    try:
        for owner, attr, layer in _targets(config):
            swap(owner, attr, make(layer))
        swap(Environment, "step", functools.partial(
            tracer.count, "sim.environment.events"))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
