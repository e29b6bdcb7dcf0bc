"""The complete storage system: environment + array + cache + dispatcher."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.base import make_cache
from repro.control.controller import EventControlLoop
from repro.disk.array import DiskArray
from repro.disk.power import DiskState
from repro.errors import ConfigError
from repro.obs.hooks import active_observer
from repro.obs.metrics import observability_snapshot
from repro.sim.environment import Environment
from repro.sim.fastkernel import (
    fast_unsupported_reason,
    simulate_fast,
    simulate_fast_chunked,
)
from repro.system.config import StorageConfig
from repro.system.dispatcher import (
    Dispatcher,
    drive_scheduled_stream,
    drive_stream,
)
from repro.system.metrics import ResponseAccumulator, SimulationResult
from repro.system.scheduling import build_scheduling_setup
from repro.workload.catalog import FileCatalog
from repro.workload.chunked import with_file_id_check

__all__ = ["StorageSystem"]


def _state_label(state) -> str:
    """Normalize a timeline state to the observer's span vocabulary:
    lowercase power-state names for :class:`DiskState`, ladder timeline
    labels (rung names, ``down:``/``wake:`` transitions) unchanged."""
    return state.name.lower() if isinstance(state, DiskState) else str(state)


class _SpanLabels(dict):
    """``state -> _state_label(state)``, computed once per distinct state."""

    def __missing__(self, state) -> str:
        label = self[state] = _state_label(state)
        return label


def _emit_timeline_spans(observer, drives, horizon: float) -> None:
    """Walk each drive's recorded timeline history, emitting one
    ``on_state_span`` per dwell (the final open dwell closes at the
    horizon) — the event engine's full per-request granularity."""
    labels = _SpanLabels()
    on_state_span = observer.on_state_span
    for d, drive in enumerate(drives):
        history = drive.timeline.history
        if not history:
            continue
        for (t0, state), (t1, _next) in zip(history, history[1:]):
            if t1 > t0:
                on_state_span(d, labels[state], t0, t1)
        t_last, s_last = history[-1]
        if horizon > t_last:
            on_state_span(d, labels[s_last], t_last, horizon)


class StorageSystem:
    """One simulatable storage system instance.

    Builds a fresh :class:`~repro.sim.environment.Environment` so every run
    is independent and reproducible.  The event-kernel machinery
    (environment, drive processes, dispatcher) is constructed lazily on
    first access, so ``engine="fast"`` runs skip it entirely — for large
    pools its construction would otherwise dominate the fast kernel's
    wall time.

    Parameters
    ----------
    catalog:
        The file population.
    mapping:
        Dense ``file_id -> disk`` array (from
        :meth:`repro.core.allocation.Allocation.mapping`).
    config:
        System parameters.
    num_disks:
        Pool size override; defaults to ``max(config.num_disks,
        disks referenced by the mapping)``.
    """

    def __init__(
        self,
        catalog: FileCatalog,
        mapping: np.ndarray,
        config: StorageConfig = StorageConfig(),
        num_disks: Optional[int] = None,
    ) -> None:
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape[0] != catalog.n:
            raise ConfigError(
                f"mapping covers {mapping.shape[0]} files, catalog has "
                f"{catalog.n}"
            )
        highest = int(mapping.max()) + 1 if mapping.size else 0
        if num_disks is None:
            num_disks = max(config.num_disks, highest)
        elif num_disks < highest:
            raise ConfigError(
                f"num_disks={num_disks} but the mapping references disk "
                f"{highest - 1}"
            )
        self.catalog = catalog
        self.config = config
        self.num_disks = num_disks
        self._mapping = mapping
        self._env: Optional[Environment] = None
        self._array: Optional[DiskArray] = None
        self._dispatcher: Optional[Dispatcher] = None

    # -- lazily built event-kernel machinery ------------------------------------

    def _build_event_machinery(self) -> None:
        self._env = Environment()
        fleet = (
            self.config.resolved_fleet(self.num_disks)
            if self.config.fleet is not None
            else None
        )
        self._array = DiskArray(
            self._env,
            self.config.spec,
            self.num_disks,
            idleness_threshold=self.config.threshold,
            ladder=self.config.ladder(),
            fleet=fleet,
        )
        cache = (
            make_cache(self.config.cache_policy, self.config.cache_capacity)
            if self.config.cache_policy
            else None
        )
        self._dispatcher = Dispatcher(
            self._env,
            self._array,
            self._mapping,
            self.catalog.sizes,
            cache=cache,
            cache_hit_latency=self.config.cache_hit_latency,
            usable_capacity=(
                self.config.usable_capacities(self.num_disks)
                if fleet is not None
                else self.config.usable_capacity
            ),
            write_policy=self.config.placement_policy(),
        )

    @property
    def env(self) -> Environment:
        if self._env is None:
            self._build_event_machinery()
        return self._env

    @property
    def array(self) -> DiskArray:
        if self._array is None:
            self._build_event_machinery()
        return self._array

    @property
    def dispatcher(self) -> Dispatcher:
        if self._dispatcher is None:
            self._build_event_machinery()
        return self._dispatcher

    def run(
        self,
        stream,
        duration: Optional[float] = None,
        label: str = "run",
        observer=None,
    ) -> SimulationResult:
        """Replay ``stream`` and measure until ``duration`` (default: the
        stream's horizon).

        Requests still queued at the cutoff count as arrivals but not
        completions (their response time is not recorded), exactly like a
        fixed-length measurement window on a real system.

        With ``config.engine == "fast"`` the run is dispatched to the
        batched kernel (:mod:`repro.sim.fastkernel`), which covers write
        streams and shared caches as well as the read-only case; the one
        scenario it cannot express (a stream without dense arrays) raises
        :class:`~repro.errors.ConfigError`.

        A dynamic ``config.dpm_policy`` engages the online control loop
        (:mod:`repro.control`): the event engine spawns a control-boundary
        process adjusting per-drive thresholds, the fast kernel runs its
        interval-segmented recursion — both against the same controller
        semantics, with the per-interval traces attached to
        ``result.extra["dpm"]``.  The default ``"fixed"`` policy skips all
        of this and stays byte-identical to the fixed-threshold simulator.

        Out-of-core streams: a chunked stream (``.iter_chunks()``, no
        dense ``.times``) is dispatched to
        :func:`~repro.sim.fastkernel.simulate_fast_chunked` under
        ``engine="fast"`` and iterated request-by-request under
        ``engine="event"`` (correct, but the event kernel's own event
        queue is not memory-bounded).  Setting ``config.chunk_size`` on
        an array-backed stream runs the fast kernel through the
        equivalent chunked view — chiefly a differential/testing knob,
        since the arrays already exist.  ``config.metrics_mode=
        "streaming"`` replaces ``result.response_times`` with bounded
        :class:`~repro.system.metrics.ResponseStats` on both engines
        (on the event engine the stats are distilled post-hoc, for API
        parity only).

        ``observer`` (a :class:`repro.obs.hooks.RunObserver`) receives
        simulated-time events from either engine — disk state spans,
        cache hit/miss/admit/evict, threshold decisions, placements —
        and the run attaches a structured metrics snapshot to
        ``result.extra["obs"]``.  Observation is purely passive: an
        observed run is bit-identical to an unobserved one (enforced by
        the differential harness).  The observer is a ``run()`` argument
        rather than a config field because :class:`StorageConfig` is
        frozen and fingerprint-salted — observers must never influence
        cache keys.
        """
        obs = active_observer(observer)
        if duration is None:
            duration = stream.duration
        if duration <= 0:
            raise ConfigError("duration must be positive")
        stream = with_file_id_check(stream, self.catalog.n)
        if self.config.engine == "fast":
            reason = fast_unsupported_reason(self.config, stream)
            if reason is not None:
                raise ConfigError(
                    f"engine='fast' cannot simulate this scenario ({reason});"
                    " use engine='event'"
                )
            cache = (
                make_cache(self.config.cache_policy, self.config.cache_capacity)
                if self.config.cache_policy
                else None
            )
            if hasattr(stream, "times") and hasattr(stream, "file_ids"):
                if self.config.chunk_size is not None and hasattr(
                    stream, "chunks"
                ):
                    kernel = simulate_fast_chunked
                    run_stream = stream.chunks(self.config.chunk_size)
                else:
                    kernel = simulate_fast
                    run_stream = stream
            else:
                # Chunked-only stream: chunk_size is the producer's
                # concern (the stream already yields chunks).
                kernel = simulate_fast_chunked
                run_stream = stream
            fleet = (
                self.config.resolved_fleet(self.num_disks)
                if self.config.fleet is not None
                else None
            )
            scheduler = self.config.request_scheduler()
            if scheduler is not None:
                scheduler.reset(
                    build_scheduling_setup(
                        self.config,
                        self.catalog.sizes,
                        self._mapping,
                        self.num_disks,
                    )
                )
            result = kernel(
                sizes=self.catalog.sizes,
                mapping=self._mapping,
                spec=self.config.spec,
                num_disks=self.num_disks,
                threshold=self.config.threshold,
                stream=run_stream,
                duration=duration,
                label=label,
                cache=cache,
                cache_hit_latency=self.config.cache_hit_latency,
                usable_capacity=(
                    self.config.usable_capacities(self.num_disks)
                    if fleet is not None
                    else self.config.usable_capacity
                ),
                write_policy=self.config.placement_policy(),
                dpm=self.config.dpm_controller(self.num_disks),
                ladder=self.config.ladder(),
                metrics_mode=self.config.metrics_mode,
                fleet=fleet,
                observer=obs,
                scheduler=scheduler,
            )
            if obs is not None:
                result.extra["obs"] = observability_snapshot(result, obs)
            return result
        controller = self.config.dpm_controller(self.num_disks)
        if obs is not None:
            # Enable timeline history (purely additive — recording does
            # not perturb the simulation) so per-dwell state spans can be
            # replayed to the observer after the run, and install the
            # dispatcher/cache event taps.
            for drive in self.array.disks:
                drive.timeline.history = [
                    (self.env.now, drive.timeline.state)
                ]
            self.dispatcher.observer = obs
            if self.dispatcher.cache is not None:
                env = self.env
                self.dispatcher.cache.evict_hook = (
                    lambda f: obs.on_cache_event(env.now, "evict", f)
                )
        loop = None
        if controller is not None:
            loop = EventControlLoop(
                self.env, self.array.disks, self.dispatcher, controller,
                horizon=duration, observer=obs,
            )
            self.env.process(loop.run())
        scheduler = self.config.request_scheduler()
        if scheduler is not None:
            scheduler.reset(
                build_scheduling_setup(
                    self.config,
                    self.catalog.sizes,
                    self._mapping,
                    self.num_disks,
                )
            )
            self.env.process(
                drive_scheduled_stream(
                    self.env, self.dispatcher, stream, scheduler,
                    controller=controller,
                )
            )
        else:
            self.env.process(drive_stream(self.env, self.dispatcher, stream))
        self.env.run(until=duration)
        result = self.collect(label)
        if self.config.metrics_mode == "streaming":
            # API parity with the fast kernel: distill the dispatcher's
            # response log into bounded stats and drop the array.  (The
            # event kernel itself is not memory-bounded — use
            # engine="fast" for genuinely out-of-core runs.)
            acc = ResponseAccumulator()
            acc.add(np.asarray(result.response_times, dtype=float))
            result.response_stats = acc.result()
            result.response_times = None
        if loop is not None:
            loop.finalize()
            result.extra["dpm"] = controller.extra()
        if obs is not None:
            _emit_timeline_spans(obs, self.array.disks, float(duration))
            result.extra["obs"] = observability_snapshot(result, obs)
        return result

    def collect(self, label: str = "run") -> SimulationResult:
        """Snapshot all metrics at the current simulation time."""
        duration = self.env.now
        cache = self.dispatcher.cache
        return SimulationResult(
            algorithm=label,
            duration=duration,
            num_disks=len(self.array),
            energy=self.array.total_energy(),
            energy_per_disk=self.array.energy_per_disk(),
            state_durations=self.array.state_durations(),
            response_times=self.dispatcher.responses_array(),
            arrivals=self.dispatcher.arrivals,
            completions=self.dispatcher.completions,
            spinups=self.array.total_spinups(),
            spindowns=self.array.total_spindowns(),
            always_on_energy=self.array.always_on_energy(duration),
            cache_stats=cache.stats if cache is not None else None,
            requests_per_disk=self.array.requests_per_disk(),
            spinups_per_disk=np.array(
                [d.stats.spinups for d in self.array.disks], dtype=np.int64
            ),
            final_mapping=self.dispatcher.mapping.copy(),
        )
