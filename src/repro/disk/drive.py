"""The simulated disk drive: FIFO service, then a power ladder walked while idle.

Semantics (paper Figure 1, generalised per rung of a DPM ladder):

* While requests are queued the drive serves them FIFO, each one
  positioning (``seek``) then transferring (``active``).
* When the queue drains the drive parks in rung 0 (idle).  At each rung's
  (possibly control-scaled) entry time it starts a **non-abortable
  descent** into the next rung, billed at that rung's ``down_power`` for
  ``down_time`` seconds — Figure 1's spin-down, generalised per rung.
* A request arriving while the drive is parked in rung ``i`` (or
  mid-descent into it; the descent finishes first) pays the rung's
  ``wake_time``, billed at ``wake_power`` for exactly the configured wake
  time — no folded lump sums, so energy is conserved across every
  descent/ascent cycle.

A drive without a ladder runs the two-rung table of its spec
(:func:`repro.disk.dpm._two_rung_table`): idle, then spin-down (10 s) to
standby once the *idleness threshold* expires, left by the spin-up
(15 s) — the paper's drive as the simplest ladder.  It reports under the
classic :class:`~repro.disk.power.DiskState` names (``IDLE``,
``SPINDOWN``, ``STANDBY``, ``SPINUP``, ``SEEK``, ``ACTIVE``).  A ladder
drive (a :class:`~repro.disk.dpm.DpmLadder`: presets ``two_state``,
``nap``, ``drpm4``, or a user ladder) records ladder labels instead: rung
names while parked, ``down:<name>`` during descents, ``wake:<name>``
during wakes, plus ``seek``/``active`` while serving.  The fast kernel's
:class:`~repro.sim.fastkernel._Bank` runs the same recursion over the
same tables and uses the same labels; the ``two_state`` preset runs bit
for bit like a ladder-less drive.

The per-disk ``threshold`` is the first-descent threshold, consumed at
each queue drain; the online control loop (:mod:`repro.control`)
overwrites it.  Deeper entries scale by ``threshold / base_threshold``
(:meth:`~repro.disk.dpm.DpmLadder.scaled_entries`).  Energy is integrated
from the state timeline against each label's power.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Optional, Tuple, Union

from repro.disk.dpm import (
    _CLASSIC_STATES,
    DpmLadder,
    MultiStateDpmPolicy,
    _two_rung_entries,
    _two_rung_table,
)
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError, SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.monitor import StateTimeline

__all__ = ["DiskDrive", "DiskRequest", "DriveStats"]

READ = "read"
WRITE = "write"


def _first_of(env: Environment, wake: Event, timer: Event) -> Event:
    """An event that succeeds one hop after ``wake`` or ``timer`` fires.

    Whichever of the two is processed first schedules this event at the
    same instant, and the waiting drive resumes only when the loop
    reaches it.  That extra hop is load-bearing: when an arrival lands on
    the timer's instant but is queued behind it, the arrival is processed
    between the timer and this event, so the resumed drive sees the
    request and stays up.  Resuming straight from the timer's callback
    would spin it down.
    """
    gate = Event(env)

    def fire(_event: Event) -> None:
        if not gate.triggered:
            gate.succeed()

    wake.callbacks.append(fire)
    timer.callbacks.append(fire)
    return gate


class DiskRequest:
    """One I/O request travelling through a drive.

    Attributes
    ----------
    file_id:
        Identifier of the requested file (opaque to the drive).
    size:
        Bytes to transfer.
    arrival_time:
        Simulation time the request was submitted to the drive.
    done:
        Event succeeding with the response time (completion - arrival).
    kind:
        ``"read"`` or ``"write"`` (identical service).
    """

    __slots__ = ("file_id", "size", "arrival_time", "done", "kind")

    def __init__(
        self,
        env: Environment,
        file_id: int,
        size: float,
        kind: str = READ,
    ) -> None:
        self.file_id = file_id
        self.size = float(size)
        self.arrival_time = env.now
        self.done = Event(env)
        self.kind = kind


@dataclass
class DriveStats:
    """Counters for one drive."""

    arrivals: int = 0
    completions: int = 0
    spinups: int = 0
    spindowns: int = 0


class DiskDrive:
    """A single simulated drive bound to an environment.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Drive characteristics (timing + power).
    disk_id:
        Identifier used in results.
    idleness_threshold:
        Seconds of idleness before the first descent.  ``None`` uses the
        spec's break-even threshold (the paper's default policy), or the
        ladder's native first entry when a ladder is given; ``math.inf``
        disables spin-down entirely; ``0`` spins down immediately.
    ladder:
        Optional :class:`~repro.disk.dpm.DpmLadder`, or a
        :class:`~repro.disk.dpm.MultiStateDpmPolicy` (bridged via
        :meth:`DpmLadder.from_policy`).  ``None`` runs the spec's
        two-rung table under :class:`~repro.disk.power.DiskState` names.
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        disk_id: int = 0,
        idleness_threshold: Optional[float] = None,
        ladder: Union[None, DpmLadder, MultiStateDpmPolicy] = None,
    ) -> None:
        if isinstance(ladder, MultiStateDpmPolicy):
            ladder = DpmLadder.from_policy(ladder, spec)
        if ladder is None:
            rungs = _two_rung_table(spec)
            self._scale = _two_rung_entries
            label = _CLASSIC_STATES.__getitem__
            if idleness_threshold is None:
                idleness_threshold = spec.breakeven_threshold()
        else:
            rungs = ladder.rungs
            self._scale = ladder.scaled_entries
            label = str
            if idleness_threshold is None:
                idleness_threshold = ladder.base_threshold
        if not idleness_threshold >= 0:  # also rejects NaN
            raise ConfigError(
                f"idleness_threshold must be >= 0, got {idleness_threshold!r}"
            )
        self.env = env
        self.spec = spec
        self.ladder = ladder
        self.rungs = rungs
        self.disk_id = disk_id
        #: First-descent threshold; the control loop overwrites this and
        #: the value is consumed at the next queue drain (a gap already
        #: underway keeps the threshold it drained with).
        self.threshold = float(idleness_threshold)
        # Timeline labels per rung (index 0 of the transition lists is
        # never entered) and each label's draw.
        self._park: List[Hashable] = [label(r.name) for r in rungs]
        self._down: List[Hashable] = [None] + [
            label(f"down:{r.name}") for r in rungs[1:]
        ]
        self._wake_label: List[Hashable] = [None] + [
            label(f"wake:{r.name}") for r in rungs[1:]
        ]
        self._seek = label("seek")
        self._active = label("active")
        self._power: Dict[Hashable, float] = {
            self._seek: spec.seek_power,
            self._active: spec.active_power,
        }
        for i, r in enumerate(rungs):
            self._power[self._park[i]] = r.power
            if i:
                self._power[self._down[i]] = r.down_power
                self._power[self._wake_label[i]] = r.wake_power
        # The only label that reads as spun down (see :attr:`spinning`);
        # ``None`` for a one-rung ladder, which never spins down.
        self._deepest = self._park[-1] if len(rungs) > 1 else None
        self.timeline = StateTimeline(env, self._park[0])
        self.stats = DriveStats()
        self._pending: Deque[DiskRequest] = deque()
        self._wake: Optional[Event] = None
        #: Closed idle gaps in close order: ``(gap_seconds,
        #: threshold_at_drain)`` appended at the arrival that ends the gap.
        #: The control loop (:mod:`repro.control`) consumes this per
        #: interval; whether the gap spun the disk down is derivable
        #: (``gap > threshold``).  The fast kernel logs identical entries.
        #: Populated only while :attr:`log_gaps` is set — uncontrolled
        #: runs must not accumulate telemetry nothing reads.
        self.gap_log: List[Tuple[float, float]] = []
        #: Enable gap telemetry (set by the control loop at attach time).
        self.log_gaps: bool = False
        # The drive counts as drained from construction: its idleness
        # timer is armed at t=0, so the first arrival closes a gap that
        # began at creation time — like the fast kernel's avail=0 start.
        self._drain_time: Optional[float] = env.now
        self._drain_threshold: float = self.threshold
        self.process = env.process(self._run())

    # -- public API ------------------------------------------------------------

    @property
    def state(self) -> Hashable:
        """Current timeline label (a :class:`DiskState` without a ladder)."""
        return self.timeline.state

    @property
    def spinning(self) -> bool:
        """Whether the platters are (or are being brought) up to speed.

        Only a disk *parked in the deepest rung* counts as spun down —
        descents (like Figure 1's spin-down), intermediate reduced-RPM
        rungs and wakes all spin.  Read in one hop because write
        placement asks it of every drive.
        """
        return self.timeline.state is not self._deepest

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting or in service."""
        return len(self._pending)

    def submit(self, file_id: int, size: float, kind: str = READ) -> DiskRequest:
        """Enqueue a request; returns it (wait on ``request.done``)."""
        if size < 0:
            raise SimulationError("request size must be >= 0")
        if self._drain_time is not None:
            # First arrival since the queue drained: close the idle gap.
            if self.log_gaps:
                self.gap_log.append(
                    (self.env.now - self._drain_time, self._drain_threshold)
                )
            self._drain_time = None
        request = DiskRequest(self.env, file_id, size, kind)
        self._pending.append(request)
        self.stats.arrivals += 1
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        self._wake = None
        return request

    def state_durations(self) -> Dict[Hashable, float]:
        """Seconds spent per timeline label so far."""
        return self.timeline.durations()

    def energy(self) -> float:
        """Energy consumed so far (J): every label billed at its power."""
        power = self._power
        return sum(
            power[state] * t for state, t in self.timeline.durations().items()
        )

    def mean_power(self) -> float:
        """Average draw so far (W); ``nan`` before any time elapses."""
        total = self.timeline.total_time()
        return self.energy() / total if total else math.nan

    # -- the drive process -------------------------------------------------------

    def _arrival_event(self) -> Event:
        event = Event(self.env)
        self._wake = event
        return event

    def _run(self):
        env = self.env
        timeout = env.timeout
        pending = self._pending
        set_state = self.timeline.set
        stats = self.stats
        access_overhead = self.spec.access_overhead
        transfer_rate = self.spec.transfer_rate
        scale = self._scale
        park, down, wake_label = self._park, self._down, self._wake_label
        seek, active = self._seek, self._active
        down_time = [r.down_time for r in self.rungs]
        wake_time = [r.wake_time for r in self.rungs]
        depth = len(park)
        idle = park[0]
        scaled_for: Optional[float] = None
        entries: Tuple[float, ...] = ()
        descends = False
        while True:
            if not pending:
                set_state(idle)
                # The queue just drained: the gap starting now is governed
                # by the *current* threshold, even if a control loop
                # changes ``self.threshold`` mid-gap.
                drain = env.now
                threshold = self.threshold
                self._drain_time = drain
                self._drain_threshold = threshold
                if threshold != scaled_for:
                    scaled_for = threshold
                    entries = scale(threshold)
                    descends = depth > 1 and not math.isinf(entries[1])
                if not descends:
                    yield self._arrival_event()
                    continue
                i = 1
                while True:
                    # Parked in rung i-1: wait for the next descent or an
                    # arrival, whichever comes first.
                    wake = self._arrival_event()
                    remaining = entries[i] - (env.now - drain)
                    yield _first_of(env, wake, timeout(max(0.0, remaining)))
                    if pending:
                        woke = i - 1
                        break
                    # Non-abortable descent into rung i: an arrival during
                    # it waits for the transition to finish.
                    set_state(down[i])
                    stats.spindowns += 1
                    yield timeout(down_time[i])
                    set_state(park[i])
                    woke = i
                    if pending:
                        break
                    i += 1
                    if i == depth:
                        # Deepest rung: only an arrival ends the gap.
                        yield self._arrival_event()
                        break
                if woke:
                    set_state(wake_label[woke])
                    stats.spinups += 1
                    yield timeout(wake_time[woke])
                continue

            request = pending.popleft()
            set_state(seek)
            yield timeout(access_overhead)
            set_state(active)
            # ``spec.transfer_time`` inlined: the same single division.
            yield timeout(request.size / transfer_rate)
            set_state(idle)
            stats.completions += 1
            request.done.succeed(env.now - request.arrival_time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DiskDrive {self.disk_id} state={self.state} "
            f"queue={self.queue_depth}>"
        )
