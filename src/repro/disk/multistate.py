"""A drive that descends a multi-state power ladder while idle.

Generalizes :class:`~repro.disk.drive.DiskDrive`'s two-state
idle-threshold behaviour to an arbitrary :class:`~repro.disk.dpm.DpmLadder`
(e.g. an intermediate low-RPM "nap" state between idle and standby, as in
the DRPM work the paper cites).  Semantics per idle gap:

* the disk parks in rung 0 when its queue drains; at each rung's
  (possibly control-scaled) entry time it starts a **non-abortable
  descent** into the next rung, billed at that rung's ``down_power`` for
  ``down_time`` seconds — Figure 1's spin-down, generalized per rung;
* a request arriving while parked in rung ``i`` (or mid-descent into it;
  the descent finishes first) pays the rung's ``wake_time``, billed at
  ``wake_power`` for exactly the configured wake time — no folded lump
  sums, so energy is conserved across every descent/ascent cycle.

With the ``two_state`` ladder derived from the spec this reproduces the
classic drive's timing and energy accounting bit for bit, which the test
suite asserts.  The per-disk ``threshold`` attribute (consumed at each
queue drain, like the classic drive's armed idleness timer) lets the
online control loop (:mod:`repro.control`) steer ladder descent: entries
scale by ``threshold / base_threshold`` via
:meth:`~repro.disk.dpm.DpmLadder.scaled_entries`.

The timeline records ladder state *names* (strings): rung names while
parked, ``down:<name>`` during descents, ``wake:<name>`` during wakes,
plus ``seek``/``active`` while serving.  The fast kernel's
:class:`~repro.sim.fastkernel._Bank` replays identical semantics and uses
the same labels.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.disk.dpm import DpmLadder, MultiStateDpmPolicy
from repro.disk.drive import DiskRequest, DriveStats, READ, _first_of
from repro.disk.specs import DiskSpec
from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.monitor import StateTimeline, TimeWeighted

__all__ = ["MultiStateDiskDrive"]


class MultiStateDiskDrive:
    """A drive whose idle behaviour follows a DPM state ladder.

    The interface mirrors :class:`~repro.disk.drive.DiskDrive` (submit /
    state_durations / energy / stats / threshold / gap_log), so the
    dispatcher, array aggregation and the event control loop drive both
    classes interchangeably.

    Parameters
    ----------
    env, spec:
        As for the classic drive.
    ladder:
        A :class:`~repro.disk.dpm.DpmLadder`, or a
        :class:`~repro.disk.dpm.MultiStateDpmPolicy` (bridged via
        :meth:`DpmLadder.from_policy`).
    idleness_threshold:
        First-descent threshold; ``None`` uses the ladder's native entry.
        Deeper entries scale proportionally (see
        :meth:`DpmLadder.scaled_entries`).
    record_history:
        Keep the full state-transition history (for tests/plots), like
        the classic drive.
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        ladder: Union[DpmLadder, MultiStateDpmPolicy],
        disk_id: int = 0,
        idleness_threshold: Optional[float] = None,
        record_history: bool = False,
    ) -> None:
        if isinstance(ladder, MultiStateDpmPolicy):
            ladder = DpmLadder.from_policy(ladder, spec)
        if idleness_threshold is None:
            idleness_threshold = ladder.base_threshold
        if idleness_threshold < 0:
            raise SimulationError("idleness threshold must be >= 0")
        self.env = env
        self.spec = spec
        self.ladder = ladder
        self.disk_id = disk_id
        #: First-descent threshold; the control loop overwrites this and
        #: the value is consumed at the next queue drain (like the classic
        #: drive's already-armed idleness timer).
        self.threshold = float(idleness_threshold)
        self.stats = DriveStats()
        self.queue_length = TimeWeighted(env, 0.0)
        self._power: Dict[str, float] = ladder.power_table(spec)
        self.timeline = StateTimeline(
            env, ladder.rungs[0].name, record_history
        )
        # The only label that reads as spun down (see :attr:`spinning`);
        # ``None`` for a one-rung ladder, which never spins down.
        self._deepest: Optional[str] = (
            ladder.rungs[-1].name if len(ladder.rungs) > 1 else None
        )
        self._pending: Deque[DiskRequest] = deque()
        self._wake: Optional[Event] = None
        #: Closed idle gaps ``(gap_seconds, threshold_at_drain)`` appended
        #: at the arrival ending each gap — same telemetry contract as the
        #: classic drive; populated only while :attr:`log_gaps` is set.
        self.gap_log: List[Tuple[float, float]] = []
        self.log_gaps: bool = False
        self._drain_time: Optional[float] = env.now
        self._drain_threshold: float = self.threshold
        self.process = env.process(self._run())

    # -- public API ------------------------------------------------------------

    @property
    def state_name(self) -> str:
        """Current timeline label."""
        return self.timeline.state

    @property
    def spinning(self) -> bool:
        """Whether the platters are (or are being brought) up to speed.

        Matches the classic drive's convention: only a disk *parked in
        the deepest rung* counts as spun down — descents (like Figure 1's
        SPINDOWN), intermediate reduced-RPM rungs and wakes all spin.
        """
        return self.timeline.state != self._deepest

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def submit(self, file_id: int, size: float, kind: str = READ) -> DiskRequest:
        """Enqueue a request; wait on ``request.done`` for the response."""
        if size < 0:
            raise SimulationError("request size must be >= 0")
        if self._drain_time is not None:
            if self.log_gaps:
                self.gap_log.append(
                    (self.env.now - self._drain_time, self._drain_threshold)
                )
            self._drain_time = None
        request = DiskRequest(self.env, file_id, size, kind)
        self._pending.append(request)
        self.queue_length.set(len(self._pending))
        self.stats.arrivals += 1
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        self._wake = None
        return request

    def state_durations(self) -> Dict[str, float]:
        return self.timeline.durations()

    def energy(self) -> float:
        """Energy so far (J): every timeline label billed at its power."""
        return sum(
            self._power[state] * t
            for state, t in self.timeline.durations().items()
        )

    def mean_power(self) -> float:
        total = self.timeline.total_time()
        return self.energy() / total if total else float("nan")

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
        set_queue = self.queue_length.set
        record_completion = self.stats.record_completion
        access_overhead = self.spec.access_overhead
        transfer_rate = self.spec.transfer_rate
        scaled_entries = self.ladder.scaled_entries
        rungs = self.ladder.rungs
        depth = len(rungs)
        parked = rungs[0].name
        down_labels = [f"down:{rung.name}" for rung in rungs]
        wake_labels = [f"wake:{rung.name}" for rung in rungs]
        while True:
            if not pending:
                drain = env.now
                threshold = self.threshold
                self._drain_time = drain
                self._drain_threshold = threshold
                entries = scaled_entries(threshold)
                set_state(parked)
                woke = 0
                if depth == 1 or math.isinf(entries[1]):
                    yield self._arrival_event()
                else:
                    i = 1
                    while True:
                        # Parked in rung i-1: wait for the next descent
                        # or an arrival, whichever comes first.
                        wake = self._arrival_event()
                        remaining = entries[i] - (env.now - drain)
                        timer = timeout(max(0.0, remaining))
                        yield _first_of(env, wake, timer)
                        if pending:
                            woke = i - 1
                            break
                        # Non-abortable descent into rung i: an arrival
                        # during it waits for the transition to finish.
                        set_state(down_labels[i])
                        self.stats.spindowns += 1
                        yield timeout(rungs[i].down_time)
                        set_state(rungs[i].name)
                        if pending:
                            woke = i
                            break
                        if i + 1 < depth:
                            i += 1
                            continue
                        # Deepest rung: only an arrival ends the gap.
                        yield self._arrival_event()
                        woke = depth - 1
                        break
                if woke > 0:
                    rung = rungs[woke]
                    set_state(wake_labels[woke])
                    self.stats.spinups += 1
                    if rung.wake_time > 0:
                        yield timeout(rung.wake_time)
                continue

            request = pending.popleft()
            set_queue(len(pending))
            set_state("seek")
            yield timeout(access_overhead)
            set_state("active")
            # ``spec.transfer_time`` inlined: the same single division.
            yield timeout(request.size / transfer_rate)
            set_state(parked)
            response = env.now - request.arrival_time
            record_completion(response, request.size, request.kind)
            request.done.succeed(response)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MultiStateDiskDrive {self.disk_id} state={self.state_name} "
            f"queue={self.queue_depth}>"
        )
