"""Batched fast-path simulation kernel (``StorageConfig(engine="fast")``).

The event kernel (:mod:`repro.sim.environment`) replays one request at a
time through generator processes: every arrival costs several heap
operations, event allocations and coroutine hops.  That is flexible — it
supports arbitrary process interleavings — but it makes large parameter
sweeps (the paper's Figures 2-6 grids) simulation bound.

This module computes the same runs directly, without the event loop.  The
drive semantics are exactly those of :class:`~repro.disk.drive.DiskDrive`
(paper Figure 1): each disk is a FIFO queue whose service start follows a
Lindley recursion extended with the idleness-threshold spin-down / spin-up
transitions.  That per-disk recursion needs only two kinds of global
coupling, both handled here:

* **write allocation** — a write of a not-yet-mapped file inspects every
  disk's *current* spin state, free space and dispatched load through the
  configured :class:`~repro.system.placement.WritePlacementPolicy` (the
  paper's §1.1 ``spinning_best_fit`` by default), then updates the mapping
  for later requests;
* **a shared whole-file cache** — reads look the cache up at arrival and
  admit on miss *completion*, so cache contents depend on the global
  interleaving of arrivals and completions across disks.

Engine coverage matrix
----------------------

=========================================  ==========  ===========
scenario feature                           ``fast``    ``event``
=========================================  ==========  ===========
read-only static mapping                   yes         yes
idleness thresholds (0, finite, inf)       yes         yes
write streams (placement on first touch)   yes         yes
pluggable write placement (full registry)  yes         yes
shared whole-file cache (any policy)       yes         yes
mixed read/write + cache                   yes         yes
online DPM policies (full registry)        yes         yes
multi-state DPM ladders (presets + user)   yes         yes
ladders under online control (scaled)      yes         yes
heterogeneous fleets (per-disk specs)      yes         yes
per-disk ladders / thresholds (fleets)     yes         yes
fleets + chunked / streaming metrics       yes         yes
observer hooks (``repro.obs``)             yes         yes
slack-aware request scheduling (registry)  yes         yes
array-backed streams (``.times``)          yes         yes
chunked streams (``.iter_chunks()``)       yes         yes
streaming metrics (bounded memory)         yes         API only
arbitrary iterator streams                 no          yes
custom per-request processes               no          yes
=========================================  ==========  ===========

Out-of-core streaming: :func:`simulate_fast_chunked` consumes any
``ChunkedStream`` (see :mod:`repro.workload.chunked` — chunked
generators, ``RequestStream.chunks(n)`` views, or
:class:`~repro.workload.trace.ChunkedTraceStream` readers) one chunk at
a time with full carry state across boundaries: per-disk queue/spin
recursion, ladder rung positions, write placements, the cache-admission
heap and the DPM controller's interval clock all persist, so chunked
runs are bit-identical to materializing the whole stream (the
differential harness's chunked axis asserts this at several chunk
sizes, including pathological ones).  Pair it with
``metrics_mode="streaming"`` to drop the per-request response array in
favor of bounded :class:`~repro.system.metrics.ResponseStats`
accumulators — peak memory then scales with the chunk size, not the
request count.

One recursion serves every drive: :class:`_Bank` runs the per-rung DPM
ladder recursion over per-disk rung tables.  A multi-state ladder
(``StorageConfig(dpm_ladder=...)`` — presets ``two_state``/``nap``/``drpm4``
in :data:`repro.disk.dpm.DPM_LADDERS`, or any user
:class:`~repro.disk.dpm.DpmLadder`) brings its own rungs; a disk without
one runs the two-rung table of its :class:`~repro.disk.specs.DiskSpec`
(idle, then standby after the idleness threshold — the paper's Figure 1
drive as the simplest ladder), reported under the classic
:class:`~repro.disk.power.DiskState` names.  Both the table and the label
map live in :mod:`repro.disk.dpm`, shared with the event engine's one
:class:`~repro.disk.drive.DiskDrive`.  The ``two_state`` preset
therefore simulates byte-identically to a ladder-less run, and the seeded
randomized differential harness in ``tests/differential/`` holds both
engines to 1e-9 agreement across the full config space (disks x streams
x arrival shape x cache x write policy x DPM policy x ladder x fleet).

Heterogeneous fleets (``StorageConfig(fleet=...)`` — the
``mixed_generation`` preset or any :class:`~repro.disk.fleet.Fleet`)
turn every per-disk scalar in the bank into a vector: capacities,
transfer rates, access overheads, spin-up/-down durations, per-state
power draws, idleness thresholds and (when any slot carries one) DPM
ladders are all indexed by disk.  A uniform fleet collapses those
vectors to identical entries, so the arithmetic — and the output — is
byte-identical to the pre-fleet scalar path
(``tests/regression/test_uniform_byte_identity.py`` pins this against
recorded goldens).

Every policy in :data:`repro.system.placement.PLACEMENT_POLICIES` is
engine-agnostic: both kernels feed it the same
:class:`~repro.system.placement.PlacementContext` (spin mask, free bytes,
per-disk dispatched service seconds accumulated in the same per-request
order), so allocation decisions — and hence final file→disk mappings — are
byte-identical across engines; ``tests/experiments/test_engine_smoke.py``
iterates the registry to enforce this.

Execution strategy: every batch of arrivals — a chunk, a control
interval's slice of one, or a scheduler's release batch — is served by
one :class:`_Dispatch`, which picks the fastest path that applies:

1. **grouped** (read-only, no cache): the batch is pre-sorted into
   per-disk NumPy groups and each disk's queue is advanced independently,
   one group at a time.  With static thresholds and no span log (no
   controller, no observer) a group of at least ``_SOLVE_MIN_GROUP``
   requests, at most ``_SOLVE_MAX_LONG_GAPS`` of whose inter-arrival gaps
   exceed the first rung entry ``e1``, is solved in NumPy by
   :meth:`_Bank.solve_batch`: busy periods guessed from the wake-free
   Lindley recursion in closed form, evaluated as position-major chains
   with the loop's own float expression, every decision re-checked
   against its exact predecessor and each mismatch repaired by a short
   scalar walk — so the result is the loop's, bit for bit.  A gap no
   longer than ``e1`` cannot descend, so the long gaps bound the
   descents, and each descent may cost the solve a repair walk.  Every
   other group — small, descent-heavy, controlled or observed — runs the
   bank's hoisted per-request loop, :meth:`_Bank.serve_batch`;
2. **segmented** (writes, no cache): only writes that *allocate* a new
   file couple the disks, so the batch is split at those coupling points
   and each read-only segment between them replays grouped; the
   allocation itself is resolved scalar against the banked per-disk spin
   state;
3. **coupled** (shared cache): a single globally time-merged pass walks
   arrivals in order, draining a min-heap of pending cache admissions
   (miss completions) between arrivals; the per-disk recursion state is
   identical, only advanced one request at a time.

Under a dynamic ``StorageConfig.dpm_policy`` the bank reads its
thresholds from *per-interval, per-disk* rows instead of one static
vector, and :class:`_ControlledDriver` segments the stream at
control-interval boundaries, serving each slice through the same
dispatch.  An idle gap is governed by the threshold in effect at the
disk's drain instant (the event drive's already-armed timer).  At each
boundary the interval's telemetry — responses in completion order, closed
idle gaps per disk, queue depths — goes to the shared
:class:`~repro.control.controller.ThresholdController`, which returns the
next threshold vector; the event engine's control process consumes
identical telemetry, so every registered DPM policy simulates identically
(~1e-9) on both engines.  Scheduled, unscheduled and controlled runs
share one serve-and-account body.

All state-time, energy and response accounting is vectorized afterwards
and truncated at the measurement horizon exactly like the event kernel's
cutoff.  Semantics mirror :class:`~repro.disk.drive.DiskDrive`: drives
start IDLE with the idleness timer armed at t=0, spin-downs are not
abortable (a request arriving mid-transition waits for spin-down +
spin-up), and requests arriving at or after the horizon are censored
(counted as neither arrivals nor completions).  Agreement with the event
kernel is tested to tight tolerances in ``tests/sim/test_fastkernel.py``;
the only differences are ~1 ulp float drift (the event loop accumulates
arrival times as ``now + (t - now)``) and the order of same-instant
events.  The fast kernel serves a completion before an arrival at the
same instant: the arriving request finds its disk already free, and the
completed miss already admitted to the cache.  The event engine orders
such ties by its event heap, which can differ.  Whole-second traces make
these ties common; one written order for both engines is an open ROADMAP
item.

Select the engine per run via ``StorageConfig(engine="fast")``; the one
scenario class the fast kernel cannot express (streams that are neither
array-backed nor chunked) raises :class:`~repro.errors.ConfigError` — use
the default ``engine="event"`` for those.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Dict, List, Optional

import numpy as np

from repro.disk.dpm import (
    _CLASSIC_STATES,
    DpmLadder,
    _two_rung_entries,
    _two_rung_table,
)
from repro.disk.drive import READ, WRITE
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError, SimulationError
from repro.obs.hooks import active_observer
from repro.system.dispatcher import (
    initial_free_bytes,
    per_disk_capacities,
    validate_free_bytes,
)
from repro.system.metrics import ResponseAccumulator, SimulationResult
from repro.system.placement import (
    PlacementContext,
    WritePlacementPolicy,
    make_placement_policy,
)

__all__ = [
    "fast_unsupported_reason",
    "simulate_fast",
    "simulate_fast_chunked",
]


def fast_unsupported_reason(config, stream) -> Optional[str]:
    """Why ``engine="fast"`` cannot run this scenario (``None`` if it can).

    Since the global-merge pass landed, write streams and shared caches are
    supported; the only remaining requirement is a batchable stream —
    either array-backed (dense ``.times``/``.file_ids``, plus optional
    ``.kinds``) for :func:`simulate_fast`, or chunked
    (``.iter_chunks()`` with a ``duration``) for
    :func:`simulate_fast_chunked`.
    """
    if hasattr(stream, "times") and hasattr(stream, "file_ids"):
        return None
    if hasattr(stream, "iter_chunks") and getattr(stream, "duration", None) is not None:
        return None
    return (
        "the stream is not array-backed (needs .times/.file_ids) "
        "or chunked (needs .iter_chunks()/.duration)"
    )


def _per_disk_specs(spec, num_disks: int) -> tuple:
    """Normalize a spec-or-sequence into one :class:`DiskSpec` per disk."""
    if isinstance(spec, DiskSpec):
        return (spec,) * num_disks
    specs = tuple(spec)
    if len(specs) != num_disks:
        raise ConfigError(
            f"got {len(specs)} disk specs for a {num_disks}-disk pool"
        )
    return specs


def _per_disk_ladders(ladder, num_disks: int) -> tuple:
    """Normalize a ladder-or-sequence into one ladder per disk."""
    if isinstance(ladder, DpmLadder):
        return (ladder,) * num_disks
    ladders = tuple(ladder)
    if len(ladders) != num_disks:
        raise ConfigError(
            f"got {len(ladders)} DPM ladders for a {num_disks}-disk pool"
        )
    return ladders


def _per_disk_floats(value, num_disks: int) -> List[float]:
    """Normalize a scalar-or-vector into one float per disk."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return [float(arr)] * num_disks
    if arr.shape != (num_disks,):
        raise ConfigError(
            f"per-disk vector has shape {arr.shape}, expected ({num_disks},)"
        )
    return [float(v) for v in arr]


class _Bank:
    """Per-disk queue and power state for every fast-kernel path.

    Evolves exactly the state the event kernel's drives evolve: per disk,
    the time it next falls idle plus per-rung park/descent/wake
    residencies.  An idle gap walks the disk's (threshold-scaled) descent
    schedule: fully traversed rungs bill their descent and park times, the
    rung occupied when the gap ends bills a (possibly horizon-clipped)
    descent plus park-until-arrival, and the wake is billed at the rung's
    wake power for its configured wake time.  A disk without a DPM ladder
    runs the :func:`~repro.disk.dpm._two_rung_table` of its spec, the
    same table the event engine's :class:`~repro.disk.drive.DiskDrive`
    walks, and a ``two_state`` ladder runs the same arithmetic (``tests/sim/test_ladder_fastkernel.py`` asserts
    bit-equal responses and energies).

    Everything is held per disk, so a heterogeneous fleet needs nothing
    extra: ``spec``/``threshold``/``ladder`` accept a scalar (tiled across
    the pool) or a per-disk sequence, residencies are disk-major
    (``park_t[d][i]``) because rung counts may differ, and the span logs
    are rung-major with the disk id in each ``(disk, start, end)`` entry.

    The threshold governing a gap comes from one of two sources.  Without
    ``interval`` it is the static per-disk vector, whose descent schedules
    are computed once.  With ``interval`` (a dynamic DPM policy) it is the
    vector in effect at the gap's *drain* instant, looked up in the
    per-interval rows :meth:`push_thresholds` appends; by the time a gap's
    closing arrival is served its drain interval has been reached, so the
    lookup always resolves.  Only then is every closed gap logged as
    ``(gap, threshold_at_drain)`` for the controller's telemetry.
    Transition spans are logged for :func:`_flush_bank_spans` to hand to
    a binner or observer; with ``log_spans=False`` (nothing reads them)
    a descent skips its span log, so a long fixed-threshold run does not
    hold one tuple per transition.  An infinite threshold needs no
    special casing: ``gap > inf`` is never true.

    A disk's FIFO run is served by one of two paths with bit-equal
    results: the per-request loop :meth:`serve_batch` (every bank), or,
    with static thresholds and no span log, the NumPy busy-period solve
    :meth:`solve_batch`, which bills its descents through the same
    :meth:`_descend` in the same order.  :func:`_serve_segment` picks.
    """

    __slots__ = (
        "avail", "load", "pt", "pv", "n_up", "n_down",
        "oh", "rate", "oh_a", "rate_a", "ap", "cap", "T",
        "rungs", "R", "maxR", "dn", "wk", "park_t", "down_t", "wake_t",
        "log_spans", "park_spans", "down_spans", "wake_spans",
        "_scale", "_entry_cache", "entries", "e1", "last_a", "dn_last_a",
        "ci", "_th_rows", "k", "gap_log",
    )

    def __init__(
        self, num_disks: int, threshold, spec, horizon: float,
        ladder=None, interval: Optional[float] = None, log_spans: bool = True,
    ) -> None:
        specs = _per_disk_specs(spec, num_disks)
        self.avail = [0.0] * num_disks
        # Cumulative dispatched service seconds per disk, accumulated one
        # request at a time (same order as the event dispatcher's ledger,
        # so load-comparing placement policies see bit-equal values).
        self.load = [0.0] * num_disks
        # Same-instant state snapshot for the placement policy's spin view:
        # ``pv[d]`` is disk ``d``'s ``avail`` as of the *start* of instant
        # ``pt[d]`` (the arrival time of its most recent serve).  The event
        # kernel's drive processes do not run between same-instant
        # submissions — the dispatcher submits a whole release batch in one
        # resumption — so a placement at time t must see the spin states as
        # they stood when the instant began, not mid-batch.
        self.pt = [float("-inf")] * num_disks
        self.pv = [0.0] * num_disks
        self.n_up = [0] * num_disks
        self.n_down = [0] * num_disks
        self.oh = [s.access_overhead for s in specs]
        self.rate = [s.transfer_rate for s in specs]
        self.oh_a = np.asarray(self.oh, dtype=float)
        self.rate_a = np.asarray(self.rate, dtype=float)
        self.ap = np.array([s.active_power for s in specs], dtype=float)
        self.cap = None  # per-disk usable bytes, set by _simulate_chunks
        self.T = horizon
        if ladder is None:
            self.rungs = [_two_rung_table(s) for s in specs]
            self._scale = [_two_rung_entries] * num_disks
        else:
            ladders = _per_disk_ladders(ladder, num_disks)
            self.rungs = [l.rungs for l in ladders]
            self._scale = [l.scaled_entries for l in ladders]
        self.R = [len(r) for r in self.rungs]
        self.maxR = max(self.R)
        self.dn = [[r.down_time for r in rungs] for rungs in self.rungs]
        self.wk = [[r.wake_time for r in rungs] for rungs in self.rungs]
        # Rung 0's park time is the horizon residual, computed at the end.
        self.park_t = [[0.0] * r for r in self.R]
        self.down_t = [[0.0] * r for r in self.R]
        self.wake_t = [[0.0] * r for r in self.R]
        self.log_spans = log_spans
        self.park_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.down_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.wake_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        # Per-disk scaled-entry caches (mixed fleets scale different
        # ladders with the same threshold).
        self._entry_cache: List[dict] = [{} for _ in range(num_disks)]
        th = _per_disk_floats(threshold, num_disks)
        if interval is None:
            self._th_rows = None
            self.entries = [self._entries_for(d, x) for d, x in enumerate(th)]
            self.e1 = [e[1] for e in self.entries]
            # Spin-view constants: the deepest rung's descent start and
            # length per disk.
            self.last_a = np.array([e[-1] for e in self.entries], dtype=float)
            self.dn_last_a = np.array([dn[-1] for dn in self.dn], dtype=float)
        else:
            self.ci = float(interval)
            # One row per control interval; plain float lists because the
            # hot per-gap lookup (a python list index) beats NumPy scalar
            # extraction by a wide margin.
            self._th_rows = [th]
            self.k = 0
            self.gap_log: List[List[tuple]] = [[] for _ in range(num_disks)]
            # No gap is shorter than -inf: every gap takes the logged
            # threshold lookup of :meth:`_close_gap`.
            self.e1 = [-inf] * num_disks

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        self._th_rows.append(np.asarray(thresholds, dtype=float).tolist())
        self.k += 1

    def _th_at(self, drain: float, d: int) -> float:
        """Threshold governing a gap that began at ``drain`` on disk ``d``."""
        idx = int(drain / self.ci)
        if idx > self.k:
            idx = self.k
        return self._th_rows[idx][d]

    def _entries_for(self, d: int, th: float) -> tuple:
        """Disk ``d``'s descent-start times under threshold ``th``; a
        one-rung table gets ``(0, inf)`` so it never descends."""
        cache = self._entry_cache[d]
        entries = cache.get(th)
        if entries is None:
            entries = self._scale[d](th) if self.R[d] > 1 else (0.0, inf)
            cache[th] = entries
        return entries

    def _gap_entries(self, d: int, a: float) -> tuple:
        """Descent schedule of disk ``d``'s gap that began at ``a``."""
        if self._th_rows is None:
            return self.entries[d]
        return self._entries_for(d, self._th_at(a, d))

    def _descend(self, d: int, a: float, t: float, entries) -> float:
        """Walk the idle gap ``[a, t)`` down disk ``d``'s rungs; returns
        the wake completion (service start), billing and logging every
        residency touched."""
        g = t - a
        T = self.T
        dn = self.dn[d]
        R = self.R[d]
        down_t = self.down_t[d]
        park_t = self.park_t[d]
        log = self.log_spans
        i = 1
        while i + 1 < R and g > entries[i + 1]:
            i += 1
        for j in range(1, i):
            # Rungs fully traversed before the arrival: full descent plus
            # park until the next rung's descent starts (all before t < T).
            ds = a + entries[j]
            de = ds + dn[j]
            down_t[j] += de - ds
            pe = a + entries[j + 1]
            if pe > de:
                park_t[j] += pe - de
            if log:
                self.down_spans[j].append((d, ds, de))
                if pe > de:
                    self.park_spans[j].append((d, de, pe))
        ds = a + entries[i]
        de = ds + dn[i]
        self.n_down[d] += i
        down_t[i] += (de if de < T else T) - ds
        if t >= de:
            park_t[i] += t - de
            ws = t
        else:
            # Arrived mid-descent: the transition is not abortable.
            ws = de
        we = ws + self.wk[d][i]
        if ws < T:
            self.n_up[d] += 1
            self.wake_t[d][i] += (we if we < T else T) - ws
        if log:
            self.down_spans[i].append((d, ds, de))
            if t >= de:
                self.park_spans[i].append((d, de, t))
            if ws < T:
                self.wake_spans[i].append((d, ws, we))
        return we

    def _close_gap(self, d: int, a: float, t: float) -> float:
        """The service start after disk ``d``'s idle gap ``[a, t)`` that
        outlasts ``e1[d]``.  With static thresholds ``e1`` is the first
        rung entry, so the gap descends; under control, look its threshold
        up and log it, and descend if it outlasts that entry."""
        if self._th_rows is None:
            return self._descend(d, a, t, self.entries[d])
        th = self._th_at(a, d)
        self.gap_log[d].append((t - a, th))
        entries = self._entries_for(d, th)
        return t if t - a <= entries[1] else self._descend(d, a, t, entries)

    def serve(self, d: int, t: float, tr: float) -> float:
        """Queue one request on disk ``d`` arriving at ``t``; returns the
        service start (the event kernel's seek entry time)."""
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t <= a:
            s = a
        elif t - a <= self.e1[d]:
            s = t
        else:
            s = self._close_gap(d, a, t)
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        """Advance disk ``d`` through a FIFO run of requests; returns the
        service starts.  Identical recursion to :meth:`serve`, with the
        per-disk state, the threshold rows and the scaled-entry cache
        hoisted into locals for the long read-only runs; only a descent
        calls out (to :meth:`_descend`).  A static gap no longer than
        ``e1`` costs one comparison; under control ``e1`` is ``-inf``.
        This loop is the reference :meth:`solve_batch` reproduces, and it
        serves every group the solve does not take: controlled and
        observed runs, small groups and descent-heavy ones."""
        out: List[float] = []
        append = out.append
        a = self.avail[d]
        oh = self.oh[d]
        ld = self.load[d]
        pt_d = self.pt[d]
        pv_d = self.pv[d]
        descend = self._descend
        e1 = self.e1[d]
        rows = self._th_rows
        if rows is None:
            entries = self.entries[d]
        else:
            ci = self.ci
            k = self.k
            cache = self._entry_cache[d]
            entries_for = self._entries_for
            gap_append = self.gap_log[d].append
        for t, tr in zip(ts, trs):
            if t != pt_d:
                pt_d = t
                pv_d = a
            if t <= a:
                s = a
            elif t - a <= e1:
                s = t
            elif rows is None:
                s = descend(d, a, t, entries)  # static: e1 is entries[1]
            else:
                idx = int(a / ci)
                th = rows[idx if idx <= k else k][d]
                gap_append((t - a, th))
                entries = cache.get(th)
                if entries is None:
                    entries = entries_for(d, th)
                s = t if t - a <= entries[1] else descend(d, a, t, entries)
            append(s)
            a = s + oh + tr
            ld += oh + tr
        self.pt[d] = pt_d
        self.pv[d] = pv_d
        self.avail[d] = a
        self.load[d] = ld
        return out

    def _wakes(self, d: int, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorised return value of :meth:`_descend` (the wake
        completion) for the gaps ``[a, t)`` on disk ``d``, billing nothing:
        the same rung walk and the same float expressions, elementwise."""
        entries = self.entries[d]
        dn = self.dn[d]
        wk = self.wk[d]
        g = t - a
        i = np.ones(g.shape, dtype=np.intp)
        for j in range(2, self.R[d]):
            # Entries never decrease down the ladder, so this is the walk.
            i[g > entries[j]] = j
        de = (a + np.take(entries, i)) + np.take(dn, i)
        return np.where(t >= de, t, de) + np.take(wk, i)

    def _wake(self, d: int, a: float, t: float) -> float:
        """:meth:`_wakes` for one gap, in scalar floats."""
        entries = self.entries[d]
        g = t - a
        i = 1
        while i + 1 < self.R[d] and g > entries[i + 1]:
            i += 1
        de = (a + entries[i]) + self.dn[d][i]
        return (t if t >= de else de) + self.wk[d][i]

    def _walk(
        self, d: int, t, tr, s: np.ndarray, avail: np.ndarray, m: int,
        a: float,
    ) -> int:
        """Repair :meth:`solve_batch`'s ``s``/``avail`` from request ``m``
        on, whose exact predecessor ``avail`` is ``a``, with the loop's
        scalar recursion; stops at the first request whose ``avail``
        rejoins the chains' value and returns its index (``len(t)`` if
        none does)."""
        e1 = self.e1[d]
        oh = self.oh[d]
        n = len(t)
        k = m
        while k < n:
            tk = t[k]
            if tk <= a:
                sk = a
            elif tk - a <= e1:
                sk = tk
            else:
                sk = self._wake(d, a, tk)
            s[k] = sk
            a = sk + oh + tr[k]
            if a == avail[k]:
                break
            avail[k] = a
            k += 1
        return k

    def solve_batch(self, d: int, t: np.ndarray, tr: np.ndarray) -> np.ndarray:
        """:meth:`serve_batch` as a NumPy solve over busy-period chains.

        Static thresholds and no span log only.  Returns the service starts
        and leaves every bit of state :meth:`serve_batch` leaves, from the
        same float expressions on the same inputs:

        1. *guess* every ``avail`` with the wake-free Lindley recursion in
           closed form (``cumsum`` + ``maximum.accumulate``); its busy
           periods start where ``t > prev``, each at the arrival or, past
           ``e1``, at the wake completion of the rung walk;
        2. *evaluate* every busy period with the loop's own expression
           ``a_k = (a_{k-1} + oh) + tr_k``, position-major: chains sorted
           longest first, so step ``k`` adds over a prefix of step
           ``k - 1``;
        3. *check* every decision against its exact predecessor and repair
           each mismatch with a scalar walk that stops where its value
           rejoins the chains' (everything after is then exact again).

        Descents are billed last through :meth:`_descend`, in request
        order, like the loop bills them.
        """
        n = int(t.size)
        oh = self.oh[d]
        a0 = self.avail[d]
        # ``g > e1`` with ``e1 >= 0`` also means ``t > prev``: a descent.
        e1 = max(self.e1[d], 0.0)
        # ``load`` sums ``oh + tr`` one request at a time, like the loop.
        inc = np.empty(n + 1)
        inc[0] = self.load[d]
        np.add(tr, oh, out=inc[1:])
        load = float(np.add.accumulate(inc)[-1])
        inc = inc[1:]
        # 1. Guess (rounding may misplace a start; step 3 catches it).
        cum = np.cumsum(inc)
        lead = np.subtract(cum, inc)
        np.subtract(t, lead, out=lead)
        np.maximum.accumulate(lead, out=lead)
        np.maximum(lead, a0, out=lead)
        prev = np.empty(n)
        prev[0] = a0
        np.add(cum[:-1], lead[:-1], out=prev[1:])
        del inc, cum, lead
        head = t > prev
        head[0] = True  # the carried-in backlog heads the first chain
        heads = np.flatnonzero(head)
        x = np.maximum(t[heads], prev[heads])
        down = x - prev[heads] > e1
        if down.any():
            hd = heads[down]
            x[down] = self._wakes(d, prev[hd], t[hd])
        # 2. Evaluate the chains.
        avail = _chains(heads, x, tr, oh)
        # 3. Check every decision against its exact predecessor: a queued
        # request must not have been due to start, a head must have the
        # start value the exact predecessor gives it.
        prev[1:] = avail[:-1]
        s = np.maximum(t, prev)
        down = t - prev > e1
        if down.any():
            s[down] = self._wakes(d, prev[down], t[down])
        bad = t > prev
        bad[heads] = s[heads] != x
        bad = np.flatnonzero(bad).tolist()
        t_w, tr_w = t, tr
        if len(bad) * 16 > n:
            # Many walks: plain floats index faster than array scalars.
            t_w, tr_w = t.tolist(), tr.tolist()
        done = -1
        for m in bad:
            if m > done:
                done = self._walk(d, t_w, tr_w, s, avail, m, float(prev[m]))
        if done >= 0:
            prev[1:] = avail[:-1]
            down = t - prev > e1
        # Bill the descents in request order.
        entries = self.entries[d]
        for a, tk in zip(prev[down].tolist(), t[down].tolist()):
            self._descend(d, a, tk, entries)
        # Instant-start snapshot: the last change of arrival instant.
        moved = np.flatnonzero(t != np.concatenate(([self.pt[d]], t[:-1])))
        if moved.size:
            self.pv[d] = float(prev[moved[-1]])
        self.pt[d] = float(t[-1])
        self.avail[d] = float(avail[-1])
        self.load[d] = load
        return s

    def spinning_mask(self, t: float) -> np.ndarray:
        """Per-disk "not parked in the deepest rung at ``t``" — the §1.1
        write policy's view of the pool.

        Mirrors :attr:`~repro.disk.power.DiskState.spinning`: serving,
        idle, intermediate rungs, wakes *and descents* all count as
        spinning.  A drained disk reaches its deepest rung at ``(avail +
        entry) + down``; a disk still working (``t < avail``) is never
        parked because a pending request always rides the transitions
        straight back up.  Same-instant earlier serves are excluded via
        the instant-start snapshot: a disk woken at exactly ``t`` still
        reads as parked, like the event kernel's not-yet-resumed drive.
        Static thresholds make this one vector expression; under control
        each disk's schedule depends on its drain interval.
        """
        if t in self.pt:
            pt = self.pt
            pv = self.pv
            avail = [pv[d] if pt[d] == t else a for d, a in enumerate(self.avail)]
        else:
            avail = self.avail
        if self._th_rows is None:
            # A never-descending disk's entry is inf: always spinning.
            return t < (np.asarray(avail) + self.last_a) + self.dn_last_a
        return np.array(
            [
                t < (a + self._gap_entries(d, a)[-1]) + self.dn[d][-1]
                for d, a in enumerate(avail)
            ],
            dtype=bool,
        )

    def apply_tail(self):
        """Trailing-idleness pass at the horizon; returns per-disk
        ``(spinups, spindowns)`` arrays.

        Every disk (including ones that never served a request) descends
        from its drain instant as far as the horizon allows: descents
        started before it are billed (clipped at it), parks up to the next
        descent or the horizon.
        """
        T = self.T
        for d, a in enumerate(self.avail):
            entries = self._gap_entries(d, a)
            R = self.R[d]
            dn = self.dn[d]
            for i in range(1, R):
                ds = a + entries[i]
                if ds >= T:
                    break
                de = ds + dn[i]
                self.n_down[d] += 1
                self.down_t[d][i] += min(de, T) - ds
                self.down_spans[i].append((d, ds, de))
                pe = (a + entries[i + 1]) if i + 1 < R else T
                if pe > T:
                    pe = T
                if pe > de:
                    self.park_t[d][i] += pe - de
                    self.park_spans[i].append((d, de, pe))
        return (
            np.asarray(self.n_up, dtype=np.int64),
            np.asarray(self.n_down, dtype=np.int64),
        )


def _allocate_for_write(
    bank: _Bank,
    policy: WritePlacementPolicy,
    free: np.ndarray,
    size: float,
    t: float,
) -> int:
    """Placement for a new file at time ``t``: the shared registry policy
    decides against the banked spin state / free bytes / dispatched load
    (plus the per-disk capacity and power-rank views a mixed fleet adds),
    so both engines pick byte-identical disks."""
    ctx = PlacementContext(
        time=t,
        spinning=bank.spinning_mask(t),
        free=free,
        load=np.asarray(bank.load, dtype=float),
        capacity=bank.cap,
        active_power=bank.ap,
    )
    return policy.choose(ctx, size)


def _group_key(d: np.ndarray, num_disks: int) -> np.ndarray:
    """``d`` in the narrowest unsigned dtype that holds every disk index.

    NumPy's stable sort is a radix sort on 8- and 16-bit integers (~10x
    faster than its int64 timsort), and a stable permutation is unique, so
    ``argsort(_group_key(d, n), kind="stable")`` equals the int64 one bit
    for bit.  Pools above 65,536 disks keep the int64 key.
    """
    if num_disks <= 1 << 8:
        return d.astype(np.uint8)
    if num_disks <= 1 << 16:
        return d.astype(np.uint16)
    return d


#: A group goes to :meth:`_Bank.solve_batch` only if it has at least
#: ``_SOLVE_MIN_GROUP`` requests and at most a ``_SOLVE_MAX_LONG_GAPS``
#: share of its inter-arrival gaps exceed ``e1``.  Those long gaps are a
#: superset of its descents (``avail >= t`` after every serve), and each
#: descent may cost the solve a scalar repair walk: on the paper's Table 1
#: inputs the solve took 0.3-0.6x the loop's time on groups below 5% long
#: gaps and 1.0-1.9x above 7%, and the fixed cost of its NumPy calls
#: outweighs the loop below about 2,000 requests.
_SOLVE_MIN_GROUP = 2048
_SOLVE_MAX_LONG_GAPS = 0.05
#: :func:`_chains` steps through NumPy while more chains than this are
#: still running, then finishes their tails one float at a time.
_CHAIN_TAIL_WIDTH = 8


def _chains(
    heads: np.ndarray, x: np.ndarray, tr: np.ndarray, oh: float
) -> np.ndarray:
    """``avail`` after every request of busy-period chains that start at
    ``heads`` with service starts ``x``: ``a_k = (a_{k-1} + oh) + tr_k``
    down each chain, ``a_h = (x + oh) + tr_h`` at its head, the float
    expression of :meth:`_Bank.serve_batch`.

    Position-major: chains sorted longest first, so step ``k`` of every
    chain is two contiguous adds over a prefix of step ``k - 1``.
    """
    n = int(tr.size)
    lengths = np.diff(heads, append=n)
    top = int(lengths.max())
    order = np.argsort(_group_key(top - lengths, top + 1), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    # width[k]: chains longer than k; base[k]: where step k starts.
    width = order.size - np.cumsum(np.bincount(lengths)[:-1])
    base = np.zeros(top, dtype=np.intp)
    np.cumsum(width[:-1], out=base[1:])
    pos = np.arange(n)
    pos -= np.repeat(heads, lengths)
    slot = base[pos]
    del pos
    slot += np.repeat(rank, lengths)
    vals = np.empty(n)
    vals[slot] = tr
    buf = np.add(x[order], oh)
    lo = base.tolist()
    w = width.tolist()
    np.add(vals[:w[0]], buf, out=vals[:w[0]])
    # Once only a few chains are left, their tails go faster one float at
    # a time than as NumPy steps.
    cut = max(1, int(np.count_nonzero(width > _CHAIN_TAIL_WIDTH)))
    for k in range(1, cut):
        step = vals[lo[k]:lo[k] + w[k]]
        np.add(vals[lo[k - 1]:lo[k - 1] + w[k]], oh, out=buf[:w[k]])
        np.add(step, buf[:w[k]], out=step)
    if cut < top:
        off = lo[cut - 1]
        v = vals[off:].tolist()
        for k in range(cut, top):
            i = lo[k] - off
            j = lo[k - 1] - off
            for r in range(w[k]):
                v[i + r] = (v[j + r] + oh) + v[i + r]
        vals[off:] = v
    return vals[slot]


def _serve_segment(
    bank: _Bank,
    d_seg: np.ndarray,
    t_seg: np.ndarray,
    tr_seg: np.ndarray,
    starts_out: np.ndarray,
) -> None:
    """Replay one read-only segment: stable per-disk grouping + batch FIFO.

    ``d_seg`` must be fully resolved (no ``-1``; callers validate); times
    are globally non-decreasing, so a stable sort on the disk index
    preserves each disk's arrival order.  ``starts_out`` (a view onto the
    segment's slice of the global starts array) is filled in place.
    """
    n = int(d_seg.size)
    if not n:
        return
    key = _group_key(d_seg, bank.rate_a.shape[0])
    order = np.argsort(key, kind="stable")
    # The sorted key is the grouped disk ids at 1-2 bytes each; it is
    # ascending, so its unsigned diff cannot wrap.
    d_s = key[order]
    t_s = t_seg[order]
    tr_s = tr_seg[order]
    cuts = np.flatnonzero(np.diff(d_s)) + 1
    group_lo = np.concatenate(([0], cuts))
    group_hi = np.concatenate((cuts, [n]))
    seg_starts = np.empty(n, dtype=float)
    solve = bank._th_rows is None and not bank.log_spans
    for lo, hi in zip(group_lo.tolist(), group_hi.tolist()):
        d = int(d_s[lo])
        ts = t_s[lo:hi]
        trs = tr_s[lo:hi]
        if (
            solve
            and hi - lo >= _SOLVE_MIN_GROUP
            and np.count_nonzero(np.diff(ts) > bank.e1[d])
            <= _SOLVE_MAX_LONG_GAPS * (hi - lo)
        ):
            seg_starts[lo:hi] = bank.solve_batch(d, ts, trs)
        else:
            seg_starts[lo:hi] = bank.serve_batch(d, ts.tolist(), trs.tolist())
    starts_out[order] = seg_starts


class _Dispatch:
    """The grouped, segmented and coupled serve paths (see the module
    docstring) over one bank, with the run's shared placement and cache
    state; :meth:`serve` picks the fastest that applies.

    ``heap`` carries pending admissions across calls (the final drain is
    :meth:`admit_pending`), and ``map_l``/``size_l`` are one list
    materialization of the (large) per-file arrays shared by every call
    (``map_l`` is kept in sync with ``mapping`` on every allocation).
    Evictions happen inside ``cache.admit``, which has no notion of
    simulated time, so an observed run keeps ``obs_clock`` at the current
    admission instant for the evict hook.
    """

    __slots__ = (
        "bank", "policy", "mapping", "free", "sizes", "cache", "heap",
        "map_l", "size_l", "obs", "obs_clock",
    )

    def __init__(self, bank, policy, mapping, free, sizes, cache, obs) -> None:
        self.bank = bank
        self.policy = policy
        self.mapping = mapping
        self.free = free
        self.sizes = sizes
        self.cache = cache
        self.obs = obs
        self.heap: list = []
        self.map_l = mapping.tolist() if cache is not None else None
        self.size_l = sizes.tolist() if cache is not None else None
        self.obs_clock = clock = [0.0]
        if obs is not None and cache is not None:
            cache.evict_hook = lambda f: obs.on_cache_event(
                clock[0], "evict", f
            )

    def serve(
        self,
        fid: np.ndarray,
        t_all: np.ndarray,
        sz_all: np.ndarray,
        is_write: Optional[np.ndarray],
        starts: np.ndarray,
        base_index: int,
    ) -> np.ndarray:
        """Serve one time-sorted batch, filling ``starts``; returns each
        request's disk (``-1`` marks a cache hit).  ``base_index`` is the
        batch's first global arrival index (the admission heap's
        tie-break)."""
        if self.cache is None and is_write is None:
            d = self.mapping[fid]
            # A read of a file no write has placed yet (``d == -1``).
            if d.size and int(d.min()) < 0:
                raise SimulationError(
                    f"read of unallocated file {int(fid[int(np.argmin(d))])}; "
                    "allocate it first"
                )
            _serve_segment(
                self.bank, d, t_all, sz_all / self.bank.rate_a[d], starts
            )
            return d
        d_req = np.empty(int(t_all.size), dtype=np.int64)
        if self.cache is not None:
            self._serve_coupled(fid, t_all, is_write, starts, d_req, base_index)
        else:
            self._serve_segmented(fid, t_all, sz_all, is_write, starts, d_req)
        return d_req

    def _place(self, f: int, t: float) -> int:
        """Allocate file ``f`` (first written at ``t``) to a disk."""
        size = float(self.sizes[f])
        d = _allocate_for_write(self.bank, self.policy, self.free, size, t)
        if self.obs is not None:
            self.obs.on_placement(t, f, d)
        self.mapping[f] = d
        if self.map_l is not None:
            self.map_l[f] = d
        self.free[d] -= size
        return d

    def _serve_segmented(self, fid, t_all, sz_all, is_write, starts, d_req):
        """Writes without a cache: only the *first* touch of an
        initially-unmapped file couples the disks (it runs the placement
        policy against global spin/load state); everything between those
        coupling points replays grouped with carried-in state.  Transfer
        times are resolved once the serving disk is known — per-disk rates
        on a mixed fleet make them a property of the (request, disk)
        pair."""
        bank = self.bank
        mapping = self.mapping
        unmapped = np.flatnonzero(mapping[fid] < 0)
        if unmapped.size:
            _, first = np.unique(fid[unmapped], return_index=True)
            boundaries = np.sort(unmapped[first]).tolist()
        else:
            boundaries = []
        prev = 0
        n = int(t_all.size)
        for b in boundaries + [n]:
            if b > prev:
                seg = slice(prev, b)
                # Every initially unmapped file was placed at its first
                # touch (a boundary), so the segment reads mapped files.
                d_seg = mapping[fid[seg]]
                _serve_segment(
                    bank, d_seg, t_all[seg],
                    sz_all[seg] / bank.rate_a[d_seg], starts[seg],
                )
                d_req[seg] = d_seg
            if b == n:
                break
            f = int(fid[b])
            if not is_write[b]:
                raise SimulationError(
                    f"read of unallocated file {f}; allocate it first"
                )
            t = float(t_all[b])
            d = self._place(f, t)
            starts[b] = bank.serve(d, t, float(self.sizes[f]) / bank.rate[d])
            d_req[b] = d
            prev = b + 1

    def _serve_coupled(self, fid, t_all, is_write, starts, d_req, base_index):
        """Shared-cache pass (writes optional).

        Reads look the cache up at arrival and, on a miss, schedule an
        admission at their completion time; the heap drains those
        admissions in completion order between arrivals, reproducing the
        event kernel's interleaving (hit short-circuit,
        admit-on-miss-completion).  Ties (admission exactly at an arrival
        instant) admit first; admissions at or after the horizon never
        happen, exactly like the event kernel's URGENT stop pre-empting
        completion events at ``T``.
        """
        heap = self.heap
        obs = self.obs
        obs_clock = self.obs_clock
        map_l = self.map_l
        size_l = self.size_l
        lookup = self.cache.lookup
        admit = self.cache.admit
        serve = self.bank.serve
        oh_l = self.bank.oh
        rate_l = self.bank.rate
        T = self.bank.T
        fid_l = fid.tolist()
        t_l = t_all.tolist()
        w_l = is_write.tolist() if is_write is not None else None
        for i in range(len(t_l)):
            t = t_l[i]
            f = fid_l[i]
            # Inline (the per-arrival hot path) what :meth:`admit_pending`
            # does at the horizon, with ties admitted first.
            while heap and heap[0][0] <= t:
                c_adm, _, hf, hs = heappop(heap)
                if obs is not None:
                    obs_clock[0] = c_adm
                    obs.on_cache_event(c_adm, "admit", hf)
                admit(hf, hs)
            if w_l is not None and w_l[i]:
                d = map_l[f]
                if d < 0:
                    d = self._place(f, t)
                starts[i] = serve(d, t, size_l[f] / rate_l[d])
                d_req[i] = d
                continue
            size = size_l[f]
            if lookup(f, size):
                if obs is not None:
                    obs.on_cache_event(t, "hit", f)
                starts[i] = t  # a hit "completes" at its arrival instant
                d_req[i] = -1
                continue
            if obs is not None:
                obs.on_cache_event(t, "miss", f)
            d = map_l[f]
            if d < 0:
                raise SimulationError(
                    f"read of unallocated file {f}; allocate it first"
                )
            tr = size / rate_l[d]
            s = serve(d, t, tr)
            starts[i] = s
            d_req[i] = d
            c = s + oh_l[d] + tr
            if c < T:
                heappush(heap, (c, base_index + i, f, size))

    def admit_pending(self, limit: float) -> None:
        """Admit every pending miss completion before ``limit``, in
        completion order."""
        heap = self.heap
        admit = self.cache.admit
        obs = self.obs
        while heap and heap[0][0] < limit:
            c_adm, _, hf, hs = heappop(heap)
            if obs is not None:
                self.obs_clock[0] = c_adm
                obs.on_cache_event(c_adm, "admit", hf)
            admit(hf, hs)


class _ControlledDriver:
    """Interval-segmented execution under a dynamic DPM policy, with all
    carry state threaded across chunk boundaries.

    The stream is segmented at control-interval boundaries and each
    interval replays through the :class:`_Dispatch` paths against the
    bank's per-interval threshold rows.  Everything the interval loop
    needs to resume lives on the driver — the telemetry backlog
    (completions not yet reported at a boundary), dispatched-but-waiting
    requests and the controller's interval position — so splitting the
    stream at any point is bit-identical to the single call:

    * an interval whose arrivals span several :meth:`feed` calls is served
      in several sub-slices (the per-disk recursion carries exactly, and
      the coupled pass's heap tie-break uses the *global* arrival index
      ``n_seen``);
    * an interval's boundary is processed only once an arrival at or past
      its ``t_end`` has been seen — a later chunk may still add arrivals
      to the open interval.  :meth:`finish` processes every remaining
      boundary, including trailing empty intervals, and hands the final
      partial interval to ``dpm.finalize`` (a decision at or beyond the
      horizon could never take effect; the event engine's cutoff pre-empts
      that firing too).

    Telemetry at each boundary matches the event engine's control process:
    responses completed strictly before ``t_end`` in completion order
    (sequence-stable at ties via the global arrival index), per-disk idle
    gaps closed during the interval (the bank's ``gap_log`` is drained and
    cleared *in place* — the serve loops hold bound ``append`` references)
    and per-disk queue depths of dispatched requests not yet in service,
    carried as ``(service start, disk)`` value arrays so no global
    ``starts`` array is ever materialized.  The shared
    :class:`~repro.control.controller.ThresholdController` turns that
    telemetry into the next threshold vector; the event engine's control
    process consumes identical telemetry, so every registered DPM policy
    simulates identically (~1e-9) on both engines.
    """

    __slots__ = (
        "dispatch", "bank", "dpm", "hit_lat", "T", "ci",
        "pend_c", "pend_seq", "pend_r", "wait_s", "wait_d",
        "n_seen", "k", "t_start", "finished",
    )

    def __init__(
        self, dispatch: _Dispatch, dpm, cache_hit_latency: float
    ) -> None:
        self.dispatch = dispatch
        self.bank = dispatch.bank
        self.dpm = dpm
        self.hit_lat = float(cache_hit_latency)
        self.T = self.bank.T
        self.ci = dpm.interval
        # Telemetry backlog: completions not yet reported at a boundary.
        self.pend_c: List[np.ndarray] = []
        self.pend_seq: List[np.ndarray] = []
        self.pend_r: List[np.ndarray] = []
        # Dispatched but not yet in service, as (service start, disk).
        self.wait_s = np.empty(0, dtype=float)
        self.wait_d = np.empty(0, dtype=np.int64)
        self.n_seen = 0  # live arrivals fed so far (global sequence ids)
        self.k = 0
        self.t_start = 0.0
        self.finished = False

    def _serve_slice(
        self,
        fid: np.ndarray,
        t_all: np.ndarray,
        sz_all: np.ndarray,
        is_write: Optional[np.ndarray],
        starts: np.ndarray,
        d_req: np.ndarray,
        lo: int,
        hi: int,
        holds: Optional[np.ndarray],
    ) -> None:
        sl = slice(lo, hi)
        d_req[sl] = self.dispatch.serve(
            fid[sl], t_all[sl], sz_all[sl],
            None if is_write is None else is_write[sl],
            starts[sl], self.n_seen + lo,
        )
        # Queue newly served requests' completions for the telemetry feed
        # (cache hits complete at their arrival instant; requests censored
        # at the horizon never complete, like the event engine's cutoff
        # pre-empting their completion events).
        d_sl = d_req[sl]
        served = d_sl >= 0
        # Per-disk overheads/rates: resolve against disk 0 for unserved
        # (hit) slots — the value is discarded by the where() below.
        d_safe = np.where(served, d_sl, 0)
        oh_sl = self.bank.oh_a[d_safe]
        tr_sl = sz_all[sl] / self.bank.rate_a[d_safe]
        c_sl = np.where(served, starts[sl] + oh_sl + tr_sl, t_all[sl])
        r_sl = np.where(served, c_sl - t_all[sl], self.hit_lat)
        if holds is not None:
            # Scheduled runs measure responses from the *original* arrival:
            # the hold (release - arrival) rides on top of the post-release
            # response, exactly like the event dispatcher's response_offset.
            r_sl = r_sl + holds[sl]
        keep = c_sl < self.T
        self.pend_c.append(c_sl[keep])
        self.pend_seq.append(
            np.arange(self.n_seen + lo, self.n_seen + hi, dtype=np.int64)[keep]
        )
        self.pend_r.append(r_sl[keep])
        # Dispatched requests not yet in service at some future boundary
        # (the event drive pops a request from its queue exactly at service
        # start); boundaries only filter these down, never rescan.
        w = starts[sl][served]
        if w.size:
            self.wait_s = np.concatenate((self.wait_s, w))
            self.wait_d = np.concatenate((self.wait_d, d_sl[served]))

    def _boundary(self, t_end: float, last: bool) -> None:
        bank = self.bank
        c = np.concatenate(self.pend_c) if self.pend_c else np.empty(0)
        seq = (
            np.concatenate(self.pend_seq)
            if self.pend_seq
            else np.empty(0, np.int64)
        )
        r = np.concatenate(self.pend_r) if self.pend_r else np.empty(0)
        # Strictly-before: a completion landing exactly on a boundary is
        # observed in the *next* interval, matching the event engine's
        # control event (armed at the previous boundary, hence an earlier
        # FIFO id than completions scheduled during the interval) firing
        # first at the shared instant.
        done = c < t_end
        order = np.lexsort((seq[done], c[done]))
        responses = r[done][order]
        self.pend_c = [c[~done]]
        self.pend_seq = [seq[~done]]
        self.pend_r = [r[~done]]
        gaps = []
        for log in bank.gap_log:
            gaps.append(log[:])
            log.clear()
        keep = self.wait_s > t_end
        self.wait_s = self.wait_s[keep]
        self.wait_d = self.wait_d[keep]
        queue_depth = np.bincount(
            self.wait_d, minlength=len(bank.avail)
        ).astype(float)
        if last:
            self.dpm.finalize(self.t_start, t_end, responses, gaps, queue_depth)
            self.finished = True
        else:
            new_th = self.dpm.advance(
                self.t_start, t_end, responses, gaps, queue_depth
            )
            bank.push_thresholds(new_th)
            if self.dispatch.obs is not None:
                self.dispatch.obs.on_thresholds(t_end, new_th)
            self.t_start = t_end
            self.k += 1

    def feed(
        self,
        fid: np.ndarray,
        t_all: np.ndarray,
        sz_all: np.ndarray,
        is_write: Optional[np.ndarray],
        starts: np.ndarray,
        d_req: np.ndarray,
        holds: Optional[np.ndarray] = None,
    ) -> None:
        """Serve one batch of live (pre-censored, time-sorted) arrivals;
        ``holds`` (scheduled runs) rides on top of each response."""
        n = int(t_all.size)
        lo = 0
        while lo < n:
            t_end = min((self.k + 1) * self.ci, self.T)
            hi = int(np.searchsorted(t_all, t_end, side="left"))
            if hi > lo:
                self._serve_slice(
                    fid, t_all, sz_all, is_write, starts, d_req, lo, hi,
                    holds,
                )
            if hi == n:
                # Chunk exhausted mid-interval: a later chunk may still add
                # arrivals before t_end, so the boundary stays open.
                break
            self._boundary(t_end, t_end >= self.T)
            lo = hi
            if self.finished:  # pragma: no cover - arrivals are censored < T
                break
        self.n_seen += n

    def drain_to(self, t: float) -> None:
        """Process every boundary at or before ``t`` (scheduled runs: a
        deferred release landing exactly on a control boundary submits
        *after* that boundary, matching the event engine's requeue)."""
        while not self.finished:
            t_end = min((self.k + 1) * self.ci, self.T)
            if t_end > t:
                break
            self._boundary(t_end, t_end >= self.T)

    def finish(self) -> None:
        """Process every remaining boundary (trailing empty intervals
        included) and hand the final partial interval to ``dpm.finalize``."""
        while not self.finished:
            t_end = min((self.k + 1) * self.ci, self.T)
            self._boundary(t_end, t_end >= self.T)


def _interval_edges(interval: float, horizon: float) -> np.ndarray:
    """The ascending control-interval grid ``[0, ci, 2ci, ..., T]``.

    Computes the exact floats the controlled interval loop produces
    (``min((k + 1) * ci, T)``), so the per-interval power bins align with
    ``dpm.records`` bit-for-bit.
    """
    edges = [0.0]
    k = 0
    while True:
        t_end = min((k + 1) * float(interval), horizon)
        edges.append(t_end)
        if t_end >= horizon:
            break
        k += 1
    return np.asarray(edges, dtype=float)


class _SpanBinner:
    """Incremental per-interval per-disk state-overlap accumulator.

    Chunked controlled runs cannot keep every logged state span until the
    end (the span logs grow with the request count), so spans are folded
    into fixed-size ``(K, D)`` overlap matrices between chunks and the
    logs cleared.  The first batch folded under a key is stored as-is, so
    a monolithic (single-chunk) run reproduces the historical one-shot
    ``bin_spans`` call bit-for-bit; later batches accumulate, which only
    regroups the float sums — the chunked-vs-monolithic differential axis
    therefore holds the power trace to 1e-9 relative rather than exact.
    """

    __slots__ = ("edges", "num_disks", "_bins")

    def __init__(self, edges: np.ndarray, num_disks: int) -> None:
        self.edges = edges
        self.num_disks = num_disks
        self._bins: dict = {}

    def add(self, key, disks, starts, ends) -> None:
        from repro.control.telemetry import bin_spans

        mat = bin_spans(disks, starts, ends, self.edges, self.num_disks)
        prev = self._bins.get(key)
        self._bins[key] = mat if prev is None else prev + mat

    def add_entries(self, key, entries: list) -> None:
        """Fold a ``(disk, start, end)`` tuple list (caller clears it)."""
        if not entries:
            return
        arr = np.asarray(entries, dtype=float)
        self.add(key, arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2])

    def get(self, key) -> np.ndarray:
        mat = self._bins.get(key)
        if mat is None:
            return np.zeros((int(self.edges.size) - 1, self.num_disks))
        return mat


def _flush_bank_spans(
    binner: Optional[_SpanBinner], bank: _Bank, obs=None, classic=False
) -> None:
    """Drain a bank's logged transition spans and clear them in place
    (the serve loops hold bound references): fold them into the binner
    (controlled runs), emit them to an observer (clipped at the horizon,
    like every accounting path), both, or neither (then only the tail
    pass's few spans were logged).  Called between chunks
    and once at the end of the run, so span-log memory stays bounded by
    the chunk size and observer emission order is deterministic for any
    chunking.  ``classic`` names a ladder-less run's spans by their
    :class:`DiskState` (``spindown``, ``spinup``, ``standby``).
    """
    T = bank.T
    for i in range(1, bank.maxR):
        for prefix, spans in (
            ("down", bank.down_spans[i]),
            ("wake", bank.wake_spans[i]),
            ("park", bank.park_spans[i]),
        ):
            if binner is not None:
                binner.add_entries((prefix, i), spans)
            if obs is not None:
                for d, s, e in spans:
                    if s >= T:
                        continue
                    name = bank.rungs[d][i].name
                    if prefix != "park":
                        name = f"{prefix}:{name}"
                    if classic:
                        name = _CLASSIC_STATES[name].value
                    obs.on_state_span(int(d), name, s, e if e < T else T)
            spans.clear()


def _power_from_binner(binner: _SpanBinner, bank: _Bank, specs) -> np.ndarray:
    """Per-interval per-disk mean power from the binned state overlaps.

    The event engine diffs live drive energies at each boundary; this
    reconstructs the same physical quantity from the run's state spans
    (seek/active per request, logged descents, wakes and parks per rung,
    rung 0 as the window residual), so the two traces agree to
    float-accumulation noise.  Powers are per-disk row vectors — on a
    mixed fleet every disk column is weighted by its own spec and rung
    table; a disk whose table is shallower than rung ``i`` has zero
    overlap in that column, so its placeholder power never contributes.
    The per-rung terms add in descent, wake, park order, so a two-rung
    table sums exactly like the classic spin-down, spin-up, standby trace.
    """
    windows = np.diff(binner.edges)
    seek = binner.get("seek")
    active = binner.get("active")
    occupied = seek + active
    seek_p = np.array([s.seek_power for s in specs], dtype=float)
    active_p = np.array([s.active_power for s in specs], dtype=float)
    energy = seek_p[None, :] * seek + active_p[None, :] * active

    def rung_p(i, attr):
        return np.array(
            [
                getattr(rungs[i], attr) if i < len(rungs) else 0.0
                for rungs in bank.rungs
            ],
            dtype=float,
        )

    for i in range(1, bank.maxR):
        down = binner.get(("down", i))
        wake = binner.get(("wake", i))
        park = binner.get(("park", i))
        occupied = occupied + down + wake + park
        energy = (
            energy
            + rung_p(i, "down_power")[None, :] * down
            + rung_p(i, "wake_power")[None, :] * wake
            + rung_p(i, "power")[None, :] * park
        )
    idle = np.clip(windows[:, None] - occupied, 0.0, None)
    energy = energy + rung_p(0, "power")[None, :] * idle
    return energy / windows[:, None]


def simulate_fast(
    sizes: np.ndarray,
    mapping: np.ndarray,
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    stream,
    duration: float,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    ladder=None,
    metrics_mode: str = "full",
    fleet: Optional[ResolvedFleet] = None,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Simulate ``stream`` against ``mapping`` without the event loop.

    Parameters mirror what :class:`~repro.system.storage.StorageSystem`
    assembles: ``sizes``/``mapping`` are dense per-file arrays, ``threshold``
    is the effective idleness threshold (``inf`` disables spin-down) and
    ``duration`` the measurement horizon.  ``cache`` is an optional
    :class:`~repro.cache.base.BaseCache` instance (hits respond with
    ``cache_hit_latency``); ``usable_capacity`` is the per-disk byte budget
    the write allocation spends (defaults to the spec's raw capacity, like
    the dispatcher); ``write_policy`` selects the placement strategy (a
    registry name, a policy instance, or ``None`` for the paper's §1.1
    ``spinning_best_fit``).  ``dpm`` is an optional fresh
    :class:`~repro.control.controller.ThresholdController` (one per run)
    engaging the interval-segmented controlled path — ``None`` (or a
    static policy, which :meth:`StorageConfig.dpm_controller` maps to
    ``None``) keeps the fixed-threshold paths byte-identical to the
    pre-control kernel.  ``ladder`` is an optional
    :class:`~repro.disk.dpm.DpmLadder` (or one per disk): the bank runs
    its rungs instead of each spec's two-rung idle/standby table, with
    ``threshold`` or the controller vector scaling the descent schedule,
    and ``state_durations`` is keyed by the ladder's timeline labels
    instead of :class:`DiskState`.  ``metrics_mode="streaming"`` skips the
    per-request response array: the result carries a bounded
    :class:`~repro.system.metrics.ResponseStats` (exact count/mean/min/max,
    P² percentiles) and ``response_times`` is ``None``.  Returns the same
    :class:`~repro.system.metrics.SimulationResult` the event kernel
    produces, including the post-run ``final_mapping`` and — under
    control — the per-interval traces in ``extra["dpm"]``.  The caller's
    ``mapping`` is not mutated; writes allocate against an internal copy.

    ``fleet`` is an optional :class:`~repro.disk.fleet.ResolvedFleet`
    carrying per-disk specs, ladders and thresholds; when given it
    overrides ``spec``/``threshold``/``ladder`` (which remain the
    uniform-pool sugar) and the recursion runs per-disk constants —
    ``usable_capacity`` may then be a per-disk vector too.

    ``observer`` is an optional :class:`~repro.obs.hooks.RunObserver`:
    spin/ladder transition spans, cache events, controller threshold
    pushes and placement choices are emitted in simulated time
    (transition-level granularity — per-request seek/active spans would
    defeat the batching; the event engine emits those).  The bank logs
    transition spans only when an observer or a controller reads them,
    and logging never touches the arithmetic, so an observer never
    changes the result (the differential harness's observer axis asserts
    bit-identity).

    ``scheduler`` is an optional *reset* (or fresh)
    :class:`~repro.system.scheduling.RequestScheduler`: each arrival is
    assigned a release time by the scheduler's deterministic forecast and
    submitted to the disks at that release, in ``(release, arrival
    order)`` order; recorded responses measure from the original arrival
    (the hold rides on top).  Under a dynamic DPM policy the scheduler
    reads the controller's interval-constant ``slo_estimate`` at each
    arrival, and a release landing exactly on a control boundary submits
    after the boundary — both exactly like the event engine's
    ``drive_scheduled_stream``, so every registered scheduler is held to
    1e-9 cross-engine agreement by the differential harness's scheduler
    axis.  ``None`` (what :meth:`StorageConfig.request_scheduler` returns
    for the default ``"fifo"``) keeps every path byte-identical to the
    unscheduled kernel.
    """
    if not hasattr(stream, "times") or not hasattr(stream, "file_ids"):
        raise ConfigError(
            "simulate_fast needs an array-backed stream (.times/.file_ids); "
            "chunked streams go through simulate_fast_chunked"
        )
    # The stream itself is a valid single chunk (``.times``/``.file_ids``
    # and, for mixed streams, ``.kinds``) — every code path below is the
    # chunked core, so monolithic and chunked runs cannot drift apart.
    return _simulate_chunks(
        sizes, mapping, spec, num_disks, threshold, (stream,), duration,
        label, cache, cache_hit_latency, usable_capacity, write_policy,
        dpm, ladder, metrics_mode, fleet, observer, scheduler,
    )


def simulate_fast_chunked(
    sizes: np.ndarray,
    mapping: np.ndarray,
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    stream,
    duration: Optional[float] = None,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    ladder=None,
    metrics_mode: str = "full",
    fleet: Optional[ResolvedFleet] = None,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Out-of-core variant of :func:`simulate_fast` over a chunked stream.

    ``stream`` follows the ``ChunkedStream`` protocol of
    :mod:`repro.workload.chunked`: ``iter_chunks()`` yields time-sorted
    chunks with ``.times``/``.file_ids`` (and optionally ``.kinds``),
    globally non-decreasing across chunks (validated here, with a
    :class:`~repro.errors.SimulationError` naming the offending boundary).
    Per-disk queue/power state, cache-admission heaps, write placements and
    the DPM controller's interval position all carry across chunk
    boundaries, so the result is bit-identical to materializing the whole
    stream and calling :func:`simulate_fast` — the chunked axis of the
    differential harness asserts exactly that (responses, energies,
    mappings and spin counters; the controlled per-interval power trace
    agrees to 1e-9 relative, see :class:`_SpanBinner`).

    With the default ``metrics_mode="full"`` the per-request response
    array is still accumulated (O(completions) memory); pass
    ``metrics_mode="streaming"`` for bounded memory — peak usage is then
    O(chunk + files + disks), independent of the request count.
    ``duration`` defaults to the stream's ``duration`` attribute.

    ``scheduler`` composes with chunking: a request held across a chunk
    boundary stays in the pending release heap (bounded by the number of
    simultaneously-held requests, not the stream length), and the global
    ``(release, arrival order)`` submission sequence is invariant to the
    chunk partition, so scheduled chunked runs stay bit-identical to the
    monolithic call.
    """
    if not hasattr(stream, "iter_chunks"):
        raise ConfigError(
            "simulate_fast_chunked needs a chunked stream (.iter_chunks()); "
            "array-backed streams can be adapted with .chunks(n)"
        )
    if duration is None:
        duration = getattr(stream, "duration", None)
        if duration is None:
            raise ConfigError(
                "duration is required for chunked streams that do not carry "
                "a duration attribute"
            )
    return _simulate_chunks(
        sizes, mapping, spec, num_disks, threshold, stream.iter_chunks(),
        float(duration), label, cache, cache_hit_latency, usable_capacity,
        write_policy, dpm, ladder, metrics_mode, fleet, observer, scheduler,
    )


def _simulate_chunks(
    sizes: np.ndarray,
    mapping: np.ndarray,
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    chunks,
    duration: float,
    label: str,
    cache,
    cache_hit_latency: float,
    usable_capacity,
    write_policy,
    dpm,
    ladder,
    metrics_mode: str,
    fleet: Optional[ResolvedFleet] = None,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Shared replay core: one pass over ``chunks`` with full carry state.

    Every accumulator that the monolithic kernel used to compute in one
    vectorized shot at the end (per-disk seek/active bincounts, response
    assembly, per-interval power bins) is maintained incrementally with
    operations chosen for partition invariance — serial ``np.add.at``
    scatter-adds continue ``np.bincount``'s left-to-right reduction exactly,
    so a single-chunk pass reproduces the historical monolithic results
    bit-for-bit and a many-chunk pass reproduces the single-chunk one.
    """
    if duration <= 0:
        raise ConfigError("duration must be positive")
    if metrics_mode not in ("full", "streaming"):
        raise ConfigError(
            f"metrics_mode must be 'full' or 'streaming', got {metrics_mode!r}"
        )
    T = float(duration)
    sizes = np.asarray(sizes, dtype=float)
    mapping = np.asarray(mapping, dtype=np.int64).copy()
    if mapping.shape != sizes.shape:
        raise SimulationError("mapping and sizes must align per file id")
    if mapping.size and int(mapping.max()) >= num_disks:
        raise SimulationError(
            f"mapping references disk {int(mapping.max())} but the pool has "
            f"only {num_disks} disks"
        )
    # A resolved fleet overrides the uniform spec/threshold/ladder sugar
    # with per-disk values; everything downstream runs per-disk vectors
    # either way (a uniform pool is a tiled vector, bit-identical to the
    # historical scalar constants).
    if fleet is not None:
        if fleet.num_disks != num_disks:
            raise ConfigError(
                f"fleet resolves {fleet.num_disks} disks but the pool has "
                f"{num_disks}"
            )
        specs = fleet.specs
        ladders = fleet.ladders if fleet.has_ladders else None
        th_in = fleet.thresholds
        homogeneous = fleet.homogeneous_specs
    else:
        specs = (spec,) * num_disks
        ladders = ladder
        th_in = threshold
        homogeneous = True
    classic = ladders is None
    if usable_capacity is None:
        usable = (
            specs[0].capacity
            if homogeneous
            else np.array([s.capacity for s in specs], dtype=float)
        )
    elif np.ndim(usable_capacity) == 0:
        usable = float(usable_capacity)
    else:
        usable = np.asarray(usable_capacity, dtype=float)
    free = initial_free_bytes(mapping, sizes, usable, num_disks)
    validate_free_bytes(free, usable)
    policy = make_placement_policy(write_policy)
    policy.reset(num_disks)

    streaming = metrics_mode == "streaming"
    obs = active_observer(observer)

    if dpm is not None and dpm.num_disks != num_disks:
        raise ConfigError(
            f"controller sized for {dpm.num_disks} disks but the pool "
            f"has {num_disks}"
        )
    bank = _Bank(
        num_disks,
        th_in if dpm is None else dpm.thresholds,
        specs,
        T,
        ladder=ladders,
        interval=None if dpm is None else dpm.interval,
        log_spans=dpm is not None or obs is not None,
    )
    # The per-disk byte budget the placement context exposes (same values
    # the event dispatcher hands its policies).
    bank.cap = per_disk_capacities(usable, num_disks)
    dispatch = _Dispatch(bank, policy, mapping, free, sizes, cache, obs)
    driver: Optional[_ControlledDriver] = None
    binner: Optional[_SpanBinner] = None
    if dpm is not None:
        driver = _ControlledDriver(dispatch, dpm, cache_hit_latency)
        binner = _SpanBinner(_interval_edges(dpm.interval, T), num_disks)

    # Persistent accumulators (fixed size in the pool, not the stream).
    seek_time = np.zeros(num_disks, dtype=float)
    active_time = np.zeros(num_disks, dtype=float)
    req_count = np.zeros(num_disks, dtype=np.int64)
    hit_lat = float(cache_hit_latency)
    arrivals = 0
    hits = 0
    acc = ResponseAccumulator() if streaming else None
    resp_c_parts: List[np.ndarray] = []
    resp_v_parts: List[np.ndarray] = []
    hit_t_parts: List[np.ndarray] = []
    hit_v_parts: List[np.ndarray] = []

    # -- slack-aware request scheduling (repro.system.scheduling) --------------
    # Arrivals are assigned release times by the scheduler's deterministic
    # forecast (in arrival order, reading the controller's interval-constant
    # slo_estimate under control) and submitted to the disks in global
    # (release, arrival-seq) order — the exact submission sequence the event
    # engine's drive_scheduled_stream produces.  Pending releases ride a heap
    # across interval and chunk boundaries; recorded responses measure from
    # the original arrival (the hold rides on top of the post-release
    # response).  scheduler=None serves each chunk as it arrives.
    sched_pending: List[tuple] = []  # (release, seq, fid, is_write, hold)
    sched_seq = 0

    def _schedule(fid_l, t_l, w_l, lo, hi, est) -> None:
        """Assign releases to arrivals [lo, hi) (one open interval)."""
        nonlocal sched_seq
        rel = scheduler.release
        for i in range(lo, hi):
            t_i = t_l[i]
            f_i = fid_l[i]
            w_i = False if w_l is None else w_l[i]
            r = rel(t_i, f_i, WRITE if w_i else READ, slo_estimate=est)
            if r < T:
                # A release at or past the horizon never submits (the
                # event engine's URGENT stop pre-empts it) — censored,
                # neither an arrival nor a completion.
                heappush(sched_pending, (r, sched_seq, f_i, w_i, r - t_i))
            sched_seq += 1

    def _released(limit: float, inclusive: bool) -> Optional[tuple]:
        """Pop pending releases up to ``limit`` — in (release, seq) order —
        as one batch (``None`` if there are none)."""
        rel_l: List[float] = []
        fid_fl: List[int] = []
        w_fl: List[bool] = []
        h_fl: List[float] = []
        while sched_pending:
            r0 = sched_pending[0][0]
            if (r0 > limit) if inclusive else (r0 >= limit):
                break
            r0, _, f0, w0, h0 = heappop(sched_pending)
            rel_l.append(r0)
            fid_fl.append(f0)
            w_fl.append(w0)
            h_fl.append(h0)
        if not rel_l:
            return None
        w_arr = np.asarray(w_fl, dtype=bool)
        return (
            np.asarray(fid_fl, dtype=np.int64),
            np.asarray(rel_l, dtype=float),
            w_arr if w_arr.any() else None,
            np.asarray(h_fl, dtype=float),
        )

    def _batches():
        """Yield ``(file ids, times, is_write, holds)`` batches in
        submission order: each chunk as it arrives (``holds`` ``None``),
        or each run of scheduled releases, interleaved with the control
        boundaries they straddle.  Resumes only once the previous batch
        is served, so boundaries see every earlier completion."""
        prev_last: Optional[float] = None
        for chunk in chunks:
            t_all = np.asarray(chunk.times, dtype=float)
            n = int(t_all.size)
            if not n:
                continue
            # Every path relies on time-sorted arrivals (stable per-disk
            # grouping, the global merge); the event engine's drive_stream
            # raises on out-of-order times, so match it rather than
            # silently reordering — within each chunk and across chunk
            # boundaries.
            if n > 1 and bool(np.any(np.diff(t_all) < 0)):
                bad = int(np.argmax(np.diff(t_all) < 0)) + 1
                raise SimulationError(
                    "request stream times must be non-decreasing: got "
                    f"{t_all[bad]} after {t_all[bad - 1]}"
                )
            if prev_last is not None and t_all[0] < prev_last:
                raise SimulationError(
                    "chunked stream is not globally time-sorted: a chunk "
                    f"starts at {t_all[0]} but the previous chunk ended at "
                    f"{prev_last}"
                )
            prev_last = float(t_all[-1])
            # The event kernel's cutoff is strict: the URGENT stop event at
            # T pre-empts arrival and completion events scheduled at
            # exactly T.
            censored = bool(t_all[-1] >= T)
            if censored:
                cut = int(np.searchsorted(t_all, T, side="left"))
                if not cut:
                    break
                t_all = t_all[:cut]
                n = cut
            fid = np.asarray(chunk.file_ids, dtype=np.int64)[:n]
            kinds = getattr(chunk, "kinds", None)
            is_write: Optional[np.ndarray] = None
            if kinds is not None:
                w = np.asarray(kinds)[:n] == WRITE
                if w.any():
                    is_write = w
            if arrivals:
                # Bounded memory: fold the spans logged so far before the
                # next chunk grows the logs (emission order is
                # chunking-invariant because spans are only ever appended
                # in simulation order).  A single-chunk run never gets here
                # and takes the one-shot fold at the end, staying bit-exact
                # with one-shot binning.
                _flush_bank_spans(binner, bank, obs, classic)
            if scheduler is None:
                yield fid, t_all, is_write, None
            else:
                t_l = t_all.tolist()
                fid_list = fid.tolist()
                w_l = is_write.tolist() if is_write is not None else None
                if driver is not None:
                    # Interval-segmented: arrivals in one control interval
                    # all read the same slo_estimate, and a boundary is
                    # processed — with every release strictly before it
                    # served first — as soon as an arrival at or past it is
                    # seen.
                    pos = 0
                    while pos < n:
                        t_edge = min((driver.k + 1) * driver.ci, T)
                        hi = int(np.searchsorted(t_all, t_edge, side="left"))
                        if hi > pos:
                            _schedule(
                                fid_list, t_l, w_l, pos, hi, dpm.slo_estimate
                            )
                        if hi == n:
                            # Chunk exhausted mid-interval: a later chunk
                            # may still add arrivals before t_edge, so the
                            # boundary stays open.
                            break
                        batch = _released(t_edge, False)
                        if batch is not None:
                            yield batch
                        driver._boundary(t_edge, t_edge >= T)
                        pos = hi
                else:
                    _schedule(fid_list, t_l, w_l, 0, n, None)
                # Releases at or before the chunk's last arrival are final:
                # every future arrival (hence every future release) is at or
                # after it, and at a tie the smaller arrival seq is served
                # first either way — so the global submission order is
                # invariant to the chunk partition.
                batch = _released(float(t_all[-1]), True)
                if batch is not None:
                    yield batch
            if censored:
                # Chunks are globally sorted, so everything after this
                # chunk's cut is at or past the horizon — censored, like
                # the event engine's URGENT stop discarding queued arrivals.
                break
        # Requests still held past the last arrival: interleave the
        # remaining releases (all < T) with the control boundaries they
        # straddle — a release exactly on a boundary submits after it.
        while sched_pending:
            if driver is not None:
                driver.drain_to(sched_pending[0][0])
            batch = _released(
                T if driver is None else min((driver.k + 1) * driver.ci, T),
                False,
            )
            if batch is not None:
                yield batch

    # Serve and account each batch through the driver (under control) or
    # the dispatch.  The body is inline, not a function, so the batch
    # arrays stay alive until the next batch rebinds them: freed before the
    # end-of-run response assembly, their heap space takes that assembly
    # and the allocator returns the heap top to the system, so every later
    # run in the same process has to fault those pages back in.
    for fid_c, t_c, w_c, holds_c in _batches():
        n_c = int(t_c.size)
        sz_c = sizes[fid_c]
        starts = np.empty(n_c, dtype=float)
        if driver is not None:
            d_req = np.empty(n_c, dtype=np.int64)
            driver.feed(fid_c, t_c, sz_c, w_c, starts, d_req, holds_c)
        else:
            d_req = dispatch.serve(fid_c, t_c, sz_c, w_c, starts, arrivals)
        served = d_req >= 0
        n_hits = n_c - int(served.sum())
        if n_hits:
            d_s = d_req[served]
            s_s = starts[served]
            sz_s = sz_c[served]
            t_s = t_c[served]
        else:
            d_s, s_s, sz_s, t_s = d_req, starts, sz_c, t_c
        # Per-request overhead/transfer resolved against the serving
        # disk's own spec (identical to the uniform scalars on a
        # homogeneous pool).
        oh_s = bank.oh_a[d_s]
        tr_s = sz_s / bank.rate_a[d_s]
        # Service accounting truncated at the horizon; the serial scatter-
        # add continues np.bincount's reduction exactly across batches.
        np.add.at(seek_time, d_s, np.clip(T - s_s, 0.0, oh_s))
        np.add.at(active_time, d_s, np.clip(T - (s_s + oh_s), 0.0, tr_s))
        req_count += np.bincount(d_s, minlength=num_disks)
        if binner is not None:
            binner.add("seek", d_s, s_s, s_s + oh_s)
            binner.add("active", d_s, s_s + oh_s, s_s + oh_s + tr_s)
        completion = s_s + oh_s + tr_s
        done = completion < T
        # Scheduled runs measure responses from the original arrival: the
        # hold rides on top of the post-release response.
        h_s = None
        hit_v = hit_lat
        if holds_c is not None:
            h_s = holds_c[served] if n_hits else holds_c
            hit_v = hit_lat + holds_c[~served]
        if streaming:
            # Feed responses in arrival order (served completions where
            # they complete before T, hits at the hit latency) — the same
            # per-batch formula for every partition, so the accumulator's
            # serial reductions are partition-invariant.
            vals = np.empty(n_c, dtype=float)
            ok = np.ones(n_c, dtype=bool)
            vals[served] = completion - t_s if h_s is None else (
                (completion - t_s) + h_s
            )
            ok[served] = done
            if n_hits:
                vals[~served] = hit_v
            acc.add(vals[ok])
        else:
            c_done = completion[done]
            resp = c_done - t_s[done]
            if h_s is not None:
                resp += h_s[done]
            resp_c_parts.append(c_done)
            resp_v_parts.append(resp)
            if n_hits:
                hit_t_parts.append(t_c[~served])
                hit_v_parts.append(np.full(n_hits, hit_v))
        arrivals += n_c
        hits += n_hits
    if driver is not None:
        driver.finish()
    if cache is not None:
        # Admissions pending at the horizon never happen (the event
        # kernel's stop event pre-empts completions at T).
        dispatch.admit_pending(T)
        if obs is not None:
            cache.evict_hook = None

    # -- vectorized accounting over the banked state ---------------------------

    # Trailing idleness: a disk whose post-drain gap outlasts its threshold
    # descends before the horizon; then the remaining spans, including the
    # episodes the tail pass just logged.
    spinups, spindowns = bank.apply_tail()
    _flush_bank_spans(binner, bank, obs, classic)

    if streaming:
        stats = acc.result()
        response_times = None
        completions = int(stats.count)
    else:
        stats = None
        resp_completion = (
            np.concatenate(resp_c_parts) if resp_c_parts else np.empty(0)
        )
        resp_values = (
            np.concatenate(resp_v_parts) if resp_v_parts else np.empty(0)
        )
        if hits:
            resp_completion = np.concatenate(
                [resp_completion] + hit_t_parts
            )
            resp_values = np.concatenate([resp_values] + hit_v_parts)
        # Report response times in completion order, like the dispatcher
        # does (stable at ties: served completions before cache hits).
        response_times = resp_values[
            np.argsort(resp_completion, kind="stable")
        ]
        completions = int(response_times.size)

    # Residencies are keyed by timeline label; the accumulation order
    # (rung 0, parks, seek, active, wakes, descents) makes a two-rung
    # table's float arithmetic term-for-term the classic Figure 1 sum
    # (idle, standby, seek, active, spin-up, spin-down).  Disks are grouped
    # by their (rung table, spec) pair and each group runs the rung-major
    # arithmetic on its own sub-vectors: a uniform pool is a single group,
    # while a mixed pool prices every drive against its own rung depth
    # and power table.
    groups: Dict[tuple, List[int]] = {}
    for d in range(num_disks):
        groups.setdefault((bank.rungs[d], specs[d]), []).append(d)
    energy_per_disk = np.zeros(num_disks, dtype=float)
    per_state: Dict = {}
    for (rungs, spec_g), idx_list in groups.items():
        idx = np.asarray(idx_list, dtype=np.int64)
        R = len(rungs)

        def residency(table, i):
            return np.array([table[d][i] for d in idx_list], dtype=float)

        park = [residency(bank.park_t, i) for i in range(R)]
        down = [residency(bank.down_t, i) for i in range(R)]
        wake = [residency(bank.wake_t, i) for i in range(R)]
        occupied = seek_time[idx] + active_time[idx]
        for arr in down[1:] + wake[1:] + park[1:]:
            occupied = occupied + arr
        # (label, per-disk seconds, watts), in accumulation order.
        idle = np.clip(T - occupied, 0.0, None)
        terms = [(rungs[0].name, idle, rungs[0].power)]
        terms += [(r.name, park[i], r.power) for i, r in enumerate(rungs) if i]
        terms += [
            ("seek", seek_time[idx], spec_g.seek_power),
            ("active", active_time[idx], spec_g.active_power),
        ]
        terms += [
            (f"wake:{r.name}", wake[i], r.wake_power)
            for i, r in enumerate(rungs) if i
        ]
        terms += [
            (f"down:{r.name}", down[i], r.down_power)
            for i, r in enumerate(rungs) if i
        ]
        e_g = np.zeros(len(idx_list), dtype=float)
        for label, per_disk, watts in terms:
            e_g += watts * per_disk
            state = _CLASSIC_STATES[label] if classic else label
            per_state.setdefault(state, np.zeros(num_disks, dtype=float))[
                idx
            ] = per_disk
        energy_per_disk[idx] = e_g
    state_durations = {
        state: float(per_disk.sum())
        for state, per_disk in per_state.items()
        if per_disk.any()
    }

    extra = {}
    if dpm is not None:
        dpm.attach_power(_power_from_binner(binner, bank, specs))
        extra["dpm"] = dpm.extra()

    return SimulationResult(
        algorithm=label,
        duration=T,
        num_disks=num_disks,
        energy=float(energy_per_disk.sum()),
        energy_per_disk=energy_per_disk,
        state_durations=state_durations,
        response_times=response_times,
        arrivals=arrivals,
        completions=completions,
        spinups=int(spinups.sum()),
        spindowns=int(spindowns.sum()),
        always_on_energy=(
            num_disks * PowerModel(specs[0]).always_on_energy(T)
            if homogeneous
            else float(
                sum(PowerModel(s).always_on_energy(T) for s in specs)
            )
        ),
        cache_stats=cache.stats if cache is not None else None,
        requests_per_disk=req_count,
        spinups_per_disk=spinups,
        final_mapping=mapping,
        extra=extra,
        response_stats=stats,
    )
