"""The write-placement spin view, in both engines.

Both engines hand the placement policy a per-disk "spinning" mask.  The
fast kernel's :meth:`_Bank.spinning_mask` computes it in one vector
expression for static thresholds, from the instant-start snapshot when a
disk was served at the query instant; the event dispatcher reads each
live drive.  These tests pin each against an independent per-disk
reference.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.disk.specs import ST3500630AS, WD10EADS
from repro.disk.array import DiskArray
from repro.disk.dpm import make_dpm_ladder
from repro.disk.drive import DiskDrive
from repro.sim import Environment
from repro.sim.fastkernel import _Bank
from repro.system.dispatcher import Dispatcher

# Whole and half seconds: serves and queries share instants often.
_LATTICE = st.integers(min_value=0, max_value=80).map(lambda k: k / 2)
_THRESHOLD = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, math.inf])
_SPECS = [
    ST3500630AS,
    WD10EADS,
    # Zero-length transitions (break-even 0): spec-built tables only.
    ST3500630AS.with_overrides(spinup_time=0.0, spindown_time=0.0),
]


def deepest_descent(spec, ladder, threshold):
    """``(entry, down)`` of the deepest rung for one disk, or ``None`` if
    it never descends — derived from the spec/ladder, not the bank."""
    if ladder is None:
        entry, down = threshold, spec.spindown_time
    else:
        if len(ladder.rungs) < 2:
            return None
        entries = ladder.scaled_entries(threshold)
        if math.isinf(entries[1]):
            return None
        entry, down = entries[-1], ladder.rungs[-1].down_time
    return None if math.isinf(entry) else (entry, down)


def reference_mask(bank, t, descents):
    """Per-disk spin state at ``t`` from the bank's scalar lists.

    A disk served at ``t`` itself is judged by its state when the instant
    began (``pv``); every other disk by its current ``avail``.  A drained
    disk is spinning until ``(avail + entry) + down`` of its deepest rung.
    """
    out = []
    for d, descent in enumerate(descents):
        a = bank.pv[d] if bank.pt[d] == t else bank.avail[d]
        out.append(descent is None or t < (a + descent[0]) + descent[1])
    return np.array(out, dtype=bool)


@st.composite
def bank_scripts(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        thresholds = [math.inf] * n  # a never-descending pool
    else:
        thresholds = draw(st.lists(_THRESHOLD, min_size=n, max_size=n))
    specs = draw(st.lists(st.sampled_from(_SPECS), min_size=n, max_size=n))
    # Spec-built two-rung tables, or a mix of two- and multi-rung ladders
    # (ladders need a transition, so they use the Table 2 specs).
    ladders = None
    if draw(st.booleans()):
        names = draw(
            st.lists(
                st.sampled_from(["two_state", "nap", "drpm4"]),
                min_size=n, max_size=n,
            )
        )
        specs = [s if s.spinup_time else ST3500630AS for s in specs]
        ladders = [make_dpm_ladder(l, s) for l, s in zip(names, specs)]
    # Steps in time order: ("serve", disk, transfer) or ("query",).
    times = sorted(draw(st.lists(_LATTICE, min_size=1, max_size=40)))
    steps = []
    for t in times:
        if draw(st.booleans()):
            d = draw(st.integers(min_value=0, max_value=n - 1))
            tr = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
            steps.append((t, "serve", d, tr))
        else:
            steps.append((t, "query", None, None))
    return n, thresholds, specs, ladders, steps


@given(bank_scripts())
def test_bank_spinning_mask_matches_reference(script):
    n, thresholds, specs, ladders, steps = script
    bank = _Bank(n, thresholds, specs, horizon=1e6, ladder=ladders)
    descents = [
        deepest_descent(s, None if ladders is None else ladders[d], th)
        for d, (s, th) in enumerate(zip(specs, thresholds))
    ]
    for t, op, d, tr in steps:
        if op == "serve":
            bank.serve(d, t, tr)
        mask = bank.spinning_mask(t)
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask, reference_mask(bank, t, descents)), (t, op)


def test_bank_tie_path_reads_instant_start_state():
    """A disk woken at exactly ``t`` still reads as spun down at ``t``."""
    for ladder in (None, make_dpm_ladder("drpm4", ST3500630AS)):
        bank = _Bank(2, 1.0, ST3500630AS, horizon=1e6, ladder=ladder)
        t = 100.0  # both disks drained at 0 and are long parked
        assert not bank.spinning_mask(t).any()
        bank.serve(0, t, 1.0)  # disk 0 starts waking at t
        assert not bank.spinning_mask(t).any()  # the tie path: still asleep
        assert bank.spinning_mask(t + 0.5).tolist() == [True, False]


def _reference_spinning(drive):
    if drive.ladder is None:
        return drive.state.spinning
    rungs = drive.ladder.rungs
    return not (len(rungs) > 1 and drive.state == rungs[-1].name)


def _probe_run(ladder):
    env = Environment()
    spec = ST3500630AS.with_overrides(spinup_time=2.0, spindown_time=1.0)
    array = DiskArray(
        env, spec, 4, idleness_threshold=1.5,
        ladder=make_dpm_ladder(ladder, spec),
    )
    sizes = np.full(12, 50e6)
    mapping = np.arange(12, dtype=np.int64) % 4
    dispatcher = Dispatcher(env, array, mapping, sizes)
    rng = np.random.default_rng(5)
    arrivals = np.cumsum(rng.choice([0.0, 0.5, 2.0, 6.0, 20.0], size=120))

    def feed():
        for t, f in zip(arrivals.tolist(), rng.integers(0, 12, size=120).tolist()):
            if t > env.now:
                yield env.timeout(t - env.now)
            dispatcher.submit(f)

    views = []

    def probe():
        while env.now < arrivals[-1]:
            yield env.timeout(0.25)
            views.append(
                (
                    dispatcher.spin_view().tolist(),
                    [d.spinning for d in array.disks],
                    [_reference_spinning(d) for d in array.disks],
                )
            )

    env.process(feed())
    env.process(probe())
    env.run(until=float(arrivals[-1]) + 30.0)
    return array, views


def test_event_spin_view_matches_drives_mid_run():
    for ladder in (None, "drpm4"):
        array, views = _probe_run(ladder)
        assert all(type(d) is DiskDrive for d in array.disks)
        assert all((d.ladder is None) == (ladder is None) for d in array.disks)
        assert views
        for view, spinning, reference in views:
            assert view == spinning == reference
        # The run really visited both answers.
        seen = {flag for view, _, _ in views for flag in view}
        assert seen == {True, False}, ladder
