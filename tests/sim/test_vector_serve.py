"""The busy-period solve serves a disk group bit for bit like the loop.

:meth:`_Bank.solve_batch` is the NumPy path that :func:`_serve_segment`
takes for static-threshold, unlogged groups; :meth:`_Bank.serve_batch` is
the scalar loop every other bank runs.  Twin banks serve the same batches,
one through each, and must end with bit-equal service starts and state:
``avail``, ``load``, the instant-start snapshot ``pt``/``pv``, spin counts
and every per-rung residency.  Floats are compared by ``float.hex``, so
``-0.0``/``0.0`` or a one-ulp drift fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.dpm import make_dpm_ladder
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.sim import fastkernel
from repro.sim.fastkernel import _Bank, _serve_segment

_SPECS = [
    ST3500630AS,
    WD10EADS,
    ST3500630AS.with_overrides(spinup_time=9.0, spindown_time=4.0),
    # Zero-length transitions (break-even 0): spec-built tables only.
    ST3500630AS.with_overrides(spinup_time=0.0, spindown_time=0.0),
]
_THRESHOLDS = [0.0, 0.5, 1.0, 2.5, 7.0, 30.0, math.inf]


def _hex(values):
    return [float(v).hex() for v in values]


def state(bank):
    """Every bit of state a serve leaves, floats as hex strings."""
    return (
        _hex(bank.avail), _hex(bank.load), _hex(bank.pt), _hex(bank.pv),
        list(bank.n_up), list(bank.n_down),
        [_hex(r) for r in bank.park_t],
        [_hex(r) for r in bank.down_t],
        [_hex(r) for r in bank.wake_t],
    )


def twin_banks(n, thresholds, specs, ladders, horizon):
    return tuple(
        _Bank(n, thresholds, specs, horizon, ladder=ladders, log_spans=False)
        for _ in range(2)
    )


def serve_both(solved, looped, d, ts, trs):
    """One batch through each path; returns both start lists."""
    got = solved.solve_batch(
        d, np.asarray(ts, dtype=float), np.asarray(trs, dtype=float)
    )
    want = looped.serve_batch(d, list(ts), list(trs))
    return _hex(got), _hex(want)


@st.composite
def pools(draw):
    """Disks with spec-built two-rung tables or nap/drpm4/two_state
    ladders, each with a threshold from 0 to inf."""
    n = draw(st.integers(min_value=1, max_value=3))
    specs = draw(st.lists(st.sampled_from(_SPECS), min_size=n, max_size=n))
    thresholds = draw(
        st.lists(st.sampled_from(_THRESHOLDS), min_size=n, max_size=n)
    )
    ladders = None
    if draw(st.booleans()):
        names = draw(
            st.lists(
                st.sampled_from(["nap", "drpm4", "two_state"]),
                min_size=n, max_size=n,
            )
        )
        # Ladders need a transition, so they use the Table 2 specs.
        specs = [s if s.spinup_time else ST3500630AS for s in specs]
        ladders = [make_dpm_ladder(l, s) for l, s in zip(names, specs)]
    return n, thresholds, specs, ladders


@st.composite
def batch(draw, lo):
    """One FIFO run starting at or after ``lo``: whole-second arrivals and
    services (exact ``t == avail`` ties, same-instant groups) or
    continuous ones, from one request up."""
    m = draw(st.integers(min_value=1, max_value=60))
    if draw(st.booleans()):
        gaps = draw(
            st.lists(
                st.sampled_from([0, 0, 1, 2, 3, 5, 40]), min_size=m, max_size=m
            )
        )
        trs = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        ts = (math.ceil(lo) + np.cumsum(gaps)).astype(float)
        return ts.tolist(), [float(x) for x in trs]
    gaps = draw(
        st.lists(
            st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False),
            min_size=m, max_size=m,
        )
    )
    trs = draw(
        st.lists(
            st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
            min_size=m, max_size=m,
        )
    )
    return (lo + np.cumsum(gaps)).tolist(), trs


@given(pools(), st.data())
@settings(max_examples=150)
def test_solve_matches_loop(pool, data):
    n, thresholds, specs, ladders = pool
    solved, looped = twin_banks(n, thresholds, specs, ladders, 4_000.0)
    # Several consecutive batches per disk, so state is carried in; a
    # batch may open at the carried instant itself.
    for _ in range(data.draw(st.integers(1, 4))):
        for d in range(n):
            if data.draw(st.booleans()):
                lo = max(solved.pt[d], 0.0) + data.draw(
                    st.sampled_from([0.0, 0.5, 3.0, 100.0])
                )
                ts, trs = data.draw(batch(lo))
                got, want = serve_both(solved, looped, d, ts, trs)
                assert got == want
    assert state(solved) == state(looped)


def _seeded_case(seed):
    """A random pool and batch script; about half the disks have few long
    gaps, so runs both descend and queue behind wakes."""
    rng = np.random.default_rng(seed)
    n = 3
    if seed % 3:
        names = rng.choice(["nap", "drpm4", "two_state"], n).tolist()
        specs = ST3500630AS
        ladders = [make_dpm_ladder(x, ST3500630AS) for x in names]
    else:
        specs = [_SPECS[i] for i in rng.integers(0, len(_SPECS), n)]
        ladders = None
    thresholds = rng.choice([0.0, 2.0, 10.0, 53.3, math.inf], n).tolist()
    batches = []
    for k in range(3):
        for d in range(n):
            m = int(rng.integers(1, 400))
            lo = 2_000.0 * k
            if seed % 2:
                ts = np.sort(rng.integers(lo, lo + 2_000, m)).astype(float)
                trs = rng.integers(0, 5, m).astype(float)
            else:
                ts = np.sort(rng.uniform(lo, lo + 2_000, m))
                trs = rng.exponential(rng.choice([0.5, 3.0, 8.0]), m)
            batches.append((d, ts.tolist(), trs.tolist()))
    return n, thresholds, specs, ladders, batches


def test_solve_matches_loop_seeded_and_walks(monkeypatch):
    """Seeded twins, lattice and continuous; the sweep is not vacuous: it
    descends, repairs with the scalar walk and queues on ties."""
    walks = []
    walk = _Bank._walk

    def counting_walk(self, *args):
        walks.append(args[-2])
        return walk(self, *args)

    monkeypatch.setattr(_Bank, "_walk", counting_walk)
    descents = 0
    for seed in range(40):
        n, thresholds, specs, ladders, batches = _seeded_case(seed)
        solved, looped = twin_banks(n, thresholds, specs, ladders, 6_500.0)
        for d, ts, trs in batches:
            got, want = serve_both(solved, looped, d, ts, trs)
            assert got == want, seed
        assert state(solved) == state(looped), seed
        descents += sum(solved.n_down)
        # The tails agree too (clipped at the horizon).
        assert solved.apply_tail()[1].tolist() == looped.apply_tail()[1].tolist()
        assert state(solved) == state(looped), seed
    assert descents > 0
    assert len(walks) > 10


def test_multi_rung_descent_mid_transition():
    """Arrivals during each rung's descent wait for it, then wake from
    that rung, with a request queued behind every wake; the solve picks
    the same rungs and the same instants."""
    ladder = make_dpm_ladder("drpm4", ST3500630AS)
    entries = ladder.scaled_entries(4.0)
    scratch = _Bank(1, 4.0, ST3500630AS, 1e6, ladder=ladder)
    ts = [0.0]
    scratch.serve(0, 0.0, 1.0)
    for e, rung in zip(entries[1:], ladder.rungs[1:]):
        t = scratch.avail[0] + e + 0.5 * rung.down_time
        for u in (t, t + 0.25):
            scratch.serve(0, u, 1.0)
            ts.append(u)
    solved, looped = twin_banks(1, 4.0, ST3500630AS, ladder, 1e6)
    got, want = serve_both(solved, looped, 0, ts, [1.0] * len(ts))
    assert got == want
    assert state(solved) == state(looped)
    # One descent per rung, each to that rung: 1 + 2 + 3 transitions.
    assert solved.n_up == [len(entries) - 1]
    assert solved.n_down == [sum(range(len(entries)))]


def test_zero_transition_spec_and_inf_threshold():
    spec = ST3500630AS.with_overrides(spinup_time=0.0, spindown_time=0.0)
    solved, looped = twin_banks(2, [0.0, math.inf], [spec, spec], None, 1e6)
    ts = np.arange(0.0, 300.0, 1.5).tolist()
    trs = [1.0 if i % 3 else 0.0 for i in range(len(ts))]
    for d in (0, 1):
        got, want = serve_both(solved, looped, d, ts, trs)
        assert got == want
    assert state(solved) == state(looped)
    assert solved.n_down[0] > 0 and solved.n_down[1] == 0


class TestServeSegmentRouting:
    """:func:`_serve_segment` sends a static, unlogged group to the solve
    only when it is large and has few long gaps; everything else keeps the
    loop, and both routes give the loop's bits."""

    @staticmethod
    def _segment(n_quiet, n_busy, rng):
        quiet = np.sort(rng.uniform(0.0, 1e5, n_quiet))  # long gaps
        busy = np.cumsum(rng.exponential(2.0, n_busy))  # few long gaps
        t = np.concatenate((quiet, busy))
        d = np.concatenate(
            (np.zeros(n_quiet, np.int64), np.ones(n_busy, np.int64))
        )
        order = np.argsort(t, kind="stable")
        return d[order], t[order], rng.exponential(1.5, t.size)

    def _route(self, monkeypatch, bank, d, t, tr):
        routed = []
        solve = _Bank.solve_batch

        def spy(self, disk, ts, trs):
            routed.append(disk)
            return solve(self, disk, ts, trs)

        monkeypatch.setattr(_Bank, "solve_batch", spy)
        starts = np.empty(t.size)
        _serve_segment(bank, d, t, tr, starts)
        monkeypatch.undo()
        return routed, starts

    def _reference(self, bank, d, t, tr):
        starts = np.empty(t.size)
        for disk in (0, 1):
            sel = np.flatnonzero(d == disk)
            starts[sel] = bank.serve_batch(
                disk, t[sel].tolist(), tr[sel].tolist()
            )
        return starts

    @pytest.mark.parametrize("interval, log_spans", [
        (None, False), (None, True), (500.0, False),
    ])
    def test_only_static_unlogged_banks_solve(self, monkeypatch, interval, log_spans):
        rng = np.random.default_rng(3)
        d, t, tr = self._segment(300, 4 * fastkernel._SOLVE_MIN_GROUP, rng)
        bank, ref = (
            _Bank(2, 53.3, ST3500630AS, 2e5, interval=interval,
                  log_spans=log_spans)
            for _ in range(2)
        )
        routed, starts = self._route(monkeypatch, bank, d, t, tr)
        assert routed == ([1] if interval is None and not log_spans else [])
        want = self._reference(ref, d, t, tr)
        assert _hex(starts) == _hex(want)
        assert bank.avail == ref.avail and bank.load == ref.load
        assert bank.n_down == ref.n_down and bank.park_t == ref.park_t

    def test_small_groups_keep_the_loop(self, monkeypatch):
        rng = np.random.default_rng(4)
        d, t, tr = self._segment(0, fastkernel._SOLVE_MIN_GROUP - 1, rng)
        bank = _Bank(2, 53.3, ST3500630AS, 2e5, log_spans=False)
        routed, _ = self._route(monkeypatch, bank, d, t, tr)
        assert routed == []
