"""Fast-kernel ladder coverage: the two_state preset must be *byte-identical*
to the pre-ladder simulator, deeper ladders must agree with the event
engine, and the threshold axis must steer the descent schedule."""

import math

import numpy as np
import pytest

from repro.disk.dpm import DpmLadder, LadderRung, make_dpm_ladder
from repro.errors import ConfigError
from repro.sim.fastkernel import _Bank, simulate_fast
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

SPEC = StorageConfig().spec


@pytest.fixture(scope="module")
def sparse():
    """Sparse traffic over many disks: real descent/wake activity."""
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=1_000, arrival_rate=1.0, duration=900.0, seed=23
        )
    )


def _mapping(workload, cfg):
    return allocate(workload.catalog, "pack", cfg, 1.0).mapping(
        workload.catalog.n
    )


class TestTwoStateByteIdentity:
    """Acceptance: dpm_ladder='two_state' + dpm_policy='fixed' reproduces
    the pre-ladder simulator bit for bit (both engines)."""

    @pytest.mark.parametrize("threshold", [None, 0.0, 20.0, math.inf])
    def test_fast_engine_bit_equal(self, sparse, threshold):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            idleness_threshold=threshold,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy  # bit-for-bit
        assert np.array_equal(laddered.energy_per_disk, plain.energy_per_disk)
        assert laddered.spinups == plain.spinups
        assert laddered.spindowns == plain.spindowns
        assert np.array_equal(
            laddered.spinups_per_disk, plain.spinups_per_disk
        )
        # State residencies match value-for-value under the label mapping.
        rename = {
            "idle": "idle",
            "standby": "standby",
            "seek": "seek",
            "active": "active",
            "spinup": "wake:standby",
            "spindown": "down:standby",
        }
        for state, t in plain.state_durations.items():
            assert laddered.state_durations.get(rename[state.value], 0.0) == t

    def test_event_engine_bit_equal(self, sparse):
        cfg = StorageConfig(num_disks=40, load_constraint=0.6)
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy
        assert laddered.spinups == plain.spinups

    def test_controlled_two_state_matches_classic_controlled(self, sparse):
        """Under a dynamic policy the controlled ladder bank's recursion is
        the controlled classic bank's, term for term."""
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_policy="adaptive_timeout",
            control_interval=150.0,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy
        assert (
            laddered.extra["dpm"]["thresholds"]
            == plain.extra["dpm"]["thresholds"]
        )


class TestLadderKernel:
    @pytest.mark.parametrize("ladder", ("nap", "drpm4"))
    @pytest.mark.parametrize("threshold", [None, 10.0, 120.0])
    def test_agrees_with_event_engine(self, sparse, ladder, threshold):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_ladder=ladder,
            idleness_threshold=threshold,
        )
        mapping = _mapping(sparse, cfg)
        event = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(engine="event")
        ).run(sparse.stream)
        fast = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(engine="fast")
        ).run(sparse.stream)
        assert fast.spinups == event.spinups
        assert fast.spindowns == event.spindowns
        assert fast.energy == pytest.approx(event.energy, rel=1e-9)
        np.testing.assert_allclose(
            np.sort(fast.response_times),
            np.sort(event.response_times),
            rtol=1e-9,
            atol=1e-9,
        )
        for state, t in event.state_durations.items():
            assert fast.state_durations.get(state, 0.0) == pytest.approx(
                t, rel=1e-9, abs=1e-6
            )
        assert event.spindowns > 0

    def test_intermediate_rungs_split_the_wake_cost(self, sparse):
        """The ladder's payoff: against the same first-descent threshold,
        drpm4 wakes mostly from cheap intermediate rungs, so it must beat
        the two-state drive on energy at equal-or-better mean response."""
        base = StorageConfig(num_disks=40, load_constraint=0.6, engine="fast")
        mapping = _mapping(sparse, base)
        ladder = make_dpm_ladder("drpm4", SPEC)
        th = ladder.base_threshold
        two = StorageSystem(
            sparse.catalog, mapping,
            base.with_overrides(idleness_threshold=th),
        ).run(sparse.stream)
        multi = StorageSystem(
            sparse.catalog, mapping,
            base.with_overrides(dpm_ladder="drpm4"),
        ).run(sparse.stream)
        assert multi.energy < two.energy
        assert multi.mean_response <= two.mean_response + 1e-9

    def test_threshold_scales_descent_schedule(self, sparse):
        """A larger first-descent threshold must not increase energy
        saving: the whole schedule relaxes with it."""
        base = StorageConfig(
            num_disks=40, load_constraint=0.6, dpm_ladder="nap", engine="fast"
        )
        mapping = _mapping(sparse, base)
        energies = []
        for th in (10.0, 60.0, 400.0):
            res = StorageSystem(
                sparse.catalog, mapping,
                base.with_overrides(idleness_threshold=th),
            ).run(sparse.stream)
            energies.append(res.energy)
        assert energies[0] < energies[-1]

    def test_inf_threshold_never_descends(self, sparse):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_ladder="drpm4",
            idleness_threshold=math.inf,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        res = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        assert res.spindowns == 0
        assert res.spinups == 0
        assert set(res.state_durations) <= {"idle", "seek", "active"}

    def test_unknown_ladder_rejected(self):
        with pytest.raises(ConfigError, match="ladder"):
            StorageConfig(dpm_ladder="bogus")

    def test_simulate_fast_accepts_ladder_directly(self, sparse):
        cfg = StorageConfig(num_disks=30, load_constraint=0.6)
        mapping = _mapping(sparse, cfg)
        ladder = make_dpm_ladder("nap", SPEC)
        res = simulate_fast(
            sizes=sparse.catalog.sizes,
            mapping=mapping,
            spec=cfg.spec,
            num_disks=max(cfg.num_disks, int(mapping.max()) + 1),
            threshold=ladder.base_threshold,
            stream=sparse.stream,
            duration=sparse.stream.duration,
            ladder=ladder,
        )
        assert res.spindowns > 0
        assert "nap" in res.state_durations


class TestControlledLadderServeBatch:
    """The hoisted ``serve_batch`` replays per-disk runs exactly like one
    ``serve`` per request (the reference) on a twin bank — under control
    and with static thresholds, over ladders and over spec-built two-rung
    tables — and a bank that skips its span logs evolves the same state."""

    INTERVAL = 100.0
    N_INTERVALS = 12
    #: Inside the last interval, so wakes and tails clip at the horizon.
    HORIZON = 1_160.0

    @staticmethod
    def _ladders():
        flat = DpmLadder("flat", (LadderRung("idle", SPEC.idle_power),))
        return [
            make_dpm_ladder("drpm4", SPEC),
            make_dpm_ladder("nap", SPEC),
            flat,  # R == 1: never descends
            make_dpm_ladder("drpm4", SPEC),
        ]

    @staticmethod
    def _specs():
        return [
            SPEC,
            SPEC.with_overrides(spinup_time=9.0, spindown_time=4.0),
            # Zero-length transitions: break-even 0, no DpmLadder exists.
            SPEC.with_overrides(spinup_time=0.0, spindown_time=0.0),
            SPEC,
        ]

    @staticmethod
    def _thresholds(rng, n):
        # Immediate descent, a random timeout, or never (inf).
        return np.array([
            rng.choice([0.0, rng.uniform(0.0, 60.0), math.inf])
            for _ in range(n)
        ])

    @staticmethod
    def _state(bank):
        return (
            bank.avail, bank.pt, bank.pv, bank.load,
            getattr(bank, "gap_log", None),
            bank.n_up, bank.n_down, bank.park_t, bank.down_t, bank.wake_t,
            bank.park_spans, bank.down_spans, bank.wake_spans,
        )

    @pytest.mark.parametrize("laddered", [True, False])
    @pytest.mark.parametrize("controlled", [True, False])
    @pytest.mark.parametrize("seed", range(12))
    def test_batch_matches_per_request_serve(self, seed, controlled, laddered):
        rng = np.random.default_rng(seed)
        ladders = self._ladders() if laddered else None
        n = 4
        init = self._thresholds(rng, n)
        batched, reference, quiet = (
            _Bank(
                n, init, self._specs(), self.HORIZON, ladder=ladders,
                interval=self.INTERVAL if controlled else None,
                log_spans=log_spans,
            )
            for log_spans in (True, True, False)
        )
        for k in range(self.N_INTERVALS):
            lo = k * self.INTERVAL
            for d in range(n):
                m = int(rng.integers(0, 8))
                ts = np.sort(rng.uniform(lo, lo + self.INTERVAL, m))
                if m > 1:
                    ts[1] = ts[0]  # a same-instant pair (pt/pv snapshot)
                ts = ts[ts < self.HORIZON].tolist()
                # Long services queue later arrivals behind the backlog.
                trs = rng.exponential(8.0, len(ts)).tolist()
                got = batched.serve_batch(d, ts, trs)
                want = [reference.serve(d, t, tr) for t, tr in zip(ts, trs)]
                assert got == want
                assert quiet.serve_batch(d, ts, trs) == want
            new = self._thresholds(rng, n)
            if controlled:
                for bank in (batched, reference, quiet):
                    bank.push_thresholds(new)
        assert self._state(batched) == self._state(reference)
        # Skipping the span logs leaves every other bit of state alone.
        assert self._state(quiet)[:-3] == self._state(batched)[:-3]
        assert not any(quiet.down_spans + quiet.park_spans + quiet.wake_spans)
        assert batched.apply_tail()[1].tolist() == (
            reference.apply_tail()[1].tolist()
        )
        assert self._state(batched) == self._state(reference)
        # Not vacuous: gaps were walked (and logged only under control).
        # Only a static bank whose thresholds are all inf may never descend.
        assert sum(batched.n_down) > 0 or (
            not controlled and not np.isfinite(init).any()
        )
        assert any(batched.down_spans) == (sum(batched.n_down) > 0)
        if controlled:
            assert any(batched.gap_log)
        else:
            assert not hasattr(batched, "gap_log")
        if laddered:
            assert batched.n_down[2] == 0
