"""Unit tests for the environment: ordering, priorities, run semantics."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import EmptySchedule, Environment


class TestScheduling:
    def test_clock_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=100.0).now == 100.0

    def test_fifo_order_at_same_timestamp(self, env):
        order = []
        for i in range(5):
            ev = env.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev.succeed()
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_processed_before_normal(self, env):
        order = []
        normal = env.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        normal.succeed()
        urgent = env.event()
        urgent.callbacks.append(lambda e: order.append("urgent"))
        urgent._ok = True
        urgent._value = None
        env._schedule(urgent, priority=0)
        env.step()
        env.step()
        assert order == ["urgent", "normal"]

    def test_time_ordering(self, env):
        times = []

        def proc(env, delay):
            yield env.timeout(delay)
            times.append(env.now)

        for d in (5.0, 1.0, 3.0):
            env.process(proc(env, d))
        env.run()
        assert times == [1.0, 3.0, 5.0]

    def test_peek(self, env):
        assert env.peek() == math.inf
        env.timeout(7.0)
        # The process-less timeout is scheduled at 7.
        assert env.peek() == 7.0

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_time_stops_exactly(self, env):
        fired = []

        def proc(env):
            while True:
                yield env.timeout(1.0)
                fired.append(env.now)

        env.process(proc(env))
        env.run(until=3.5)
        assert env.now == 3.5
        assert fired == [1.0, 2.0, 3.0]

    def test_events_at_until_are_not_processed(self, env):
        fired = []

        def proc(env):
            yield env.timeout(5.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert fired == []  # NORMAL event at t=5 stays pending
        assert env.now == 5.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2.0)
            return "val"

        assert env.run(until=env.process(proc(env))) == "val"

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError, match="never triggered"):
            env.run(until=ev)

    def test_run_to_exhaustion_returns_none(self, env):
        env.timeout(1.0)
        assert env.run() is None
        assert env.now == 1.0

    def test_run_until_failed_event_raises(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("k")

        p = env.process(proc(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1.0, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_clock_never_goes_backwards(self, env):
        stamps = []

        def proc(env, delays):
            for d in delays:
                yield env.timeout(d)
                stamps.append(env.now)

        env.process(proc(env, [3.0, 0.0, 2.0]))
        env.process(proc(env, [1.0, 1.0, 1.0]))
        env.run()
        assert stamps == sorted(stamps)

    def test_stale_stop_event_from_aborted_run_is_ignored(self, env):
        # Regression: if run(until=T) aborts on a crashed process, its stop
        # event must not terminate a later run early.
        def crasher(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher(env))
        with pytest.raises(RuntimeError):
            env.run(until=1_000.0)
        assert env.now == 1.0
        env.run(until=2_000.0)
        assert env.now == 2_000.0

    def test_stale_stop_ignored_in_run_to_exhaustion(self, env):
        def crasher(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher(env))
        with pytest.raises(RuntimeError):
            env.run(until=500.0)
        env.timeout(800.0)  # future work beyond the stale stop at 500
        env.run()
        assert env.now == 801.0  # 1.0 (crash time) + the 800 s timeout

    def test_run_until_nan_rejected(self, env):
        # ``nan < now`` is false, so a plain "in the past" check lets NaN
        # through as a stop time the loop could never reach in order.
        env.timeout(1.0)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0
        assert env.peek() == 1.0  # nothing was scheduled for the bad stop


def _busy_scenario(env, log):
    """Same-instant-heavy mix of timeouts, zero delays, process joins and
    handled failures."""

    def worker(env, name, delays):
        for d in delays:
            yield env.timeout(d)
            log.append((env.now, name))
        return name

    def joiner(env, child):
        name = yield child
        log.append((env.now, "join", name))
        yield env.timeout(0.0)
        log.append((env.now, "join", "zero"))

    def fragile(env):
        yield env.timeout(2.0)
        raise KeyError("handled below")

    def guard(env):
        try:
            yield env.process(fragile(env))
        except KeyError:
            log.append((env.now, "guard", "caught"))
        failed = env.event()
        failed.fail(RuntimeError("handled here"))
        try:
            yield failed
        except RuntimeError:
            log.append((env.now, "guard", "defused"))

    a = env.process(worker(env, "a", [1.0, 1.0, 0.0, 2.0]))
    env.process(worker(env, "b", [0.0, 1.0, 1.0, 1.0]))
    env.process(joiner(env, a))
    env.process(guard(env))


class TestRunIsInlinedStep:
    """``run()`` inlines ``step()``; the two must stay equivalent."""

    def test_same_events_in_same_order_as_stepping(self):
        ran, stepped = [], []
        env = Environment()
        _busy_scenario(env, ran)
        env.run()
        manual = Environment()
        _busy_scenario(manual, stepped)
        with pytest.raises(EmptySchedule):
            while True:
                manual.step()
        assert ran == stepped and len(ran) > 10
        assert env.now == manual.now

    def test_overridden_step_is_honoured(self):
        class Counting(Environment):
            steps = 0

            def step(self):
                Counting.steps += 1
                super().step()

        env = Counting()
        log = []
        _busy_scenario(env, log)
        env.run(until=3.0)
        manual = Environment()
        _busy_scenario(manual, [])
        processed = 0
        while manual.peek() < 3.0:
            manual.step()
            processed += 1
        assert Counting.steps == processed + 1  # + the stop event itself
        assert env.now == 3.0
