"""Discrete-event simulation kernel.

A from-scratch substitute for SimPy (the framework the paper's simulator was
written in), providing the same process-based modelling style:

* :class:`~repro.sim.environment.Environment` — the event loop and clock,
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process` — generator-coroutine processes that
  ``yield`` events to wait on them,
* :class:`~repro.sim.events.AnyOf` / :class:`~repro.sim.events.AllOf` —
  condition events,
* :class:`~repro.sim.events.Interrupt` — asynchronous process interruption,
* :mod:`~repro.sim.monitor` — state timelines and streaming statistics used
  for energy accounting and response-time measurement,
* :mod:`~repro.sim.fastkernel` — a batched fast path for array-backed
  streams, covering read/write mixes (§1.1 write allocation) and shared
  caches as well as the read-only case (select with
  ``StorageConfig(engine="fast")``), validated against the event kernel
  and typically 5-50x faster.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4.5)
>>> log
[('fast', 1.0), ('slow', 2.0), ('fast', 2.0), ('fast', 3.0), ('slow', 4.0), ('fast', 4.0)]
"""

from repro.sim.environment import Environment, EmptySchedule, NORMAL, URGENT
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.monitor import StateTimeline, Tally, TimeWeighted
from repro.sim.rng import rng_from_seed, spawn_rngs

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "StateTimeline",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "URGENT",
    "rng_from_seed",
    "spawn_rngs",
]
