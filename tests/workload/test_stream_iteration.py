"""Iterating request streams, and replaying them through ``drive_stream``.

Streams iterate in ``tolist()`` blocks of :data:`ITER_BLOCK` requests;
the items must be exactly what zipping the arrays gives, as plain Python
``float``/``int``/``str``, on both sides of every block boundary.
"""

import math

import numpy as np
import pytest

from repro.disk import DiskArray, ST3500630AS
from repro.errors import SimulationError
from repro.sim import Environment
from repro.system.dispatcher import Dispatcher, drive_stream
from repro.workload.arrivals import ITER_BLOCK, RequestStream
from repro.workload.mixed import MixedRequestStream

# Past two block boundaries, ending mid-block.
N = 2 * ITER_BLOCK + 123


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 1e5, size=N))
    file_ids = rng.integers(0, 5_000, size=N)
    kinds = np.where(rng.random(N) < 0.3, "write", "read")
    return times, file_ids, kinds


def _assert_plain(items, types):
    for item in (items[0], items[ITER_BLOCK - 1], items[ITER_BLOCK], items[-1]):
        assert tuple(type(v) for v in item) == types


def test_request_stream_iterates_like_zip(arrays):
    times, file_ids, _ = arrays
    stream = RequestStream(times=times, file_ids=file_ids, duration=1e5)
    items = list(stream)
    assert N > ITER_BLOCK and len(items) == N
    assert items == list(zip(times.tolist(), file_ids.tolist()))
    _assert_plain(items, (float, int))


@pytest.mark.parametrize("kind_dtype", [None, object])
def test_mixed_stream_iterates_like_zip(arrays, kind_dtype):
    times, file_ids, kinds = arrays
    kinds = kinds if kind_dtype is None else kinds.astype(kind_dtype)
    stream = MixedRequestStream(
        times=times, file_ids=file_ids, kinds=kinds, duration=1e5
    )
    items = list(stream)
    assert len(items) == N
    assert items == [
        (float(t), int(f), str(k)) for t, f, k in zip(times, file_ids, kinds)
    ]
    _assert_plain(items, (float, int, str))


def test_empty_streams_iterate_to_nothing():
    assert list(RequestStream(times=[], file_ids=[], duration=1.0)) == []
    assert list(
        MixedRequestStream(times=[], file_ids=[], kinds=[], duration=1.0)
    ) == []


def _replay(stream):
    env = Environment()
    array = DiskArray(env, ST3500630AS, 2, idleness_threshold=math.inf)
    dispatcher = Dispatcher(env, array, np.array([0, 1]), np.array([1e6, 2e6]))
    env.process(drive_stream(env, dispatcher, stream))
    return env, dispatcher


@pytest.mark.parametrize(
    "stream, submitted",
    [
        ([(4.0, 0), (3.0, 1)], 1),  # the decrease is at the second request
        ([(1.0, 0), (1.0, 1), (2.0, 0), (1.5, 1)], 3),
        ([(0.0, 0, "read"), (-1.0, 1, "write")], 1),
    ],
)
def test_drive_stream_rejects_a_decreasing_stream(stream, submitted):
    env, dispatcher = _replay(stream)
    with pytest.raises(SimulationError, match="non-decreasing"):
        env.run(until=100.0)
    assert dispatcher.arrivals == submitted

