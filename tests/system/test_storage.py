"""Integration tests for the assembled StorageSystem."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.system import StorageConfig, StorageSystem
from repro.units import GiB, MB
from repro.workload import FileCatalog, RequestStream


@pytest.fixture
def catalog():
    sizes = np.full(20, 72 * MB)
    pops = np.full(20, 1 / 20)
    return FileCatalog(sizes=sizes, popularities=pops)


@pytest.fixture
def stream(catalog, rng):
    return RequestStream.poisson(
        catalog.popularities, rate=0.5, duration=500.0, rng=rng
    )


class TestConstruction:
    def test_pool_covers_mapping(self, catalog):
        mapping = np.arange(20) % 4
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=2))
        assert len(system.array) == 4  # grown to cover the mapping

    def test_pool_respects_config_when_larger(self, catalog):
        mapping = np.zeros(20, dtype=np.int64)
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=8))
        assert len(system.array) == 8

    def test_explicit_pool_too_small_rejected(self, catalog):
        mapping = np.arange(20) % 4
        with pytest.raises(ConfigError):
            StorageSystem(catalog, mapping, StorageConfig(), num_disks=2)

    def test_mapping_length_must_match_catalog(self, catalog):
        with pytest.raises(ConfigError):
            StorageSystem(catalog, np.zeros(5, dtype=np.int64), StorageConfig())

    def test_cache_constructed_from_config(self, catalog):
        system = StorageSystem(
            catalog,
            np.zeros(20, dtype=np.int64),
            StorageConfig(num_disks=1, cache_policy="lru", cache_capacity=GiB),
        )
        assert system.dispatcher.cache is not None
        assert system.dispatcher.cache.capacity == GiB


class TestRun:
    def test_all_requests_complete_at_low_load(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        # Pad the horizon so in-flight requests at the stream's end drain.
        result = system.run(stream, duration=stream.duration + 60.0)
        assert result.arrivals == len(stream)
        assert result.completions == result.arrivals
        assert result.duration == stream.duration + 60.0
        assert result.energy > 0

    def test_energy_conservation(self, catalog, stream):
        # Total state time must equal duration x pool size, and energy must
        # equal the power-weighted integral of it.
        from repro.disk import PowerModel

        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream)
        total_time = sum(result.state_durations.values())
        assert total_time == pytest.approx(result.duration * result.num_disks)
        pm = PowerModel(system.config.spec)
        assert result.energy == pytest.approx(pm.energy(result.state_durations))

    def test_responses_positive_and_bounded(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream)
        service = 1.0  # 72 MB at 72 MB/s
        assert np.all(result.response_times >= service * 0.99)
        assert np.all(result.response_times <= stream.duration)

    def test_duration_cutoff_censors_completions(self, catalog):
        # One giant service can't finish before the cutoff.
        big = FileCatalog(
            sizes=np.array([7_200 * MB]), popularities=np.array([1.0])
        )
        stream = RequestStream(
            times=np.array([0.0]), file_ids=np.array([0]), duration=10.0
        )
        system = StorageSystem(
            big, np.array([0]), StorageConfig(num_disks=1)
        )
        result = system.run(stream)
        assert result.arrivals == 1
        assert result.completions == 0

    def test_invalid_duration(self, catalog, stream):
        system = StorageSystem(
            catalog, np.zeros(20, dtype=np.int64), StorageConfig(num_disks=1)
        )
        with pytest.raises(ConfigError):
            system.run(stream, duration=0.0)

    def test_label_propagates(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream, label="mylabel")
        assert result.algorithm == "mylabel"


class _GeneratedChunks:
    """A chunked stream that is not a view of dense arrays: its chunks
    exist only as they are produced."""

    def __init__(self, view):
        self._view = view
        self.duration = view.duration

    def iter_chunks(self):
        yield from self._view.iter_chunks()


#: Every stream type ``run`` accepts, on each engine that runs it (the fast
#: engine cannot batch a plain iterable of tuples).
_ENGINE_KINDS = [
    (engine, kind)
    for engine in ("event", "fast")
    for kind in ("array", "view", "generated", "tuples")
    if (engine, kind) != ("fast", "tuples")
]


class TestFileIdBounds:
    """A file id outside the catalog is rejected with a ConfigError naming
    the request, on both engines and for every stream type ``run``
    accepts; the last catalog id still runs."""

    @staticmethod
    def _system(engine):
        catalog = FileCatalog(
            sizes=np.full(4, 72 * MB), popularities=np.full(4, 0.25)
        )
        mapping = np.arange(4, dtype=np.int64) % 2
        return StorageSystem(
            catalog, mapping, StorageConfig(num_disks=2, engine=engine)
        )

    @staticmethod
    def _stream(fid):
        return RequestStream(
            times=np.array([1.0, 2.0, 3.0]),
            file_ids=np.array([0, 1, fid]),
            duration=10.0,
        )

    @classmethod
    def _as(cls, fid, kind):
        stream = cls._stream(fid)
        if kind == "view":
            return stream.chunks(2)  # the bad id is in the second chunk
        if kind == "generated":
            return _GeneratedChunks(stream.chunks(2))
        if kind == "tuples":
            return list(stream)
        return stream

    @pytest.mark.parametrize("engine,kind", _ENGINE_KINDS)
    def test_id_equal_to_catalog_size_rejected(self, engine, kind):
        with pytest.raises(ConfigError, match="request 2 has file id 4"):
            self._system(engine).run(self._as(4, kind), duration=10.0)

    @pytest.mark.parametrize("engine,kind", _ENGINE_KINDS)
    def test_last_catalog_id_runs(self, engine, kind):
        result = self._system(engine).run(self._as(3, kind), duration=10.0)
        assert result.arrivals == 3 and result.completions == 3
