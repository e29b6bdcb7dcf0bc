"""NaN thresholds and NaN spec figures are rejected up front.

``x < 0`` is false for NaN, so a plain negativity guard lets NaN through:
a NaN idleness threshold used to run to ``energy=nan`` on the fast engine
and to fail mid-run on a NaN timeout delay on the event engine.  Each
guard is written ``not x >= 0`` and raises a :class:`ConfigError` naming
the field, before either engine starts.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.disk import ST3500630AS
from repro.disk.fleet import Fleet, FleetDisk
from repro.errors import ConfigError
from repro.system import StorageConfig, StorageSystem
from repro.units import MB
from repro.workload import FileCatalog, RequestStream

ENGINES = ["event", "fast"]
NAN = math.nan
SPEC_FIELDS = [
    "capacity",
    "transfer_rate",
    "avg_seek_time",
    "avg_rotation_time",
    "idle_power",
    "standby_power",
    "active_power",
    "seek_power",
    "spinup_power",
    "spindown_power",
    "spinup_time",
    "spindown_time",
]


def _run(**config):
    """A 2-disk, 3-request run with long enough gaps to spin down."""
    catalog = FileCatalog(
        sizes=np.full(4, 72 * MB), popularities=np.full(4, 0.25)
    )
    mapping = np.arange(4, dtype=np.int64) % 2
    stream = RequestStream(
        times=np.array([1.0, 200.0, 400.0]),
        file_ids=np.array([0, 1, 2]),
        duration=500.0,
    )
    cfg = StorageConfig(num_disks=2, **config)
    return StorageSystem(catalog, mapping, cfg).run(stream)


@pytest.mark.parametrize("engine", ENGINES)
def test_scenario_runs_with_finite_figures(engine):
    result = _run(engine=engine, idleness_threshold=10.0)
    assert math.isfinite(result.energy)
    assert result.spindowns > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_nan_threshold_rejected(engine):
    with pytest.raises(ConfigError, match="idleness_threshold.*nan"):
        _run(engine=engine, idleness_threshold=NAN)


@pytest.mark.parametrize("engine", ENGINES)
def test_nan_fleet_threshold_rejected(engine):
    with pytest.raises(ConfigError, match="FleetDisk.threshold.*nan"):
        _run(
            engine=engine,
            fleet=Fleet("nan", (FleetDisk(ST3500630AS, threshold=NAN),)),
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_nan_spec_figure_rejected(engine, field):
    with pytest.raises(ConfigError, match=rf"DiskSpec\.{field} .*nan"):
        _run(
            engine=engine,
            spec=dataclasses.replace(ST3500630AS, **{field: NAN}),
        )
