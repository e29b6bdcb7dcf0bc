"""Same-instant ordering of the event engine, frozen on a tie-heavy lattice.

The differential harness samples continuous-time streams, where two events
almost never share an instant.  This scenario puts nearly every event on an
integer-second lattice instead: arrivals at whole seconds, whole-second
transfers (1-3 MB at 1 MB/s, zero positioning overhead), whole-second spin
transitions and an idleness threshold of 3 s.  Arrival/timer,
completion/arrival, release/arrival and placement/spin-state ties are
therefore the common case, so any change to the event loop's same-instant
order shows up as a digest mismatch in ``golden_event_ties.json``.

The digests were recorded from the event engine before its hot path was
restructured, and every performance change to the engine must leave them
bit-identical.  The ROADMAP "same-instant ordering becomes an explicit
contract" item will re-record this golden on purpose once that contract
is written down; until then a mismatch is a regression.

Regenerate (only for an intended ordering change) with::

    PYTHONPATH=src python tests/regression/test_event_tie_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

from repro.disk.specs import ST3500630AS
from repro.system import StorageConfig, StorageSystem
from repro.workload.catalog import FileCatalog
from repro.workload.mixed import MixedRequestStream

_PATH = pathlib.Path(__file__).parent / "golden_event_ties.json"

#: Zero positioning overhead, 1 MB/s and whole-second spin transitions put
#: every service and transition boundary on the integer lattice.
TIE_SPEC = ST3500630AS.with_overrides(
    model="tie-lattice",
    capacity=40e6,
    transfer_rate=1e6,
    avg_seek_time=0.0,
    avg_rotation_time=0.0,
    spinup_time=4.0,
    spindown_time=2.0,
)

NUM_DISKS = 4
N_FILES = 40
N_UNMAPPED = 8

CONFIGS = {
    "lru": dict(cache_policy="lru", cache_capacity=5e6),
    "nocache": dict(),
    "batch_release": dict(
        scheduler="batch_release",
        scheduler_params=(("window", 5.0), ("max_hold", 7.0)),
    ),
}

SEEDS = (1, 2, 3)


def lattice_workload(seed):
    """Catalog, mapping and a whole-second mixed stream (20% writes)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=N_FILES).astype(float) * 1e6
    weights = rng.random(N_FILES) + 0.1
    catalog = FileCatalog(sizes=sizes, popularities=weights / weights.sum())
    mapping = rng.integers(0, NUM_DISKS, size=N_FILES).astype(np.int64)
    mapping[N_FILES - N_UNMAPPED:] = -1
    # Bursty whole-second arrivals: many requests per instant, idle gaps
    # both shorter and longer than the 3 s threshold.
    gaps = rng.choice([0, 0, 0, 1, 2, 3, 4, 7, 12], size=600)
    times = np.cumsum(gaps).astype(float)
    file_ids = rng.integers(0, N_FILES - N_UNMAPPED, size=times.size)
    kinds = np.where(rng.random(times.size) < 0.2, "write", "read")
    kinds = kinds.astype(object)
    # Every unmapped file is first touched by a write (placement ties).
    slots = np.sort(rng.choice(times.size, size=N_UNMAPPED, replace=False))
    for slot, fid in zip(slots, range(N_FILES - N_UNMAPPED, N_FILES)):
        file_ids[slot] = fid
        kinds[slot] = "write"
    stream = MixedRequestStream(
        times=times,
        file_ids=file_ids,
        kinds=kinds,
        duration=float(times[-1]) + 60.0,
    )
    return catalog, mapping, stream


def run_tie_case(name, seed):
    catalog, mapping, stream = lattice_workload(seed)
    config = StorageConfig(
        spec=TIE_SPEC,
        num_disks=NUM_DISKS,
        idleness_threshold=3.0,
        engine="event",
        **CONFIGS[name],
    )
    return StorageSystem(catalog, mapping, config, num_disks=NUM_DISKS).run(
        stream
    )


def digest(result):
    """Exact digest: float-hex responses and energies, integer counters."""
    out = {
        "responses": [float(v).hex() for v in result.response_times],
        "energy_per_disk": [float(e).hex() for e in result.energy_per_disk],
        "spinups": int(result.spinups),
        "spindowns": int(result.spindowns),
        "spinups_per_disk": [int(v) for v in result.spinups_per_disk],
        "final_mapping": [int(v) for v in result.final_mapping],
    }
    if result.cache_stats is not None:
        stats = result.cache_stats
        out["cache"] = [
            stats.hits, stats.misses, stats.insertions, stats.evictions
        ]
    return out


def _keys():
    return [f"{name}:{seed}" for name in CONFIGS for seed in SEEDS]


@pytest.mark.parametrize("key", _keys(), ids=lambda k: k.replace(":", "-"))
def test_event_tie_lattice_is_bit_identical(key):
    golden = json.loads(_PATH.read_text())
    name, seed = key.split(":")
    got = digest(run_tie_case(name, int(seed)))
    want = golden[key]
    assert sorted(got) == sorted(want), f"digest keys changed for {key}"
    for field in want:
        assert got[field] == want[field], (
            f"{key}: field {field!r} drifted from the recorded tie order"
        )


def test_tie_lattice_really_ties():
    """The scenario keeps exercising same-instant ties (guards the golden)."""
    _, _, stream = lattice_workload(SEEDS[0])
    times = np.asarray(stream.times)
    assert np.all(times == np.round(times))
    assert np.count_nonzero(np.diff(times) == 0) > times.size // 4


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    record = {}
    for key in _keys():
        name, seed = key.split(":")
        record[key] = digest(run_tie_case(name, int(seed)))
    # One line per case keeps the file diffable without a line per value.
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in record.items()
    ]
    _PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(record)} digests to {_PATH}")
