"""The paper pipeline's set-up, frozen as SHA-256 digests.

Every simulation starts from the same three set-up products: a generated
workload (catalog + request stream), optionally a mixed read/write stream,
and a Pack_Disks mapping.  ``golden_setup.json`` holds a digest of each at
Table 1 shapes (40,000 files, 4,000 s), recorded before the weighted
sampler, the heap and the grouped replay were optimised.  Any change to a
draw, to the pack order or to a catalog array shows up as a mismatch.

Regenerate (only for an intended change to a generated stream) with::

    PYTHONPATH=src python tests/regression/test_setup_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.system import runner
from repro.system.config import StorageConfig
from repro.workload.chunked import (
    ChunkedDiurnalStream,
    ChunkedNerscStream,
    ChunkedPoissonStream,
    generate_mixed_workload_chunked,
)
from repro.workload.diurnal import diurnal_rate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload
from repro.workload.nersc import NerscTraceParams, synthesize_nersc_trace

_PATH = pathlib.Path(__file__).parent / "golden_setup.json"

TABLE1 = SyntheticWorkloadParams(n_files=40_000, duration=4_000.0, seed=11)
MIXED = MixedWorkloadParams(
    write_fraction=0.2, new_file_fraction=0.3, arrival_rate=6.0,
    duration=4_000.0, seed=12,
)
NERSC = NerscTraceParams(seed=13).scaled(0.05)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.dtype == object:
            a = a.astype(str)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _chunk_arrays(stream):
    parts = []
    for chunk in stream.iter_chunks():
        parts.append(chunk.times)
        parts.append(chunk.file_ids)
        if chunk.kinds is not None:
            parts.append(chunk.kinds)
    return parts


def case_table1():
    wl = generate_workload(TABLE1)
    return _sha(
        wl.stream.times, wl.stream.file_ids,
        wl.catalog.sizes, wl.catalog.popularities,
    )


def case_mixed():
    base = generate_workload(TABLE1)
    catalog, stream = generate_mixed_workload(base.catalog, MIXED)
    return _sha(
        stream.times, stream.file_ids, stream.kinds,
        catalog.sizes, catalog.popularities,
    )


def case_chunked_poisson():
    base = generate_workload(TABLE1)
    stream = ChunkedPoissonStream(
        base.catalog.popularities, rate=6.0, duration=4_000.0,
        chunk_size=4_096, seed=14,
    )
    return _sha(*_chunk_arrays(stream))


def case_chunked_diurnal():
    base = generate_workload(TABLE1)
    stream = ChunkedDiurnalStream(
        base.catalog.popularities,
        diurnal_rate(6.0, amplitude=0.5, period=1_000.0),
        peak_rate=9.0, duration=4_000.0, chunk_size=4_096, seed=15,
    )
    return _sha(*_chunk_arrays(stream))


def case_chunked_mixed():
    base = generate_workload(TABLE1)
    catalog, stream = generate_mixed_workload_chunked(
        base.catalog, MIXED, chunk_size=4_096
    )
    return _sha(catalog.sizes, catalog.popularities, *_chunk_arrays(stream))


def case_nersc():
    trace = synthesize_nersc_trace(NERSC)
    return _sha(
        trace.stream.times, trace.stream.file_ids,
        trace.catalog.sizes, trace.catalog.popularities,
    )


def case_chunked_nersc():
    stream = ChunkedNerscStream(NERSC, chunk_size=2_048)
    catalog = stream.catalog
    return _sha(catalog.sizes, catalog.popularities, *_chunk_arrays(stream))


def case_pack():
    wl = generate_workload(TABLE1)
    config = StorageConfig(num_disks=100, load_constraint=0.7)
    alloc = runner.allocate(wl.catalog, "pack", config, TABLE1.arrival_rate)
    return _sha(alloc.mapping(wl.catalog.n))


CASES = {
    "table1": case_table1,
    "mixed": case_mixed,
    "chunked_poisson": case_chunked_poisson,
    "chunked_diurnal": case_chunked_diurnal,
    "chunked_mixed": case_chunked_mixed,
    "nersc": case_nersc,
    "chunked_nersc": case_chunked_nersc,
    "pack": case_pack,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_setup_is_bit_identical(name):
    golden = json.loads(_PATH.read_text())
    assert CASES[name]() == golden[name], (
        f"set-up product {name!r} drifted from its recorded digest"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    record = {name: fn() for name, fn in sorted(CASES.items())}
    _PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} digests to {_PATH}")
