"""Codec benchmark: the packed binary layout and the vectorized kernel.

Measures, at paper scale (>=100k positioning records):

* **round trip** — ``encode_batch``/``decode_batch`` for a whole-table
  conversion;
* **WAL ingest** — streaming the load through the durable store
  (``fsync="never"``, so the cost is encode, not disk sync), with the
  volatile sharded store as the zero-cost baseline;
* **cold recovery** — reopening the checkpointed directory: the snapshot
  path hands shards to the store still packed (no per-record parsing);
* **batched scoring** — the scalar per-query fold against the
  :class:`~repro.codec.kernels.PresenceMatrix` built once per window group
  and reused across queries.

Every timed section asserts result equality *before* the numbers count.
Results land in ``BENCH_codec.json`` — or ``BENCH_codec_fallback.json``
when the active backend is the stdlib ``array`` fallback, so the CI job can
upload both legs side by side.  The acceptance bounds apply under
``REPRO_BENCH_STRICT=1``: recovery must load shards lazily on *both*
backends; the vectorized scoring bound is asserted on the numpy leg
only — the fallback matrix's row sums are plain Python, so only the
amortization of presence lookups across a batch is guaranteed there, not
the kernel itself (which is why the engine scores with the scalar kernel
without numpy).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import struct
import tempfile
import time
from typing import Dict, List

from repro import IUPT, SampleSet
from repro.codec import PresenceMatrix, active_backend, codec_info, decode_batch, encode_batch
from repro.core.query import TkPLQuery
from repro.data.records import PositioningRecord
from repro.engine import QueryEngine
from repro.engine.batch import score_query_over_entries
from repro.storage import DurabilityConfig, DurableRecordStore
from repro.synth import build_real_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_NAME = (
    "BENCH_codec.json" if active_backend() == "numpy" else "BENCH_codec_fallback.json"
)
REPORT_PATH = REPO_ROOT / REPORT_NAME

NUM_OBJECTS = 100
DURATION_SECONDS = 6000.0
REPORT_PERIOD_SECONDS = 6.0
SHARD_SECONDS = 300.0
STREAM_BATCH_SECONDS = 30.0

SCORING_USERS = 75
SCORING_DURATION_SECONDS = 3600.0
SCORING_QUERIES = 300


def _report_stream() -> List[PositioningRecord]:
    records: List[PositioningRecord] = []
    tick = 0
    timestamp = 0.0
    while timestamp < DURATION_SECONDS:
        for object_id in range(NUM_OBJECTS):
            ploc = (object_id + tick) % 23
            records.append(
                PositioningRecord(
                    object_id,
                    SampleSet.from_pairs([(ploc, 0.6), (ploc + 1, 0.4)]),
                    timestamp + object_id * 0.01,
                )
            )
        tick += 1
        timestamp += REPORT_PERIOD_SECONDS
    return records


def _stream_batches(records: List[PositioningRecord]) -> List[List[PositioningRecord]]:
    batches: List[List[PositioningRecord]] = []
    boundary = STREAM_BATCH_SECONDS
    current: List[PositioningRecord] = []
    for record in records:
        while record.timestamp >= boundary:
            batches.append(current)
            current = []
            boundary += STREAM_BATCH_SECONDS
        current.append(record)
    if current:
        batches.append(current)
    return [batch for batch in batches if batch]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def test_codec_paper_scale_report():
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if not strict:
        # The full paper-scale workload takes minutes; correctness of the
        # codec and kernels is covered by tests/test_codec.py, so plain
        # tier-1 runs skip the timing pass instead of paying for it.
        import pytest

        pytest.skip("paper-scale codec benchmark: set REPRO_BENCH_STRICT=1")
    records = _report_stream()
    assert len(records) >= 100_000
    batches = _stream_batches(records)

    # --- Round trip through the packed binary layout.
    began = time.perf_counter()
    blob = encode_batch(records)
    decoded = decode_batch(blob)
    packed_round_trip = time.perf_counter() - began

    assert [r.timestamp for r in decoded] == [r.timestamp for r in records]

    # --- WAL ingest + cold recovery.
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-codec-"))
    try:
        oracle = IUPT.sharded(shard_seconds=SHARD_SECONDS)
        began = time.perf_counter()
        for batch in batches:
            oracle.ingest_batch(batch)
        volatile_elapsed = time.perf_counter() - began
        oracle_rows = list(oracle.store.records_in_time_order())

        path = workdir / "table"
        table = IUPT.durable(
            path,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fsync="never"),
        )
        began = time.perf_counter()
        for batch in batches:
            table.ingest_batch(batch)
        ingest_elapsed = time.perf_counter() - began
        wal_bytes = sum(
            f.stat().st_size for f in (path / "wal").glob("segment-*.wal")
        )
        table.store.checkpoint()
        table.store.close()

        began = time.perf_counter()
        recovered = DurableRecordStore(path)
        recovery_elapsed = time.perf_counter() - began
        report = dict(recovered.recovery_report)
        assert list(recovered.records_in_time_order()) == oracle_rows
        recovered.close()

        durability: Dict[str, object] = {
            "wal_ingest_s": round(ingest_elapsed, 4),
            "wal_overhead_vs_volatile": round(ingest_elapsed / volatile_elapsed, 2),
            "cold_recovery_s": round(recovery_elapsed, 4),
            "shards_loaded_lazily": report.get("shards_loaded_lazily", 0),
            "wal_bytes": wal_bytes,
            "snapshot_bytes": sum(
                f.stat().st_size for f in (path / "snapshots").glob("*")
            ),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    assert durability["shards_loaded_lazily"] > 0

    # --- Batched scoring: scalar fold vs the shared presence matrix.
    scenario = build_real_scenario(
        num_users=SCORING_USERS, duration_seconds=SCORING_DURATION_SECONDS, seed=7
    )
    assert len(scenario.iupt) >= 100_000
    slocs = sorted(scenario.slocation_ids())
    pipeline = QueryEngine(scenario.system.graph, scenario.system.matrix).pipeline
    window = (0.0, SCORING_DURATION_SECONDS)
    ctx = pipeline.context(window, frozenset(slocs))
    sequences = pipeline.fetch.run(ctx, scenario.iupt)
    entries = pipeline.presences(ctx, sequences)
    graph = pipeline.flow_computer.graph
    parent_cells = {sloc: graph.parent_cell(sloc) for sloc in slocs}

    import random

    rng = random.Random(13)
    queries = [
        TkPLQuery(
            tuple(sorted(rng.sample(slocs, rng.randint(3, len(slocs))))),
            3,
            *window,
        )
        for _ in range(SCORING_QUERIES)
    ]

    began = time.perf_counter()
    scalar_results = [
        score_query_over_entries(q, entries, parent_cells, len(sequences))
        for q in queries
    ]
    scalar_elapsed = time.perf_counter() - began

    began = time.perf_counter()
    matrix = PresenceMatrix(entries, slocs, parent_cells)
    vector_results = [
        score_query_over_entries(
            q,
            entries,
            parent_cells,
            len(sequences),
            kernel="vectorized",
            matrix=matrix,
        )
        for q in queries
    ]
    vector_elapsed = time.perf_counter() - began

    for scalar, vector in zip(scalar_results, vector_results):
        assert scalar.top_k_ids() == vector.top_k_ids()
        assert set(scalar.flows) == set(vector.flows)
        for sloc in scalar.flows:
            assert _bits(scalar.flows[sloc]) == _bits(vector.flows[sloc])

    scoring_speedup = scalar_elapsed / vector_elapsed

    info = codec_info()
    payload = {
        "benchmark": "codec",
        "codec": info,
        "workload": {
            "records": len(records),
            "objects": NUM_OBJECTS,
            "duration_seconds": DURATION_SECONDS,
            "stream_batches": len(batches),
            "shard_seconds": SHARD_SECONDS,
            "scoring_records": len(scenario.iupt),
            "scoring_objects": SCORING_USERS,
            "scoring_queries": SCORING_QUERIES,
        },
        "round_trip": {
            "packed_s": round(packed_round_trip, 4),
            "packed_bytes": len(blob),
        },
        "durability": durability,
        "batched_scoring": {
            "scalar_s": round(scalar_elapsed, 4),
            "vectorized_s": round(vector_elapsed, 4),
            "speedup": round(scoring_speedup, 2),
        },
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}:")
    print(
        json.dumps(
            {
                "round_trip": payload["round_trip"],
                "durability": payload["durability"],
                "batched_scoring": payload["batched_scoring"],
            },
            indent=2,
        )
    )

    if info["backend"] == "numpy":
        assert scoring_speedup >= 2.0, (
            f"vectorized batched scoring should be >=2x scalar on numpy; "
            f"got {scoring_speedup:.2f}x"
        )
