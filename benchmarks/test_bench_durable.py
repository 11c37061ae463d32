"""Durable-store benchmark: ingest throughput vs fsync policy, recovery cost.

Streams the same deterministic report traffic through the durable store
under each fsync policy (plus the volatile sharded store as the zero-cost
baseline) and then measures **cold recovery** — constructing a
:class:`~repro.storage.durable.DurableRecordStore` over the directory a
previous process left behind — under three snapshot regimes:

* ``replay`` — no snapshots at all: recovery re-applies every WAL frame;
* ``cadence`` — automatic checkpoint every N batches: recovery loads the
  snapshots and replays only the post-snapshot tail;
* ``checkpointed`` — an explicit final checkpoint: recovery is a pure
  snapshot load, zero frames replayed.

Recovered state is asserted **bit-identical** to the volatile oracle in all
variants unconditionally; the timing acceptance bounds only apply when the
dedicated CI job opts in via ``REPRO_BENCH_STRICT=1``.  Results land in
``BENCH_durable.json`` at the repository root (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time
from typing import Dict, List

from repro import IUPT, SampleSet
from repro.codec import codec_info
from repro.data.records import PositioningRecord
from repro.storage import DurabilityConfig, DurableRecordStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_durable.json"

NUM_OBJECTS = 20
DURATION_SECONDS = 1200.0
REPORT_PERIOD_SECONDS = 6.0
SHARD_SECONDS = 120.0
STREAM_BATCH_SECONDS = 10.0
SNAPSHOT_CADENCE = 16

FSYNC_POLICIES = ("never", "batch", "always")


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


def _ingest_all(table: IUPT, batches) -> float:
    began = time.perf_counter()
    for batch in batches:
        table.ingest_batch(batch)
    return time.perf_counter() - began


def test_durable_throughput_and_recovery_report():
    records = _report_stream()
    batches = _stream_batches(records)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-durable-"))
    try:
        # --- Baseline: the volatile sharded store (no WAL at all).
        oracle = IUPT.sharded(shard_seconds=SHARD_SECONDS)
        volatile_elapsed = _ingest_all(oracle, batches)
        oracle_rows = list(oracle.store.records_in_time_order())

        # --- Ingest throughput per fsync policy.
        ingest: Dict[str, Dict[str, float]] = {
            "sharded_volatile": {
                "elapsed_s": round(volatile_elapsed, 4),
                "records_per_s": round(len(records) / volatile_elapsed),
            }
        }
        for policy in FSYNC_POLICIES:
            table = IUPT.durable(
                workdir / f"fsync-{policy}",
                shard_seconds=SHARD_SECONDS,
                config=DurabilityConfig(fsync=policy),
            )
            elapsed = _ingest_all(table, batches)
            assert list(table.store.records_in_time_order()) == oracle_rows
            table.store.close()
            ingest[policy] = {
                "elapsed_s": round(elapsed, 4),
                "records_per_s": round(len(records) / elapsed),
                "overhead_vs_volatile": round(elapsed / volatile_elapsed, 2),
            }

        # --- Cold recovery per snapshot regime (over the "batch" policy).
        def build(path, cadence, final_checkpoint):
            config = DurabilityConfig(snapshot_every_batches=cadence)
            table = IUPT.durable(path, shard_seconds=SHARD_SECONDS, config=config)
            _ingest_all(table, batches)
            if final_checkpoint:
                table.store.checkpoint()
            table.store.close()

        recovery: Dict[str, Dict[str, object]] = {}
        regimes = (
            ("replay", None, False),
            ("cadence", SNAPSHOT_CADENCE, False),
            ("checkpointed", None, True),
        )
        for name, cadence, final_checkpoint in regimes:
            path = workdir / f"recover-{name}"
            build(path, cadence, final_checkpoint)
            began = time.perf_counter()
            recovered = DurableRecordStore(
                path, config=DurabilityConfig(checkpoint_on_recover=False)
            )
            elapsed = time.perf_counter() - began
            assert list(recovered.records_in_time_order()) == oracle_rows
            assert recovered.shard_versions() == oracle.store.shard_versions()
            report = dict(recovered.recovery_report)
            recovered.close()
            recovery[name] = {
                "elapsed_s": round(elapsed, 4),
                "frames_replayed": report["frames_replayed"],
                "shards_from_snapshot": report["shards_from_snapshot"],
            }
        # Snapshot regimes must actually change the recovery shape.
        assert recovery["replay"]["frames_replayed"] > 0
        assert recovery["replay"]["shards_from_snapshot"] == 0
        assert recovery["checkpointed"]["frames_replayed"] == 0
        assert (
            0
            < recovery["cadence"]["frames_replayed"]
            < recovery["replay"]["frames_replayed"]
        )

        strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
        if strict:
            # fsync="always" pays real synchronous-IO cost; "never" must not
            # end up meaningfully slower than it (generous noise margin).
            assert (
                ingest["never"]["elapsed_s"] <= ingest["always"]["elapsed_s"] * 1.25
            ), (
                f"fsync=never should not be slower than fsync=always: "
                f"{ingest['never']['elapsed_s']}s vs "
                f"{ingest['always']['elapsed_s']}s"
            )
            # Snapshot-only recovery must not cost more than twice a full
            # WAL replay (it is usually much cheaper).
            assert (
                recovery["checkpointed"]["elapsed_s"]
                <= recovery["replay"]["elapsed_s"] * 2.0
            )

        if not strict:
            return

        payload = {
            "benchmark": "durable-wal-and-recovery",
            "codec": codec_info(),
            "workload": {
                "records": len(records),
                "objects": NUM_OBJECTS,
                "duration_seconds": DURATION_SECONDS,
                "stream_batches": len(batches),
                "shard_seconds": SHARD_SECONDS,
                "snapshot_cadence_batches": SNAPSHOT_CADENCE,
            },
            "ingest_by_fsync_policy": ingest,
            "cold_recovery_by_snapshot_regime": recovery,
        }
        REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {REPORT_PATH}:")
        print(json.dumps(payload, indent=2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
