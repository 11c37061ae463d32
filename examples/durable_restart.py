"""Durability and recovery: a positioning backend that survives restarts.

The storage layer's durable mode puts a write-ahead log and per-shard
snapshots under the sharded table (see ``src/repro/storage/durable.py``).
This example walks the full operational loop:

1. ingest a morning of report traffic into a **durable** table;
2. answer a top-k query and checkpoint (snapshot) the store;
3. "crash" the process — simply abandon the store object — and **recover**
   the directory into a fresh table;
4. verify the recovered ranking is **bit-identical** to the pre-crash one;
5. apply retention eviction and show that the watermark also survives a
   second restart.

Run with::

    python examples/durable_restart.py
"""

from __future__ import annotations

import shutil
import tempfile

from repro import QueryEngine
from repro.storage import DurabilityConfig, DurableRecordStore, EvictedRangeError
from repro.synth import build_real_scenario

SHARD_SECONDS = 60.0
DURATION = 480.0
TOP_K = 3


def main() -> None:
    scenario = build_real_scenario(num_users=10, duration_seconds=DURATION, seed=29)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    slocs = scenario.slocation_ids()
    stream = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)

    directory = tempfile.mkdtemp(prefix="durable-iupt-")
    try:
        # --- 1. A durable table, ingesting the stream in one-minute flushes.
        table = DurableRecordStore(
            directory,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(fsync="batch"),
        )
        batch, boundary = [], SHARD_SECONDS
        flushes = 0
        for record in stream:
            if record.timestamp >= boundary:
                table.ingest_batch(batch)
                batch, boundary, flushes = [], boundary + SHARD_SECONDS, flushes + 1
            batch.append(record)
        if batch:
            table.ingest_batch(batch)
            flushes += 1
        print(
            f"ingested {len(table)} reports in {flushes} flushes into "
            f"{table.shard_count} logged shards under {directory}"
        )

        # --- 2. Query, then checkpoint so recovery can skip the WAL.
        before = engine.top_k(table, slocs, TOP_K, 0.0, DURATION)
        summary = table.checkpoint()
        print(
            f"pre-crash top-{TOP_K}: {before.top_k_ids()} "
            f"(checkpoint wrote {summary['snapshots_written']} snapshots)"
        )

        # --- 3. Crash: the in-memory table is gone; only the directory is
        # left.  Recovery rebuilds the exact pre-crash state from it.
        del table
        recovered = DurableRecordStore(directory)
        report = recovered.recovery_report
        print(
            f"recovered {report['records']} records in {report['shards']} shards "
            f"({report['shards_from_snapshot']} from snapshots, "
            f"{report['frames_replayed']} WAL frames replayed)"
        )

        # --- 4. The recovered ranking is bit-identical.
        after = engine.top_k(recovered, slocs, TOP_K, 0.0, DURATION)
        assert after.top_k_ids() == before.top_k_ids()
        assert after.flows == before.flows
        print(f"recovered top-{TOP_K} is bit-identical: {after.top_k_ids()}")

        # --- 5. Retention: drop the first two minutes, restart again.
        dropped = recovered.evict_before(120.0)
        recovered.close()
        reopened = DurableRecordStore(directory)
        print(
            f"evicted {dropped} records; watermark {reopened.eviction_watermark:g} "
            f"survived the second restart"
        )
        try:
            engine.flow(reopened, slocs[0], 0.0, DURATION)
        except EvictedRangeError as error:
            print(f"query below the watermark still fails loudly: {error}")
        fresh = engine.top_k(reopened, slocs, TOP_K, 120.0, DURATION)
        print(f"surviving-history top-{TOP_K}: {fresh.top_k_ids()}")
        reopened.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
