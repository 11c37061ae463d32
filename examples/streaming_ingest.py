"""Streaming ingestion on the sharded store: live reports, stable caches.

This example plays the role of a positioning backend in production: report
traffic arrives continuously in small batches while dashboards keep querying
recent (and not-so-recent) windows.  It demonstrates the storage layer's
three streaming properties:

1. **batched ingestion** — each flush lands in the time shards it overlaps,
   costing one bulk index build per touched shard instead of per-record
   index inserts;
2. **shard-granular cache invalidation** — after a new batch arrives, a
   dashboard re-asking about an *older* window is answered from the engine's
   presence cache (its shard versions are untouched), while a query over the
   window the batch landed in is recomputed;
3. **retention eviction** — old shards are dropped wholesale, and a query
   reaching below the retention watermark fails loudly instead of silently
   returning partial flows.

Run with::

    python examples/streaming_ingest.py
"""

from __future__ import annotations

from repro import IUPT, QueryEngine
from repro.storage import EvictedRangeError
from repro.synth import build_real_scenario

SHARD_SECONDS = 60.0
DURATION = 480.0


def main() -> None:
    # Simulate the "historical" traffic: a university floor over 8 minutes.
    scenario = build_real_scenario(num_users=10, duration_seconds=DURATION, seed=29)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    slocs = scenario.slocation_ids()

    # A sharded table ingesting the stream in one-minute flushes.
    iupt = IUPT(shard_seconds=SHARD_SECONDS)
    stream = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    live, backlog = [], list(stream)
    flush_count = 0
    while backlog and backlog[0].timestamp < DURATION - SHARD_SECONDS:
        boundary = backlog[0].timestamp + SHARD_SECONDS
        batch = []
        while backlog and backlog[0].timestamp < boundary:
            batch.append(backlog.pop(0))
        receipt = iupt.ingest_batch(batch)
        flush_count += 1
        live.extend(batch)
    print(
        f"ingested {len(live)} reports in {flush_count} flushes "
        f"across {iupt.shard_count} shards "
        f"(last flush touched shards {receipt.shards_touched})"
    )

    # Dashboards query two windows: an old one and the freshest one.
    old_window = (0.0, 120.0)
    fresh_window = (DURATION - 3 * SHARD_SECONDS, DURATION - SHARD_SECONDS)
    engine.flows(iupt, slocs, *old_window)
    engine.flows(iupt, slocs, *fresh_window)
    warm = engine.cache_stats()
    print(f"warmed the presence store: {int(warm['puts'])} artefacts cached")

    # A late batch arrives — it only touches the freshest shard(s).
    receipt = iupt.ingest_batch(backlog)
    print(f"late batch of {receipt.records_ingested} landed in shards {receipt.shards_touched}")

    before = engine.cache_stats()
    engine.flows(iupt, slocs, *old_window)
    after_old = engine.cache_stats()
    engine.flows(iupt, slocs, *fresh_window)
    after_fresh = engine.cache_stats()
    old_hits = int(after_old["hits"] - before["hits"])
    old_misses = int(after_old["misses"] - before["misses"])
    fresh_misses = int(after_fresh["misses"] - after_old["misses"])
    print(
        f"re-querying the old window: {old_hits} cache hits, {old_misses} misses "
        "(its shards were untouched)"
    )
    print(
        f"re-querying the fresh window: {fresh_misses} misses "
        "(the batch invalidated exactly its windows)"
    )

    # Retention: keep only the last five minutes of history.
    dropped = iupt.evict_before(DURATION - 300.0)
    print(f"retention evicted {dropped} records below t={iupt.eviction_watermark:.0f}")
    try:
        engine.flows(iupt, slocs, *old_window)
    except EvictedRangeError as error:
        print(f"query into evicted history refused: {error}")


if __name__ == "__main__":
    main()
