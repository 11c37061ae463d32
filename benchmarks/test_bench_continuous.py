"""Continuous-query benchmark: incremental refresh vs. a polling client.

Streams the tail of a university-floor report stream into a sharded IUPT
while standing TkPLQ queries cover historical windows and the live edge, and
compares the two ways a dashboard can stay current on a *mostly-disjoint*
batch stream (most standing windows are historical; each batch only touches
the live edge):

* ``incremental`` — the queries are registered with the continuous-query
  engine: a batch whose shards do not overlap a standing window skips that
  refresh outright, and where the window token did churn, untouched
  objects' cached presences are re-keyed to the new token instead of
  recomputed;
* ``polling`` — a client without standing queries re-issues every query on
  its own engine after every batch, through that engine's (invalidated)
  presence store.

Results are recorded in ``BENCH_continuous.json`` at the repository root
(uploaded as a CI artifact alongside the engine report).  Both sides must end
on identical results unconditionally; the timing acceptance property
(incremental strictly cheaper than polling) is asserted when the dedicated CI
job opts in via ``REPRO_BENCH_STRICT=1``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict

from repro import IUPT, QueryEngine, TkPLQuery
from repro.codec import codec_info
from repro.experiments.runner import split_into_time_batches
from repro.synth import build_real_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_continuous.json"

NUM_OBJECTS = 12
DURATION_SECONDS = 480.0
SHARD_SECONDS = 60.0
STREAM_BATCH_SECONDS = 30.0
HISTORY_SECONDS = 240.0  # ingested up front; the rest streams in

#: Standing windows: three historical (disjoint from the stream) + the live
#: edge the stream keeps landing in.
STANDING_WINDOWS = [
    (0.0, 60.0),
    (60.0, 120.0),
    (120.0, 180.0),
    (HISTORY_SECONDS, DURATION_SECONDS),
]


def _split_stream(scenario):
    records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    history = [r for r in records if r.timestamp < HISTORY_SECONDS]
    live = [r for r in records if r.timestamp >= HISTORY_SECONDS]
    return history, split_into_time_batches(
        live, HISTORY_SECONDS, STREAM_BATCH_SECONDS
    )


def _setup(scenario):
    """History ingested, the stream's batches pending, one cold engine."""
    history, batches = _split_stream(scenario)
    iupt = IUPT(shard_seconds=SHARD_SECONDS)
    iupt.ingest_batch(history)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    slocs = scenario.slocation_ids()
    queries = [
        TkPLQuery.build(slocs, 3, start, end) for start, end in STANDING_WINDOWS
    ]
    return iupt, engine, queries, batches


def _finals(results):
    return [(result.top_k_ids(), sorted(result.flows.items())) for result in results]


def _run_incremental(scenario):
    """Standing queries maintained by the continuous engine over the stream."""
    iupt, engine, queries, batches = _setup(scenario)
    continuous = engine.continuous(iupt)
    subscriptions = [continuous.register(query) for query in queries]
    for batch in batches:
        iupt.ingest_batch(batch)
    summary = continuous.describe()
    continuous.close()
    return _finals(sub.result for sub in subscriptions), summary


def _run_polling(scenario):
    """A polling client: every query re-issued after every batch."""
    iupt, engine, queries, batches = _setup(scenario)
    summary = {"polls": 0, "objects_recomputed": 0, "elapsed_seconds": 0.0}

    def poll():
        began = time.perf_counter()
        results = [engine.search(iupt, query, "nested-loop") for query in queries]
        summary["elapsed_seconds"] += time.perf_counter() - began
        summary["polls"] += len(results)
        summary["objects_recomputed"] += sum(
            result.stats.objects_computed for result in results
        )
        return results

    results = poll()  # the answers an incremental registration computes too
    for batch in batches:
        iupt.ingest_batch(batch)
        results = poll()
    summary["elapsed_seconds"] = round(summary["elapsed_seconds"], 6)
    return _finals(results), summary


def test_continuous_refresh_report():
    scenario = build_real_scenario(
        num_users=NUM_OBJECTS, duration_seconds=DURATION_SECONDS, seed=29
    )

    payload: Dict[str, object] = {
        "benchmark": "continuous-refresh-strategies",
        "codec": codec_info(),
        "workload": {
            "scenario": scenario.name,
            "records": len(scenario.iupt),
            "objects": NUM_OBJECTS,
            "duration_seconds": DURATION_SECONDS,
            "history_seconds": HISTORY_SECONDS,
            "stream_batch_seconds": STREAM_BATCH_SECONDS,
            "shard_seconds": SHARD_SECONDS,
            "standing_windows": STANDING_WINDOWS,
        },
    }

    incremental_finals, incremental = _run_incremental(scenario)
    polling_finals, polling = _run_polling(scenario)

    # Correctness gate before any speed claim: both sides end on
    # bit-identical results (rankings AND flow values).
    assert incremental_finals == polling_finals

    # The delta maintenance must actually have engaged: historical-window
    # refreshes skipped, untouched objects of the live window re-keyed.
    assert incremental["skipped"] > 0, (
        "a mostly-disjoint stream must skip historical-window refreshes"
    )
    assert incremental["refreshes"] < polling["polls"]
    assert incremental["objects_rekeyed"] > 0
    assert incremental["objects_recomputed"] < polling["objects_recomputed"]

    speedup = (
        polling["elapsed_seconds"] / incremental["elapsed_seconds"]
        if incremental["elapsed_seconds"]
        else float("inf")
    )
    if os.environ.get("REPRO_BENCH_STRICT") != "1":
        # Correctness runs (the tier-1 suite collects this file) must not
        # rewrite the committed report with machine-local timings.
        return
    assert speedup > 1.2, (
        f"incremental refresh should beat a polling client; got {speedup:.2f}x "
        f"({polling['elapsed_seconds']:.4f}s vs "
        f"{incremental['elapsed_seconds']:.4f}s)"
    )

    payload["incremental"] = incremental
    payload["polling"] = polling
    payload["refresh_speedup"] = round(speedup, 2)
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}: refresh_speedup {payload['refresh_speedup']}x")
