"""A live dashboard over standing top-k queries: register once, stream, read.

This example plays the role of a venue dashboard in production: standing
top-k popularity queries are registered *once* against a
:class:`~repro.engine.continuous.ContinuousQueryEngine`, and every batch of
positioning reports streamed into the table refreshes the registered results
automatically — incrementally, so the work per flush is proportional to what
the batch actually changed:

* a flush whose shards don't overlap a standing window **skips** that
  refresh outright (the historical window below never recomputes);
* where a window is touched, only the objects with new reports in it are
  recomputed — every other object's cached presence artefact is re-keyed to
  the new shard versions;
* retention eviction past a standing window flips that subscription to
  *evicted*: reading it raises instead of serving a result computed from
  truncated history.

Run with::

    python examples/live_dashboard.py
"""

from __future__ import annotations

from repro import IUPT, QueryEngine
from repro.storage import EvictedRangeError
from repro.synth import build_real_scenario

SHARD_SECONDS = 60.0
DURATION = 480.0
HISTORY = 240.0  # loaded up front; the rest streams in


def main() -> None:
    scenario = build_real_scenario(num_users=10, duration_seconds=DURATION, seed=29)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    slocs = scenario.slocation_ids()
    labels = {
        sloc_id: scenario.plan.slocations[sloc_id].label() for sloc_id in slocs
    }

    iupt = IUPT(shard_seconds=SHARD_SECONDS)
    stream = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    iupt.ingest_batch([r for r in stream if r.timestamp < HISTORY])
    backlog = [r for r in stream if r.timestamp >= HISTORY]

    continuous = engine.continuous(iupt)
    live = continuous.register_top_k(slocs, k=3, start=HISTORY, end=DURATION)
    historical = continuous.register_top_k(slocs, k=3, start=0.0, end=120.0)
    print(
        f"registered 2 standing top-3 queries: live window "
        f"[{HISTORY:.0f}, {DURATION:.0f}]s and historical window [0, 120]s"
    )
    print(f"initial live ranking: {[labels[i] for i in live.top_k_ids()]}")

    flush = 0
    while backlog:
        boundary = backlog[0].timestamp + SHARD_SECONDS
        batch = []
        while backlog and backlog[0].timestamp < boundary:
            batch.append(backlog.pop(0))
        receipt = iupt.ingest_batch(batch)
        flush += 1
        ranking = [labels[i] for i in live.top_k_ids()]
        print(
            f"flush {flush}: +{receipt.records_ingested} reports into shards "
            f"{receipt.shards_touched} -> live ranking {ranking} "
            f"(churn {live.stats.last_churn}); historical refreshes skipped "
            f"so far: {historical.stats.skipped}"
        )

    summary = continuous.describe()
    print(
        f"maintenance summary: {summary['refreshes']} refreshes, "
        f"{summary['skipped']} skipped, "
        f"{summary['objects_recomputed']} objects recomputed, "
        f"{summary['objects_rekeyed']} re-keyed"
    )

    # Retention: keep the last five minutes; the historical window dies loudly.
    dropped = iupt.evict_before(DURATION - 300.0)
    print(f"retention evicted {dropped} records below t={iupt.eviction_watermark:.0f}")
    try:
        historical.result
    except EvictedRangeError as error:
        print(f"historical standing query now refuses: {error}")
    print(
        f"live standing query still serving: "
        f"{[labels[i] for i in live.top_k_ids()]}"
    )


if __name__ == "__main__":
    main()
