"""Serving a query stream: batching and cross-query caching.

This example plays the role of a popularity-analytics service under load:
many tenants fire overlapping top-k popular-location queries against the same
building and time range.  It answers the same stream three ways —

1. sequentially, with a fresh cold engine per query (the pre-engine
   behaviour);
2. sequentially through one long-lived engine, running the stream twice —
   the second pass hits the cross-query presence store (dashboards re-issuing
   the same query) and answers from cached per-object artefacts;
3. in one batched pass that shares each object's reduce/path work across
   every query of the stream —

and prints the timings, the presence-store statistics, and a proof that all
three produce identical rankings.

Run with::

    python examples/batch_queries.py
"""

from __future__ import annotations

import time

from repro import EngineConfig, QueryEngine, TkPLQuery
from repro.synth import build_real_scenario

NUM_QUERIES = 8


def build_query_stream(scenario) -> list:
    """Overlapping queries over one shared window (a multi-tenant stream)."""
    queries = []
    for tenant in range(NUM_QUERIES):
        query_set = scenario.pick_query_slocations(0.5, seed=100 + tenant)
        queries.append(
            TkPLQuery.build(
                query_set,
                min(3, len(query_set)),
                scenario.start_time,
                scenario.end_time,
            )
        )
    return queries


def main() -> None:
    # The university-floor scenario yields non-trivial flows, so "all
    # strategies agree" below compares real rankings, not all-zero ties.
    scenario = build_real_scenario(num_users=8, duration_seconds=240.0, seed=19)
    queries = build_query_stream(scenario)
    print(
        f"Scenario: {scenario.name}, {len(scenario.iupt)} positioning records, "
        f"{len(queries)} overlapping queries"
    )

    # 1. Sequential, cold: a fresh engine (no cross-query store) per query.
    began = time.perf_counter()
    cold_rankings = []
    for query in queries:
        engine = QueryEngine(
            scenario.system.graph,
            scenario.system.matrix,
            config=EngineConfig.uncached(),
        )
        cold_rankings.append(
            engine.search(scenario.iupt, query, "nested-loop").top_k_ids()
        )
    cold_seconds = time.perf_counter() - began

    # 2. Sequential through one long-lived engine.  The presence store keeps
    # one entry per (window, query set, table version), so the first pass
    # over the stream is cold; re-issuing the same queries (dashboard
    # refreshes) is served from the store, one hit per object in the window.
    warm_engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    for query in queries:
        warm_engine.search(scenario.iupt, query, "nested-loop")
    began = time.perf_counter()
    warm_rankings = [
        warm_engine.search(scenario.iupt, query, "nested-loop").top_k_ids()
        for query in queries
    ]
    warm_seconds = time.perf_counter() - began
    warm_stats = warm_engine.cache_stats()

    # 3. One batched pass sharing each object's work across the stream.
    batch_engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    began = time.perf_counter()
    report = batch_engine.batch(scenario.iupt, queries)
    batch_seconds = time.perf_counter() - began

    print("\nAnswering the stream:")
    print(f"  sequential, cold engines : {cold_seconds * 1000.0:8.1f} ms")
    print(
        f"  repeat pass, warm store  : {warm_seconds * 1000.0:8.1f} ms "
        f"(hit rate {warm_stats['hit_rate']:.0%})"
    )
    print(
        f"  batched single pass      : {batch_seconds * 1000.0:8.1f} ms "
        f"({report.groups} window group(s))"
    )
    print(f"  batch speedup vs cold    : {cold_seconds / batch_seconds:8.1f}x")

    batch_rankings = report.rankings()
    assert cold_rankings == warm_rankings == batch_rankings
    print("\nAll strategies agree on every ranking:")
    for index, ranking in enumerate(batch_rankings):
        print(f"  query {index}: top-{queries[index].k} = {ranking}")


if __name__ == "__main__":
    main()
