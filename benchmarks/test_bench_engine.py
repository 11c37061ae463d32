"""Engine throughput benchmark: sequential vs. warm store vs. batched.

Answers the same stream of overlapping TkPLQ queries three ways and records
queries/second for each strategy in ``BENCH_engine.json`` at the repository
root, so the performance trajectory of the execution-engine layer is tracked
across commits (the CI smoke-benchmark job uploads the file as an artifact):

* ``sequential`` — one fresh, uncached engine per query (the pre-engine
  behaviour of independent ``top_k`` calls);
* ``warm_store`` — one long-lived engine answering the stream twice; the
  second pass is measured (cross-query presence-store hits);
* ``batched`` — one ``QueryEngine.batch`` call, whose queries over one window
  share that window's presence-store entry.

The benchmark also asserts the acceptance property of the engine refactor:
batched evaluation of the overlapping stream is measurably faster than the
independent sequential calls, while producing identical rankings.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict, List

from repro import EngineConfig, QueryEngine
from repro.codec import codec_info
from repro.experiments.runner import overlapping_queries
from repro.synth import build_real_scenario, build_synthetic_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_engine.json"

NUM_QUERIES = 8
NUM_OBJECTS = 10
DURATION_SECONDS = 240.0


def _engine(scenario, config=None) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix, config=config)


def test_engine_throughput_report():
    # The university-floor scenario: unlike the synthetic grid builder (whose
    # default flows are currently all zero, making ranking-equality checks
    # vacuous), it produces non-trivial flows, so agreement between the
    # strategies below actually validates the shared-work computation.
    scenario = build_real_scenario(
        num_users=NUM_OBJECTS, duration_seconds=DURATION_SECONDS, seed=29
    )
    queries = overlapping_queries(
        scenario, count=NUM_QUERIES, k=3, q_fraction=0.6, seed=200
    )

    timings: Dict[str, float] = {}
    rankings: Dict[str, List[List[int]]] = {}

    # Sequential: a fresh cold engine per query — the pre-engine baseline of
    # eight independent top_k calls.
    began = time.perf_counter()
    rankings["sequential"] = [
        _engine(scenario, EngineConfig.uncached())
        .search(scenario.iupt, query, "nested-loop")
        .top_k_ids()
        for query in queries
    ]
    timings["sequential"] = time.perf_counter() - began

    # Warm store: one engine, stream answered twice, second pass measured.
    warm = _engine(scenario)
    for query in queries:
        warm.search(scenario.iupt, query, "nested-loop")
    began = time.perf_counter()
    rankings["warm_store"] = [
        warm.search(scenario.iupt, query, "nested-loop").top_k_ids()
        for query in queries
    ]
    timings["warm_store"] = time.perf_counter() - began
    warm_cache = warm.cache_stats()

    # Batched: one pass sharing per-object work across the whole stream.
    batched = _engine(scenario)
    began = time.perf_counter()
    report = batched.batch(scenario.iupt, queries)
    timings["batched"] = time.perf_counter() - began
    rankings["batched"] = report.rankings()

    # Every strategy must agree before any speed claim counts — and the
    # workload must produce real flows, otherwise agreement is vacuous.
    assert rankings["sequential"] == rankings["warm_store"] == rankings["batched"]
    assert any(
        entry.flow > 0.0 for result in report.results for entry in result.ranking
    ), "benchmark workload produced only zero flows; equality checks are vacuous"

    # The acceptance property: batching a stream of overlapping queries beats
    # running them independently (typically 4-8x measured; the shared work is
    # ~NUM_QUERIES-fold).  A wall-clock ratio is only asserted when the
    # dedicated smoke-benchmark CI job opts in via REPRO_BENCH_STRICT=1 —
    # the tier-1 suite also collects this file, and a correctness gate must
    # not fail on a timing race on loaded hosts.
    speedup_batched = timings["sequential"] / timings["batched"]
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup_batched > 1.3, (
            f"batched evaluation should beat sequential; got {speedup_batched:.2f}x "
            f"({timings['sequential']:.3f}s vs {timings['batched']:.3f}s)"
        )

    if os.environ.get("REPRO_BENCH_STRICT") != "1":
        # Correctness runs (the tier-1 suite collects this file) must not
        # rewrite the committed report with machine-local timings; only the
        # opted-in smoke-benchmark run records numbers.
        return

    payload = {
        "benchmark": "engine-throughput",
        "codec": codec_info(),
        "workload": {
            "scenario": scenario.name,
            "records": len(scenario.iupt),
            "objects": NUM_OBJECTS,
            "duration_seconds": DURATION_SECONDS,
            "queries": NUM_QUERIES,
            "query_kind": "overlapping TkPLQ, shared window",
        },
        "seconds": {name: round(value, 4) for name, value in timings.items()},
        "queries_per_second": {
            name: round(NUM_QUERIES / value, 2) for name, value in timings.items()
        },
        "speedup_vs_sequential": {
            name: round(timings["sequential"] / value, 2)
            for name, value in timings.items()
        },
        "warm_store_cache": warm_cache,
        "rankings_equal": True,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}:")
    print(json.dumps(payload["queries_per_second"], indent=2))


def test_engine_throughput_synthetic_sharded():
    """The multi-floor synthetic grid on the sharded store, batched vs. sequential.

    Historically the synthetic grid builder produced all-zero flows, making
    ranking-equality assertions vacuous (see ROADMAP); now that it yields
    real flows, the engine acceptance property — batched evaluation beats
    independent sequential calls with identical rankings — is also asserted
    on a multi-floor, sharded-store workload.  Runs after the real-scenario
    benchmark and merges its section into the same ``BENCH_engine.json``.
    """
    scenario = build_synthetic_scenario(
        num_objects=10,
        floors=2,
        room_rows=1,
        rooms_per_row=3,
        duration_seconds=240.0,
        seed=17,
        shard_seconds=60.0,
    )
    queries = overlapping_queries(
        scenario, count=6, k=3, q_fraction=0.6, seed=120
    )

    began = time.perf_counter()
    sequential_rankings = [
        _engine(scenario, EngineConfig.uncached())
        .search(scenario.iupt, query, "nested-loop")
        .top_k_ids()
        for query in queries
    ]
    sequential_s = time.perf_counter() - began

    batched = _engine(scenario)
    began = time.perf_counter()
    report = batched.batch(scenario.iupt, queries)
    batched_s = time.perf_counter() - began

    assert sequential_rankings == report.rankings()
    assert any(
        entry.flow > 0.0 for result in report.results for entry in result.ranking
    ), "synthetic grid produced only zero flows again; see the ROADMAP regression"

    speedup = sequential_s / batched_s
    if os.environ.get("REPRO_BENCH_STRICT") != "1":
        return
    assert speedup > 1.3, (
        f"batched evaluation should beat sequential on the synthetic sharded "
        f"workload; got {speedup:.2f}x ({sequential_s:.3f}s vs {batched_s:.3f}s)"
    )

    payload = json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    payload["synthetic_sharded"] = {
        "workload": {
            "scenario": scenario.name,
            "records": len(scenario.iupt),
            "objects": 10,
            "floors": 2,
            "store": "sharded",
            "shard_seconds": 60.0,
            "queries": len(queries),
        },
        "seconds": {
            "sequential": round(sequential_s, 4),
            "batched": round(batched_s, 4),
        },
        "speedup_batched_vs_sequential": round(speedup, 2),
        "rankings_equal": True,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nmerged synthetic_sharded into {REPORT_PATH}: {speedup:.2f}x")
