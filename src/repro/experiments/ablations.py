"""Ablation studies for the design choices of README's *Architecture* section.

Two ablations complement the paper's own experiments:

* **data reduction ablation** — quantifies how much the intra-merge,
  inter-merge, and PSL pruning steps shrink the candidate path space and the
  running time (the paper's §5.2.1 reports the end-to-end effect only);
* **index ablation** — compares the paper's two time indexes (1D R-tree vs.
  B+-tree, built directly over the table's records) and the sorted timestamp
  column the store answers from on the IUPT range query, and the raw vs.
  merged indoor location matrix dimensions.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..core import DataReducer, DataReductionConfig, TkPLQuery
from ..core.paths import candidate_path_count
from ..engine import QueryEngine
from ..eval import run_method
from ..indexes import BPlusTree, OneDimensionalRTree
from ..space import IndoorLocationMatrix
from ..storage import ShardedRecordStore
from .config import get_real_scenario, real_scale
from .runner import QuerySetting, split_into_time_batches


def ablation_reduction(scale: str = "small") -> List[Dict[str, object]]:
    """Quantify the path-space shrinkage of each data reduction configuration."""
    scenario = get_real_scenario(scale)
    knobs = real_scale(scale)
    start, end = scenario.query_interval(knobs.default_delta_seconds, seed=3)
    sequences = scenario.iupt.sequences_in(start, end)
    query_set = set(scenario.slocation_ids())

    configurations = {
        "none": DataReductionConfig.disabled(),
        "intra-merge only": DataReductionConfig(True, False, False),
        "inter-merge only": DataReductionConfig(False, True, False),
        "intra+inter": DataReductionConfig(True, True, False),
        "full (paper)": DataReductionConfig.enabled(),
    }

    rows: List[Dict[str, object]] = []
    for label, config in configurations.items():
        reducer = DataReducer(scenario.system.graph, scenario.system.matrix, config)
        began = time.perf_counter()
        candidate_before = 0
        candidate_after = 0
        kept_objects = 0
        for sequence in sequences.values():
            candidate_before += candidate_path_count(sequence)
            reduced = reducer.reduce(sequence, query_set)
            if reduced.pruned:
                continue
            kept_objects += 1
            candidate_after += candidate_path_count(list(reduced.sequence))
        elapsed = time.perf_counter() - began
        rows.append(
            {
                "configuration": label,
                "objects_kept": kept_objects,
                "objects_total": len(sequences),
                "candidate_paths_before": candidate_before,
                "candidate_paths_after": candidate_after,
                "reduction_factor": round(
                    candidate_before / candidate_after if candidate_after else float("inf"), 2
                ),
                "time_s": round(elapsed, 4),
            }
        )
    return rows


def ablation_indexes(scale: str = "small") -> List[Dict[str, object]]:
    """Compare time-index variants and matrix merging on the same workload."""
    scenario = get_real_scenario(scale)
    knobs = real_scale(scale)
    start, end = scenario.query_interval(knobs.default_delta_seconds, seed=3)

    # The paper's two trees (§3.3), bulk-loaded over the table's records, and
    # the index the store actually answers from.
    records = scenario.iupt.records_in_time_order()
    pairs = [(record.timestamp, record) for record in records]
    variants = (
        ("1dr-tree", OneDimensionalRTree.from_sorted(pairs).range_query),
        ("bplus-tree", BPlusTree.bulk_load(pairs).range_query),
        (scenario.iupt.index_kind, scenario.iupt.range_query),
    )

    rows: List[Dict[str, object]] = []
    for variant, range_query in variants:
        began = time.perf_counter()
        repetitions = 50
        fetched = 0
        for _ in range(repetitions):
            fetched = len(range_query(start, end))
        elapsed = (time.perf_counter() - began) / repetitions
        rows.append(
            {
                "component": "time-index",
                "variant": variant,
                "records_fetched": fetched,
                "time_s": round(elapsed, 6),
            }
        )

    raw = IndoorLocationMatrix.from_graph(scenario.system.graph)
    merged = raw.merged(scenario.system.graph)
    for label, matrix in (("raw NxN", raw), ("merged MxM", merged)):
        rows.append(
            {
                "component": "indoor-location-matrix",
                "variant": label,
                "dimension": matrix.dimension,
                "nonempty_pairs": matrix.nonempty_pairs(),
            }
        )
    return rows


def ablation_continuous(scale: str = "small") -> List[Dict[str, object]]:
    """Standing-query maintenance: incremental refresh vs. a polling client.

    Replays the tail of the real scenario's report stream as live batches
    while standing TkPLQ queries cover historical windows and the live edge,
    once per strategy: ``incremental`` registers them with the
    continuous-query engine; ``polling`` is a client without standing
    queries, re-issuing each of them on its own engine after every batch.
    The results are identical by construction (the differential harness in
    ``tests/test_continuous.py`` asserts it); the rows quantify how much
    less work the delta maintenance does — refreshes skipped outright,
    artefacts re-keyed instead of recomputed, and the refresh time saved.
    (``benchmarks/test_bench_continuous.py`` runs the larger, asserted
    version of this comparison.)
    """
    scenario = get_real_scenario(scale)
    records = scenario.iupt.records_in_time_order()
    duration = scenario.duration_seconds
    history_end = duration / 2.0
    shard_seconds = max(duration / 8.0, 1.0)
    batch_seconds = shard_seconds / 2.0

    history = [r for r in records if r.timestamp < history_end]
    live = [r for r in records if r.timestamp >= history_end]
    batches = split_into_time_batches(live, history_end, batch_seconds)

    windows = [
        (0.0, shard_seconds),
        (shard_seconds, 2 * shard_seconds),
        (history_end, duration),
    ]
    slocs = scenario.slocation_ids()
    queries = [TkPLQuery.build(slocs, 3, start, end) for start, end in windows]

    rows: List[Dict[str, object]] = []
    for strategy in ("incremental", "polling"):
        table = ShardedRecordStore(shard_seconds=shard_seconds)
        table.ingest_batch(history)
        engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
        if strategy == "incremental":
            continuous = engine.continuous(table)
            for query in queries:
                continuous.register(query)
            for batch in batches:
                table.ingest_batch(batch)
            summary = continuous.describe()
            continuous.close()
        else:
            summary = {
                "refreshes": 0,
                "skipped": 0,
                "objects_recomputed": 0,
                "objects_rekeyed": 0,
                "elapsed_seconds": 0.0,
            }
            _poll(engine, table, queries, summary)
            for batch in batches:
                table.ingest_batch(batch)
                _poll(engine, table, queries, summary)
        rows.append(
            {
                "strategy": strategy,
                "standing_queries": len(windows),
                "batches_streamed": len(batches),
                "refreshes": summary["refreshes"],
                "skipped": summary["skipped"],
                "objects_recomputed": summary["objects_recomputed"],
                "objects_rekeyed": summary["objects_rekeyed"],
                "refresh_time_s": round(summary["elapsed_seconds"], 6),
            }
        )
    return rows


def _poll(engine, table, queries, summary: Dict[str, float]) -> None:
    """One round of a polling client: re-issue every standing query."""
    began = time.perf_counter()
    for query in queries:
        result = engine.search(table, query, "nested-loop")
        summary["objects_recomputed"] += result.stats.objects_computed
    summary["refreshes"] += len(queries)
    summary["elapsed_seconds"] += time.perf_counter() - began


def ablation_algorithms(scale: str = "small") -> List[Dict[str, object]]:
    """Head-to-head of the three search algorithms with and without reduction."""
    scenario = get_real_scenario(scale)
    knobs = real_scale(scale)
    setting = QuerySetting(
        k=3,
        q_fraction=0.6,
        delta_seconds=knobs.default_delta_seconds,
        repeats=1,
        mc_rounds=knobs.mc_rounds,
    )
    query = setting.queries(scenario)[0]
    rows: List[Dict[str, object]] = []
    for method in ("naive", "nl", "bf", "naive-org", "nl-org", "bf-org"):
        outcome = run_method(scenario, method, query)
        rows.append(outcome.as_row())
    return rows
