"""``cold_window_scan``: first-touch queries against the in-process engine.

One closed-loop caller runs a seeded, stratified plan of distinct
``top_k`` (best-first, k=3) / ``flows`` queries over the campus table with
``engine.reset_cache()`` before each, so fetch -> reduce -> path construction
-> scoring do all the work and the presence store and the wire do none.
Each round builds a fresh table and engine (that is ``setup_s``) and runs
whole passes of the plan, so every run measures the same set of queries.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Tuple

from repro import IUPT, QueryEngine
from repro.core.query import SearchStats
from repro.engine.cache import StoredPresence
from repro.engine.stages import accumulate_flows_over_entries

from .. import inputs, layers, procs, stats
from ..harness import Measurement, Ops, RunContext, SetupTimer, run_read, to_wire

FULL = dict(queries=40, duration=600.0, load_batch_seconds=5.0, loads=5, naive_checks=10)
SMOKE = dict(queries=6, duration=120.0, load_batch_seconds=5.0, loads=1, naive_checks=2)


def _replay_stages(ctx, engine, iupt, read, result, request: int, counts: Dict[str, float]) -> None:
    """Re-run one cold query stage by stage through the public stage objects.

    The engine's own ``top_k``/``flows`` call is one opaque span; replaying
    its stages from outside is what attributes that time to layers.  For a
    best-first ``top_k`` paths are rebuilt only for the objects the guided
    join actually visited (``stats.computed_object_ids``); its heap and
    R-tree work has no public stage and stays unattributed.
    """
    tracer = ctx.tracer
    pipeline = engine.pipeline
    stage_ctx = pipeline.context(read.window, read.fields["q"], stats=SearchStats(), use_store=False)
    with tracer.span("replay", request):
        with tracer.span("data.iupt.fetch", request):
            sequences = pipeline.fetch.run(stage_ctx, iupt)
        counts["fetch_records"] += sum(len(sequence) for sequence in sequences.values())
        with tracer.span("core.reduction.reduce", request):
            reduced = {oid: pipeline.reduce.run(stage_ctx, seq) for oid, seq in sequences.items()}
        counts["objects_in"] += len(reduced)
        counts["objects_pruned"] += sum(1 for r in reduced.values() if r.pruned)
        if read.op == "top_k":
            wanted = result.stats.computed_object_ids
        else:
            wanted = {oid for oid, r in reduced.items() if not r.pruned}
        entries: List[Tuple[int, StoredPresence]] = []
        with tracer.span("core.paths.build", request):
            for oid, r in reduced.items():
                entry = StoredPresence(psls=r.psls, sequence=r.sequence, pruned=r.pruned)
                if oid in wanted:
                    entry.computation = pipeline.paths.run(stage_ctx, r.sequence)
                entries.append((oid, entry))
        counts["objects_built"] += len(wanted)
        if read.op == "flows":
            graph = engine.flow_computer.graph
            parents = {sloc: graph.parent_cell(sloc) for sloc in read.fields["q"]}
            with tracer.span("engine.score", request):
                accumulate_flows_over_entries(
                    entries, read.fields["q"], parents, stage_ctx.stats,
                    kernel=engine.config.resolved_scoring_kernel,
                )
    paths = stage_ctx.stats.path_stats
    counts["candidate_paths"] += paths.candidate_paths
    counts["valid_paths"] += paths.valid_paths
    counts["truncated_objects"] += paths.truncated_objects


def run(ctx: RunContext) -> Measurement:
    size = SMOKE if ctx.smoke else FULL
    ops = Ops()
    out = Measurement(ops)
    tracer = ctx.tracer

    setups: List[Tuple[float, float]] = []
    scenario_builds: List[float] = []
    speed = ctx.speed
    load_acks_ms: List[List[float]] = []
    load_factors: List[float] = []
    pass_ms: List[List[float]] = []
    pass_factors: List[float] = []
    query_factors: List[List[float]] = []
    round_p50: Dict[bool, List[float]] = {False: [], True: []}
    phase_seconds = 0.0
    answers: Dict[int, object] = {}
    truncated_answers: Dict[int, bool] = {}
    counts: Dict[str, float] = dict.fromkeys(
        ("fetch_records", "objects_in", "objects_pruned", "objects_built",
         "candidate_paths", "valid_paths", "truncated_objects"), 0.0)
    traced_query_seconds = 0.0
    cache_total: Dict[str, float] = {"hits": 0.0, "misses": 0.0, "evictions": 0.0, "rekeys": 0.0}
    engine = iupt = plan = None

    for round_index in range(ctx.rounds):
        traced = tracer.enabled = ctx.round_traced(round_index)
        # ---- set-up: table, engine, plan (timed) -----------------------
        setup = SetupTimer(speed)
        scenario = inputs.campus_scenario(size["duration"])
        scenario_builds.append(time.perf_counter() - setup.began)
        records = inputs.records_in_time_order(scenario)
        # The table is loaded ``loads`` times (the last copy is kept): the
        # in-process ingest path is microseconds per batch, so one load is
        # too little work for a steady write metric.
        batches = inputs.time_batches(records, size["load_batch_seconds"], 0.0, size["duration"] + 1.0)
        for _load in range(size["loads"]):
            iupt = IUPT.sharded(shard_seconds=inputs.CAMPUS_SHARD_SECONDS)
            acks_ms: List[float] = []
            speed.tick(2)
            load_began = time.perf_counter()
            for batch in batches:
                began = time.perf_counter()
                receipt = iupt.ingest_batch(batch)
                ended = time.perf_counter()
                if ops.check(receipt.records_ingested == len(batch), "in-process ingest lost records"):
                    acks_ms.append((ended - began) * 1000.0)
            load_ended = time.perf_counter()
            speed.tick(2)
            load_acks_ms.append(acks_ms)
            load_factors.append(speed.factor(load_began, load_ended))
        engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
        plan = inputs.cold_plan(ctx.seed, scenario.slocation_ids(), size["queries"], size["duration"])
        setups.append(setup.done())

        # ---- measured phase: whole passes of the plan -------------------
        share = ctx.seconds / ctx.rounds
        phase_began = time.perf_counter()
        round_ms: List[float] = []
        first_pass = True
        while first_pass or time.perf_counter() - phase_began < share:
            first_pass = False
            pass_began = time.perf_counter()
            this_pass: List[float] = []
            spans: List[Tuple[float, float]] = []
            for index, read in enumerate(plan):
                engine.reset_cache()
                speed.tick()
                began = time.perf_counter()
                result = run_read(engine, iupt, read)
                ended = time.perf_counter()
                this_pass.append((ended - began) * 1000.0)
                spans.append((began, ended))
                wire = to_wire(read, result)
                if index not in answers:
                    answers[index] = wire
                    if read.op == "top_k":
                        truncated_answers[index] = result.stats.path_stats.truncated_objects > 0
                    ops.ok()
                else:
                    ops.check(wire == answers[index], f"query {index} answered differently on a repeat")
                if traced:
                    tracer.record(f"engine.{read.op}", began, ended, index)
                    traced_query_seconds += ended - began
                    for key, value in engine.cache_stats().items():
                        if key in cache_total:
                            cache_total[key] += value
                    _replay_stages(ctx, engine, iupt, read, result, index, counts)
            speed.tick(2)
            pass_ms.append(this_pass)
            pass_factors.append(speed.factor(pass_began, time.perf_counter()))
            # Each query is scaled by the ticks on either side of it: the
            # machine changes speed within a pass, and the heavy queries that
            # make up most of the mean must not depend on which state they met.
            query_factors.append([speed.factor(began, ended) for began, ended in spans])
            round_ms.extend(this_pass)
        phase_seconds += time.perf_counter() - phase_began
        # The overhead base is the round's mean, like the gated read metric.
        round_p50[traced].append(
            statistics.fmean(round_ms) * speed.factor(phase_began, time.perf_counter()))

    rss = procs.proc_usage(os.getpid())

    # ---- outside the timed phase: best-first against naive ----------------
    # Reported, not failed: on the two-floor campus table the seed program's
    # best-first answers differ from naive on most queries (see README,
    # "Known defect"), so a failed operation here would fail every run.
    top_k_indices = [i for i, read in enumerate(plan) if read.op == "top_k"]
    step = max(1, len(top_k_indices) // size["naive_checks"])
    sampled = top_k_indices[::step][: size["naive_checks"]]
    mismatches = 0
    for index in sampled:
        fields = plan[index].fields
        engine.reset_cache()
        naive = engine.top_k(iupt, fields["q"], fields["k"], fields["start"], fields["end"], algorithm="naive")
        best_ids = [sloc for sloc, _flow in answers[index]["ranking"]]
        mismatches += best_ids != naive.top_k_ids()

    # ---- end-to-end ------------------------------------------------------
    e2e = out.end_to_end
    out.setup(setups)
    # A read is one cold query, and the metric the *mean* over the plan of
    # each query's median over the passes.  The mean, because the plan mixes
    # 2 ms and 350 ms queries with a gap at the median: the p50 of a pass
    # moved between 36 and 63 ms with the seed where the mean stayed within
    # +-5 %.  Per query, because a burst that hits one pass then drops out.
    out.timing("read_ms", e2e, list(zip(*pass_ms)), list(zip(*query_factors)),
               within=stats.median, across=statistics.fmean)
    out.p90("read", pass_ms, query_factors)
    out.rate("reads_per_s", [len(p) for p in pass_ms], [sum(p) / 1000.0 for p in pass_ms], pass_factors)
    out.latency("write_ack", load_acks_ms, load_factors)
    out.rate("write_records_per_s", [len(records)] * len(load_acks_ms),
             [sum(acks) / 1000.0 for acks in load_acks_ms], load_factors)
    e2e["peak_rss_mb"] = rss["peak_rss_mb"]
    out.phase_seconds = phase_seconds

    # ---- per layer ---------------------------------------------------------
    layer = out.per_layer
    layer["synth.scenario_build_s"] = stats.median(scenario_builds)
    layer["core.paths.approx_answer_share"] = (
        sum(truncated_answers.values()) / len(truncated_answers) if truncated_answers else 0.0
    )
    layer["core.best_first.naive_mismatch_share"] = mismatches / max(1, len(sampled))
    if ctx.trace:
        fetch_s = tracer.total("data.iupt.fetch")
        reduce_s = tracer.total("core.reduction.reduce")
        paths_s = tracer.total("core.paths.build")
        score_s = tracer.total("engine.score")
        layer["data.iupt.fetch_s"] = fetch_s
        layer["data.iupt.fetch_records"] = counts["fetch_records"]
        layer["core.reduction.reduce_s"] = reduce_s
        layer["core.reduction.objects_in"] = counts["objects_in"]
        layer["core.reduction.pruned_share"] = counts["objects_pruned"] / max(1.0, counts["objects_in"])
        layer["core.paths.build_s"] = paths_s
        layer["core.paths.objects_built"] = counts["objects_built"]
        layer["core.paths.candidate_paths"] = counts["candidate_paths"]
        layer["core.paths.valid_paths"] = counts["valid_paths"]
        layer["core.paths.truncated_objects"] = counts["truncated_objects"]
        layer["core.paths.truncated_share"] = counts["truncated_objects"] / max(1.0, counts["objects_built"])
        layer["core.paths.share_of_cold_query"] = paths_s / traced_query_seconds
        layer["engine.score_s"] = score_s
        layer["engine.cold_unattributed_share"] = 1.0 - (
            (fetch_s + reduce_s + paths_s + score_s) / traced_query_seconds
        )
        layer["engine.warm_query_us"] = layers.warm_query_us(engine, iupt, plan)
        layer.update(layers.cache_metrics({}, dict(cache_total, entries=engine.cache_stats()["entries"])))
        layer.update(layers.trace_overhead(round_p50))
    return out
