"""Per-layer probes shared by the workloads (traced runs only).

Each function times calls into one layer's public functions on the run's
actual inputs, or turns the program's own ``stats`` output into metric
deltas.  Metric names are ``<module>.<what>`` so a reader can find the code.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import IUPT, QueryEngine
from repro.codec import PackedRecordBatch, PresenceMatrix, decode_batch, encode_batch
from repro.service import protocol
from repro.storage import ShardedRecordStore

from . import stats
from .harness import run_read
from .inputs import Read


def trace_overhead(round_p50: Dict[bool, List[float]]) -> Dict[str, float]:
    """``trace.overhead_share`` = (traced - untraced) / untraced tick-scaled
    read p50 of the rounds (round 0 of a traced run stays untraced)."""
    if not round_p50[False] or not round_p50[True]:
        return {"trace.overhead_share": 0.0}
    untraced = stats.median(round_p50[False])
    traced = stats.median(round_p50[True])
    return {"trace.overhead_share": (traced - untraced) / untraced}


def cache_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``engine.cache.*`` deltas between two ``cache_stats()`` payloads."""

    def delta(key: str) -> float:
        return float(after.get(key, 0.0)) - float(before.get(key, 0.0))

    hits, misses = delta("hits"), delta("misses")
    return {
        "engine.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache.misses": misses,
        "engine.cache.evictions": delta("evictions"),
        "engine.cache.rekeys": delta("rekeys"),
        "engine.cache.entries": float(after.get("entries", 0.0)),
    }


def warm_query_us(engine: QueryEngine, iupt: IUPT, plan: Sequence[Read]) -> float:
    """Median in-process latency of ``plan`` repeated against a warm store."""
    engine.reset_cache()
    for read in plan:
        run_read(engine, iupt, read)
    samples: List[float] = []
    for read in plan:
        began = time.perf_counter()
        run_read(engine, iupt, read)
        samples.append((time.perf_counter() - began) * 1e6)
    return stats.percentile(samples, 50)


def warm_score_metrics(engine: QueryEngine, iupt: IUPT, plan: Sequence[Read]) -> Dict[str, float]:
    """``engine.score_s`` and ``codec.kernel_score_us`` on warm presence entries.

    Fetches each warm read's cached artefacts once, then times only the
    accumulation over them: the engine's configured kernel for
    ``engine.score_s`` and a bare :class:`PresenceMatrix` build-and-reduce
    for the codec kernel.
    """
    from repro.core.query import SearchStats
    from repro.engine.stages import accumulate_flows_over_entries

    pipeline = engine.pipeline
    graph = engine.flow_computer.graph
    kernel = engine.config.resolved_scoring_kernel
    score_s = 0.0
    kernel_us: List[float] = []
    for read in plan:
        if read.op != "flows":
            continue
        slocs = read.fields["q"]
        stage_ctx = pipeline.context(read.window, slocs, stats=SearchStats())
        entries = pipeline.presences(stage_ctx, pipeline.fetch.run(stage_ctx, iupt))
        parents = {sloc: graph.parent_cell(sloc) for sloc in slocs}
        began = time.perf_counter()
        accumulate_flows_over_entries(entries, slocs, parents, stage_ctx.stats, kernel=kernel)
        score_s += time.perf_counter() - began
        began = time.perf_counter()
        PresenceMatrix(entries, slocs, parents).accumulate_flows(slocs)
        kernel_us.append((time.perf_counter() - began) * 1e6)
    return {
        "engine.score_s": score_s,
        "codec.kernel_score_us": stats.percentile(kernel_us, 50) if kernel_us else 0.0,
    }


def codec_metrics(records: Sequence) -> Dict[str, float]:
    """Encode / decode / materialise cost of the packed layout, per record."""
    count = max(1, len(records))
    began = time.perf_counter()
    blob = encode_batch(records)
    encoded = time.perf_counter()
    decode_batch(blob)
    decoded = time.perf_counter()
    packed = PackedRecordBatch.decode(blob)
    parsed = time.perf_counter()
    packed.to_records()
    materialised = time.perf_counter()
    return {
        "codec.encode_ns_per_record": (encoded - began) * 1e9 / count,
        "codec.decode_ns_per_record": (decoded - encoded) * 1e9 / count,
        "codec.to_records_ns_per_record": (materialised - parsed) * 1e9 / count,
        "codec.bytes_per_record": len(blob) / count,
    }


def protocol_metrics(
    requests: Sequence[Read], responses: Sequence[object], results: Sequence[object],
    ingest_batches: Sequence[list],
) -> Dict[str, float]:
    """Cost of the wire codec on the run's actual frames.

    ``results`` are in-process ``TkPLQResult`` objects of the ``top_k`` reads
    (for ``result_to_wire``); ``responses`` the wire results clients received.
    """
    encode_us: List[float] = []
    for index, read in enumerate(requests):
        frame = dict(read.fields, id=index, op=read.op)
        began = time.perf_counter()
        protocol.encode_frame(frame)
        encode_us.append((time.perf_counter() - began) * 1e6)
    decode_us: List[float] = []
    sizes: List[float] = []
    for index, response in enumerate(responses):
        line = protocol.encode_frame(protocol.response_frame(index, response))
        sizes.append(float(len(line)))
        began = time.perf_counter()
        protocol.decode_frame(line.rstrip(b"\n"))
        decode_us.append((time.perf_counter() - began) * 1e6)
    to_wire_us: List[float] = []
    for result in results:
        began = time.perf_counter()
        protocol.result_to_wire(result)
        to_wire_us.append((time.perf_counter() - began) * 1e6)
    frame_bytes = sum(len(protocol.records_to_payload(batch)) for batch in ingest_batches)
    frame_records = sum(len(batch) for batch in ingest_batches)
    return {
        "service.protocol.encode_request_us": stats.percentile(encode_us, 50) if encode_us else 0.0,
        "service.protocol.decode_response_us": stats.percentile(decode_us, 50) if decode_us else 0.0,
        "service.protocol.result_to_wire_us": stats.percentile(to_wire_us, 50) if to_wire_us else 0.0,
        "service.protocol.response_bytes_p50": stats.percentile(sizes, 50) if sizes else 0.0,
        "service.protocol.ingest_frame_bytes_per_record": frame_bytes / max(1, frame_records),
    }


def server_metrics(before: dict, after: dict) -> Dict[str, float]:
    """``service.server.*`` / ``service.admission.*`` from two ``stats`` payloads.

    Only ``count`` and ``mean_ms`` of the server's histograms are used — its
    quantiles are bucket upper bounds.
    """

    def op_mean(op: str) -> float:
        new = after.get("latency_ms_by_op", {}).get(op)
        if not new:
            return 0.0
        old = before.get("latency_ms_by_op", {}).get(op) or {"count": 0, "mean_ms": 0.0}
        count = new["count"] - old["count"]
        if count <= 0:
            return 0.0
        return (new["mean_ms"] * new["count"] - old["mean_ms"] * old["count"]) / count

    admission = after.get("admission", {})
    return {
        "service.server.op_mean_ms.top_k": op_mean("top_k"),
        "service.server.op_mean_ms.flows": op_mean("flows"),
        "service.server.op_mean_ms.ingest_batch": op_mean("ingest_batch"),
        "service.server.requests": float(
            after["requests"]["total"] - before.get("requests", {}).get("total", 0)
        ),
        "service.server.errors": float(
            after["errors"]["total"] - before.get("errors", {}).get("total", 0)
        ),
        "service.admission.shed_total": float(
            admission.get("shed_total", 0) - before.get("admission", {}).get("shed_total", 0)
        ),
        "service.admission.peak_inflight": float(admission.get("peak_inflight", 0)),
    }


def sharded_metrics(
    batches: Sequence[list], probes: Sequence[tuple], shard_seconds: float,
    packed_shards: Optional[Sequence[tuple]] = None,
) -> Dict[str, float]:
    """Volatile sharded-store cost of the same batches and window probes."""
    store = ShardedRecordStore(shard_seconds=shard_seconds)
    began = time.perf_counter()
    for batch in batches:
        store.ingest_batch(batch)
    ingest_s = time.perf_counter() - began
    query_us: List[float] = []
    for start, end in probes:
        began = time.perf_counter()
        store.range_query(start, end)
        query_us.append((time.perf_counter() - began) * 1e6)
    metrics = {
        "storage.sharded.ingest_s": ingest_s,
        "storage.sharded.range_query_us": stats.percentile(query_us, 50) if query_us else 0.0,
    }
    if packed_shards is not None:
        # First touch of lazily loaded shards: adopt the packed blobs, then
        # materialise every shard by reading the whole table.
        lazy = ShardedRecordStore(shard_seconds=shard_seconds)
        for key, version, blob in packed_shards:
            lazy.load_shard_packed(key, PackedRecordBatch.decode(blob), version)
        began = time.perf_counter()
        lazy.records_in_time_order()
        metrics["storage.sharded.materialise_s"] = time.perf_counter() - began
    return metrics


def continuous_metrics(
    scenario, history: Sequence, live_batches: Sequence[list], standing: Sequence[Read],
    shard_seconds: float,
) -> Dict[str, float]:
    """In-process replay of the live batches with the standing windows held.

    ``refresh_ms_p50`` is the median extra cost of one ``ingest_batch`` with
    the standing windows registered over the same replay without them.
    """

    def replay(with_standing: bool):
        iupt = IUPT.sharded(shard_seconds=shard_seconds)
        iupt.ingest_batch(history)
        engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
        continuous = engine.continuous(iupt)
        if with_standing:
            for read in standing:
                f = read.fields
                continuous.register_top_k(f["q"], f["k"], f["start"], f["end"])
        costs: List[float] = []
        for batch in live_batches:
            began = time.perf_counter()
            iupt.ingest_batch(batch)
            costs.append((time.perf_counter() - began) * 1000.0)
        summary = continuous.describe()
        continuous.close()
        return costs, summary

    bare, _ = replay(False)
    held, summary = replay(True)
    extra = [max(0.0, h - b) for h, b in zip(held, bare)]
    return {
        "engine.continuous.refreshes": float(summary["refreshes"]),
        "engine.continuous.skipped": float(summary["skipped"]),
        "engine.continuous.objects_recomputed": float(summary["objects_recomputed"]),
        "engine.continuous.objects_rekeyed": float(summary["objects_rekeyed"]),
        "engine.continuous.refresh_ms_p50": stats.percentile(extra, 50) if extra else 0.0,
    }
