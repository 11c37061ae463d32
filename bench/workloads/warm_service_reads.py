"""``warm_service_reads``: cached reads through one ``topology primary`` child.

The campus table is preloaded over the wire, one warm-up pass fills the
presence store, then two closed-loop connections cycle the warm combos.  The
working set fits the 4096-entry store, so path construction does nothing and
request decode, queueing, worker dispatch, cached scoring and result encode
dominate — the workload that bypasses path construction.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Tuple

from repro.service import ServiceClient

from .. import inputs, layers, procs, stats
from ..harness import (
    Measurement, Ops, Oracle, RunContext, SetupTimer, closed_loop, ingest_frames, latencies_ms, logged_read,
    settle_reads, timed_request,
)

CONNECTIONS = 2  # == nproc on the reference sandbox
QUERY_WORKERS = 2
SLICE_SECONDS = 0.25
#: Preload frames between two ticks (server idle), and per write segment.
ACK_TICK_EVERY = 10
ACK_SEGMENT = 120
FULL = dict(pairs=10, duration=600.0, load_batch_seconds=1.25)
SMOKE = dict(pairs=3, duration=120.0, load_batch_seconds=30.0)


async def _round(ctx, size, plan, expected, traced, acc) -> None:
    ops: Ops = acc["ops"]
    speed = ctx.speed
    setup = SetupTimer(speed)
    scenario = inputs.campus_scenario(size["duration"])
    acc["scenario_builds"].append(time.perf_counter() - setup.began)
    setup.mark()
    records = inputs.records_in_time_order(scenario)
    batches = inputs.time_batches(records, size["load_batch_seconds"], 0.0, size["duration"] + 1.0)
    acc["batches"] = batches
    with procs.Topology("warm-") as topology:
        primary = topology.start(
            "primary", "primary",
            ["--data-dir", str(topology.dir / "data"), "--query-workers", str(QUERY_WORKERS),
             *inputs.campus_topology_args(size["duration"])],
        )
        setup.mark()
        clients = [await ServiceClient.connect(primary.host, primary.port) for _ in range(CONNECTIONS)]
        try:
            # The preload is the write measurement: a write tick (CPU and
            # device: the primary's store is durable) every ACK_TICK_EVERY
            # frames, one segment per ACK_SEGMENT frames.
            speed.write_tick()
            speed.write_tick()
            for first in range(0, len(batches), ACK_SEGMENT):
                segment = batches[first:first + ACK_SEGMENT]
                acks_ms: List[float] = []
                load_began = time.perf_counter()
                for start in range(0, len(segment), ACK_TICK_EVERY):
                    await ingest_frames(clients[0], segment[start:start + ACK_TICK_EVERY], ops, acks_ms)
                    speed.write_tick()
                load_ended = time.perf_counter()
                acc["load_factors"].append(speed.write_factor(load_began, load_ended))
                acc["load_seconds"].append(sum(acks_ms) / 1000.0)
                acc["load_records"].append(sum(len(batch) for batch in segment))
                acc["acks_ms"].append(acks_ms)
            speed.write_tick()
            # Warm-up: every combo once, split over the connections.
            indexed = list(enumerate(plan))
            warm_logs: List[list] = [[] for _ in clients]

            async def warm(client, share, log):
                for index, read in share:
                    await logged_read(client, index, read, log)

            await asyncio.gather(*(
                warm(client, indexed[i::CONNECTIONS], warm_logs[i]) for i, client in enumerate(clients)
            ))
            for log in warm_logs:
                settle_reads(log, expected, ops, "warm-up")
            stats_before, error, _b, _e = await timed_request(clients[0], "stats", {})
            acc["setups"].append(setup.done())

            # ---- measured phase: short slices, two ticks between ------------
            phase_began = time.perf_counter()
            until = phase_began + ctx.seconds / ctx.rounds
            slices: List[Tuple[float, float, List[list]]] = []
            positions = [i * len(indexed) // CONNECTIONS for i in range(CONNECTIONS)]
            while time.perf_counter() < until:
                slice_began = time.perf_counter()
                logs: List[list] = [[] for _ in clients]
                await asyncio.gather(*(
                    closed_loop(client, indexed, min(until, slice_began + SLICE_SECONDS), logs[i], positions[i])
                    for i, client in enumerate(clients)
                ))
                slice_ended = time.perf_counter()
                for i, log in enumerate(logs):
                    positions[i] += len(log)
                slices.append((slice_began, slice_ended, logs))
                speed.tick(2)
            acc["phase_seconds"] += time.perf_counter() - phase_began

            stats_after, error_after, _b, _e = await timed_request(clients[0], "stats", {})
            usage = topology.usage()
        finally:
            for client in clients:
                await client.close()
    round_raw: List[float] = []
    for slice_began, slice_ended, logs in slices:
        good = [entry for log in logs for entry in settle_reads(log, expected, ops, "measured")]
        if not good:
            continue
        if traced:
            for index, began, ended in good:
                ctx.tracer.record(f"service.request.{plan[index].op}", began, ended, index)
        acc["read_slices"].append(latencies_ms(good))
        acc["slice_seconds"].append(slice_ended - slice_began)
        acc["slice_factors"].append(speed.factor(slice_began, slice_ended))
        round_raw.extend(acc["read_slices"][-1])
        acc["responses"] = [entry[3] for entry in logs[0][:64] if entry[4] is None]
    if round_raw:
        acc["round_p50"][traced].append(
            stats.percentile(round_raw, 50) * speed.factor(slices[0][0], slices[-1][1]))
    if error is None and error_after is None:
        acc["stats_pairs"].append((stats_before, stats_after))
    else:
        ops.fail(f"stats request failed: {error or error_after}")
    acc["usage"] = usage


def run(ctx: RunContext) -> Measurement:
    size = SMOKE if ctx.smoke else FULL
    ops = Ops()
    out = Measurement(ops)

    scenario = inputs.campus_scenario(size["duration"])
    records = inputs.records_in_time_order(scenario)
    plan = inputs.hot_plan(ctx.seed, scenario.slocation_ids(), size["pairs"], 0.0, size["duration"])
    oracle = Oracle(scenario, records, inputs.CAMPUS_SHARD_SECONDS)
    expected = {index: oracle.answer(read) for index, read in enumerate(plan)}

    acc: Dict[str, object] = dict(
        ops=ops, setups=[], scenario_builds=[], acks_ms=[], load_factors=[], load_seconds=[],
        load_records=[], read_slices=[], slice_seconds=[], slice_factors=[], round_p50={False: [], True: []}, phase_seconds=0.0, stats_pairs=[],
        usage={}, responses=[], batches=[],
    )
    for round_index in range(ctx.rounds):
        asyncio.run(_round(ctx, size, plan, expected, ctx.round_traced(round_index), acc))

    latencies: List[float] = [ms for piece in acc["read_slices"] for ms in piece]
    if not latencies or not any(acc["acks_ms"]):
        ops.fail("no successful reads or ingest acks to report")
        return out
    e2e = out.end_to_end
    out.setup(acc["setups"])
    out.latency("read", acc["read_slices"], acc["slice_factors"])
    out.rate("reads_per_s", [len(piece) for piece in acc["read_slices"]], acc["slice_seconds"],
             acc["slice_factors"])
    out.latency("write_ack", acc["acks_ms"], acc["load_factors"])
    out.rate("write_records_per_s", acc["load_records"], acc["load_seconds"], acc["load_factors"])
    usage = acc["usage"]
    e2e["peak_rss_mb"] = sum(role["peak_rss_mb"] for role in usage.values())
    out.phase_seconds = acc["phase_seconds"]
    out.samples["client.read_p99_ms"] = len(latencies)

    layer = out.per_layer
    layer["synth.scenario_build_s"] = stats.median(acc["scenario_builds"])
    layer["client.read_p99_ms"] = stats.percentile(latencies, 99)
    layer["proc.primary.cpu_s"] = usage["primary"]["cpu_s"]
    layer["proc.primary.peak_rss_mb"] = usage["primary"]["peak_rss_mb"]
    if acc["stats_pairs"]:
        before, after = acc["stats_pairs"][-1]
        layer.update(layers.cache_metrics(before.get("cache", {}), after.get("cache", {})))
        layer.update(layers.server_metrics(before, after))
    if ctx.trace:
        warm_us = layers.warm_query_us(oracle.engine, oracle.iupt, plan)
        layer["engine.warm_query_us"] = warm_us
        layer.update(layers.warm_score_metrics(oracle.engine, oracle.iupt, plan))
        layer["service.server.overhead_ms_p50"] = e2e["read_ms"] - warm_us / 1000.0
        results = [
            oracle.engine.top_k(oracle.iupt, r.fields["q"], r.fields["k"], r.fields["start"], r.fields["end"])
            for r in plan if r.op == "top_k"
        ]
        layer.update(layers.protocol_metrics(plan, acc["responses"], results, acc["batches"]))
        layer.update(layers.trace_overhead(acc["round_p50"]))
    return out
