"""``routed_stream_mixed``: writes beside reads through the full topology.

One durable primary, one WAL-shipping replica and one router, each a child
process.  Set-up preloads the history half of the campus table through the
router, warms the hot history combos and registers ten standing ``top_k``
windows tiling the live half.  In the measured phase connection W is an
open-loop writer streaming the live half on a fixed schedule (one write
outstanding; ack and push latencies are timed from each batch's *due* time)
while connection R is a closed-loop reader: three of four reads on the hot
history combos, one of four on the 30 s ending at the newest acknowledged
batch — read-your-writes through router -> replica.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from repro.service import ServiceClient, protocol

from .. import inputs, layers, procs, stats
from ..harness import (
    Measurement, Ops, Oracle, RunContext, REQUEST_TIMEOUT_SECONDS, ReadLog, SetupTimer, ingest_frames, latencies_ms,
    logged_read, settle_reads, slice_by_time, timed_request,
)

QUERY_WORKERS = 2
FRESH_SECONDS = 30.0
SLICE_SECONDS = 0.5
#: The reader takes two ticks this often, when no write is due for a while.
TICK_EVERY_SECONDS = 0.25
TICK_CLEARANCE_SECONDS = 0.02
FULL = dict(duration=600.0, history_end=300.0, hot_pairs=8, standing=10, interval=0.15,
            preload_batch_seconds=60.0)
SMOKE = dict(duration=120.0, history_end=60.0, hot_pairs=2, standing=2, interval=0.1,
             preload_batch_seconds=60.0)


class _Plan:
    """Everything seeded or derived from the table, built once per run."""

    def __init__(self, ctx: RunContext, size: dict, scenario, records: list):
        slocs = scenario.slocation_ids()
        self.hot = inputs.hot_plan(ctx.seed, slocs, size["hot_pairs"], 0.0, size["history_end"])
        # Standing and fresh queries ask about every S-location: what the
        # replica recomputes per batch must not depend on the seed (with
        # seeded 8-location subsets the read tail, and with it the closed-loop
        # read rate, moved 2x between seeds).
        self.fresh_q = self.standing_q = list(slocs)
        live_span = size["duration"] - size["history_end"]
        slice_seconds = live_span / size["standing"]
        self.standing = [
            inputs.Read("top_k", {
                "q": self.standing_q, "k": 3,
                "start": size["history_end"] + i * slice_seconds,
                "end": size["history_end"] + (i + 1) * slice_seconds - 0.001,
            })
            for i in range(size["standing"])
        ]
        self.history = [r for r in records if r.timestamp < size["history_end"]]
        self.preload = inputs.time_batches(
            self.history, size["preload_batch_seconds"], 0.0, size["history_end"])
        count = max(4, round(ctx.seconds / ctx.rounds / size["interval"]))
        self.live = inputs.time_batches(
            records, live_span / count, size["history_end"], size["duration"] + 1.0)
        self.payloads = [protocol.records_to_payload(batch) for batch in self.live]
        # The read-your-writes probe after batch i: the 30 s ending at its last record.
        self.fresh = [
            inputs.Read("top_k", {
                "q": self.fresh_q, "k": 3,
                "start": round(batch[-1].timestamp - FRESH_SECONDS, 6),
                "end": batch[-1].timestamp,
            })
            for batch in self.live
        ]
        shard = inputs.CAMPUS_SHARD_SECONDS
        touched = [{int(r.timestamp // shard) for r in batch} for batch in self.live]
        # A standing window refreshes (and pushes) whenever a batch touches
        # one of the shards its window overlaps.
        self.push_batches: List[List[int]] = []
        for read in self.standing:
            keys = set(range(int(read.fields["start"] // shard), int(read.fields["end"] // shard) + 1))
            self.push_batches.append([i for i, shards in enumerate(touched) if shards & keys])


async def _writer(client, plan: _Plan, dues: List[float], ops: Ops, acc, state, lag_probe) -> None:
    """Open-loop writer: one write outstanding, sent when due."""
    for index, payload in enumerate(plan.payloads):
        state["next_due"] = dues[index]
        delay = dues[index] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        state["late_ms"] = max(state["late_ms"], (time.perf_counter() - dues[index]) * 1000.0)
        response, error, _began, ended = await timed_request(
            client, "ingest_batch", {protocol.BIN_PAYLOAD: payload})
        if error is not None:
            ops.fail(error)
            continue
        if ops.check(response.get("records_ingested") == len(plan.live[index]),
                     f"ack {index} reported {response.get('records_ingested')} records"):
            acc["acks"][-1].append((index, dues[index], ended))
            acc["records"] += len(plan.live[index])
            state["acked"] = index
            if lag_probe is not None:
                state["lag_tasks"].append(asyncio.ensure_future(lag_probe(int(response["seq"]), ended)))
    state["next_due"] = float("inf")
    state["done"] = True


async def _reader(client, plan: _Plan, state, hot_log: ReadLog, fresh_log: ReadLog, speed) -> None:
    """Closed-loop reader.  Between two reads, when no write is in flight or
    about to be sent, it takes the calibration ticks: nothing of this
    benchmark's own is then in flight (replica apply and refresh may be)."""
    turn = 0
    hot_position = 0
    speed.tick(2)
    next_tick = time.perf_counter() + TICK_EVERY_SECONDS
    while not state["done"]:
        now = time.perf_counter()
        if now >= next_tick and state["next_due"] - now > TICK_CLEARANCE_SECONDS:
            speed.tick(2)
            next_tick = time.perf_counter() + TICK_EVERY_SECONDS
        turn += 1
        if turn % 4 == 0 and state["acked"] >= 0:
            index, read, log = state["acked"], plan.fresh[state["acked"]], fresh_log
        else:
            index, read, log = hot_position % len(plan.hot), plan.hot[hot_position % len(plan.hot)], hot_log
            hot_position += 1
        await logged_read(client, index, read, log)
    speed.tick(2)


async def _collect(subscription, arrivals: List[float]) -> None:
    while True:
        await subscription.updates.get()
        arrivals.append(time.perf_counter())


async def _direct_stats(role: procs.Role, ops: Ops) -> dict:
    client = await ServiceClient.connect(role.host, role.port)
    try:
        response, error, _b, _e = await timed_request(client, "stats", {})
    finally:
        await client.close()
    if error is not None:
        ops.fail(f"{role.role} {error}")
        return {}
    return response


async def _round(ctx: RunContext, size: dict, traced: bool, acc) -> None:
    ops: Ops = acc["ops"]
    setup = SetupTimer(ctx.speed)
    scenario = inputs.campus_scenario(size["duration"])
    acc["scenario_builds"].append(time.perf_counter() - setup.began)
    setup.mark()
    plan = _Plan(ctx, size, scenario, inputs.records_in_time_order(scenario))
    common = ["--query-workers", str(QUERY_WORKERS), *inputs.campus_topology_args(size["duration"])]
    with procs.Topology("routed-") as topology:
        primary = topology.start("primary", "primary", ["--data-dir", str(topology.dir / "data"), *common])
        replica = topology.start("replica", "replica", ["--primary", primary.address, *common])
        router = topology.start(
            "router", "router", ["--primary", primary.address, "--replicas", replica.address, *common])
        setup.mark()
        writer = await ServiceClient.connect(router.host, router.port)
        reader = await ServiceClient.connect(router.host, router.port)
        collectors: List[asyncio.Future] = []
        direct: Optional[ServiceClient] = None
        try:
            await ingest_frames(writer, plan.preload, ops)
            setup.mark()
            warm_log: ReadLog = []
            for index, read in enumerate(plan.hot):
                await logged_read(reader, index, read, warm_log)
            settle_reads(warm_log, acc["expected_hot"], ops, "warm-up")
            subscriptions = []
            for read in plan.standing:
                f = read.fields
                subscriptions.append(await asyncio.wait_for(
                    writer.subscribe_top_k(f["q"], f["k"], f["start"], f["end"]),
                    REQUEST_TIMEOUT_SECONDS))
            arrivals: List[List[float]] = [[] for _ in subscriptions]
            collectors = [
                asyncio.ensure_future(_collect(sub, arrivals[i])) for i, sub in enumerate(subscriptions)
            ]
            replica_before = await _direct_stats(replica, ops)
            primary_before = await _direct_stats(primary, ops)
            lag_probe = None
            if traced:
                direct = await ServiceClient.connect(replica.host, replica.port)

                async def lag_probe(seq: int, acked_at: float) -> None:
                    deadline = acked_at + REQUEST_TIMEOUT_SECONDS
                    while time.perf_counter() < deadline:
                        status, error, _b, seen = await timed_request(direct, "replica_status", {})
                        if error is None and int(status.get("applied_seq") or 0) >= seq:
                            acc["apply_lag_ms"].append((seen - acked_at) * 1000.0)
                            return
                        await asyncio.sleep(0.002)

            acc["setups"].append(setup.done())

            # ---- measured phase ------------------------------------------
            state = {"acked": -1, "done": False, "late_ms": 0.0, "lag_tasks": [], "next_due": 0.0}
            acc["acks"].append([])
            hot_log: ReadLog = []
            fresh_log: ReadLog = []
            phase_began = time.perf_counter()
            dues = [phase_began + 0.05 + i * size["interval"] for i in range(len(plan.payloads))]
            await asyncio.gather(
                _writer(writer, plan, dues, ops, acc, state, lag_probe),
                _reader(reader, plan, state, hot_log, fresh_log, ctx.speed),
            )
            phase = time.perf_counter() - phase_began
            acc["phase_seconds"] += phase
            acc["late_ms"] = max(acc["late_ms"], state["late_ms"])
            if state["lag_tasks"]:
                await asyncio.gather(*state["lag_tasks"])

            # Drain: every expected push must arrive within the timeout.
            expected_counts = [len(batches) for batches in plan.push_batches]
            deadline = time.perf_counter() + REQUEST_TIMEOUT_SECONDS
            while time.perf_counter() < deadline and any(
                len(got) < want for got, want in zip(arrivals, expected_counts)
            ):
                await asyncio.sleep(0.01)

            usage = topology.usage()
            router_stats, router_error, _b, _e = await timed_request(reader, "stats", {})
            replica_after = await _direct_stats(replica, ops)
            primary_after = await _direct_stats(primary, ops)
            if traced:
                # The router hop: the same hot plan sent straight to the replica.
                direct_log: ReadLog = []
                for _cycle in range(3):
                    for index, read in enumerate(plan.hot):
                        await logged_read(direct, index, read, direct_log)
                acc["direct_ms"].extend(
                    latencies_ms(settle_reads(direct_log, acc["expected_hot"], ops, "direct")))
            final_results = [sub.result for sub in subscriptions]
        finally:
            for task in collectors:
                task.cancel()
            await asyncio.gather(*collectors, return_exceptions=True)
            for client in (writer, reader, direct):
                if client is not None:
                    await client.close()

    # ---- settle the round (outside the timed phase) ----------------------
    hot = settle_reads(hot_log, acc["expected_hot"], ops, "hot read")
    oracle: Oracle = acc["oracle"]
    fresh_expected = {index: oracle.answer(plan.fresh[index]) for index in {e[0] for e in fresh_log}}
    fresh = settle_reads(fresh_log, fresh_expected, ops, "fresh read")
    acc["hot_ms"].extend(latencies_ms(hot))
    acc["fresh_ms"].extend(latencies_ms(fresh))
    for slice_began, slice_ended, piece in slice_by_time(
            hot + fresh, phase_began, phase_began + phase, SLICE_SECONDS):
        acc["read_slices"].append(latencies_ms(piece))
        acc["slice_seconds"].append(slice_ended - slice_began)
        acc["slice_factors"].append(ctx.speed.factor(slice_began, slice_ended))
    # Acks are few (one per schedule slot): one segment per round, each ack
    # scaled by the ticks around it.
    acc["acks_ms"].append(latencies_ms(acc["acks"][-1]))
    acc["ack_factors"].append([ctx.speed.factor(due, ended) for _index, due, ended in acc["acks"][-1]])
    acc["round_factors"].append(ctx.speed.factor(phase_began, phase_began + phase))
    acc["round_reads"].append(len(hot) + len(fresh))
    acc["write_counts"].append(sum(len(batch) for batch in plan.live))
    acc["write_seconds"].append(phase)
    if hot or fresh:
        acc["round_p50"][traced].append(
            stats.percentile(latencies_ms(hot + fresh), 50) * acc["round_factors"][-1])
    for sub_index, batches in enumerate(plan.push_batches):
        got = arrivals[sub_index]
        for position, batch_index in enumerate(batches):
            if position < len(got):
                ops.ok()
                acc["push_ms"].append((got[position] - dues[batch_index]) * 1000.0)
            else:
                ops.fail(f"standing window {sub_index}: push for batch {batch_index} never arrived")
        if len(got) > len(batches):
            ops.fail(f"standing window {sub_index}: {len(got) - len(batches)} unexpected pushes")
        ops.check(final_results[sub_index] == acc["expected_standing"][sub_index],
                  f"standing window {sub_index}: final result differs from the oracle")
    if traced:
        for log, name in ((hot_log, "router.read.hot"), (fresh_log, "router.read.fresh")):
            for index, began, ended, _response, error in log:
                if error is None:
                    ctx.tracer.record(name, began, ended, index)
    if router_error is not None:
        ops.fail(f"router {router_error}")
        router_stats = {}
    acc["usage"] = usage
    acc["stats"] = dict(router=router_stats, replica=(replica_before, replica_after),
                        primary=(primary_before, primary_after))


def run(ctx: RunContext) -> Measurement:
    size = SMOKE if ctx.smoke else FULL
    ops = Ops()
    out = Measurement(ops)

    scenario = inputs.campus_scenario(size["duration"])
    records = inputs.records_in_time_order(scenario)
    plan = _Plan(ctx, size, scenario, records)
    oracle = Oracle(scenario, records, inputs.CAMPUS_SHARD_SECONDS)
    acc: Dict[str, object] = dict(
        ops=ops, oracle=oracle, setups=[], scenario_builds=[], acks=[], acks_ms=[], ack_factors=[],
        round_factors=[], records=0,
        push_ms=[], round_reads=[], slice_seconds=[], slice_factors=[], write_counts=[], write_seconds=[],
        hot_ms=[], fresh_ms=[], read_slices=[], direct_ms=[], apply_lag_ms=[], round_p50={False: [], True: []},
        phase_seconds=0.0, late_ms=0.0, usage={}, stats={},
        expected_hot={index: oracle.answer(read) for index, read in enumerate(plan.hot)},
        expected_standing=oracle.standing_top_k(plan.standing),
    )
    for round_index in range(ctx.rounds):
        asyncio.run(_round(ctx, size, ctx.round_traced(round_index), acc))

    reads: List[float] = acc["hot_ms"] + acc["fresh_ms"]
    if not reads or not any(acc["acks_ms"]):
        ops.fail("no successful reads or ingest acks to report")
        return out
    e2e = out.end_to_end
    out.setup(acc["setups"])
    out.latency("read", acc["read_slices"], acc["slice_factors"])
    # Per round, not per slice: the first two seconds of every round run at a
    # fifth of the later rate, and a per-slice median would sit on that edge.
    out.rate("reads_per_s", acc["round_reads"], acc["write_seconds"], acc["round_factors"])
    out.latency("write_ack", acc["acks_ms"], acc["ack_factors"])
    # The schedule fixes this rate unless the writer falls behind: not scaled.
    out.rate("write_records_per_s", acc["write_counts"], acc["write_seconds"],
             [1.0] * len(acc["write_counts"]))
    usage = acc["usage"]
    e2e["peak_rss_mb"] = sum(role["peak_rss_mb"] for role in usage.values())
    out.phase_seconds = acc["phase_seconds"]

    layer = out.per_layer
    layer["synth.scenario_build_s"] = stats.median(acc["scenario_builds"])
    layer["client.read_p99_ms"] = stats.percentile(reads, 99)
    out.samples["client.read_p99_ms"] = len(reads)
    if acc["push_ms"]:
        layer["client.push_p50_ms"] = stats.percentile(acc["push_ms"], 50)
        layer["client.push_p90_ms"] = stats.percentile(acc["push_ms"], 90)
        out.samples["client.push_p50_ms"] = len(acc["push_ms"])
    if acc["fresh_ms"]:
        layer["service.router.fresh_read_p50_ms"] = stats.percentile(acc["fresh_ms"], 50)
    layer["loadgen.late_ms_max"] = acc["late_ms"]
    for role, numbers in usage.items():
        layer[f"proc.{role}.cpu_s"] = numbers["cpu_s"]
        layer[f"proc.{role}.peak_rss_mb"] = numbers["peak_rss_mb"]
    collected = acc["stats"]
    counters = collected.get("router", {}).get("router", {})
    if counters:
        layer["service.router.stale_waits"] = float(counters["stale_waits"])
        layer["service.router.primary_fallbacks"] = float(counters["primary_fallbacks"])
        layer["service.router.reads_primary"] = float(counters["reads_by_backend"][0])
        layer["service.router.reads_replica"] = float(sum(counters["reads_by_backend"][1:]))
        layer["service.router.pushes_relayed"] = float(counters["pushes_relayed"])
        backends = collected["router"].get("backends", [])
        if len(backends) >= 2:
            layer["service.replica.applied_batches"] = float(backends[1].get("applied_batches", 0))
            layer["service.replica.snapshot_catchups"] = float(backends[1].get("snapshot_catchups", 0))
            followers = backends[0].get("followers", {})
            layer["service.replica.frames_behind_end"] = float(
                max((f["frames_behind"] for f in followers.values()), default=0))
    replica_before, replica_after = collected.get("replica", ({}, {}))
    if replica_after:
        layer.update(layers.cache_metrics(replica_before.get("cache", {}), replica_after.get("cache", {})))
    primary_before, primary_after = collected.get("primary", ({}, {}))
    if primary_after:
        layer.update(layers.server_metrics(primary_before, primary_after))
    if replica_after:
        # Reads are served by the replica; writes (above) by the primary.
        served = layers.server_metrics(replica_before, replica_after)
        for op in ("top_k", "flows"):
            layer[f"service.server.op_mean_ms.{op}"] = served[f"service.server.op_mean_ms.{op}"]
    if ctx.trace:
        if acc["direct_ms"] and acc["hot_ms"]:
            layer["service.router.hop_ms_p50"] = (
                stats.percentile(acc["hot_ms"], 50) - stats.percentile(acc["direct_ms"], 50))
        if acc["apply_lag_ms"]:
            layer["service.replica.apply_lag_ms_p50"] = stats.percentile(acc["apply_lag_ms"], 50)
        layer.update(layers.continuous_metrics(
            scenario, plan.history, plan.live, plan.standing, inputs.CAMPUS_SHARD_SECONDS))
        layer["engine.warm_query_us"] = layers.warm_query_us(oracle.engine, oracle.iupt, plan.hot)
        layer.update(layers.trace_overhead(acc["round_p50"]))
    return out
