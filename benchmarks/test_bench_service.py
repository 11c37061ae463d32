"""Query-service benchmark: concurrent clients over the wire vs. the engine.

Starts one :class:`~repro.service.server.QueryService` over a synthetic
multi-floor scenario on the sharded store and drives it with **11 concurrent
client connections**:

* **8 query clients**, each issuing a deterministic mixed stream of ``top_k``
  and ``flows`` requests over overlapping windows of the preloaded history —
  the multi-tenant read traffic the service's worker pool and the engine's
  cross-query presence store exist for;
* **2 subscriber clients** holding standing subscriptions (one top-k, one
  flow set) over the live window;
* **1 loader client** streaming the live tail in through ``ingest_batch``,
  which turns into push frames on the subscribers' connections.

Correctness is asserted unconditionally and *bit-identically*: every queried
response must equal ``result_to_wire`` of a direct in-process
:class:`~repro.engine.runtime.QueryEngine` call over the same table, and the
full push sequence each subscriber received must equal the refresh sequence
an in-process :class:`~repro.engine.continuous.ContinuousQueryEngine`
produces when the identical batches are replayed.  (JSON round-trips IEEE-754
doubles exactly, so "bit-identical" is meant literally.)

Sustained throughput and client-observed latency percentiles are recorded in
``BENCH_service.json`` at the repository root when the dedicated CI job opts
in via ``REPRO_BENCH_STRICT=1``; correctness-only runs (the tier-1 suite
collects this file) do not rewrite the committed report.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import time
from typing import List, Tuple

from repro import IUPT, QueryEngine, ServiceClient, QueryService
from repro.codec import codec_info
from repro.service import protocol
from repro.service.metrics import LatencyHistogram
from repro.synth import build_synthetic_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_service.json"

NUM_QUERY_CLIENTS = 8
REQUESTS_PER_CLIENT = 6
NUM_SUBSCRIBERS = 2
SHARD_SECONDS = 60.0
DURATION = 240.0
HISTORY = 120.0


def _scenario():
    return build_synthetic_scenario(
        num_objects=10,
        floors=2,
        room_rows=1,
        rooms_per_row=3,
        duration_seconds=DURATION,
        seed=17,
        shard_seconds=SHARD_SECONDS,
    )


def _split_stream(scenario):
    records = sorted(scenario.iupt.records, key=lambda r: r.timestamp)
    history = [r for r in records if r.timestamp < HISTORY]
    live = [r for r in records if r.timestamp >= HISTORY]
    # Shard-sized live batches, replayed identically over the wire and in
    # the in-process differential oracle.
    batches: List[List] = []
    boundary = HISTORY + SHARD_SECONDS
    current: List = []
    for record in live:
        while record.timestamp >= boundary:
            batches.append(current)
            current = []
            boundary += SHARD_SECONDS
        current.append(record)
    if current:
        batches.append(current)
    return history, [batch for batch in batches if batch]


def _client_requests(scenario) -> List[List[Tuple[str, dict]]]:
    """The deterministic mixed request stream of each query client."""
    slocs = scenario.slocation_ids()
    plans: List[List[Tuple[str, dict]]] = []
    for client_index in range(NUM_QUERY_CLIENTS):
        rng = random.Random(1000 + client_index)
        requests: List[Tuple[str, dict]] = []
        for request_index in range(REQUESTS_PER_CLIENT):
            subset = sorted(rng.sample(slocs, max(3, len(slocs) * 2 // 3)))
            start = float(rng.choice((0.0, 20.0, 40.0)))
            end = float(rng.choice((80.0, 100.0, HISTORY)))
            if (client_index + request_index) % 2 == 0:
                requests.append(
                    (
                        "top_k",
                        {
                            "q": subset,
                            "k": min(3, len(subset)),
                            "start": start,
                            "end": end,
                        },
                    )
                )
            else:
                requests.append(
                    ("flows", {"q": subset, "start": start, "end": end})
                )
        plans.append(requests)
    return plans


def _direct_wire_answer(engine: QueryEngine, iupt: IUPT, op: str, fields: dict):
    """What the service *must* return for one request, computed in-process."""
    if op == "top_k":
        result = engine.top_k(
            iupt, fields["q"], fields["k"], fields["start"], fields["end"]
        )
        return protocol.result_to_wire(result)
    flows = engine.flows(iupt, fields["q"], fields["start"], fields["end"])
    return {"flows": protocol.flows_to_wire(flows)}


async def _run_benchmark(scenario):
    history, live_batches = _split_stream(scenario)
    slocs = scenario.slocation_ids()

    iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
    iupt.ingest_batch(history)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    service = QueryService(engine, iupt, query_workers=4)
    host, port = await service.start()

    plans = _client_requests(scenario)
    histogram = LatencyHistogram()

    # ------------------------------------------------------------------
    # Phase 1: 8 concurrent query clients over the static history.
    # ------------------------------------------------------------------
    async def run_client(plan: List[Tuple[str, dict]]) -> List[object]:
        results: List[object] = []
        async with await ServiceClient.connect(host, port) as client:
            for op, fields in plan:
                began = time.perf_counter()
                results.append(await client.request(op, **fields))
                histogram.observe(time.perf_counter() - began)
        return results

    began = time.perf_counter()
    all_results = await asyncio.gather(*(run_client(plan) for plan in plans))
    query_seconds = time.perf_counter() - began
    total_requests = NUM_QUERY_CLIENTS * REQUESTS_PER_CLIENT

    # Bit-identical gate: every served response equals the direct call.
    reference = QueryEngine(scenario.system.graph, scenario.system.matrix)
    for plan, results in zip(plans, all_results):
        for (op, fields), served in zip(plan, results):
            expected = _direct_wire_answer(reference, iupt, op, fields)
            assert served == expected, f"wire {op} response diverged from engine"

    # ------------------------------------------------------------------
    # Phase 2: subscribers receive pushes caused by the loader's stream.
    # ------------------------------------------------------------------
    # Differential oracle first: replay the identical stream in-process and
    # record the refresh sequence the on_update hook produces — that tells
    # us exactly how many push frames the wire subscribers must receive.
    oracle_iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
    oracle_iupt.ingest_batch(history)
    oracle_engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    oracle = oracle_engine.continuous(oracle_iupt)
    expected_topk: List[object] = []
    expected_flows: List[object] = []
    oracle.register_top_k(
        slocs, 3, HISTORY, DURATION,
        on_update=lambda s, r: expected_topk.append(protocol.result_to_wire(r)),
    )
    oracle.register_flows(
        slocs, HISTORY, DURATION,
        on_update=lambda s, r: expected_flows.append(
            {"flows": protocol.flows_to_wire(r)}
        ),
    )
    for batch in live_batches:
        oracle_iupt.ingest_batch(batch)
    oracle.close()
    assert len(expected_topk) > 0 and len(expected_flows) > 0

    topk_subscriber = await ServiceClient.connect(host, port)
    flows_subscriber = await ServiceClient.connect(host, port)
    loader = await ServiceClient.connect(host, port)

    topk_sub = await topk_subscriber.subscribe_top_k(slocs, 3, HISTORY, DURATION)
    flows_sub = await flows_subscriber.subscribe_flows(slocs, HISTORY, DURATION)

    began = time.perf_counter()
    for batch in live_batches:
        await loader.ingest_batch(batch)
    # Collect the pushes the stream caused (subscribers issue NO requests).
    topk_pushes = [
        await topk_sub.next_update(timeout=30.0) for _ in expected_topk
    ]
    flows_pushes = [
        await flows_sub.next_update(timeout=30.0) for _ in expected_flows
    ]
    stream_seconds = time.perf_counter() - began

    assert [p["result"] for p in topk_pushes] == expected_topk
    assert [p["seq"] for p in topk_pushes] == list(range(1, len(topk_pushes) + 1))
    assert [p["result"] for p in flows_pushes] == expected_flows
    assert topk_sub.updates.empty() and flows_sub.updates.empty()

    # The push traffic must carry real signal, not all-zero flows.
    assert any(
        flow > 0.0 for _s, flow in topk_pushes[-1]["result"]["ranking"]
    ), "benchmark stream produced only zero flows; push equality is vacuous"

    stats = await loader.stats()
    for client in (topk_subscriber, flows_subscriber, loader):
        await client.close()
    await service.stop()

    return {
        "workload": {
            "scenario": scenario.name,
            "records": len(scenario.iupt),
            "history_records": len(history),
            "live_batches": len(live_batches),
            "query_clients": NUM_QUERY_CLIENTS,
            "subscriber_clients": NUM_SUBSCRIBERS,
            "loader_clients": 1,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "shard_seconds": SHARD_SECONDS,
        },
        "query_phase": {
            "requests": total_requests,
            "seconds": round(query_seconds, 4),
            "requests_per_second": round(total_requests / query_seconds, 2),
            "latency_ms": histogram.as_dict(),
        },
        "stream_phase": {
            "batches": len(live_batches),
            "seconds": round(stream_seconds, 4),
            "pushes_topk": len(topk_pushes),
            "pushes_flows": len(flows_pushes),
        },
        "server": {
            "requests": stats["requests"],
            "pushes": stats["pushes"],
            "cache_hit_rate": stats["cache"]["hit_rate"],
            "admission": {
                "admitted": stats["admission"]["admitted"],
                "shed_total": stats["admission"]["shed_total"],
                "peak_inflight": stats["admission"]["peak_inflight"],
            },
        },
        "bit_identical": True,
    }


def test_service_concurrent_clients_report():
    scenario = _scenario()
    payload = asyncio.run(_run_benchmark(scenario))
    payload["benchmark"] = "service-concurrent-clients"
    payload["codec"] = codec_info()

    if os.environ.get("REPRO_BENCH_STRICT") != "1":
        # Correctness runs (the tier-1 suite collects this file) must not
        # rewrite the committed report with machine-local timings.
        return

    # The service must actually sustain concurrent load: nothing was shed
    # at the default admission limits, and the pool saw real concurrency.
    assert payload["server"]["admission"]["shed_total"] == 0
    assert payload["server"]["admission"]["peak_inflight"] > 1

    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}:")
    print(
        json.dumps(
            {
                "requests_per_second": payload["query_phase"][
                    "requests_per_second"
                ],
                "latency_p95_ms": payload["query_phase"]["latency_ms"]["p95_ms"],
                "pushes": payload["stream_phase"]["pushes_topk"]
                + payload["stream_phase"]["pushes_flows"],
            },
            indent=2,
        )
    )
