"""The query service end to end: serve, subscribe, stream, get pushed.

This example runs the whole network stack in one process:

* a :class:`~repro.service.server.QueryService` puts one shared
  :class:`~repro.engine.runtime.QueryEngine` and one sharded table behind
  the newline-delimited JSON wire protocol;
* a *dashboard* client connects, runs a one-shot top-k query, then opens a
  standing subscription over the live window;
* a *loader* client — a different connection — streams positioning batches
  in through ``ingest_batch``; every batch that touches the standing window
  triggers an incremental refresh on the server, which **pushes** the new
  ranking to the dashboard without the dashboard issuing any request;
* the dashboard finally reads the service's metrics (``stats``) and the
  server drains gracefully.

Run with::

    python examples/query_server.py
"""

from __future__ import annotations

import asyncio

from repro import IUPT, QueryEngine, QueryService, ServiceClient
from repro.synth import build_real_scenario

SHARD_SECONDS = 60.0
DURATION = 480.0
HISTORY = 240.0  # loaded before serving; the rest streams in over the wire


async def main_async() -> None:
    scenario = build_real_scenario(num_users=10, duration_seconds=DURATION, seed=29)
    labels = {
        sloc_id: scenario.plan.slocations[sloc_id].label()
        for sloc_id in scenario.slocation_ids()
    }
    slocs = scenario.slocation_ids()

    iupt = IUPT(shard_seconds=SHARD_SECONDS)
    stream = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    iupt.ingest_batch([r for r in stream if r.timestamp < HISTORY])
    backlog = [r for r in stream if r.timestamp >= HISTORY]

    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    service = QueryService(engine, iupt)
    host, port = await service.start()
    print(f"query service serving on {host}:{port} ({len(iupt)} records loaded)")

    dashboard = await ServiceClient.connect(host, port)
    loader = await ServiceClient.connect(host, port)

    # One-shot query over the wire.
    answer = await dashboard.top_k(slocs, 3, 0.0, HISTORY)
    ranking = [labels[sloc_id] for sloc_id, _flow in answer["ranking"]]
    print(f"one-shot top-3 over [0, {HISTORY:.0f}]s: {ranking}")

    # A standing subscription over the live window: refreshed by the
    # server after every batch ANY client streams in, pushed — not polled.
    subscription = await dashboard.subscribe_top_k(slocs, 3, HISTORY, DURATION)
    initial = [labels[s] for s, _f in subscription.result["ranking"]]
    print(f"registered standing top-3 over the live window; initial: {initial}")

    # The loader client streams the backlog in shard-sized batches.
    while backlog:
        boundary = backlog[0].timestamp + SHARD_SECONDS
        batch = []
        while backlog and backlog[0].timestamp < boundary:
            batch.append(backlog.pop(0))
        receipt = await loader.ingest_batch(batch)
        push = await subscription.next_update(timeout=10.0)
        pushed = [labels[s] for s, _f in push["result"]["ranking"]]
        print(
            f"loader ingested {receipt['records_ingested']} reports into shards "
            f"{receipt['shards_touched']} -> push #{push['seq']} to dashboard: "
            f"{pushed}"
        )

    stats = await dashboard.stats()
    print(
        f"service stats: {stats['requests']['total']} requests, "
        f"{stats['pushes']['sent']} pushes, "
        f"cache hit rate {stats['cache']['hit_rate']:.2f}, "
        f"{stats['continuous']['refreshes']} standing refreshes "
        f"({stats['continuous']['skipped']} skipped)"
    )

    await dashboard.close()
    await loader.close()
    await service.stop()
    print("service drained and stopped")


def main() -> None:
    asyncio.run(main_async())


if __name__ == "__main__":
    main()
