"""Replication benchmark: routed read scale-out vs. a single server.

Launches two real multi-process topologies via ``python -m
repro.service.topology`` (separate OS processes, so replica query work does
not share the benchmark's GIL):

* **single-server baseline** — one durable primary answering every read;
* **replicated** — one durable primary, **two WAL-shipping read replicas**,
  and one :class:`~repro.service.router.PartitionRouter` fanning writes to
  the primary and routing reads across the replicas by time-partition
  affinity.

Both topologies ingest the identical record stream as binary ``RPK1``
frames and then serve the identical deterministic read plan: 8 concurrent
clients looping ``ROUNDS`` times over a fixed set of ``top_k`` / ``flows``
windows spread across both time partitions.  Every node runs with the same
bounded per-node presence cache (``--presence-capacity``), sized so the
full working set **thrashes one node's cache but each partition's half fits
one replica's** — the cache-affinity effect partition routing exists for,
on top of the extra core a second replica process brings.

Correctness is asserted unconditionally and bit-identically: every response
from *both* topologies must equal the in-process engine's answer over the
same table, so the speedup is measured at equal output.  The aggregate
throughput comparison lands in ``BENCH_replication.json`` at the repository
root when the dedicated CI job opts in via ``REPRO_BENCH_STRICT=1``;
correctness-only runs do not rewrite the committed report.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from repro import IUPT, QueryEngine, ServiceClient
from repro.codec import codec_info
from repro.service import protocol
from repro.service.metrics import LatencyHistogram
from repro.synth import build_synthetic_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_replication.json"

NUM_CLIENTS = 8
COMBOS_PER_CLIENT = 8
ROUNDS = 4
NUM_REPLICAS = 2
SHARD_SECONDS = 60.0
DURATION = 240.0
WINDOW = 60.0
# Same bound on every node.  64 distinct (window, slocation-subset) pairs x
# ~10 objects ~= 640 presence entries total: cyclic access thrashes one
# 360-entry cache, while each partition's ~320 entries fit one replica's.
PRESENCE_CAPACITY = 360
# Window starts by partition (int(start // SHARD_SECONDS) % NUM_REPLICAS).
PARTITION_STARTS = {
    0: (0.0, 30.0, 120.0, 150.0),
    1: (60.0, 90.0, 180.0),
}

Combo = Tuple[str, dict]


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


def _shard_batches(scenario) -> List[List]:
    records = sorted(scenario.iupt.records, key=lambda r: r.timestamp)
    batches: List[List] = []
    boundary = SHARD_SECONDS
    current: List = []
    for record in records:
        while record.timestamp >= boundary:
            batches.append(current)
            current = []
            boundary += SHARD_SECONDS
        current.append(record)
    if current:
        batches.append(current)
    return [batch for batch in batches if batch]


def _client_plans(scenario) -> List[List[Combo]]:
    """Deterministic per-client read plans, balanced across both partitions."""
    slocs = scenario.slocation_ids()
    seen: set = set()
    plans: List[List[Combo]] = []
    for client_index in range(NUM_CLIENTS):
        rng = random.Random(7000 + client_index)
        plan: List[Combo] = []
        for combo_index in range(COMBOS_PER_CLIENT):
            partition = combo_index % NUM_REPLICAS
            while True:
                start = rng.choice(PARTITION_STARTS[partition])
                subset = tuple(sorted(rng.sample(slocs, max(3, len(slocs) * 2 // 3))))
                if (start, subset) not in seen:
                    seen.add((start, subset))
                    break
            fields = {"q": list(subset), "start": start, "end": start + WINDOW}
            if combo_index % 2 == 0:
                plan.append(("top_k", {**fields, "k": min(3, len(subset))}))
            else:
                plan.append(("flows", fields))
        plans.append(plan)
    return plans


def _oracle_answers(scenario, plans) -> Dict[int, List[object]]:
    """In-process ground truth for every combo, over the identical table."""
    iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
    for batch in _shard_batches(scenario):
        iupt.ingest_batch(batch)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    answers: Dict[int, List[object]] = {}
    for client_index, plan in enumerate(plans):
        expected: List[object] = []
        for op, fields in plan:
            if op == "top_k":
                result = engine.top_k(
                    iupt, fields["q"], fields["k"], fields["start"], fields["end"]
                )
                expected.append(protocol.result_to_wire(result))
            else:
                flows = engine.flows(
                    iupt, fields["q"], fields["start"], fields["end"]
                )
                expected.append({"flows": protocol.flows_to_wire(flows)})
        answers[client_index] = expected
    return answers


# ----------------------------------------------------------------------
# Topology processes
# ----------------------------------------------------------------------
class _Role:
    """One topology role as a child process; READY gives us its port."""

    def __init__(self, role: str, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.topology",
                role,
                "--presence-capacity",
                str(PRESENCE_CAPACITY),
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.proc.kill()
            raise AssertionError(
                f"{role} never became ready: {line!r}\n{self.proc.stderr.read()}"
            )
        _ready, self.host, port = line.split()
        self.port = int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


async def _ingest_stream(host: str, port: int, batches) -> int:
    """Ship the whole stream as binary RPK1 ingest frames; return last seq."""
    last_seq = 0
    async with await ServiceClient.connect(host, port) as client:
        for batch in batches:
            receipt = await client.ingest_batch(batch)
            assert receipt["records_ingested"] == len(batch)
            last_seq = int(receipt["seq"])
    return last_seq


async def _read_phase(host: str, port: int, plans, warmups) -> dict:
    """Run the deterministic read plan; return timings + every response."""
    clients = [
        await ServiceClient.connect(host, port) for _ in range(len(plans))
    ]
    try:
        # One untimed request per partition: absorbs the router's one-off
        # read-your-writes wait for replica catch-up (and TCP warmup) so the
        # timed window measures steady-state read serving in both phases.
        for op, fields in warmups:
            await clients[0].request(op, **fields)

        histogram = LatencyHistogram()

        async def run_client(client, plan):
            served: List[object] = []
            for _round in range(ROUNDS):
                for op, fields in plan:
                    began = time.perf_counter()
                    served.append(await client.request(op, **fields))
                    histogram.observe(time.perf_counter() - began)
            return served

        began = time.perf_counter()
        all_served = await asyncio.gather(
            *(run_client(c, p) for c, p in zip(clients, plans))
        )
        seconds = time.perf_counter() - began
    finally:
        for client in clients:
            await client.close()
    requests = len(plans) * COMBOS_PER_CLIENT * ROUNDS
    return {
        "served": all_served,
        "requests": requests,
        "seconds": seconds,
        "requests_per_second": requests / seconds,
        "latency_ms": histogram.as_dict(),
    }


def _assert_bit_identical(phase: dict, answers, label: str) -> None:
    for client_index, served in enumerate(phase["served"]):
        expected = answers[client_index]
        for i, response in enumerate(served):
            op = "top_k/flows"
            assert response == expected[i % COMBOS_PER_CLIENT], (
                f"{label}: {op} response {i} of client {client_index} "
                "diverged from the in-process engine"
            )


async def _fetch(host: str, port: int, op: str) -> dict:
    async with await ServiceClient.connect(host, port) as client:
        return await client.request(op)


async def _run_single_server(scenario, plans, warmups, batches) -> dict:
    with tempfile.TemporaryDirectory() as data_dir:
        primary = _Role("primary", "--data-dir", data_dir)
        try:
            await _ingest_stream(primary.host, primary.port, batches)
            phase = await _read_phase(primary.host, primary.port, plans, warmups)
            stats = await _fetch(primary.host, primary.port, "stats")
            phase["cache_hit_rate"] = stats["cache"]["hit_rate"]
            return phase
        finally:
            primary.stop()


async def _run_replicated(scenario, plans, warmups, batches) -> dict:
    with tempfile.TemporaryDirectory() as data_dir:
        primary = _Role("primary", "--data-dir", data_dir)
        replicas, router = [], None
        try:
            primary_at = f"{primary.host}:{primary.port}"
            replicas = [
                _Role("replica", "--primary", primary_at, "--name", f"r{i}")
                for i in range(NUM_REPLICAS)
            ]
            router = _Role(
                "router",
                "--primary",
                primary_at,
                "--replicas",
                ",".join(f"{r.host}:{r.port}" for r in replicas),
            )

            last_seq = await _ingest_stream(router.host, router.port, batches)
            phase = await _read_phase(router.host, router.port, plans, warmups)

            router_status = await _fetch(router.host, router.port, "stats")
            primary_stats = await _fetch(primary.host, primary.port, "stats")
            primary_repl = await _fetch(
                primary.host, primary.port, "replica_status"
            )
            replica_stats = [
                await _fetch(r.host, r.port, "stats") for r in replicas
            ]

            router_counters = router_status["router"]
            phase["reads_by_backend"] = router_counters["reads_by_backend"]
            phase["stale_waits"] = router_counters["stale_waits"]
            phase["primary_fallbacks"] = router_counters["primary_fallbacks"]
            phase["replica_cache_hit_rates"] = [
                s["cache"]["hit_rate"] for s in replica_stats
            ]
            phase["replication"] = {
                "last_seq": last_seq,
                "wal_pushes": primary_stats["pushes"]["wal"],
                "followers": primary_repl["followers"],
                "wal": primary_repl["wal"],
            }

            # The replicated path must actually be doing what the report
            # claims: the primary shipped binary WAL frames to both
            # followers, the router spread partitioned reads across both
            # replicas, and no read fell back to the primary.
            assert phase["replication"]["wal_pushes"] > 0
            assert len(phase["replication"]["followers"]) == NUM_REPLICAS
            assert phase["primary_fallbacks"] == 0
            spread = phase["reads_by_backend"]
            assert spread[1] > 0 and spread[2] > 0, spread
            return phase
        finally:
            if router is not None:
                router.stop()
            for replica in replicas:
                replica.stop()
            primary.stop()


def test_replication_read_scaleout_report():
    scenario = _scenario()
    batches = _shard_batches(scenario)
    plans = _client_plans(scenario)
    answers = _oracle_answers(scenario, plans)
    # One warmup combo per partition, identical in both phases.
    warmups = [plans[0][0], plans[0][1]]

    single = asyncio.run(_run_single_server(scenario, plans, warmups, batches))
    routed = asyncio.run(_run_replicated(scenario, plans, warmups, batches))

    # Equal correctness: both topologies answered every request with the
    # exact in-process result, so the throughput comparison is like-for-like.
    _assert_bit_identical(single, answers, "single-server")
    _assert_bit_identical(routed, answers, "routed")

    speedup = routed["requests_per_second"] / single["requests_per_second"]
    payload = {
        "benchmark": "replication-read-scaleout",
        "workload": {
            "scenario": scenario.name,
            "records": len(scenario.iupt),
            "ingest_batches": len(batches),
            "clients": NUM_CLIENTS,
            "combos_per_client": COMBOS_PER_CLIENT,
            "rounds": ROUNDS,
            "replicas": NUM_REPLICAS,
            "shard_seconds": SHARD_SECONDS,
            "presence_capacity_per_node": PRESENCE_CAPACITY,
        },
        "single_server": {
            key: (round(value, 4) if isinstance(value, float) else value)
            for key, value in single.items()
            if key != "served"
        },
        "routed": {
            key: (round(value, 4) if isinstance(value, float) else value)
            for key, value in routed.items()
            if key != "served"
        },
        "speedup": round(speedup, 2),
        "bit_identical": True,
        "codec": codec_info(),
    }

    if os.environ.get("REPRO_BENCH_STRICT") != "1":
        # Correctness runs (the tier-1 suite collects this file) must not
        # rewrite the committed report with machine-local timings.
        return

    # The scale-out claim of the PR: two replicas behind the partition
    # router sustain at least twice the single server's read throughput at
    # bit-identical output.
    assert speedup >= 2.0, payload

    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}:")
    print(
        json.dumps(
            {
                "single_rps": payload["single_server"]["requests_per_second"],
                "routed_rps": payload["routed"]["requests_per_second"],
                "speedup": payload["speedup"],
                "reads_by_backend": payload["routed"]["reads_by_backend"],
            },
            indent=2,
        )
    )
