"""``durable_ingest_recover``: storage and codec only, no engine call.

One cycle, in a fresh directory: ingest the stream table in five-second
batches into ``IUPT.durable`` (default ``DurabilityConfig()``: fsync
``batch``, binary codec) timing each ack; copy the un-checkpointed directory
and reopen the copy (crash regime: WAL replay) with window probes across the
shards; checkpoint, close and reopen the original (snapshot regime: lazy
packed shards) with the same probes and a full read; measure bytes on disk.
There is one probe window inside every shard, so in the
snapshot regime every probe is a first touch that materialises exactly one
lazily loaded shard — those are the read latencies.  A read issued at restart
waits for the open, so the first probe of a regime includes the open time.
Every statistic is taken per cycle and reported as the median over cycles.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from typing import Dict, List, Tuple

from repro import IUPT
from repro.storage import DurabilityConfig, DurableRecordStore, ShardedRecordStore

from .. import inputs, layers, procs, stats
from ..harness import Measurement, Ops, RunContext, SetupTimer

FULL = dict(objects=60, duration=1800.0, batch_seconds=5.0, probe_seconds=60.0)
#: Batches between two ticks, and per write segment.
TICK_EVERY_BATCHES = 10
ACK_SEGMENT = 120
SMOKE = dict(objects=6, duration=480.0, batch_seconds=20.0, probe_seconds=60.0)


def _probe_windows(seed: int, duration: float, length: float) -> List[Tuple[float, float]]:
    """One window inside every shard; the seed picks where in the shard.

    Shards differ several-fold in size (objects enter and leave the building),
    and a first-touch probe costs what materialising its shard costs — so every
    run probes every shard, and the seed only moves the window within it.
    """
    rng = random.Random(seed)
    shard = inputs.STREAM_SHARD_SECONDS
    return [
        (start, start + length)
        for start in (
            round(key * shard + rng.uniform(0.0, shard - length - 1.0), 3)
            for key in range(int(duration // shard))
        )
    ]


class _FsyncCounter:
    """Wraps ``os.fsync`` for the traced cycles only (device layer)."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self._real = os.fsync

    def __call__(self, fd) -> None:
        began = time.perf_counter()
        self._real(fd)
        self.seconds += time.perf_counter() - began
        self.count += 1

    def __enter__(self) -> "_FsyncCounter":
        os.fsync = self
        return self

    def __exit__(self, *_exc) -> None:
        os.fsync = self._real


def _reopen_and_probe(path, windows, speed, tracer, span: str):
    """Reopen ``path`` and run the window probes, ticks on either side.

    Returns ``(store, open seconds, raw probe latencies in ms — the first
    includes the open —, probe rows, each probe's tick factor)``.  A tick
    separates the probes, so each is scaled by the ticks on either side of it.
    """
    speed.tick(2)
    began = time.perf_counter()
    with tracer.span(span):
        store = DurableRecordStore(path)
    opened = time.perf_counter() - began
    latencies: List[float] = []
    spans: List[Tuple[float, float]] = []
    rows = []
    for index, (start, end) in enumerate(windows):
        sent = time.perf_counter()
        rows.append(store.range_query(start, end))
        answered = time.perf_counter()
        latencies.append(((opened if index == 0 else 0.0) + answered - sent) * 1000.0)
        spans.append((began if index == 0 else sent, answered))
        speed.tick()
    speed.tick()
    return store, opened, latencies, rows, [speed.factor(*span) for span in spans]


def _verify(store, windows, rows, oracle, ops: Ops, label: str) -> None:
    """Recovered rows and version tokens must equal the volatile oracle's."""
    for (start, end), found in zip(windows, rows):
        same = found == oracle.range_query(start, end) and (
            store.version_token(start, end)[1] == oracle.version_token(start, end)[1]
        )
        ops.check(same, f"{label}: window [{start}, {end}] differs from the volatile oracle")
    ops.check(store.shard_versions() == oracle.shard_versions(),
              f"{label}: shard versions differ from the oracle")


def run(ctx: RunContext) -> Measurement:
    size = SMOKE if ctx.smoke else FULL
    ops = Ops()
    out = Measurement(ops)
    tracer = ctx.tracer

    setups: List[Tuple[float, float]] = []
    scenario_builds: List[float] = []
    speed = ctx.speed
    acks_ms: List[List[float]] = []
    ingest_factors: List[float] = []
    ack_factors: List[float] = []
    probe_ms: List[List[float]] = []
    probe_factors: List[List[float]] = []
    restart_seconds: List[float] = []
    restart_factors: List[float] = []
    round_p50: Dict[bool, List[float]] = {False: [], True: []}
    ingest_seconds: List[float] = []
    recovery_seconds: List[float] = []
    checkpoint_seconds: List[float] = []
    open_replay: List[float] = []
    open_snapshot: List[float] = []
    phase_seconds = 0.0
    disk_per_record: List[float] = []
    wal_per_record: List[float] = []
    frames_replayed = shards_lazy = 0
    fsync = _FsyncCounter()
    batches: List[list] = []
    windows: List[Tuple[float, float]] = []
    oracle = None

    for round_index in range(ctx.rounds):
        traced = tracer.enabled = ctx.round_traced(round_index)
        # ---- set-up: stream table, batches, volatile oracle (timed) -------
        setup = SetupTimer(speed)
        scenario = inputs.stream_scenario(size["objects"], size["duration"])
        scenario_builds.append(time.perf_counter() - setup.began)
        setup.mark()
        records = inputs.records_in_time_order(scenario)
        batches = inputs.time_batches(records, size["batch_seconds"], 0.0, size["duration"] + 1.0)
        oracle = ShardedRecordStore(shard_seconds=inputs.STREAM_SHARD_SECONDS)
        for batch in batches:
            oracle.ingest_batch(batch)
        setup.mark()
        windows = _probe_windows(ctx.seed, size["duration"], size["probe_seconds"])
        everything = list(oracle.records_in_time_order())
        base = procs.scratch_dir("durable-")
        setups.append(setup.done())

        # ---- measured phase: whole cycles --------------------------------
        share = ctx.seconds / ctx.rounds
        phase_began = time.perf_counter()
        round_ms: List[float] = []
        cycle = 0
        try:
            while cycle == 0 or time.perf_counter() - phase_began < share:
                live, copy = base / f"c{cycle}", base / f"c{cycle}-crash"
                cycle += 1
                with tracer.span("cycle"):
                    with fsync if traced else contextlib.nullcontext():
                        cycle_acks: List[float] = []
                        chunk_began: List[float] = []
                        speed.write_tick()
                        speed.write_tick()
                        began = time.perf_counter()
                        with tracer.span("storage.durable.ingest"):
                            iupt = IUPT.durable(live, shard_seconds=inputs.STREAM_SHARD_SECONDS,
                                                config=DurabilityConfig())
                            for number, batch in enumerate(batches):
                                if number % TICK_EVERY_BATCHES == 0 and number:
                                    speed.write_tick()
                                if number % ACK_SEGMENT == 0:
                                    chunk_began.append(time.perf_counter())
                                sent = time.perf_counter()
                                receipt = iupt.ingest_batch(batch)
                                acked = time.perf_counter()
                                if ops.check(receipt.records_ingested == len(batch), "durable ingest lost records"):
                                    cycle_acks.append((acked - sent) * 1000.0)
                        ended = time.perf_counter()
                        speed.write_tick()
                        speed.write_tick()
                    ingest_factors.append(speed.write_factor(began, ended))
                    ingest_seconds.append(sum(cycle_acks) / 1000.0)
                    # One write segment per ACK_SEGMENT acks, scaled by the
                    # write ticks (CPU and device) inside it and on either side.
                    chunk_began.append(ended)
                    for index, first in enumerate(range(0, len(cycle_acks), ACK_SEGMENT)):
                        acks_ms.append(cycle_acks[first:first + ACK_SEGMENT])
                        ack_factors.append(speed.write_factor(chunk_began[index], chunk_began[index + 1]))
                    wal_per_record.append(procs.dir_bytes(live) / len(records))

                    # Crash regime: the un-checkpointed bytes, reopened.
                    shutil.copytree(live, copy)
                    crashed, opened, crash_ms, rows, crash_factor = _reopen_and_probe(
                        copy, windows, speed, tracer, "storage.durable.open_replay")
                    open_replay.append(opened)
                    frames_replayed = int(crashed.recovery_report["frames_replayed"])
                    recovery_seconds.append(sum(crash_ms) / 1000.0)
                    _verify(crashed, windows, rows, oracle, ops, "crash regime")
                    crashed.close()

                    # Snapshot regime: checkpoint, close, reopen lazily.
                    began = time.perf_counter()
                    with tracer.span("storage.durable.checkpoint"):
                        iupt.store.checkpoint()
                    checkpoint_seconds.append(time.perf_counter() - began)
                    iupt.store.close()
                    disk_per_record.append(procs.dir_bytes(live) / len(records))
                    reopened, opened, snap_ms, rows, snap_factor = _reopen_and_probe(
                        live, windows, speed, tracer, "storage.durable.open_snapshot")
                    open_snapshot.append(opened)
                    shards_lazy = int(reopened.recovery_report["shards_loaded_lazily"])
                    _verify(reopened, windows, rows, oracle, ops, "snapshot regime")
                    ops.check(list(reopened.records_in_time_order()) == everything,
                              "snapshot regime: full table differs from the oracle")
                    reopened.close()
                    round_ms.extend(snap_ms)
                    probe_ms.append(snap_ms)
                    probe_factors.append(snap_factor)
                    restart_seconds.append((sum(crash_ms) + sum(snap_ms)) / 1000.0)
                    restart_factors.append(stats.median(crash_factor + snap_factor))
                    shutil.rmtree(live)
                    shutil.rmtree(copy)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        phase_seconds += time.perf_counter() - phase_began
        round_p50[traced].append(
            stats.percentile(round_ms, 50) * speed.factor(phase_began, time.perf_counter()))

    usage = procs.proc_usage(os.getpid())
    e2e = out.end_to_end
    out.setup(setups)
    out.latency("read", probe_ms, probe_factors)
    out.rate("reads_per_s", [2 * len(windows)] * len(restart_seconds), restart_seconds, restart_factors)
    out.latency("write_ack", acks_ms, ack_factors)
    out.rate("write_records_per_s", [len(everything)] * len(ingest_seconds), ingest_seconds,
             ingest_factors)
    e2e["peak_rss_mb"] = usage["peak_rss_mb"]
    out.phase_seconds = phase_seconds

    layer = out.per_layer
    layer["synth.scenario_build_s"] = stats.median(scenario_builds)
    layer["storage.durable.recovery_s"] = stats.median(recovery_seconds)
    layer["storage.durable.disk_bytes_per_record"] = stats.median(disk_per_record)
    layer["storage.durable.ingest_s"] = stats.median(ingest_seconds)
    layer["storage.durable.ack_max_ms"] = max(max(cycle) for cycle in acks_ms)
    layer["storage.durable.checkpoint_s"] = stats.median(checkpoint_seconds)
    layer["storage.durable.open_replay_s"] = stats.median(open_replay)
    layer["storage.durable.open_snapshot_s"] = stats.median(open_snapshot)
    layer["storage.durable.frames_replayed"] = float(frames_replayed)
    layer["storage.durable.shards_loaded_lazily"] = float(shards_lazy)
    layer["storage.durable.wal_bytes_per_record"] = stats.median(wal_per_record)
    if ctx.trace:
        packed = [(key, version, batch.encode()) for key, version, batch in oracle.packed_shard_states()]
        sharded = layers.sharded_metrics(batches, windows, inputs.STREAM_SHARD_SECONDS, packed)
        layer.update(sharded)
        layer["storage.durable.wal_overhead_ratio"] = (
            layer["storage.durable.ingest_s"] / sharded["storage.sharded.ingest_s"]
        )
        layer.update(layers.codec_metrics(list(oracle.records_in_time_order())))
        layer["device.fsync_count"] = float(fsync.count)
        layer["device.fsync_s"] = fsync.seconds
        layer.update(layers.trace_overhead(round_p50))
    return out
