"""The road between the wire and the engine: read loop → worker → transport.

A pooled request is admitted in the read loop, run on a worker thread and
answered by one loop callback that writes the whole frame to the transport.
These tests pin what that path owes its peers — whole frames in order, every
request answered once, a stalled reader delaying nobody, a drain that answers
what it admitted, one error mapping, quiet workers, unchanged admission
counters — over raw sockets where a :class:`ServiceClient` would hide it.
"""

from __future__ import annotations

import asyncio
import socket
import threading

from repro import IUPT, DurabilityConfig, QueryEngine, QueryService, ServiceClient
from repro.service import protocol
from repro.service.admission import REASON_CAPACITY, REASON_DRAINING
from repro.service.protocol import ProtocolError
from repro.storage import DurableRecordStore, EvictedRangeError
from repro.storage.wal import decode_wal_frames
from tests.frame_feed import next_frame

HISTORY = 120.0
DURATION = 240.0
SHARD_SECONDS = 60.0


def _split_stream(scenario):
    records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    return (
        [r for r in records if r.timestamp < HISTORY],
        [r for r in records if r.timestamp >= HISTORY],
    )


async def _serve(scenario, preload, durable_dir=None, **service_options):
    """A started service over ``preload``; durable (checkpointing after every
    batch, so a ``wal_tail`` at cursor 0 is answered with a snapshot payload)
    when given a directory."""
    if durable_dir is None:
        iupt = IUPT(shard_seconds=SHARD_SECONDS)
    else:
        iupt = DurableRecordStore(
            durable_dir,
            shard_seconds=SHARD_SECONDS,
            config=DurabilityConfig(snapshot_every_batches=1),
        )
    iupt.ingest_batch(preload)
    engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
    service = QueryService(engine, iupt, **service_options)
    host, port = await service.start()
    return service, host, port


async def _dial(host, port, limit=protocol.MAX_FRAME_BYTES, rcvbuf=None):
    """A raw ``(reader, writer)`` pair: the test frames and parses itself."""
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    return await asyncio.open_connection(sock=sock, limit=limit)


def _send(writer, request_id, op, **fields):
    writer.write(protocol.encode_frame({"id": request_id, "op": op, **fields}))


async def _next_frame(reader, timeout=20.0):
    return await asyncio.wait_for(next_frame(reader), timeout)


def _gate_searches(service):
    """Make every ``top_k`` handler wait on the returned event, on its worker."""
    gate, search = threading.Event(), service.engine.search

    def gated(*args, **kwargs):
        assert gate.wait(20.0)
        return search(*args, **kwargs)

    service.engine.search = gated
    return gate


async def _until(condition, what, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, what
        await asyncio.sleep(0.002)


def _wal_seqs(frames):
    """The ``seq`` of each WAL push, its log frames decoded on the way."""
    seqs = []
    for frame in frames:
        assert frame["push"] == "wal", frame
        payload = frame[protocol.BIN_PAYLOAD]
        decoded, valid = decode_wal_frames(payload)
        assert valid == len(payload) and decoded
        assert {logged["seq"] for logged in decoded} == {frame["seq"]}
        seqs.append(frame["seq"])
    return seqs


class TestFramesStayWholeAndOrdered:
    def test_pipelined_requests_beside_pushes_parse_and_answer_once(
        self, small_real_scenario, tmp_path
    ):
        """200 pipelined reads share one connection with the pushes another
        client's ingests cause — standing-query updates and, the connection
        also tailing the WAL, binary WAL frames: every byte parses as a frame,
        every id is answered once, update and WAL seqs are contiguous."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()
        count = 200

        async def run():
            service, host, port = await _serve(
                scenario, history, tmp_path, max_inflight=count + 8
            )
            reader, writer = await _dial(host, port)
            _send(writer, 0, "subscribe", kind="top_k", q=slocs, k=3,
                  start=HISTORY, end=DURATION)
            sub_id = (await _next_frame(reader))["result"]["subscription"]
            _send(writer, "tail", "wal_tail", cursor=0, follower="raw")
            tail = await _next_frame(reader)
            assert tail["result"]["mode"] == "snapshot"
            shards, valid = decode_wal_frames(tail[protocol.BIN_PAYLOAD])
            assert valid == len(tail[protocol.BIN_PAYLOAD])
            assert len(shards) == tail["result"]["shards"]
            cursor = tail["result"]["cursor"]

            async def ingest_live():
                async with await ServiceClient.connect(host, port) as loader:
                    step = max(1, len(live) // 12)
                    for index in range(0, len(live), step):
                        await loader.ingest_batch(live[index:index + step])

            loading = asyncio.ensure_future(ingest_live())
            for request_id in range(1, count + 1):
                if request_id % 2:
                    _send(writer, request_id, "top_k", q=slocs, k=3,
                          start=0.0, end=HISTORY + request_id % 7)
                else:
                    _send(writer, request_id, "flows", q=slocs[:4],
                          start=0.0, end=DURATION)
            answered, pushes, wal = [], [], []

            async def read_until(done):
                while not done():
                    frame = await _next_frame(reader)  # raises on a torn frame
                    assert frame is not None, "the server hung up"
                    if protocol.is_wal_push_frame(frame):
                        wal.append(frame)
                    elif protocol.is_push_frame(frame):
                        pushes.append(frame)
                    else:
                        assert frame["ok"], frame
                        answered.append(frame["id"])

            await read_until(lambda: len(answered) == count)
            await loading
            # A push is written before the ack of the ingest that caused it,
            # so every push precedes this pong.
            _send(writer, "fence", "ping")
            await read_until(lambda: answered[-1] == "fence")
            assert answered.pop() == "fence"
            assert sorted(answered) == list(range(1, count + 1))
            assert pushes and all(p["subscription"] == sub_id for p in pushes)
            assert [p["seq"] for p in pushes] == list(range(1, len(pushes) + 1))
            assert service.metrics.pushes_sent == len(pushes)
            last = service.iupt.last_committed_seq
            assert _wal_seqs(wal) == list(range(cursor + 1, last + 1)) != []
            assert service.metrics.wal_pushes_sent == len(wal)
            writer.close()
            await service.stop()

        asyncio.run(run())

    def test_a_client_that_stops_reading_delays_nobody_and_loses_nothing(
        self, small_real_scenario, tmp_path
    ):
        """A follower that stops reading backs up its own transport buffer
        only: another client's ingests and reads proceed, and the stalled
        tail then receives its handshake and every WAL push, in order."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _serve(scenario, history, tmp_path)
            reader, writer = await _dial(host, port, limit=4096, rcvbuf=4096)
            await _until(lambda: service._connections, "never accepted")
            (stalled,) = service._connections
            stalled.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            _send(writer, 1, "wal_tail", cursor=0, follower="stalled")
            await _until(
                lambda: service.metrics.requests_by_op.get("wal_tail") == 1,
                "the stalled client's handshake was never answered",
            )
            # … and nobody else waits behind it.
            async with await ServiceClient.connect(host, port) as other:
                async def traffic():
                    for index in range(0, len(live), max(1, len(live) // 8)):
                        await other.ingest_batch(live[index:index + 1])
                        await other.top_k(slocs, 3, 0.0, DURATION)
                await asyncio.wait_for(traffic(), timeout=10.0)
            # Its frames are written; what the peer will not take waits in its
            # own transport buffer.
            assert stalled.transport.get_write_buffer_size() > 0
            tail = await _next_frame(reader)
            assert tail["id"] == 1 and tail["result"]["mode"] == "snapshot"
            decode_wal_frames(tail[protocol.BIN_PAYLOAD])
            last = service.iupt.last_committed_seq
            cursor = tail["result"]["cursor"]
            wal = [await _next_frame(reader) for _ in range(last - cursor)]
            assert _wal_seqs(wal) == list(range(cursor + 1, last + 1)) != []
            writer.close()
            await service.stop()

        asyncio.run(run())


class TestDrainAnswersWhatItAdmitted:
    def test_stop_answers_inflight_pooled_requests_and_sheds_a_late_one(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _serve(scenario, history, query_workers=2)
            gate = _gate_searches(service)
            reader, writer = await _dial(host, port)
            for request_id in range(1, 6):
                _send(writer, request_id, "top_k", q=slocs, k=3,
                      start=float(request_id), end=HISTORY)
            await _until(lambda: service.admission.inflight == 5, "never admitted")
            stopping = asyncio.ensure_future(service.stop())
            await _until(lambda: service.admission.draining, "never drained")
            _send(writer, 99, "top_k", q=slocs, k=3, start=0.0, end=HISTORY)
            late = await _next_frame(reader)
            assert late["id"] == 99 and not late["ok"]
            assert late["error"]["kind"] == "overloaded"
            assert late["error"]["reason"] == REASON_DRAINING
            assert not stopping.done()
            gate.set()
            frames = [await _next_frame(reader) for _ in range(5)]
            assert sorted(frame["id"] for frame in frames) == [1, 2, 3, 4, 5]
            direct = QueryEngine(scenario.system.graph, scenario.system.matrix)
            for frame in frames:
                query = protocol.query_from_wire(
                    {"q": slocs, "k": 3, "start": float(frame["id"]), "end": HISTORY}
                )
                assert frame["result"] == protocol.result_to_wire(
                    direct.search(service.iupt, query, "nested-loop")
                )
            # Only then does the socket close.
            assert await _next_frame(reader) is None
            await stopping
            assert service.admission.inflight == 0
            writer.close()

        asyncio.run(run())


#: What a handler raises → the ``error.kind`` the wire carries.
ERROR_KINDS = [
    (ProtocolError("unknown_op", "as the error says"), "unknown_op"),
    (ProtocolError("bad_request", "as the error says"), "bad_request"),
    (EvictedRangeError(0.0, 60.0, 90.0), "evicted_range"),
    (ValueError("bad value"), "bad_request"),
    (KeyError("missing"), "bad_request"),
    (TypeError("bad type"), "bad_request"),
    (NotImplementedError("not yet"), "bad_request"),
    (RuntimeError("broken"), "internal"),
    (ZeroDivisionError("broken"), "internal"),
]


class TestOneErrorMapping:
    def test_a_pooled_op_and_a_coroutine_op_map_exceptions_alike(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _serve(scenario, history)
            raising = []

            def fail(*_args, **_kwargs):
                raise raising[0]

            service.engine.search = fail  # what top_k (pooled) calls
            service.continuous.register = fail  # what subscribe (coroutine) calls
            reader, writer = await _dial(host, port)
            query = dict(q=slocs, k=3, start=0.0, end=HISTORY)
            for error, kind in ERROR_KINDS:
                raising[:] = [error]
                answers = []
                for op in ("top_k", "subscribe"):
                    _send(writer, op, op, **query)
                    frame = await _next_frame(reader)
                    assert frame["id"] == op and not frame["ok"]
                    assert frame["error"]["kind"] == kind, (op, error)
                    answers.append(frame["error"])
                assert answers[0] == answers[1]
                if kind == "evicted_range":
                    assert answers[0]["watermark"] == 90.0
            expected = {}
            for _error, kind in ERROR_KINDS:
                expected[kind] = expected.get(kind, 0) + 2
            assert service.metrics.errors_by_kind == expected
            assert service.admission.inflight == 0
            writer.close()
            await service.stop()

        asyncio.run(run())


class TestWorkersOutliveTheLoopQuietly:
    def test_a_worker_finishing_after_the_loop_closed_does_not_raise(
        self, small_real_scenario, monkeypatch
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        started = threading.Event()

        async def run():
            service, host, port = await _serve(scenario, history, query_workers=1)
            gate = _gate_searches(service)
            gated = service.engine.search

            def announce(*args, **kwargs):
                started.set()
                return gated(*args, **kwargs)

            service.engine.search = announce
            _reader, writer = await _dial(host, port)
            _send(writer, 1, "top_k", q=slocs, k=3, start=0.0, end=HISTORY)
            await _until(started.is_set, "the handler never started")
            writer.close()
            await _until(lambda: not service._connections, "never hung up")
            service._server.close()  # no stop(): the loop goes away mid-handler
            return service, gate

        service, gate = asyncio.run(run())
        gate.set()
        pool = service._pool
        for _ in pool._workers:
            pool._work.put(None)
        for worker in pool._workers:
            worker.join(10.0)
            assert not worker.is_alive()
        assert raised == []


class TestAdmissionCountsAreUnchanged:
    def test_a_fixed_script_counts_what_it_always_counted(self, small_real_scenario):
        """Pooled requests hold their slot from the read loop to the answer;
        ``ping`` / ``stats`` and a replica's refusals never touch the gate.
        The figures are fixed for this script: two capacity sheds, one drain
        shed, four admissions."""
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _serve(
                scenario, history, role="replica", max_inflight=3
            )
            gate = _gate_searches(service)
            reader, writer = await _dial(host, port)
            query = dict(q=slocs, k=3, start=0.0, end=HISTORY)

            async def shed_reason():
                frame = await _next_frame(reader)
                assert frame["error"]["kind"] == "overloaded", frame
                return frame["error"]["reason"]

            for request_id in range(1, 6):
                _send(writer, request_id, "top_k", **query)
            assert [await shed_reason(), await shed_reason()] == [REASON_CAPACITY] * 2
            assert service.admission.inflight == 3
            gate.set()
            assert all([(await _next_frame(reader))["ok"] for _ in range(3)])
            _send(writer, 6, "flows", q=slocs[:3], start=0.0, end=HISTORY)
            assert (await _next_frame(reader))["ok"]
            _send(writer, 8, "evict_before", timestamp=10.0)
            assert (await _next_frame(reader))["error"]["kind"] == "bad_request"
            _send(writer, 9, "ping")
            assert (await _next_frame(reader))["ok"]
            service.admission.begin_drain()
            _send(writer, 10, "top_k", **query)
            assert await shed_reason() == REASON_DRAINING
            _send(writer, 11, "stats")
            stats = (await _next_frame(reader))["result"]
            assert stats["admission"] == {
                "max_inflight": 3,
                "inflight": 0,
                "draining": True,
                "admitted": 4,
                "shed_capacity": 2,
                "shed_draining": 1,
                "shed_total": 3,
                "peak_inflight": 3,
            }
            # A shed request is answered and counted, but is not an error of
            # the service; the replica's refusal is.
            assert stats["errors"] == {"total": 1, "by_kind": {"bad_request": 1}}
            assert stats["requests"]["by_op"] == {
                "evict_before": 1, "flows": 1, "ping": 1, "top_k": 6,
            }
            writer.close()
            await service.stop()

        asyncio.run(run())
