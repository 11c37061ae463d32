"""The query service layer: protocol, admission, metrics, server, client.

The unit tests drive the pure pieces (wire protocol, admission controller,
latency histograms) and the one frame decoder — ``FrameDecoder`` fed by
hand — with no sockets at all; the client
tests script a loopback peer; the integration tests start a real
:class:`~repro.service.server.QueryService` on a loopback port inside
``asyncio.run`` and talk to it through
:class:`~repro.service.client.ServiceClient` connections, covering the
failure paths the wire exposes: malformed frames, queries into evicted
history, clients disconnecting mid-subscription, load shedding, and
graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IUPT,
    QueryEngine,
    QueryService,
    ServiceClient,
    ServiceError,
    TkPLQuery,
)
from repro.service import protocol
from repro.service.admission import (
    AdmissionController,
    REASON_CAPACITY,
    REASON_DRAINING,
)
from repro.service.client import unwrap
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import ProtocolError
from repro.service.stream import FrameDecoder
from repro.storage import EvictedRangeError
from tests.frame_feed import read_all


# ----------------------------------------------------------------------
# Protocol (sans-I/O)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        for frame in (
            {"id": 7, "op": "top_k", "q": [1, 2], "k": 1, "start": 0.0, "end": 9.5},
            {"id": 8, "flow": 0.1 + 0.2, "ranking": [[5, 1.25], [3, [0.5]]], "name": "café 楼"},
        ):
            line = protocol.encode_frame(frame)
            assert line.endswith(b"\n") and b"\n" not in line[:-1]
            assert protocol.decode_frame(line[:-1]) == frame
            # The bytes are those of the compact json.dumps spelling.
            assert line[:-1] == json.dumps(frame, separators=(",", ":")).encode("utf-8")

    def test_malformed_frame_raises_bad_frame(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_frame(b"{not json at all")
        assert excinfo.value.kind == "bad_frame"

    def test_non_object_frame_raises_bad_frame(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_frame(b"[1, 2, 3]")
        assert excinfo.value.kind == "bad_frame"

    def test_query_from_wire_validates(self):
        query = protocol.query_from_wire(
            {"q": [3, 1, 2], "k": 2, "start": 0, "end": 10}
        )
        assert query == TkPLQuery.build([3, 1, 2], 2, 0.0, 10.0)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.query_from_wire({"q": [1], "k": 5, "start": 0, "end": 10})
        assert excinfo.value.kind == "bad_request"
        with pytest.raises(ProtocolError):
            protocol.query_from_wire({"k": 1, "start": 0, "end": 10})

    def test_flows_round_trip_preserves_floats_exactly(self):
        flows = {5: 0.1 + 0.2, 2: 1.0 / 3.0, 9: 0.0}
        pairs = protocol.flows_to_wire(flows)
        assert [sloc for sloc, _ in pairs] == [2, 5, 9]
        decoded = protocol.flows_from_wire(json.loads(json.dumps(pairs)))
        assert decoded == flows  # exact: json round-trips doubles bit-for-bit

    def test_error_frame_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            protocol.error_frame(1, "made-up-kind", "boom")

    def test_evicted_error_frame_is_structured(self):
        frame = protocol.evicted_error_frame(4, EvictedRangeError(0.0, 60.0, 120.0))
        assert frame["ok"] is False
        error = frame["error"]
        assert error["kind"] == "evicted_range"
        assert (error["start"], error["end"], error["watermark"]) == (0.0, 60.0, 120.0)

    def test_frame_splitter_handles_partial_chunks(self):
        frames = []
        decoder = FrameDecoder(frames.append)
        decoder.feed(b'{"a":')
        assert frames == []  # a partial line is no frame yet
        decoder.feed(b'1}\n{"b":2}\n{"tail"')
        assert frames == [{"a": 1}, {"b": 2}]
        decoder.feed(b":3}\n")
        assert frames == [{"a": 1}, {"b": 2}, {"tail": 3}]
        decoder.feed_eof()
        assert frames == [{"a": 1}, {"b": 2}, {"tail": 3}]


# ----------------------------------------------------------------------
# Admission control (sans-I/O)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_capacity_bound_sheds_then_recovers(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.admit() is None
        assert controller.admit() is None
        reason, _message = controller.admit()
        assert reason == REASON_CAPACITY
        controller.release()
        assert controller.admit() is None
        assert controller.stats.shed_capacity == 1
        assert controller.stats.peak_inflight == 2

    def test_release_without_admit_raises(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError):
            controller.release()

    def test_draining_refuses_everything_new(self):
        controller = AdmissionController(max_inflight=4)
        assert controller.admit() is None
        controller.begin_drain()
        reason, _ = controller.admit()
        assert reason == REASON_DRAINING
        # The admitted request still owns its slot.
        assert controller.inflight == 1
        controller.release()
        assert controller.inflight == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)

    def test_as_dict_reports_state(self):
        controller = AdmissionController(max_inflight=3)
        controller.admit()
        summary = controller.as_dict()
        assert summary["inflight"] == 1
        assert summary["max_inflight"] == 3
        assert summary["admitted"] == 1
        assert summary["draining"] is False


# ----------------------------------------------------------------------
# Metrics (sans-I/O)
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_quantiles_and_overflow(self):
        histogram = LatencyHistogram()
        for _ in range(98):
            histogram.observe(0.002)
        histogram.observe(0.2)
        histogram.observe(99.0)  # beyond the last bound -> overflow bucket
        assert histogram.count == 100
        assert histogram.quantile(0.5) == 0.0025  # bucket upper bound
        assert histogram.quantile(0.99) == 0.25
        assert histogram.quantile(1.0) == 99.0  # falls through to max
        assert histogram.overflow == 1
        summary = histogram.as_dict()
        assert summary["count"] == 100
        assert summary["max_ms"] == 99000.0

    def test_quantile_validation_and_empty(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_quantiles_never_exceed_the_largest_observation(self):
        # BENCH_service reported p95 = 2500 ms with max = 1784 ms: the bucket
        # bound (2.5 s) was returned although nothing that slow was observed.
        histogram = LatencyHistogram()
        histogram.observe(1.784)
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == 1.784
        summary = histogram.as_dict()
        assert summary["p50_ms"] == summary["p95_ms"] == summary["p99_ms"] == 1784.0
        assert summary["max_ms"] == 1784.0

    def test_registry_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.observe_request("top_k", 0.01)
        metrics.observe_request("top_k", 0.02, error_kind="bad_request")
        metrics.note_push()
        metrics.note_connection_opened()
        snapshot = metrics.snapshot(
            cache_stats={"hit_rate": 0.5},
            continuous_summary={"subscriptions": 1},
            admission={"inflight": 0},
        )
        assert snapshot["requests"] == {"total": 2, "by_op": {"top_k": 2}}
        assert snapshot["errors"]["by_kind"] == {"bad_request": 1}
        assert snapshot["latency_ms_by_op"]["top_k"]["count"] == 2
        assert snapshot["pushes"]["sent"] == 1
        assert snapshot["connections"]["active"] == 1
        assert snapshot["cache"]["hit_rate"] == 0.5
        assert snapshot["continuous"]["subscriptions"] == 1


# ----------------------------------------------------------------------
# The client half of the protocol (ServiceClient against a scripted peer)
# ----------------------------------------------------------------------
async def _with_scripted_peer(peer, drive):
    """Run ``drive(client)`` on a ServiceClient connected to ``peer``."""
    server = await asyncio.start_server(peer, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    client = await ServiceClient.connect(host, port)
    try:
        await asyncio.wait_for(drive(client), timeout=10.0)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


class TestClientCore:
    def test_requests_get_fresh_ids_and_classify_responses(self):
        seen = []

        async def peer(reader, writer):
            for _ in range(2):
                seen.append(json.loads(await reader.readline()))
            # Answer the first request only.
            writer.write(
                protocol.encode_frame(
                    protocol.response_frame(seen[0]["id"], {"pong": True})
                )
            )
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        async def drive(client):
            ping = asyncio.ensure_future(client.request("ping"))
            stats = asyncio.ensure_future(client.request("stats"))
            assert await ping == {"pong": True}
            assert [frame["op"] for frame in seen] == ["ping", "stats"]
            assert seen[0]["id"] != seen[1]["id"]
            assert not stats.done()  # its id was never answered
            await client.close()
            with pytest.raises(ConnectionError):
                await stats

        asyncio.run(_with_scripted_peer(peer, drive))

    def test_push_frames_are_classified_as_pushes(self):
        async def peer(reader, writer):
            request = json.loads(await reader.readline())
            # A push is a push even when it carries the pending request's id:
            # it must reach the push hook and never resolve the request.
            push = protocol.push_update_frame(3, 1, "top_k", {"ranking": []})
            writer.write(protocol.encode_frame(dict(push, id=request["id"])))
            writer.write(
                protocol.encode_frame(
                    protocol.response_frame(request["id"], {"pong": True})
                )
            )
            await writer.drain()
            await reader.read()
            writer.close()

        async def drive(client):
            pushes = []
            client.on_push = pushes.append
            assert await client.ping() == {"pong": True}
            assert [frame["subscription"] for frame in pushes] == [3]

        asyncio.run(_with_scripted_peer(peer, drive))

    def test_unwrap_raises_typed_service_error(self):
        with pytest.raises(ServiceError) as excinfo:
            unwrap(protocol.error_frame(1, "overloaded", "slow down", reason="capacity"))
        assert excinfo.value.kind == "overloaded"
        assert excinfo.value.details["reason"] == "capacity"


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
HISTORY = 120.0
DURATION = 240.0
SHARD_SECONDS = 60.0


def _split_stream(scenario):
    records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    history = [r for r in records if r.timestamp < HISTORY]
    live = [r for r in records if r.timestamp >= HISTORY]
    return history, live


def _make_engine(scenario) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix)


async def _start_service(scenario, preload, max_inflight=64, query_workers=4):
    iupt = IUPT(shard_seconds=SHARD_SECONDS)
    if preload:
        iupt.ingest_batch(preload)
    service = QueryService(
        _make_engine(scenario),
        iupt,
        max_inflight=max_inflight,
        query_workers=query_workers,
    )
    host, port = await service.start()
    return service, host, port


class TestServerIntegration:
    def test_queries_bit_identical_to_direct_engine_calls(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            reference = _make_engine(scenario)
            async with await ServiceClient.connect(host, port) as client:
                served = await client.top_k(slocs, 3, 0.0, HISTORY)
                direct = reference.top_k(service.iupt, slocs, 3, 0.0, HISTORY)
                assert served == protocol.result_to_wire(direct)

                served_flows = await client.flows(slocs[:4], 0.0, HISTORY)
                direct_flows = reference.flows(service.iupt, slocs[:4], 0.0, HISTORY)
                assert served_flows == {
                    "flows": protocol.flows_to_wire(direct_flows)
                }

                sloc = slocs[0]
                served_flow = await client.flow(sloc, 0.0, HISTORY)
                direct_flow = reference.flow(service.iupt, sloc, 0.0, HISTORY)
                assert served_flow == {"sloc": sloc, "flow": direct_flow.flow}

                queries = [
                    {"q": slocs, "k": 2, "start": 0.0, "end": HISTORY},
                    {"q": slocs[:5], "k": 1, "start": 30.0, "end": 90.0},
                ]
                served_batch = await client.batch(queries)
                direct_batch = reference.batch_top_k(
                    service.iupt,
                    [protocol.query_from_wire(query) for query in queries],
                )
                assert served_batch == {
                    "results": [protocol.result_to_wire(r) for r in direct_batch]
                }

            # Eight connections, each pipelining its requests at once: the
            # answers stay bit-identical, the pool sees real concurrency and
            # the default admission limits shed nothing.
            async def pipeline(index):
                async with await ServiceClient.connect(host, port) as client:
                    start = 10.0 * (index % 4)
                    return await asyncio.gather(
                        client.top_k(slocs, 3, start, HISTORY),
                        client.flows(slocs[: 3 + index % 4], start, HISTORY),
                        client.top_k(slocs[index % 3 :], 2, 0.0, HISTORY - start),
                    )

            for index, answers in enumerate(
                await asyncio.gather(*(pipeline(index) for index in range(8)))
            ):
                start = 10.0 * (index % 4)
                assert answers == [
                    protocol.result_to_wire(
                        reference.top_k(service.iupt, slocs, 3, start, HISTORY)
                    ),
                    {
                        "flows": protocol.flows_to_wire(
                            reference.flows(
                                service.iupt, slocs[: 3 + index % 4], start, HISTORY
                            )
                        )
                    },
                    protocol.result_to_wire(
                        reference.top_k(
                            service.iupt, slocs[index % 3 :], 2, 0.0, HISTORY - start
                        )
                    ),
                ]
            assert service.admission.stats.peak_inflight > 1
            assert service.admission.stats.shed_total == 0
            await service.stop()

        asyncio.run(run())

    def test_malformed_frame_gets_error_and_connection_survives(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(scenario, history)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is { not json\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["ok"] is False
            assert frame["error"]["kind"] == "bad_frame"
            assert frame["id"] is None
            # The connection is still serviceable after the bad frame.
            writer.write(protocol.encode_frame({"id": 9, "op": "ping"}))
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["id"] == 9 and frame["ok"] is True
            writer.close()
            await writer.wait_closed()
            await service.stop()

        asyncio.run(run())

    def test_oversized_frame_fails_structurally_not_silently(
        self, small_real_scenario, monkeypatch
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)

        async def run():
            service, host, port = await _start_service(scenario, history)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"id": 1, "op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["ok"] is False
            assert frame["error"]["kind"] == "bad_frame"
            assert "limit" in frame["error"]["message"]
            # The stream cannot be resynchronised: the server closes it.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await service.stop()

        asyncio.run(run())

    def test_unknown_op_and_bad_request_errors(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.request("teleport")
                assert excinfo.value.kind == "unknown_op"
                with pytest.raises(ServiceError) as excinfo:
                    await client.top_k([], 1, 0.0, 10.0)
                assert excinfo.value.kind == "bad_request"
                with pytest.raises(ServiceError) as excinfo:
                    await client.top_k(scenario.slocation_ids(), 1, 50.0, 10.0)
                assert excinfo.value.kind == "bad_request"
                s0, s1 = scenario.slocation_ids()[:2]
                with pytest.raises(ServiceError) as excinfo:
                    await client.top_k([s0, s0, s1], 3, 0.0, 10.0)
                assert excinfo.value.kind == "bad_request"
                assert f"[{s0}] more than once" in excinfo.value.message
                # A field that will not cast is a bad_request naming the field.
                for op, fields, name in (
                    ("flow", {"sloc": "lobby", "start": 0.0, "end": 10.0}, "sloc"),
                    ("wal_tail", {"cursor": "soon"}, "cursor"),
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        await client.request(op, **fields)
                    assert excinfo.value.kind == "bad_request"
                    assert f"field {name!r}" in excinfo.value.message
            await service.stop()

        asyncio.run(run())

    def test_unknown_slocation_is_a_bad_request_naming_the_id(
        self, small_real_scenario
    ):
        # The default top_k (best-first) used to answer ``bad_request`` with
        # the bare message "1000000" while ``flows`` served the same id.
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids() + [10**6]

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                for call in (
                    client.top_k(slocs, 2, 0.0, 60.0),
                    client.flows(slocs, 0.0, 60.0),
                    client.subscribe_top_k(slocs, 2, 0.0, 60.0),
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        await call
                    assert excinfo.value.kind == "bad_request"
                    assert "unknown S-location id(s): [1000000]" in str(excinfo.value)
            await service.stop()

        asyncio.run(run())

    def test_query_into_evicted_history_is_a_structured_error(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(scenario, history + live)
            slocs = scenario.slocation_ids()
            async with await ServiceClient.connect(host, port) as client:
                evicted = await client.evict_before(HISTORY)
                assert evicted["records_dropped"] > 0
                watermark = evicted["watermark"]
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(slocs, 0.0, DURATION)
                error = excinfo.value
                assert error.kind == "evicted_range"
                assert error.details["watermark"] == watermark
                assert error.details["start"] == 0.0
                # Narrowing to surviving history works on the same connection.
                payload = await client.flows(slocs, watermark, DURATION)
                assert payload["flows"]
            await service.stop()

        asyncio.run(run())

    def test_ingest_on_one_client_pushes_to_anothers_subscription(
        self, small_real_scenario
    ):
        """The acceptance path: a standing subscription receives push frames
        caused purely by ANOTHER client's ``ingest_batch`` — the subscriber
        issues no request after subscribing."""
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            subscriber = await ServiceClient.connect(host, port)
            loader = await ServiceClient.connect(host, port)

            subscription = await subscriber.subscribe_top_k(
                slocs, 3, HISTORY, DURATION
            )
            # The live window is still empty: every ranked flow is zero.
            assert all(flow == 0.0 for _s, flow in subscription.result["ranking"])

            midpoint = HISTORY + (DURATION - HISTORY) / 2
            first = [r for r in live if r.timestamp < midpoint]
            second = [r for r in live if r.timestamp >= midpoint]

            await loader.ingest_batch(first)
            push_one = await subscription.next_update(timeout=10.0)
            assert push_one["push"] == "update"
            assert push_one["seq"] == 1

            await loader.ingest_batch(second)
            push_two = await subscription.next_update(timeout=10.0)
            assert push_two["seq"] == 2

            # The pushed result is bit-identical to what a fresh in-process
            # continuous engine computes over the same final table.
            fresh = _make_engine(scenario).continuous(service.iupt)
            expected = fresh.register_top_k(slocs, 3, HISTORY, DURATION)
            assert push_two["result"] == protocol.result_to_wire(expected.result)
            fresh.close()

            assert subscription.result == push_two["result"]
            await subscriber.close()
            await loader.close()
            await service.stop()

        asyncio.run(run())

    def test_flows_subscription_pushes_flow_updates(self, small_real_scenario):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()[:4]

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as subscriber:
                async with await ServiceClient.connect(host, port) as loader:
                    subscription = await subscriber.subscribe_flows(
                        slocs, 0.0, DURATION
                    )
                    await loader.ingest_batch(live)
                    push = await subscription.next_update(timeout=10.0)
                    assert push["kind"] == "flows"
                    direct = _make_engine(scenario).flows(
                        service.iupt, slocs, 0.0, DURATION
                    )
                    assert push["result"] == {
                        "flows": protocol.flows_to_wire(direct)
                    }
            await service.stop()

        asyncio.run(run())

    def test_unsubscribe_stops_pushes(self, small_real_scenario):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                subscription = await client.subscribe_top_k(
                    slocs, 3, HISTORY, DURATION
                )
                assert await client.unsubscribe(subscription) is True
                assert service.continuous.subscriptions == []
                await client.ingest_batch(live)
                assert service.metrics.pushes_sent == 0
                assert subscription.updates.empty()
            await service.stop()

        asyncio.run(run())

    def test_eviction_pushes_structured_evicted_frame(self, small_real_scenario):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history + live)
            async with await ServiceClient.connect(host, port) as client:
                subscription = await client.subscribe_top_k(slocs, 3, 0.0, HISTORY)
                await client.evict_before(HISTORY)
                push = await subscription.next_update(timeout=10.0)
                assert push["push"] == "evicted"
                assert push["error"]["kind"] == "evicted_range"
                assert subscription.active is False
                assert subscription.eviction["watermark"] >= HISTORY
            await service.stop()

        asyncio.run(run())

    def test_disconnect_mid_subscription_cleans_up_server_state(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            client = await ServiceClient.connect(host, port)
            await client.subscribe_top_k(slocs, 3, 0.0, HISTORY)
            await client.subscribe_flows(slocs[:3], 0.0, HISTORY)
            assert len(service.continuous.subscriptions) == 2
            # Abrupt disconnect: no unsubscribe is ever sent.
            await client.close()
            deadline = asyncio.get_running_loop().time() + 5.0
            while service.continuous.subscriptions:
                assert asyncio.get_running_loop().time() < deadline, (
                    "server did not clean up the departed client's subscriptions"
                )
                await asyncio.sleep(0.01)
            assert service.metrics.connections_active == 0
            await service.stop()

        asyncio.run(run())

    def test_shutdown_drains_inflight_requests(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(
                scenario, history, query_workers=2
            )
            client = await ServiceClient.connect(host, port)
            queries = [
                {"q": slocs, "k": 3, "start": 0.0, "end": HISTORY},
                {"q": slocs[:6], "k": 2, "start": 10.0, "end": HISTORY},
                {"q": slocs[:4], "k": 1, "start": 20.0, "end": HISTORY},
            ]
            inflight = asyncio.ensure_future(client.batch(queries))
            deadline = asyncio.get_running_loop().time() + 5.0
            while service.admission.inflight == 0 and not inflight.done():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.002)
            # Drain: the admitted batch must still be answered and flushed.
            await service.stop()
            result = await inflight
            direct = _make_engine(scenario).batch_top_k(
                service.iupt, [protocol.query_from_wire(q) for q in queries]
            )
            assert result == {
                "results": [protocol.result_to_wire(r) for r in direct]
            }
            # The listener is closed: fresh connections are refused.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            await client.close()

        asyncio.run(run())

    def test_draining_service_sheds_new_requests(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                service.admission.begin_drain()
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(scenario.slocation_ids(), 0.0, HISTORY)
                assert excinfo.value.kind == "overloaded"
                assert excinfo.value.details["reason"] == REASON_DRAINING
                # Introspection stays available while draining.
                assert (await client.ping())["pong"] is True
            await service.stop()

        asyncio.run(run())

    def test_disconnect_during_drain_keeps_standing_subscriptions(
        self, small_real_scenario
    ):
        """A drain begun via the admission controller alone (no ``stop()``)
        must behave like a shutdown for departing clients: their standing
        subscriptions stay registered for the successor process's manifest
        instead of being unregistered by the disconnect cleanup."""
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            client = await ServiceClient.connect(host, port)
            await client.subscribe_top_k(slocs, 3, 0.0, HISTORY)
            await client.subscribe_flows(slocs[:3], 0.0, HISTORY)
            assert len(service.continuous.subscriptions) == 2

            service.admission.begin_drain()
            # Abrupt disconnect mid-drain: no unsubscribe is ever sent.
            await client.close()
            deadline = asyncio.get_running_loop().time() + 5.0
            while service._connections:
                assert asyncio.get_running_loop().time() < deadline, (
                    "server never observed the client departing"
                )
                await asyncio.sleep(0.01)

            # The subscriptions survived the departure …
            assert len(service.continuous.subscriptions) == 2
            # … detached from the dead connection's push hook.
            for subscription in service.continuous.subscriptions:
                assert subscription.on_change is None
            await service.stop()

        asyncio.run(run())

    def test_stats_op_reports_cache_latency_and_admission(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                await client.top_k(slocs, 3, 0.0, HISTORY)
                await client.top_k(slocs, 3, 0.0, HISTORY)  # cache-warm repeat
                stats = await client.stats()
                assert stats["requests"]["by_op"]["top_k"] == 2
                assert stats["latency_ms_by_op"]["top_k"]["count"] == 2
                assert stats["cache"]["enabled"] == 1.0
                assert stats["cache"]["hits"] > 0
                assert stats["admission"]["admitted"] == 2
                assert stats["connections"]["active"] == 1
                assert stats["continuous"]["subscriptions"] == 0
                assert stats["codec"] == {"codec_version": 1}
            await service.stop()

        asyncio.run(run())

    def test_ingest_over_the_wire_is_immediately_queryable(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                before = await client.ping()
                receipt = await client.ingest_batch(live)
                assert receipt["records_ingested"] == len(live)
                after = await client.ping()
                assert after["records"] == before["records"] + len(live)
                served = await client.top_k(slocs, 3, HISTORY, DURATION)
                direct = _make_engine(scenario).top_k(
                    service.iupt, slocs, 3, HISTORY, DURATION
                )
                assert served == protocol.result_to_wire(direct)
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Frame-size boundary contract (MAX_FRAME_BYTES is inclusive, newline excl.)
# ----------------------------------------------------------------------
class TestFrameSizeBoundary:
    @staticmethod
    def _line(size: int) -> bytes:
        """A JSON-object frame line of exactly ``size`` bytes, terminator excluded."""
        line = b'{"a":"' + b"x" * (size - 8) + b'"}'
        assert len(line) == size
        return line

    def test_splitter_accepts_exactly_the_limit(self):
        assert read_all([self._line(16) + b"\n"], limit=16) == [{"a": "x" * 8}]

    def test_splitter_rejects_one_byte_over(self):
        wire = self._line(17) + b"\n" + self._line(9) + b"\n"
        (error,) = read_all([wire], limit=16)
        assert isinstance(error, ProtocolError)
        assert error.kind == "bad_frame"
        assert error.fatal  # nothing after an oversized line may be read

    def test_splitter_rejects_terminatorless_flood_early(self):
        """A stream with no newline must fail as soon as it cannot fit."""

        outcomes = []
        decoder = FrameDecoder(outcomes.append, limit=8)
        decoder.feed(b"x" * 8)  # could still become a max-size line
        assert outcomes == []
        decoder.feed(b"x")  # now it cannot
        (error,) = outcomes
        assert isinstance(error, ProtocolError) and error.fatal

    def test_client_core_enforces_the_wire_limit(self):
        (error,) = read_all([b"{" + b"x" * 64 + b"}\n"], limit=64)
        assert isinstance(error, ProtocolError) and error.fatal

    def test_server_accepts_a_frame_of_exactly_the_limit(
        self, small_real_scenario, monkeypatch
    ):
        """The inclusive boundary on the real read loop: a ping padded to
        exactly MAX_FRAME_BYTES answers, one more byte is a bad_frame."""
        scenario = small_real_scenario
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)

        def padded_ping(line_bytes: int) -> bytes:
            skeleton = b'{"id": 1, "op": "ping", "pad": ""}'
            pad = line_bytes - len(skeleton)
            return skeleton[:-2] + b"y" * pad + b'"}'

        async def run():
            service, host, port = await _start_service(scenario, [])
            # Exactly at the limit: accepted and answered.
            reader, writer = await asyncio.open_connection(
                host, port, limit=protocol.MAX_FRAME_BYTES
            )
            wire = padded_ping(protocol.MAX_FRAME_BYTES)
            assert len(wire) == protocol.MAX_FRAME_BYTES
            writer.write(wire + b"\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["ok"] is True and frame["result"]["pong"] is True
            writer.close()
            await writer.wait_closed()

            # One byte over: structured bad_frame, then the stream closes.
            reader, writer = await asyncio.open_connection(
                host, port, limit=2 * protocol.MAX_FRAME_BYTES
            )
            writer.write(padded_ping(protocol.MAX_FRAME_BYTES + 1) + b"\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["ok"] is False
            assert frame["error"]["kind"] == "bad_frame"
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# The reader under fuzz: frames, refusals or a clean stop — nothing else
# ----------------------------------------------------------------------
FUZZ_LIMIT = 96  # small, so oversized lines and refused lengths are common

_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9), st.text(max_size=6),
    st.lists(st.integers(0, 255), max_size=4),
)
_plain_frames = st.dictionaries(
    st.text(max_size=4).filter(
        lambda key: key not in (protocol.BIN_LENGTH, protocol.BIN_PAYLOAD)
    ),
    _json_values,
    max_size=3,
).filter(lambda frame: len(protocol.encode_frame(frame)) <= FUZZ_LIMIT)
#: A frame, sometimes carrying a payload (any byte value, newlines included);
#: the header keeps room for the ``"bin":NN`` declaration within the limit.
_frames = st.one_of(
    _plain_frames,
    st.builds(
        lambda frame, payload: {**frame, protocol.BIN_PAYLOAD: payload},
        _plain_frames.filter(lambda frame: len(protocol.encode_frame(frame)) < 80),
        st.binary(max_size=FUZZ_LIMIT),
    ),
)
#: Lines a reader must refuse yet survive: not JSON, not an object, or a
#: header that spells the reserved payload key (alone, or beside a length
#: declaration whose payload follows).  Each is consumed whole.
_refusable = st.one_of(
    st.sampled_from([b"{not json\n", b"[1,2]\n", b"\xff\xfe\n", b'"bin"\n']),
    st.builds(
        lambda value: b'{"_bin":' + json.dumps(value).encode() + b"}\n",
        _json_values,
    ),
    st.builds(
        lambda payload: b'{"_bin":[1],"bin":%d}\n' % len(payload) + payload,
        st.binary(max_size=FUZZ_LIMIT),
    ),
)


def _as_read(frame: dict) -> dict:
    """What the decoder hands out for a frame ``encode_frame`` wrote."""
    if protocol.BIN_PAYLOAD not in frame:
        return frame
    return {**frame, protocol.BIN_LENGTH: len(frame[protocol.BIN_PAYLOAD])}


def _chunked(data, wire: bytes) -> list:
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=8)))
    return [wire[a:b] for a, b in zip([0] + cuts, cuts + [len(wire)])]


def _read_fuzzed(chunks) -> list:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "MAX_FRAME_BYTES", FUZZ_LIMIT)
        outcomes = read_all(chunks, limit=FUZZ_LIMIT)
    # Whatever the bytes were: frames and refusals only (any other exception
    # has already escaped read_all), a payload is exactly the raw bytes its
    # header declared, and a fatal refusal is the last thing read.
    for outcome in outcomes:
        if isinstance(outcome, ProtocolError):
            assert outcome.kind == "bad_frame"
            continue
        assert isinstance(outcome, dict)
        payload = outcome.get(protocol.BIN_PAYLOAD)
        if protocol.BIN_LENGTH in outcome:
            assert isinstance(payload, bytes)
            assert len(payload) == outcome[protocol.BIN_LENGTH] <= FUZZ_LIMIT
        else:
            assert payload is None
    assert not any(getattr(outcome, "fatal", False) for outcome in outcomes[:-1])
    return outcomes


class TestReadFrameFuzz:
    @given(
        script=st.lists(st.one_of(_frames, _refusable, st.just(b"\n")), max_size=8),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_a_well_formed_stream_round_trips_whatever_the_chunking(
        self, script, data
    ):
        """Frames come back one for one with their payloads, blank lines
        vanish, and every refusable line costs exactly one recoverable error
        — the well-formed line behind it is still read."""
        wire = b"".join(
            item if isinstance(item, bytes) else protocol.encode_frame(item)
            for item in script
        )
        outcomes = _read_fuzzed(_chunked(data, wire))
        expected = [item for item in script if item != b"\n"]
        assert len(outcomes) == len(expected)
        for outcome, item in zip(outcomes, expected):
            if isinstance(item, bytes):
                assert isinstance(outcome, ProtocolError) and not outcome.fatal
            else:
                assert outcome == _as_read(item)

    @given(frames=st.lists(_frames, min_size=1, max_size=6), data=st.data())
    @settings(deadline=None)
    def test_a_damaged_stream_yields_frames_refusals_or_a_clean_stop(
        self, frames, data
    ):
        wire = bytearray(b"".join(protocol.encode_frame(frame) for frame in frames))
        damage = data.draw(st.sampled_from(["truncate", "flip", "lie", "noise"]))
        if damage == "truncate":
            del wire[data.draw(st.integers(0, len(wire))) :]
        elif damage == "flip":
            position = data.draw(st.integers(0, len(wire) - 1))
            wire[position] ^= 1 << data.draw(st.integers(0, 7))
        elif damage == "lie":
            # Overwrite a length declaration's digits (when there is one).
            lie = data.draw(
                st.sampled_from([b"0", b"7", b"97", b"-1", b"1e3", b"true", b'"9"'])
            )
            head, mark, tail = bytes(wire).partition(b'"bin":')
            wire = bytearray(head + mark + lie + tail.lstrip(b"0123456789"))
        else:
            wire = bytearray(data.draw(st.binary(max_size=4 * FUZZ_LIMIT)))
        outcomes = _read_fuzzed(_chunked(data, bytes(wire)))
        if damage == "truncate":
            # A cut stream is a prefix of the original: whole frames, then at
            # most the torn line's refusal — never a frame nobody sent.
            read = [o for o in outcomes if not isinstance(o, ProtocolError)]
            assert read == [_as_read(frame) for frame in frames][: len(read)]
            assert len(outcomes) - len(read) <= 1


# ----------------------------------------------------------------------
# Read-only ops bypass admission (they observe drains and overloads)
# ----------------------------------------------------------------------
class TestReadOnlyOpsBypassAdmission:
    def test_draining_server_still_answers_stats_and_ping(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(
                scenario, history, max_inflight=1
            )
            gate, flows = threading.Event(), service.engine.flows

            def gated(*args, **kwargs):
                assert gate.wait(20.0)
                return flows(*args, **kwargs)

            service.engine.flows = gated
            slocs = scenario.slocation_ids()[:2]
            async with await ServiceClient.connect(host, port) as client:
                held = asyncio.ensure_future(client.flows(slocs, 0.0, HISTORY))
                while not service.admission.inflight:
                    await asyncio.sleep(0.002)
                # With the one slot held, engine work is shed for capacity …
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(slocs, 0.0, HISTORY)
                assert excinfo.value.details["reason"] == REASON_CAPACITY
                # … but stats and ping are answered beside it.
                stats = await client.stats()
                assert stats["admission"]["shed_capacity"] == 1
                assert stats["admission"]["inflight"] == 1
                assert (await client.ping())["pong"] is True
                gate.set()
                await held
                service.admission.begin_drain()
                # Draining, engine work is shed …
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(slocs, 0.0, HISTORY)
                assert excinfo.value.details["reason"] == REASON_DRAINING
                # … but the operator's view of the drain stays available.
                stats = await client.stats()
                assert stats["admission"]["draining"] is True
                assert stats["admission"]["shed_draining"] == 1
                assert (await client.ping())["pong"] is True
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Empty-batch parity over the wire
# ----------------------------------------------------------------------
class TestEmptyIngestOverTheWire:
    def test_empty_ingest_is_a_complete_no_op(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(scenario, history)
            subscriber = await ServiceClient.connect(host, port)
            loader = await ServiceClient.connect(host, port)
            subscription = await subscriber.subscribe_top_k(
                slocs, 3, 0.0, DURATION
            )
            token = service.iupt.version_token()
            receipt = await loader.ingest_batch([])
            assert receipt["records_ingested"] == 0
            assert receipt["shards_touched"] == []
            # No version bump, no refresh, no push.
            assert service.iupt.version_token() == token
            assert service.metrics.pushes_sent == 0
            assert subscription.updates.empty()
            engine_sub = service.continuous.subscriptions[0]
            assert engine_sub.stats.refreshes == 1  # the initial compute only
            await subscriber.close()
            await loader.close()
            await service.stop()

        asyncio.run(run())
