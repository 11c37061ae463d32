"""The query service layer: protocol, admission, metrics, server, client.

The unit tests drive the sans-I/O pieces (wire protocol, admission
controller, latency histograms, client core) with no sockets at all; the
integration tests start a real :class:`~repro.service.server.QueryService`
on a loopback port inside ``asyncio.run`` and talk to it through
:class:`~repro.service.client.ServiceClient` connections, covering the
failure paths the wire exposes: malformed frames, queries into evicted
history, clients disconnecting mid-subscription, load shedding, and
graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

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
    AdmissionConfig,
    AdmissionController,
    REASON_CAPACITY,
    REASON_DRAINING,
    REASON_RATE,
)
from repro.service.client import ClientCore
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import FrameAssembler, ProtocolError
from repro.storage import EvictedRangeError


# ----------------------------------------------------------------------
# Protocol (sans-I/O)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"id": 7, "op": "top_k", "q": [1, 2], "k": 1, "start": 0.0, "end": 9.5}
        line = protocol.encode_frame(frame)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode_frame(line[:-1]) == frame

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
        splitter = FrameAssembler()
        assert splitter.feed(b'{"a":') == []
        assert splitter.pending_bytes > 0
        frames = splitter.feed(b'1}\n{"b":2}\n{"tail"')
        assert frames == [{"a": 1}, {"b": 2}]
        assert splitter.feed(b":3}\n") == [{"tail": 3}]
        assert splitter.pending_bytes == 0


# ----------------------------------------------------------------------
# Admission control (sans-I/O)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_capacity_bound_sheds_then_recovers(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=2))
        assert controller.admit("a") is None
        assert controller.admit("a") is None
        reason, _message = controller.admit("a")
        assert reason == REASON_CAPACITY
        controller.release()
        assert controller.admit("a") is None
        assert controller.stats.shed_capacity == 1
        assert controller.stats.peak_inflight == 2

    def test_release_without_admit_raises(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError):
            controller.release()

    def test_rate_limit_is_per_client_and_refills(self):
        now = [0.0]
        controller = AdmissionController(
            AdmissionConfig(max_inflight=100, rate_per_second=1.0, burst=2),
            clock=lambda: now[0],
        )
        # Burst of 2 admitted, third shed; a different client is unaffected.
        assert controller.admit("a") is None
        assert controller.admit("a") is None
        reason, _ = controller.admit("a")
        assert reason == REASON_RATE
        assert controller.admit("b") is None
        # One second refills one token.
        now[0] = 1.0
        assert controller.admit("a") is None
        reason, _ = controller.admit("a")
        assert reason == REASON_RATE
        assert controller.stats.shed_rate == 2

    def test_draining_refuses_everything_new(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=4))
        assert controller.admit("a") is None
        controller.begin_drain()
        reason, _ = controller.admit("a")
        assert reason == REASON_DRAINING
        # The admitted request still owns its slot.
        assert controller.inflight == 1
        controller.release()
        assert controller.inflight == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(rate_per_second=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(burst=0)

    def test_as_dict_reports_state(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=3))
        controller.admit("a")
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
# Client core (sans-I/O)
# ----------------------------------------------------------------------
class TestClientCore:
    def test_requests_get_fresh_ids_and_classify_responses(self):
        core = ClientCore()
        id_a, wire_a = core.build_request("ping")
        id_b, _wire_b = core.build_request("stats")
        assert id_a != id_b
        assert json.loads(wire_a.decode())["op"] == "ping"
        events = core.feed_bytes(
            protocol.encode_frame({"id": id_a, "ok": True, "result": {"pong": True}})
        )
        assert events == [
            ("response", id_a, {"id": id_a, "ok": True, "result": {"pong": True}})
        ]
        assert id_a not in core.pending and id_b in core.pending

    def test_push_frames_are_classified_as_pushes(self):
        core = ClientCore()
        frame = protocol.push_update_frame(3, 1, "top_k", {"ranking": []})
        ((tag, received),) = core.feed_bytes(protocol.encode_frame(frame))
        assert tag == "push"
        assert received["subscription"] == 3

    def test_unwrap_raises_typed_service_error(self):
        with pytest.raises(ServiceError) as excinfo:
            ClientCore.unwrap(
                protocol.error_frame(1, "overloaded", "slow down", reason="rate")
            )
        assert excinfo.value.kind == "overloaded"
        assert excinfo.value.details["reason"] == "rate"


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
HISTORY = 120.0
DURATION = 240.0
SHARD_SECONDS = 60.0


def _split_stream(scenario):
    records = sorted(scenario.iupt.records, key=lambda r: r.timestamp)
    history = [r for r in records if r.timestamp < HISTORY]
    live = [r for r in records if r.timestamp >= HISTORY]
    return history, live


def _make_engine(scenario) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix)


async def _start_service(scenario, preload, admission=None, query_workers=4):
    iupt = IUPT.sharded(shard_seconds=SHARD_SECONDS)
    if preload:
        iupt.ingest_batch(preload)
    service = QueryService(
        _make_engine(scenario), iupt, admission=admission, query_workers=query_workers
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
            # … detached from the dead connection's push callbacks.
            for subscription in service.continuous.subscriptions:
                assert subscription.on_update is None
                assert subscription.on_evicted is None
            await service.stop()

        asyncio.run(run())

    def test_rate_limited_client_gets_overloaded_error(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(
                scenario,
                history,
                admission=AdmissionConfig(rate_per_second=0.001, burst=1),
            )
            async with await ServiceClient.connect(host, port) as client:
                await client.flows(slocs[:2], 0.0, HISTORY)  # burst token
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(slocs[:2], 0.0, HISTORY)
                assert excinfo.value.kind == "overloaded"
                assert excinfo.value.details["reason"] == REASON_RATE
            stats = service.admission.stats
            assert stats.shed_rate == 1
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
                # Operators can see which codec backend and scoring kernel
                # this process actually resolved to.
                assert stats["codec"]["backend"] in ("numpy", "array")
                assert stats["codec"]["codec_version"] == 1
                assert stats["codec"]["scoring_kernel"] in ("scalar", "vectorized")
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
        splitter = FrameAssembler(max_frame_bytes=16)
        assert splitter.feed(self._line(16) + b"\n") == [{"a": "x" * 8}]

    def test_splitter_rejects_one_byte_over(self):
        splitter = FrameAssembler(max_frame_bytes=16)
        with pytest.raises(ProtocolError) as excinfo:
            splitter.feed(self._line(17) + b"\n")
        assert excinfo.value.kind == "bad_frame"

    def test_splitter_rejects_terminatorless_flood_early(self):
        """A stream with no newline must fail as soon as it cannot fit."""
        splitter = FrameAssembler(max_frame_bytes=8)
        splitter.feed(b"x" * 8)  # could still become a max-size line
        with pytest.raises(ProtocolError):
            splitter.feed(b"x")  # now it cannot

    def test_splitter_unlimited_when_unconfigured(self):
        splitter = FrameAssembler(max_frame_bytes=None)
        assert splitter.feed(self._line(1024) + b"\n") == [{"a": "x" * 1016}]

    def test_client_core_enforces_the_wire_limit(self):
        core = ClientCore(max_frame_bytes=64)
        with pytest.raises(ProtocolError):
            core.feed_bytes(b"{" + b"x" * 64 + b"}\n")

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
# Read-only ops bypass admission (they observe drains and overloads)
# ----------------------------------------------------------------------
class TestReadOnlyOpsBypassAdmission:
    def test_draining_server_still_answers_stats_and_ping(
        self, small_real_scenario
    ):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)

        async def run():
            service, host, port = await _start_service(scenario, history)
            async with await ServiceClient.connect(host, port) as client:
                service.admission.begin_drain()
                # Engine work is shed …
                with pytest.raises(ServiceError) as excinfo:
                    await client.flows(scenario.slocation_ids()[:2], 0.0, HISTORY)
                assert excinfo.value.details["reason"] == REASON_DRAINING
                # … but the operator's view of the drain stays available.
                stats = await client.stats()
                assert stats["admission"]["draining"] is True
                assert stats["admission"]["shed_draining"] == 1
                assert (await client.ping())["pong"] is True
            await service.stop()

        asyncio.run(run())

    def test_rate_limited_client_still_observes_stats(self, small_real_scenario):
        scenario = small_real_scenario
        history, _live = _split_stream(scenario)
        slocs = scenario.slocation_ids()

        async def run():
            service, host, port = await _start_service(
                scenario,
                history,
                admission=AdmissionConfig(rate_per_second=0.001, burst=1),
            )
            async with await ServiceClient.connect(host, port) as client:
                await client.flows(slocs[:2], 0.0, HISTORY)  # burns the burst
                with pytest.raises(ServiceError):
                    await client.flows(slocs[:2], 0.0, HISTORY)
                # stats/ping never consume rate tokens and never get shed.
                for _ in range(3):
                    stats = await client.stats()
                    assert (await client.ping())["pong"] is True
                assert stats["admission"]["shed_rate"] == 1
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
            token = service.iupt.data_key
            receipt = await loader.ingest_batch([])
            assert receipt["records_ingested"] == 0
            assert receipt["shards_touched"] == []
            # No version bump, no refresh, no push.
            assert service.iupt.data_key == token
            assert service.metrics.pushes_sent == 0
            assert subscription.updates.empty()
            engine_sub = service.continuous.subscriptions[0]
            assert engine_sub.stats.refreshes == 1  # the initial compute only
            await subscriber.close()
            await loader.close()
            await service.stop()

        asyncio.run(run())
