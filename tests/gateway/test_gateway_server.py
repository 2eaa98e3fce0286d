"""The gateway over live sockets: admission, deadlines, pipelining.

Most tests drive a :class:`StubBackend` whose behaviour is keyed by
view name (``echo``, ``sleep``, ``block``, ``boom``) so rejection and
expiry paths are deterministic; the integration tests at the bottom
front the real demo :class:`ViewServer` and a 1-shard cluster.
"""

import asyncio
import threading
import time

import pytest

from repro.gateway import (
    AdmissionConfig,
    AsyncGatewayClient,
    GATEWAY_PROTOCOL,
    GatewayCallError,
    GatewayConfig,
    GatewayHandle,
    ViewServerBackend,
)
from repro.durability import DurabilityManager
from repro.durability.codec import encode_operation
from repro.engine.transaction import Insert
from repro.service.metrics import validate_metrics
from repro.service.traffic import demo_server
from repro.storage.tuples import Record


class StubBackend:
    """Scriptable backend: the view name selects the behaviour."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.updates: list[tuple[str, int]] = []

    def views(self):
        return ("echo", "sleep", "block", "boom")

    def query(self, view, lo, hi, client, timeout=None):
        if view == "sleep":
            time.sleep(float(lo))
            return lo
        if view == "block":
            assert self.gate.wait(timeout=10), "test gate never opened"
            return 1
        if view == "boom":
            raise RuntimeError("kapow")
        return lo

    def update(self, relation, ops, client, timeout=None):
        self.updates.append((relation, len(ops)))
        return len(ops)

    def metrics(self):
        return {"stub": True}


def launch_stub(config: GatewayConfig):
    backend = StubBackend()
    handle = GatewayHandle.launch(backend, config)
    return backend, handle


def call(handle, doc):
    async def go():
        async with AsyncGatewayClient(
            "127.0.0.1", handle.port, client=doc.get("client", "t")
        ) as conn:
            return await conn.call(doc)
    return asyncio.run(go())


def gateway_stats(handle):
    async def go():
        async with AsyncGatewayClient("127.0.0.1", handle.port) as conn:
            return await conn.stats()
    return asyncio.run(go())


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestControlOps:
    def test_ping_names_protocol_and_views(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "ping"})
        assert reply.ok
        assert reply.result["protocol"] == GATEWAY_PROTOCOL
        assert reply.result["views"] == ["echo", "sleep", "block", "boom"]

    def test_stats_and_metrics_answer_inline(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            call(handle, {"op": "query", "view": "echo", "lo": 5, "hi": 5})
            stats = gateway_stats(handle)
            metrics = call(handle, {"op": "metrics"})
        assert stats["protocol"] == GATEWAY_PROTOCOL
        assert stats["outcomes"].get("ok") == 1
        assert stats["queue"]["cap"] == 64
        validate_metrics(metrics.result["gateway"])
        assert metrics.result["backend"] == {"stub": True}
        names = {m["name"] for m in metrics.result["gateway"]["metrics"]}
        assert "gateway_request_ms" in names

    def test_unknown_op_is_an_error_reply(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "frobnicate"})
        assert not reply.ok
        assert "unknown op" in reply.error


class TestRequestPath:
    def test_query_round_trip(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "echo",
                                  "lo": 42, "hi": 99})
        assert reply.ok
        assert reply.result == {"kind": "scalar", "value": 42,
                                "degraded": None}

    def test_update_round_trip(self):
        backend, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {
                "op": "update", "relation": "r",
                "ops": [{"kind": "update", "key": 1, "changes": {"v": 2}},
                        {"kind": "delete", "key": 9}],
            })
        assert reply.ok and reply.result == {"applied": 2}
        assert backend.updates == [("r", 2)]

    def test_engine_exception_becomes_error_reply(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "boom",
                                  "lo": 0, "hi": 0})
        assert not reply.ok
        assert reply.kind == "RuntimeError"
        assert reply.error == "kapow"

    def test_responses_pipeline_out_of_order(self):
        _, handle = launch_stub(GatewayConfig(workers=2))

        async def go():
            async with AsyncGatewayClient("127.0.0.1", handle.port) as conn:
                slow = asyncio.get_running_loop().create_task(
                    conn.query("sleep", 0.4, None))
                await asyncio.sleep(0.05)
                fast = await conn.query("echo", 7, None)
                slow_done = slow.done()
                await slow
                return fast, slow_done

        with handle:
            fast, slow_done_when_fast_returned = asyncio.run(go())
        assert fast.ok and fast.result["value"] == 7
        assert not slow_done_when_fast_returned


class TestAdmissionOverTheWire:
    def test_rate_rejection_label(self):
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_rate=1.0, client_burst=1)
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="hot"
            ) as conn:
                first = await conn.query("echo", 1, None)
                second = await conn.query("echo", 2, None)
                return first, second

        with handle:
            first, second = asyncio.run(go())
        assert first.ok
        assert not second.ok and second.rejected == "rejected_rate"

    def test_concurrency_queue_full_and_expiry_labels(self):
        backend, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_concurrency=2, max_queue=1),
            workers=1,
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="c"
            ) as conn:
                loop = asyncio.get_running_loop()
                # A occupies the single worker (client c: 1 in flight).
                blocked = loop.create_task(conn.query("block", 0, None))
                await asyncio.sleep(0)
                # Wait until A is executing so the queue is empty again.
                assert await loop.run_in_executor(
                    None, wait_until,
                    lambda: gateway_stats_sync()["inflight"] == 1,
                )
                # B fills the 1-deep queue (client c: 2 in flight) with
                # a deadline that will expire while it waits.
                queued = loop.create_task(
                    conn.query("echo", 2, None, deadline_ms=50.0))
                await asyncio.sleep(0)
                assert await loop.run_in_executor(
                    None, wait_until,
                    lambda: gateway_stats_sync()["queue"]["depth"] == 1,
                )
                # C: client c is now at its concurrency cap.
                third = await conn.query("echo", 3, None)
                # D from another client: the queue itself is full.
                async with AsyncGatewayClient(
                    "127.0.0.1", handle.port, client="d"
                ) as other:
                    fourth = await other.query("echo", 4, None)
                await asyncio.sleep(0.1)  # let B's deadline lapse
                backend.gate.set()
                return await blocked, await queued, third, fourth

        def gateway_stats_sync():
            return gateway_stats(handle)

        with handle:
            blocked, queued, third, fourth = asyncio.run(go())
            stats = gateway_stats(handle)
        assert blocked.ok
        assert queued.rejected == "expired"
        assert third.rejected == "rejected_concurrency"
        assert fourth.rejected == "rejected_queue_full"
        assert stats["dead_letters"] == {
            "expired": 1, "rejected_concurrency": 1, "rejected_queue_full": 1,
        }
        assert stats["queue"]["peak"] <= 1

    def test_completion_after_deadline_is_expired_not_served(self):
        _, handle = launch_stub(GatewayConfig())
        with handle:
            reply = call(handle, {"op": "query", "view": "sleep",
                                  "lo": 0.2, "hi": None, "deadline_ms": 40.0})
            stats = gateway_stats(handle)
        assert not reply.ok
        assert reply.rejected == "expired"
        assert reply.doc.get("late") is True
        assert stats["dead_letters"] == {"expired": 1}

    def test_malformed_deadline_never_leaks_a_concurrency_slot(self):
        # A string deadline_ms used to raise *after* admit() had taken
        # the client's slot, permanently wedging its concurrency cap.
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(client_concurrency=1)
        ))

        async def go():
            async with AsyncGatewayClient(
                "127.0.0.1", handle.port, client="m"
            ) as conn:
                bad = [
                    await conn.call({
                        "op": "query", "view": "echo", "lo": 1, "hi": 1,
                        "client": "m", "deadline_ms": "soon",
                    })
                    for _ in range(3)
                ]
                good = await conn.query("echo", 5, None)
                return bad, good

        with handle:
            bad, good = asyncio.run(go())
            stats = gateway_stats(handle)
        for reply in bad:
            assert not reply.ok and reply.kind == "GatewayError"
            assert "deadline_ms" in reply.error
        # With a cap of 1, a valid request still gets through: the
        # malformed frames consumed no slots.
        assert good.ok and good.result["value"] == 5
        assert stats["inflight"] == 0

    def test_default_deadline_applies_when_request_names_none(self):
        _, handle = launch_stub(GatewayConfig(
            admission=AdmissionConfig(default_deadline_ms=40.0)
        ))
        with handle:
            reply = call(handle, {"op": "query", "view": "sleep",
                                  "lo": 0.2, "hi": None})
        assert reply.rejected == "expired"


class TestBoundedClientAwait:
    """The server may drop a response; the client must not hang."""

    @staticmethod
    async def _black_hole_server():
        async def black_hole(reader, writer):
            while await reader.read(65536):
                pass

        return await asyncio.start_server(black_hole, "127.0.0.1", 0)

    def test_dropped_reply_raises_instead_of_hanging(self):
        async def go():
            server = await self._black_hole_server()
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncGatewayClient("127.0.0.1", port) as conn:
                    with pytest.raises(GatewayCallError, match="response lost"):
                        await conn.call({"op": "ping"}, timeout=0.2)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_deadline_plus_slack_bounds_the_await(self):
        async def go():
            server = await self._black_hole_server()
            port = server.sockets[0].getsockname()[1]
            try:
                conn = AsyncGatewayClient("127.0.0.1", port, reply_slack_s=0.1)
                async with conn:
                    started = time.monotonic()
                    with pytest.raises(GatewayCallError, match="response lost"):
                        await conn.call({"op": "query", "view": "echo",
                                         "lo": 0, "hi": 0,
                                         "deadline_ms": 50.0})
                    assert time.monotonic() - started < 5.0
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())


class TestRealBackends:
    def test_view_server_backend_serves_and_updates(self):
        demo = demo_server(n_tuples=300, seed=7)
        backend = ViewServerBackend(demo.server)
        with GatewayHandle.launch(backend, GatewayConfig(workers=2)) as handle:
            direct = demo.server.query("v_total", None, None, client="direct")
            reply = call(handle, {"op": "query", "view": "v_total",
                                  "lo": None, "hi": None})
            assert reply.ok
            served, degraded = reply.answer()
            assert served == direct and degraded is None

            update = call(handle, {
                "op": "update", "relation": "r",
                "ops": [{"kind": "update", "key": 0,
                         "changes": {"v": 5555}}],
            })
            assert update.ok and update.result == {"applied": 1}

            tuples = call(handle, {"op": "query", "view": "v_tuples",
                                   "lo": 0, "hi": 20})
            assert tuples.ok
            rows, _ = tuples.answer()
            assert all(0 <= vt.values["a"] <= 20 for vt in rows)

    def test_malformed_inserts_are_refused_before_the_wal(self, tmp_path):
        demo = demo_server(n_tuples=300, seed=7)
        manager = DurabilityManager(tmp_path)
        manager.attach(demo.server.database)
        relation = demo.server.database.relations["r"]
        malformed = [
            # a field missing
            {"kind": "insert", "record": {"key": 5000,
                                          "values": {"id": 5000, "a": 5}}},
            # the key is not the key field's value
            {"kind": "insert", "record": {"key": 5001,
                                          "values": {"id": 5002, "a": 5,
                                                     "v": 1}}},
        ]
        backend = ViewServerBackend(demo.server)
        try:
            with GatewayHandle.launch(backend, GatewayConfig()) as handle:
                before = sorted(r.key for r in relation.logical_snapshot())
                wal_before = manager.stats()
                for doc in malformed:
                    reply = call(handle, {"op": "update", "relation": "r",
                                          "ops": [doc]})
                    assert not reply.ok and reply.kind == "SchemaError"
                # The v1 insert shape is a protocol error, not a KeyError.
                reply = call(handle, {"op": "update", "relation": "r",
                                      "ops": [{"kind": "insert", "values": {
                                          "id": 5003, "a": 5, "v": 1}}]})
                assert not reply.ok and reply.kind == "CodecError"
                assert "'record'" in reply.error
                after = sorted(r.key for r in relation.logical_snapshot())
                assert after == before
                assert manager.stats()["wal_bytes"] == wal_before["wal_bytes"]
                assert (manager.stats()["wal_records"]
                        == wal_before["wal_records"])
        finally:
            manager.close()

    def test_cluster_backend_over_the_wire(self):
        harness = pytest.importorskip("repro.cluster.harness")
        from repro.gateway import ClusterBackend

        router = harness.launch_demo(1, n_records=120, seed=5)
        try:
            backend = ClusterBackend(router)
            with GatewayHandle.launch(
                backend, GatewayConfig(workers=2)
            ) as handle:
                reply = call(handle, {"op": "query", "view": "total",
                                      "lo": None, "hi": None})
                assert reply.ok
                served, _ = reply.answer()
                direct = router.query("total", None, None, client="direct")
                assert served == direct

                update = call(handle, {
                    "op": "update", "relation": "r",
                    "ops": [{"kind": "update", "key": 3,
                             "changes": {"v": 77}}],
                })
                assert update.ok and update.result == {"applied": 1}

                # An insert doc carries its whole record: no schema needed.
                before = router.query("total", None, None, client="direct")
                record = Record(1000, {"id": 1000, "a": 5, "v": 9})
                insert = call(handle, {
                    "op": "update", "relation": "r",
                    "ops": [encode_operation(Insert(record))],
                })
                assert insert.ok and insert.result == {"applied": 1}
                after = router.query("total", None, None, client="direct")
                assert after == before + 9

                # Malformed inserts are refused by the router or by the
                # owning shard's engine, and change nothing.
                for doc in (
                    {"kind": "insert", "record": {
                        "key": 1001, "values": {"id": 1002, "a": 5, "v": 9}}},
                    {"kind": "insert", "record": {
                        "key": 1003, "values": {"id": 1003, "v": 9}}},
                ):
                    reply = call(handle, {"op": "update", "relation": "r",
                                          "ops": [doc]})
                    assert not reply.ok
                    assert "SchemaError" in f"{reply.kind}: {reply.error}"
                assert router.query("total", None, None,
                                    client="direct") == after
        finally:
            router.close()

    def test_handle_stop_is_idempotent(self):
        _, handle = launch_stub(GatewayConfig())
        handle.stop()
        handle.stop()
