"""The gateway server: asyncio edge, admission control, worker pool.

Architecture (one process)::

    clients ──TCP──▶ asyncio event loop          worker threads
                     ├─ frame parse              ├─ deadline check
                     ├─ admission pipeline ──▶ BoundedQueue ──▶ backend call
                     └─ immediate rejections ◀── responses (by id) ◀─┘

The event loop never executes engine work: it parses frames, runs the
admission pipeline (token buckets, concurrency guard, bounded queue)
and writes responses.  A small pool of worker threads pops admitted
requests from the bounded ingress queue and drives the backend — a
:class:`~repro.service.server.ViewServer` (thread-safe since the
striped-lock refactor) or a :class:`~repro.cluster.router.ClusterRouter`
(scatter-gather legs already run on their own threads).  Responses are
scheduled back onto the loop and matched by request id, so one
connection can carry many overlapping requests (the open-loop load
generator depends on this).

Deadlines propagate: the budget a request arrives with is checked
again when a worker picks it up (expired in queue → dead letter,
engine untouched), is passed to the backend as its remaining RPC
timeout where supported (cluster legs), and is checked once more at
completion — an answer computed after its deadline is labelled
``expired``, not served as success, which is what keeps the p99 of
*admitted* requests bounded under overload.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cluster.worker import encode_answer
from repro.durability.codec import decode_operation
from repro.engine.transaction import Transaction
from repro.service.metrics import MetricsRegistry
from .admission import (
    EXPIRED,
    REJECTED_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
)
from .protocol import GATEWAY_PROTOCOL, FrameError, pack_frame, read_frame

__all__ = [
    "GatewayError",
    "GatewayConfig",
    "ViewServerBackend",
    "ClusterBackend",
    "GatewayServer",
    "GatewayHandle",
    "GATEWAY_LATENCY_BUCKETS_MS",
]

#: Wall-clock latency buckets (ms).  The serving layer's modelled-ms
#: buckets start at 1 ms; gateway latencies are wall time and include
#: sub-millisecond rejections, so the grid extends two decades down.
GATEWAY_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0, float("inf"),
)


class GatewayError(RuntimeError):
    """Gateway configuration or protocol misuse."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs: the admission pipeline plus the worker pool."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Worker threads executing admitted requests against the backend.
    workers: int = 4
    #: Seconds a worker waits on an empty queue before re-checking stop.
    idle_poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ViewServerBackend:
    """Adapt one in-process :class:`ViewServer` to the gateway."""

    def __init__(self, server: Any) -> None:
        self.server = server

    def views(self) -> tuple[str, ...]:
        return tuple(self.server.views())

    def query(
        self, view: str, lo: Any, hi: Any, client: str,
        timeout: float | None = None,
    ) -> Any:
        # An in-process engine call is not interruptible; the gateway
        # enforces the deadline around it (pre-dispatch and at
        # completion) instead.
        return self.server.query(view, lo, hi, client=client)

    def update(
        self, relation: str, ops: list[Mapping[str, Any]], client: str,
        timeout: float | None = None,
    ) -> int:
        txn = Transaction.of(relation, [decode_operation(doc) for doc in ops])
        self.server.apply_update(txn, client=client)
        return len(txn)

    def metrics(self) -> dict[str, Any]:
        return self.server.metrics_dict()


class ClusterBackend:
    """Adapt a scatter–gather :class:`ClusterRouter` to the gateway.

    The remaining deadline budget becomes the router's per-call RPC
    timeout, so a gateway deadline bounds every shard leg too.
    """

    def __init__(self, router: Any) -> None:
        self.router = router

    def views(self) -> tuple[str, ...]:
        return tuple(self.router.views())

    def query(
        self, view: str, lo: Any, hi: Any, client: str,
        timeout: float | None = None,
    ) -> Any:
        return self.router.query(view, lo, hi, client=client, timeout=timeout)

    def pop_retry_flag(self) -> bool:
        """Whether this thread's last query was served via replica retry."""
        return self.router.pop_retried()

    def update(
        self, relation: str, ops: list[Mapping[str, Any]], client: str,
        timeout: float | None = None,
    ) -> int:
        txn = Transaction.of(relation, [decode_operation(doc) for doc in ops])
        # The remaining deadline budget bounds every shard leg of the
        # write fan-out, exactly as it already does for queries.
        self.router.apply_update(txn, client=client, timeout=timeout)
        return len(txn)

    def metrics(self) -> dict[str, Any]:
        return self.router.cluster_metrics()


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
@dataclass
class _Conn:
    """Per-connection state: the writer plus a write-ordering lock."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock


@dataclass
class _Pending:
    """One admitted request riding the ingress queue."""

    conn: _Conn
    request: dict[str, Any]
    op: str
    client: str
    received: float
    #: Absolute monotonic deadline, or None for no budget.
    deadline: float | None


class GatewayServer:
    """Serve the framed gateway protocol over a backend.

    Use :meth:`start`/:meth:`stop` inside an event loop, or
    :class:`GatewayHandle` to run the whole thing on a background
    thread (tests, experiments, and the in-process ``--listen`` shims).
    """

    def __init__(
        self,
        backend: ViewServerBackend | ClusterBackend,
        config: GatewayConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.config = config or GatewayConfig()
        self.metrics = registry or MetricsRegistry()
        self.admission = AdmissionController(self.config.admission)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = 0.0

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        self._started = time.monotonic()
        self._stopping.clear()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"gateway-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def port(self) -> int:
        if self._server is None:
            raise GatewayError("gateway not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain workers, close the listener."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._stopping.set()
        for thread in self._threads:
            await asyncio.get_running_loop().run_in_executor(None, thread.join)
        self._server = None
        self._threads = []

    # -- observability --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Queue, dead-letter, outcome and uptime counters as plain data."""
        outcomes = {
            dict(counter.labels)["outcome"]: int(counter.value)
            for counter in self.metrics.series("gateway_outcomes_total")
        }
        doc = self.admission.stats()
        doc["outcomes"] = outcomes
        doc["uptime_s"] = round(time.monotonic() - self._started, 3)
        doc["workers"] = self.config.workers
        doc["protocol"] = GATEWAY_PROTOCOL
        return doc

    def metrics_dict(self) -> dict[str, Any]:
        return self.metrics.to_dict()

    def _observe(self, outcome: str, op: str, latency_ms: float) -> None:
        self.metrics.counter("gateway_outcomes_total", outcome=outcome).inc()
        self.metrics.counter("gateway_requests_total", op=op).inc()
        self.metrics.histogram(
            "gateway_request_ms",
            buckets=GATEWAY_LATENCY_BUCKETS_MS,
            outcome=outcome,
        ).observe(latency_ms)
        queue = self.admission.queue
        self.metrics.gauge("gateway_queue_depth").set(queue.depth)
        self.metrics.gauge("gateway_queue_peak").set(queue.peak)

    def _dead_letter(
        self, label: str, pending_or_client: Any, op: str,
        detail: str, waited_ms: float,
    ) -> None:
        client = (
            pending_or_client.client
            if isinstance(pending_or_client, _Pending) else pending_or_client
        )
        self.admission.dead_letters.record(
            label, client, op, detail=detail, waited_ms=waited_ms
        )
        self.metrics.counter("gateway_dead_letters_total", reason=label).inc()

    # -- the asyncio edge ----------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer, asyncio.Lock())
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError:
                    return  # garbage on the wire: drop the connection
                if request is None:
                    return
                self._dispatch(conn, request)
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _dispatch(self, conn: _Conn, request: dict[str, Any]) -> None:
        """Admission decision for one frame, on the event loop."""
        op = str(request.get("op", ""))
        client = str(request.get("client", "anon"))
        received = time.monotonic()

        if op in ("ping", "stats", "metrics"):
            self._answer_control(conn, request, op)
            return
        if op not in ("query", "update"):
            self._respond(conn, {
                "id": request.get("id"), "ok": False,
                "kind": "GatewayError", "error": f"unknown op {op!r}",
            })
            return

        # Malformed deadlines are rejected *before* admission: anything
        # that can fail after admit() would otherwise leak the client's
        # concurrency slot and wedge its cap permanently.
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.admission.default_deadline_ms
        elif (
            isinstance(budget_ms, bool)
            or not isinstance(budget_ms, (int, float))
            or not math.isfinite(budget_ms)
        ):
            self._respond(conn, {
                "id": request.get("id"), "ok": False,
                "kind": "GatewayError",
                "error": f"deadline_ms must be a finite number, got {budget_ms!r}",
            })
            return

        decision = self.admission.admit(client)
        if not decision.admitted:
            assert decision.label is not None
            self._dead_letter(decision.label, client, op, decision.detail, 0.0)
            self._observe(decision.label, op, 0.0)
            self._respond(conn, {
                "id": request.get("id"), "ok": False,
                "rejected": decision.label,
            })
            return

        try:
            deadline = (
                received + budget_ms / 1000.0 if budget_ms is not None else None
            )
            pending = _Pending(conn, request, op, client, received, deadline)
            pushed = self.admission.queue.try_push(pending)
        except BaseException:
            # Between admit() and a successful try_push() the slot is
            # ours; never let it escape unreleased.
            self.admission.release(client)
            raise
        if not pushed:
            self.admission.release(client)
            self._dead_letter(
                REJECTED_QUEUE_FULL, client, op,
                f"queue at cap {self.admission.queue.cap}", 0.0,
            )
            self._observe(REJECTED_QUEUE_FULL, op, 0.0)
            self._respond(conn, {
                "id": request.get("id"), "ok": False,
                "rejected": REJECTED_QUEUE_FULL,
            })

    def _answer_control(self, conn: _Conn, request: dict[str, Any], op: str) -> None:
        if op == "ping":
            result: Any = {
                "protocol": GATEWAY_PROTOCOL,
                "views": list(self.backend.views()),
            }
        elif op == "stats":
            result = self.stats()
        else:
            # "metrics" calls into the backend — for a cluster that is
            # a synchronous scatter-gather bounded only by rpc_timeout,
            # so it must not run inline on the event loop (it would
            # stall parsing, admission and responses on every
            # connection while it waits).
            assert self._loop is not None
            self._loop.create_task(self._answer_metrics(conn, request))
            return
        self._respond(conn, {"id": request.get("id"), "ok": True, "result": result})

    async def _answer_metrics(self, conn: _Conn, request: dict[str, Any]) -> None:
        loop = asyncio.get_running_loop()

        def collect() -> dict[str, Any]:
            return {
                "gateway": self.metrics_dict(),
                "backend": self.backend.metrics(),
            }

        try:
            result = await loop.run_in_executor(None, collect)
        except Exception as exc:
            await self._send(conn, {
                "id": request.get("id"), "ok": False,
                "kind": type(exc).__name__, "error": str(exc),
            })
            return
        await self._send(conn, {"id": request.get("id"), "ok": True, "result": result})

    def _respond(self, conn: _Conn, doc: dict[str, Any]) -> None:
        """Send from the event loop (fire-and-forget task per frame)."""
        assert self._loop is not None
        self._loop.create_task(self._send(conn, doc))

    async def _send(self, conn: _Conn, doc: dict[str, Any]) -> None:
        try:
            async with conn.lock:
                conn.writer.write(pack_frame(doc))
                await conn.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            self.metrics.counter("gateway_send_failures_total").inc()

    # -- the worker pool ------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            pending = self.admission.queue.pop(timeout=self.config.idle_poll_s)
            if pending is None:
                continue
            try:
                self._execute(pending)
            finally:
                self.admission.release(pending.client)

    def _execute(self, pending: _Pending) -> None:
        now = time.monotonic()
        waited_ms = (now - pending.received) * 1000.0
        request = pending.request
        if pending.deadline is not None and now >= pending.deadline:
            # Expired while queued: the engine never sees it.
            self._dead_letter(EXPIRED, pending, pending.op,
                              "expired in queue", waited_ms)
            self._finish(pending, EXPIRED, {
                "id": request.get("id"), "ok": False, "rejected": EXPIRED,
            })
            return
        remaining = (
            pending.deadline - now if pending.deadline is not None else None
        )
        try:
            if pending.op == "query":
                answer = self.backend.query(
                    request["view"], request.get("lo"), request.get("hi"),
                    pending.client, timeout=remaining,
                )
                result = encode_answer(answer)
                # pop_retry_flag runs on this same worker thread, so
                # the flag the router parked thread-locally belongs to
                # exactly this request.
                retried = bool(getattr(
                    self.backend, "pop_retry_flag", lambda: False
                )())
                if retried:
                    result["retried"] = True
                if result.get("degraded"):
                    outcome = "degraded"
                elif retried:
                    # A full-fidelity answer that needed a replica
                    # retry: correct, but worth its own histogram —
                    # failover latency hides inside these.
                    outcome = "ok_retry"
                else:
                    outcome = "ok"
            else:
                applied = self.backend.update(
                    request["relation"], request.get("ops", ()),
                    pending.client, timeout=remaining,
                )
                result = {"applied": applied}
                outcome = "ok"
        except Exception as exc:
            if (
                pending.deadline is not None
                and time.monotonic() >= pending.deadline - 0.010
            ):
                # The budget ran out mid-call: backends that honour the
                # remaining-time budget (cluster shard legs) raise when
                # it is exhausted, so the honest label is the deadline's
                # — expired — not an engine error.
                self._dead_letter(
                    EXPIRED, pending, pending.op, "deadline cut mid-call",
                    (time.monotonic() - pending.received) * 1000.0,
                )
                self._finish(pending, EXPIRED, {
                    "id": request.get("id"), "ok": False,
                    "rejected": EXPIRED, "late": True,
                })
                return
            self._finish(pending, "error", {
                "id": request.get("id"), "ok": False,
                "kind": type(exc).__name__, "error": str(exc),
            })
            return
        if pending.deadline is not None and time.monotonic() > pending.deadline:
            # Served too late to count: the caller's budget is blown, so
            # the answer is withheld and the work dead-lettered — this
            # is what bounds the latency of *admitted* successes.
            self._dead_letter(
                EXPIRED, pending, pending.op, "completed past deadline",
                (time.monotonic() - pending.received) * 1000.0,
            )
            self._finish(pending, EXPIRED, {
                "id": request.get("id"), "ok": False,
                "rejected": EXPIRED, "late": True,
            })
            return
        self._finish(pending, outcome, {
            "id": request.get("id"), "ok": True, "result": result,
        })

    def _finish(self, pending: _Pending, outcome: str, doc: dict[str, Any]) -> None:
        latency_ms = (time.monotonic() - pending.received) * 1000.0
        self._observe(outcome, pending.op, latency_ms)
        assert self._loop is not None
        try:
            asyncio.run_coroutine_threadsafe(
                self._send(pending.conn, doc), self._loop
            )
        except RuntimeError:
            # Loop already closed (shutdown race); the response is lost
            # with the connection, which is the normal close semantics.
            self.metrics.counter("gateway_send_failures_total").inc()


class GatewayHandle:
    """A gateway running on its own thread with its own event loop.

    What tests, experiments and the CLI shims use: ``launch`` returns
    once the socket is listening; ``stop`` tears the loop down and
    joins the thread.  The handle owns only the gateway — backend
    lifecycle (server shutdown, cluster close) stays with the caller.
    """

    def __init__(self, gateway: GatewayServer, host: str) -> None:
        self.gateway = gateway
        self.host = host
        self.port: int = 0
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @classmethod
    def launch(
        cls,
        backend: ViewServerBackend | ClusterBackend,
        config: GatewayConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> "GatewayHandle":
        handle = cls(GatewayServer(backend, config, registry), host)
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            handle._loop = loop
            try:
                loop.run_until_complete(handle.gateway.start(host, port))
            except BaseException as exc:  # surfaced to the launcher
                failure.append(exc)
                ready.set()
                loop.close()
                return
            handle.port = handle.gateway.port
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(handle.gateway.stop())
                loop.close()

        thread = threading.Thread(target=run, name="gateway-loop", daemon=True)
        handle._thread = thread
        thread.start()
        ready.wait(timeout=30.0)
        if failure:
            raise failure[0]
        if handle.port == 0:
            raise GatewayError("gateway failed to start within 30s")
        return handle

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
