"""Shard workers: one process, one partition, one full serving stack.

A worker hosts a complete :class:`~repro.service.server.ViewServer`
(engine + maintenance + optional durability and resilience) over its
slice of every base relation, and speaks the framed RPC protocol of
:mod:`repro.cluster.rpc` over a socket inherited from the router.

Everything a worker needs is described by a plain-dict *worker spec*
(picklable, JSON-able), so the same spec document drives the in-process
test harness, the forked benchmark workers and the ``repro-cluster``
CLI.  Engine objects inside a spec are :mod:`repro.durability.codec`
documents — the same ones the WAL journals::

    {"buffer_pages": int, "cache": bool, "pacing": float,
     "lock_timeout": float, "state_dir": str | None,
     "relations": [{"schema": encode_schema(...), "clustered_on": str,
                    "kind": str, "ad_buckets": int,
                    "records": [encode_fields(record.values), ...]}],
     "views": [{"definition": encode_definition(...),
                "strategy": str, "policy": {"kind": str, "every": int}
                                           | None}]}

A spec record is its encoded field map (the schema names the key
field), so a record holding plain scalars reads as the plain dict it
is.  Shard ``update``/``apply_delta`` calls carry the codec's operation
docs (:func:`~repro.durability.codec.encode_operation`); ``snapshot``
ships spec records and ``fetch`` one record's field map.

Views are registered with ``adaptive=False`` inside workers: a
strategy migration must be a cluster-wide decision (all shards answer
under the same strategy or the equivalence guarantee means nothing),
so per-shard routers stay off.
"""

from __future__ import annotations

import signal
import socket
from pathlib import Path
from typing import Any, Mapping

from repro.core.strategies import Strategy
from repro.durability.codec import (
    decode_definition,
    decode_fields,
    decode_operation,
    decode_schema,
    decode_value,
    encode_fields,
)
from repro.engine.database import Database
from repro.engine.transaction import Transaction
from repro.hr.differential import HypotheticalRelation
from repro.resilience.degradation import DegradedResult
from repro.service.cache import QueryResultCache
from repro.service.scheduler import RefreshPolicy
from repro.service.server import ViewServer
from repro.views.definition import ViewTuple
from .rpc import recv_frame, send_frame

__all__ = [
    "WorkerSpecError",
    "DeltaGapError",
    "WorkerState",
    "build_server",
    "worker_main",
    "encode_answer",
    "decode_answer",
]


class WorkerSpecError(ValueError):
    """A worker spec document is malformed or unsupported."""


class DeltaGapError(RuntimeError):
    """A shipped delta skipped an epoch: the replica must re-bootstrap."""


class WorkerState:
    """Per-process replication state the serve loop threads through.

    ``applied_epoch`` counts the committed update batches this worker
    has absorbed — via epoch-tagged ``update`` calls on a primary or
    ``apply_delta`` shipments on a replica — so any member can report
    how caught-up it is and serve a consistent ``snapshot`` for a
    replacement worker's bootstrap.
    """

    __slots__ = ("applied_epoch",)

    def __init__(self, applied_epoch: int = 0) -> None:
        self.applied_epoch = applied_epoch


# ----------------------------------------------------------------------
# wire encoding of answers
# ----------------------------------------------------------------------
def encode_answer(answer: Any) -> dict[str, Any]:
    """Flatten a ViewServer answer (tuples, scalar, or degraded) to JSON."""
    degraded = None
    payload = answer
    if isinstance(answer, DegradedResult):
        degraded = {
            "view": answer.view,
            "mode": answer.mode,
            "reason": answer.reason,
            "staleness_bound": answer.staleness_bound,
            "strategy": answer.strategy,
        }
        payload = answer.unwrap()
    if isinstance(payload, list):
        body = {"kind": "tuples", "items": [dict(vt.values) for vt in payload]}
    else:
        body = {"kind": "scalar", "value": payload}
    body["degraded"] = degraded
    return body


def decode_answer(doc: Mapping[str, Any]) -> tuple[Any, dict[str, Any] | None]:
    """``(payload, degraded_info)`` — the router re-wraps degraded merges."""
    if doc.get("kind") == "tuples":
        payload: Any = [ViewTuple(values) for values in doc["items"]]
    else:
        payload = doc.get("value")
    return payload, doc.get("degraded")


# ----------------------------------------------------------------------
# spec -> server
# ----------------------------------------------------------------------
def build_server(spec: Mapping[str, Any]) -> ViewServer:
    """Materialize one shard's serving stack from a worker spec.

    The spec's ``records`` lists hold only this shard's partition —
    the router does the partitioning before forking workers.
    """
    database = Database(buffer_pages=int(spec.get("buffer_pages", 256)))
    for rel in spec.get("relations", ()):
        schema = decode_schema(rel["schema"])
        records = [
            schema.new_record(**decode_fields(doc))
            for doc in rel.get("records", ())
        ]
        database.create_relation(
            schema, rel["clustered_on"], kind=rel.get("kind", "hypothetical"),
            records=records, ad_buckets=int(rel.get("ad_buckets", 2)),
        )
    server = ViewServer(
        database,
        cache=QueryResultCache() if spec.get("cache") else None,
        pacing=float(spec.get("pacing", 0.0)),
        lock_timeout=spec.get("lock_timeout", 30.0),
    )
    for view in spec.get("views", ()):
        policy_doc = view.get("policy")
        policy = (
            RefreshPolicy(policy_doc["kind"], every=policy_doc.get("every", 1))
            if policy_doc else None
        )
        server.register_view(
            decode_definition(view["definition"]), Strategy(view["strategy"]),
            adaptive=False, policy=policy,
        )
    state_dir = spec.get("state_dir")
    if state_dir is not None:
        from repro.durability.manager import DurabilityManager

        manager = DurabilityManager(Path(state_dir))
        server.attach_durability(
            manager, checkpoint_every=spec.get("checkpoint_every")
        )
        server.checkpoint()
    return server


# ----------------------------------------------------------------------
# the serve loop
# ----------------------------------------------------------------------
def _logical_records(database: Database, relation_name: str) -> list[Any]:
    relation = database.relations[relation_name]
    if hasattr(relation, "scan_logical"):
        return list(relation.scan_logical())
    return list(relation.records_snapshot())


def _apply_ops(
    server: ViewServer, relation: str, ops: Any, client: str
) -> int:
    txn = Transaction.of(relation, [decode_operation(doc) for doc in ops])
    server.apply_update(txn, client=client)
    return len(txn)


def _handle(
    server: ViewServer,
    op: str,
    request: Mapping[str, Any],
    state: WorkerState,
) -> Any:
    if op == "ping":
        return {"views": list(server.views()), "epoch": state.applied_epoch}
    if op == "update":
        # A replicated primary tags each batch with the epoch the
        # router assigned it, so a snapshot taken from this worker
        # carries an exact catch-up position — and a retried write
        # whose first attempt committed before the connection broke
        # is recognized and skipped instead of double-applied.
        epoch = request.get("epoch")
        if isinstance(epoch, int) and epoch <= state.applied_epoch:
            return {"applied": 0, "epoch": state.applied_epoch,
                    "duplicate": True}
        applied = _apply_ops(
            server, request["relation"], request["ops"],
            request.get("client", "router"),
        )
        if isinstance(epoch, int):
            state.applied_epoch = epoch
        return {"applied": applied}
    if op == "apply_delta":
        epoch = int(request["epoch"])
        if epoch <= state.applied_epoch:
            # A re-shipped batch this replica already holds (catch-up
            # after a repair overlaps the live stream): idempotent skip.
            return {"applied": 0, "epoch": state.applied_epoch,
                    "duplicate": True}
        if epoch != state.applied_epoch + 1:
            raise DeltaGapError(
                f"delta epoch {epoch} skips ahead of applied "
                f"{state.applied_epoch}; replica needs a snapshot bootstrap"
            )
        applied = _apply_ops(
            server, request["relation"], request["ops"],
            request.get("client", "replication"),
        )
        state.applied_epoch = epoch
        return {"applied": applied, "epoch": state.applied_epoch}
    if op == "snapshot":
        # The router holds the shard's write lock while fetching, so
        # the records and the epoch cut the same consistent state.
        relations = {
            name: [
                encode_fields(record.values)
                for record in _logical_records(server.database, name)
            ]
            for name in sorted(server.database.relations)
        }
        return {"epoch": state.applied_epoch, "relations": relations}
    if op == "fetch":
        key = decode_value(request["key"])
        for record in _logical_records(server.database, request["relation"]):
            if record.key == key:
                return {"values": encode_fields(record.values)}
        return {"values": None}
    if op == "query":
        answer = server.query(
            request["view"], request.get("lo"), request.get("hi"),
            client=request.get("client", "router"),
        )
        return encode_answer(answer)
    if op == "refresh":
        return {"refreshed": list(server.refresh_all_stale())}
    if op == "stats":
        relations = {}
        for name, relation in sorted(server.database.relations.items()):
            if isinstance(relation, HypotheticalRelation):
                coordinator = server.database.deferred_coordinator(name)
                relations[name] = {
                    "net_reads": relation.net_reads,
                    "pending": relation.ad_entry_count(),
                    "net_computes": (
                        coordinator.net_computes if coordinator is not None else 0
                    ),
                }
        return {
            "epochs": server.planner.epochs,
            "coalesced_waits": server.planner.coalesced_waits,
            "relations": relations,
            "degraded_views": server.degraded_views(),
        }
    if op == "metrics":
        return server.metrics_dict()
    if op == "checkpoint":
        info = server.checkpoint()
        return {"bytes_written": info.bytes_written}
    raise WorkerSpecError(f"unknown op {op!r}")


def serve(
    sock: socket.socket,
    server: ViewServer,
    shard_id: int,
    state: WorkerState | None = None,
) -> str:
    """Answer framed requests until a ``shutdown`` op or peer EOF.

    Returns ``"shutdown"`` when the router asked the worker to exit and
    ``"eof"`` when the connection merely closed — the accept loop in
    :func:`worker_main` uses the distinction to keep the process alive
    across a router-side reconnect.

    Requests on one connection are handled strictly in order, so by the
    time ``shutdown`` is read every earlier request has been fully
    answered — the drain the router's close() relies on.  The reply is
    sent *before* the durability seal so the router is never left
    waiting on a final checkpoint.
    """
    if state is None:
        state = WorkerState()
    while True:
        try:
            request = recv_frame(sock)
        except OSError:
            return "eof"
        if request is None:
            return "eof"
        request_id = request.get("id")
        op = str(request.get("op", ""))
        if op == "shutdown":
            send_frame(sock, {"id": request_id, "ok": True,
                              "result": {"shard": shard_id}})
            return "shutdown"
        try:
            result = _handle(server, op, request, state)
        except Exception as exc:  # surfaced to the router as an error frame
            response = {
                "id": request_id,
                "ok": False,
                "kind": type(exc).__name__,
                "error": str(exc),
            }
        else:
            response = {"id": request_id, "ok": True, "result": result}
        try:
            send_frame(sock, response)
        except OSError:
            return "eof"


def worker_main(
    listener: socket.socket, spec: Mapping[str, Any], shard_id: int
) -> None:
    """Process entry point for one shard worker.

    ``listener`` is a *listening* TCP socket inherited from the router.
    The worker accepts one connection at a time and serves it to EOF,
    then loops back to ``accept`` — this is what lets the router repair
    a poisoned :class:`~repro.cluster.rpc.ShardClient` with
    ``reconnect()`` instead of declaring the shard dead: the worker
    process (and all its state) outlives any single connection.  Only
    an explicit ``shutdown`` op ends the process.

    SIGINT is ignored: a Ctrl-C at the terminal reaches the whole
    process group, and the worker must stay alive long enough for the
    router's drain-then-shutdown path to run — otherwise pipes break
    mid-request and the router would have to treat its own shutdown as
    a partial failure.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = build_server(spec)
    state = WorkerState(int(spec.get("replica_epoch", 0)))
    try:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener torn down under us: exit cleanly
            try:
                reason = serve(conn, server, shard_id, state)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if reason == "shutdown":
                break
    finally:
        try:
            server.shutdown()
        finally:
            listener.close()
