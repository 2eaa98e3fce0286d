"""Wire codec: engine objects <-> JSON-safe dictionaries.

The engine journals *objects* (transactions, schemas, view
definitions); the WAL and checkpoint files store *JSON lines*, and the
cluster and gateway ship the same documents in their RPC frames (worker
specs, shard updates, replication deltas, gateway ``update`` ops).  This
module is the only mapping between the two, in both directions, so the
engine never imports durability code and no transport keeps a codec of
its own.

Every encoded document is tagged (``"t"`` for polymorphic values) so
decoding is table-driven, and scalars pass through untouched — the
engine's records hold JSON-native field values (ints, floats, strings,
bools, ``None``); containers are encoded with an explicit tuple/list
marker so round-trips preserve identity-sensitive types.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.engine.transaction import Delete, Insert, Operation, Transaction, Update
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    TruePredicate,
)

__all__ = [
    "CodecError",
    "encode_value",
    "decode_value",
    "encode_fields",
    "decode_fields",
    "encode_record",
    "decode_record",
    "encode_schema",
    "decode_schema",
    "encode_predicate",
    "decode_predicate",
    "encode_definition",
    "decode_definition",
    "encode_operation",
    "decode_operation",
    "encode_transaction",
    "decode_transaction",
    "encode_event",
    "decode_event",
]


class CodecError(ValueError):
    """A value cannot be encoded to (or decoded from) the wire format."""


# ----------------------------------------------------------------------
# scalars and containers
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """JSON-safe encoding of a record field / key value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return {
            "t": "tuple" if isinstance(value, tuple) else "list",
            "items": [encode_value(v) for v in value],
        }
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(doc: Any) -> Any:
    # An exact type test, not isinstance(Mapping): encoded containers
    # are always plain dicts, and this runs once per decoded field.
    if type(doc) is dict:
        items = [decode_value(v) for v in doc["items"]]
        return tuple(items) if doc.get("t") == "tuple" else items
    return doc


# ----------------------------------------------------------------------
# records and schemas
# ----------------------------------------------------------------------
def encode_fields(values: Mapping[str, Any]) -> dict[str, Any]:
    """A field -> value map: a record's values or an update's changes."""
    return {f: encode_value(v) for f, v in values.items()}


def decode_fields(doc: Mapping[str, Any]) -> dict[str, Any]:
    return {f: decode_value(v) for f, v in doc.items()}


def encode_record(record: Record) -> dict[str, Any]:
    return {"key": encode_value(record.key), "values": encode_fields(record.values)}


def decode_record(doc: Mapping[str, Any]) -> Record:
    return Record(decode_value(doc["key"]), decode_fields(doc["values"]))


def encode_schema(schema: Schema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "fields": list(schema.fields),
        "key_field": schema.key_field,
        "tuple_bytes": schema.tuple_bytes,
    }


def decode_schema(doc: Mapping[str, Any]) -> Schema:
    return Schema(
        name=doc["name"],
        fields=tuple(doc["fields"]),
        key_field=doc["key_field"],
        tuple_bytes=doc["tuple_bytes"],
    )


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
def encode_predicate(predicate: Predicate) -> dict[str, Any]:
    if isinstance(predicate, TruePredicate):
        return {"t": "true"}
    if isinstance(predicate, IntervalPredicate):
        return {
            "t": "interval",
            "field": predicate.field,
            "lo": encode_value(predicate.lo),
            "hi": encode_value(predicate.hi),
            "selectivity": predicate.selectivity,
        }
    if isinstance(predicate, ComparisonPredicate):
        return {
            "t": "comparison",
            "field": predicate.field,
            "op": predicate.op,
            "constant": encode_value(predicate.constant),
        }
    if isinstance(predicate, AndPredicate):
        return {"t": "and", "clauses": [encode_predicate(c) for c in predicate.clauses]}
    if isinstance(predicate, OrPredicate):
        return {"t": "or", "clauses": [encode_predicate(c) for c in predicate.clauses]}
    if isinstance(predicate, NotPredicate):
        return {"t": "not", "clause": encode_predicate(predicate.clause)}
    raise CodecError(f"cannot encode predicate type {type(predicate).__name__}")


def decode_predicate(doc: Mapping[str, Any]) -> Predicate:
    tag = doc.get("t")
    if tag == "true":
        return TruePredicate()
    if tag == "interval":
        return IntervalPredicate(
            field=doc["field"],
            lo=decode_value(doc["lo"]),
            hi=decode_value(doc["hi"]),
            selectivity=doc.get("selectivity"),
        )
    if tag == "comparison":
        return ComparisonPredicate(
            field=doc["field"], op=doc["op"], constant=decode_value(doc["constant"])
        )
    if tag == "and":
        return AndPredicate(tuple(decode_predicate(c) for c in doc["clauses"]))
    if tag == "or":
        return OrPredicate(tuple(decode_predicate(c) for c in doc["clauses"]))
    if tag == "not":
        return NotPredicate(decode_predicate(doc["clause"]))
    raise CodecError(f"unknown predicate tag {tag!r}")


# ----------------------------------------------------------------------
# view definitions
# ----------------------------------------------------------------------
def encode_definition(
    definition: SelectProjectView | JoinView | AggregateView,
) -> dict[str, Any]:
    if isinstance(definition, SelectProjectView):
        return {
            "t": "select_project",
            "name": definition.name,
            "relation": definition.relation,
            "predicate": encode_predicate(definition.predicate),
            "projection": list(definition.projection),
            "view_key": definition.view_key,
        }
    if isinstance(definition, JoinView):
        return {
            "t": "join",
            "name": definition.name,
            "outer": definition.outer,
            "inner": definition.inner,
            "join_field": definition.join_field,
            "predicate": encode_predicate(definition.predicate),
            "outer_projection": list(definition.outer_projection),
            "inner_projection": list(definition.inner_projection),
            "view_key": definition.view_key,
        }
    if isinstance(definition, AggregateView):
        return {
            "t": "aggregate",
            "name": definition.name,
            "relation": definition.relation,
            "predicate": encode_predicate(definition.predicate),
            "aggregate": definition.aggregate,
            "field": definition.field,
        }
    raise CodecError(f"cannot encode definition type {type(definition).__name__}")


def decode_definition(
    doc: Mapping[str, Any],
) -> SelectProjectView | JoinView | AggregateView:
    tag = doc.get("t")
    if tag == "select_project":
        return SelectProjectView(
            name=doc["name"],
            relation=doc["relation"],
            predicate=decode_predicate(doc["predicate"]),
            projection=tuple(doc["projection"]),
            view_key=doc["view_key"],
        )
    if tag == "join":
        return JoinView(
            name=doc["name"],
            outer=doc["outer"],
            inner=doc["inner"],
            join_field=doc["join_field"],
            predicate=decode_predicate(doc["predicate"]),
            outer_projection=tuple(doc["outer_projection"]),
            inner_projection=tuple(doc["inner_projection"]),
            view_key=doc["view_key"],
        )
    if tag == "aggregate":
        return AggregateView(
            name=doc["name"],
            relation=doc["relation"],
            predicate=decode_predicate(doc["predicate"]),
            aggregate=doc["aggregate"],
            field=doc["field"],
        )
    raise CodecError(f"unknown definition tag {tag!r}")


# ----------------------------------------------------------------------
# transactions
# ----------------------------------------------------------------------
def encode_operation(op: Operation) -> dict[str, Any]:
    """One operation doc: the WAL, shard RPC, delta and gateway shape."""
    if isinstance(op, Insert):
        return {"kind": "insert", "record": encode_record(op.record)}
    if isinstance(op, Delete):
        return {"kind": "delete", "key": encode_value(op.key)}
    if isinstance(op, Update):
        return {
            "kind": "update",
            "key": encode_value(op.key),
            "changes": encode_fields(op.changes),
        }
    raise CodecError(f"cannot encode operation type {type(op).__name__}")


def decode_operation(doc: Mapping[str, Any]) -> Operation:
    kind = doc.get("kind")
    try:
        if kind == "insert":
            return Insert(decode_record(doc["record"]))
        if kind == "delete":
            return Delete(decode_value(doc["key"]))
        if kind == "update":
            return Update(decode_value(doc["key"]), decode_fields(doc["changes"]))
    except KeyError as exc:
        raise CodecError(f"{kind} operation doc lacks {exc.args[0]!r}") from exc
    raise CodecError(f"unknown operation kind {kind!r}")


def encode_transaction(txn: Transaction) -> dict[str, Any]:
    return {
        "relation": txn.relation,
        "operations": [encode_operation(op) for op in txn.operations],
    }


def decode_transaction(doc: Mapping[str, Any]) -> Transaction:
    return Transaction(
        relation=doc["relation"],
        operations=tuple(decode_operation(op) for op in doc["operations"]),
    )


# ----------------------------------------------------------------------
# journal events (what Database._journal emits)
# ----------------------------------------------------------------------
def encode_event(event: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Flatten one engine journal event into a JSON-safe WAL record."""
    if event == "txn":
        return {"event": event, "txn": encode_transaction(payload["txn"])}
    if event == "net_install":
        return {"event": event, "relation": payload["relation"]}
    if event == "create_relation":
        records = payload.get("records")
        return {
            "event": event,
            "schema": encode_schema(payload["schema"]),
            "clustered_on": payload["clustered_on"],
            "kind": payload["kind"],
            "ad_buckets": payload["ad_buckets"],
            "hash_buckets": payload["hash_buckets"],
            "records": None if records is None else [encode_record(r) for r in records],
        }
    if event == "define_view":
        return {
            "event": event,
            "definition": encode_definition(payload["definition"]),
            "strategy": payload["strategy"],
            "plan": payload["plan"],
            "index_field": payload["index_field"],
            "refresh_every": payload["refresh_every"],
        }
    if event == "drop_view":
        return {"event": event, "view": payload["view"]}
    if event == "rebuild_view":
        return {"event": event, "view": payload["view"]}
    if event == "migrate":
        return {
            "event": event,
            "view": payload["view"],
            "strategy": payload["strategy"],
            "plan": payload["plan"],
            "index_field": payload["index_field"],
            "refresh_every": payload["refresh_every"],
        }
    raise CodecError(f"unknown journal event {event!r}")


def decode_event(doc: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
    """Inverse of :func:`encode_event`: rebuild the engine objects."""
    event = doc.get("event")
    if event == "txn":
        return event, {"txn": decode_transaction(doc["txn"])}
    if event == "net_install":
        return event, {"relation": doc["relation"]}
    if event == "create_relation":
        records = doc.get("records")
        return event, {
            "schema": decode_schema(doc["schema"]),
            "clustered_on": doc["clustered_on"],
            "kind": doc["kind"],
            "ad_buckets": doc["ad_buckets"],
            "hash_buckets": doc["hash_buckets"],
            "records": None if records is None else [decode_record(r) for r in records],
        }
    if event == "define_view":
        return event, {
            "definition": decode_definition(doc["definition"]),
            "strategy": doc["strategy"],
            "plan": doc["plan"],
            "index_field": doc["index_field"],
            "refresh_every": doc["refresh_every"],
        }
    if event == "drop_view":
        return event, {"view": doc["view"]}
    if event == "rebuild_view":
        return event, {"view": doc["view"]}
    if event == "migrate":
        return event, {
            "view": doc["view"],
            "strategy": doc["strategy"],
            "plan": doc["plan"],
            "index_field": doc["index_field"],
            "refresh_every": doc["refresh_every"],
        }
    raise CodecError(f"unknown journal event {event!r}")
