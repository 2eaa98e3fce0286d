"""One wire codec: every engine object survives every transport unchanged.

The codec documents travel in RPC frames (worker specs, shard updates,
replication deltas, gateway ops) and in WAL lines.  Hypothesis draws
values of every shape, predicates of every class, all three definition
types and all three operation kinds, and checks that each one comes
back from codec -> frame -> codec and from a WAL append/replay with
the same types all the way down (a tuple stays a tuple, ``1`` never
becomes ``1.0`` or ``True``).
"""

import dataclasses
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.rpc import HEADER_BYTES, decode_payload, frame_length, pack_frame
from repro.core.strategies import Strategy
from repro.durability import codec
from repro.durability.faults import ENGINE_CONFIG, build_database, make_workload
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Record
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
    TruePredicate,
)


def shape(obj):
    """A type-strict structural fingerprint (``==`` alone equates 1, 1.0, True)."""
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [shape(v) for v in obj])
    if isinstance(obj, Record):
        return ("Record", shape(obj.key), {f: shape(v) for f, v in obj.values.items()})
    if isinstance(obj, dict):
        return ("dict", {k: shape(v) for k, v in obj.items()})
    if isinstance(obj, TruePredicate):
        return ("TruePredicate",)
    if dataclasses.is_dataclass(obj):
        return (
            type(obj).__name__,
            {f.name: shape(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        )
    return (type(obj).__name__, obj)


FIELDS = st.sampled_from(("a", "b", "id", "v", "key", "values", "t"))
NAMES = st.sampled_from(("r", "s", "by_a", "total"))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
    ),
    max_leaves=12,
)
keys = st.one_of(
    st.integers(), st.text(max_size=6), st.tuples(st.integers(), st.text(max_size=4))
)
field_maps = st.dictionaries(FIELDS, values, max_size=4)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(st.integers(), min_size=2, max_size=2)))
    selectivity = draw(st.none() | st.floats(min_value=0.0, max_value=1.0))
    return IntervalPredicate(draw(FIELDS), lo, hi, selectivity)


leaf_predicates = st.one_of(
    st.just(TruePredicate()),
    intervals(),
    st.builds(
        ComparisonPredicate,
        FIELDS,
        st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
        values,
    ),
)
predicates = st.recursive(
    leaf_predicates,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda c: AndPredicate(tuple(c))),
        st.lists(inner, min_size=1, max_size=3).map(lambda c: OrPredicate(tuple(c))),
        inner.map(NotPredicate),
    ),
    max_leaves=6,
)


@st.composite
def definitions(draw):
    kind = draw(st.sampled_from(("select_project", "join", "aggregate")))
    name, predicate = draw(NAMES), draw(predicates)
    if kind == "select_project":
        projection = tuple(draw(st.lists(FIELDS, min_size=1, max_size=3, unique=True)))
        return SelectProjectView(
            name, draw(NAMES), predicate, projection, draw(st.sampled_from(projection))
        )
    if kind == "join":
        return JoinView(name, "r", "s", "j", predicate, ("j", "a"), ("b",), "a")
    return AggregateView(
        name, draw(NAMES), predicate,
        draw(st.sampled_from(("count", "sum", "avg", "min", "max"))), draw(FIELDS),
    )


operations = st.one_of(
    st.builds(lambda k, v: Insert(Record(k, v)), keys, field_maps),
    st.builds(Delete, keys),
    st.builds(Update, keys, st.dictionaries(FIELDS, values, min_size=1, max_size=3)),
)
transactions = st.builds(
    lambda relation, ops: Transaction(relation, tuple(ops)),
    NAMES,
    st.lists(operations, min_size=1, max_size=5),
)


def over_the_wire(doc):
    """One trip through the frame codec every transport shares."""
    frame = pack_frame({"doc": doc})
    assert frame_length(frame[:HEADER_BYTES]) == len(frame) - HEADER_BYTES
    return decode_payload(frame[HEADER_BYTES:])["doc"]


class TestFrameRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(values)
    def test_values(self, value):
        assert shape(codec.decode_value(over_the_wire(codec.encode_value(value)))) == shape(value)

    @settings(max_examples=60, deadline=None)
    @given(predicates)
    def test_predicates(self, predicate):
        doc = over_the_wire(codec.encode_predicate(predicate))
        assert shape(codec.decode_predicate(doc)) == shape(predicate)

    @settings(max_examples=60, deadline=None)
    @given(definitions())
    def test_definitions(self, definition):
        doc = over_the_wire(codec.encode_definition(definition))
        assert shape(codec.decode_definition(doc)) == shape(definition)

    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_operations(self, op):
        doc = over_the_wire(codec.encode_operation(op))
        assert doc["kind"] in ("insert", "update", "delete")
        assert shape(codec.decode_operation(doc)) == shape(op)

    @settings(max_examples=60, deadline=None)
    @given(field_maps)
    def test_field_maps(self, fields):
        doc = over_the_wire(codec.encode_fields(fields))
        assert shape(codec.decode_fields(doc)) == shape(fields)


class TestWalRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(transactions, definitions())
    def test_append_replay(self, txn, definition):
        define = {
            "definition": definition, "strategy": "deferred", "plan": None,
            "index_field": None, "refresh_every": None,
        }
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(directory)
            wal.log("txn", {"txn": txn})
            wal.log("define_view", define)
            wal.close()
            replayed = [codec.decode_event(doc) for doc in WriteAheadLog(directory).replay()]
        assert [event for event, _ in replayed] == ["txn", "define_view"]
        assert shape(replayed[0][1]["txn"]) == shape(txn)
        assert shape(replayed[1][1]["definition"]) == shape(definition)


def test_wal_with_parent_op_tags_fails_loudly(tmp_path):
    """Operation docs once carried an ``"op"`` tag; replay must refuse
    them with a CodecError rather than skip the transaction."""
    current = DurabilityManager(tmp_path / "current")
    current.save_config(ENGINE_CONFIG)
    db = build_database(Strategy.DEFERRED, current)
    for txn in make_workload(3, 4):
        db.apply_transaction(txn)
    current.close()

    legacy = DurabilityManager(tmp_path / "legacy")
    legacy.save_config(ENGINE_CONFIG)
    retagged = 0
    for doc in current.wal.replay():
        if doc["event"] == "txn":
            for op in doc["txn"]["operations"]:
                op["op"] = op.pop("kind")
                retagged += 1
        legacy.wal.append(doc)
    legacy.close()
    assert retagged > 0

    with pytest.raises(codec.CodecError, match="unknown operation kind None"):
        DurabilityManager(tmp_path / "legacy").open()
