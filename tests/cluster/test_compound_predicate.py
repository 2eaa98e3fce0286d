"""A compound-predicate view on a sharded cluster equals its unsharded twin.

Worker specs carry view definitions as codec documents, so any
predicate the engine supports — here ``And(Interval, Comparison)`` and
an ``Or``/``Not`` aggregate qualification — serves on a cluster, and
the merged answers match a single :func:`build_server` over the same
spec across updates, inserts, deletes and a cross-shard move.
"""

import pytest

from repro.cluster.harness import DOMAIN, demo_shard_map, demo_spec
from repro.cluster.router import ClusterRouter
from repro.cluster.worker import build_server
from repro.durability.codec import decode_fields, encode_definition
from repro.engine.transaction import Delete, Insert, Transaction, Update
from repro.storage.tuples import Record
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import (
    AndPredicate,
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    OrPredicate,
)

N_RECORDS = 160
HALF = DOMAIN // 2  # the range boundary between the two shards

SELECTED = SelectProjectView(
    "mid_heavy", "r",
    AndPredicate((
        IntervalPredicate("a", 100, DOMAIN - 101),
        ComparisonPredicate("v", ">=", 40),
    )),
    ("id", "a", "v"), "a",
)
SUMMED = AggregateView(
    "light_or_edge", "r",
    OrPredicate((
        ComparisonPredicate("v", "<", 20),
        NotPredicate(IntervalPredicate("a", 200, DOMAIN - 201)),
    )),
    "sum", "v",
)


def compound_spec(strategy):
    spec = demo_spec(n_records=N_RECORDS, strategy=strategy)
    spec["views"] = [
        {"definition": encode_definition(d), "strategy": strategy, "policy": None}
        for d in (SELECTED, SUMMED)
    ]
    return spec


def rows(answer):
    return sorted(tuple(sorted(vt.values.items())) for vt in answer)


def assert_agree(router, twin):
    for lo, hi in ((None, None), (0, HALF - 1), (HALF - 50, HALF + 50), (300, 1300)):
        assert rows(router.query("mid_heavy", lo, hi)) == rows(
            twin.query("mid_heavy", lo, hi)
        ), (lo, hi)
    assert router.query("light_or_edge") == twin.query("light_or_edge")


@pytest.mark.parametrize("strategy", ["deferred", "immediate"])
def test_compound_predicate_view_matches_unsharded_twin(strategy):
    spec = compound_spec(strategy)
    records = {
        values["id"]: values
        for values in map(decode_fields, spec["relations"][0]["records"])
    }
    mover = next(
        k for k, v in sorted(records.items()) if 150 <= v["a"] < HALF and v["v"] >= 40
    )
    twin = build_server(spec)
    router = ClusterRouter.launch(spec, demo_shard_map(2))
    try:
        # Both clauses bite: the view is a proper, non-empty subset.
        assert 0 < len(router.query("mid_heavy")) < N_RECORDS
        assert_agree(router, twin)
        new_key = N_RECORDS + 7
        batches = [
            # v crosses the Comparison clause both ways.
            [Update(k, {"v": 95 if records[k]["v"] < 40 else 5}) for k in range(0, 40, 3)],
            # inserts on both shards, one inside and one outside the view
            [Insert(Record(new_key, {"id": new_key, "a": 120, "v": 70})),
             Insert(Record(new_key + 1, {"id": new_key + 1, "a": DOMAIN - 10, "v": 3}))],
            # a cross-shard move that also drops the tuple out of the view
            [Update(mover, {"a": HALF + 300, "v": 10})],
            [Delete(new_key), Delete(1), Update(2, {"v": 41})],
        ]
        for ops in batches:
            txn = Transaction.of("r", ops)
            router.apply_update(txn)
            twin.apply_update(txn)
            assert_agree(router, twin)
        moves = router.metrics.counter("cross_shard_moves_total", relation="r").value
        assert moves == 1
        assert router.shard_map.shard_of(HALF + 300) != router.shard_map.shard_of(
            records[mover]["a"]
        )
    finally:
        router.close()
        twin.shutdown()
