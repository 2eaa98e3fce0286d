"""Two-stage screening: t-locks + satisfiability + RIU."""

import pytest

from repro.maintenance.screening import TLockIndex, TwoStageScreen
from repro.storage.pager import CostMeter
from repro.storage.tuples import Schema
from repro.views.predicate import (
    ComparisonPredicate,
    IntervalPredicate,
    NotPredicate,
    TruePredicate,
)

SCHEMA = Schema("r", ("id", "a", "b"), "id")


def rec(a=0, b=0, i=1):
    return SCHEMA.new_record(id=i, a=a, b=b)


class TestTLockIndex:
    def test_interval_lock_hits_inside(self):
        locks = TLockIndex()
        locks.lock_predicate(IntervalPredicate("a", 10, 20))
        assert locks.breaks_lock(rec(a=15))
        assert not locks.breaks_lock(rec(a=25))

    def test_multiple_intervals(self):
        locks = TLockIndex()
        locks.lock_predicate(IntervalPredicate("a", 0, 5))
        locks.lock_predicate(IntervalPredicate("a", 10, 15))
        assert locks.breaks_lock(rec(a=3))
        assert locks.breaks_lock(rec(a=12))
        assert not locks.breaks_lock(rec(a=7))
        assert locks.interval_count() == 2

    def test_uncoverable_predicate_locks_whole_field(self):
        locks = TLockIndex()
        locks.lock_predicate(ComparisonPredicate("a", "<", 5))
        assert locks.breaks_lock(rec(a=100))  # conservative

    def test_fieldless_predicate_locks_everything(self):
        locks = TLockIndex()
        locks.lock_predicate(TruePredicate())
        assert locks.breaks_lock(rec())

    def test_missing_field_does_not_break_interval_lock(self):
        other = Schema("s", ("id", "z"), "id")
        locks = TLockIndex()
        locks.lock_predicate(IntervalPredicate("a", 0, 5))
        assert not locks.breaks_lock(other.new_record(id=1, z=3))


class TestTwoStageScreen:
    def test_stage1_rejection_is_free(self):
        meter = CostMeter()
        screen = TwoStageScreen(IntervalPredicate("a", 0, 9), meter)
        assert not screen.screen(rec(a=50))
        assert meter.screens == 0
        assert screen.stats.stage1_rejected == 1

    def test_stage2_pass_charges_c1(self):
        meter = CostMeter()
        screen = TwoStageScreen(IntervalPredicate("a", 0, 9), meter)
        assert screen.screen(rec(a=5))
        assert meter.screens == 1
        assert screen.stats.passed == 1

    def test_false_drop_charged_then_rejected(self):
        """A tuple breaking the t-lock can still fail satisfiability."""
        meter = CostMeter()
        predicate = IntervalPredicate("a", 0, 9) & ComparisonPredicate("b", "==", 1)
        screen = TwoStageScreen(predicate, meter)
        # b==1 yields a point t-lock on b; a-in-range breaks the a-lock.
        assert not screen.screen(rec(a=5, b=2))
        assert meter.screens == 1
        assert screen.stats.stage2_rejected == 1

    def test_screen_batch_returns_marked(self):
        screen = TwoStageScreen(IntervalPredicate("a", 0, 9), CostMeter())
        records = [rec(a=5, i=1), rec(a=50, i=2), rec(a=7, i=3)]
        assert [r.key for r in screen.screen_batch(records)] == [1, 3]

    def test_riu_with_definition_fields(self):
        screen = TwoStageScreen(
            IntervalPredicate("a", 0, 9), CostMeter(),
            view_fields_read=frozenset({"a", "id"}),
        )
        assert screen.transaction_is_riu({"b"})
        assert not screen.transaction_is_riu({"a"})
        assert not screen.transaction_is_riu({"id", "b"})

    def test_riu_wildcard_never_ignorable(self):
        screen = TwoStageScreen(IntervalPredicate("a", 0, 9), CostMeter())
        assert not screen.transaction_is_riu({"*"})

    def test_riu_defaults_to_predicate_fields(self):
        screen = TwoStageScreen(IntervalPredicate("a", 0, 9), CostMeter())
        assert screen.transaction_is_riu({"b"})
        assert not screen.transaction_is_riu({"a"})
