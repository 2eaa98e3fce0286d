"""Two-stage screening: rule indexing (t-locks) + satisfiability.

Section 1's screening pipeline, as assumed by the performance
analysis for both immediate and deferred maintenance:

* **Stage 1 — rule indexing** (Stonebraker 1986): the index intervals
  covered by the view predicate's clauses carry *t-locks*.  A modified
  tuple that disturbs no t-locked interval cannot affect the view and
  is rejected implicitly, at essentially no cost.
* **Stage 2 — satisfiability** (Blakeley 1986): tuples that break a
  t-lock are substituted into the view predicate; this CPU test costs
  ``c1`` and may still reject (stage 1 produces "false drops").

Additionally, :func:`repro.views.predicate.is_readily_ignorable`
implements Buneman & Clemons' per-*command* compile-time screen; the
:class:`TwoStageScreen` exposes it so a whole transaction can be
skipped before any per-tuple work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.storage.columnar import ColumnBatch, SelectionVector
from repro.storage.pager import CostMeter
from repro.storage.tuples import Record
from repro.views.predicate import Interval, Predicate, is_readily_ignorable

__all__ = ["TLockIndex", "TwoStageScreen", "ScreenStats"]


class TLockIndex:
    """Trigger-locked index intervals, grouped by field.

    A predicate with no indexable clause registers a *whole-field*
    lock, which conservatively routes every tuple to stage 2.
    """

    def __init__(self) -> None:
        self._intervals: dict[str, list[Interval]] = {}
        self._full_fields: set[str] = set()

    def lock_predicate(self, predicate: Predicate) -> None:
        """Place t-locks for all of a predicate's coverable clauses."""
        intervals = predicate.intervals()
        if not intervals:
            for field in predicate.fields_read() or {"*"}:
                self._full_fields.add(field)
            return
        for interval in intervals:
            self._intervals.setdefault(interval.field, []).append(interval)

    def breaks_lock(self, record: Record) -> bool:
        """Stage 1 test: does this tuple disturb any locked interval?"""
        if "*" in self._full_fields:
            return True
        for field in self._full_fields:
            if field in record.values:
                return True
        for field, intervals in self._intervals.items():
            value = record.get(field)
            if value is None:
                continue
            if any(interval.contains(value) for interval in intervals):
                return True
        return False

    def breaks_lock_batch(
        self, batch: ColumnBatch, selection: SelectionVector | None = None
    ) -> SelectionVector:
        """Stage 1 over a batch: rows that disturb some locked interval.

        Row-for-row equivalent to :meth:`breaks_lock`; evaluated as
        column passes that mark broken rows in a byte mask, testing
        each field only on rows no earlier field already broke.
        """
        indices = range(len(batch)) if selection is None else selection.indices
        if "*" in self._full_fields:
            return SelectionVector(list(indices))
        broke = bytearray(len(batch))
        for field in self._full_fields:
            present = batch.presence(field)
            for i in indices:
                if present[i]:
                    broke[i] = 1
        # Each interval pass skips rows an earlier field already broke
        # (the mask test is cheaper than rebuilding a pending list
        # between fields).
        for field, intervals in self._intervals.items():
            col = batch.column(field)
            if len(intervals) == 1:
                lo, hi = intervals[0].lo, intervals[0].hi
                for i in indices:
                    if not broke[i] and (v := col[i]) is not None and lo <= v <= hi:
                        broke[i] = 1
            else:
                for i in indices:
                    if broke[i]:
                        continue
                    v = col[i]
                    if v is not None and any(iv.contains(v) for iv in intervals):
                        broke[i] = 1
        return SelectionVector([i for i in indices if broke[i]])

    def interval_count(self) -> int:
        """Number of t-locked intervals currently registered."""
        return sum(len(v) for v in self._intervals.values())


@dataclass
class ScreenStats:
    """Counters for screening behaviour (used in tests and reports)."""

    stage1_rejected: int = 0
    stage2_tested: int = 0
    stage2_rejected: int = 0
    passed: int = 0


class TwoStageScreen:
    """Screens modified tuples against one view's predicate.

    ``screen`` returns True when the tuple must be used to refresh the
    view (the paper's "marker").  Stage 2 charges ``c1`` on the shared
    meter; stage 1 is free.
    """

    def __init__(
        self,
        predicate: Predicate,
        meter: CostMeter,
        view_fields_read: frozenset[str] | None = None,
    ) -> None:
        self.predicate = predicate
        self.meter = meter
        #: Fields the *whole view definition* reads (predicate +
        #: projection + join field); defaults to the predicate's own
        #: read set when the caller has no richer definition.
        self.view_fields_read = (
            view_fields_read if view_fields_read is not None else predicate.fields_read()
        )
        self.tlocks = TLockIndex()
        self.tlocks.lock_predicate(predicate)
        self.stats = ScreenStats()

    def screen(self, record: Record) -> bool:
        """Two-stage per-tuple test; True = tuple gets a view marker."""
        if not self.tlocks.breaks_lock(record):
            self.stats.stage1_rejected += 1
            return False
        self.meter.record_screen()
        self.stats.stage2_tested += 1
        if self.predicate.matches(record):
            self.stats.passed += 1
            return True
        self.stats.stage2_rejected += 1
        return False

    def screen_batch(self, batch: ColumnBatch | Iterable[Record]) -> list[Record]:
        """Screen a whole batch, returning the marked tuples.

        This is the engine's single batch-native screening entry point.
        Stage 1 runs as column passes (free, as per tuple); stage 2
        charges ``c1`` *per stage-2-tested row* in one bulk
        ``record_screen(n)`` — identical totals, and identical
        :class:`ScreenStats` counters, to screening each record with
        :meth:`screen` (the per-record method remains the executable
        specification, asserted by the property suite).
        """
        if not isinstance(batch, ColumnBatch):
            records = batch if isinstance(batch, (list, tuple)) else list(batch)
            batch = ColumnBatch.from_records(records)
        total = len(batch)
        if total == 0:
            return []
        broke = self.tlocks.breaks_lock_batch(batch)
        tested = len(broke.indices)
        self.stats.stage1_rejected += total - tested
        if tested == 0:
            return []
        self.meter.record_screen(tested)
        self.stats.stage2_tested += tested
        passed = self.predicate.matches_batch(batch, broke)
        self.stats.passed += len(passed.indices)
        self.stats.stage2_rejected += tested - len(passed.indices)
        return batch.take(passed)

    def transaction_is_riu(self, written_fields: Iterable[str]) -> bool:
        """Compile-time RIU check for a whole command.

        ``True`` means no tuple of the transaction can affect the view,
        so per-tuple screening is skipped entirely (Buneman-Clemons).
        A transaction writing the wildcard ``"*"`` (deletions of
        unknown tuples) is never readily ignorable.
        """
        fields = set(written_fields)
        if "*" in fields:
            return False
        return is_readily_ignorable(fields, self.view_fields_read)
