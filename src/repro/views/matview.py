"""Materialized view storage with duplicate counts (Section 2.1).

Projection can map several base tuples to one view value, so the
stored view keeps a *duplicate count* per distinct tuple: insertion
increments (or creates with count 1), deletion decrements (physically
removing at zero).  The copy is clustered in a B+-tree on the view key
field, matching Section 3.1's access-method table, so refresh I/O and
query scans are costed by the same machinery as any other relation.

:class:`AggregateStateStore` is Model 3's one-block stored aggregate
state: a read is one page read, a refresh one page write.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.bplustree import BPlusTree
from repro.storage.pager import BufferPool
from repro.storage.tuples import Record
from .aggregates import AggregateFunction
from .definition import ViewTuple
from .delta import ChangeSet

__all__ = ["MaterializedView", "AggregateStateStore", "DuplicateCountError"]

_DUP_FIELD = "_dup"


class DuplicateCountError(RuntimeError):
    """A deletion arrived for a view tuple that is not stored."""


def _unpack(record: Record) -> tuple[ViewTuple, int]:
    """A stored record's view tuple and duplicate count, copying its values once."""
    values = record.values.copy()
    dup = values.pop(_DUP_FIELD)
    return ViewTuple._adopt(values), dup


class MaterializedView:
    """Duplicate-counted stored copy of a select-project or join view."""

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        view_key: str,
        records_per_page: int,
        fanout: int = 200,
    ) -> None:
        self.name = name
        self.view_key = view_key
        #: Full-recompute operation counts.  Crash recovery asserts on
        #: these: a deferred view must recover via net-change replay,
        #: never by re-running the view query from scratch.
        self.bulk_loads = 0
        self.rebuilds = 0
        self._tree = BPlusTree(
            f"view.{name}",
            pool,
            sort_key=lambda record: record[view_key],
            records_per_leaf=records_per_page,
            fanout=fanout,
        )

    # ------------------------------------------------------------------
    # loading and maintenance
    # ------------------------------------------------------------------
    def bulk_load(self, tuples: list[ViewTuple]) -> None:
        """Materialize from scratch, folding duplicates into counts."""
        self.bulk_loads += 1
        counts: dict[ViewTuple, int] = {}
        for vt in tuples:
            counts[vt] = counts.get(vt, 0) + 1
        records = [self._record(vt, dup) for vt, dup in counts.items()]
        self._tree.bulk_load(records)

    def rebuild(self, tuples: list[ViewTuple]) -> None:
        """Replace the stored contents wholesale (snapshot refresh).

        Drops every page and bulk-loads the fresh result; the load's
        page writes are charged (they are the rebuild cost).
        """
        self.rebuilds += 1
        self._tree.reset()
        self.bulk_load(tuples)

    def insert_tuple(self, vt: ViewTuple, count: int = 1) -> None:
        """Add ``count`` duplicates of a view tuple."""
        if count < 1:
            raise ValueError(f"insert count must be >= 1, got {count}")
        existing = self._find(vt)
        if existing is None:
            self._tree.insert(self._record(vt, count))
        else:
            self._tree.update(existing, self._record(vt, existing[_DUP_FIELD] + count))

    def delete_tuple(self, vt: ViewTuple, count: int = 1) -> None:
        """Remove ``count`` duplicates, physically deleting at zero."""
        if count < 1:
            raise ValueError(f"delete count must be >= 1, got {count}")
        existing = self._find(vt)
        if existing is None:
            raise DuplicateCountError(f"view {self.name!r} does not contain {vt!r}")
        remaining = existing[_DUP_FIELD] - count
        if remaining < 0:
            raise DuplicateCountError(
                f"view {self.name!r}: duplicate count underflow for {vt!r} "
                f"({existing[_DUP_FIELD]} stored, {count} deleted)"
            )
        if remaining == 0:
            self._tree.delete(existing)
        else:
            self._tree.update(existing, self._record(vt, remaining))

    def apply_changes(self, changes: ChangeSet) -> tuple[int, int]:
        """Apply a signed change multiset; returns (inserted, deleted) counts.

        Batch-native differential apply: each distinct tuple is located
        once and its duplicate count patched in place on the leaf,
        instead of the tuple path's find + delete + reinsert descent
        pair.  The stored bytes and the page set touched are identical
        to applying :meth:`insert_tuple` / :meth:`delete_tuple` item by
        item (the reference spec in ``repro.maintenance.reference``):
        a duplicate-count patch reuses the entry's ``(sort, tiebreak)``
        key, so reinsertion would land at the same leaf index, and a
        delete-then-reinsert never overflows the leaf.
        """
        inserted = deleted = 0
        tree = self._tree
        for vt, signed in changes.items():
            located = self._locate(vt)
            if signed > 0:
                if located is None:
                    tree.insert(self._record(vt, signed))
                else:
                    page, index, existing = located
                    tree.replace_at(
                        page, index, self._record(vt, existing[_DUP_FIELD] + signed)
                    )
                inserted += signed
            else:
                count = -signed
                if located is None:
                    raise DuplicateCountError(
                        f"view {self.name!r} does not contain {vt!r}"
                    )
                page, index, existing = located
                remaining = existing[_DUP_FIELD] - count
                if remaining < 0:
                    raise DuplicateCountError(
                        f"view {self.name!r}: duplicate count underflow for {vt!r} "
                        f"({existing[_DUP_FIELD]} stored, {count} deleted)"
                    )
                if remaining == 0:
                    tree.delete_at(page, index)
                else:
                    tree.replace_at(page, index, self._record(vt, remaining))
                deleted += count
        return inserted, deleted

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def scan_range(self, lo: Any, hi: Any) -> Iterator[ViewTuple]:
        """View tuples with ``lo <= view_key <= hi``, duplicates expanded."""
        for record in self._tree.range_scan(lo, hi):
            vt, dup = _unpack(record)
            for _ in range(dup):
                yield vt

    def read_range(self, lo: Any, hi: Any) -> list[ViewTuple]:
        """Eager range read — the query paths' bulk entry point.

        Same page reads as :meth:`scan_range` (both ride the leaf-chain
        batches); builds the duplicate-expanded result list in one pass
        so callers can charge one bulk ``record_screen(len(result))``
        instead of a call per tuple.
        """
        out: list[ViewTuple] = []
        for records in self._tree.range_batches(lo, hi):
            for record in records:
                vt, dup = _unpack(record)
                if dup == 1:
                    out.append(vt)
                else:
                    out.extend([vt] * dup)
        return out

    def scan_all(self) -> Iterator[ViewTuple]:
        """Every stored view tuple, duplicates expanded."""
        for record in self._tree.scan_all():
            vt, dup = _unpack(record)
            for _ in range(dup):
                yield vt

    def distinct_count(self) -> int:
        """Distinct stored tuples (no I/O charged; catalog statistic)."""
        return len(self._tree)

    def duplicate_count(self, vt: ViewTuple) -> int:
        """Stored duplicate count of one tuple (0 if absent)."""
        existing = self._find(vt)
        return 0 if existing is None else existing[_DUP_FIELD]

    def total_count(self) -> int:
        """Total tuples including duplicates (scans the view)."""
        return sum(record[_DUP_FIELD] for record in self._tree.scan_all())

    @property
    def tree(self) -> BPlusTree:
        """Underlying storage (exposed for stats and tests)."""
        return self._tree

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _record(vt: ViewTuple, dup: int) -> Record:
        return Record(vt.identity(), {**vt.values, _DUP_FIELD: dup})

    def _find(self, vt: ViewTuple) -> Record | None:
        sort_value = vt[self.view_key]
        for record in self._tree.range_scan(sort_value, sort_value):
            if record.key == vt.identity():
                return record
        return None

    def _locate(self, vt: ViewTuple):
        """Find the stored record's leaf position for in-place patching."""
        return self._tree.locate(vt[self.view_key], vt.identity())


class AggregateStateStore:
    """One-page persistent aggregate state (Model 3's stored view)."""

    def __init__(self, name: str, pool: BufferPool, function: AggregateFunction) -> None:
        self.name = name
        self.pool = pool
        self.function = function
        page = pool.disk.allocate(f"agg.{name}", 1)
        page.records.append(function.initial_state())
        pool.put(page, dirty=True)
        pool.flush(page.page_id)
        self._page_id = page.page_id

    def read_state(self) -> dict[str, Any]:
        """Read the state (one page read on a cold buffer)."""
        page = self.pool.get(self._page_id)
        return dict(page.records[0])

    def write_state(self, state: dict[str, Any]) -> None:
        """Persist a new state (one page write)."""
        page = self.pool.get(self._page_id)
        page.records[0] = dict(state)
        self.pool.put(page, dirty=True)

    def value(self) -> Any:
        """Current aggregate value (reads the state page)."""
        return self.function.value(self.read_state())

    def free(self) -> None:
        """Deallocate the state page (catalog drop; no I/O charged)."""
        self.pool.discard(self._page_id)
        self.pool.disk.free(self._page_id)

    def apply(self, entering: list[Any], leaving: list[Any]) -> bool:
        """Fold value changes into the state; returns True if written.

        No write is issued when both change lists are empty — the
        paper's refresh cost is ``c2`` times the probability that at
        least one change touches the aggregated set.
        """
        if not entering and not leaving:
            return False
        state = self.read_state()
        self.function.insert_many(state, entering)
        self.function.delete_many(state, leaving)
        self.write_state(state)
        return True
