"""Simulated disk, buffer pool and cost accounting.

The paper prices every strategy in disk I/Os (``c2`` each) plus CPU
screening (``c1``) and A/D-set bookkeeping (``c3``).  The substrate in
this package executes the strategies for real against a page-granular
simulated disk; :class:`CostMeter` counts the same four event classes
the formulas count, and converts them to milliseconds with the same
constants, so measured and analytic costs are directly comparable.

A page holds records (``T = B/S`` per page, as in the paper); the
buffer pool is an LRU cache over pages with pinning support (the
nested-loop join pins inner-relation pages, Section 3.4.3).
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.parameters import Parameters

__all__ = [
    "PageId",
    "Page",
    "SimulatedDisk",
    "BufferPool",
    "CostMeter",
    "PageOverflowError",
    "PageChecksumError",
    "page_checksum",
]


class PageOverflowError(RuntimeError):
    """A record was added to a page that is already at capacity."""


class PageChecksumError(RuntimeError):
    """A page image read from disk does not match its stored checksum.

    Raised by :meth:`SimulatedDisk.read` when ``verify_reads`` is on and
    the at-rest image has diverged from the checksum of the image last
    written — the simulated equivalent of detecting bit-rot or a torn
    write via a page-header CRC.
    """

    def __init__(self, page_id: "PageId", detail: str = "checksum mismatch") -> None:
        super().__init__(f"{detail} on page {page_id}")
        self.page_id = page_id
        self.detail = detail


def page_checksum(page: "Page") -> int:
    """CRC32 over a page's logical content (records + successor link).

    Records are hashed via ``repr`` so the checksum covers exactly what
    :meth:`Page.clone` persists; any in-place mutation of the stored
    image (simulated bit-rot) or truncation (torn write) changes it.
    """
    payload = repr((page.records, page.next_page)).encode("utf-8", "replace")
    return zlib.crc32(payload)


@dataclass(frozen=True)
class PageId:
    """Identifies one disk page: a file name plus a page number."""

    file: str
    number: int

    def __str__(self) -> str:
        return f"{self.file}:{self.number}"


class Page:
    """A disk page holding up to ``capacity`` records.

    Records are arbitrary Python objects; files impose their own layout
    (sorted for B+-tree leaves, unordered for heaps and hash buckets).
    """

    __slots__ = ("page_id", "capacity", "records", "next_page")

    def __init__(self, page_id: PageId, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.records: list[Any] = []
        #: Optional link to a successor page (leaf chains, bucket chains).
        self.next_page: PageId | None = None

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.records

    def add(self, record: Any) -> None:
        """Append a record; raises :class:`PageOverflowError` when full."""
        if self.is_full:
            raise PageOverflowError(f"page {self.page_id} is full ({self.capacity})")
        self.records.append(record)

    def clone(self) -> "Page":
        """Shallow copy used by the disk to model a persisted image."""
        copy = Page(self.page_id, self.capacity)
        copy.records = list(self.records)
        copy.next_page = self.next_page
        return copy


@dataclass
class CostMeter:
    """Counts the cost events the paper's formulas price.

    * ``page_reads`` / ``page_writes`` — ``c2`` each.
    * ``screens`` — predicate/satisfiability CPU tests, ``c1`` each.
    * ``ad_ops`` — per-tuple A/D in-memory set manipulations, ``c3``
      each (only immediate maintenance generates these).

    Checkpoints (:meth:`snapshot` / :meth:`delta_since`) let callers
    price individual phases (one query, one refresh) in isolation.

    Setup work (initial bulk loads, view materialization) is charged
    to a separate **setup bucket** while a :meth:`setup_phase` context
    is active, so it never leaks into the first query's metered cost.
    The paper excludes initial materialization from per-query costs;
    the bucket makes that exclusion structural instead of relying on
    every caller remembering to :meth:`reset`.
    """

    page_reads: int = 0
    page_writes: int = 0
    screens: int = 0
    ad_ops: int = 0
    #: Setup-bucket counters: same event classes, charged during an
    #: active :meth:`setup_phase` (bulk loads, initial materialization).
    setup_page_reads: int = 0
    setup_page_writes: int = 0
    setup_screens: int = 0
    setup_ad_ops: int = 0
    #: Depth of nested :meth:`setup_phase` contexts (>0 = diverting).
    _setup_depth: int = 0

    def record_read(self, count: int = 1) -> None:
        """Count disk page reads (c2 each)."""
        if self._setup_depth:
            self.setup_page_reads += count
        else:
            self.page_reads += count

    def record_write(self, count: int = 1) -> None:
        """Count disk page writes (c2 each)."""
        if self._setup_depth:
            self.setup_page_writes += count
        else:
            self.page_writes += count

    def record_screen(self, count: int = 1) -> None:
        """Count predicate/satisfiability CPU tests (c1 each)."""
        if self._setup_depth:
            self.setup_screens += count
        else:
            self.screens += count

    def record_ad_op(self, count: int = 1) -> None:
        """Count in-memory A/D set manipulations (c3 each)."""
        if self._setup_depth:
            self.setup_ad_ops += count
        else:
            self.ad_ops += count

    @contextmanager
    def setup_phase(self) -> Iterator["CostMeter"]:
        """Divert recorded events to the setup bucket while active.

        Nests safely (the outermost context controls the bucket), so a
        bulk load inside a view definition charges setup exactly once.
        """
        self._setup_depth += 1
        try:
            yield self
        finally:
            self._setup_depth -= 1

    @property
    def setup_page_ios(self) -> int:
        return self.setup_page_reads + self.setup_page_writes

    def setup_milliseconds(self, params: Parameters) -> float:
        """Setup-bucket cost in ms under the parameter set's constants."""
        return (
            params.c2 * self.setup_page_ios
            + params.c1 * self.setup_screens
            + params.c3 * self.setup_ad_ops
        )

    def charge_setup_to_workload(self) -> None:
        """Fold the setup bucket into the workload counters (and clear it).

        Used when a caller explicitly wants setup I/O priced like
        request work (``ViewServer.register_view(charge_setup=True)``).
        """
        self.page_reads += self.setup_page_reads
        self.page_writes += self.setup_page_writes
        self.screens += self.setup_screens
        self.ad_ops += self.setup_ad_ops
        self.clear_setup()

    def clear_setup(self) -> None:
        """Zero the setup bucket only."""
        self.setup_page_reads = 0
        self.setup_page_writes = 0
        self.setup_screens = 0
        self.setup_ad_ops = 0

    @property
    def page_ios(self) -> int:
        return self.page_reads + self.page_writes

    def milliseconds(self, params: Parameters) -> float:
        """Total cost in ms under the parameter set's constants."""
        return (
            params.c2 * self.page_ios
            + params.c1 * self.screens
            + params.c3 * self.ad_ops
        )

    def snapshot(self) -> "CostMeter":
        """Immutable-ish copy of the current counters."""
        return CostMeter(
            page_reads=self.page_reads,
            page_writes=self.page_writes,
            screens=self.screens,
            ad_ops=self.ad_ops,
            setup_page_reads=self.setup_page_reads,
            setup_page_writes=self.setup_page_writes,
            setup_screens=self.setup_screens,
            setup_ad_ops=self.setup_ad_ops,
        )

    def delta_since(self, earlier: "CostMeter") -> "CostMeter":
        """Counters accumulated since an earlier snapshot."""
        return CostMeter(
            page_reads=self.page_reads - earlier.page_reads,
            page_writes=self.page_writes - earlier.page_writes,
            screens=self.screens - earlier.screens,
            ad_ops=self.ad_ops - earlier.ad_ops,
            setup_page_reads=self.setup_page_reads - earlier.setup_page_reads,
            setup_page_writes=self.setup_page_writes - earlier.setup_page_writes,
            setup_screens=self.setup_screens - earlier.setup_screens,
            setup_ad_ops=self.setup_ad_ops - earlier.setup_ad_ops,
        )

    def diff(self, earlier: "CostMeter") -> "CostMeter":
        """Counters accumulated since an earlier snapshot.

        Alias of :meth:`delta_since` with the argument order spelled
        the way request-attribution code reads:
        ``meter.diff(before)``.
        """
        return self.delta_since(earlier)

    def merge(self, other: "CostMeter") -> "CostMeter":
        """Accumulate another meter's counts into this one.

        Lets per-phase accounting fold request deltas into a bucket
        meter (``query_meter.merge(meter.diff(before))``) without
        re-recording each event class by hand.  Returns ``self`` so
        merges chain.
        """
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.screens += other.screens
        self.ad_ops += other.ad_ops
        self.setup_page_reads += other.setup_page_reads
        self.setup_page_writes += other.setup_page_writes
        self.setup_screens += other.setup_screens
        self.setup_ad_ops += other.setup_ad_ops
        return self

    def reset(self) -> None:
        """Zero every counter (both the workload and setup buckets)."""
        self.page_reads = 0
        self.page_writes = 0
        self.screens = 0
        self.ad_ops = 0
        self.clear_setup()


class SimulatedDisk:
    """Page store with read/write counting.

    Pages live in a dict keyed by :class:`PageId`.  Reads return a
    *clone* so in-memory mutation without a write-back is visible as a
    bug (lost update) rather than silently persisted — the same
    discipline a real page cache enforces.

    Checksums are pinned lazily.  ``write``/``allocate`` leave a page's
    checksum pending; it is computed from the stored image the first
    time something needs it — a verified read, :meth:`verify`, or
    :meth:`corrupt` just before it damages the image.  A stored image
    changes only through a write (which re-arms the pending state) or
    through injected damage (which pins first), so a checksum pinned
    late equals the one an eager write would have recorded.
    """

    def __init__(self, meter: CostMeter | None = None) -> None:
        self.meter = meter if meter is not None else CostMeter()
        self._pages: dict[PageId, Page] = {}
        #: Pinned checksums; an allocated page absent here is pending.
        self._checksums: dict[PageId, int] = {}
        #: file -> its page ids in allocation (= page number) order;
        #: a file whose pages were all freed keeps an empty entry.
        self._files: dict[str, dict[PageId, None]] = {}
        self._next_number: dict[str, Iterator[int]] = {}
        #: When true, every :meth:`read` verifies the page checksum and
        #: raises :class:`PageChecksumError` on a mismatch.  Off by
        #: default: the clean substrate cannot rot, so the paper's cost
        #: experiments skip the (pure-CPU) verification.
        self.verify_reads = False

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def page_count(self, file: str) -> int:
        """Number of allocated pages in one file."""
        return len(self._files.get(file, ()))

    def files(self) -> list[str]:
        """Every file name with at least one allocated page, sorted."""
        # list() snapshots the items atomically under the GIL; bare
        # iteration races a concurrent allocate() of a new file.
        return sorted(file for file, pids in list(self._files.items()) if pids)

    def allocate(self, file: str, capacity: int) -> Page:
        """Allocate a fresh page in ``file`` (no I/O is charged)."""
        counter = self._next_number.setdefault(file, itertools.count())
        page_id = PageId(file, next(counter))
        page = Page(page_id, capacity)
        self._pages[page_id] = page
        self._files.setdefault(file, {})[page_id] = None
        return page.clone()

    def read(self, page_id: PageId) -> Page:
        """Fetch a page image from disk, charging one read.

        With ``verify_reads`` enabled the stored image is checked
        against its checksum first; damaged pages raise
        :class:`PageChecksumError` instead of silently serving rot.
        """
        try:
            stored = self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None
        self.meter.record_read()
        if self.verify_reads and not self._intact(page_id):
            raise PageChecksumError(page_id)
        return stored.clone()

    def write(self, page: Page) -> None:
        """Persist a page image, charging one write."""
        page_id = page.page_id
        if page_id not in self._pages:
            raise KeyError(f"cannot write unallocated page: {page_id}")
        self.meter.record_write()
        self._pages[page_id] = page.clone()
        self._checksums.pop(page_id, None)

    def free(self, page_id: PageId) -> None:
        """Deallocate a page (no I/O charged, mirroring the paper)."""
        self._pages.pop(page_id, None)
        self._checksums.pop(page_id, None)
        self._files.get(page_id.file, {}).pop(page_id, None)

    def file_pages(self, file: str) -> list[PageId]:
        """All page ids of a file, in allocation order."""
        return list(self._files.get(file, ()))

    def verify(self, page_id: PageId) -> str | None:
        """Check one page's at-rest integrity without raising.

        Charges one read (the scrubber pays for its walk) and returns
        ``None`` when the stored image matches its checksum, otherwise
        a short description of the damage.  Unlike :meth:`read` this
        never raises, so an integrity scrub can keep walking past
        damaged pages and report them all.
        """
        if page_id not in self._pages:
            return "missing"
        self.meter.record_read()
        return None if self._intact(page_id) else "checksum mismatch"

    def corrupt(self, page_id: PageId, *, drop_records: int = 1) -> str | None:
        """Damage the stored image *in place* without updating its checksum.

        Models at-rest bit-rot: the next verified read (or scrub) of the
        page detects the divergence.  Returns a description of the
        damage applied, or ``None`` when the page is already damaged or
        unallocated (re-rotting an already-rotten page is a no-op so
        injection counters stay honest).
        """
        stored = self._pages.get(page_id)
        if stored is None or not self._intact(page_id):
            return None
        if stored.records:
            dropped = min(max(drop_records, 1), len(stored.records))
            del stored.records[:dropped]
            return f"dropped {dropped} record(s)"
        stored.next_page = PageId(page_id.file, page_id.number + 1_000_003)
        return "scrambled successor link"

    def _intact(self, page_id: PageId) -> bool:
        """Whether the stored image matches its checksum.

        A pending checksum is pinned from the stored image here, and so
        matches: the image is still the one last written.
        """
        stored = self._pages[page_id]
        pinned = self._checksums.get(page_id)
        if pinned is None:
            self._checksums[page_id] = page_checksum(stored)
            return True
        return page_checksum(stored) == pinned


class BufferPool:
    """LRU page cache in front of a :class:`SimulatedDisk`.

    Only *misses* cost disk reads; dirty pages cost one write when
    flushed (write-back).  ``pin``/``unpin`` keep hot pages resident —
    the paper's nested-loop join assumes the inner relation stays
    buffered after first touch.
    """

    def __init__(self, disk: SimulatedDisk, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"buffer pool capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[PageId, Page] = OrderedDict()
        self._dirty: set[PageId] = set()
        self._pinned: set[PageId] = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, page_id: PageId) -> Page:
        """Return the buffered page, reading from disk on a miss."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        page = self.disk.read(page_id)
        self._admit(page)
        return page

    def put(self, page: Page, dirty: bool = True) -> None:
        """Install (or refresh) a page image in the pool."""
        if page.page_id in self._frames:
            self._frames[page.page_id] = page
            self._frames.move_to_end(page.page_id)
        else:
            self._admit(page)
        if dirty:
            self._dirty.add(page.page_id)

    def mark_dirty(self, page_id: PageId) -> None:
        """Flag a buffered page as modified (flushed on eviction)."""
        if page_id not in self._frames:
            raise KeyError(f"cannot dirty a page not in the pool: {page_id}")
        self._dirty.add(page_id)

    def pin(self, page_id: PageId) -> None:
        """Keep a page resident until unpinned (it must be buffered)."""
        if page_id not in self._frames:
            self.get(page_id)
        self._pinned.add(page_id)

    def unpin(self, page_id: PageId) -> None:
        """Release one pinned page."""
        self._pinned.discard(page_id)

    def unpin_all(self) -> None:
        """Release every pin (end of a join)."""
        self._pinned.clear()

    def flush(self, page_id: PageId) -> None:
        """Write one dirty page back to disk."""
        if page_id in self._dirty:
            self.disk.write(self._frames[page_id])
            self._dirty.discard(page_id)

    def flush_all(self) -> None:
        """Write every dirty page back to disk."""
        for page_id in list(self._dirty):
            self.flush(page_id)

    def discard(self, page_id: PageId) -> None:
        """Drop a frame without flushing (for pages being deallocated)."""
        self._frames.pop(page_id, None)
        self._dirty.discard(page_id)
        self._pinned.discard(page_id)

    def invalidate_all(self) -> None:
        """Drop every (clean) frame; dirty pages are flushed first."""
        self.flush_all()
        self._frames.clear()
        self._pinned.clear()

    def _admit(self, page: Page) -> None:
        while len(self._frames) >= self.capacity:
            victim_id = self._next_victim()
            if victim_id is None:
                # Everything is pinned; allow the pool to grow rather
                # than deadlock — mirrors the paper's large-memory
                # assumption for the nested-loop inner relation.
                break
            self.flush(victim_id)
            del self._frames[victim_id]
        self._frames[page.page_id] = page

    def _next_victim(self) -> PageId | None:
        for page_id in self._frames:
            if page_id not in self._pinned:
                return page_id
        return None
