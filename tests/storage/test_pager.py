"""Simulated disk, buffer pool and cost meter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import PAPER_DEFAULTS
from repro.storage import pager
from repro.storage.hashindex import HashFile
from repro.storage.pager import (
    BufferPool,
    CostMeter,
    Page,
    PageId,
    PageChecksumError,
    PageOverflowError,
    SimulatedDisk,
)
from repro.storage.tuples import Schema


@pytest.fixture
def disk():
    return SimulatedDisk(CostMeter())


class TestPage:
    def test_capacity_enforced(self):
        page = Page(PageId("f", 0), capacity=2)
        page.add(1)
        page.add(2)
        with pytest.raises(PageOverflowError):
            page.add(3)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Page(PageId("f", 0), capacity=0)

    def test_clone_is_independent(self):
        page = Page(PageId("f", 0), capacity=4)
        page.add("x")
        clone = page.clone()
        clone.add("y")
        assert page.records == ["x"]
        assert clone.records == ["x", "y"]


class TestDisk:
    def test_allocate_assigns_sequential_numbers(self, disk):
        a = disk.allocate("f", 4)
        b = disk.allocate("f", 4)
        assert (a.page_id.number, b.page_id.number) == (0, 1)

    def test_allocation_charges_no_io(self, disk):
        disk.allocate("f", 4)
        assert disk.meter.page_ios == 0

    def test_read_charges_one_io(self, disk):
        page = disk.allocate("f", 4)
        disk.read(page.page_id)
        assert disk.meter.page_reads == 1

    def test_write_charges_one_io(self, disk):
        page = disk.allocate("f", 4)
        disk.write(page)
        assert disk.meter.page_writes == 1

    def test_read_unknown_page_raises(self, disk):
        with pytest.raises(KeyError):
            disk.read(PageId("nope", 0))

    def test_write_unallocated_page_raises(self, disk):
        with pytest.raises(KeyError):
            disk.write(Page(PageId("nope", 0), 4))

    def test_read_returns_persisted_image(self, disk):
        page = disk.allocate("f", 4)
        page.add("x")
        disk.write(page)
        fetched = disk.read(page.page_id)
        assert fetched.records == ["x"]

    def test_unwritten_mutation_is_lost(self, disk):
        """Reads return clones: mutating without write-back must not persist."""
        page = disk.allocate("f", 4)
        disk.write(page)
        image = disk.read(page.page_id)
        image.add("sneaky")
        assert disk.read(page.page_id).records == []

    def test_file_pages_sorted(self, disk):
        for _ in range(3):
            disk.allocate("f", 4)
        disk.allocate("g", 4)
        assert [p.number for p in disk.file_pages("f")] == [0, 1, 2]
        assert disk.page_count("f") == 3
        assert disk.page_count("g") == 1

    def test_free_removes_page(self, disk):
        page = disk.allocate("f", 4)
        disk.free(page.page_id)
        assert page.page_id not in disk


def _scanned_pages(disk, file):
    """Brute-force reference for the per-file page index."""
    return sorted((pid for pid in disk._pages if pid.file == file),
                  key=lambda pid: pid.number)


_CATALOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from(["f", "g", "h.hash"])),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("truncate"), st.just(0)),
    ),
    max_size=60,
)


class TestPageCatalog:
    """file_pages/page_count/files come from an index, not a page scan."""

    @given(ops=_CATALOG_OPS)
    @settings(max_examples=80, deadline=None)
    def test_index_matches_a_full_scan_after_every_step(self, ops):
        disk = SimulatedDisk(CostMeter())
        pool = BufferPool(disk, capacity=8)
        schema = Schema("r", ("j", "c"), "j")
        hashed = HashFile("x", pool, hash_key=lambda r: r["j"],
                          records_per_page=2, buckets=3)
        allocated = []
        for op, arg in ops:
            if op == "allocate":
                allocated.append(disk.allocate(arg, 4).page_id)
            elif op == "free" and allocated:
                disk.free(allocated.pop(arg % len(allocated)))
            elif op == "insert":
                hashed.insert(schema.new_record(j=arg, c=0))
            elif op == "truncate":
                hashed.truncate()
            files = sorted({pid.file for pid in disk._pages})
            assert disk.files() == files
            for file in files + ["never-allocated"]:
                assert disk.file_pages(file) == _scanned_pages(disk, file)
                assert disk.page_count(file) == len(_scanned_pages(disk, file))

    def test_free_of_unknown_page_is_a_noop(self, disk):
        page = disk.allocate("f", 4)
        disk.free(PageId("f", 99))
        disk.free(PageId("nope", 0))
        disk.free(page.page_id)
        disk.free(page.page_id)
        assert disk.files() == []
        assert disk.page_count("f") == 0


class TestChecksums:
    def write_one(self, disk, records=("x", "y")):
        page = disk.allocate("f", 4)
        for record in records:
            page.add(record)
        disk.write(page)
        return page

    def test_checksum_sensitive_to_records_and_links(self):
        from repro.storage.pager import page_checksum

        page = Page(PageId("f", 0), capacity=4)
        page.add("x")
        base = page_checksum(page)
        page.add("y")
        grown = page_checksum(page)
        assert grown != base
        page.records = page.records[:1]  # truncation detected
        assert page_checksum(page) == base
        page.next_page = 7  # chain pointer is covered too
        assert page_checksum(page) != base

    def test_verify_reads_off_by_default_serves_rot_silently(self, disk):
        page = self.write_one(disk)
        assert disk.corrupt(page.page_id) is not None
        assert not disk.verify_reads
        damaged = disk.read(page.page_id)  # silently wrong
        assert damaged.records != page.records

    def test_verified_read_raises_on_rot(self, disk):
        from repro.storage.pager import PageChecksumError

        page = self.write_one(disk)
        disk.corrupt(page.page_id)
        disk.verify_reads = True
        with pytest.raises(PageChecksumError):
            disk.read(page.page_id)

    def test_verify_reports_without_raising(self, disk):
        page = self.write_one(disk)
        assert disk.verify(page.page_id) is None  # intact
        disk.corrupt(page.page_id)
        assert disk.verify(page.page_id) == "checksum mismatch"
        assert disk.verify(PageId("nope", 0)) == "missing"

    def test_rewrite_heals_checksum(self, disk):
        page = self.write_one(disk)
        disk.corrupt(page.page_id)
        disk.write(page)  # a fresh write records a fresh checksum
        assert disk.verify(page.page_id) is None
        disk.verify_reads = True
        assert disk.read(page.page_id).records == page.records

    def test_corrupt_is_noop_on_damaged_or_unallocated(self, disk):
        page = self.write_one(disk)
        assert disk.corrupt(page.page_id) is not None
        assert disk.corrupt(page.page_id) is None  # already damaged
        assert disk.corrupt(PageId("nope", 0)) is None

    def test_corrupt_scrambles_empty_pages_via_link(self, disk):
        page = disk.allocate("f", 4)
        disk.write(page)  # no records: damage must hit next_page instead
        assert disk.corrupt(page.page_id) is not None
        assert disk.verify(page.page_id) == "checksum mismatch"

    def test_corrupt_on_never_verified_pages_is_caught(self, disk):
        """Checksums are pinned lazily; damage to a page whose checksum
        is still pending is caught by a verified read and by verify()."""
        fresh = disk.allocate("f", 4).page_id  # allocated, never written
        rewritten = self.write_one(disk)
        rewritten.add("z")
        disk.write(rewritten)  # written twice, never verified
        for page_id in (fresh, rewritten.page_id):
            assert disk.corrupt(page_id) is not None
            assert disk.verify(page_id) == "checksum mismatch"
            disk.verify_reads = True
            with pytest.raises(PageChecksumError):
                disk.read(page_id)
            disk.verify_reads = False

    def test_unverified_writes_compute_no_checksum(self, disk, monkeypatch):
        calls = []
        real = pager.page_checksum
        monkeypatch.setattr(pager, "page_checksum",
                            lambda page: calls.append(page) or real(page))
        assert not disk.verify_reads
        pages = [disk.allocate(f"f{n % 3}", 4) for n in range(12)]
        for round_ in range(3):
            for page in pages:
                page.add(round_)
                disk.write(page)
                disk.read(page.page_id)
        assert calls == []
        assert disk.verify(pages[0].page_id) is None  # pins it now
        assert len(calls) == 1


class TestBufferPool:
    def test_hit_costs_nothing(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        pool.get(page.page_id)
        before = disk.meter.page_reads
        pool.get(page.page_id)
        assert disk.meter.page_reads == before
        assert pool.hits == 1

    def test_miss_reads_from_disk(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        pool.get(page.page_id)
        assert pool.misses == 1
        assert disk.meter.page_reads == 1

    def test_eviction_respects_capacity(self, disk):
        pool = BufferPool(disk, capacity=2)
        pages = [disk.allocate("f", 4) for _ in range(3)]
        for page in pages:
            pool.get(page.page_id)
        assert len(pool) == 2

    def test_eviction_flushes_dirty_victim(self, disk):
        pool = BufferPool(disk, capacity=1)
        a = disk.allocate("f", 4)
        b = disk.allocate("f", 4)
        page = pool.get(a.page_id)
        page.add("x")
        pool.mark_dirty(a.page_id)
        pool.get(b.page_id)  # evicts a
        assert disk.read(a.page_id).records == ["x"]

    def test_repeated_writes_collapse_to_one_flush(self, disk):
        """Write-back: a page dirtied many times costs one write."""
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 10)
        for i in range(5):
            buffered = pool.get(page.page_id)
            buffered.add(i)
            pool.put(buffered, dirty=True)
        pool.flush_all()
        assert disk.meter.page_writes == 1

    def test_pinned_pages_survive_eviction(self, disk):
        pool = BufferPool(disk, capacity=2)
        pinned = disk.allocate("f", 4)
        pool.pin(pinned.page_id)
        for _ in range(4):
            pool.get(disk.allocate("f", 4).page_id)
        before = disk.meter.page_reads
        pool.get(pinned.page_id)
        assert disk.meter.page_reads == before  # still buffered

    def test_all_pinned_pool_grows(self, disk):
        pool = BufferPool(disk, capacity=1)
        a, b = disk.allocate("f", 4), disk.allocate("f", 4)
        pool.pin(a.page_id)
        pool.pin(b.page_id)
        assert len(pool) == 2  # grew rather than deadlocked

    def test_invalidate_flushes_then_clears(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate("f", 4)
        buffered = pool.get(page.page_id)
        buffered.add("x")
        pool.put(buffered, dirty=True)
        pool.invalidate_all()
        assert len(pool) == 0
        assert disk.read(page.page_id).records == ["x"]

    def test_mark_dirty_requires_residency(self, disk):
        pool = BufferPool(disk, capacity=4)
        with pytest.raises(KeyError):
            pool.mark_dirty(PageId("f", 99))

    def test_rejects_zero_capacity(self, disk):
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=0)


class TestCostMeter:
    def test_milliseconds_uses_parameter_constants(self):
        meter = CostMeter(page_reads=2, page_writes=1, screens=10, ad_ops=4)
        ms = meter.milliseconds(PAPER_DEFAULTS)
        assert ms == pytest.approx(3 * 30 + 10 * 1 + 4 * 1)

    def test_snapshot_and_delta(self):
        meter = CostMeter()
        meter.record_read(3)
        snap = meter.snapshot()
        meter.record_read(2)
        meter.record_screen(5)
        delta = meter.delta_since(snap)
        assert delta.page_reads == 2
        assert delta.screens == 5
        assert snap.page_reads == 3  # snapshot unaffected

    def test_diff_is_delta_since_spelled_forward(self):
        meter = CostMeter()
        meter.record_read(3)
        before = meter.snapshot()
        meter.record_write(2)
        meter.record_ad_op(4)
        delta = meter.diff(before)
        assert (delta.page_reads, delta.page_writes) == (0, 2)
        assert delta.ad_ops == 4
        assert delta.milliseconds(PAPER_DEFAULTS) == pytest.approx(2 * 30 + 4 * 1)

    def test_merge_accumulates_and_chains(self):
        bucket = CostMeter()
        result = bucket.merge(
            CostMeter(page_reads=1, screens=5)
        ).merge(CostMeter(page_writes=2, screens=5, ad_ops=3))
        assert result is bucket
        assert bucket.page_reads == 1
        assert bucket.page_writes == 2
        assert bucket.screens == 10
        assert bucket.ad_ops == 3

    def test_merge_of_diffs_equals_total(self):
        meter = CostMeter()
        bucket = CostMeter()
        for reads in (2, 3):
            before = meter.snapshot()
            meter.record_read(reads)
            meter.record_screen()
            bucket.merge(meter.diff(before))
        assert bucket.page_reads == meter.page_reads == 5
        assert bucket.screens == meter.screens == 2

    def test_reset(self):
        meter = CostMeter(page_reads=5)
        meter.reset()
        assert meter.page_ios == 0
