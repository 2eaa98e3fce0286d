"""Write-ahead log: framing, CRC, torn tails, rotation, fsync batching."""

import pytest

from repro.durability.wal import FRAME_HEADER, WalError, WriteAheadLog


def _records(n):
    return [{"event": "txn", "payload": {"i": i}} for i in range(n)]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(5):
            wal.append(rec)
        wal.close()
        assert list(WriteAheadLog(tmp_path).replay()) == _records(5)

    def test_append_returns_sequential_indexes(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(r) for r in _records(3)] == [0, 1, 2]
        wal.close()

    def test_log_wraps_encode_event(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log("drop_view", {"view": "v"})
        wal.close()
        (rec,) = WriteAheadLog(tmp_path).replay()
        assert rec["event"] == "drop_view"
        assert rec["view"] == "v"

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(WalError):
            wal.append({"event": "txn"})

    def test_rejects_bad_fsync_every(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync_every=0)


class TestTornTail:
    def test_partial_frame_is_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(3):
            wal.append(rec)
        wal.close()
        path = wal.segment_path(wal.epoch)
        with open(path, "ab") as fh:
            # Header promising 4096 payload bytes, followed by 4: torn.
            fh.write(FRAME_HEADER.pack(4096, 0) + b"torn")
        size_before = path.stat().st_size

        reopened = WriteAheadLog(tmp_path)
        assert reopened.torn_tail_truncations == 1
        assert path.stat().st_size < size_before
        assert list(reopened.replay()) == _records(3)
        reopened.close()

    def test_crc_mismatch_stops_the_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(4):
            wal.append(rec)
        wal.close()
        path = wal.segment_path(wal.epoch)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the third frame: its CRC now fails
        # and the scan must stop *before* it, keeping frames 0-1.
        offset = 0
        for _ in range(2):
            length, _crc = FRAME_HEADER.unpack_from(data, offset)
            offset += FRAME_HEADER.size + length
        data[offset + FRAME_HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        assert list(WriteAheadLog.read_segment(path)) == _records(2)

    def test_appends_continue_after_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        wal.close()
        with open(wal.segment_path(wal.epoch), "ab") as fh:
            fh.write(b"\x07")  # lone garbage byte
        reopened = WriteAheadLog(tmp_path)
        reopened.append({"event": "txn", "payload": {"i": 1}})
        reopened.close()
        assert list(WriteAheadLog(tmp_path).replay()) == _records(2)


class TestRotation:
    def test_rotate_advances_epoch_and_seals_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        assert wal.rotate() == 2
        wal.append({"event": "txn", "payload": {"i": 1}})
        assert wal.segment_numbers() == [1, 2]
        assert list(wal.replay(from_epoch=2)) == [{"event": "txn", "payload": {"i": 1}}]
        wal.close()

    def test_truncate_through_drops_sealed_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"event": "txn", "payload": {"i": 0}})
        wal.rotate()
        wal.rotate()
        assert wal.truncate_through(3) == 2
        assert wal.segment_numbers() == [3]
        wal.close()

    def test_reopen_resumes_latest_epoch(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.rotate()
        wal.close()
        assert WriteAheadLog(tmp_path).epoch == 2


class TestFsyncBatching:
    def test_one_fsync_per_batch(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=5)
        for rec in _records(10):
            wal.append(rec)
        assert wal.fsyncs == 2

    def test_close_syncs_the_residue(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=5)
        for rec in _records(7):
            wal.append(rec)
        wal.close()
        assert wal.fsyncs == 2  # one full batch + the residue of 2

    def test_synchronous_commit_default(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for rec in _records(3):
            wal.append(rec)
        assert wal.fsyncs == 3
        wal.close()

    def test_wal_bytes_counts_live_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert wal.wal_bytes() == 0
        wal.append({"event": "txn", "payload": {"i": 0}})
        on_disk = wal.wal_bytes()
        assert on_disk == wal.bytes_appended > 0
        wal.close()


class TestWalBytesGauge:
    """wal_bytes() is a pure read of sizes tracked in memory."""

    @staticmethod
    def _sizes(wal):
        return {n: wal.segment_path(n).stat().st_size for n in wal.segment_numbers()}

    def _check(self, wal):
        before = self._sizes(wal)
        gauge = wal.wal_bytes()
        assert self._sizes(wal) == before  # the read flushed nothing
        wal.flush()
        assert gauge == sum(self._sizes(wal).values())

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_on_disk_segments_across_a_seeded_lifecycle(self, tmp_path, seed):
        import random

        rng = random.Random(seed)
        wal = WriteAheadLog(tmp_path, fsync_every=rng.choice([1, 4, 64]))
        self._check(wal)
        for step in range(60):
            roll = rng.random()
            if roll < 0.7:
                pad = "x" * rng.randrange(40)
                wal.append({"event": "txn", "payload": {"i": step, "pad": pad}})
            elif roll < 0.8:
                wal.rotate()
            elif roll < 0.9:
                wal.truncate_through(wal.epoch - rng.randrange(2))
            else:
                # Crash mid-append: a torn frame on the active segment,
                # then a reopen that cuts it away.
                wal.flush()
                wal._fh.write(FRAME_HEADER.pack(4096, 0) + b"torn")
                wal._fh.close()
                wal = WriteAheadLog(tmp_path, fsync_every=wal.fsync_every)
                assert wal.torn_tail_truncations == 1
            self._check(wal)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.wal_bytes() == sum(self._sizes(wal).values())
        reopened.close()
