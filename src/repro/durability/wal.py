"""Record-oriented write-ahead log with CRC framing and fsync batching.

Layout: a directory of segment files ``wal-00000001.log``,
``wal-00000002.log``, ...  Each segment is a sequence of frames::

    +----------------+----------------+------------------------+
    | length (u32le) | crc32  (u32le) | payload (JSON, UTF-8)  |
    +----------------+----------------+------------------------+

The segment number is the WAL *epoch*: a checkpoint rotates to a fresh
segment, records its number in the manifest, and once the checkpoint
is published every earlier segment is garbage.  Recovery replays all
frames in segments ``>= wal_epoch``, in segment then frame order.

Durability knobs follow real WAL implementations:

* ``fsync_every=n`` batches group commits — one ``fsync`` per ``n``
  appended records (``1`` = synchronous commit).
* On open, the *last* segment is scanned and any torn tail (partial
  frame or CRC mismatch from a crash mid-append) is truncated away;
  earlier segments were sealed by a rotation and are never rewritten.

``fault_hook`` is the crash-injection seam used by
:mod:`repro.durability.faults`: when set, it is called around every
append and may raise :class:`~repro.durability.faults.SimulatedCrash`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .codec import encode_event

__all__ = ["WalError", "WriteAheadLog", "FRAME_HEADER"]

#: Frame header: payload length + CRC32 of the payload, little-endian.
FRAME_HEADER = struct.Struct("<II")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WalError(RuntimeError):
    """The write-ahead log is unusable (bad directory, closed handle)."""


def _segment_name(number: int) -> str:
    return f"{_SEGMENT_PREFIX}{number:08d}{_SEGMENT_SUFFIX}"


def _segment_number(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class WriteAheadLog:
    """Append-only journal of engine events, one JSON record per frame."""

    def __init__(self, directory: str | Path, fsync_every: int = 1) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        #: Lifetime durability statistics (exported as service metrics).
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.torn_tail_truncations = 0
        #: Crash-injection seam: ``hook(stage, record_index)`` with
        #: stage in {"before_append", "after_append"}; may raise.
        self.fault_hook: Callable[[str, int], None] | None = None
        self._unsynced = 0
        self._fh: Any = None
        existing = self.segment_numbers()
        if existing:
            self._epoch = existing[-1]
            self._truncate_torn_tail(self.segment_path(self._epoch))
        else:
            self._epoch = 1
        #: Live segment number -> its size in bytes, including frames
        #: still buffered in the append handle.  Seeded once here and
        #: kept by append/rotate/truncate_through, so the gauge
        #: :meth:`wal_bytes` needs no flush and no syscall.
        self._segment_bytes = {
            number: self.segment_path(number).stat().st_size
            for number in existing[:-1]
        }
        self._open_segment(self._epoch)

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Number of the active (append) segment."""
        return self._epoch

    def segment_numbers(self) -> list[int]:
        """Existing segment numbers, ascending."""
        numbers = []
        for path in self.directory.iterdir():
            number = _segment_number(path)
            if number is not None:
                numbers.append(number)
        return sorted(numbers)

    def segment_path(self, number: int) -> Path:
        return self.directory / _segment_name(number)

    def rotate(self) -> int:
        """Seal the active segment and start the next epoch.

        Called by the checkpoint manager *before* capturing state, so
        every event after the captured state lands in the new segment.
        """
        self.sync()
        self._fh.close()
        self._epoch += 1
        self._open_segment(self._epoch)
        return self._epoch

    def truncate_through(self, epoch: int) -> int:
        """Delete sealed segments numbered below ``epoch``; returns count."""
        removed = 0
        for number in self.segment_numbers():
            if number < epoch and number != self._epoch:
                self.segment_path(number).unlink(missing_ok=True)
                self._segment_bytes.pop(number, None)
                removed += 1
        return removed

    def wal_bytes(self) -> int:
        """Total bytes across all live segments (durability gauge).

        A pure read of the tracked sizes: it equals the on-disk total
        once buffered frames are flushed.
        """
        return sum(self._segment_bytes.values())

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def log(self, event: str, payload: Mapping[str, Any]) -> None:
        """The engine's journal interface (``Database.attach_journal``)."""
        self.append(encode_event(event, payload))

    def append(self, record: Mapping[str, Any]) -> int:
        """Frame and append one JSON-safe record; returns its index."""
        if self._fh is None or self._fh.closed:
            raise WalError("write-ahead log is closed")
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        frame = FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        index = self.records_appended
        if self.fault_hook is not None:
            self.fault_hook("before_append", index)
        self._fh.write(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self._segment_bytes[self._epoch] += len(frame)
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()
        if self.fault_hook is not None:
            self.fault_hook("after_append", index)
        return index

    def flush(self) -> None:
        """Push buffered frames to the OS (no fsync)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()

    def sync(self) -> None:
        """Flush and fsync the active segment (a group-commit point)."""
        if self._fh is None or self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._unsynced:
            self.fsyncs += 1
            self._unsynced = 0

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def replay(self, from_epoch: int = 1) -> Iterator[dict[str, Any]]:
        """Yield every decodable record in segments ``>= from_epoch``.

        Reads the files as they are on disk (including the active
        segment); callers should :meth:`flush` or :meth:`close` first.
        """
        self.flush()
        for number in self.segment_numbers():
            if number < from_epoch:
                continue
            yield from self.read_segment(self.segment_path(number))

    @staticmethod
    def read_segment(path: Path) -> Iterator[dict[str, Any]]:
        """Decode one segment's frames, stopping at the first bad frame.

        A short header, short payload, or CRC mismatch marks the torn
        tail of a crashed append; everything before it is intact
        because frames are written strictly sequentially.
        """
        data = path.read_bytes()
        offset = 0
        while offset + FRAME_HEADER.size <= len(data):
            length, crc = FRAME_HEADER.unpack_from(data, offset)
            start = offset + FRAME_HEADER.size
            end = start + length
            if end > len(data):
                break  # torn frame: payload missing
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn frame: payload corrupt
            try:
                yield json.loads(payload.decode())
            except ValueError:
                break
            offset = end

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _open_segment(self, number: int) -> None:
        self._fh = open(self.segment_path(number), "ab")
        self._segment_bytes[number] = self._fh.tell()
        self._unsynced = 0

    def _truncate_torn_tail(self, path: Path) -> None:
        """Cut a crashed segment back to its last intact frame."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        offset = 0
        while offset + FRAME_HEADER.size <= len(data):
            length, crc = FRAME_HEADER.unpack_from(data, offset)
            start = offset + FRAME_HEADER.size
            end = start + length
            if end > len(data) or zlib.crc32(data[start:end]) != crc:
                break
            offset = end
        if offset < len(data):
            with open(path, "r+b") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
            self.torn_tail_truncations += 1
