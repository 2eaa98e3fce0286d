"""Framed JSON RPC between the front-end router and shard workers.

The wire protocol is deliberately small: every message is one JSON
document preceded by a 4-byte big-endian length.  Requests carry a
monotonically increasing per-connection ``id`` which the worker echoes
back, so a response can never be credited to the wrong call even after
a timeout left a late reply in the pipe — the client discards frames
whose id is not the one it is waiting for.

Failure classes the router distinguishes:

* :class:`ShardTimeout` — the worker did not answer within the
  per-call deadline.  The call is abandoned but the connection
  *recovers*: the client keeps a persistent receive buffer (a partial
  frame stays buffered across the timeout, so framing never
  desynchronizes) and ids are monotonic, so the next call simply
  drains and discards any late replies to abandoned requests.  One
  slow call — e.g. a request whose remaining gateway deadline was fed
  in as the RPC timeout — therefore degrades that call only, it does
  not remove the shard from service.
* :class:`ShardUnavailable` — the worker is gone (EOF, broken pipe) or
  the connection is poisoned.  Poisoning is reserved for genuinely
  unrecoverable desynchronization: a send that timed out mid-frame
  (the worker's inbound framing is now ahead of ours), a transport
  error, or a response id from the future.
* :class:`RemoteOpError` — the worker executed the call and raised;
  the exception class name and message come back in the error frame.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Any, Mapping

__all__ = [
    "RpcError",
    "ShardTimeout",
    "ShardUnavailable",
    "RemoteOpError",
    "FrameError",
    "ShardClient",
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "pack_frame",
    "frame_length",
    "decode_payload",
    "send_frame",
    "recv_frame",
]

_LENGTH = struct.Struct("!I")
#: Bytes in a frame header (the big-endian payload length).
HEADER_BYTES = _LENGTH.size

#: Upper bound on one frame; a corrupt length prefix fails loudly
#: instead of attempting a multi-gigabyte read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class RpcError(Exception):
    """Base class for shard RPC failures."""


class FrameError(RpcError):
    """The byte stream does not parse as the framed protocol."""


class ShardTimeout(RpcError):
    """A shard missed its per-call deadline."""

    def __init__(self, shard_id: int, op: str, timeout: float) -> None:
        super().__init__(
            f"shard {shard_id} did not answer {op!r} within {timeout:.3f}s"
        )
        self.shard_id = shard_id
        self.op = op
        self.timeout = timeout


class ShardUnavailable(RpcError):
    """A shard's connection is closed, broken, or poisoned."""

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason


class RemoteOpError(RpcError):
    """The worker ran the operation and it raised."""

    def __init__(self, shard_id: int, kind: str, message: str) -> None:
        super().__init__(f"shard {shard_id} {kind}: {message}")
        self.shard_id = shard_id
        self.kind = kind
        self.message = message


def pack_frame(doc: Mapping[str, Any]) -> bytes:
    """One length-prefixed JSON frame as bytes."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds the protocol cap")
    return _LENGTH.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """The payload length a frame header announces, checked against the cap."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the protocol cap")
    return length


def decode_payload(payload: bytes) -> dict[str, Any]:
    """A frame's payload as the JSON object it must be (every reader's decoder)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError(f"frame must be a JSON object, got {type(doc).__name__}")
    return doc


def send_frame(sock: socket.socket, doc: Mapping[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    sock.sendall(pack_frame(doc))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` means the peer closed cleanly."""
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    payload = _recv_exact(sock, frame_length(header))
    if payload is None:
        raise FrameError("connection closed between header and payload")
    return decode_payload(payload)


class ShardClient:
    """The router's handle on one shard worker connection.

    Calls are serialized per shard (one outstanding request per
    connection); cross-shard parallelism comes from the router issuing
    calls on *different* clients concurrently.  A per-call timeout
    abandons that call but keeps the connection serviceable: received
    bytes persist in :attr:`_rxbuf` (so a partial frame resumes where
    it stopped) and later calls discard stale replies by id.  Only
    unrecoverable desynchronization — a send timing out mid-frame, a
    transport error, a response id from the future — poisons the
    connection, after which every call fails fast with
    :class:`ShardUnavailable`.
    """

    def __init__(
        self,
        sock: socket.socket,
        shard_id: int,
        timeout: float = 10.0,
        address: tuple[str, int] | None = None,
    ) -> None:
        self.sock = sock
        self.shard_id = shard_id
        self.timeout = timeout
        #: Where the worker listens, when known.  A client with an
        #: address is *repairable*: :meth:`reconnect` can replace a
        #: poisoned transport with a fresh connection to the same
        #: worker instead of removing the shard from service forever.
        self.address = address
        #: Successful :meth:`reconnect` repairs on this client.
        self.reconnects_total = 0
        self._mutex = threading.Lock()
        self._next_id = 0
        self._broken: str | None = None
        self._closed = False
        #: Bytes received but not yet consumed as a whole frame.  This
        #: is what makes a recv timeout recoverable: the next call
        #: resumes at the exact framing position instead of treating
        #: mid-frame bytes as a fresh header.
        self._rxbuf = bytearray()

    @property
    def broken(self) -> str | None:
        """Why the connection is poisoned, or ``None`` if healthy."""
        return self._broken

    def reconnect(
        self,
        attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
        connect_timeout: float = 2.0,
    ) -> None:
        """Replace a poisoned transport with a fresh connection.

        Retries with capped exponential backoff (``base_delay * 2**i``
        capped at ``max_delay``); on success the framing state is reset
        — receive buffer cleared, request ids restarted — because the
        new connection shares no history with the old one.  Raises
        :class:`ShardUnavailable` when no address is known or every
        attempt fails; the client stays poisoned in that case so callers
        keep failing fast.
        """
        with self._mutex:
            if self._closed:
                raise ShardUnavailable(self.shard_id, "client closed")
            if self.address is None:
                raise ShardUnavailable(
                    self.shard_id, "no worker address to reconnect to"
                )
            last_error: Exception | None = None
            for attempt in range(max(1, attempts)):
                if attempt:
                    time.sleep(min(max_delay, base_delay * 2 ** (attempt - 1)))
                try:
                    sock = socket.create_connection(
                        self.address, timeout=connect_timeout
                    )
                except OSError as exc:
                    last_error = exc
                    continue
                try:
                    # shutdown(), not just close(): workers forked after
                    # this connection was established inherited a
                    # duplicate of its descriptor, so close() alone
                    # would never deliver EOF — the worker would stay
                    # blocked on the old connection instead of
                    # accepting the replacement.  shutdown() sends FIN
                    # at the connection level regardless of how many
                    # processes still hold the descriptor.
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self.sock.close()
                except OSError:
                    pass
                sock.settimeout(self.timeout)
                self.sock = sock
                self._rxbuf.clear()
                self._next_id = 0
                self._broken = None
                self.reconnects_total += 1
                return
            raise ShardUnavailable(
                self.shard_id,
                f"reconnect to {self.address} failed after {attempts} "
                f"attempts: {last_error}",
            )

    def _read_frame(self) -> dict[str, Any] | None:
        """One frame via the persistent receive buffer."""
        while True:
            if len(self._rxbuf) >= HEADER_BYTES:
                end = HEADER_BYTES + frame_length(bytes(self._rxbuf[:HEADER_BYTES]))
                if len(self._rxbuf) >= end:
                    payload = bytes(self._rxbuf[HEADER_BYTES:end])
                    del self._rxbuf[:end]
                    return decode_payload(payload)
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._rxbuf:
                    raise FrameError("connection closed mid-frame")
                return None
            self._rxbuf += chunk

    def call(self, op: str, timeout: float | None = None, **params: Any) -> Any:
        """One request/response round trip; returns the result payload."""
        deadline = self.timeout if timeout is None else timeout
        with self._mutex:
            if self._closed:
                raise ShardUnavailable(self.shard_id, "client closed")
            if self._broken is not None:
                raise ShardUnavailable(self.shard_id, self._broken)
            self._next_id += 1
            request_id = self._next_id
            request = {"id": request_id, "op": op}
            request.update(params)
            try:
                self.sock.settimeout(deadline)
                send_frame(self.sock, request)
            except socket.timeout:
                # A partial outbound frame cannot be resumed — the
                # worker's inbound framing is now ahead of ours.
                self._broken = f"send of {op!r} timed out mid-frame"
                raise ShardTimeout(self.shard_id, op, deadline) from None
            except OSError as exc:
                self._broken = f"transport error: {exc}"
                raise ShardUnavailable(self.shard_id, self._broken) from exc
            try:
                while True:
                    response = self._read_frame()
                    if response is None:
                        self._broken = "worker closed the connection"
                        raise ShardUnavailable(self.shard_id, self._broken)
                    rid = response.get("id")
                    if rid == request_id:
                        break
                    if isinstance(rid, int) and 0 < rid < request_id:
                        # A late reply to a call an earlier timeout
                        # abandoned: discard it and keep reading — this
                        # is how the connection resynchronizes instead
                        # of staying poisoned.
                        continue
                    self._broken = f"out-of-order response id {rid!r}"
                    raise ShardUnavailable(self.shard_id, self._broken)
            except socket.timeout:
                # The call is abandoned; its reply, if one ever comes,
                # is drained by a later call.  Framing stays intact
                # (partial frames persist in the receive buffer), so
                # the connection itself remains usable.
                raise ShardTimeout(self.shard_id, op, deadline) from None
            except (OSError, FrameError) as exc:
                if self._broken is None:
                    self._broken = f"transport error: {exc}"
                raise ShardUnavailable(self.shard_id, self._broken) from exc
        if response.get("ok"):
            return response.get("result")
        raise RemoteOpError(
            self.shard_id,
            str(response.get("kind", "Exception")),
            str(response.get("error", "unknown remote failure")),
        )

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
