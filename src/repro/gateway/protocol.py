"""Asyncio framing for the gateway wire protocol.

Same bytes as the cluster's shard RPC (:mod:`repro.cluster.rpc`): one
JSON object per message, preceded by a 4-byte big-endian length, with
the same frame-size cap — the frame encoder and payload decoder are
the RPC module's own, only the byte-reading loop here is asyncio.  The
difference is *ordering*: shard RPC serializes one call per
connection, while the gateway pipelines — responses carry the
request's ``id`` and may arrive out of order, so clients must
demultiplex by id.

Request documents::

    {"id": N, "op": "query", "view": str, "lo": A, "hi": B,
     "client": str, "deadline_ms": F}
    {"id": N, "op": "update", "relation": str, "ops": [op-doc, ...],
     "client": str, "deadline_ms": F}
    {"id": N, "op": "ping" | "stats" | "metrics"}

An ``op-doc`` is an operation document of
:mod:`repro.durability.codec` (:func:`~repro.durability.codec.encode_operation`)
— the one shape the WAL, shard RPC and replication deltas carry too::

    {"kind": "insert", "record": {"key": K, "values": {field: V, ...}}}
    {"kind": "update", "key": K, "changes": {field: V, ...}}
    {"kind": "delete", "key": K}

Keys and field values are codec values: JSON scalars as themselves,
tuples and lists as ``{"t": "tuple" | "list", "items": [...]}``.
This insert shape is what makes the protocol ``v2``; ``v1`` inserts
carried a bare ``values`` map and now get a ``CodecError`` reply.
Responses::

    {"id": N, "ok": true,  "result": ...}
    {"id": N, "ok": false, "rejected": label, ...}      # shed load
    {"id": N, "ok": false, "kind": cls, "error": msg}   # engine error

A ``rejected`` response names one of the admission labels
(:data:`~repro.gateway.admission.REJECTION_LABELS`).  An admitted query
result is :func:`repro.cluster.worker.encode_answer`'s document::

    {"kind": "tuples", "items": [{field: V, ...}, ...], "degraded": D}
    {"kind": "scalar", "value": V, "degraded": D}

Answer rows are plain JSON field maps, not codec-tagged: a range
answer is encoded and decoded on every hop (worker, router, gateway,
client), and per-field tags would about triple its decode cost, so a
tuple- or list-valued field comes back as a JSON list.  ``degraded``
is ``None`` or the resilience layer's DegradedResult labels (``view``, ``mode``, ``reason``,
``staleness_bound``, ``strategy``) — the wire composes both
vocabularies.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.rpc import (
    FrameError,
    HEADER_BYTES,
    decode_payload,
    frame_length,
    pack_frame,
)

__all__ = ["GATEWAY_PROTOCOL", "pack_frame", "read_frame", "FrameError"]

#: Protocol tag echoed by ``ping`` so clients can sanity-check peers.
GATEWAY_PROTOCOL = "repro.gateway/v2"


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` means the peer closed at a boundary."""
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-header") from exc
    try:
        payload = await reader.readexactly(frame_length(header))
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed between header and payload") from exc
    return decode_payload(payload)
