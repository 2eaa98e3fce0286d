"""Span recording around the public functions of each layer.

The tracer patches layer entry points (module functions, methods and
one property) for the duration of a traced trial and restores them
afterwards; nothing under ``src/`` knows it is being traced.  A span is
``[name, start, end, parent, thread]``; the spans of one request share
a list, so the request id is the list itself.

Parents: a span opened on a thread that already has an open span nests
under it.  A span opened on a fresh thread (a gateway worker, a
scatter leg) nests under the most recently opened, still-open span of
the request that has a different name -- with one request in flight at
a time (one closed-loop client) that is the caller that handed the work
over, and two parallel legs of the same name never adopt each other.

Self time is a span's duration minus the union of its children's
intervals.  Parallel children (scatter legs) overlap, so each child
subtree is scaled by ``union / sum`` of its sibling group: the
attributed self times of one request then add up to the root's
duration exactly, and ``cluster.rpc_ms`` reads as wall time spent
waiting on RPC rather than the sum of overlapping legs.

Usage::

    tracer = Tracer()
    with tracer.installed():
        tracer.begin("request")
        ...            # calls into the traced layers
        tracer.end()
    tracer.self_ms["storage.checksum"]
"""

from __future__ import annotations

import functools
import gc
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Spans kept for the JSON export; the per-name aggregates cover every
#: traced request regardless.
EXPORT_SPAN_CAP = 20_000


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every traced entry point."""
    from repro.cluster.router import ClusterRouter
    from repro.cluster.rpc import ShardClient
    from repro.concurrency.locks import RWLock
    from repro.durability.wal import WriteAheadLog
    from repro.engine.database import Database
    from repro.hr.differential import HypotheticalRelation
    from repro.maintenance.deferred import DeferredCoordinator
    from repro.maintenance.immediate import ImmediateAggregate, ImmediateSelectProject
    from repro.maintenance.planner import SharedDeltaPlanner
    from repro.maintenance.screening import TwoStageScreen
    from repro.service.server import ViewServer
    from repro.storage import pager
    from repro.storage.bloom import BloomFilter
    from repro.views.matview import AggregateStateStore, MaterializedView

    return [
        (pager, "page_checksum", "storage.checksum"),
        (pager.SimulatedDisk, "write", "storage.disk_write"),
        (pager.BufferPool, "flush", "storage.flush"),
        (pager.BufferPool, "get", "storage.pool_get"),
        (BloomFilter, "add", "storage.bloom"),
        (BloomFilter, "maybe_contains", "storage.bloom"),
        (BloomFilter, "clear", "storage.bloom"),
        (BloomFilter, "fill_fraction", "storage.bloom"),
        (HypotheticalRelation, "insert", "hr.write"),
        (HypotheticalRelation, "delete_by_key", "hr.write"),
        (HypotheticalRelation, "update_by_key", "hr.write"),
        (HypotheticalRelation, "net_changes", "hr.net_changes"),
        (HypotheticalRelation, "reset", "hr.reset"),
        (SharedDeltaPlanner, "refresh", "maintenance.refresh"),
        (DeferredCoordinator, "compute_net", "maintenance.net"),
        (DeferredCoordinator, "install", "maintenance.install"),
        (TwoStageScreen, "screen_batch", "maintenance.screen"),
        (ImmediateSelectProject, "on_transaction", "maintenance.immediate"),
        (ImmediateAggregate, "on_transaction", "maintenance.immediate"),
        (MaterializedView, "read_range", "views.read_range"),
        (MaterializedView, "apply_changes", "views.apply_changes"),
        (AggregateStateStore, "apply", "views.agg_apply"),
        (WriteAheadLog, "append", "durability.wal_append"),
        (WriteAheadLog, "sync", "durability.wal_sync"),
        (ViewServer, "checkpoint", "durability.checkpoint"),
        (Database, "apply_transaction", "engine"),
        (Database, "query_view", "engine"),
        (Database, "settle_relation", "engine"),
        (ViewServer, "query", "service"),
        (ViewServer, "apply_update", "service"),
        (RWLock, "acquire_read", "concurrency.acquire"),
        (RWLock, "acquire_write", "concurrency.acquire"),
        (RWLock, "release_read", "concurrency.release"),
        (RWLock, "release_write", "concurrency.release"),
        (ClusterRouter, "query", "cluster.router"),
        (ClusterRouter, "apply_update", "cluster.router"),
        (ShardClient, "call", "cluster.rpc"),
    ]


class Tracer:
    """In-memory span recorder with per-name self-time aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Spans of the request in flight (None between requests).
        self._spans: list[list[Any]] | None = None
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.requests = 0
        self.request_ms = 0.0
        self.exported: list[dict[str, Any]] = []
        self.gc_ms = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[tuple[list[list[Any]], int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[list[Any]], int] | None:
        spans = self._spans
        if spans is None:
            return None
        stack = self._stack()
        with self._lock:
            if stack and stack[-1][0] is spans:
                parent = stack[-1][1]
            else:
                parent = next(
                    (
                        index for index in range(len(spans) - 1, -1, -1)
                        if spans[index][2] is None and spans[index][0] != name
                    ),
                    None,
                )
            index = len(spans)
            spans.append([name, perf_counter(), None, parent, threading.get_ident()])
        handle = (spans, index)
        stack.append(handle)
        return handle

    def _close(self, handle: tuple[list[list[Any]], int]) -> None:
        spans, index = handle
        spans[index][2] = perf_counter()
        self._stack().pop()

    def begin(self, name: str) -> None:
        """Open the root span of a new request on this thread."""
        self._spans = []
        self._open(name)

    def end(self) -> None:
        """Close the request's root span and fold its spans."""
        spans = self._spans
        assert spans is not None, "end() without begin()"
        self._close((spans, 0))
        self._spans = None
        self._fold(spans)

    def _fold(self, spans: list[list[Any]]) -> None:
        root_end = spans[0][2]
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[2] is None:
                span[2] = root_end  # a straggler: clip at the request end
            if span[3] is not None:
                children[span[3]].append(index)
        scale = [1.0] * len(spans)
        for index, span in enumerate(spans):  # parents precede children
            kids = children.get(index, ())
            clipped = sorted(
                (max(spans[k][1], span[1]), min(spans[k][2], span[2])) for k in kids
            )
            covered = _union(clipped)
            total = sum(max(0.0, end - start) for start, end in clipped)
            share = covered / total if total > 0 else 1.0
            for k in kids:
                scale[k] = scale[index] * share
            own = (span[2] - span[1]) - covered
            self.self_ms[span[0]] += own * scale[index] * 1000.0
            self.calls[span[0]] += 1
        self.requests += 1
        self.request_ms += (root_end - spans[0][1]) * 1000.0
        room = EXPORT_SPAN_CAP - len(self.exported)
        if room >= len(spans):
            request = self.requests
            origin = spans[0][1]
            self.exported.extend(
                {
                    "request": request,
                    "id": index,
                    "name": span[0],
                    "start_us": round((span[1] - origin) * 1e6, 1),
                    "end_us": round((span[2] - origin) * 1e6, 1),
                    "parent": span[3],
                    "thread": span[4],
                }
                for index, span in enumerate(spans)
            )

    # -- installation -----------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            handle = tracer._open(name)
            if handle is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(handle)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced entry point; restore them on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    patched: Any = property(self._wrap(original.fget, name))
                else:
                    patched = self._wrap(original, name)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- garbage collector ------------------------------------------------
    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_ms += (perf_counter() - self._gc_start) * 1000.0
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        """Accumulate collector pauses (``gc.callbacks``) while open."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by sorted ``(start, end)`` intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
