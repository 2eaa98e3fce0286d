"""The front-end router: one address for an N-shard cluster.

:class:`ClusterRouter` owns the shard worker processes and presents
the same traffic surface as a single :class:`ViewServer` — ``query``,
``apply_update``, ``refresh_epoch``, metrics — while underneath:

* **routing** — a query whose range lies inside one shard's partition
  (range scheme, view keyed on the partition field) goes straight to
  that worker; everything else scatters to the owning shards and the
  answers are gathered and merged (tuples concatenated in view-key
  order, ``sum``/``count`` aggregates summed, ``min``/``max`` folded);
* **keys** — updates address tuples by primary key, but placement is
  by partition field, so the router keeps a key directory
  ``(relation, key) -> shard``.  An update that moves a tuple across
  the partition boundary becomes an explicit cross-shard *move*
  (insert on the new owner first, then delete on the old — a failure
  mid-move can duplicate a tuple transiently but never lose one), each
  half a normal maintained transaction on its shard; directory entries
  commit only after the owning shard acknowledges the write;
* **partial failure** — scatter legs run under per-shard deadlines; a
  missing or degraded leg turns the merged answer into a
  :class:`~repro.resilience.degradation.DegradedResult` whose mode,
  reason and staleness bound *compose* the per-shard labels (the
  worst rung wins, bounds add across failed legs) instead of hiding
  them;
* **cluster refresh epochs** — concurrent ``refresh_epoch`` callers
  coalesce onto one in-flight cluster-wide scatter, mirroring the
  per-shard SharedDeltaPlanner: each shard still computes its
  partition's net change exactly once per epoch, now cluster-wide;
* **merged-result caching** — an optional
  :class:`~repro.service.cache.QueryResultCache` holds merged
  cross-shard answers under relation epoch tokens bumped *after*
  updates commit; a merge is only cached if the token is unchanged
  across the whole scatter, so a concurrent update can waste a cache
  fill but never poison it.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from repro.durability.codec import (
    decode_definition,
    decode_fields,
    decode_schema,
    decode_value,
    encode_operation,
    encode_value,
)
from repro.engine.transaction import Delete, Insert, Update
from repro.resilience.degradation import DegradedResult
from repro.service.cache import QueryResultCache
from repro.service.metrics import MetricsRegistry
from repro.storage.tuples import Record, SchemaError
from repro.views.definition import AggregateView, JoinView
from .metrics import aggregate_metrics
from .replication import ReplicaSet, ReplicationConfig, ReplicationError
from .rpc import RpcError, ShardTimeout
from .shardmap import ShardMap
from .worker import decode_answer

__all__ = ["ClusterRouter", "ClusterError", "ClusterClosedError"]

#: Aggregate merge functions the scatter layer knows how to fold.
_SCALAR_MERGES = {
    "sum": sum,
    "count": sum,
    "min": min,
    "max": max,
}


class ClusterError(RuntimeError):
    """A cluster-level routing or configuration failure."""


class ClusterClosedError(ClusterError):
    """The router was shut down; no further requests are accepted."""


class _ViewMeta:
    """What the router must know about a view to route and merge it."""

    __slots__ = ("name", "kind", "relations", "view_key", "merge", "prunable")

    def __init__(
        self,
        name: str,
        kind: str,
        relations: tuple[str, ...],
        view_key: str | None,
        merge: Any,
        prunable: bool,
    ) -> None:
        self.name = name
        self.kind = kind
        self.relations = relations
        self.view_key = view_key
        self.merge = merge
        self.prunable = prunable


def _view_meta(doc: Mapping[str, Any], shard_map: ShardMap) -> _ViewMeta:
    definition = decode_definition(doc)
    name = definition.name
    if isinstance(definition, AggregateView):
        merge = _SCALAR_MERGES.get(definition.aggregate)
        if merge is None:
            raise ClusterError(
                f"view {name!r}: aggregate {definition.aggregate!r} does "
                f"not merge across shards (supported: "
                f"{', '.join(sorted(_SCALAR_MERGES))})"
            )
        return _ViewMeta(name, "scalar", (definition.relation,), None, merge, False)
    if isinstance(definition, JoinView):
        return _ViewMeta(
            name, "tuples", (definition.outer, definition.inner),
            definition.view_key, None, False,
        )
    prunable = (
        shard_map.scheme == "range"
        and definition.view_key == shard_map.partition_field
    )
    return _ViewMeta(
        name, "tuples", (definition.relation,), definition.view_key, None, prunable
    )


class ClusterRouter:
    """Scatter–gather front end over N forked shard workers."""

    def __init__(
        self,
        shard_map: ShardMap,
        shards: list[ReplicaSet],
        views: dict[str, _ViewMeta],
        directory: dict[tuple[str, Any], int],
        cache: QueryResultCache | None = None,
        rpc_timeout: float = 30.0,
    ) -> None:
        self.shard_map = shard_map
        #: One :class:`ReplicaSet` per shard id, in shard order.
        self.shards = shards
        #: Set by the harness when a ClusterSupervisor watches this
        #: router; close() stops it before reaping workers.
        self.supervisor: Any = None
        self.metrics = MetricsRegistry()
        self.cache = cache
        self.rpc_timeout = rpc_timeout
        self._views = views
        #: (relation, primary key) -> owning shard.  Guarded by
        #: ``_directory_lock``; cross-shard moves mutate it.
        self._directory = directory
        self._directory_lock = threading.Lock()
        #: Cluster refresh-epoch coalescing (the planner's leader /
        #: follower pattern lifted one level up).
        self._epoch_lock = threading.Lock()
        self._epoch_inflight: threading.Event | None = None
        self.epochs = 0
        self.coalesced_waits = 0
        #: In-flight request accounting for drain-before-close.
        self._flight_lock = threading.Lock()
        self._flight_cond = threading.Condition(self._flight_lock)
        self._inflight = 0
        self._closing = False
        self._closed = False
        #: Per-caller-thread flag: the last query on this thread was
        #: answered by a replica retry.  The gateway pops it to label
        #: the outcome ``ok_retry`` in its per-outcome histograms.
        self._retry_local = threading.local()

    def views(self) -> tuple[str, ...]:
        """Names of the views this router can answer, sorted."""
        return tuple(sorted(self._views))

    @property
    def clients(self) -> list[Any]:
        """The current primary client per shard (failover-aware)."""
        return [
            (rs.primary or rs.members[0]).client for rs in self.shards
        ]

    @property
    def processes(self) -> list[Any]:
        """Every worker process ever spawned, in shard-major order.

        With no replicas this is exactly the one-process-per-shard list
        the original launch produced; with replicas and respawns it is
        the full reap list — dead and replaced members included — so
        nothing the cluster forked can be orphaned.
        """
        return [
            member.process for rs in self.shards for member in rs.members
        ]

    def pop_retried(self) -> bool:
        """Consume this thread's replica-retry flag (set by query())."""
        flag = getattr(self._retry_local, "flag", False)
        self._retry_local.flag = False
        return bool(flag)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def launch(
        cls,
        spec: Mapping[str, Any],
        shard_map: ShardMap,
        cache: QueryResultCache | None = None,
        rpc_timeout: float = 30.0,
        replication: ReplicationConfig | None = None,
    ) -> "ClusterRouter":
        """Partition a cluster spec and launch one replica set per shard.

        ``spec`` is a worker spec (see :mod:`repro.cluster.worker`)
        whose relation ``records`` hold the *whole* data set; this
        splits every relation by the shard map's partition field,
        builds per-shard specs (with per-shard ``state_dir``
        subdirectories when durability is requested) and launches each
        shard's 1+N workers over TCP listeners on the loopback
        interface — a listening socket per worker is what lets a
        poisoned client reconnect to the *same living process* instead
        of writing the shard off.
        """
        replication = replication or ReplicationConfig()
        field = shard_map.partition_field
        views = {}
        for view_doc in spec.get("views", ()):
            meta = _view_meta(view_doc["definition"], shard_map)
            views[meta.name] = meta

        directory: dict[tuple[str, Any], int] = {}
        shard_records: dict[str, list[list[dict[str, Any]]]] = {}
        for rel in spec.get("relations", ()):
            schema = decode_schema(rel["schema"])
            if field not in schema.fields:
                raise ClusterError(
                    f"relation {schema.name!r} has no partition field {field!r}"
                )
            buckets: list[list[dict[str, Any]]] = [
                [] for _ in range(shard_map.n_shards)
            ]
            # Records stay encoded: each bucket ships as-is to its shard.
            for doc in rel.get("records", ()):
                shard = shard_map.shard_of(decode_value(doc[field]))
                buckets[shard].append(doc)
                directory[(schema.name, decode_value(doc[schema.key_field]))] = shard
            shard_records[schema.name] = buckets

        router = cls(
            shard_map, [], views, directory,
            cache=cache, rpc_timeout=rpc_timeout,
        )
        try:
            for shard in range(shard_map.n_shards):
                shard_spec = dict(spec)
                shard_spec["shard_id"] = shard
                shard_spec["relations"] = [
                    {**rel, "records": shard_records[rel["schema"]["name"]][shard]}
                    for rel in spec.get("relations", ())
                ]
                state_dir = None
                if spec.get("state_dir") is not None:
                    state_dir = f"{spec['state_dir']}/shard-{shard:03d}"
                router.shards.append(ReplicaSet.launch(
                    shard, shard_spec, replication,
                    rpc_timeout=rpc_timeout, state_dir=state_dir,
                    metrics=router.metrics,
                ))
        except BaseException:
            for replica_set in router.shards:
                replica_set.close(rpc_timeout=2.0)
            raise
        return router

    # ------------------------------------------------------------------
    # request accounting (drain-before-close)
    # ------------------------------------------------------------------
    def _enter(self) -> None:
        with self._flight_lock:
            if self._closing or self._closed:
                raise ClusterClosedError("router is shut down")
            self._inflight += 1

    def _exit(self) -> None:
        with self._flight_cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._flight_cond.notify_all()

    # ------------------------------------------------------------------
    # scatter plumbing
    # ------------------------------------------------------------------
    def _scatter(
        self,
        shards: Iterable[int],
        op: str,
        timeout: float | None = None,
        **params: Any,
    ) -> tuple[dict[int, Any], dict[int, Exception]]:
        """Issue one op to many shards concurrently.

        Each leg runs on its own thread against its own connection
        under its own deadline; returns ``(results, failures)`` keyed
        by shard id.
        """
        shard_list = list(shards)
        results: dict[int, Any] = {}
        failures: dict[int, Exception] = {}
        if len(shard_list) == 1:
            shard = shard_list[0]
            try:
                results[shard] = self.clients[shard].call(
                    op, timeout=timeout, **params
                )
            except RpcError as exc:
                failures[shard] = exc
            return results, failures

        def leg(shard: int) -> None:
            try:
                results[shard] = self.clients[shard].call(
                    op, timeout=timeout, **params
                )
            except RpcError as exc:
                failures[shard] = exc

        threads = [
            threading.Thread(target=leg, args=(shard,), daemon=True)
            for shard in shard_list
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results, failures

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        name: str,
        lo: Any = None,
        hi: Any = None,
        client: str = "anon",
        timeout: float | None = None,
        allow_partial: bool = True,
    ) -> Any:
        """Answer a view query across the cluster.

        Single-shard ranges are routed directly; everything else
        scatters to the owning shards under per-shard deadlines.  With
        ``allow_partial`` (the default), missing or degraded legs
        produce a labelled :class:`DegradedResult` instead of an
        exception; only a query with *no* surviving leg raises.
        """
        meta = self._views.get(name)
        if meta is None:
            raise ClusterError(f"view {name!r} is not served by this cluster")
        self._enter()
        try:
            if meta.prunable and (lo is not None or hi is not None):
                shards = self.shard_map.shards_for_range(lo, hi)
            else:
                shards = self.shard_map.all_shards()
            self.metrics.counter("router_queries_total", view=name).inc()
            token = self._cache_token(meta)
            if token is not None:
                hit, answer = self.cache.get(name, lo, hi, token)
                if hit:
                    self.metrics.counter("router_cache_hits_total", view=name).inc()
                    return answer
            if len(shards) == 1:
                self.metrics.counter("single_shard_queries_total", view=name).inc()
            else:
                self.metrics.counter("scatter_queries_total", view=name).inc()
            results, failures, retried = self._scatter_query(
                shards, name, lo, hi, client, timeout
            )
            if retried:
                self._retry_local.flag = True
            answer = self._merge(meta, shards, results, failures, allow_partial)
            if (
                token is not None
                and not failures
                and not isinstance(answer, DegradedResult)
                and self._cache_token(meta) == token
            ):
                # The epoch vector is unchanged across the whole
                # scatter: no update committed meanwhile, so the merge
                # is fresh and safe to serve from cache.
                self.cache.put(name, lo, hi, token, answer)
            return answer
        finally:
            self._exit()

    def _scatter_query(
        self,
        shards: Iterable[int],
        name: str,
        lo: Any,
        hi: Any,
        client: str,
        timeout: float | None,
    ) -> tuple[dict[int, Any], dict[int, Exception], bool]:
        """Scatter one query, retrying each leg on replicas.

        Each leg goes through its shard's :meth:`ReplicaSet.query`:
        primary first, then the most-caught-up live replicas within
        the remaining deadline.  A leg served by a *lagging* replica is
        labelled ``stale_read`` with the replica's lag in operations as
        the staleness bound — a caught-up replica's answer is simply
        correct and carries no label.  Degraded labels only appear when
        every member of a shard is unreachable, the honest last resort.
        """
        shard_list = list(shards)
        results: dict[int, Any] = {}
        failures: dict[int, Exception] = {}
        retried_legs: dict[int, bool] = {}

        def leg(shard: int) -> None:
            try:
                doc, info = self.shards[shard].query(
                    timeout=timeout, view=name, lo=lo, hi=hi, client=client,
                )
            except (RpcError, ReplicationError) as exc:
                failures[shard] = exc
                return
            if info.get("retried"):
                retried_legs[shard] = True
                self.metrics.counter(
                    "replica_served_total", shard=str(shard)
                ).inc()
                lag = int(info.get("lag", 0))
                if lag > 0 and doc.get("degraded") is None:
                    doc = dict(doc)
                    doc["degraded"] = {
                        "view": name,
                        "mode": "stale_read",
                        "reason": (
                            f"served by shard {shard} replica "
                            f"m{info.get('member')} lagging {lag} ops"
                        ),
                        "staleness_bound": lag,
                        "strategy": "replica",
                    }
            results[shard] = doc

        if len(shard_list) == 1:
            leg(shard_list[0])
        else:
            threads = [
                threading.Thread(target=leg, args=(shard,), daemon=True)
                for shard in shard_list
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return results, failures, any(retried_legs.values())

    def _cache_token(self, meta: _ViewMeta) -> Any:
        if self.cache is None:
            return None
        return self.cache.epoch_token(meta.relations)

    def _merge(
        self,
        meta: _ViewMeta,
        shards: Iterable[int],
        results: Mapping[int, Any],
        failures: Mapping[int, Exception],
        allow_partial: bool,
    ) -> Any:
        if failures:
            for shard in failures:
                self.metrics.counter(
                    "scatter_leg_failures_total", view=meta.name,
                    shard=str(shard),
                ).inc()
            if not allow_partial or not results:
                shard, exc = next(iter(failures.items()))
                raise exc
        payloads: dict[int, Any] = {}
        degraded_legs: dict[int, dict[str, Any]] = {}
        for shard, doc in results.items():
            payload, degraded = decode_answer(doc)
            payloads[shard] = payload
            if degraded is not None:
                degraded_legs[shard] = degraded
        if meta.kind == "scalar":
            merged: Any = meta.merge(payloads[s] for s in sorted(payloads))
        else:
            tuples = [vt for s in sorted(payloads) for vt in payloads[s]]
            tuples.sort(key=lambda vt: (vt[meta.view_key], vt.identity()))
            merged = tuples
        if not failures and not degraded_legs:
            return merged
        return self._compose_degraded(meta, merged, degraded_legs, failures)

    def _compose_degraded(
        self,
        meta: _ViewMeta,
        merged: Any,
        degraded_legs: Mapping[int, Mapping[str, Any]],
        failures: Mapping[int, Exception],
    ) -> DegradedResult:
        """Fold per-shard degraded labels into one honest cluster label.

        Mode severity: a lost leg (``partial_scatter``) outranks a
        stale leg, which outranks a fresh QM fallback.  The staleness
        bound is the max over degraded legs plus, for each lost leg,
        every update ever routed to it — the merge is missing that
        partition outright, so nothing tighter is defensible.
        """
        reasons = []
        bound = max(
            (int(leg.get("staleness_bound", 0)) for leg in degraded_legs.values()),
            default=0,
        )
        mode = "qm_fallback"
        for shard in sorted(degraded_legs):
            leg = degraded_legs[shard]
            reasons.append(f"shard {shard}: {leg.get('reason', 'degraded')}")
            if leg.get("mode") == "stale_read":
                mode = "stale_read"
        for shard in sorted(failures):
            exc = failures[shard]
            kind = "timeout" if isinstance(exc, ShardTimeout) else "unavailable"
            reasons.append(f"shard {shard}: {kind}")
            mode = "partial_scatter"
            bound += int(
                self.metrics.counter(
                    "shard_updates_total", shard=str(shard)
                ).value
            )
        self.metrics.counter("degraded_merges_total", view=meta.name).inc()
        strategies = {
            str(leg.get("strategy")) for leg in degraded_legs.values()
        } or {"unavailable"}
        return DegradedResult(
            answer=merged,
            view=meta.name,
            mode=mode,
            reason="; ".join(reasons),
            staleness_bound=bound,
            strategy=sorted(strategies)[0],
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_update(
        self, txn: Any, client: str = "anon", timeout: float | None = None,
    ) -> None:
        """Route one transaction's operations to their owning shards.

        Operations that stay within a shard are batched per shard and
        applied as one transaction there (concurrently across shards).
        An update that changes the partition field across a boundary is
        executed as a fetch + insert + delete move; pending batches for
        the involved shards are flushed first so per-key operation
        order is preserved.

        ``timeout`` is the caller's remaining deadline budget (the
        gateway passes what is left of ``deadline_ms``); it bounds
        every shard RPC the transaction fans out into.  ``None`` falls
        back to each shard client's construction-time default.
        """
        field = self.shard_map.partition_field
        relation = txn.relation
        self._enter()
        try:
            pending: dict[int, list[dict[str, Any]]] = {}
            # Directory mutations are *staged*, not applied: the
            # overlay answers ownership questions for later operations
            # in this transaction, and ``staged`` commits to the real
            # directory per shard only once that shard has acknowledged
            # its batch (in _flush).  A failed flush therefore cannot
            # leave phantom entries that misroute later updates.
            staged: dict[int, list[tuple[Any, int | None]]] = {}
            overlay: dict[tuple[str, Any], int | None] = {}
            for op in txn.operations:
                if isinstance(op, Insert):
                    key = op.record.key
                    if field not in op.record.values:
                        raise SchemaError(f"insert into {relation!r} lacks {field!r}")
                    shard = self.shard_map.shard_of(op.record[field])
                    overlay[(relation, key)] = shard
                    staged.setdefault(shard, []).append((key, shard))
                elif isinstance(op, Delete):
                    shard = self._owner(relation, op.key, overlay)
                    overlay[(relation, op.key)] = None
                    staged.setdefault(shard, []).append((op.key, None))
                else:
                    shard = self._owner(relation, op.key, overlay)
                    if field in op.changes:
                        target = self.shard_map.shard_of(op.changes[field])
                        if target != shard:
                            self._flush(relation, pending, staged, client,
                                        only={shard, target},
                                        timeout=timeout)
                            self._move(relation, op, shard, target, client,
                                       timeout=timeout)
                            overlay[(relation, op.key)] = target
                            continue
                pending.setdefault(shard, []).append(encode_operation(op))
            self._flush(relation, pending, staged, client, timeout=timeout)
            if self.cache is not None:
                # Bump *after* every shard committed: a reader that
                # sampled the old token mid-update re-validates before
                # caching, so the old answer can be served (that read
                # serializes before the update) but never re-cached
                # under the new epoch.
                self.cache.bump(relation)
            self.metrics.counter("router_updates_total", client=client).inc()
        finally:
            self._exit()

    def _owner(
        self,
        relation: str,
        key: Any,
        overlay: Mapping[tuple[str, Any], int | None] | None = None,
    ) -> int:
        shard: int | None
        if overlay is not None and (relation, key) in overlay:
            shard = overlay[(relation, key)]
        else:
            with self._directory_lock:
                shard = self._directory.get((relation, key))
        if shard is None:
            raise ClusterError(
                f"no shard owns {relation!r} key {key!r} "
                f"(unknown key, or insert never routed through this router)"
            )
        return shard

    def _flush(
        self,
        relation: str,
        pending: dict[int, list[dict[str, Any]]],
        staged: dict[int, list[tuple[Any, int | None]]],
        client: str,
        only: set[int] | None = None,
        timeout: float | None = None,
    ) -> None:
        shards = [
            shard for shard in pending
            if pending[shard] and (only is None or shard in only)
        ]
        if not shards:
            return
        results, failures = self._scatter_updates(
            shards, relation, pending, client, timeout
        )
        for shard in shards:
            if shard in results:
                self.metrics.counter(
                    "shard_updates_total", shard=str(shard)
                ).inc(len(pending[shard]))
                # The shard acknowledged its batch: its staged
                # directory entries are now true and safe to commit
                # (in operation order — an insert/delete pair on one
                # key nets out correctly).
                entries = staged.pop(shard, ())
                if entries:
                    with self._directory_lock:
                        for key, owner in entries:
                            if owner is None:
                                self._directory.pop((relation, key), None)
                            else:
                                self._directory[(relation, key)] = owner
            else:
                staged.pop(shard, None)
            pending[shard] = []
        if failures:
            shard, exc = next(iter(failures.items()))
            raise exc

    def _scatter_updates(
        self,
        shards: list[int],
        relation: str,
        pending: Mapping[int, list[dict[str, Any]]],
        client: str,
        timeout: float | None = None,
    ) -> tuple[dict[int, Any], dict[int, Exception]]:
        results: dict[int, Any] = {}
        failures: dict[int, Exception] = {}

        def leg(shard: int) -> None:
            try:
                # Through the replica set: the batch gets its epoch,
                # lands on the (possibly just-promoted) primary, and is
                # shipped to replicas before the ack comes back.
                results[shard] = self.shards[shard].apply_update(
                    relation, pending[shard], client=client, timeout=timeout,
                )
            except (RpcError, ReplicationError) as exc:
                failures[shard] = exc

        if len(shards) == 1:
            leg(shards[0])
            return results, failures
        threads = [
            threading.Thread(target=leg, args=(shard,), daemon=True)
            for shard in shards
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results, failures

    def _move(
        self,
        relation: str,
        update: Update,
        source: int,
        target: int,
        client: str,
        timeout: float | None = None,
    ) -> None:
        """Move one tuple across a partition boundary.

        Fetch the current values from the owner, insert the changed
        tuple on the new owner, then delete the original — each half a
        normal maintained transaction on its shard, so both shards'
        views see the move as the insert/delete pair it logically is.
        Insert-first ordering is deliberate: if the target insert fails
        the tuple is still intact on the source and the directory is
        untouched; a failure *after* the insert leaves a transient
        duplicate (recoverable — the directory already points at the
        authoritative new copy) rather than a lost tuple.  The moved
        tuple keeps its key (the directory is keyed by it), so the
        target's schema check rejects a move that also changes the key
        field before anything moves.
        """
        key = update.key
        fetched = self.shards[source].call_primary(
            "fetch", relation=relation, key=encode_value(key), timeout=timeout,
        )
        values = fetched.get("values")
        if values is None:
            raise ClusterError(
                f"move of {relation!r} key {key!r}: tuple missing on shard "
                f"{source} (directory out of sync)"
            )
        moved = Record(key, {**decode_fields(values), **update.changes})
        # Both halves go through the replica sets so the move is
        # shipped to replicas like any other committed batch.
        self.shards[target].apply_update(
            relation, [encode_operation(Insert(moved))], client=client,
            timeout=timeout,
        )
        with self._directory_lock:
            self._directory[(relation, key)] = target
        self.shards[source].apply_update(
            relation, [encode_operation(Delete(key))], client=client,
            timeout=timeout,
        )
        self.metrics.counter("cross_shard_moves_total", relation=relation).inc()
        self.metrics.counter("shard_updates_total", shard=str(source)).inc()
        self.metrics.counter("shard_updates_total", shard=str(target)).inc()

    # ------------------------------------------------------------------
    # cluster refresh epochs
    # ------------------------------------------------------------------
    def refresh_epoch(self, timeout: float | None = None) -> bool:
        """One cluster-wide deferred-refresh epoch, coalesced.

        The leader scatters ``refresh`` to every shard's replica set
        (each shard's SharedDeltaPlanner folds its partition's net
        change exactly once; a dead primary is failed over first);
        concurrent callers wait on the in-flight epoch instead of
        stacking duplicate scatters, then return ``False``.

        Two failure rules keep the epoch honest under crashes:

        * a shard whose *every* member is gone does not veto the
          epoch — the survivors converge and the lost legs are counted
          in ``refresh_leg_failures_total``; only a scatter with *no*
          surviving leg raises;
        * a follower that wakes to find the epoch count unchanged knows
          its leader died mid-epoch and loops back to take over the
          leadership instead of reporting an epoch that never happened.
        """
        self._enter()
        try:
            while True:
                with self._epoch_lock:
                    epochs_seen = self.epochs
                    event = self._epoch_inflight
                    if event is None:
                        event = threading.Event()
                        self._epoch_inflight = event
                        leading = True
                    else:
                        leading = False
                if leading:
                    try:
                        results, failures = self._scatter_refresh(timeout)
                        if not results:
                            shard, exc = next(iter(failures.items()))
                            raise exc
                        for shard in failures:
                            self.metrics.counter(
                                "refresh_leg_failures_total", shard=str(shard)
                            ).inc()
                        with self._epoch_lock:
                            self.epochs += 1
                        self.metrics.counter("cluster_refresh_epochs_total").inc()
                    finally:
                        with self._epoch_lock:
                            self._epoch_inflight = None
                        event.set()
                    return True
                with self._epoch_lock:
                    self.coalesced_waits += 1
                self.metrics.counter("cluster_refresh_coalesced_total").inc()
                event.wait()
                with self._epoch_lock:
                    advanced = self.epochs > epochs_seen
                if advanced:
                    return False
                # The leader failed without completing the epoch; take
                # over rather than pretending a refresh happened.

        finally:
            self._exit()

    def _scatter_refresh(
        self, timeout: float | None
    ) -> tuple[dict[int, Any], dict[int, Exception]]:
        results: dict[int, Any] = {}
        failures: dict[int, Exception] = {}

        def leg(shard: int) -> None:
            try:
                results[shard] = self.shards[shard].refresh(timeout=timeout)
            except (RpcError, ReplicationError) as exc:
                failures[shard] = exc

        threads = [
            threading.Thread(target=leg, args=(shard,), daemon=True)
            for shard in self.shard_map.all_shards()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results, failures

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Cluster + per-shard planner counters (epoch accounting)."""
        self._enter()
        try:
            results, failures = self._scatter(self.shard_map.all_shards(), "stats")
            return {
                "epochs": self.epochs,
                "coalesced_waits": self.coalesced_waits,
                "shards": {
                    shard: results.get(shard, {"error": str(failures.get(shard))})
                    for shard in self.shard_map.all_shards()
                },
            }
        finally:
            self._exit()

    def cluster_metrics(self) -> dict[str, Any]:
        """One v1 export: every shard registry merged, plus the router's.

        Counters sum, gauges report their worst shard, histograms merge
        bucket-by-bucket — see :func:`repro.cluster.metrics
        .aggregate_metrics`.
        """
        self._enter()
        try:
            results, failures = self._scatter(self.shard_map.all_shards(), "metrics")
            if failures:
                shard, exc = next(iter(failures.items()))
                raise exc
            exports = [results[shard] for shard in sorted(results)]
            exports.append(self.metrics.to_dict())
            return aggregate_metrics(exports)
        finally:
            self._exit()

    def shard_metrics(self) -> dict[int, dict[str, Any]]:
        """The raw per-shard exports, keyed by shard id."""
        self._enter()
        try:
            results, failures = self._scatter(self.shard_map.all_shards(), "metrics")
            if failures:
                shard, exc = next(iter(failures.items()))
                raise exc
            return dict(sorted(results.items()))
        finally:
            self._exit()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, drain_timeout: float = 30.0) -> None:
        """Drain, stop every worker, reap the processes.  Idempotent.

        New requests are refused immediately; in-flight requests get
        ``drain_timeout`` seconds to finish before the shutdown frames
        go out, so a worker is never killed mid-request.  Workers that
        ignore the protocol (wedged, already broken pipe) are
        terminated — nothing is left orphaned for the shell to reap.
        """
        with self._flight_cond:
            if self._closed:
                return
            self._closing = True
            self._flight_cond.wait_for(
                lambda: self._inflight == 0, timeout=drain_timeout
            )
            self._closed = True
        # The supervisor stops first so no respawn can race the reap:
        # after stop() returns, the member lists are final and every
        # process ever forked — original, promoted, respawned — is in
        # them.
        if self.supervisor is not None:
            self.supervisor.stop()
        for replica_set in self.shards:
            replica_set.close(rpc_timeout=min(self.rpc_timeout, 10.0))

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
