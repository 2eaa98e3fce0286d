"""The view server: many views, one database, live traffic.

:class:`ViewServer` is the serving layer over
:class:`~repro.engine.database.Database`.  It hosts any number of
named views (each under its own maintenance strategy), applies update
transactions from logical clients, answers view queries, and around
every request:

* attributes the request's :class:`~repro.storage.pager.CostMeter`
  delta to per-view / per-strategy / per-client metrics (in modelled
  milliseconds, so measurements line up with the paper's formulas),
* lets the :class:`~repro.service.scheduler.RefreshScheduler` decide
  whether a deferred view folds its backlog now, later, or in
  background "idle time",
* feeds the :class:`~repro.service.router.AdaptiveRouter`, which may
  migrate a view to a cheaper strategy as the observed workload
  drifts.

Concurrency follows a striped reader-writer discipline (the full
write-up is ``docs/performance.md``):

* a **world** :class:`~repro.concurrency.RWLock` — request paths hold
  the read side, admin operations (migrations, checkpoints, recovery,
  repairs, registration) the write side;
* **striped** per-relation and per-view locks from a
  :class:`~repro.concurrency.LockManager`, acquired in one canonical
  sorted order (relations before views): updates and refresh epochs
  take the write side of the relation they fold plus the views they
  rewrite, while read-only queries on a fresh view share read locks —
  so queries against distinct views proceed concurrently and readers
  of one fresh view never block each other;
* one **engine mutex** serializing the short sections that touch the
  shared buffer pool and cost meter, with per-section meter deltas
  summed into a per-request cost box (a global before/after diff would
  misattribute cost across concurrent requests).

Deferred refreshes run through a
:class:`~repro.maintenance.planner.SharedDeltaPlanner`: one net-change
read per relation per epoch, fanned out to every dependent view, with
concurrent requests against the same stale relation coalescing onto a
single in-flight refresh.  An optional
:class:`~repro.service.cache.QueryResultCache` (off by default) serves
repeat queries of unchanged views without touching the engine, and an
optional pacing factor realizes modelled milliseconds as wall-clock
sleeps taken outside the engine mutex — which is what lets the
parallel benchmark's threads overlap their modelled I/O waits.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.concurrency import LockManager, Pacer, RWLock
from repro.core.parameters import PAPER_DEFAULTS, Parameters
from repro.core.strategies import Strategy
from repro.engine.database import CatalogError, Database, ViewMaintenanceError
from repro.engine.transaction import Transaction
from repro.hr.differential import HypotheticalRelation
from repro.maintenance.planner import SharedDeltaPlanner
from repro.resilience.degradation import (
    DegradedResult,
    describe_failure,
    qm_fallback_answer,
)
from repro.resilience.faults import FaultProfile
from repro.resilience.policy import RESILIENCE_ERRORS, ResilienceConfig
from repro.resilience.scrub import (
    ScrubReport,
    classify_file,
    scrub_database,
    view_files,
)
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from .cache import QueryResultCache
from .metrics import MetricsRegistry
from .router import AdaptiveRouter
from .scheduler import RefreshPolicy, RefreshScheduler, StalenessReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.checkpoint import CheckpointInfo
    from repro.durability.manager import DurabilityManager

__all__ = ["ViewServer", "ServedView"]

#: Failure classes the server degrades on (everything the resilience
#: layer detects, plus the engine's post-commit view-maintenance wrap).
DEGRADABLE_ERRORS = RESILIENCE_ERRORS + (ViewMaintenanceError,)

_BREAKER_STATE_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

ViewDefinition = SelectProjectView | JoinView | AggregateView


@dataclass
class ServedView:
    """Catalog entry the server keeps per hosted view."""

    definition: ViewDefinition
    #: Whether the adaptive router may migrate this view.
    adaptive: bool
    queries: int = 0
    updates_seen: int = 0


class _CostBox:
    """Per-request accumulator of engine-section meter deltas."""

    __slots__ = ("ms",)

    def __init__(self) -> None:
        self.ms = 0.0

    def add(self, ms: float) -> None:
        self.ms += ms


class ViewServer:
    """Serve interleaved update/query traffic over many views."""

    def __init__(
        self,
        database: Database,
        params: Parameters | None = None,
        router: AdaptiveRouter | None = None,
        scheduler: RefreshScheduler | None = None,
        registry: MetricsRegistry | None = None,
        resilience: ResilienceConfig | None = None,
        cache: QueryResultCache | None = None,
        pacing: float = 0.0,
        lock_timeout: float | None = None,
    ) -> None:
        self.database = database
        #: Cost constants used to convert meter deltas to milliseconds.
        self.params = params or PAPER_DEFAULTS
        self.router = router
        self.scheduler = scheduler or RefreshScheduler()
        self.metrics = registry or MetricsRegistry()
        self._catalog: dict[str, ServedView] = {}
        #: World lock: request paths read, admin operations write.
        self._world = RWLock("world")
        #: Striped per-relation ("rel:<name>") and per-view
        #: ("view:<name>") locks; sorted acquisition puts relations
        #: before views, the fixed lock-ordering discipline.
        self._locks = LockManager()
        #: Serializes engine sections (shared buffer pool + cost meter).
        self._engine_lock = threading.RLock()
        #: Guards serving-layer state dicts (catalog counters,
        #: degraded/missed/repair bookkeeping).
        self._state_lock = threading.RLock()
        self._lock_timeout = lock_timeout
        #: Shared-delta refresh planning (grouping + coalescing).
        self.planner = SharedDeltaPlanner(database)
        #: Optional versioned query-result cache (None = disabled, the
        #: paper-faithful default: every query pays its metered I/O).
        self.cache = cache
        #: Wall seconds per modelled millisecond; zero disables pacing.
        self.pacer = Pacer(pacing)
        #: Durability manager (WAL + checkpoints), armed by
        #: :meth:`attach_durability` or :meth:`open`.
        self.durability: "DurabilityManager | None" = None
        #: Degradation policy; defaults to whatever the engine was
        #: built with, so one config object drives the whole stack.
        self.resilience = (
            resilience if resilience is not None else database.resilience_config
        )
        #: Views currently serving degraded (view -> reason).
        self._degraded: dict[str, str] = {}
        #: Committed updates each degraded view has missed since
        #: degrading (feeds the stale-read staleness bound).
        self._missed_updates: dict[str, int] = {}
        #: Queued background repairs (view -> repair info dict).
        self._pending_repairs: dict[str, dict[str, Any]] = {}
        #: Base-relation or AD damage: escalate to checkpoint+WAL recovery.
        self._needs_recovery = False
        self._repairing = False
        #: Database factory for recovery repairs (set by :meth:`open`).
        self._database_factory: Any = None
        self._hook_disk_events(database)

    def _hook_disk_events(self, database: Database) -> None:
        resilient = database.resilient_disk
        if resilient is not None:
            resilient.listener = self._on_disk_event

    def _on_disk_event(self, event: str, **info: Any) -> None:
        """Metrics bridge for the resilient disk's retry/breaker events."""
        if event == "retry":
            self.metrics.counter("disk_retries_total", file=info["file"]).inc()
        elif event == "give_up":
            self.metrics.counter("disk_giveups_total", file=info["file"]).inc()
        elif event == "transition":
            self.metrics.counter(
                "breaker_transitions_total",
                file=info["file"],
                from_state=info["old"],
                to_state=info["new"],
            ).inc()
            self.metrics.gauge("breaker_state", file=info["file"]).set(
                _BREAKER_STATE_LEVELS[info["new"]]
            )

    @classmethod
    def open(
        cls,
        state_dir: Any,
        params: Parameters | None = None,
        router: AdaptiveRouter | None = None,
        scheduler: RefreshScheduler | None = None,
        registry: MetricsRegistry | None = None,
        default_config: dict[str, Any] | None = None,
        fsync_every: int = 1,
        checkpoint_every: int | None = None,
        fault_profile: FaultProfile | None = None,
        resilience: ResilienceConfig | None = None,
        cache: QueryResultCache | None = None,
        pacing: float = 0.0,
    ) -> "ViewServer":
        """Open a server over a durability state directory.

        Recovers whatever the directory holds (checkpoint restore + WAL
        replay), re-registers every recovered view with its saved policy
        and counters, arms write-ahead journaling, and exports recovery
        metrics (``recovery_replay_records``, ``recovery_ms``).  A fresh
        directory yields an empty server — register views as usual and
        they are journaled from the first operation.

        ``fault_profile``/``resilience`` rebuild the recovered engine
        with the same injection and retry/breaker disk stack the live
        instance uses (faults come back *disarmed*; arm them once the
        serving loop is ready).
        """
        from repro.durability.manager import DurabilityManager

        manager = DurabilityManager(state_dir, fsync_every=fsync_every)

        def factory(config: dict[str, Any]) -> Database:
            return Database(
                fault_profile=fault_profile, resilience=resilience, **config
            )

        start = time.perf_counter()
        db, report, service_state = manager.open(
            default_config, database_factory=factory
        )
        wall_ms = (time.perf_counter() - start) * 1000.0
        server = cls(
            db, params=params, router=router, scheduler=scheduler,
            registry=registry, resilience=resilience, cache=cache, pacing=pacing,
        )
        server.durability = manager
        server._database_factory = factory
        saved = service_state or {}
        if checkpoint_every is None:
            checkpoint_every = saved.get("checkpoint_every")
        server.scheduler.set_checkpoint_every(checkpoint_every)
        view_state = saved.get("views", {})
        for name, impl in db.views.items():
            state = view_state.get(name, {})
            entry = ServedView(db.view_definition(name), state.get("adaptive", True))
            entry.queries = state.get("queries", 0)
            entry.updates_seen = state.get("updates_seen", 0)
            server._catalog[name] = entry
            policy_doc = state.get("policy")
            policy = (
                RefreshPolicy(policy_doc["kind"], every=policy_doc.get("every", 1))
                if policy_doc
                else RefreshPolicy.on_demand()
            )
            server.scheduler.set_policy(name, policy)
            server._set_strategy_gauge(name, impl.strategy)
        server.metrics.counter("recoveries_total").inc()
        server.metrics.gauge("recovery_replay_records").set(report.replay_records)
        server.metrics.gauge("recovery_ms").set(report.milliseconds(server.params))
        server.metrics.gauge("recovery_wall_ms").set(wall_ms)
        server.metrics.gauge("recovery_full_recomputes").set(
            report.full_recomputes_during_replay
        )
        server._update_durability_gauges()
        return server

    # ------------------------------------------------------------------
    # locking plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _engine(self, box: _CostBox | None = None) -> Iterator[None]:
        """One engine section: exclusive pool/meter access, metered.

        The meter delta is taken inside the mutex (so it belongs to
        exactly this request) and, when pacing is enabled, realized as
        a wall sleep *after* the mutex is released — the caller still
        holds its striped locks, so concurrent requests on other views
        sleep through their modelled I/O simultaneously.
        """
        ms = 0.0
        with self._engine_lock:
            meter = self.database.meter
            before = meter.snapshot()
            try:
                yield
            finally:
                ms = meter.diff(before).milliseconds(self.params)
                if box is not None:
                    box.add(ms)
        self.pacer.pace(ms)

    @staticmethod
    def _sources_of(definition: ViewDefinition) -> tuple[str, ...]:
        if isinstance(definition, JoinView):
            return (definition.outer, definition.inner)
        return (definition.relation,)

    @staticmethod
    def _rel_locks(relations: Any) -> list[str]:
        return [f"rel:{name}" for name in relations]

    @staticmethod
    def _view_locks(views: Any) -> list[str]:
        return [f"view:{name}" for name in views]

    def _deferred_siblings(self, relation: str) -> list[str]:
        names = []
        for name in self.database.views_on(relation):
            impl = self.database.views.get(name)
            if impl is not None and impl.strategy is Strategy.DEFERRED:
                names.append(name)
        return names

    def _fold_lock_sets(self, relation: str) -> tuple[list[str], list[str]]:
        """Relations and views a fold of one relation may touch.

        The relation itself, every deferred sibling view it feeds, and
        those views' other source relations (a two-sided deferred join
        folds its inner relation's AD during the same refresh).
        """
        views = self._deferred_siblings(relation)
        relations = {relation}
        for name in views:
            impl = self.database.views.get(name)
            if impl is not None:
                relations.update(self._sources_of(impl.definition))
        return sorted(relations), views

    def _refresh_runner(self, relation: str, box: _CostBox):
        """Wrap a planner refresh in striped locks + an engine section."""

        def run(work: Any) -> None:
            relations, views = self._fold_lock_sets(relation)
            with self._locks.acquire(
                writes=self._rel_locks(relations) + self._view_locks(views),
                timeout=self._lock_timeout,
            ):
                with self._engine(box):
                    work()

        return run

    # ------------------------------------------------------------------
    # durability surface
    # ------------------------------------------------------------------
    def attach_durability(
        self, manager: "DurabilityManager", checkpoint_every: int | None = None
    ) -> None:
        """Arm write-ahead journaling on a live server.

        Operations from here on are journaled; take a :meth:`checkpoint`
        right after attaching so recovery never has to replay the
        pre-durability bootstrap (which is not in the log).
        """
        with self._world.write():
            self.durability = manager
            manager.attach(self.database)
            self.scheduler.set_checkpoint_every(checkpoint_every)
            self._update_durability_gauges()

    def checkpoint(self) -> "CheckpointInfo":
        """Snapshot engine + serving state, truncating the WAL behind it."""
        with self._world.write():
            manager = self._require_durability()
            start = time.perf_counter()
            info = manager.checkpoint(self.database, self._service_state())
            duration_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.counter("checkpoints_total").inc()
            self.metrics.histogram("checkpoint_duration_ms").observe(duration_ms)
            self.metrics.gauge("checkpoint_bytes").set(info.bytes_written)
            self.scheduler.note_checkpoint()
            self._update_durability_gauges()
            return info

    def shutdown(self) -> None:
        """Graceful stop: final checkpoint, then seal the WAL.

        Idempotent — a second call is a no-op — and the durability
        resources are released (WAL sealed, journaling detached) even
        when the final checkpoint raises; the error still propagates so
        the caller knows the last snapshot is missing, but recovery can
        replay the sealed WAL regardless.
        """
        with self._world.write():
            manager = self.durability
            if manager is None:
                return
            try:
                self.checkpoint()
            finally:
                self.durability = None
                self.database.attach_journal(None)
                manager.close()

    # ------------------------------------------------------------------
    # catalog surface
    # ------------------------------------------------------------------
    def register_view(
        self,
        definition: ViewDefinition,
        strategy: Strategy,
        adaptive: bool = True,
        policy: RefreshPolicy | None = None,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
        charge_setup: bool = False,
    ) -> None:
        """Host a view under a strategy and (optionally) a refresh policy.

        Setup I/O (materializing the initial copy) is reported in the
        ``view_setup_ms`` metric; unless ``charge_setup`` it is then
        cleared from the database meter, mirroring the paper's practice
        of excluding initial materialization from per-query costs.
        """
        with self._world.write():
            meter = self.database.meter
            before = meter.snapshot()
            self.database.define_view(
                definition, strategy,
                plan=plan, index_field=index_field, refresh_every=refresh_every,
            )
            setup = meter.diff(before)
            self._catalog[definition.name] = ServedView(definition, adaptive)
            self.scheduler.set_policy(
                definition.name, policy or RefreshPolicy.on_demand()
            )
            # define_view charges materialization to the meter's setup
            # bucket, so the workload counters are already untouched.
            self.metrics.gauge("view_setup_ms", view=definition.name).set(
                setup.setup_milliseconds(self.params)
            )
            self._set_strategy_gauge(definition.name, strategy)
            if charge_setup:
                # Fold exactly this view's setup delta into the workload
                # counters (earlier bucket contents stay in the bucket).
                meter.page_reads += setup.setup_page_reads
                meter.page_writes += setup.setup_page_writes
                meter.screens += setup.setup_screens
                meter.ad_ops += setup.setup_ad_ops
                meter.setup_page_reads -= setup.setup_page_reads
                meter.setup_page_writes -= setup.setup_page_writes
                meter.setup_screens -= setup.setup_screens
                meter.setup_ad_ops -= setup.setup_ad_ops

    def views(self) -> tuple[str, ...]:
        return tuple(self._catalog)

    def definition_of(self, name: str) -> ViewDefinition:
        return self._entry(name).definition

    def strategy_of(self, name: str) -> Strategy:
        impl = self.database.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        return impl.strategy

    # ------------------------------------------------------------------
    # traffic surface
    # ------------------------------------------------------------------
    def apply_update(self, txn: Transaction, client: str = "anon") -> None:
        """Apply one update transaction and run the post-update hooks.

        The transaction's own cost lands in ``update_ms`` per affected
        view's strategy; background refreshes triggered by async
        policies are measured separately (``background_refresh_ms``) —
        they model idle-time work off the request's critical path.

        The apply itself runs under the transaction relation's write
        lock plus the affected views' write locks; a base-path failure
        escalates to checkpoint+WAL recovery under the exclusive world
        lock (the transaction was journaled before any page was
        touched, so it is not lost).
        """
        box = _CostBox()
        with self._world.read(self._lock_timeout):
            status, failure = self._apply_locked(txn, box)
        if status == "recover":
            with self._world.write(self._lock_timeout):
                recovered = self._recover_from_durability("update")
            if not recovered:
                assert failure is not None
                raise failure
        with self._world.read(self._lock_timeout):
            routed = self._apply_bookkeeping(txn, client, box)
        self._post_request(routed_views=routed)

    def _apply_locked(
        self, txn: Transaction, box: _CostBox
    ) -> tuple[str, Exception | None]:
        affected = self.database.views_on(txn.relation)
        lock_names = self._rel_locks([txn.relation]) + self._view_locks(affected)
        with self._locks.acquire(writes=lock_names, timeout=self._lock_timeout):
            try:
                with self._engine(box):
                    self.database.apply_transaction(txn)
                    self._settle_if_no_deferred(txn.relation)
            except ViewMaintenanceError as exc:
                # The base mutation committed; only the named views'
                # stored copies are suspect.  Degrade them and move on.
                if self.resilience is None:
                    raise
                for view_name, view_exc in exc.failures:
                    reason, file = describe_failure(view_exc)
                    self._mark_degraded(view_name, f"update:{reason}", file)
                self.metrics.counter(
                    "update_maintenance_failures_total", relation=txn.relation
                ).inc()
            except DEGRADABLE_ERRORS as exc:
                # Base-path failure.  The transaction was journaled
                # *before* any page was touched, so checkpoint+WAL
                # recovery replays it in full — the update is not lost.
                if self.resilience is None:
                    raise
                self.metrics.counter(
                    "update_base_failures_total", relation=txn.relation
                ).inc()
                return "recover", exc
            if self.cache is not None:
                self.cache.bump(txn.relation)
        return "ok", None

    def _apply_bookkeeping(
        self, txn: Transaction, client: str, box: _CostBox
    ) -> tuple[str, ...]:
        """Post-commit accounting; runs on the (possibly recovered) engine."""
        affected = self.database.views_on(txn.relation)
        with self._state_lock:
            for name in self._degraded:
                if name in affected:
                    self._missed_updates[name] = self._missed_updates.get(name, 0) + 1
        self.metrics.counter("updates_total", client=client).inc()
        self.metrics.histogram("update_ms", relation=txn.relation).observe(box.ms)
        routed: list[str] = []
        for name in affected:
            entry = self._catalog.get(name)
            if entry is None:
                continue
            with self._state_lock:
                entry.updates_seen += 1
            if self.router is not None and entry.adaptive:
                self.router.observe_update(name, len(txn))
                routed.append(name)
        self._run_background_refreshes(txn.relation, affected)
        self._note_relation_health(txn.relation)
        return tuple(routed)

    def query(self, name: str, lo: Any = None, hi: Any = None, client: str = "anon") -> Any:
        """Answer a view query under the view's strategy and policy.

        A deferred view whose periodic policy says "not yet" serves the
        stale stored copy directly (staleness is tracked and exported);
        every other path goes through the strategy's own ``query``.

        With a resilience config installed, a failure of the normal
        path (checksum mismatch, exhausted retries, open breaker)
        degrades instead of raising: the answer is served via
        query-modification fallback or a bounded-staleness stale read,
        wrapped in a :class:`~repro.resilience.degradation.DegradedResult`
        naming the reason and the bound, and a background repair is
        queued.  Only when every rung fails does the query raise.

        When a :class:`~repro.service.cache.QueryResultCache` is
        installed, a fresh answer whose source relations' epochs are
        unchanged is served straight from the cache without touching
        the engine.
        """
        entry = self._entry(name)
        box = _CostBox()
        cached = self._cache_probe(name, entry, lo, hi, client)
        if cached is not None:
            self._post_request(observe_query=(name, lo, hi))
            return cached[0]
        with self._world.read(self._lock_timeout):
            answer, degraded, token = self._query_locked(
                name, entry, lo, hi, client, box
            )
        if self.cache is not None and degraded is None and token is not None:
            self.cache.put(name, lo, hi, token, answer)
        if degraded is None:
            self._post_request(observe_query=(name, lo, hi))
        else:
            self._post_request()
        return answer

    def _cache_probe(
        self, name: str, entry: ServedView, lo: Any, hi: Any, client: str
    ) -> tuple[Any] | None:
        """Serve from the cache when possible; ``None`` means miss."""
        cache = self.cache
        if cache is None:
            return None
        with self._state_lock:
            if name in self._degraded:
                return None
        impl = self.database.views.get(name)
        if impl is None:
            return None
        sources = self._sources_of(entry.definition)
        with self._world.read(self._lock_timeout):
            with self._locks.acquire(
                reads=self._rel_locks(sources), timeout=self._lock_timeout
            ):
                token = cache.epoch_token(sources)
                hit, answer = cache.get(name, lo, hi, token)
        if not hit:
            return None
        with self._state_lock:
            entry.queries += 1
        self.metrics.counter("queries_total", client=client).inc()
        self.metrics.counter("cache_hits_total", view=name).inc()
        self.metrics.histogram(
            "query_ms", view=name, strategy=impl.strategy.value
        ).observe(0.0)
        return (answer,)

    def _query_locked(
        self, name: str, entry: ServedView, lo: Any, hi: Any, client: str, box: _CostBox
    ) -> tuple[Any, DegradedResult | None, Any]:
        impl = self.database.views.get(name)
        with self._state_lock:
            known_degraded = name in self._degraded
            degraded_reason = self._degraded.get(name)
        if impl is None and (self.resilience is None or not known_degraded):
            # Only a degraded, repair-pending view may be missing
            # its engine-side impl (vanished mid-composite-op).
            raise CatalogError(f"unknown view {name!r}")
        strategy = impl.strategy if impl is not None else None
        strategy_label = strategy.value if strategy is not None else "unavailable"
        sources = self._sources_of(entry.definition)
        exclusive = self._rel_locks(sources) + self._view_locks([name])
        degraded: DegradedResult | None = None
        token = None
        try:
            if self.resilience is not None and known_degraded:
                # Known-bad view: don't poke the broken machinery
                # (and its breakers) again until repair clears it.
                with self._locks.acquire(
                    writes=exclusive, timeout=self._lock_timeout
                ):
                    degraded = self._serve_degraded(
                        name, entry, impl, lo, hi, degraded_reason, box
                    )
                answer = degraded
            else:
                assert impl is not None and strategy is not None
                try:
                    answer, token = self._query_normal(
                        name, entry, impl, strategy, lo, hi, sources, box
                    )
                except DEGRADABLE_ERRORS as exc:
                    if self.resilience is None:
                        raise
                    reason, file = describe_failure(exc)
                    self._degrade_with_siblings(name, reason, file)
                    with self._locks.acquire(
                        writes=exclusive, timeout=self._lock_timeout
                    ):
                        degraded = self._serve_degraded(
                            name, entry, impl, lo, hi, reason, box
                        )
                    answer = degraded
        finally:
            with self._state_lock:
                entry.queries += 1
            self.metrics.counter("queries_total", client=client).inc()
            self.metrics.histogram(
                "query_ms", view=name, strategy=strategy_label
            ).observe(box.ms)
        return answer, degraded, token

    def _query_normal(
        self,
        name: str,
        entry: ServedView,
        impl: Any,
        strategy: Strategy,
        lo: Any,
        hi: Any,
        sources: tuple[str, ...],
        box: _CostBox,
    ) -> tuple[Any, Any]:
        """The healthy serving path (strategy + refresh policy).

        Returns ``(answer, cache_token)``; the token is non-None only
        when the answer is *fresh* (reflects every update applied so
        far), which is the precondition for caching it.
        """
        refresh_now = self.scheduler.should_refresh_on_query(name)
        shared = self._rel_locks(sources) + self._view_locks([name])
        token = None
        if strategy is Strategy.DEFERRED:
            relation = sources[0]
            if refresh_now:
                # Fold first (one shared-delta epoch, coalesced with any
                # concurrent request on the same relation), then serve
                # the freshly-installed copy under read locks.
                self.planner.refresh(relation, run=self._refresh_runner(relation, box))
            with self._locks.acquire(reads=shared, timeout=self._lock_timeout):
                with self._engine(box):
                    answer = self._stale_read(impl, lo, hi)
                    # A join's inner backlog isn't visible through the
                    # outer HR, so only single-source views qualify.
                    fresh = len(sources) == 1 and impl.relation.ad_entry_count() == 0
                if fresh and self.cache is not None:
                    token = self.cache.epoch_token(sources)
            if refresh_now:
                self.scheduler.note_refreshed(name)
            else:
                self.scheduler.note_stale_answer(name)
        elif strategy.is_query_modification():
            # QM folds pending AD into the base before reading it, which
            # rewrites any deferred siblings too — exclusive locks over
            # the whole fold set.
            relations, views = self._fold_lock_sets(sources[0])
            relations = sorted(set(relations) | set(sources))
            views = sorted(set(views) | {name})
            with self._locks.acquire(
                writes=self._rel_locks(relations) + self._view_locks(views),
                timeout=self._lock_timeout,
            ):
                with self._engine(box):
                    self._settle_for_query_modification(entry.definition)
                    answer = self.database.query_view(name, lo, hi)
                if self.cache is not None:
                    token = self.cache.epoch_token(sources)
        else:
            with self._locks.acquire(reads=shared, timeout=self._lock_timeout):
                with self._engine(box):
                    answer = self.database.query_view(name, lo, hi)
                # Immediate maintenance keeps the copy always-fresh;
                # other materialized variants (snapshot, hybrid) may
                # serve stale and are never cached.
                if strategy is Strategy.IMMEDIATE and self.cache is not None:
                    token = self.cache.epoch_token(sources)
        return answer, token

    def refresh_all_stale(self) -> tuple[str, ...]:
        """One shared-delta epoch over every relation with a backlog.

        The entry point cluster-wide refresh coordination drives: each
        stale relation folds its net change exactly once (concurrent
        callers coalesce through the planner as usual), and the names
        of the relations actually refreshed are returned so the caller
        can account epochs.  Relations with an empty backlog cost
        nothing.
        """
        refreshed: list[str] = []
        with self._world.read(self._lock_timeout):
            for relation, views in sorted(self.planner.groups().items()):
                if self.planner.pending(relation) == 0:
                    continue
                box = _CostBox()
                if self.planner.refresh(
                    relation, run=self._refresh_runner(relation, box)
                ):
                    refreshed.append(relation)
                    self.metrics.histogram(
                        "refresh_epoch_ms", relation=relation
                    ).observe(box.ms)
                    for name in views:
                        self.scheduler.note_refreshed(name)
        return tuple(refreshed)

    def _serve_degraded(
        self,
        name: str,
        entry: ServedView,
        impl: Any,
        lo: Any,
        hi: Any,
        reason: str,
        box: _CostBox,
    ) -> DegradedResult:
        """Walk the degradation ladder for one query.

        Rung 1 — query-modification fallback: recompute from the
        logical base content (needs no materialized state; fresh, bound
        0).  Rung 2 — bounded-staleness stale read of the last good
        materialized copy.  Both rungs failing makes the query
        unavailable: the original failure is re-raised.
        """
        config = self.resilience
        assert config is not None
        try:
            with self._engine(box):
                answer = qm_fallback_answer(self.database, entry.definition, lo, hi)
            mode, bound = "qm_fallback", 0
        except DEGRADABLE_ERRORS as qm_exc:
            bound = self._staleness_bound(name, entry.definition)
            stale_ok = impl is not None and config.degraded_reads and (
                config.staleness_limit is None or bound <= config.staleness_limit
            )
            if not stale_ok:
                self.metrics.counter("unavailable_queries_total", view=name).inc()
                raise qm_exc
            try:
                with self._engine(box):
                    answer = self._stale_read(impl, lo, hi)
            except DEGRADABLE_ERRORS:
                self.metrics.counter("unavailable_queries_total", view=name).inc()
                raise qm_exc from None
            mode = "stale_read"
        self.metrics.counter("degraded_queries_total", view=name, mode=mode).inc()
        if impl is not None:
            strategy_label = impl.strategy.value
        else:  # vanished mid-composite-op; report the repair target
            with self._state_lock:
                target = self._pending_repairs.get(name, {}).get("strategy")
            strategy_label = target.value if target is not None else "unavailable"
        return DegradedResult(
            answer=answer,
            view=name,
            mode=mode,
            reason=reason,
            staleness_bound=bound,
            strategy=strategy_label,
        )

    def _staleness_bound(self, name: str, definition: ViewDefinition) -> int:
        """Updates a degraded view's stored copy may be missing.

        Pending AD entries (the copy's refresh backlog) plus every
        committed update the view has missed since degrading.
        """
        relation_name = (
            definition.outer if isinstance(definition, JoinView)
            else definition.relation
        )
        relation = self.database.relations.get(relation_name)
        pending = 0
        if isinstance(relation, HypotheticalRelation):
            try:
                pending = relation.ad_entry_count()
            except DEGRADABLE_ERRORS:
                # The AD file itself is unreadable; fall back to the
                # last exported health gauge.
                pending = int(
                    self.metrics.gauge("ad_entries", relation=relation_name).value
                )
        with self._state_lock:
            missed = self._missed_updates.get(name, 0)
        return pending + missed

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migrate(self, name: str, strategy: Strategy) -> None:
        """Move a view to another strategy, pricing the migration."""
        with self._world.write():
            old = self.strategy_of(name)
            if old is strategy:
                return
            meter = self.database.meter
            before = meter.snapshot()
            try:
                self.database.migrate_view(name, strategy)
            except DEGRADABLE_ERRORS as exc:
                if self.resilience is None:
                    raise
                reason, file = describe_failure(exc)
                self.metrics.counter("migration_failures_total", view=name).inc()
                if name not in self.database.views:
                    # The fault hit between the migration's drop and its
                    # re-define: the view vanished from the catalog.
                    # The composite "migrate" WAL record (journaled
                    # before the drop) replays the whole migration, so
                    # the live repair restores under the *target*
                    # strategy, unjournaled.
                    self._pending_repairs[name] = {
                        "kind": "redefine",
                        "definition": self._entry(name).definition,
                        "strategy": strategy,
                    }
                self._degrade_with_siblings(name, f"migrate:{reason}", file)
                self._run_repairs()
                return
            ms = meter.diff(before).milliseconds(self.params)
            self.metrics.counter(
                "strategy_switches_total",
                view=name, from_strategy=old.value, to_strategy=strategy.value,
            ).inc()
            self.metrics.histogram("migration_ms", view=name).observe(ms)
            self._set_strategy_gauge(name, strategy)

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------
    def staleness(self, name: str) -> StalenessReport:
        """How far behind the live relation a view's answers may be."""
        with self._world.read(self._lock_timeout):
            entry = self._entry(name)
            definition = entry.definition
            relation_name = (
                definition.outer if isinstance(definition, JoinView)
                else definition.relation
            )
            relation = self.database.relations[relation_name]
            pending = (
                relation.ad_entry_count()
                if isinstance(relation, HypotheticalRelation)
                else 0
            )
            if self.strategy_of(name).is_query_modification():
                pending = 0  # recomputation always sees the true relation
            return StalenessReport(
                view=name,
                policy=self.scheduler.policy_of(name).kind,
                pending_ad_entries=pending,
                queries_since_refresh=self.scheduler.queries_since_refresh(name),
            )

    def metrics_dict(self) -> dict[str, Any]:
        return self.metrics.to_dict()

    def metrics_json(self, indent: int | None = 2) -> str:
        return self.metrics.to_json(indent=indent)

    def dashboard(self) -> str:
        return self.metrics.render_dashboard()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> ServedView:
        entry = self._catalog.get(name)
        if entry is None:
            raise CatalogError(f"view {name!r} is not registered with this server")
        return entry

    @staticmethod
    def _query_width(lo: Any, hi: Any) -> float | None:
        try:
            return float(hi - lo + 1) if lo is not None and hi is not None else None
        except TypeError:
            return None

    def _set_strategy_gauge(self, name: str, strategy: Strategy) -> None:
        # One-hot over the strategies this view has ever run under.
        for inst in self.metrics.series("view_strategy"):
            if dict(inst.labels).get("view") == name:
                inst.set(0.0)
        self.metrics.gauge("view_strategy", view=name, strategy=strategy.value).set(1.0)

    def _settle_for_query_modification(self, definition: ViewDefinition) -> None:
        """QM plans read base files — fold any pending AD first."""
        sources = (
            (definition.outer,) if isinstance(definition, JoinView)
            else (definition.relation,)
        )
        for source in sources:
            self.database.settle_relation(source)

    def _stale_read(self, impl: Any, lo: Any, hi: Any) -> Any:
        """Read a deferred view's stored copy without refreshing it."""
        meter = self.database.meter
        if self.database.cold_operations:
            self.database.pool.invalidate_all()
        store = getattr(impl, "store", None)
        if store is not None:  # aggregate: one state-page read
            answer = store.value()
        else:
            lo_b = float("-inf") if lo is None else lo
            hi_b = float("inf") if hi is None else hi
            answer = impl.matview.read_range(lo_b, hi_b)
            meter.record_screen(len(answer))
        self.database.pool.flush_all()
        self.database.queries_answered += 1
        return answer

    def _settle_if_no_deferred(self, relation_name: str) -> None:
        """Fold a hypothetical relation eagerly when nothing defers.

        Keeping relations hypothetical is what lets a view migrate back
        to deferred later, but someone must eventually fold the AD
        backlog.  The timing follows the strategies present:

        * a deferred view exists — its refresh folds (batched, the
          paper's scheme); leave the backlog alone.
        * only query-modification views — fold lazily at query time
          (:meth:`_settle_for_query_modification`), which batches the
          fold exactly like a deferred refresh would.
        * an immediate/snapshot-style materialized view exists (or no
          view at all) — fold now, per transaction: write-through
          semantics, the substrate the immediate cost model assumes.
        """
        relation = self.database.relations.get(relation_name)
        if not isinstance(relation, HypotheticalRelation):
            return
        strategies = set()
        for name in self.database.views_on(relation_name):
            impl = self.database.views.get(name)
            if impl is not None:
                strategies.add(impl.strategy)
        if Strategy.DEFERRED in strategies:
            return
        if strategies and all(s.is_query_modification() for s in strategies):
            return
        self.database.settle_relation(relation_name)

    def _run_background_refreshes(self, relation: str, affected: tuple[str, ...]) -> None:
        """Async-policy views fold their backlog right after the update.

        The work is real and metered (``background_refresh_ms``), but
        kept out of ``update_ms``/``query_ms`` — it models the idle-CPU
        refresh of the paper's Section 4.  Each relation folds once per
        update (the planner's shared-delta epoch covers every sibling).
        """
        refreshed_relations: set[str] = set()
        for name in affected:
            if not self.scheduler.wants_background_refresh(name):
                continue
            impl = self.database.views.get(name)
            if impl is None or impl.strategy is not Strategy.DEFERRED:
                continue
            rel = impl.relation.schema.name
            if rel in refreshed_relations:
                continue  # the shared epoch already refreshed the siblings
            bg_box = _CostBox()
            try:
                self.planner.refresh(rel, run=self._refresh_runner(rel, bg_box))
            except DEGRADABLE_ERRORS as exc:
                if self.resilience is None:
                    raise
                reason, file = describe_failure(exc)
                self._degrade_with_siblings(name, f"refresh:{reason}", file)
                continue
            self.metrics.histogram("background_refresh_ms", view=name).observe(
                bg_box.ms
            )
            self.scheduler.note_refreshed(name)
            refreshed_relations.add(rel)

    def _note_relation_health(self, relation_name: str) -> None:
        relation = self.database.relations.get(relation_name)
        if not isinstance(relation, HypotheticalRelation):
            return
        try:
            entries = relation.ad_entry_count()
            pages = relation.ad_page_count()
        except DEGRADABLE_ERRORS:
            if self.resilience is None:
                raise
            return  # keep the last good gauges
        self.metrics.gauge("ad_entries", relation=relation_name).set(entries)
        self.metrics.gauge("ad_pages", relation=relation_name).set(pages)
        bloom = relation.bloom
        self.metrics.gauge("bloom_fill_fraction", relation=relation_name).set(
            bloom.fill_fraction
        )
        self.metrics.gauge("bloom_negative_rate", relation=relation_name).set(
            bloom.negative_rate
        )

    def _post_request(
        self,
        routed_views: tuple[str, ...] = (),
        observe_query: tuple[str, Any, Any] | None = None,
    ) -> None:
        """Tail-of-request hooks, run after the world read lock drops.

        Router decisions, cadence checkpoints and queued repairs all
        mutate shared state, so they escalate to the world *write* lock
        — but only when actually due (``decision_due`` and the repair
        queue are checked first), so the hot path almost never pays the
        exclusive lock.
        """
        if self.router is not None:
            if observe_query is not None:
                name, lo, hi = observe_query
                entry = self._catalog.get(name)
                if entry is not None and entry.adaptive:
                    self.router.observe_query(name, self._query_width(lo, hi))
                    if self.router.decision_due(name):
                        with self._world.write():
                            self._maybe_route(name)
            for name in routed_views:
                if self.router.decision_due(name):
                    with self._world.write():
                        self._maybe_route(name)
        self._note_durability_op()
        self._note_resilience_gauges()
        self._tail_repairs()

    def _maybe_route(self, name: str) -> None:
        assert self.router is not None
        switch = self.router.maybe_switch(self, name)
        if switch is not None:
            self.metrics.gauge("router_estimated_p", view=name).set(switch.estimated_p)

    def _tail_repairs(self) -> None:
        """Run queued repairs at the tail of a request, exclusively."""
        if self.resilience is None or not self.resilience.repair:
            return
        with self._state_lock:
            due = bool(self._pending_repairs) or self._needs_recovery
        if not due:
            return
        with self._world.write():
            self._run_repairs()

    # ------------------------------------------------------------------
    # durability internals
    # ------------------------------------------------------------------
    def _require_durability(self) -> "DurabilityManager":
        if self.durability is None:
            raise RuntimeError(
                "no durability manager attached; use ViewServer.open() or "
                "attach_durability()"
            )
        return self.durability

    def _service_state(self) -> dict[str, Any]:
        """Serving-layer catalog carried inside each checkpoint."""
        views = {}
        # Checkpoints run under the world write lock, but list() keeps
        # this consistent for any caller outside it too.
        for name, entry in list(self._catalog.items()):
            policy = self.scheduler.policy_of(name)
            views[name] = {
                "adaptive": entry.adaptive,
                "policy": {"kind": policy.kind, "every": policy.every},
                "queries": entry.queries,
                "updates_seen": entry.updates_seen,
            }
        return {
            "views": views,
            "checkpoint_every": self.scheduler.checkpoint_every,
        }

    def _update_durability_gauges(self) -> None:
        """Export the WAL gauges: in-memory counters, no flush or syscall."""
        if self.durability is None:
            return
        wal = self.durability.wal
        self.metrics.gauge("wal_bytes").set(wal.wal_bytes())
        self.metrics.gauge("wal_records").set(wal.records_appended)
        self.metrics.gauge("wal_fsyncs").set(wal.fsyncs)

    def _note_durability_op(self) -> None:
        """Per-request durability tick: cadence checkpointing + gauges."""
        if self.durability is None:
            return
        self.scheduler.note_operation()
        # Known base/differential damage waits for WAL recovery first: a
        # checkpoint now would publish the damaged state as the recovery
        # point, leaving no log behind it to repair from.
        if self.scheduler.should_checkpoint() and not self._needs_recovery:
            try:
                self.checkpoint()
            except DEGRADABLE_ERRORS:
                if self.resilience is None:
                    raise
                # A checkpoint reads base and AD pages only (never the
                # matviews), so a failure here means damage local view
                # rebuilds cannot reach — escalate to WAL recovery.
                self.metrics.counter("checkpoint_failures_total").inc()
                with self._state_lock:
                    self._needs_recovery = True
        else:
            self._update_durability_gauges()

    # ------------------------------------------------------------------
    # resilience internals
    # ------------------------------------------------------------------
    def degraded_views(self) -> dict[str, str]:
        """Views currently serving degraded, with the triggering reason."""
        with self._state_lock:
            return dict(self._degraded)

    def scrub(self) -> ScrubReport:
        """Walk every disk file, verifying page checksums (metered).

        Any damaged view found is marked degraded (its repair is queued
        for the background loop); base-relation or differential damage
        flags the server for checkpoint+WAL recovery.
        """
        with self._world.write():
            report = scrub_database(self.database)
            self.metrics.counter("scrubs_total").inc()
            self.metrics.gauge("scrub_damaged_pages").set(len(report.damage))
            for view_name in report.damaged_views():
                if view_name in self._catalog:
                    self._mark_degraded(view_name, "scrub:checksum", None)
            if report.damaged_relations() and self.durability is not None:
                self._needs_recovery = True
            return report

    def repair(self) -> dict[str, Any]:
        """Run every queued repair now instead of waiting for traffic."""
        with self._world.write():
            restored = self._run_repairs()
            return {
                "restored": restored,
                "still_degraded": dict(self._degraded),
                "needs_recovery": self._needs_recovery,
            }

    def _mark_degraded(self, name: str, reason: str, file: str | None) -> None:
        """Flip a view to degraded service and queue its repair."""
        with self._state_lock:
            if name not in self._catalog:
                return
            if name not in self._degraded:
                self.metrics.counter("degradations_total", view=name).inc()
            self._degraded[name] = reason
            self._missed_updates.setdefault(name, 0)
            self.metrics.gauge("view_degraded", view=name).set(1.0)
            if name not in self._pending_repairs:
                # Snapshot definition + strategy now: if the repair itself
                # faults between its drop and re-define, the catalog entry
                # is gone and this is all that's left to restore from.
                info: dict[str, Any] = {
                    "kind": "rebuild",
                    "definition": self._entry(name).definition,
                }
                impl = self.database.views.get(name)
                if impl is not None:
                    info["strategy"] = impl.strategy
                self._pending_repairs[name] = info
            if file is not None and self.durability is not None:
                kind, _owner = classify_file(self.database, file)
                if kind in ("relation", "differential"):
                    # The damaged file is not the view's own storage; a
                    # local rebuild cannot reach it.
                    self._needs_recovery = True

    def _degrade_with_siblings(self, name: str, reason: str, file: str | None) -> None:
        """Degrade a view and, if it is deferred, its deferred siblings.

        Deferred views over one relation share a coordinator refresh:
        one AD read, one ``apply_net`` per sibling, one fold.  A fault
        mid-refresh can leave *any* sibling's stored copy partially
        updated — not just the queried view's — so every deferred view
        on the relation is suspect and must be rebuilt before its copy
        is trusted again.  (Marking only the queried view lets a
        half-applied sibling serve silently wrong answers forever.)
        """
        with self._state_lock:
            self._mark_degraded(name, reason, file)
            entry = self._catalog.get(name)
            if entry is None:
                return
            definition = entry.definition
            relation = (
                definition.outer if isinstance(definition, JoinView)
                else definition.relation
            )
            impl = self.database.views.get(name)
            if impl is not None and impl.strategy is not Strategy.DEFERRED:
                return
            for sibling in self.database.views_on(relation):
                if sibling == name:
                    continue
                sibling_impl = self.database.views.get(sibling)
                if (
                    sibling_impl is not None
                    and sibling_impl.strategy is Strategy.DEFERRED
                ):
                    self._mark_degraded(sibling, f"sibling:{reason}", file)

    def _clear_degraded(self, name: str) -> None:
        with self._state_lock:
            self._degraded.pop(name, None)
            self._missed_updates.pop(name, None)
            self._pending_repairs.pop(name, None)
        self.metrics.gauge("view_degraded", view=name).set(0.0)

    def _run_repairs(self) -> list[str]:
        """Drain the background repair queue; returns restored views.

        Runs under the exclusive world lock (called at the tail of a
        request or from :meth:`repair`) — repair work models the
        idle-time maintenance of the paper's deferred machinery, and is
        metered like any other work.  Recursion-guarded because repairs
        themselves tick the durability cadence.
        """
        if self.resilience is None or not self.resilience.repair or self._repairing:
            return []
        if not self._pending_repairs and not self._needs_recovery:
            return []
        self._repairing = True
        try:
            if self._needs_recovery:
                degraded = list(self._degraded) or list(self._pending_repairs)
                if self._recover_from_durability("repair"):
                    self._needs_recovery = False
                    return degraded
                return []
            return [
                name for name in list(self._pending_repairs)
                if self._attempt_repair(name)
            ]
        finally:
            self._repairing = False

    def _attempt_repair(self, name: str) -> bool:
        """One background repair: rebuild (or restore), verify, reopen.

        Open breakers on the view's files are probed to half-open first
        (a repair is deliberate, it does not wait out the cool-down);
        a verified rebuild snaps them closed — the breaker-close shows
        up in ``breaker_transitions_total`` like any other transition.
        """
        info = self._pending_repairs.get(name, {"kind": "rebuild"})
        db = self.database
        meter = db.meter
        before = meter.snapshot()
        resilient = db.resilient_disk
        if resilient is not None:
            resilient.probe_open_breakers(list(view_files(name)))
        try:
            if name in db.views:
                db.rebuild_view(name)
            else:
                # Vanished mid-composite-operation (a fault between a
                # migrate's or an earlier repair's drop and re-define).
                # The composite WAL record already covers the re-define
                # on replay, so the restore is unjournaled.
                strategy = info.get("strategy")
                if strategy is None:
                    # Nothing left to restore from locally; the WAL
                    # replay recreates the view if durability is armed.
                    self.metrics.counter("repair_failures_total", view=name).inc()
                    if self.durability is not None:
                        self._needs_recovery = True
                    return False
                db.restore_view(info["definition"], strategy)
            present = [f for f in view_files(name) if f in db.disk.files()]
            recheck = scrub_database(db, files=present)
        except DEGRADABLE_ERRORS:
            self.metrics.counter("repair_failures_total", view=name).inc()
            return False
        if not recheck.ok:
            self.metrics.counter("repair_failures_total", view=name).inc()
            return False
        if resilient is not None:
            for file in view_files(name):
                resilient.reset_file(file)
        ms = meter.diff(before).milliseconds(self.params)
        self._clear_degraded(name)
        if self.cache is not None:
            self.cache.drop_view(name)
        impl = db.views.get(name)
        if impl is not None:
            self._set_strategy_gauge(name, impl.strategy)
        self.metrics.counter("repairs_total", view=name).inc()
        self.metrics.histogram("repair_ms", view=name).observe(ms)
        return True

    def _recover_from_durability(self, trigger: str) -> bool:
        """Rebuild the whole engine from checkpoint + WAL, then swap it in.

        The repair of last resort, for damage local view rebuilds cannot
        reach (base relations, differential files).  The WAL journals
        every transaction *before* it touches a page, so the recovered
        twin holds every committed update — including one whose base
        apply failed halfway.  Returns False (leaving state untouched)
        when no durability manager is attached or recovery itself fails.
        """
        manager = self.durability
        if manager is None:
            return False
        old_faults = self.database.faults
        was_armed = old_faults is not None and old_faults.armed
        factory = self._database_factory
        if factory is None:
            profile = self.database.fault_profile
            config_obj = self.database.resilience_config

            def factory(config: dict[str, Any]) -> Database:
                return Database(
                    fault_profile=profile, resilience=config_obj, **config
                )

        start = time.perf_counter()
        try:
            db, report, _state = manager.open(
                self.database.engine_config(), database_factory=factory
            )
        except Exception:
            self.metrics.counter("recovery_failures_total", trigger=trigger).inc()
            return False
        self.database.attach_journal(None)
        self.database = db
        self.planner = SharedDeltaPlanner(db)
        if self.cache is not None:
            self.cache.clear()
        self._database_factory = factory
        self._hook_disk_events(db)
        new_faults = db.faults
        if was_armed and new_faults is not None:
            new_faults.arm()
        for name in list(self._degraded):
            self._clear_degraded(name)
        with self._state_lock:
            self._pending_repairs.clear()
            self._needs_recovery = False
        for name, impl in db.views.items():
            self._set_strategy_gauge(name, impl.strategy)
        self.metrics.counter("recoveries_total").inc()
        self.metrics.counter("fault_recoveries_total", trigger=trigger).inc()
        self.metrics.gauge("recovery_replay_records").set(report.replay_records)
        self.metrics.gauge("recovery_ms").set(report.milliseconds(self.params))
        self.metrics.gauge("recovery_wall_ms").set(
            (time.perf_counter() - start) * 1000.0
        )
        self._update_durability_gauges()
        return True

    def _note_resilience_gauges(self) -> None:
        """Export the fault-injection and retry/breaker counters."""
        faults = self.database.faults
        if faults is not None:
            for kind, count in faults.injected.items():
                self.metrics.gauge("faults_injected", kind=kind).set(count)
        resilient = self.database.resilient_disk
        if resilient is not None:
            self.metrics.gauge("disk_retries").set(resilient.retries)
            self.metrics.gauge("disk_giveups").set(resilient.gave_up)
            self.metrics.gauge("disk_backoff_ms").set(resilient.backoff_ms)
        if self.resilience is not None:
            self.metrics.gauge("degraded_views").set(len(self._degraded))
