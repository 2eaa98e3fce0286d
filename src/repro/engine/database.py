"""The database engine: catalog, transactions, views, strategies.

:class:`Database` owns the simulated disk and buffer pool, the base
relations (plain clustered, hash-clustered, or hypothetical), any
secondary indexes, and the views with their maintenance strategies.
Transactions applied through :meth:`Database.apply_transaction` update
the base storage and notify every affected view's strategy;
:meth:`Database.query_view` answers a view query under whatever
strategy the view was defined with.

The shared :class:`~repro.storage.pager.CostMeter` prices everything;
``snapshot``/``delta_since`` let harnesses cost individual operations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.parameters import Parameters
from repro.core.strategies import Strategy
from repro.hr.differential import ClusteredRelation, HypotheticalRelation, SeparateFilesHR
from repro.resilience.faults import FaultProfile, FaultyDisk
from repro.resilience.policy import RESILIENCE_ERRORS, ResilienceConfig, ResilientDisk
from repro.storage.pager import BufferPool, CostMeter, SimulatedDisk
from repro.storage.tuples import Record, Schema
from repro.views.definition import AggregateView, JoinView, SelectProjectView
from repro.views.delta import DeltaSet
from repro.views.matview import AggregateStateStore, MaterializedView
from .executor import SecondaryIndex
from .relations import HashedRelation
from .transaction import Delete, Insert, Transaction, Update

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.maintenance.base import MaintenanceStrategy

__all__ = ["Database", "CatalogError", "ViewMaintenanceError"]

BaseRelation = ClusteredRelation | HashedRelation


class CatalogError(ValueError):
    """Invalid catalog operation (unknown names, bad combinations)."""


class ViewMaintenanceError(RuntimeError):
    """One or more views failed to absorb a committed transaction.

    Raised *after* the base relation mutation, index maintenance and
    write-back completed, so the transaction itself is durable; only
    the named views' stored copies are suspect.  The serving layer
    catches this to degrade the affected views and queue repairs.
    Only raised when :attr:`Database.isolate_view_faults` is on —
    without the resilience layer a view fault propagates immediately.
    """

    def __init__(self, failures: list[tuple[str, Exception]]) -> None:
        names = ", ".join(name for name, _ in failures)
        super().__init__(f"view maintenance failed for: {names}")
        self.failures = failures

    @property
    def view_names(self) -> list[str]:
        """The views whose maintenance raised."""
        return [name for name, _ in self.failures]


@contextmanager
def _null_phase():
    """Stand-in for :meth:`CostMeter.setup_phase` when charging workload."""
    yield


class Database:
    """A single-user simulated database instance."""

    def __init__(
        self,
        block_bytes: int = 4000,
        buffer_pages: int = 256,
        fanout: int = 200,
        cold_operations: bool = False,
        fault_profile: FaultProfile | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.block_bytes = block_bytes
        self.fanout = fanout
        self.meter = CostMeter()
        #: The raw page store (faulty when a profile is installed).
        #: Faults start disarmed — callers arm after clean bootstrap.
        if fault_profile is not None and fault_profile.name != "none":
            self.storage_disk: SimulatedDisk = FaultyDisk(self.meter, fault_profile)
        else:
            self.storage_disk = SimulatedDisk(self.meter)
        self.fault_profile = fault_profile
        self.resilience_config = resilience
        if resilience is not None:
            # Detection is a prerequisite for the retry/breaker layer:
            # checksums must be verified on every read.
            self.storage_disk.verify_reads = True
            self.disk: Any = ResilientDisk(
                self.storage_disk,
                retry=resilience.retry,
                failure_threshold=resilience.failure_threshold,
                cooldown_ops=resilience.cooldown_ops,
                half_open_probes=resilience.half_open_probes,
            )
        else:
            self.disk = self.storage_disk
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        #: When True (set whenever a resilience config is installed),
        #: view-maintenance faults during apply_transaction are
        #: collected into :class:`ViewMaintenanceError` *after* the base
        #: mutation and write-back, instead of aborting mid-loop.
        self.isolate_view_faults = resilience is not None
        #: When True, the buffer pool is emptied before each
        #: transaction and each view query — matching the cost model's
        #: cold-cache assumption (every formula charges full I/O).
        self.cold_operations = cold_operations
        self.relations: dict[str, BaseRelation | HypotheticalRelation] = {}
        self.secondary_indexes: dict[tuple[str, str], SecondaryIndex] = {}
        self.views: dict[str, "MaintenanceStrategy"] = {}
        self._views_by_relation: dict[str, list[str]] = {}
        self._deferred_coordinators: dict[str, Any] = {}
        self.transactions_applied = 0
        self.queries_answered = 0
        #: Catalog specs captured for checkpointing (repro.durability):
        #: the create_relation / define_view arguments needed to rebuild
        #: this catalog from persistent state.
        self._relation_specs: dict[str, dict[str, Any]] = {}
        self._view_specs: dict[str, dict[str, Any]] = {}
        #: Write-ahead journal hook.  When set (and not suppressed), the
        #: engine calls ``journal.log(event, payload)`` *before* applying
        #: each state-changing operation.  ``repro.durability`` owns the
        #: serialization; the engine only names the events.
        self.journal: Any = None
        self._journal_suppressed = 0

    @classmethod
    def from_parameters(cls, params: Parameters, **kwargs: Any) -> "Database":
        """Build a database whose block size matches a parameter set."""
        kwargs.setdefault("block_bytes", params.B)
        kwargs.setdefault("fanout", max(3, int(params.fanout)))
        return cls(**kwargs)

    @property
    def faults(self) -> FaultyDisk | None:
        """The fault injector, when one is installed."""
        disk = self.storage_disk
        return disk if isinstance(disk, FaultyDisk) else None

    @property
    def resilient_disk(self) -> ResilientDisk | None:
        """The retry/breaker wrapper, when one is installed."""
        disk = self.disk
        return disk if isinstance(disk, ResilientDisk) else None

    def engine_config(self) -> dict[str, Any]:
        """The sizing arguments this engine was built with.

        What a recovery twin (or the durability manifest) needs to
        rebuild an identically-shaped engine; the fault/resilience
        stack is passed separately since it is runtime policy, not
        persistent state.
        """
        return {
            "block_bytes": self.block_bytes,
            "buffer_pages": self.pool.capacity,
            "fanout": self.fanout,
            "cold_operations": self.cold_operations,
        }

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_relation(
        self,
        schema: Schema,
        clustered_on: str,
        kind: str = "plain",
        records: Iterable[Record] | None = None,
        ad_buckets: int = 64,
        hash_buckets: int | None = None,
    ) -> BaseRelation | HypotheticalRelation:
        """Create (and optionally load) a base relation.

        ``kind`` selects the storage wrapper:

        * ``"plain"`` — clustered B+-tree (query modification, immediate)
        * ``"hypothetical"`` — B+-tree + combined AD file (deferred)
        * ``"separate"`` — B+-tree + separate A/D files (ablation)
        * ``"hashed"`` — clustered hash file (the join inner ``R2``)
        * ``"hashed_hypothetical"`` — hash file + AD file (deferred
          join views with inner-side updates)
        """
        if schema.name in self.relations:
            raise CatalogError(f"relation {schema.name!r} already exists")
        # Structure creation and the initial load are setup, not
        # workload: charge the setup bucket so the first query's
        # metered cost stays clean (the root-page flush of a fresh
        # B+-tree or hash directory is not workload I/O either).
        with self.meter.setup_phase():
            relation = self._build_relation(
                schema, clustered_on, kind, ad_buckets, hash_buckets
            )
            self.relations[schema.name] = relation
            loaded: list[Record] | None = None
            if records is not None:
                loaded = list(records)
                loader = relation.base if hasattr(relation, "base") else relation
                loader.bulk_load(loaded)
            self.pool.flush_all()
        self._relation_specs[schema.name] = {
            "clustered_on": clustered_on,
            "kind": kind,
            "ad_buckets": ad_buckets,
            "hash_buckets": hash_buckets,
        }
        self._journal(
            "create_relation",
            schema=schema,
            clustered_on=clustered_on,
            kind=kind,
            ad_buckets=ad_buckets,
            hash_buckets=hash_buckets,
            records=loaded,
        )
        return relation

    def _build_relation(
        self,
        schema: Schema,
        clustered_on: str,
        kind: str,
        ad_buckets: int,
        hash_buckets: int | None,
    ) -> BaseRelation | HypotheticalRelation:
        if kind in ("hashed", "hashed_hypothetical"):
            hashed = HashedRelation(
                schema, self.pool, clustered_on,
                block_bytes=self.block_bytes, buckets=hash_buckets,
            )
            if kind == "hashed_hypothetical":
                from repro.hr.hashed import HashedHypotheticalRelation

                relation: Any = HashedHypotheticalRelation(
                    hashed, ad_buckets=ad_buckets
                )
            else:
                relation = hashed
        else:
            base = ClusteredRelation(
                schema, self.pool, clustered_on,
                block_bytes=self.block_bytes, fanout=self.fanout,
            )
            if kind == "plain":
                relation = base
            elif kind == "hypothetical":
                relation = HypotheticalRelation(base, ad_buckets=ad_buckets)
            elif kind == "separate":
                relation = SeparateFilesHR(base, ad_buckets=ad_buckets)
            else:
                raise CatalogError(
                    f"unknown relation kind {kind!r}; expected plain, "
                    "hypothetical, separate or hashed"
                )
        return relation

    def create_secondary_index(self, relation_name: str, field: str) -> SecondaryIndex:
        """Build an in-memory secondary index on a plain relation."""
        base = self._base_of(relation_name)
        if not isinstance(base, ClusteredRelation):
            raise CatalogError("secondary indexes require a tree-clustered relation")
        index = SecondaryIndex(base, field)
        self.secondary_indexes[(relation_name, field)] = index
        return index

    def define_view(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
        setup_bucket: bool = True,
    ) -> "MaintenanceStrategy":
        """Register a view under one maintenance strategy.

        For materialized strategies the stored copy is built now from
        the current base content.  That materialization is charged to
        the meter's *setup bucket* (not workload counters) unless
        ``setup_bucket=False`` — migrations pass False because a
        rebuild there *is* workload cost the router must weigh.
        """
        if definition.name in self.views:
            raise CatalogError(f"view {definition.name!r} already exists")
        builder = self.meter.setup_phase if setup_bucket else _null_phase
        with builder():
            if isinstance(definition, SelectProjectView):
                impl = self._define_select_project(
                    definition, strategy, plan, index_field, refresh_every
                )
            elif isinstance(definition, JoinView):
                impl = self._define_join(definition, strategy)
            elif isinstance(definition, AggregateView):
                impl = self._define_aggregate(definition, strategy)
            else:
                raise CatalogError(
                    f"unsupported view definition {type(definition).__name__}"
                )
            if setup_bucket:
                self.pool.flush_all()
        self.views[definition.name] = impl
        source = definition.outer if isinstance(definition, JoinView) else definition.relation
        self._views_by_relation.setdefault(source, []).append(definition.name)
        if isinstance(definition, JoinView):
            # Inner-relation updates also affect the view (an extension
            # beyond the paper's R2-is-never-updated simplification).
            self._views_by_relation.setdefault(definition.inner, []).append(
                definition.name
            )
        if strategy is Strategy.DEFERRED:
            self._share_deferred_coordinator(source, impl)
            self._hook_coordinator(impl.coordinator)
        self._view_specs[definition.name] = {
            "definition": definition,
            "strategy": strategy,
            "plan": plan,
            "index_field": index_field,
            "refresh_every": refresh_every,
        }
        self._journal(
            "define_view",
            definition=definition,
            strategy=strategy.value,
            plan=plan,
            index_field=index_field,
            refresh_every=refresh_every,
        )
        return impl

    def _share_deferred_coordinator(self, relation_name: str, impl: Any) -> None:
        """All deferred views on one relation share a refresh coordinator.

        One view's refresh folds the AD file down, so siblings must be
        refreshed from the same AD read (Section 4's shared-refresh
        optimization — and a correctness requirement here).
        """
        from repro.maintenance.deferred import DeferredCoordinator

        coordinator = self._deferred_coordinators.get(relation_name)
        if coordinator is None:
            self._deferred_coordinators[relation_name] = impl.coordinator
        else:
            impl.join_coordinator(coordinator)

    # ------------------------------------------------------------------
    # workload surface
    # ------------------------------------------------------------------
    def apply_transaction(self, txn: Transaction) -> DeltaSet:
        """Execute a transaction and notify affected views.

        Returns the net delta (useful for assertions in tests).
        """
        relation = self.relations.get(txn.relation)
        if relation is None:
            raise CatalogError(f"unknown relation {txn.relation!r}")
        # Inserts may arrive decoded off the wire: reject a malformed
        # record before it reaches the log, the pages or any view.
        for op in txn.operations:
            if isinstance(op, Insert):
                relation.schema.check(op.record)
        # Write-ahead: journal before touching any page, so a crash
        # mid-transaction replays the whole batch from the log.
        self._journal("txn", txn=txn)
        if self.cold_operations:
            self.pool.invalidate_all()
        delta = DeltaSet(txn.relation)
        for op in txn.operations:
            if isinstance(op, Insert):
                relation.insert(op.record)
                delta.add_insert(op.record)
                self._index_event(txn.relation, inserted=op.record)
            elif isinstance(op, Delete):
                old = relation.delete_by_key(op.key)
                delta.add_delete(old)
                self._index_event(txn.relation, deleted=old)
            elif isinstance(op, Update):
                old, new = relation.update_by_key(op.key, **op.changes)
                delta.add_update(old, new)
                self._index_event(txn.relation, deleted=old, inserted=new)
            else:  # pragma: no cover - exhaustive over Operation
                raise CatalogError(f"unknown operation {op!r}")
        view_failures: list[tuple[str, Exception]] = []
        for view_name in self._views_by_relation.get(txn.relation, ()):
            if self.isolate_view_faults:
                try:
                    self.views[view_name].on_transaction(txn, delta)
                except RESILIENCE_ERRORS as exc:
                    view_failures.append((view_name, exc))
            else:
                self.views[view_name].on_transaction(txn, delta)
        # Write-back: dirty pages accumulated by this transaction are
        # flushed once each, so a page touched several times in one
        # operation costs one write (the cost model's accounting).
        self.pool.flush_all()
        self.transactions_applied += 1
        if view_failures:
            # The base mutation is committed (journaled, applied,
            # flushed); only the named views' copies are suspect.
            raise ViewMaintenanceError(view_failures)
        return delta

    def query_view(self, name: str, lo: Any = None, hi: Any = None) -> Any:
        """Answer a view query under the view's strategy."""
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        if self.cold_operations:
            self.pool.invalidate_all()
        answer = impl.query(lo, hi)
        self.pool.flush_all()
        self.queries_answered += 1
        return answer

    def reset_meter(self) -> None:
        """Zero the cost counters (typically after setup/bulk load)."""
        self.pool.flush_all()
        self.meter.reset()

    # ------------------------------------------------------------------
    # catalog changes after definition (the serving layer's surface)
    # ------------------------------------------------------------------
    def views_on(self, relation_name: str) -> tuple[str, ...]:
        """Names of the views sourced from one relation."""
        return tuple(self._views_by_relation.get(relation_name, ()))

    def view_definition(self, name: str) -> Any:
        """The declarative definition a view was registered with."""
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        return impl.definition

    def deferred_coordinator(self, relation_name: str) -> Any:
        """The shared refresh coordinator of one relation's deferred
        views, or ``None`` when the relation has none.  The planner's
        public handle (:mod:`repro.maintenance.planner`)."""
        return self._deferred_coordinators.get(relation_name)

    def deferred_relations(self) -> tuple[str, ...]:
        """Relations that currently have at least one deferred view."""
        return tuple(
            name
            for name, coordinator in self._deferred_coordinators.items()
            if coordinator.views
        )

    def settle_relation(self, relation_name: str) -> None:
        """Fold a hypothetical relation's pending AD changes into its base.

        Query-modification plans read the *base* file, which lags the
        true relation while updates sit in the AD file — so a strategy
        migration (or any base-level read) must settle first.  When
        deferred views exist the fold goes through their shared
        coordinator so every sibling is refreshed from the same AD read
        (dropping the batch would corrupt them); otherwise the relation
        folds directly.  Settling charges the normal refresh I/O.
        """
        relation = self._base_of(relation_name)
        if not isinstance(relation, HypotheticalRelation):
            return
        if relation.ad_entry_count() == 0:
            return
        coordinator = self._deferred_coordinators.get(relation_name)
        if coordinator is not None and coordinator.views:
            coordinator.refresh_all()
        else:
            self._journal("net_install", relation=relation_name)
            relation.reset()
        self.pool.flush_all()

    def drop_view(self, name: str) -> None:
        """Remove a view and free its stored copy's pages.

        Deferred views are simply deregistered from their coordinator —
        the relation's AD backlog stays for the remaining siblings (or
        for :meth:`settle_relation`).  Page deallocation is a catalog
        operation and charges no I/O, like the paper's file drops.
        """
        impl = self.views.pop(name, None)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        self._view_specs.pop(name, None)
        self._journal("drop_view", view=name)
        for view_names in self._views_by_relation.values():
            while name in view_names:
                view_names.remove(name)
        if impl.strategy is Strategy.DEFERRED:
            coordinator = impl.coordinator
            coordinator.deregister(impl)
            for rel_name, shared in list(self._deferred_coordinators.items()):
                if shared is coordinator and not coordinator.views:
                    del self._deferred_coordinators[rel_name]
        matview = getattr(impl, "matview", None)
        if matview is not None:
            matview.tree.reset()
        store = getattr(impl, "store", None)
        if store is not None:
            store.free()

    def migrate_view(
        self,
        name: str,
        strategy: Strategy,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
    ) -> "MaintenanceStrategy":
        """Re-register a view under a different maintenance strategy.

        The old implementation is dropped, the source relation settled
        (so a rebuild reads current data), and the view defined afresh.
        All I/O this incurs — the settle plus, for materialized
        targets, the bulk load of the new stored copy — stays on the
        meter: it *is* the migration's cost, which the adaptive router
        weighs against the steady-state win.
        """
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        if impl.strategy is strategy:
            return impl
        definition = impl.definition
        # One composite journal record; the drop/settle/define inside
        # are replayed as a unit by re-running migrate_view.
        self._journal(
            "migrate",
            view=name,
            strategy=strategy.value,
            plan=plan,
            index_field=index_field,
            refresh_every=refresh_every,
        )
        with self._journal_paused():
            self.drop_view(name)
            sources = [definition.outer if isinstance(definition, JoinView) else definition.relation]
            for source in sources:
                self.settle_relation(source)
            new_impl = self.define_view(
                definition, strategy,
                plan=plan, index_field=index_field, refresh_every=refresh_every,
                setup_bucket=False,
            )
        self.pool.flush_all()
        return new_impl

    def rebuild_view(self, name: str) -> "MaintenanceStrategy":
        """Rebuild one view's stored state from its base relation(s).

        The repair primitive for a damaged materialized copy: drop the
        view (page deallocation never *reads* the damaged pages), settle
        the source relation so the base reflects every pending change,
        and re-define the view under its original strategy and options.
        All I/O stays on the meter — repair cost is workload cost.

        Journaled as one composite ``rebuild_view`` event (like
        ``migrate``), so replaying the log reproduces the repair
        deterministically.
        """
        impl = self.views.get(name)
        if impl is None:
            raise CatalogError(f"unknown view {name!r}")
        spec = self._view_specs[name]
        definition = spec["definition"]
        strategy = spec["strategy"]
        plan = spec["plan"]
        index_field = spec["index_field"]
        refresh_every = spec["refresh_every"]
        self._journal("rebuild_view", view=name)
        with self._journal_paused():
            self.drop_view(name)
            sources = [definition.outer if isinstance(definition, JoinView) else definition.relation]
            for source in sources:
                self.settle_relation(source)
            new_impl = self.define_view(
                definition, strategy,
                plan=plan, index_field=index_field, refresh_every=refresh_every,
                setup_bucket=False,
            )
        self.pool.flush_all()
        return new_impl

    def restore_view(
        self,
        definition: SelectProjectView | JoinView | AggregateView,
        strategy: Strategy,
        plan: str | None = None,
        index_field: str | None = None,
        refresh_every: int = 10,
    ) -> "MaintenanceStrategy":
        """Re-create a view lost mid-composite-operation (repair path).

        A fault between a composite operation's drop and its re-define
        (e.g. mid-``migrate``) can leave the view absent from the
        catalog.  The composite journal record is already in the WAL and
        replays the whole operation, so this restore is deliberately
        *not* journaled — journaling it again would double-apply on
        replay.

        The source relation is settled first, exactly like
        :meth:`rebuild_view`: a freshly defined deferred view has no
        screening markers, so any AD entries still pending at restore
        time would otherwise never reach it — the bulk load must read a
        base that already contains them.
        """
        if definition.name in self.views:
            raise CatalogError(f"view {definition.name!r} already exists")
        with self._journal_paused():
            sources = [definition.outer if isinstance(definition, JoinView) else definition.relation]
            for source in sources:
                self.settle_relation(source)
            impl = self.define_view(
                definition, strategy,
                plan=plan, index_field=index_field, refresh_every=refresh_every,
                setup_bucket=False,
            )
        self.pool.flush_all()
        return impl

    # ------------------------------------------------------------------
    # durability hooks (repro.durability)
    # ------------------------------------------------------------------
    def attach_journal(self, journal: Any) -> None:
        """Arm write-ahead journaling: ``journal.log(event, payload)``
        is called before every state-changing operation.  Pass ``None``
        to detach (recovery replays with the journal detached)."""
        self.journal = journal
        if journal is not None:
            for impl in self.views.values():
                coordinator = getattr(impl, "coordinator", None)
                if coordinator is not None:
                    self._hook_coordinator(coordinator)

    def catalog_specs(self) -> dict[str, Any]:
        """The create_relation/define_view arguments of the live catalog
        (what a checkpoint needs to rebuild it)."""
        return {
            "relations": {
                name: dict(spec) for name, spec in self._relation_specs.items()
            },
            "views": {name: dict(spec) for name, spec in self._view_specs.items()},
            "secondary_indexes": sorted(self.secondary_indexes),
        }

    def _journal(self, event: str, **payload: Any) -> None:
        if self.journal is not None and not self._journal_suppressed:
            self.journal.log(event, payload)

    @contextmanager
    def _journal_paused(self) -> Any:
        self._journal_suppressed += 1
        try:
            yield
        finally:
            self._journal_suppressed -= 1

    def _hook_coordinator(self, coordinator: Any) -> None:
        """Journal coordinator folds (query-triggered deferred refresh)."""
        relation_name = coordinator.relation.schema.name

        def on_refresh() -> None:
            self._journal("net_install", relation=relation_name)

        coordinator.on_refresh = on_refresh

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _base_of(self, relation_name: str) -> Any:
        relation = self.relations.get(relation_name)
        if relation is None:
            raise CatalogError(f"unknown relation {relation_name!r}")
        return relation

    def _plain_base(self, relation_name: str) -> ClusteredRelation:
        relation = self._base_of(relation_name)
        if isinstance(relation, HypotheticalRelation):
            return relation.base
        if isinstance(relation, ClusteredRelation):
            return relation
        raise CatalogError(
            f"relation {relation_name!r} is not tree-clustered"
        )

    def _records_per_page(self, schema: Schema) -> int:
        return schema.records_per_page(self.block_bytes)

    def _snapshot(self, relation_name: str) -> list[Record]:
        relation = self._base_of(relation_name)
        if isinstance(relation, HypotheticalRelation):
            return relation.base.records_snapshot()
        return relation.records_snapshot()

    def _index_event(
        self,
        relation_name: str,
        inserted: Record | None = None,
        deleted: Record | None = None,
    ) -> None:
        for (rel, _), index in self.secondary_indexes.items():
            if rel != relation_name:
                continue
            if deleted is not None:
                index.on_delete(deleted)
            if inserted is not None:
                index.on_insert(inserted)

    def _define_select_project(
        self,
        definition: SelectProjectView,
        strategy: Strategy,
        plan: str | None,
        index_field: str | None,
        refresh_every: int = 10,
    ) -> "MaintenanceStrategy":
        from repro.maintenance.deferred import DeferredSelectProject
        from repro.maintenance.hybrid import HybridSelectProject
        from repro.maintenance.immediate import ImmediateSelectProject
        from repro.maintenance.query_modification import QueryModificationSelectProject
        from repro.maintenance.snapshot import (
            RecomputeOnChangeSelectProject,
            SnapshotSelectProject,
        )

        relation = self._base_of(definition.relation)
        if strategy.is_query_modification():
            chosen_plan = plan or {
                Strategy.QM_CLUSTERED: "clustered",
                Strategy.QM_UNCLUSTERED: "unclustered",
                Strategy.QM_SEQUENTIAL: "sequential",
            }.get(strategy, "clustered")
            secondary = None
            if chosen_plan == "unclustered":
                field = index_field or definition.view_key
                secondary = self.secondary_indexes.get((definition.relation, field))
                if secondary is None:
                    secondary = self.create_secondary_index(definition.relation, field)
            return QueryModificationSelectProject(
                definition, self._plain_base(definition.relation),
                plan=chosen_plan, secondary_index=secondary,
            )
        # Model 1 views project half the attributes: view tuples are
        # half the base tuple size, doubling the blocking factor (the
        # paper's fb/2 view size).
        schema = self._plain_base(definition.relation).schema
        matview = self._new_matview(
            definition.name, definition.view_key, max(1, schema.tuple_bytes // 2)
        )
        matview.bulk_load(definition.evaluate(self._snapshot(definition.relation)))
        if strategy is Strategy.IMMEDIATE:
            return ImmediateSelectProject(
                definition, self._plain_base(definition.relation), matview
            )
        if strategy is Strategy.DEFERRED:
            if not isinstance(relation, HypotheticalRelation):
                raise CatalogError(
                    "deferred views need a hypothetical relation; create "
                    f"{definition.relation!r} with kind='hypothetical'"
                )
            return DeferredSelectProject(definition, relation, matview)
        if strategy is Strategy.SNAPSHOT:
            return SnapshotSelectProject(
                definition, self._plain_base(definition.relation), matview,
                refresh_every=refresh_every,
            )
        if strategy is Strategy.BC_RECOMPUTE:
            return RecomputeOnChangeSelectProject(
                definition, self._plain_base(definition.relation), matview
            )
        if strategy is Strategy.HYBRID:
            params = Parameters.from_mapping(
                {"N": max(1, len(self._snapshot(definition.relation))),
                 "B": self.block_bytes,
                 "f": definition.predicate.selectivity_hint() or 0.1}
            )
            return HybridSelectProject(
                definition, self._plain_base(definition.relation), matview, params
            )
        raise CatalogError(f"unsupported strategy {strategy} for select-project views")

    def _define_join(
        self, definition: JoinView, strategy: Strategy
    ) -> "MaintenanceStrategy":
        from repro.maintenance.deferred import DeferredJoin
        from repro.maintenance.immediate import ImmediateJoin
        from repro.maintenance.query_modification import QueryModificationJoin

        from repro.hr.hashed import HashedHypotheticalRelation

        outer = self._base_of(definition.outer)
        inner = self._base_of(definition.inner)
        if not isinstance(inner, (HashedRelation, HashedHypotheticalRelation)):
            raise CatalogError(
                f"join inner relation {definition.inner!r} must be hashed "
                "(create it with kind='hashed' or 'hashed_hypothetical')"
            )
        if (
            isinstance(inner, HashedHypotheticalRelation)
            and strategy is not Strategy.DEFERRED
        ):
            raise CatalogError(
                "a hashed_hypothetical inner relation is only usable by "
                "deferred join views; use kind='hashed' for "
                f"{strategy.label} maintenance"
            )
        if strategy is Strategy.QM_LOOPJOIN or strategy.is_query_modification():
            return QueryModificationJoin(
                definition, self._plain_base(definition.outer), inner
            )
        # Model 2 projects half of each side's attributes: result
        # tuples are the same S bytes as base tuples (the paper's fb
        # view size).
        outer_schema = self._plain_base(definition.outer).schema
        join_tuple_bytes = (outer_schema.tuple_bytes + inner.schema.tuple_bytes) // 2
        matview = self._new_matview(
            definition.name, definition.view_key, max(1, join_tuple_bytes)
        )
        matview.bulk_load(
            definition.evaluate(
                self._snapshot(definition.outer), inner.records_snapshot()
            )
        )
        if strategy is Strategy.IMMEDIATE:
            return ImmediateJoin(
                definition, self._plain_base(definition.outer), inner, matview
            )
        if strategy is Strategy.DEFERRED:
            if not isinstance(outer, HypotheticalRelation):
                raise CatalogError(
                    "deferred views need a hypothetical outer relation; create "
                    f"{definition.outer!r} with kind='hypothetical'"
                )
            return DeferredJoin(definition, outer, inner, matview)
        raise CatalogError(f"unsupported strategy {strategy} for join views")

    def _define_aggregate(
        self, definition: AggregateView, strategy: Strategy
    ) -> "MaintenanceStrategy":
        from repro.maintenance.deferred import DeferredAggregate
        from repro.maintenance.immediate import ImmediateAggregate
        from repro.maintenance.query_modification import QueryModificationAggregate

        relation = self._base_of(definition.relation)
        if strategy.is_query_modification():
            return QueryModificationAggregate(
                definition, self._plain_base(definition.relation)
            )
        store = AggregateStateStore(definition.name, self.pool, definition.function())
        function = definition.function()
        state = function.initial_state()
        for record in self._snapshot(definition.relation):
            if definition.predicate.matches(record):
                function.insert(state, record[definition.field])
        store.write_state(state)
        if strategy is Strategy.IMMEDIATE:
            return ImmediateAggregate(
                definition, self._plain_base(definition.relation), store
            )
        if strategy is Strategy.DEFERRED:
            if not isinstance(relation, HypotheticalRelation):
                raise CatalogError(
                    "deferred views need a hypothetical relation; create "
                    f"{definition.relation!r} with kind='hypothetical'"
                )
            return DeferredAggregate(definition, relation, store)
        raise CatalogError(f"unsupported strategy {strategy} for aggregate views")

    def _new_matview(
        self, name: str, view_key: str, tuple_bytes: int
    ) -> MaterializedView:
        records_per_page = max(1, self.block_bytes // max(1, tuple_bytes))
        return MaterializedView(
            name, self.pool, view_key,
            records_per_page=records_per_page, fanout=self.fanout,
        )
