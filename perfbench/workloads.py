"""The three benchmark workloads and their correctness oracle.

Each workload loads the demo's fixed data set and builds its request
stream from the seed once (``prepare``), then runs any number of
identical *trials*: a fresh set-up, the same pre-generated stream
replayed by one closed-loop client, and the oracle checks.  Because
every trial replays the same stream on the same data, its exact counts
(page I/O, screens, refresh epochs, fsyncs, RPC calls, modelled cost)
are identical across trials and across runs with the same seed.

Only the request call itself is timed; answer validation runs between
calls.  Every answer is checked against a model of the relation that is
maintained while the stream is generated, so the expected answers are
known before the first request is sent.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import random
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from repro.cluster.harness import DOMAIN, demo_spec, launch_demo
from repro.cluster.worker import build_server
from repro.core.strategies import Strategy
from repro.durability.manager import DurabilityManager
from repro.engine.transaction import Transaction, Update
from repro.gateway.client import AsyncGatewayClient
from repro.gateway.server import ClusterBackend, GatewayHandle
from repro.service.server import ViewServer
from repro.service.traffic import PhaseSpec, demo_server, drifting_traffic

from tracing import Tracer

__all__ = ["WORKLOADS", "Trial", "make_workload"]

#: Group commit of the durable workload: one fsync per this many records.
FSYNC_EVERY = 8
#: Shards of the gateway workload, and the width of its range queries.
SHARDS = 2
RANGE_WIDTH = 100


@dataclass
class Trial:
    """What one set-up plus one replay of the stream measured."""

    setup_s: float
    #: Requests sent (the stream length).
    attempted: int = 0
    #: Wall seconds per call, by operation kind (range / agg / update).
    latency_s: dict[str, list[float]] = field(
        default_factory=lambda: {"range": [], "agg": [], "update": []}
    )
    #: CPU seconds charged to the calls (benchmark process, plus the
    #: reaped shard workers on the cluster workload).
    cpu_s: float = 0.0
    queries: int = 0
    updates: int = 0
    failures: list[str] = field(default_factory=list)
    modelled_ms: float = 0.0
    #: Exact counts of the measured phase (identical across trials).
    counts: dict[str, float] = field(default_factory=dict)
    recovery_s: float | None = None

    @property
    def ops(self) -> int:
        return self.queries + self.updates

    @property
    def busy_s(self) -> float:
        return sum(sum(values) for values in self.latency_s.values())


# ----------------------------------------------------------------------
# answer fingerprints (the oracle compares these, not whole answers)
# ----------------------------------------------------------------------
def _tuples_print(rows: Any) -> tuple[int, ...]:
    """Order-insensitive fingerprint of ``(id, a, v)`` triples."""
    count = s_id = s_a = s_v = s_ida = s_idv = 0
    for key, a, v in rows:
        count += 1
        s_id += key
        s_a += a
        s_v += v
        s_ida += key * a
        s_idv += key * v
    return count, s_id, s_a, s_v, s_ida, s_idv


def _answer_print(
    answer: Any, lo: Any, hi: Any, with_v: bool, errors: list[str], where: str
) -> tuple[int, ...]:
    """Fingerprint a tuple answer, checking every row lies in ``[lo, hi]``."""
    outside: list[Any] = []

    def triples() -> Any:
        for vt in answer:
            values = vt.values
            a = values["a"]
            if (lo is not None and a < lo) or (hi is not None and a > hi):
                outside.append(a)
            yield values["id"], a, values["v"] if with_v else 0

    fingerprint = _tuples_print(triples())
    if outside:
        errors.append(f"{where}: {len(outside)} rows outside [{lo}, {hi}]")
    return fingerprint


def _apply_to_model(rows: dict[int, tuple[int, int]], ops: Any) -> None:
    for key, changes in ops:
        a, v = rows[key]
        rows[key] = (changes.get("a", a), changes.get("v", v))


def _check(trial: Trial, ok: bool, message: str) -> None:
    if not ok:
        trial.failures.append(message)


# ----------------------------------------------------------------------
# in-process ViewServer workloads
# ----------------------------------------------------------------------
class ServeWorkload:
    """``demo_server`` traffic through an in-process :class:`ViewServer`.

    Both views share one strategy; the paper-faithful defaults hold:
    no pacing, no adaptive router, no query-result cache.
    """

    def __init__(
        self,
        name: str,
        strategy: Strategy,
        phases: tuple[PhaseSpec, ...],
        query_width: int,
        durable: bool,
        n_tuples: int,
        checkpoint_every: int | None = None,
    ) -> None:
        self.name = name
        self.strategy = strategy
        self.phases = phases
        self.query_width = query_width
        self.durable = durable
        self.n_tuples = n_tuples
        self.checkpoint_every = checkpoint_every

    # -- inputs -------------------------------------------------------------
    def prepare(self, seed: int, workdir: Path) -> None:
        stream_seed = random.Random(f"perfbench:{self.name}:{seed}").randrange(2**31)
        self.state_dir = workdir / "state"
        demo = self._build()
        self.view_bound = demo.view_bound
        self.stream = drifting_traffic(
            demo, self.phases, seed=stream_seed, query_width=self.query_width
        )
        relation = demo.database.relations[demo.relation]
        self.initial = {
            r.key: (r.values["a"], r.values["v"]) for r in relation.scan_logical()
        }
        self.txn_ops = [
            [(op.key, dict(op.changes)) for op in req.txn.operations]
            for req in self.stream if req.kind == "update"
        ]
        self.expected = self._expected_answers()
        # Warm the interpreter's code paths on a throwaway server.
        for request in self.stream[:200]:
            self._call(demo.server, request)

    def _build(self):
        return demo_server(n_tuples=self.n_tuples, strategy=self.strategy, adaptive=False)

    def _view_print(self, rows: dict[int, tuple[int, int]], lo: Any, hi: Any):
        lo = 0 if lo is None else lo
        hi = self.view_bound - 1 if hi is None else min(hi, self.view_bound - 1)
        return _tuples_print(
            (key, a, 0) for key, (a, _v) in rows.items() if lo <= a <= hi
        )

    def _view_total(self, rows: dict[int, tuple[int, int]]) -> int:
        return sum(v for a, v in rows.values() if 0 <= a < self.view_bound)

    def _expected_answers(self) -> list[Any]:
        """Expected answer fingerprint per request (None for updates)."""
        rows = dict(self.initial)
        in_view = {k: av for k, av in rows.items() if av[0] < self.view_bound}
        expected: list[Any] = []
        txns = iter(self.txn_ops)
        for req in self.stream:
            if req.kind == "update":
                ops = next(txns)
                _apply_to_model(rows, ops)
                for key, _changes in ops:
                    if rows[key][0] < self.view_bound:
                        in_view[key] = rows[key]
                    else:
                        in_view.pop(key, None)
                expected.append(None)
            elif req.view == "v_tuples":
                expected.append(self._view_print(in_view, req.lo, req.hi))
            else:
                expected.append(sum(v for _a, v in in_view.values()))
        self.final_rows = rows
        return expected

    def _model_after(self, updates: int) -> dict[int, tuple[int, int]]:
        rows = dict(self.initial)
        for ops in self.txn_ops[:updates]:
            _apply_to_model(rows, ops)
        return rows

    @staticmethod
    def _call(server: ViewServer, request: Any) -> Any:
        if request.kind == "update":
            server.apply_update(request.txn, client=request.client)
            return None
        return server.query(request.view, request.lo, request.hi, client=request.client)

    # -- one trial ----------------------------------------------------------
    def setup(self) -> tuple[Any, float]:
        """Build, bulk load, materialize (and arm durability); timed."""
        shutil.rmtree(self.state_dir, ignore_errors=True)
        gc.collect()
        start = perf_counter()
        demo = self._build()
        if self.durable:
            manager = DurabilityManager(self.state_dir, fsync_every=FSYNC_EVERY)
            demo.server.attach_durability(
                manager, checkpoint_every=self.checkpoint_every
            )
            demo.server.checkpoint()
        return demo, perf_counter() - start

    def setup_only(self) -> float:
        demo, seconds = self.setup()
        if self.durable:
            demo.server.shutdown()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return seconds

    def trial(self, tracer: Tracer | None = None, spans: bool = False) -> Trial:
        """One set-up and replay; ``tracer`` watches the collector, and
        with ``spans`` also records layer spans, during the replay."""
        demo, setup_s = self.setup()
        trial = Trial(setup_s, attempted=len(self.stream))
        server = demo.server
        db = demo.database
        relation = db.relations[demo.relation]
        acked = [0]
        last_sync: list[Any] = []
        wal = server.durability.wal if self.durable else None
        if wal is not None:
            def note_sync() -> None:
                last_sync[:] = [
                    acked[0], wal.epoch, wal.segment_path(wal.epoch).stat().st_size
                ]

            def sync() -> None:
                type(wal).sync(wal)  # the class attribute: traced when tracing
                note_sync()
            wal.sync = sync
            note_sync()
        ad_seen = [0, 0]  # AD entries read, net tuples produced

        def net_changes():
            entries = relation.ad_entry_count()
            net = type(relation).net_changes(relation)
            ad_seen[0] += entries
            ad_seen[1] += len(net)
            return net
        relation.net_changes = net_changes

        before = _engine_counters(server, relation)
        rows_read = range_queries = 0
        latency = trial.latency_s
        errors = trial.failures
        spanner = tracer if spans else None
        with _watching(tracer, spans):
            for index, request in enumerate(self.stream):
                answer = None  # the last answer is freed outside the timed call
                kind = (
                    "update" if request.kind == "update"
                    else "range" if request.view == "v_tuples" else "agg"
                )
                if spanner:
                    spanner.begin("request")
                cpu = process_time()
                start = perf_counter()
                try:
                    answer = self._call(server, request)
                except Exception as exc:  # counted, reported, run continues
                    answer = exc
                elapsed = perf_counter() - start
                trial.cpu_s += process_time() - cpu
                if spanner:
                    spanner.end()
                latency[kind].append(elapsed)
                where = f"request {index} ({kind})"
                if isinstance(answer, Exception):
                    errors.append(f"{where}: {type(answer).__name__}: {answer}")
                elif kind == "update":
                    trial.updates += 1
                    acked[0] += 1
                elif kind == "range":
                    trial.queries += 1
                    range_queries += 1
                    rows_read += len(answer)
                    got = _answer_print(answer, request.lo, request.hi, False, errors, where)
                    _check(trial, got == self.expected[index], f"{where}: wrong answer")
                else:
                    trial.queries += 1
                    _check(trial, answer == self.expected[index], f"{where}: wrong total")
        after = _engine_counters(server, relation)
        counts = {key: after[key] - before[key] for key in after}
        counts["views.rows_read"] = rows_read
        counts["range_queries"] = range_queries
        counts["hr.ad_entries_read"] = ad_seen[0]
        counts["hr.net_tuples"] = ad_seen[1]
        trial.modelled_ms = counts.pop("modelled_ms")
        trial.counts = counts

        # End of stream: every view against a recomputation from the base.
        self._check_views(trial, server, relation, "live", self.final_rows)
        if self.durable:
            self._crash_and_recover(trial, server, last_sync)
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return trial

    def _check_views(
        self, trial: Trial, server: ViewServer, relation: Any, label: str,
        model: dict[int, tuple[int, int]] | None,
    ) -> None:
        base = {r.key: (r.values["a"], r.values["v"]) for r in relation.scan_logical()}
        if model is not None:
            _check(trial, base == model, f"{label}: base relation differs from the model")
        tuples = server.query("v_tuples", None, None, client="oracle")
        got = _answer_print(tuples, None, None, False, trial.failures, label)
        _check(trial, got == self._view_print(base, None, None),
               f"{label}: v_tuples differs from recomputation")
        total = server.query("v_total", None, None, client="oracle")
        _check(trial, total == self._view_total(base),
               f"{label}: v_total differs from recomputation")

    def _crash_and_recover(self, trial: Trial, server: ViewServer, last_sync: list[Any]) -> None:
        """Abandon the server, drop what was never fsynced, reopen, check.

        Killing a process leaves the OS cache intact, so the benchmark
        itself discards every WAL byte written after the last fsync.
        """
        wal = server.durability.wal
        wal.flush()  # nothing may stay buffered to land after the cut
        acked_at_sync, epoch, size = last_sync
        for number in wal.segment_numbers():
            if number >= epoch:
                with open(wal.segment_path(number), "r+b") as fh:
                    fh.truncate(size if number == epoch else 0)
        start = perf_counter()
        recovered = ViewServer.open(
            self.state_dir, fsync_every=FSYNC_EVERY,
            checkpoint_every=self.checkpoint_every,
        )
        trial.recovery_s = perf_counter() - start
        try:
            report = recovered.durability.last_recovery
            trial.counts["durability.replay_records"] = report.replay_records
            relation = recovered.database.relations["r"]
            base = {r.key: (r.values["a"], r.values["v"]) for r in relation.scan_logical()}
            # Acked before the last fsync => present.  The transaction in
            # flight at that fsync may be present too (its record was
            # synced before it was acknowledged).
            prefixes = (acked_at_sync, acked_at_sync + 1)
            _check(
                trial, any(base == self._model_after(n) for n in prefixes),
                f"recovered: base is not the state after {acked_at_sync} "
                "acknowledged transactions",
            )
            self._check_views(trial, recovered, relation, "recovered", None)
        finally:
            recovered.shutdown()


def _engine_counters(server: ViewServer, relation: Any) -> dict[str, float]:
    """Cumulative engine counters; a trial reports their deltas."""
    db = server.database
    meter = db.meter
    screened = passed = 0
    for impl in db.views.values():
        stats = impl.screen.stats
        screened += stats.stage1_rejected + stats.stage2_tested
        passed += stats.passed
    counts = {
        "modelled_ms": meter.milliseconds(server.params),
        "storage.page_reads": meter.page_reads,
        "storage.page_writes": meter.page_writes,
        "maintenance.screens": meter.screens,
        "hr.ad_ops": meter.ad_ops,
        "storage.pool_hits": db.pool.hits,
        "storage.pool_misses": db.pool.misses,
        "maintenance.refresh_epochs": server.planner.epochs,
        "hr.net_reads": relation.net_reads,
        "maintenance.screened": screened,
        "maintenance.screen_passed": passed,
    }
    if server.durability is not None:
        wal = server.durability.wal
        counts["durability.fsyncs"] = wal.fsyncs
        counts["durability.wal_bytes"] = wal.bytes_appended
        counts["durability.checkpoints"] = server.durability.checkpoints_taken
    return counts


# ----------------------------------------------------------------------
# gateway -> cluster
# ----------------------------------------------------------------------
class GatewayWorkload:
    """One gateway connection over a range-sharded two-shard cluster."""

    name = "gateway-cluster"

    def __init__(self, n_records: int, operations: int) -> None:
        self.n_records = n_records
        self.operations = operations

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        records = demo_spec(self.n_records)["relations"][0]["records"]
        self.initial = {r["id"]: (r["a"], r["v"]) for r in records}
        # 40% ranges, 30% totals, 30% updates, shuffled in blocks of ten
        # so every seed gets the exact mix.
        kinds: list[str] = []
        while len(kinds) < self.operations:
            block = ["range"] * 4 + ["agg"] * 3 + ["update"] * 3
            rng.shuffle(block)
            kinds.extend(block)
        self.stream: list[tuple[str, int, int]] = []
        for kind in kinds[: self.operations]:
            if kind == "range":
                lo = rng.randrange(DOMAIN - RANGE_WIDTH + 1)
                self.stream.append((kind, lo, lo + RANGE_WIDTH - 1))
            elif kind == "update":
                self.stream.append((kind, rng.randrange(self.n_records), rng.randrange(100)))
            else:
                self.stream.append((kind, 0, 0))
        self.expected = self._expected_answers()
        self.twin_failures = self._replay_twin()

    def _expected_answers(self) -> list[Any]:
        rows = dict(self.initial)
        by_a = sorted((a, key) for key, (a, _v) in rows.items())  # a never changes
        keys_a = [a for a, _key in by_a]
        total = sum(v for _a, v in rows.values())
        expected: list[Any] = []
        for kind, x, y in self.stream:
            if kind == "update":
                total += y - rows[x][1]
                rows[x] = (rows[x][0], y)
                expected.append(None)
            elif kind == "range":
                lo, hi = bisect.bisect_left(keys_a, x), bisect.bisect_right(keys_a, y)
                expected.append(_tuples_print(
                    (key, a, rows[key][1]) for a, key in by_a[lo:hi]
                ))
            else:
                expected.append(total)
        self.final_rows = rows
        return expected

    def _replay_twin(self) -> list[str]:
        """Feed the stream to an unsharded in-process twin (untimed)."""
        twin = build_server(demo_spec(self.n_records))
        failures: list[str] = []
        for index, (kind, x, y) in enumerate(self.stream):
            where = f"twin request {index} ({kind})"
            if kind == "update":
                twin.apply_update(Transaction.of("r", [Update(x, {"v": y})]))
                continue
            if kind == "range":
                got = _answer_print(twin.query("by_a", x, y), x, y, True, failures, where)
            else:
                got = twin.query("total")
            if got != self.expected[index]:
                failures.append(f"{where}: twin answer differs from the model")
        final = twin.query("by_a", None, None)
        got = _answer_print(final, None, None, True, failures, "twin final")
        want = _tuples_print((k, a, v) for k, (a, v) in self.final_rows.items())
        if got != want:
            failures.append("twin final: by_a differs from the model")
        return failures

    def _launch(self) -> tuple[Any, Any]:
        router = launch_demo(SHARDS, n_records=self.n_records)
        try:
            handle = GatewayHandle.launch(ClusterBackend(router))
        except BaseException:
            router.close()
            raise
        return router, handle

    def setup_only(self) -> float:
        gc.collect()
        start = perf_counter()
        router, handle = self._launch()
        try:
            return asyncio.run(self._setup_session(handle, start))
        finally:
            handle.stop()
            router.close()

    async def _setup_session(self, handle: Any, start: float) -> float:
        client, setup_s = await self._first_answers(handle, start)
        await _close(client)
        return setup_s

    async def _first_answers(self, handle: Any, start: float) -> tuple[Any, float]:
        client = AsyncGatewayClient(handle.host, handle.port, client="bench")
        await client.connect()
        reply = await client.query("total", None, None)  # scatters to every shard
        if not reply.ok:
            await client.close()
            raise RuntimeError(f"cluster set-up failed: {reply.doc}")
        return client, perf_counter() - start

    def trial(self, tracer: Tracer | None = None, spans: bool = False) -> Trial:
        """As :meth:`ServeWorkload.trial`; the shard workers are forked
        before any span wrapper is installed, so they run untraced."""
        gc.collect()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        router, handle = self._launch()
        try:
            trial = asyncio.run(self._session(router, handle, start, tracer, spans))
        finally:
            handle.stop()
            router.close()
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        trial.cpu_s += (reaped.ru_utime - children.ru_utime) + (
            reaped.ru_stime - children.ru_stime
        )
        return trial

    async def _session(
        self, router: Any, handle: Any, start: float, tracer: Tracer | None,
        spans: bool,
    ) -> Trial:
        client, setup_s = await self._first_answers(handle, start)
        trial = Trial(setup_s, attempted=len(self.stream))
        errors = trial.failures
        latency = trial.latency_s
        rejected = 0
        try:
            before = _modelled_total(router.cluster_metrics())
            spanner = tracer if spans else None
            with _watching(tracer, spans):
                for index, (kind, x, y) in enumerate(self.stream):
                    reply = answer = None  # freed outside the timed call
                    if spanner:
                        spanner.begin("gateway.call")
                    cpu = process_time()
                    begin = perf_counter()
                    try:
                        if kind == "update":
                            ops = [{"kind": "update", "key": x, "changes": {"v": y}}]
                            reply = await client.update("r", ops)
                        elif kind == "range":
                            reply = await client.query("by_a", x, y)
                        else:
                            reply = await client.query("total", None, None)
                    except Exception as exc:  # counted, reported, run continues
                        reply = exc
                    elapsed = perf_counter() - begin
                    trial.cpu_s += process_time() - cpu
                    if spanner:
                        spanner.end()
                    latency[kind].append(elapsed)
                    where = f"request {index} ({kind})"
                    if isinstance(reply, Exception):
                        errors.append(f"{where}: {type(reply).__name__}: {reply}")
                        continue
                    if not reply.ok:
                        rejected += reply.rejected is not None
                        errors.append(f"{where}: not ok: {reply.doc}")
                        continue
                    if kind == "update":
                        trial.updates += 1
                        _check(trial, reply.result.get("applied") == 1,
                               f"{where}: not every operation applied")
                        continue
                    trial.queries += 1
                    answer, degraded = reply.answer()
                    _check(trial, degraded is None, f"{where}: degraded answer")
                    if kind == "range":
                        got = _answer_print(answer, x, y, True, errors, where)
                    else:
                        got = answer
                    _check(trial, got == self.expected[index], f"{where}: wrong answer")
            trial.modelled_ms = _modelled_total(router.cluster_metrics()) - before
            trial.counts = {"gateway.rejected": rejected}
            reply = await client.query("by_a", None, None)
            got = _answer_print(reply.answer()[0], None, None, True, errors, "final")
            want = _tuples_print((k, a, v) for k, (a, v) in self.final_rows.items())
            _check(trial, got == want, "final: cluster by_a differs from the model")
        finally:
            await _close(client)
        return trial


async def _close(client: AsyncGatewayClient) -> None:
    await client.close()
    # Let the gateway see the close before its loop is stopped.
    await asyncio.sleep(0.05)


def _watching(tracer: Tracer | None, spans: bool) -> Any:
    """Collector watch (untraced replays) or span wrappers (traced ones)."""
    if tracer is None:
        return nullcontext()
    return tracer.installed() if spans else tracer.gc_watch()


def _modelled_total(export: dict[str, Any]) -> float:
    """Modelled ms the shards charged to requests, from a metrics export."""
    names = {"query_ms", "update_ms", "background_refresh_ms", "refresh_epoch_ms"}
    return sum(
        float(entry.get("sum", 0.0))
        for entry in export["metrics"]
        if entry["name"] in names and entry["kind"] == "histogram"
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def make_workload(name: str, small: bool = False) -> Any:
    """A fresh workload; ``small`` shrinks it for the benchmark's tests."""
    scale = 10 if small else 1
    if name == "serve-deferred-durable":
        phases = tuple(
            PhaseSpec(ops // scale, p)
            for ops, p in ((1_800, 0.1), (600, 0.5), (1_200, 0.25))
        )
        return ServeWorkload(
            name, Strategy.DEFERRED, phases, query_width=20, durable=True,
            n_tuples=20_000 // scale, checkpoint_every=1_500 // scale,
        )
    if name == "serve-immediate-scan":
        return ServeWorkload(
            name, Strategy.IMMEDIATE, (PhaseSpec(2_400 // scale, 0.05),),
            query_width=100, durable=False, n_tuples=20_000 // scale,
        )
    if name == "gateway-cluster":
        return GatewayWorkload(
            n_records=4_000 // scale, operations=1_000 // scale,
        )
    raise KeyError(name)


WORKLOADS = ("serve-deferred-durable", "serve-immediate-scan", "gateway-cluster")
