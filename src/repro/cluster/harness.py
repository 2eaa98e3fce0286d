"""Demo clusters and paced traffic for the CLI, tests and benchmarks.

The canonical demo data set is one relation ``r(id, a, v)`` whose
partition field ``a`` is spread uniformly over ``[0, DOMAIN)``, with a
select-project view keyed on ``a`` (single-shard routable under a
range shard map) and a ``sum(v)`` aggregate (always scatter–gather).

The query workload is **chunk-aligned**: the domain is divided into
``CHUNKS`` equal chunks, and each query asks for exactly one chunk.
Chunk boundaries coincide with shard boundaries for every power-of-two
shard count up to ``CHUNKS``, so a chunk query routes to exactly one
shard and the per-query result width is *independent of the shard
count* — aggregate qps scaling then measures process parallelism, not
shrinking answers.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from repro.durability.codec import encode_definition, encode_schema
from repro.engine.transaction import Transaction, Update
from repro.service.cache import QueryResultCache
from repro.storage.tuples import Schema
from repro.views.definition import AggregateView, SelectProjectView
from repro.views.predicate import IntervalPredicate
from .replication import ReplicationConfig
from .router import ClusterRouter
from .shardmap import ShardMap
from .supervisor import ClusterSupervisor

__all__ = [
    "DOMAIN",
    "CHUNKS",
    "demo_spec",
    "demo_shard_map",
    "launch_demo",
    "live_worker_pids",
    "chunk_bounds",
    "partitioned_cluster_stream",
    "run_cluster_traffic",
]

#: Partition-field domain of the demo relation.
DOMAIN = 1600
#: Chunk-aligned query granularity; shard counts 1/2/4/8/16 all align.
CHUNKS = 16


def demo_spec(
    n_records: int = 480,
    strategy: str = "deferred",
    pacing: float = 0.0,
    cache: bool = False,
    seed: int = 17,
    state_dir: str | None = None,
    refresh_policy: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A cluster worker spec holding the full demo data set."""
    rng = random.Random(seed)
    schema = Schema("r", ("id", "a", "v"), "id", tuple_bytes=100)
    # Spec records are codec field maps (encode_fields); int fields are
    # their own encoding, so the literal dicts already are those maps.
    records = [
        {"id": i, "a": rng.randrange(DOMAIN), "v": rng.randrange(100)}
        for i in range(n_records)
    ]
    whole_domain = IntervalPredicate("a", 0, DOMAIN - 1, selectivity=1.0)
    definitions = (
        SelectProjectView("by_a", "r", whole_domain, ("id", "a", "v"), "a"),
        AggregateView("total", "r", whole_domain, "sum", "v"),
    )
    return {
        "buffer_pages": 256,
        "cache": cache,
        "pacing": pacing,
        "lock_timeout": 30.0,
        "state_dir": state_dir,
        "relations": [
            {
                "schema": encode_schema(schema),
                "clustered_on": "a",
                "kind": "hypothetical",
                "ad_buckets": 2,
                "records": records,
            }
        ],
        "views": [
            {
                "definition": encode_definition(definition),
                "strategy": strategy,
                "policy": refresh_policy,
            }
            for definition in definitions
        ],
    }


def demo_shard_map(n_shards: int, scheme: str = "range") -> ShardMap:
    if scheme == "hash":
        return ShardMap.hashed("a", n_shards)
    return ShardMap.ranged("a", 0, DOMAIN, n_shards)


def launch_demo(
    n_shards: int,
    strategy: str = "deferred",
    scheme: str = "range",
    pacing: float = 0.0,
    cache: bool = False,
    router_cache: bool = False,
    n_records: int = 480,
    seed: int = 17,
    state_dir: str | None = None,
    rpc_timeout: float = 30.0,
    replicas: int = 0,
    supervise: bool = False,
    replication: ReplicationConfig | None = None,
) -> ClusterRouter:
    """Fork a demo cluster and return its router.

    ``replicas`` workers per shard beyond the primary; ``supervise``
    attaches a started :class:`ClusterSupervisor` (heartbeats, failover
    promotion, respawn) that ``router.close()`` stops automatically.
    """
    spec = demo_spec(
        n_records=n_records, strategy=strategy, pacing=pacing,
        cache=cache, seed=seed, state_dir=state_dir,
    )
    if replication is None:
        replication = ReplicationConfig(replicas=replicas)
    router = ClusterRouter.launch(
        spec,
        demo_shard_map(n_shards, scheme),
        cache=QueryResultCache() if router_cache else None,
        rpc_timeout=rpc_timeout,
        replication=replication,
    )
    if supervise:
        ClusterSupervisor(router).start()
    return router


def live_worker_pids(router: ClusterRouter) -> list[int]:
    """Pids of every worker process currently alive under the router.

    Includes supervisor-respawned members, so a test can assert that
    ``close()`` leaves no orphans no matter how much churn the chaos
    harness caused: after close, none of these pids may be running.
    """
    return [
        member.process.pid
        for replica_set in router.shards
        for member in replica_set.members
        if member.process.is_alive()
    ]


def chunk_bounds(chunk: int) -> tuple[int, int]:
    """Inclusive ``[lo, hi]`` bounds of one chunk-aligned query."""
    width = DOMAIN // CHUNKS
    lo = (chunk % CHUNKS) * width
    return lo, lo + width - 1


def partitioned_cluster_stream(
    thread_index: int, n_threads: int, length: int, n_records: int,
    query_every: int = 3,
) -> list[tuple[str, Any]]:
    """A deterministic per-thread op stream over disjoint key sets.

    Thread ``i`` touches only keys ``i, i + n, i + 2n, ...``, so the
    streams commute across threads: every strategy twin converges to
    the same final state whatever the interleaving — the property the
    cross-shard equivalence check rests on.  Updates never touch the
    partition field, keeping placement stable under load (cross-shard
    moves are exercised separately).
    """
    rng = random.Random(1000 + thread_index)
    ops: list[tuple[str, Any]] = []
    for step in range(length):
        if step % query_every == query_every - 1:
            ops.append(("query", rng.randrange(CHUNKS)))
        else:
            key = thread_index + n_threads * rng.randrange(
                max(1, n_records // n_threads)
            )
            ops.append(("update", (key, rng.randrange(1000))))
    return ops


def run_cluster_traffic(
    router: ClusterRouter,
    n_threads: int,
    ops_per_thread: int,
    n_records: int,
    join_timeout: float = 300.0,
) -> dict[str, Any]:
    """Drive paced concurrent traffic; returns wall time and op counts.

    Mirrors the single-process benchmark harness: each thread runs its
    own commuting partitioned stream of chunk queries and point
    updates, and the wall clock covers the whole convoy.
    """
    errors: list[Exception] = []
    counts = {"queries": 0, "updates": 0}
    counts_lock = threading.Lock()

    def worker(index: int) -> None:
        queries = updates = 0
        try:
            stream = partitioned_cluster_stream(
                index, n_threads, ops_per_thread, n_records
            )
            for op, payload in stream:
                if op == "query":
                    lo, hi = chunk_bounds(payload)
                    router.query("by_a", lo, hi, client=f"t{index}")
                    queries += 1
                else:
                    key, value = payload
                    router.apply_update(
                        Transaction.of("r", [Update(key, {"v": value})]),
                        client=f"t{index}",
                    )
                    updates += 1
        except Exception as exc:  # surfaced after the join
            errors.append(exc)
        with counts_lock:
            counts["queries"] += queries
            counts["updates"] += updates

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(join_timeout)
        if thread.is_alive():
            raise RuntimeError("cluster traffic thread wedged: likely deadlock")
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    total = counts["queries"] + counts["updates"]
    return {
        "wall_seconds": wall,
        "queries": counts["queries"],
        "updates": counts["updates"],
        "ops": total,
        "qps": total / wall if wall > 0 else 0.0,
    }
