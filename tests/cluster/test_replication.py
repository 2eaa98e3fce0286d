"""Replica sets: shipping, failover, supervision, chaos, orphan reap."""

import os
import time

import pytest

from repro.cluster.chaos import ChaosError, ChaosInjector
from repro.cluster.harness import (
    DOMAIN,
    chunk_bounds,
    demo_spec,
    launch_demo,
    live_worker_pids,
)
from repro.cluster.replication import ReplicationConfig
from repro.cluster.rpc import ShardTimeout
from repro.durability.codec import decode_fields
from repro.engine.transaction import Transaction, Update
from repro.resilience.degradation import DegradedResult

N_RECORDS = 120

#: Snappy supervision for failover tests: a dead worker is noticed and
#: replaced within a few hundred milliseconds.
SUPERVISED = ReplicationConfig(
    replicas=1, heartbeat_interval_s=0.05, heartbeat_timeout_s=0.4,
    suspect_after=1, dead_after=2, respawn=True,
)
#: Unsupervised, failure-tolerant variant: a deliberately black-holed
#: replica accrues lag as *suspect* without ever being declared dead,
#: so tests can resync it and check the books balance exactly.
TOLERANT = ReplicationConfig(
    replicas=1, heartbeat_interval_s=0.05, heartbeat_timeout_s=0.3,
    suspect_after=2, dead_after=8, respawn=False,
)


def wait_until(predicate, timeout=20.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def demo_records(n_records=N_RECORDS, seed=17):
    docs = demo_spec(n_records=n_records, seed=seed)["relations"][0]["records"]
    return [decode_fields(doc) for doc in docs]


def keys_on_shard(router, shard, n_records=N_RECORDS):
    return [
        values["id"] for values in demo_records(n_records)
        if router.shard_map.shard_of(values["a"]) == shard
    ]


def base_total(n_records=N_RECORDS):
    return sum(values["v"] for values in demo_records(n_records))


def write(router, key, value):
    router.apply_update(Transaction.of("r", [Update(key, {"v": value})]))


@pytest.fixture()
def supervised():
    router = launch_demo(
        2, n_records=N_RECORDS, replication=SUPERVISED, supervise=True,
    )
    yield router
    router.close()


@pytest.fixture()
def tolerant():
    router = launch_demo(2, n_records=N_RECORDS, replication=TOLERANT)
    yield router
    router.close()


class TestDeltaShipping:
    def test_acked_writes_ship_synchronously(self, tolerant):
        keys = keys_on_shard(tolerant, 0)
        for step, key in enumerate(keys[:3]):
            write(tolerant, key, 1000 + step)
        rs = tolerant.shards[0]
        (replica,) = rs.live_replicas()
        assert rs.write_epoch == 3
        assert replica.applied_epoch == rs.write_epoch
        assert rs.lag_ops(replica) == 0
        assert len(rs.delta_log) == 3
        assert rs.shipped_ops_total == 3

    def test_blackholed_replica_accrues_exact_lag_then_resyncs(self, tolerant):
        rs = tolerant.shards[0]
        (replica,) = rs.live_replicas()
        keys = keys_on_shard(tolerant, 0)
        injector = ChaosInjector(tolerant, seed=3)
        injector.pause(replica)
        try:
            for key in keys[:2]:
                write(tolerant, key, 2000)  # acked despite the black hole
        finally:
            injector.resume(replica)
        assert rs.write_epoch == 2
        assert replica.applied_epoch == 0
        assert rs.lag_ops(replica) == 2  # one op per missed shipment
        assert replica.health == "suspect"  # lagging, not dead
        rs.resync(replica)
        assert replica.applied_epoch == rs.write_epoch
        assert rs.lag_ops(replica) == 0
        assert replica.health == "healthy"

    def test_duplicate_epoch_is_deduplicated_on_the_worker(self, tolerant):
        key = keys_on_shard(tolerant, 0)[0]
        write(tolerant, key, 3000)
        rs = tolerant.shards[0]
        result = rs.primary.client.call(
            "update", relation="r",
            ops=[{"kind": "update", "key": key, "changes": {"v": 9999}}],
            client="retry", epoch=rs.write_epoch,
        )
        assert result["applied"] == 0
        assert result.get("duplicate") is True
        expected = base_total() - next(
            values["v"] for values in demo_records() if values["id"] == key
        ) + 3000
        assert tolerant.query("total") == expected


class TestInDoubtWrites:
    def test_ambiguous_timeout_resolves_without_loss_or_double_apply(self):
        router = launch_demo(1, n_records=60)
        try:
            records = demo_records(60)
            key_a, key_b = records[0]["id"], records[1]["id"]
            rs = router.shards[0]
            injector = ChaosInjector(router, seed=5)
            injector.pause(rs.primary)
            try:
                with pytest.raises(ShardTimeout):
                    rs.apply_update(
                        "r",
                        [{"kind": "update", "key": key_a,
                          "changes": {"v": 777}}],
                        timeout=0.3,
                    )
            finally:
                injector.resume(rs.primary)
            # The batch committed on the worker even though the ack was
            # lost; its epoch must not be reused for the next write.
            assert rs.write_epoch == 0
            time.sleep(0.3)
            rs.apply_update(
                "r", [{"kind": "update", "key": key_b, "changes": {"v": 888}}]
            )
            assert rs.write_epoch == 2
            expected = (
                base_total(60)
                - records[0]["v"] - records[1]["v"] + 777 + 888
            )
            assert router.query("total") == expected
        finally:
            router.close()


class TestFailover:
    def test_primary_kill_promotes_inline_and_keeps_acked_writes(
        self, supervised
    ):
        key = keys_on_shard(supervised, 0)[0]
        write(supervised, key, 4000)  # acked *before* the crash
        rs = supervised.shards[0]
        ChaosInjector(supervised, seed=7).kill_primary(0)
        write(supervised, key, 4001)  # forces inline promotion
        assert rs.promotions_total >= 1
        assert rs.primary.process.is_alive()
        expected = base_total() - next(
            values["v"] for values in demo_records() if values["id"] == key
        ) + 4001
        assert supervised.query("total") == expected

    def test_reads_fail_over_to_replica_with_staleness_label(self, tolerant):
        rs = tolerant.shards[0]
        (replica,) = rs.live_replicas()
        keys = keys_on_shard(tolerant, 0)
        injector = ChaosInjector(tolerant, seed=9)
        injector.pause(replica)
        try:
            for key in keys[:2]:
                write(tolerant, key, 5000)
        finally:
            injector.resume(replica)
        injector.kill_primary(0)
        lo, hi = chunk_bounds(0)  # a range owned entirely by shard 0
        answer = tolerant.query("by_a", lo, hi)
        assert isinstance(answer, DegradedResult)
        assert answer.mode == "stale_read"
        assert answer.staleness_bound == 2  # exactly the missed ops
        assert counter_value(tolerant, "replica_served_total", shard="0") == 1

    def test_supervisor_respawns_replacement_from_snapshot(self, supervised):
        rs = supervised.shards[0]
        key = keys_on_shard(supervised, 0)[0]
        write(supervised, key, 6000)
        ChaosInjector(supervised, seed=11).kill_primary(0)
        assert wait_until(
            lambda: rs.promotions_total >= 1
            and rs.respawns_total >= 1
            and len(rs.live_members()) == 2
        ), "supervisor never restored 1+1 membership"
        (replacement,) = rs.live_replicas()
        # Snapshot epoch + replayed deltas: the newcomer is caught up.
        assert wait_until(lambda: rs.lag_ops(replacement) == 0)
        write(supervised, key, 6001)  # shipping includes the newcomer
        assert replica_epoch(rs, replacement) == rs.write_epoch

    def test_poisoned_client_is_repaired_in_place(self):
        router = launch_demo(2, n_records=N_RECORDS)
        try:
            rs = router.shards[0]
            client = rs.primary.client
            client._broken = "test: simulated transport desync"
            lo, hi = chunk_bounds(0)
            answer = router.query("by_a", lo, hi)  # repaired inline
            assert not isinstance(answer, DegradedResult)
            assert client.broken is None
            assert client.reconnects_total == 1
            assert rs.repairs_total == 1
            key = keys_on_shard(router, 0)[0]
            write(router, key, 7000)  # the write path reuses the repair
        finally:
            router.close()


def replica_epoch(rs, member):
    pong = member.client.call("ping", timeout=2.0)
    return int(pong.get("epoch", -1))


def counter_value(router, name, **labels):
    return router.metrics.counter(name, **labels).value


class TestChaosInjector:
    def test_events_are_logged_with_monotonic_offsets(self, tolerant):
        injector = ChaosInjector(tolerant, seed=13)
        first = injector.kill_primary(1)
        assert wait_until(
            lambda: not tolerant.shards[1].primary.process.is_alive()
        )
        second = injector.kill_random_replica(1)
        assert [e["action"] for e in injector.events] == ["kill", "kill"]
        assert first["shard"] == 1 and second["shard"] == 1
        assert 0.0 <= first["t"] <= second["t"]
        assert first["pid"] != second["pid"]

    def test_killing_an_already_dead_primary_is_a_chaos_error(self, tolerant):
        injector = ChaosInjector(tolerant, seed=15)
        injector.kill_primary(0)
        assert wait_until(
            lambda: not tolerant.shards[0].primary.process.is_alive()
        )
        with pytest.raises(ChaosError, match="no live primary"):
            injector.kill_primary(0)

    def test_delay_pauses_then_resumes(self, tolerant):
        rs = tolerant.shards[1]
        (replica,) = rs.live_replicas()
        with ChaosInjector(tolerant, seed=17) as injector:
            injector.delay(replica, 0.2)
            assert [e["action"] for e in injector.events] == ["pause"]
            assert wait_until(
                lambda: [e["action"] for e in injector.events]
                == ["pause", "resume"],
                timeout=5.0,
            )
        pong = replica.client.call("ping", timeout=2.0)
        assert "epoch" in pong


class TestOrphanReaping:
    def test_close_reaps_every_process_ever_spawned(self, supervised):
        rs = supervised.shards[0]
        ChaosInjector(supervised, seed=19).kill_primary(0)
        assert wait_until(
            lambda: rs.respawns_total >= 1 and len(rs.live_members()) == 2
        )
        # Membership churned: the set now carries the dead primary, the
        # promoted survivor and a respawned replacement.
        assert len(rs.members) == 3
        all_pids = [
            member.process.pid
            for shard in supervised.shards
            for member in shard.members
        ]
        assert len(live_worker_pids(supervised)) == 4  # 2 shards x (1+1)
        supervised.close()
        for pid in all_pids:
            with pytest.raises((ProcessLookupError, PermissionError)):
                os.kill(pid, 0)
