"""The benchmark's own checks, on shrunken workloads.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

* Exact counts repeat: two runs with one seed give identical page I/O,
  screens, AD operations, refresh epochs (equal to the relation's net
  reads on the deferred workload), fsyncs, WAL bytes per update, RPC
  calls and modelled cost per query.
* The oracle catches a wrong answer and the command exits nonzero.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

EXACT = (
    "storage.page_reads",
    "storage.page_writes",
    "maintenance.screens",
    "hr.ad_ops",
    "hr.net_reads",
    "maintenance.refresh_epochs",
    "durability.fsyncs",
    "durability.wal_bytes_per_update",
    "durability.checkpoints",
    "durability.replay_records",
    "cluster.rpc_calls",
    "concurrency.lock_calls",
    "views.rows_per_query",
)


def _counts(outcome: bench.Run) -> tuple[dict[str, float], list[float]]:
    metrics = outcome.result["metrics"]
    modelled = [t.modelled_ms / t.queries for t in outcome.trials + outcome.traced]
    return {name: metrics[name]["value"] for name in EXACT if name in metrics}, modelled


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(name: str) -> None:
    first = bench.run(name, seed=3, seconds=0, trace=True, small=True)
    second = bench.run(name, seed=3, seconds=0, trace=True, small=True)
    assert first.result["correct"] and second.result["correct"], first.failures
    counts, modelled = _counts(first)
    assert _counts(second) == (counts, modelled)
    assert len(set(modelled)) == 1  # every trial replays the same stream
    if name == "serve-deferred-durable":
        assert counts["maintenance.refresh_epochs"] > 0
        assert counts["maintenance.refresh_epochs"] == counts["hr.net_reads"]
        assert counts["durability.fsyncs"] > 0
        assert counts["durability.replay_records"] > 0
    if name == "gateway-cluster":
        assert counts["cluster.rpc_calls"] > 1  # aggregates scatter to both shards


def test_oracle_rejects_a_wrong_answer(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.views.matview import MaterializedView

    read_range = MaterializedView.read_range

    def drop_last_row(self, lo, hi):
        return read_range(self, lo, hi)[:-1]

    monkeypatch.setattr(MaterializedView, "read_range", drop_last_row)
    make = workloads.make_workload
    monkeypatch.setattr(workloads, "make_workload", lambda name, small=False: make(name, small=True))
    argv = ["--workload", "serve-immediate-scan", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert bench.main(argv) == 1
    outcome = bench.run("serve-immediate-scan", seed=1, seconds=0, trace=True, small=True)
    assert not outcome.result["correct"]
    # Every whole-view range answer of every trial is short a row, and so
    # is each trial's end-of-stream check.
    trials = outcome.trials + outcome.traced
    assert len(trials) == 2
    assert outcome.result["failed"] == sum(t.counts["range_queries"] + 1 for t in trials)
