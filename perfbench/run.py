"""End-to-end benchmark of the serving stack, with a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``serve-deferred-durable``,
``serve-immediate-scan`` and ``gateway-cluster``.  ``BENCHMARK.json``
lists the first and the last.  ``serve-immediate-scan`` runs by hand
and in the benchmark's tests only: on a 2-vCPU sandbox its whole-view
scans slow by up to 45% within a minute when the shared host is busy,
and in each of three sets of ten 40 s runs one of its p50s spread 0.26
to 0.29 (quartile distance over median), beyond the largest bound,
while the other two workloads stayed below 0.14.

Each run replays a seeded, pre-generated request stream from one
closed-loop client with no pacing, no adaptive router and no result
caches, in as many identical trials as fit in ``--seconds`` (at least
two untraced).

``--trace 0`` prints the end-to-end metrics over all trials of the run.
Latency is split by operation kind, because one mixed query percentile
sits between the modes of whole-view scans and scalar reads.  The tail
is p95, not p99, because p99 over about 2,000 samples spread about 20%
between identical runs on a 2-core sandbox; a percentile is refused
unless at least ten samples lie beyond it.  Both percentiles are means
over windows of consecutive requests of one kind (see
:func:`windowed`).  ``failed`` counts the failed requests and
end-of-trial checks of every trial, and ``failed_ops_ratio`` is
``failed / attempted``; ``recovery_s`` and ``wal_bytes_per_update``
exist on the durable workload only, so they are reported with the
per-layer metrics (``durability.*``).

``--trace 1`` alternates untraced trials (collector pauses, untraced
request time) with traced ones, and prints the per-layer metrics with
the end-to-end metric each should move; the spans are written to
``.perfbench/`` beside a JSON report.  ``trace.overhead_ratio`` is the
median over pairs of traced over untraced request time.
``trace.coverage_ratio`` is the self time of the named layers below the
request's entry point (``service`` in process, ``gateway.call`` on the
cluster) as a share of traced request time; the rest is the entry
point's own code and whatever no wrapper names.

Every answer is checked (see ``workloads.py``); the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` and the exit code is nonzero when any check
failed.  Run from the root of a full checkout: ``src/`` must hold the
``repro`` package.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "range_p50_ms": "ms",
    "range_p95_ms": "ms",
    "agg_p50_ms": "ms",
    "agg_p95_ms": "ms",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "modelled_ms_per_query": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> (unit, what it should
#: move, the workload that exercises it / one where it should not move).
#: ``*_ms`` is attributed self time per request; ``1/op`` is per request.
#: Outside ``serve-immediate-scan`` (run by hand), ``maintenance.immediate_ms``
#: reads 0: no other workload has an IMMEDIATE view.
PER_LAYER = {
    "storage.checksum_ms": ("ms", "update_p50_ms agg_p95_ms ops_per_s", "deferred / immediate ranges"),
    "storage.disk_write_ms": ("ms", "update_p50_ms agg_p95_ms ops_per_s", "deferred / immediate ranges"),
    "storage.flush_ms": ("ms", "update_p50_ms agg_p95_ms ops_per_s", "deferred / immediate ranges"),
    "storage.pool_get_ms": ("ms", "update_p50_ms agg_p95_ms ops_per_s", "deferred / immediate ranges"),
    "storage.bloom_ms": ("ms", "update_p50_ms agg_p95_ms ops_per_s", "deferred / immediate ranges"),
    "storage.page_reads": ("1/op", "modelled_ms_per_query (count, must repeat)", "all in-process"),
    "storage.page_writes": ("1/op", "modelled_ms_per_query (count, must repeat)", "all in-process"),
    "storage.pool_hit_ratio": ("ratio", "range_p50_ms update_p50_ms", "all in-process"),
    "hr.write_ms": ("ms", "update_p50_ms", "deferred / immediate"),
    "hr.net_changes_ms": ("ms", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "hr.reset_ms": ("ms", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "hr.ad_entries_per_epoch": ("count", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "hr.net_cancel_ratio": ("ratio", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "hr.ad_ops": ("1/op", "modelled_ms_per_query (count, must repeat)", "all in-process"),
    "hr.net_reads": ("1/op", "equals maintenance.refresh_epochs on deferred", "deferred"),
    "maintenance.refresh_ms": ("ms", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "maintenance.refresh_epochs": ("1/op", "agg_p95_ms range_p95_ms", "deferred / immediate"),
    "maintenance.net_ms": ("ms", "agg_p95_ms", "deferred / immediate"),
    "maintenance.install_ms": ("ms", "agg_p95_ms", "deferred / immediate"),
    "maintenance.screen_ms": ("ms", "update_p50_ms", "immediate / deferred"),
    "maintenance.screen_pass_ratio": ("ratio", "update_p50_ms", "immediate / deferred"),
    "maintenance.immediate_ms": ("ms", "update_p50_ms", "immediate / deferred"),
    "maintenance.screens": ("1/op", "modelled_ms_per_query (count, must repeat)", "all in-process"),
    "views.read_range_ms": ("ms", "range_p50_ms range_p95_ms ops_per_s", "immediate / deferred"),
    "views.rows_per_query": ("count", "range_p50_ms range_p95_ms", "immediate / deferred"),
    "views.apply_changes_ms": ("ms", "update_p50_ms agg_p95_ms", "immediate / deferred"),
    "views.agg_apply_ms": ("ms", "update_p50_ms agg_p95_ms", "immediate / deferred"),
    "durability.wal_append_ms": ("ms", "update_p50_ms update_p95_ms", "deferred / immediate"),
    "durability.wal_sync_ms": ("ms", "update_p50_ms update_p95_ms", "deferred / immediate"),
    "durability.fsyncs": ("1/op", "update_p95_ms", "deferred / immediate"),
    "durability.checkpoint_ms": ("ms", "update_p95_ms agg_p95_ms", "deferred / immediate"),
    "durability.checkpoints": ("count", "update_p95_ms (count per trial)", "deferred / immediate"),
    "durability.replay_records": ("count", "durability.recovery_s", "deferred / immediate"),
    "durability.recovery_s": ("s", "time to reopen the abandoned state dir", "deferred / immediate"),
    "durability.wal_bytes_per_update": ("B", "update_p50_ms durability.recovery_s", "deferred / immediate"),
    "engine.self_ms": ("ms", "agg_p50_ms", "all"),
    "service.self_ms": ("ms", "agg_p50_ms", "all"),
    "concurrency.lock_ms": ("ms", "agg_p50_ms", "all"),
    "concurrency.lock_calls": ("1/op", "agg_p50_ms", "all"),
    "runtime.gc_ms": ("ms", "range_p95_ms", "immediate / deferred"),
    "runtime.gc_gen2_calls": ("count", "range_p95_ms (count per trial)", "immediate / deferred"),
    "trace.overhead_ratio": ("ratio", "traced / untraced request time", "all"),
    "trace.coverage_ratio": ("ratio", "layer self time below the entry point / traced request time", "all"),
    # Exercised on gateway-cluster only: its layers run nowhere else, and
    # its engine runs in untraced shard workers, so every in-process
    # layer reads 0 there, as these do on the in-process workloads.
    "cluster.router_self_ms": ("ms", "ops_per_s agg_p50_ms", "gateway-cluster"),
    "cluster.rpc_ms": ("ms", "ops_per_s agg_p50_ms", "gateway-cluster"),
    "cluster.rpc_calls": ("1/op", "ops_per_s agg_p50_ms", "gateway-cluster"),
    "gateway.self_ms": ("ms", "ops_per_s range_p50_ms", "gateway-cluster"),
    "gateway.rejected_ratio": ("ratio", "ops_per_s", "gateway-cluster"),
}


#: Set-ups timed after each trial of a ``--trace 0`` run, besides the
#: trial's own: ``setup_s`` is their median, and they are spread over
#: the run because the sandbox's speed changes within a second.
EXTRA_SETUPS = 2
#: Untraced trials per ``--trace 0`` run, at least.
MIN_TRIALS = 2
#: Consecutive requests of one kind per window, by percentile: the p95
#: window is large enough that ten of its samples lie beyond the p95.
WINDOWS = {50: 50, 95: 200}
#: Spans whose self time is the entry point's own, not a named layer's.
ENTRY_SPANS = ("request", "service", "gateway.call")


@dataclass
class Run:
    """One benchmark invocation: the contract's result plus the trials."""

    result: dict[str, Any]
    trials: list[Any]
    traced: list[Any]
    failures: list[str]
    extra: dict[str, float]


def _rounds(until: float, minimum: int, *steps: Callable[[], Any]) -> list[list[Any]]:
    """Rounds of ``steps`` (a trial, a set-up) while the next round still
    fits before ``until``.  Returns the outcomes of each step, in order."""
    rounds: list[list[Any]] = []
    longest = 0.0
    while len(rounds) < minimum or perf_counter() + longest <= until:
        start = perf_counter()
        rounds.append([step() for step in steps])
        longest = max(longest, perf_counter() - start)
    return [list(outcomes) for outcomes in zip(*rounds)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses a tail with fewer than 10 samples."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    beyond = len(ordered) - int(rank)
    if q > 50 and beyond < 10:
        raise ValueError(
            f"p{q:g} over {len(ordered)} samples has {beyond} beyond it (< 10)"
        )
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def windowed(trials: list[Any], kind: str, q: int) -> float:
    """Mean of the ``q``-th percentiles of windows of consecutive
    requests of one kind (``WINDOWS[q]`` each, over the trials in order).

    The sandbox switches between fast and slow spells lasting seconds.
    A percentile of a whole run jumps when a spell's share of the run
    crosses the percentile (a p95 is set by the slow spells alone once
    they hold 5% of the requests); a window of consecutive requests sits
    in one spell, so the mean over windows moves smoothly with the share
    of time spent in each.  Fewer samples than one window make a single
    window.
    """
    size = WINDOWS[q]
    samples = [s for t in trials for s in t.latency_s[kind]]
    starts = range(0, max(1, len(samples) - size + 1), size)
    return statistics.fmean(percentile(samples[i:i + size], q) for i in starts) * 1000.0


def end_to_end(trials: list[Any], setups: list[float]) -> dict[str, float]:
    """Figures over every trial of the run (see :func:`windowed`)."""
    ops = sum(t.ops for t in trials)
    metrics = {"ops_per_s": ops / sum(t.busy_s for t in trials)}
    for kind in ("range", "agg", "update"):
        metrics[f"{kind}_p50_ms"] = windowed(trials, kind, 50)
        metrics[f"{kind}_p95_ms"] = windowed(trials, kind, 95)
    metrics["cpu_ms_per_op"] = sum(t.cpu_s for t in trials) * 1000.0 / ops
    metrics["setup_s"] = statistics.median(setups)
    metrics["modelled_ms_per_query"] = statistics.median(
        t.modelled_ms / t.queries for t in trials
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(tracer: Any, traced: list[Any], watcher: Any, untraced: list[Any]) -> dict[str, float]:
    self_ms = tracer.self_ms
    requests = tracer.requests

    def ms(*names: str) -> float:
        return sum(self_ms.get(name, 0.0) for name in names) / requests

    trial = traced[0]  # every trial's counts are identical
    counts = trial.counts

    def per_op(key: str) -> float:
        return counts.get(key, 0) / trial.attempted

    recoveries = [t.recovery_s for t in untraced + traced if t.recovery_s is not None]
    layer_ms = sum(v for name, v in self_ms.items() if name not in ENTRY_SPANS)
    return {
        "storage.checksum_ms": ms("storage.checksum"),
        "storage.disk_write_ms": ms("storage.disk_write"),
        "storage.flush_ms": ms("storage.flush"),
        "storage.pool_get_ms": ms("storage.pool_get"),
        "storage.bloom_ms": ms("storage.bloom"),
        "storage.page_reads": per_op("storage.page_reads"),
        "storage.page_writes": per_op("storage.page_writes"),
        "storage.pool_hit_ratio": _ratio(
            counts.get("storage.pool_hits", 0),
            counts.get("storage.pool_hits", 0) + counts.get("storage.pool_misses", 0),
        ),
        "hr.write_ms": ms("hr.write"),
        "hr.net_changes_ms": ms("hr.net_changes"),
        "hr.reset_ms": ms("hr.reset"),
        "hr.ad_entries_per_epoch": _ratio(
            counts.get("hr.ad_entries_read", 0), counts.get("hr.net_reads", 0)
        ),
        "hr.net_cancel_ratio": _ratio(
            counts.get("hr.net_tuples", 0), counts.get("hr.ad_entries_read", 0)
        ),
        "hr.ad_ops": per_op("hr.ad_ops"),
        "hr.net_reads": per_op("hr.net_reads"),
        "maintenance.refresh_ms": ms("maintenance.refresh"),
        "maintenance.refresh_epochs": per_op("maintenance.refresh_epochs"),
        "maintenance.net_ms": ms("maintenance.net"),
        "maintenance.install_ms": ms("maintenance.install"),
        "maintenance.screen_ms": ms("maintenance.screen"),
        "maintenance.screen_pass_ratio": _ratio(
            counts.get("maintenance.screen_passed", 0),
            counts.get("maintenance.screened", 0),
        ),
        "maintenance.immediate_ms": ms("maintenance.immediate"),
        "maintenance.screens": per_op("maintenance.screens"),
        "views.read_range_ms": ms("views.read_range"),
        "views.rows_per_query": _ratio(
            counts.get("views.rows_read", 0), counts.get("range_queries", 0)
        ),
        "views.apply_changes_ms": ms("views.apply_changes"),
        "views.agg_apply_ms": ms("views.agg_apply"),
        "durability.wal_append_ms": ms("durability.wal_append"),
        "durability.wal_sync_ms": ms("durability.wal_sync"),
        "durability.fsyncs": per_op("durability.fsyncs"),
        "durability.checkpoint_ms": ms("durability.checkpoint"),
        "durability.checkpoints": counts.get("durability.checkpoints", 0),
        "durability.replay_records": counts.get("durability.replay_records", 0),
        "durability.recovery_s": statistics.median(recoveries) if recoveries else 0.0,
        "durability.wal_bytes_per_update": _ratio(
            counts.get("durability.wal_bytes", 0), trial.updates
        ),
        "engine.self_ms": ms("engine"),
        "service.self_ms": ms("service"),
        "concurrency.lock_ms": ms("concurrency.acquire", "concurrency.release"),
        "concurrency.lock_calls": tracer.calls.get("concurrency.acquire", 0) / requests,
        "cluster.router_self_ms": ms("cluster.router"),
        "cluster.rpc_ms": ms("cluster.rpc"),
        "cluster.rpc_calls": tracer.calls.get("cluster.rpc", 0) / requests,
        "gateway.self_ms": ms("gateway.call"),
        "gateway.rejected_ratio": _ratio(counts.get("gateway.rejected", 0), trial.attempted),
        "runtime.gc_ms": watcher.gc_ms / sum(t.attempted for t in untraced),
        "runtime.gc_gen2_calls": watcher.gc_gen2 / len(untraced),
        "trace.overhead_ratio": statistics.median(
            t.busy_s / u.busy_s for u, t in zip(untraced, traced)
        ),
        "trace.coverage_ratio": layer_ms / tracer.request_ms,
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> Run:
    """Prepare one workload, run its trials and assemble the result."""
    from tracing import Tracer
    from workloads import make_workload

    workload = make_workload(name, small=small)
    workdir = OUT / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, workdir)
    start = perf_counter()
    traced: list[Any] = []
    extra: dict[str, float] = {}
    if not trace:
        trials, *extra_setups = _rounds(
            start + seconds, MIN_TRIALS,
            workload.trial, *[workload.setup_only] * EXTRA_SETUPS,
        )
        setups = [t.setup_s for t in trials] + [s for step in extra_setups for s in step]
        metrics = end_to_end(trials, setups)
    else:
        watcher, tracer = Tracer(), Tracer()
        trials, traced = _rounds(
            start + seconds, 1,
            partial(workload.trial, tracer=watcher),
            partial(workload.trial, tracer=tracer, spans=True),
        )
        metrics = per_layer(tracer, traced, watcher, trials)
        _write_json(workdir.parent / f"spans-{name}-{seed}.json", {
            "workload": name,
            "seed": seed,
            "note": "spans of the first traced requests; self_ms covers all",
            "requests_traced": tracer.requests,
            "self_ms_per_request": {
                span: total / tracer.requests for span, total in sorted(tracer.self_ms.items())
            },
            "calls_per_request": {
                span: count / tracer.requests for span, count in sorted(tracer.calls.items())
            },
            "trace.overhead_ratio": metrics["trace.overhead_ratio"],
            "trace.coverage_ratio": metrics["trace.coverage_ratio"],
            "spans": tracer.exported,
        })
    everything = trials + traced
    failures = list(getattr(workload, "twin_failures", ()))
    failed = _failed(failures)
    for trial in everything:
        failures.extend(trial.failures)
        failed += _failed(trial.failures)
    attempted = sum(t.attempted for t in everything)
    recoveries = [t.recovery_s for t in everything if t.recovery_s is not None]
    extra["failed_ops_ratio"] = failed / attempted
    extra["trials"] = len(everything)
    if recoveries:
        extra["recovery_s"] = statistics.median(recoveries)
        extra["wal_bytes_per_update"] = everything[0].counts["durability.wal_bytes"] / everything[0].updates
    units = END_TO_END if not trace else {k: v[0] for k, v in PER_LAYER.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    _write_json(workdir.parent / f"report-{name}-{seed}-trace{int(trace)}.json", {
        "workload": name, "seed": seed, "result": result, "extra": extra,
        "failures": failures[:100],
    })
    return Run(result, trials, traced, failures, extra)


def _failed(messages: list[str]) -> int:
    """Distinct failed requests (or end checks) among one trial's failures;
    a message starts with its request, as in ``request 12 (range): ...``."""
    return len({message.split(":")[0] for message in messages})


def _write_json(path: Path, doc: Any) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, entry in outcome.result["metrics"].items():
        note = "" if not args.trace else f"  moves {PER_LAYER[key][1]}; {PER_LAYER[key][2]}"
        print(f"{key:34s} {entry['value']:14.6g} {entry['unit']}{note}")
    for key, value in outcome.extra.items():
        print(f"{key:34s} {value:14.6g}")
    for message in outcome.failures[:20]:
        print(f"FAILED {message}")
    print(json.dumps(outcome.result))
    return 0 if outcome.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
