"""Open-loop load generation: population shape, validators, reports."""

import random

import pytest

from repro.gateway import AdmissionConfig, GatewayConfig, GatewayHandle, ViewServerBackend
from repro.service.traffic import demo_server
from repro.workload.clients import (
    LoadReport,
    OpenLoopConfig,
    ZipfClientPopulation,
    demo_request_factory,
    exact_percentile,
    run_closed_loop,
    run_open_loop,
)


class TestZipfClientPopulation:
    def test_weights_are_monotone_and_normalized(self):
        population = ZipfClientPopulation(10, s=1.2, seed=3)
        assert len(population.names) == 10
        assert all(a > b for a, b in
                   zip(population.weights, population.weights[1:]))
        assert sum(population.weights) == pytest.approx(1.0)

    def test_head_dominates(self):
        population = ZipfClientPopulation(20, s=1.1, seed=3)
        assert population.share(3) > 0.45

    def test_picks_follow_the_weights(self):
        population = ZipfClientPopulation(5, s=1.5, seed=11)
        counts = {}
        for _ in range(3000):
            name = population.pick()
            counts[name] = counts.get(name, 0) + 1
        ranked = sorted(counts, key=counts.get, reverse=True)
        assert ranked[0] == population.names[0]

    def test_requires_at_least_one_client(self):
        with pytest.raises(ValueError):
            ZipfClientPopulation(0)


class TestExactPercentile:
    def test_empty_is_none(self):
        assert exact_percentile([], 0.5) is None

    def test_known_values(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert exact_percentile(values, 0.0) == 10.0
        assert exact_percentile(values, 1.0) == 40.0
        assert exact_percentile(values, 0.5) == pytest.approx(25.0)

    def test_input_order_does_not_matter(self):
        assert exact_percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exact_percentile([1.0], 1.5)


class TestLoadReport:
    def test_outcome_accounting(self):
        report = LoadReport()
        for latency in (10.0, 20.0, 30.0):
            report.record("ok", latency)
        report.record("degraded", 50.0)
        report.record("rejected_rate", 0.5)
        report.record("expired", 100.0)
        report.offered = 6
        report.duration_s = 2.0
        assert report.ok == 4
        assert report.rejected == 2
        assert report.goodput() == pytest.approx(2.0)
        assert report.percentile("ok", 0.5) == 20.0

    def test_to_dict_summarizes_percentiles(self):
        report = LoadReport(offered=2, duration_s=1.0)
        report.record("ok", 5.0)
        report.record("ok", 15.0)
        doc = report.to_dict()
        assert doc["outcomes"]["ok"]["count"] == 2
        assert doc["outcomes"]["ok"]["p50_ms"] == pytest.approx(10.0)
        assert doc["wrong_results"] == 0


class TestDemoRequestFactory:
    def test_mix_and_shapes(self):
        factory = demo_request_factory(query_fraction=0.8)
        rng = random.Random(5)
        ops = [factory(rng)[0]["op"] for _ in range(400)]
        assert 0.7 < ops.count("query") / len(ops) < 0.9
        assert set(ops) == {"query", "update"}

    def test_tuples_validator_flags_out_of_range(self):
        factory = demo_request_factory(query_fraction=1.0)
        rng = random.Random(0)
        while True:
            doc, validator = factory(rng)
            if doc["view"] == "v_tuples":
                break
        good = {"kind": "tuples",
                "items": [{"id": 1, "a": doc["lo"]}], "degraded": None}
        assert validator(good) is None
        bad = {"kind": "tuples",
               "items": [{"id": 1, "a": doc["hi"] + 1}], "degraded": None}
        assert "outside" in validator(bad)

    def test_total_validator_requires_numeric_scalar(self):
        factory = demo_request_factory()
        rng = random.Random(1)
        while True:
            doc, validator = factory(rng)
            if doc.get("view") == "v_total":
                break
        assert validator({"kind": "scalar", "value": 12}) is None
        assert validator({"kind": "scalar", "value": "twelve"}) is not None
        assert validator({"kind": "tuples", "items": []}) is not None

    def test_update_validator_requires_full_application(self):
        factory = demo_request_factory(query_fraction=0.0)
        rng = random.Random(2)
        doc, validator = factory(rng)
        assert doc["op"] == "update"
        assert validator({"applied": len(doc["ops"])}) is None
        assert validator({"applied": 0}) is not None


class TestAgainstLiveGateway:
    @pytest.fixture(scope="class")
    def gateway(self):
        demo = demo_server(n_tuples=400, seed=7)
        handle = GatewayHandle.launch(
            ViewServerBackend(demo.server),
            GatewayConfig(admission=AdmissionConfig(max_queue=32), workers=2),
        )
        yield handle
        handle.stop()

    def test_open_loop_offers_on_schedule(self, gateway):
        report = run_open_loop(
            "127.0.0.1", gateway.port,
            OpenLoopConfig(rate=50.0, duration_s=1.0, deadline_ms=2000.0,
                           n_clients=6, seed=3),
            demo_request_factory(key_count=400),
        )
        assert report.offered == 50
        assert report.duration_s == pytest.approx(1.0)
        assert report.ok == 50  # unloaded: everything admitted and served
        assert not report.wrong and not report.errors
        assert report.server_stats["queue"]["peak"] <= 32
        assert report.percentile("ok", 0.99) is not None

    def test_closed_loop_reports_throughput(self, gateway):
        report = run_closed_loop(
            "127.0.0.1", gateway.port,
            demo_request_factory(key_count=400),
            concurrency=2, duration_s=0.5,
        )
        assert report.offered == report.ok + report.rejected + \
            report.outcomes.get("error", 0) + report.outcomes.get("lost", 0)
        assert report.goodput() > 0
        assert not report.wrong


#: Runs one short closed loop and prints each client's first requests.
_CLOSED_LOOP_PROBE = """
import json
from repro.gateway import GatewayHandle, ViewServerBackend
from repro.service.traffic import demo_server
from repro.workload.clients import demo_request_factory, run_closed_loop

issued = []
inner = demo_request_factory(key_count=400)

def factory(rng):
    doc, validator = inner(rng)
    issued.append(doc)  # the loop stamps doc["client"] after this returns
    return doc, validator

handle = GatewayHandle.launch(ViewServerBackend(demo_server(n_tuples=400, seed=7).server))
try:
    run_closed_loop("127.0.0.1", handle.port, factory, concurrency=3,
                    duration_s=0.3, seed=29)
finally:
    handle.stop()
streams = {}
for doc in issued:
    streams.setdefault(doc.pop("client"), []).append(doc)
print(json.dumps({name: docs[:4] for name, docs in sorted(streams.items())}))
"""


def test_closed_loop_streams_do_not_depend_on_the_hash_seed():
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")

    def streams(hash_seed):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _CLOSED_LOOP_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    first, second = streams("1"), streams("2")
    assert sorted(first) == ["probe00", "probe01", "probe02"]
    assert all(len(docs) == 4 for docs in first.values())
    assert first == second
