"""Quick-size tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from catalog import END_TO_END, PER_LAYER
from checks import check_run, check_service_pass, compare_counters
from repro.bench.experiments import experiment_config
from repro.ws import run_uts
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# ----------------------------------------------------------------------
# Every workload runs and prints each named metric
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name][0]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    # Every metric is also printed by name with its sample count.
    for name in names:
        assert any(line.startswith(name + " ") and "(n=" in line for line in out.stdout.splitlines())
    if trace:
        assert result["metrics"]["tracing.overhead_ratio"]["value"] > 0
        active = "service.submit_us" if workload == "service_zipf" else "protocol.messages"
        assert result["metrics"][active]["value"] > 0
        if workload in ("steal_storm", "steal_storm_2proc"):
            assert result["metrics"]["mp.rounds"]["value"] > 0
        if workload == "steal_storm_2proc":
            # Spans from the shard children were merged in.
            assert result["metrics"]["uts.self_s"]["value"] > 0


def test_tail_quantile_keeps_enough_samples_beyond():
    beyond = workloads.TAIL_BEYOND
    assert workloads.tail_quantile(3000, 0.99) == 0.99
    assert workloads.tail_quantile(600, 0.95) == 0.95
    for n, q in ((1000, 0.99), (500, 0.99), (300, 0.95)):
        low = workloads.tail_quantile(n, q)
        assert low < q and n - 1 - math.floor(low * (n - 1)) in (beyond, beyond + 1)
    assert workloads.tail_quantile(40, 0.95) == 0.5


def test_same_seed_same_counters_other_seed_other_script():
    spec = workloads.SERVICE_SPECS["quick"]
    u1 = workloads.service_universe(spec, 1)
    assert [c.fingerprint() for c in u1] == [
        c.fingerprint() for c in workloads.service_universe(spec, 1)
    ]
    s1 = workloads.request_scripts(spec, u1, 1)
    assert [[c.seed for c in s] for s in s1] == [
        [c.seed for c in s] for s in workloads.request_scripts(spec, u1, 1)
    ]
    u2 = workloads.service_universe(spec, 2)
    assert {c.seed for c in u1}.isdisjoint({c.seed for c in u2})


# ----------------------------------------------------------------------
# Each output check fires on a doctored result
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_run():
    spec = workloads.SIM_SPECS["quick"]["compute_bound"]
    config = workloads.sim_config(spec, 5)
    from repro.uts.params import tree_by_name
    from repro.uts.sequential import sequential_count

    oracle = sequential_count(tree_by_name(spec.tree)).total_nodes
    return config, run_uts(config), oracle


def _doctored(result, **changes):
    return dataclasses.replace(result, **changes)


def test_checks_pass_on_a_real_run(quick_run):
    config, result, oracle = quick_run
    assert check_run(result, result.latency_profile(), oracle, config.per_node_time) == []


def test_check_fires_on_dropped_node(quick_run):
    config, result, oracle = quick_run
    bad = _doctored(result, total_nodes=result.total_nodes - 1)
    assert any("total_nodes" in m for m in check_run(bad, result.latency_profile(), oracle, config.per_node_time))


@pytest.mark.parametrize("delta", [-1, "over"])
def test_check_fires_on_unbalanced_steal_accounting(quick_run, delta):
    config, result, oracle = quick_run
    answered = result.failed_steals + result.successful_steals
    requests = answered - 1 if delta == -1 else answered + result.nranks + 1
    bad = _doctored(result, steal_requests=requests)
    assert any("steal_requests" in m for m in check_run(bad, result.latency_profile(), oracle, config.per_node_time))


def test_check_fires_on_impossible_makespan(quick_run):
    config, result, oracle = quick_run
    bad = _doctored(result, total_time=result.total_time / (10 * result.nranks))
    assert any("total_time" in m for m in check_run(bad, result.latency_profile(), oracle, config.per_node_time))


def test_check_fires_on_non_finite_profile(quick_run):
    config, result, oracle = quick_run
    profile = result.latency_profile()
    starting = profile.starting.copy()
    starting[0] = math.nan
    bad = dataclasses.replace(profile, starting=starting)
    assert any("SL/EL" in m for m in check_run(result, bad, oracle, config.per_node_time))


def test_counter_disagreement_is_flagged(quick_run):
    _, result, _ = quick_run
    first = workloads.counters(result)
    assert compare_counters(first, dict(first)) == []
    assert compare_counters(first, {**first, "sim.events": first["sim.events"] - 1})
    assert compare_counters(first, {**first, "digest": "0" * 64})


@dataclasses.dataclass
class _Stats:
    submitted: int = 11
    executed: int = 4
    dedup_joins: int = 1
    failed: int = 0
    cache_hits: int = 6


def test_service_accounting_checks():
    # 10 requests + warm-up: 4 cold requests on 3 jobs, 6 store hits.
    assert check_service_pass(_Stats(), 10, 4, 3) == []
    assert check_service_pass(_Stats(failed=1), 10, 4, 3)
    assert check_service_pass(_Stats(executed=5), 10, 4, 3)
    assert check_service_pass(_Stats(dedup_joins=0), 10, 4, 3)
    assert check_service_pass(_Stats(submitted=10), 10, 4, 3)


def test_failed_job_counts_against_the_run():
    report = workloads.Report()
    log = workloads.PassLog(requests=3, failures=["request for x failed: boom"])
    outcome = workloads.PassOutcome(0.1, 0.1, log, _Stats(submitted=4, executed=1, dedup_joins=0))
    workloads._check_pass(report, outcome)
    assert report.attempted == 3 and report.failed == 1
    from run import render

    _, result = render(report, trace=False)
    assert result["correct"] is False and result["failed"] == 1


def test_sample_check_fires_on_a_wrong_served_result():
    spec = workloads.SERVICE_SPECS["quick"]
    config = experiment_config("T3XS", 4, "1/N", "rand", "half", seed=7)
    good = run_uts(config)
    report = workloads.Report()
    workloads._sample_check(report, spec, {config.fingerprint(): (config, good)}, 1)
    assert report.failed == 0
    bad = _doctored(good, failed_steals=good.failed_steals + 1)
    workloads._sample_check(report, spec, {config.fingerprint(): (config, bad)}, 1)
    assert report.failed == 1


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("b.inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    tracer.wrap("a.outer", outer)()
    a, b = tracer.stats("a.outer"), tracer.stats("b.inner")
    assert a.calls == b.calls == 1
    assert a.total_s >= a.self_s + b.total_s - 1e-6
    assert abs(a.self_s - (a.total_s - b.total_s)) < 1e-9
    assert tracer.layer_self_s("b") == b.self_s


def test_installed_restores_originals():
    from repro.protocol.core import StealProtocol
    from repro.ws.results import RunResult

    before = (StealProtocol.__dict__["on_message"], RunResult.__dict__["from_outcome"])
    with Tracer().installed(["protocol", "ws", "store", "service", "exec"]):
        assert StealProtocol.__dict__["on_message"] is not before[0]
    assert (StealProtocol.__dict__["on_message"], RunResult.__dict__["from_outcome"]) == before


# ----------------------------------------------------------------------
# The catalogue matches BENCHMARK.json; no program, no result
# ----------------------------------------------------------------------


def test_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.GATED)
    assert set(workloads.GATED) <= set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    setup = END_TO_END["setup_s"]
    assert setup[:2] == ("s", "lower") and setup[2] == max(b for _, _, b in END_TO_END.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("compute_bound", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
