"""Self-tests of the benchmark: every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import layers
import oracles
import run
import workloads

TINY = 2
NAMES = sorted(workloads.WORKLOADS)
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def tiny_traced(name):
    return run.measure(name, seconds=0, trace=True, count=TINY,
                       check_suite=False, log=lambda *_: None)


def calls(result):
    return {k: v for k, v in result["per_layer"].items()
            if k.endswith(".calls")}


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_and_call_counts_repeat(name):
    first, second = tiny_traced(name), tiny_traced(name)
    untraced = run.summary(first, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == 3 * TINY
    assert {k: m["unit"] for k, m in untraced["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = run.summary(first, trace=True)
    assert {k: m["unit"] for k, m in traced["metrics"].items()} \
        == layers.per_layer_units()
    assert first["calls_consistent"] and second["calls_consistent"]
    assert calls(first) == calls(second)
    assert calls(first)["cli.parse_scenario.calls"] == TINY


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.per_layer_units()


def test_run_oracles_catch_a_lost_internalization():
    program = run.Program()
    item = workloads.generate("storm_defense", 0, 1)[0]
    _, (trace, metrics, _), _ = program.execute(item)
    assert oracles.check_run(item.scenario, trace, metrics) == []
    lost = next(r for r in trace.records if r.kind == "INTERNALIZE")
    trace.records.remove(lost)
    problems = oracles.check_run(item.scenario, trace, metrics)
    assert any("raised" in p for p in problems)


def test_window_count():
    assert oracles.max_in_window([0, 1, 2, 10], 3) == 3
    assert oracles.max_in_window([0, 3, 6], 3) == 1
    assert oracles.max_in_window([5, 5, 5], 1) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(workloads.BATCH) == 80.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(3) == 50.0


def test_layer_tracer_restores_the_program():
    program = run.Program()
    before = program.cli.parse_scenario
    tracer = layers.LayerTracer()
    tracer.install()
    assert program.cli.parse_scenario is not before
    tracer.uninstall()
    assert program.cli.parse_scenario is before
