"""The trace CSV and metrics JSON writers against csv.writer and
json.dumps (`support.csv_oracle`, `support.json_oracle`), and the
per-step trace append."""

import csv
import io
import math
from pathlib import Path

import pytest

from envelopesim import (
    EngineError,
    Metrics,
    Periodic,
    Scenario,
    ScenarioError,
    Storm,
    Task,
    TaskSet,
    Trace,
    TraceRecord,
    run_scenario,
)
from envelopesim.cli import load_scenario
from support import csv_oracle, json_oracle, random_scenario

DEMO_SCENARIOS = sorted(
    (Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json")
)


def assert_writers_match(trace, metrics):
    assert trace.to_csv_string() == csv_oracle(trace)
    assert metrics.to_json_string() == json_oracle(metrics)


def test_writers_match_the_oracles_on_the_random_suite():
    for seed in range(1000):
        assert_writers_match(*run_scenario(random_scenario(seed)))


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_writers_match_the_oracles_on_the_demos(path):
    assert_writers_match(*run_scenario(load_scenario(path)))


# the trace CSV

def scenario_with_ids(line, task):
    """A storm on a line with the given ids next to a plain periodic
    line: raises, suppressions, masks, alarms, releases and drops."""
    return Scenario(
        task_set=TaskSet([
            Task(id=task, wcet=1, period=5, importance=2, line=line,
                 envelope_n=1, envelope_w=5),
            Task(id="plain", wcet=1, period=4, importance=1, line="l",
                 envelope_n=1, envelope_w=4),
        ]),
        workload=[(line, Storm(2, 2)), ("l", Periodic(0, 4))],
        horizon=12,
    )


@pytest.mark.parametrize("char", [",", '"', "\n"],
                         ids=["comma", "quote", "newline"])
def test_ids_that_need_quoting_are_written_as_csv_writer_does(char):
    line, task = f"li{char}ne", f"{char}task{char}"
    trace, _ = run_scenario(scenario_with_ids(line, task))
    assert trace.of_kind(line=line)
    assert trace.to_csv_string() == csv_oracle(trace)


@pytest.mark.parametrize("line,task", [("li\rne", "task"),
                                       ("line", "ta\rsk")],
                         ids=["line", "task"])
def test_ids_with_a_carriage_return_are_refused(line, task):
    # csv.writer leaves "\r" unquoted under a "\n" line terminator, and
    # csv.reader then splits the record there
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario_with_ids(line, task))
    assert exc.value.problems == [
        f"task {task!r}: task and line ids may not hold a carriage return"
    ]


def test_a_carriage_return_in_a_built_trace_is_written_as_csv_writer_does():
    # the engine refuses such ids, but a Trace can be built by hand
    trace = Trace()
    trace.append(TraceRecord(0, "RAISE", "li\rne", "task", None, "x"))
    assert trace.to_csv_string() == csv_oracle(trace)


def test_quoted_ids_read_back():
    line, task = 'l,"i\nne"', '"\n,task'
    trace, _ = run_scenario(scenario_with_ids(line, task))
    rows = list(csv.reader(io.StringIO(trace.to_csv_string(), newline="")))
    assert rows[0] == ["time", "kind", "line", "task", "job", "detail"]
    assert rows[1:] == [
        [str(r.time), r.kind, r.line, r.task,
         "" if r.job is None else str(r.job), r.detail]
        for r in trace.records
    ]
    assert any(r.line == line for r in trace.records)


def test_plain_ids_take_the_unquoted_path(monkeypatch):
    trace, _ = run_scenario(scenario_with_ids("line", "task"))
    expected = csv_oracle(trace)

    def no_writer(*args, **kwargs):
        raise AssertionError("csv.writer used for a trace without quoting")

    monkeypatch.setattr(csv, "writer", no_writer)
    text = trace.to_csv_string()
    assert text == expected
    assert '"' not in text


# the metrics JSON

def metrics(per_task=None, per_line=None, alarms=(), total=0):
    return Metrics(per_task=per_task or {}, per_line=per_line or {},
                   alarms=list(alarms), total_top_half_time=total)


ROW = {"released": 3, "completions": 3, "misses": 0, "drops": 0,
       "notifications": 1, "max_response": 4, "avg_response": 7 / 3}
EMPTY_ROW = dict(ROW, completions=0, max_response=None, avg_response=None)
ALARMS = [{"time": 0, "line": "l", "kind": "enter_ooe"},
          {"time": 5, "line": "l", "kind": "fault"},
          {"time": 9, "line": "m", "kind": "exit_ooe"}]

METRICS_CASES = {
    "empty": metrics(),
    "no_alarms": metrics({"t": ROW}, {"l": {"raised": 2, "suppressed": 0}}),
    "several_alarms": metrics({"t": ROW}, {"l": {"raised": 2}}, ALARMS, 3),
    "no_responses": metrics({"t": EMPTY_ROW, "u": ROW}),
    "empty_per_task": metrics({}, {"l": {"raised": 1}}, ALARMS[:1]),
    "empty_rows": metrics({"t": {}}, {"l": {}}, [{}]),
    "escaped_ids": metrics(
        {"tä": ROW, 'q"t': EMPTY_ROW, "b\\s": ROW, "☃\n": ROW},
        {"lé": {"raised": 1}, 'l"\\': {"raised": 2}},
        [{"time": 1, "line": "lé", "kind": 'k"\\'}]),
    "bool_values": metrics({"t": dict(ROW, flag=True, off=False)}),
    "floats": metrics({"t": dict(ROW, a=0.1, b=-0.0, c=1e300, d=2.5e-8,
                                 e=math.inf, f=-math.inf, g=math.nan)},
                      total=1.5),
    # outside the fixed shape: json.dumps writes these
    "nested_value": metrics({"t": {"inner": {"x": [1, 2]}}}),
    "int_keys": metrics(per_line={1: {"raised": 1}}),
    "list_total": metrics(total=[1, 2]),
}


@pytest.mark.parametrize("case", METRICS_CASES.values(), ids=METRICS_CASES)
def test_metrics_json_matches_json_dumps(case):
    assert case.to_json_string() == json_oracle(case)


# Trace.extend

def records_at(*times):
    return [TraceRecord(t, "RAISE", "l", "t", None, str(i))
            for i, t in enumerate(times)]


def test_extend_matches_append():
    steps = [records_at(0, 0), records_at(1), records_at(3, 3, 3)]
    appended, extended = Trace(), Trace()
    for step in steps:
        for rec in step:
            appended.append(rec)
        extended.extend(step)
    assert extended.records == appended.records
    assert len(extended) == len(appended) == 6


def test_extend_rejects_backwards_time():
    trace = Trace()
    trace.extend(records_at(5))
    early = TraceRecord(4, "SUPPRESS", "l", "t", None, "ipl")
    with pytest.raises(EngineError) as err:
        trace.extend([early, TraceRecord(4, "RAISE")])
    assert str(early) in str(err.value)
    assert str(trace.records[-1]) in str(err.value)
    assert len(trace) == 1


def test_extend_with_nothing_is_a_no_op():
    trace = Trace()
    trace.extend([])
    assert trace.records == []
    trace.extend(records_at(2))
    before = list(trace.records)
    trace.extend([])
    assert trace.records == before
