import collections
import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import List, Tuple

import pytest

from envelopesim import (
    INFINITE_PERIOD,
    Burst,
    Explicit,
    Periodic,
    Policy,
    Scenario,
    Sporadic,
    Storm,
    Task,
    cli,
    engine,
    feasibility,
)
from envelopesim.cli import (
    EXIT_BOUNDS,
    EXIT_FAULT,
    EXIT_INVALID,
    EXIT_MISS,
    EXIT_OK,
    EXIT_VIOLATION,
    build_gantt_rows,
    main,
    parse_scenario,
)
from envelopesim.engine import ScenarioError
from support import (
    random_scenario,
    reference_parse_scenario,
    with_ipl_and_overrides,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def two_task_obj(override=False):
    low = {"id": "tau_l", "C": 2, "T": 3, "importance": 1,
           "line": "l_low", "n": 1, "W": 3}
    high = {"id": "tau_h", "C": 2, "T": 6, "importance": 2,
            "line": "l_high", "n": 2, "W": 6}
    obj = {
        "tasks": [low, high],
        "workload": [
            {"kind": "periodic", "line": "l_low", "offset": 0, "period": 3},
            {"kind": "periodic", "line": "l_high", "offset": 0, "period": 6},
        ],
        "horizon": 6,
    }
    if override:
        low["priority"] = 1
        low["job_priority_overrides"] = {"0": 10}
        high["priority"] = 2
        obj["policy"] = {"assignment": "explicit"}
    return obj


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def sporadic_entry(**changes):
    entry = {"kind": "sporadic", "line": "l_low", "min_sep": 2,
             "density": 0.25, "seed": 7}
    entry.update(changes)
    return entry


def storm_obj():
    return {
        "tasks": [{"id": "t", "C": 1, "T": 20, "importance": 0,
                   "line": "l", "n": 1, "W": 5}],
        "workload": [{"kind": "storm", "line": "l", "start": 0, "rate": 1}],
        "horizon": 10,
    }


# parsing


def test_parse_scenario_round_trip():
    sc = parse_scenario(two_task_obj(override=True))
    low, high = sc.task_set
    assert (low.id, high.id) == ("tau_l", "tau_h")
    assert low.job_priority_overrides == {0: 10}
    assert sc.policy.assignment == "explicit"
    assert sc.horizon == 6


def test_parse_sporadic_and_seed_round_trip():
    obj = two_task_obj()
    obj["workload"][0] = sporadic_entry(density=1)
    obj["seed"] = 11
    sc = parse_scenario(obj)
    assert sc.workload[0] == ("l_low", Sporadic(min_sep=2, density=1.0,
                                                seed=7))
    assert isinstance(sc.workload[0][1].density, float)
    assert sc.seed == 11


# a case edits a valid scenario in place, or replaces it as a whole
@pytest.mark.parametrize("mutate,fragment", [
    (lambda o: o.update(bogus=1), r"scenario: unknown key\(s\) bogus"),
    (lambda o: o["tasks"][0].update(extra=1), r"unknown key\(s\) extra"),
    (lambda o: o["tasks"][0].pop("C"), "missing required key 'C'"),
    (lambda o: o["tasks"][0].update(C="two"), "expected an integer"),
    (lambda o: o["tasks"][0].update(C=True), "expected an integer"),
    (lambda o: o["tasks"][0].update(response="maybe"), "unknown option"),
    (lambda o: o["workload"][0].update(kind="chaos"), "unknown workload kind"),
    (lambda o: o["workload"][0].pop("offset"), "missing required key"),
    (lambda o: o.update(policy={"fault_policy": "shrug"}), "unknown option"),
    (lambda o: o.update(policy={"delta_th": "soon"}), "expected an integer"),
    (lambda o: o.update(tasks=[]), "non-empty list"),
    (lambda o: o.update(workload=[sporadic_entry(density="dense")]),
     r"workload for line 'l_low'\.density: expected a number"),
    (lambda o: o.update(workload=[sporadic_entry(density=True)]),
     r"workload for line 'l_low'\.density: expected a number"),
    (lambda o: o.update(workload=[sporadic_entry(min_sep=1.5)]),
     r"workload for line 'l_low'\.min_sep: expected an integer"),
    (lambda o: o.update(workload=[sporadic_entry(seed="s")]),
     r"workload for line 'l_low'\.seed: expected an integer"),
    (lambda o: o.update(workload=[sporadic_entry(period=3)]),
     r"workload for line 'l_low': unknown key\(s\) period"),
    (lambda o: o.update(policy={"ipl_optimization": "yes"}),
     r"policy\.ipl_optimization: expected a boolean, got 'yes'"),
    (lambda o: o["tasks"][0].update(line=7),
     r"task 'tau_l'\.line: expected a string, got 7"),
    ([], "scenario must be a JSON object"),
    (lambda o: o["tasks"].append(3), "task entry must be an object, got 3"),
    (lambda o: o.update(policy=[]), r"policy must be an object, got \[\]"),
    (lambda o: o["workload"].append("tick"),
     "workload entry must be an object, got 'tick'"),
    (lambda o: o.update(workload={}), r"scenario\.workload: expected a list"),
    (lambda o: o.update(workload=[
        {"kind": "explicit", "line": "l_low", "times": 5}]),
     r"workload for line 'l_low'\.times: expected a list"),
    (lambda o: o["tasks"][0].update(job_priority_overrides=[10]),
     r"task 'tau_l'\.job_priority_overrides: expected an object"),
    (lambda o: o["tasks"][0].update(job_priority_overrides={"first": 10}),
     r"task 'tau_l'\.job_priority_overrides: bad key 'first'"),
    # one spelling per job index: "00" would overwrite "0" unseen
    (lambda o: o["tasks"][0].update(job_priority_overrides={"0": 5, "00": 9}),
     r"task 'tau_l'\.job_priority_overrides: bad key '00'"),
    (lambda o: o["tasks"][0].update(job_priority_overrides={" 1": 10}),
     r"task 'tau_l'\.job_priority_overrides: bad key ' 1'"),
    (lambda o: o["tasks"][0].update(job_priority_overrides={"+1": 10}),
     r"task 'tau_l'\.job_priority_overrides: bad key '\+1'"),
    (lambda o: o["tasks"][0].update(job_priority_overrides={"1_0": 10}),
     r"task 'tau_l'\.job_priority_overrides: bad key '1_0'"),
])
def test_parse_scenario_rejects_bad_input(mutate, fragment):
    obj = two_task_obj()
    if callable(mutate):
        mutate(obj)
    else:
        obj = mutate
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(obj)


def test_parse_infinite_period_spellings():
    obj = two_task_obj()
    obj["tasks"][0].update(T="inf", D=3)
    low = next(iter(parse_scenario(obj).task_set))
    assert low.period == INFINITE_PERIOD
    obj["tasks"][0]["T"] = None
    low = next(iter(parse_scenario(obj).task_set))
    assert low.period == INFINITE_PERIOD


def test_parse_infinite_period_needs_deadline():
    obj = two_task_obj()
    obj["tasks"][0]["T"] = None
    with pytest.raises(ScenarioError, match="explicit deadline"):
        parse_scenario(obj)


# every field a scenario object can set, and the reference parser

SPEC_KINDS = {Periodic: "periodic", Sporadic: "sporadic", Burst: "burst",
              Storm: "storm", Explicit: "explicit"}


def sample_field(annotation, i):
    """A JSON value for a field of this annotation, and the value it
    parses to; i keeps one object's integers distinct."""
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        member = list(annotation)[-1]
        return member.value, member
    return {
        int: (10 + i, 10 + i),
        bool: (True, True),
        str: ("explicit", "explicit"),
        float: (0.5, 0.5),
        Tuple[int, ...]: ([3 + i, 1], (3 + i, 1)),
    }[annotation]


@pytest.mark.parametrize("cls", [Policy, *SPEC_KINDS])
def test_parse_reads_every_field(cls):
    def parsed(entry):
        obj = two_task_obj()
        if cls is Policy:
            obj["policy"] = entry
            return parse_scenario(obj).policy
        obj["workload"] = [{"kind": SPEC_KINDS[cls], "line": "l_low",
                            **entry}]
        return parse_scenario(obj).workload[0][1]

    fields = dataclasses.fields(cls)
    entry, expected = {}, {}
    for i, f in enumerate(fields):
        entry[f.name], expected[f.name] = sample_field(f.type, i)
    got = parsed(entry)
    for f in fields:
        value = getattr(got, f.name)
        assert type(value) is type(expected[f.name])
        assert value == expected[f.name] != f.default
    for f in fields:
        if f.default is f.default_factory is dataclasses.MISSING:
            with pytest.raises(ScenarioError,
                               match=f"missing required key '{f.name}'"):
                parsed({k: v for k, v in entry.items() if k != f.name})


def test_every_field_annotation_has_a_reader():
    for cls in (Task, Policy, *SPEC_KINDS, Scenario):
        fields, _ = cli._schema(cls)
        assert [f[1] for f in fields] == [
            f.name for f in dataclasses.fields(cls)]

    @dataclasses.dataclass
    class Unreadable:
        names: List[str]

    with pytest.raises(TypeError, match="no scenario reader"):
        cli._schema(Unreadable)


def scenario_json(scenario):
    """The scenario as the JSON object of a scenario file, every task key
    and policy key written out."""
    tasks = []
    for task in scenario.task_set:
        obj = {"id": task.id, "C": task.wcet, "T": task.period,
               "importance": task.importance, "line": task.line,
               "n": task.envelope_n, "W": task.envelope_w,
               "D": task.deadline, "response": task.response.value}
        if task.priority is not None:
            obj["priority"] = task.priority
        if task.job_priority_overrides:
            obj["job_priority_overrides"] = {
                str(k): v for k, v in task.job_priority_overrides.items()}
        tasks.append(obj)
    policy = dataclasses.asdict(scenario.policy)
    policy["fault_policy"] = scenario.policy.fault_policy.value
    workload = [
        {"kind": SPEC_KINDS[type(spec)], "line": line,
         **{k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(spec).items()}}
        for line, spec in scenario.workload
    ]
    return {"tasks": tasks, "policy": policy, "workload": workload,
            "horizon": scenario.horizon, "seed": scenario.seed}


# per JSON type a scenario holds, values of other types to put in its
# place; True is also tried where a number belongs, since bool is an int
WRONG_TYPES = {
    int: ["1", True], float: ["0.5", True], bool: [1], str: [7],
    type(None): ["x"], list: [{}], dict: [[]],
}


def mutations(value):
    """Every JSON value one edit away from value: one key dropped or
    added, or one value or list item replaced by a value of another
    type."""
    if isinstance(value, dict):
        yield {**value, "bogus": 1}
        for k, v in value.items():
            yield {kk: vv for kk, vv in value.items() if kk != k}
            for m in itertools.chain(WRONG_TYPES[type(v)], mutations(v)):
                yield {**value, k: m}
    elif isinstance(value, list):
        for i, v in enumerate(value):
            for m in itertools.chain(WRONG_TYPES[type(v)], mutations(v)):
                yield value[:i] + [m] + value[i + 1:]


def parse_outcome(parse, obj):
    try:
        return repr(parse(obj))  # repr tells 1 from 1.0
    except ScenarioError as exc:
        return exc.problems


def test_parse_scenario_matches_the_reference_parser():
    outcomes = collections.Counter()
    for seed in range(1000):
        scenario = random_scenario(seed)
        if seed % 2:
            scenario = with_ipl_and_overrides(scenario, seed)
        obj = scenario_json(scenario)
        if seed % 3 == 0:  # an exception-only task, both spellings
            obj["tasks"][0]["T"] = "inf" if seed % 2 else None
        for case in itertools.chain([obj], mutations(obj)):
            got = parse_outcome(parse_scenario, case)
            assert got == parse_outcome(reference_parse_scenario, case), case
            outcomes[type(got)] += 1
    assert outcomes[str] > 10_000 and outcomes[list] > 50_000


def test_run_semantic_errors_exit_invalid(tmp_path, capsys):
    # relational constraints are checked before simulation, not at parse
    obj = two_task_obj()
    obj["tasks"][0]["C"] = 9  # exceeds the period
    code = main(["run", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_INVALID
    assert "exceeds" in capsys.readouterr().err


def test_run_refuses_an_oversized_workload_before_expanding_it(
        tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the workload was expanded")
    # a sporadic line builds its random stream at its first draw
    monkeypatch.setattr(engine, "random", SimpleNamespace(Random=never))
    obj = two_task_obj()
    obj["horizon"] = 10 ** 7
    # the sporadic line first: without the limit it fails at once, where
    # the storm would build a table of 10^7 ticks
    for entry, raises in [
        (sporadic_entry(), 10 ** 7),
        ({"kind": "storm", "line": "l_low", "start": 0, "rate": 1000},
         10 ** 10),
    ]:
        obj["workload"] = [entry]
        code = main(["run", "--scenario", write_scenario(tmp_path, obj)])
        assert code == EXIT_INVALID
        assert f"expands to {raises} raises" in capsys.readouterr().err


def test_run_refuses_a_repeated_key(tmp_path, capsys):
    # json.loads would keep the last of the two and drop the first unseen
    text = json.dumps(two_task_obj()).replace('"C": 2', '"C": 1, "C": 3', 1)
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
    assert "duplicate key 'C'" in capsys.readouterr().err


def test_run_rejects_out_of_range_override_keys(tmp_path, capsys):
    obj = two_task_obj(override=True)  # tau_l releases 2 jobs per cycle
    obj["tasks"][0]["job_priority_overrides"] = {"7": 10, "-1": 5}
    code = main(["run", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert "key -1 outside [0, 2)" in err and "key 7 outside [0, 2)" in err


# run


def test_run_reports_miss(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj())
    trace_path = tmp_path / "trace.csv"
    metrics_path = tmp_path / "metrics.json"
    code = main(["run", "--scenario", scenario,
                 "--trace", str(trace_path),
                 "--metrics", str(metrics_path)])
    assert code == EXIT_MISS
    out = capsys.readouterr().out
    assert "misses=1" in out and "horizon=6" in out
    header = trace_path.read_text().splitlines()[0]
    assert header == "time,kind,line,task,job,detail"
    metrics = json.loads(metrics_path.read_text())
    assert metrics["per_task"]["tau_l"]["misses"] == 1


def test_run_clean_scenario_exits_zero(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj(override=True))
    code = main(["run", "--scenario", scenario])
    assert code == EXIT_OK
    assert "misses=0" in capsys.readouterr().out


def test_a_line_may_be_named_timer(tmp_path, capsys):
    # kernel timers are not a line, so no line name is reserved for them
    obj = two_task_obj(override=True)
    obj["tasks"][1]["line"] = obj["workload"][1]["line"] = "timer"
    trace_path = tmp_path / "trace.csv"
    code = main(["run", "--scenario", write_scenario(tmp_path, obj),
                 "--trace", str(trace_path)])
    assert code == EXIT_OK
    assert "misses=0" in capsys.readouterr().out
    assert "0,RELEASE,timer,tau_h,0," in trace_path.read_text()


def test_run_sensor_fault_exits_three(tmp_path, capsys):
    scenario = write_scenario(tmp_path, storm_obj())
    code = main(["run", "--scenario", scenario])
    assert code == EXIT_FAULT
    assert "sensor_faults=1" in capsys.readouterr().out


def test_run_miss_outranks_fault(tmp_path):
    # a storm on a third line must not hide the deadline miss
    obj = two_task_obj()
    obj["tasks"].append({"id": "t_s", "C": 1, "T": 20, "importance": 0,
                         "line": "l_s", "n": 1, "W": 5})
    obj["workload"].append(
        {"kind": "storm", "line": "l_s", "start": 0, "rate": 1})
    code = main(["run", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_MISS


def test_run_verbose_echoes_timers(tmp_path, capsys):
    scenario = write_scenario(tmp_path, storm_obj())
    main(["run", "--scenario", scenario, "--verbose"])
    assert "TIMER_SET" in capsys.readouterr().err


def test_run_verbose_reports_visited_steps(tmp_path, capsys):
    obj = {
        "tasks": [{"id": "t", "C": 5, "T": 1000, "importance": 0,
                   "line": "l", "n": 1, "W": 500}],
        "workload": [{"kind": "periodic", "line": "l", "offset": 0,
                      "period": 1000}],
        "horizon": 10000,
    }
    scenario = write_scenario(tmp_path, obj)
    main(["run", "--scenario", scenario, "--verbose"])
    out, err = capsys.readouterr()
    # no raise is held back: every record is its own entry
    assert "steps=31 ticks=10001 entries=90" in err.splitlines()
    assert "records=90 " in out
    assert "steps=" not in out
    main(["run", "--scenario", scenario])
    assert "steps=" not in capsys.readouterr().err


def test_run_verbose_reports_trace_entries(tmp_path, capsys):
    # a rate-3 storm held by an n=1 window: the raises held back between
    # two steps are one entry, so the entries follow the steps, not the
    # records
    obj = {
        "tasks": [{"id": "t", "C": 3, "T": 50, "importance": 0,
                   "line": "l", "n": 1, "W": 10}],
        "policy": {"fault_policy": "auto_resume"},
        "workload": [{"kind": "storm", "line": "l", "start": 0, "rate": 3}],
        "horizon": 10000,
    }
    main(["run", "--scenario", write_scenario(tmp_path, obj), "--verbose"])
    out, err = capsys.readouterr()
    assert "steps=1002 ticks=10001 entries=3011" in err.splitlines()
    assert "records=61007 " in out


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json")])
    assert code == EXIT_INVALID
    assert "cannot read scenario file" in capsys.readouterr().err


@pytest.mark.parametrize("flag,what", [("--trace", "trace file"),
                                       ("--metrics", "metrics file")])
def test_run_reports_an_unwritable_output(tmp_path, capsys, flag, what):
    scenario = write_scenario(tmp_path, two_task_obj())
    code = main(["run", "--scenario", scenario,
                 flag, str(tmp_path / "missing" / "x")])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what}: ") \
        and "No such file or directory" in err, err


def test_run_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["run", "--scenario", str(path)])
    assert code == EXIT_INVALID
    assert "not valid JSON" in capsys.readouterr().err


def assert_reported(code, capsys, fragment):
    """The command exited 1 with one error line holding fragment."""
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_scenario_that_is_not_utf8_is_reported(tmp_path, capsys, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"tasks": [\xff]}')
    assert_reported(main([command, "--scenario", str(path)]), capsys,
                    "cannot read scenario file: 'utf-8' codec")


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_scenario_nested_too_deep_is_reported(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert_reported(main([command, "--scenario", str(path)]), capsys,
                    "scenario is not valid JSON: maximum recursion depth")


def test_gantt_reports_a_field_over_the_csv_limit(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,kind,line,task,job,detail\n0,START,l,t,0,\n"
                     f"1,RAISE,l,t,,{'x' * 200_000}\n", encoding="utf-8")
    code = main(["gantt", "--trace", str(trace), "--out",
                 str(tmp_path / "chart.csv")])
    assert_reported(code, capsys, "trace line 3: field larger than field "
                    "limit")


def test_run_invalid_scenario(tmp_path, capsys):
    obj = two_task_obj()
    obj["tasks"][1]["importance"] = 1  # duplicate
    code = main(["run", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_INVALID
    assert "importance" in capsys.readouterr().err


# check


def test_check_feasible(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj(override=True))
    code = main(["check", "--scenario", scenario])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("Feasible: 6 admissible pattern")


def test_check_verbose_reports_simulated_ticks(tmp_path, capsys):
    feasible = two_task_obj(override=True)
    feasible["horizon"] = 12
    violating = two_task_obj()
    for obj, code, counts in [
        # the low line admits 1 pattern and the high line 26, all built;
        # each combination snapshots the ticks up to where the next one
        # resumes. Once every job due within the horizon has completed,
        # the cutoff stops 8 combinations one or two ticks early and
        # steps none of the 4 that resume at 11 after a stop there: 20
        # ticks and 5 snapshots fewer than stepping each to the horizon
        (feasible, EXIT_OK,
         "combinations=26 ticks=113 of 338 patterns_built=27 "
         "snapshots=48"),
        # the sweep stops at the miss at t=3, before either list is built
        # beyond its normal pattern, with the initial state and ticks 1-3
        # snapshotted
        (violating, EXIT_VIOLATION,
         "combinations=1 ticks=4 of 7 patterns_built=2 snapshots=4"),
    ]:
        scenario = write_scenario(tmp_path, obj)
        assert main(["check", "--scenario", scenario]) == code
        quiet = capsys.readouterr()
        assert main(["check", "--scenario", scenario, "--verbose"]) == code
        out, err = capsys.readouterr()
        assert out == quiet.out
        assert err.splitlines() == [counts]


def test_check_help_names_the_verbose_fields(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj())
    main(["check", "--scenario", scenario, "--verbose"])
    fields = [word.split("=")[0] + "="
              for word in capsys.readouterr().err.split() if "=" in word]
    assert len(fields) == 4
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in fields:
        assert f"({name}" in text


def test_check_violation_writes_default_witness(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj())
    code = main(["check", "--scenario", scenario])
    assert code == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert out.startswith("Violation: pattern ")
    witness = tmp_path / "scenario.witness.csv"
    assert str(witness) in out
    rows = witness.read_text().splitlines()
    assert rows[0] == "time,kind,line,task,job,detail"
    assert any(",MISS," in r for r in rows)


def test_check_violation_custom_witness_path(tmp_path):
    scenario = write_scenario(tmp_path, two_task_obj())
    target = tmp_path / "w.csv"
    code = main(["check", "--scenario", scenario, "--witness", str(target)])
    assert code == EXIT_VIOLATION
    assert target.exists()


def test_check_reports_an_unwritable_witness(tmp_path, capsys,
                                             monkeypatch):
    scenario = write_scenario(tmp_path, two_task_obj())
    code = main(["check", "--scenario", scenario,
                 "--witness", str(tmp_path / "missing" / "x")])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write witness trace: ") \
        and "No such file or directory" in captured.err, captured.err
    assert "Violation" not in captured.out

    # the path is refused before the sweep, for a violating and a
    # feasible scenario alike, and no file is created
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(feasibility, "_sweep", no_sweep)
    (tmp_path / "file").write_text("")
    for obj in [two_task_obj(), two_task_obj(override=True)]:
        scenario = write_scenario(tmp_path, obj)
        for target, reason in [
                (tmp_path / "missing" / "x", "No such file or directory"),
                (tmp_path / "file" / "x", "Not a directory"),
                (tmp_path, "Is a directory")]:
            before = sorted(tmp_path.iterdir())
            code = main(["check", "--scenario", scenario,
                         "--witness", str(target)])
            assert code == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "error: cannot write witness trace: [Errno ") \
                and captured.err.endswith(f"{reason}: '{target}'\n"), \
                captured.err
            assert captured.out == ""
            assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("override", [False, True],
                         ids=["violating", "feasible"])
def test_check_refuses_a_witness_path_ending_in_a_separator(
        override, tmp_path, capsys, monkeypatch):
    # the directory the path names is missing, or a file: open refuses
    # both, so the check refuses them before the sweep, with open's error
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(feasibility, "_sweep", no_sweep)
    scenario = write_scenario(tmp_path, two_task_obj(override=override))
    (tmp_path / "file").write_text("")
    for name in ["nodir", "file"]:
        target = f"{tmp_path / name}{os.sep}"
        before = sorted(tmp_path.iterdir())
        with pytest.raises(OSError) as opened:
            open(target, "w")
        assert main(["check", "--scenario", scenario,
                     "--witness", target]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: cannot write witness trace: {opened.value}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before


def test_feasible_check_creates_no_witness(tmp_path, capsys):
    scenario = write_scenario(tmp_path, two_task_obj(override=True))
    for extra in [[], ["--witness", str(tmp_path / "w.csv")]]:
        assert main(["check", "--scenario", scenario] + extra) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scenario.json"]


def test_check_notes_a_vacuous_instance(tmp_path, capsys):
    # both relative deadlines (3 and 6) lie past horizon 2, so no job can
    # fall due within it: the note goes to stderr, stdout is unchanged
    obj = two_task_obj(override=True)
    obj["horizon"] = 2
    scenario = write_scenario(tmp_path, obj)
    assert main(["check", "--scenario", scenario]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == ("Feasible: 2 admissible pattern combinations over "
                   "horizon 2, no deadline miss\n")
    assert err == ("note: no deadline can fall due within horizon 2, so "
                   "the check holds vacuously\n")
    # counted, not swept: no tick stepped, no state saved, no list built
    assert main(["check", "--scenario", scenario, "--verbose"]) == EXIT_OK
    assert capsys.readouterr() == (out, err + (
        "combinations=2 ticks=0 of 6 patterns_built=0 snapshots=0\n"))
    # at horizon 3 the low line's first job falls due at 3: no note
    obj["horizon"] = 3
    scenario = write_scenario(tmp_path, obj)
    assert main(["check", "--scenario", scenario]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_check_bounds_exceeded(tmp_path, capsys):
    obj = two_task_obj()
    obj["tasks"][0]["T"] = 25  # hyperperiod beyond the horizon bound
    obj["workload"] = []
    obj["horizon"] = None
    code = main(["check", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_BOUNDS
    assert "bounds exceeded" in capsys.readouterr().err


def _burst(**changes):
    return {"kind": "burst", "line": "l_high", "at": 0, "count": 2,
            "spacing": 1, **changes}


def _storm(**changes):
    return {"kind": "storm", "line": "l_low", "start": 0, "rate": 1000,
            **changes}


def _oversized(obj):
    obj["horizon"] = 10 ** 7
    obj["workload"] = [_storm()]


def _oversized_and_invalid(obj):
    # the invalid spec is reported, not the total it is part of
    _oversized(obj)
    obj["workload"].append(_storm(rate=0))


def _every_problem_at_once(obj):
    # without both priorities, explicit_priority_map would name only the
    # first, and only once the other problems were fixed
    _duplicate_importance_and_bad_keys(obj)
    obj["workload"][1]["line"] = "ghost"
    for task in obj["tasks"]:
        task.pop("priority")


def _duplicate_importance_and_bad_keys(obj):
    obj["tasks"][1]["importance"] = 1
    obj["tasks"][0]["job_priority_overrides"].update({"7": 10, "-1": 5})


@pytest.mark.parametrize("mutate,fragments", [
    (_duplicate_importance_and_bad_keys,
     ["duplicate importance 1", "key -1 outside [0, 2)",
      "key 7 outside [0, 2)"]),
    (lambda o: o.update(horizon=0), ["horizon must be positive, got 0"]),
    (lambda o: o["policy"].update(delta_th=-3), ["delta_th must be >= 0"]),
    (lambda o: o["policy"].update(assignment="explicitt"),
     ["unknown priority assignment 'explicitt'"]),
    (lambda o: o["tasks"][1].pop("priority"),
     ["task tau_h: explicit priority assignment requires a priority"]),
    (lambda o: o["workload"][1].update(line="ghost"),
     ["workload references unknown line 'ghost'"]),
    (lambda o: o["workload"][0].update(period=0),
     ["periodic workload: period 0 < 1"]),
    (lambda o: o["workload"].append(sporadic_entry(density=0.0)),
     ["sporadic workload: density 0.0 outside (0, 1]"]),
    (lambda o: o["workload"].append(_burst(count=-1)),
     ["burst workload: negative count or spacing"]),
    (lambda o: o["workload"].append(_burst(spacing=-2)),
     ["burst workload: negative count or spacing"]),
    (lambda o: o["workload"].append(_storm(rate=0)),
     ["storm workload: rate 0 < 1"]),
    (_oversized, ["the workload expands to 10000000000 raises"]),
    (_oversized_and_invalid, ["storm workload: rate 0 < 1"]),
    (lambda o: o["workload"].append(sporadic_entry(min_sep=0)),
     ["sporadic workload: min_sep 0 < 1"]),
    (_every_problem_at_once,
     ["duplicate importance 1", "key -1 outside [0, 2)",
      "workload references unknown line 'ghost'",
      "task tau_l: explicit priority assignment requires a priority",
      "task tau_h: explicit priority assignment requires a priority"]),
], ids=["duplicates", "horizon", "delta_th", "assignment", "no_priority",
        "unknown_line", "periodic", "sporadic", "burst_count",
        "burst_spacing", "storm", "oversized", "spec_before_size",
        "sporadic_min_sep", "every_problem"])
def test_check_rejects_invalid_scenario_like_run(tmp_path, capsys, mutate,
                                                 fragments):
    # feasible before the mutation, so no witness replay runs the engine
    obj = two_task_obj(override=True)
    obj["tasks"][0]["C"] = 1
    mutate(obj)
    scenario = write_scenario(tmp_path, obj)
    assert main(["check", "--scenario", scenario]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert all(f in err for f in fragments), err
    assert main(["run", "--scenario", scenario]) == EXIT_INVALID
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("name,code", [
    ("bottom_half", EXIT_BOUNDS), ("ipl", EXIT_OK),
    ("storm", EXIT_OK), ("counterexample", EXIT_VIOLATION),
    ("override", EXIT_OK), ("override_burst", EXIT_OK),
])
def test_check_demo_scenarios_keep_their_exit_codes(tmp_path, name, code):
    scenario = Path(__file__).resolve().parent.parent / "demos" \
        / "scenarios" / f"{name}.json"
    assert main(["check", "--scenario", str(scenario),
                 "--witness", str(tmp_path / "w.csv")]) == code


def test_check_decides_vacuous_demos_over_the_bounds(capsys):
    # storm.json (horizon 70, D=100) is over the horizon bound and
    # ipl.json (4 tasks, D=50, horizon 12) over the task bound, yet no
    # deadline falls due within either horizon; bottom_half.json is over
    # the horizon bound and not vacuous, so it is still refused
    demos = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
    for name, horizon in (("storm", 70), ("ipl", 12)):
        scenario = str(demos / f"{name}.json")
        assert main(["check", "--scenario", scenario, "--verbose"]) \
            == EXIT_OK
        out, err = capsys.readouterr()
        assert out == (f"Feasible: no deadline can fall due within horizon "
                       f"{horizon} (combinations not counted)\n")
        assert err == (f"note: no deadline can fall due within horizon "
                       f"{horizon}, so the check holds vacuously\n")
    scenario = str(demos / "bottom_half.json")
    assert main(["check", "--scenario", scenario]) == EXIT_BOUNDS
    assert capsys.readouterr().err == (
        "bounds exceeded: horizon 30 exceeds the enumeration bound of 24\n")


def test_check_rejects_self_breaching_envelope(tmp_path, capsys):
    obj = {
        "tasks": [{"id": "t", "C": 1, "T": 3, "importance": 0,
                   "line": "l", "n": 1, "W": 5}],
        "horizon": 6,
    }
    code = main(["check", "--scenario", write_scenario(tmp_path, obj)])
    assert code == EXIT_INVALID
    assert "breaches envelope" in capsys.readouterr().err


# gantt


def make_trace(tmp_path, obj):
    scenario = write_scenario(tmp_path, obj)
    trace = tmp_path / "trace.csv"
    main(["run", "--scenario", scenario, "--trace", str(trace)])
    return trace


def test_gantt_csv(tmp_path, capsys):
    trace = make_trace(tmp_path, two_task_obj())
    out = tmp_path / "chart.csv"
    code = main(["gantt", "--trace", str(trace), "--out", str(out)])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "start", "end", "kind"]
    kinds = {r[3] for r in rows[1:]}
    assert {"run", "release", "deadline", "miss"} <= kinds
    run_rows = [r for r in rows[1:] if r[3] == "run"]
    assert all(int(r[1]) <= int(r[2]) for r in run_rows)


def test_gantt_svg(tmp_path):
    trace = make_trace(tmp_path, two_task_obj())
    out = tmp_path / "chart.svg"
    code = main(["gantt", "--trace", str(trace), "--out", str(out),
                 "--format", "svg"])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "tau_l" in text and "tau_h" in text


def test_gantt_svg_escapes_task_ids(tmp_path):
    ids = ["a<b&c", "d>e", 'f"g', "h&amp;"]
    obj = {
        "tasks": [{"id": tid, "C": 1, "T": 10, "importance": i,
                   "line": f"l{i}", "n": 1, "W": 5}
                  for i, tid in enumerate(ids)],
        "workload": [{"kind": "periodic", "line": f"l{i}", "offset": 0,
                      "period": 10} for i in range(len(ids))],
        "horizon": 10,
    }
    trace = make_trace(tmp_path, obj)
    out = tmp_path / "chart.svg"
    assert main(["gantt", "--trace", str(trace), "--out", str(out),
                 "--format", "svg"]) == EXIT_OK
    root = ET.parse(out).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    lanes = [el.text for el in root.iter(ns + "text") if el.get("x") == "4"]
    assert lanes == sorted(ids)
    titles = {el.text.split(" ")[0] for el in root.iter(ns + "title")}
    assert titles == set(ids)


def test_gantt_reports_an_unwritable_chart(tmp_path, capsys):
    trace = make_trace(tmp_path, two_task_obj())
    capsys.readouterr()
    code = main(["gantt", "--trace", str(trace),
                 "--out", str(tmp_path / "missing" / "x")])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write chart: ") \
        and "No such file or directory" in captured.err, captured.err
    assert captured.out == ""


def test_gantt_mask_bar_for_storm(tmp_path):
    trace = make_trace(tmp_path, storm_obj())
    out = tmp_path / "chart.csv"
    main(["gantt", "--trace", str(trace), "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    masks = [r for r in rows[1:] if r[3] == "mask"]
    assert len(masks) == 1
    assert int(masks[0][1]) == 0  # masked from the first storm tick onward


def test_gantt_rejects_foreign_csv(tmp_path, capsys):
    bogus = tmp_path / "other.csv"
    bogus.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    code = main(["gantt", "--trace", str(bogus), "--out",
                 str(tmp_path / "chart.csv")])
    assert code == EXIT_INVALID
    assert "not a trace CSV" in capsys.readouterr().err


def test_gantt_rows_close_open_runs():
    records = [
        {"time": 0, "kind": "START", "line": "", "task": "a",
         "job": "0", "detail": ""},
        {"time": 3, "kind": "PREEMPT", "line": "", "task": "a",
         "job": "0", "detail": ""},
        {"time": 3, "kind": "START", "line": "", "task": "b",
         "job": "0", "detail": ""},
    ]
    rows = build_gantt_rows(records)
    assert ("a", 0, 3, "run") in rows
    assert ("b", 3, 3, "run") in rows  # still running at the end


# the installed entry point


def test_console_script(tmp_path):
    scenario = write_scenario(tmp_path, two_task_obj())
    # the package is importable from the source tree, installed or not
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "envelopesim.cli", "run",
         "--scenario", scenario],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_MISS
    assert "misses=1" in proc.stdout
