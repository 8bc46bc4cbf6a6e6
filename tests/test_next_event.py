"""Differential test: next-event time advance, which takes the raises
on held lines in bulk on its way to the next step, against the
tick-by-tick loop that raises every occurrence on its own
(`support.TickEngine`). Traces and metrics must agree byte for byte."""

import hashlib
from pathlib import Path

import pytest

from envelopesim import (
    Engine,
    Explicit,
    FaultPolicy,
    Periodic,
    Policy,
    Scenario,
    Scheduler,
    Storm,
    TaskSet,
    assign_importance_monotonic,
    generate_workload,
)
import envelopesim.engine as engine_module
from envelopesim.cli import load_scenario
from envelopesim.model import Task
from support import (
    ConfirmingEngine,
    TickEngine,
    assert_same_text,
    random_scenario,
    sparse_coincident_scenario,
    storm_scenario,
)

DEMO_SCENARIOS = sorted(
    (Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json")
)


# SHA-256 over each random-suite seed's trace CSV and then its metrics
# JSON, seeds 0-999 in order. Only a deliberate change of the output
# format may change it, and CHANGES.md records the new value.
RANDOM_SUITE_SHA256 = (
    "953ce7bbae0355ba890808d90e85f28075d7bdb9e674f43ab71a77d025b8ac07"
)


def assert_same_run(scenario):
    engine = Engine(scenario)
    trace, metrics = engine.run()
    ticked, ticked_metrics = TickEngine(scenario).run()
    assert_same_text(trace.to_csv_string(), ticked.to_csv_string())
    assert metrics.to_json_string() == ticked_metrics.to_json_string()
    return engine


def test_random_suite_matches_tick_loop():
    digest = hashlib.sha256()
    for seed in range(1000):
        engine = assert_same_run(random_scenario(seed))
        digest.update(engine.trace.to_csv_string().encode("utf-8"))
        digest.update(engine._metrics().to_json_string().encode("utf-8"))
    assert digest.hexdigest() == RANDOM_SUITE_SHA256


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_scenarios_match_tick_loop(path):
    assert_same_run(load_scenario(path))


def test_demo_scenarios_are_all_covered():
    assert len(DEMO_SCENARIOS) == 6


def test_sparse_coincident_scenarios_match_tick_loop():
    # the batch must really stack a completion onto a timer expiry and a
    # deadline, with kernel backlog, or it proves nothing about spans
    coincidences = {"timer": 0, "shed": 0, "decay": 0}
    steps = ticks = 0
    for seed in range(60):
        scenario = sparse_coincident_scenario(seed)
        assert scenario.policy.delta_th > 0
        engine = assert_same_run(scenario)
        steps += engine.steps
        ticks += engine.horizon + 1
        kinds_at = {}
        for rec in engine.trace.records:
            kinds_at.setdefault(rec.time, set()).add(rec.kind)
            if rec.detail.startswith("decay_expiry="):
                kinds_at.setdefault(int(rec.detail.split("=")[1]),
                                    set()).add("decay")
        for kinds in kinds_at.values():
            if "COMPLETE" not in kinds:
                continue
            coincidences["timer"] += "UNMASK" in kinds or "ALARM" in kinds
            coincidences["shed"] += "MISS" in kinds or "DROP" in kinds
            coincidences["decay"] += "decay" in kinds
    assert all(coincidences.values()), coincidences
    assert steps * 50 < ticks  # long idle spans are skipped


def test_steps_count_visited_time_steps():
    task = Task(id="t", wcet=5, period=1000, importance=0, line="l",
                envelope_n=1, envelope_w=500)
    scenario = Scenario(task_set=TaskSet([task]),
                        workload=[("l", Periodic(0, 1000))], horizon=10_000)
    engine = assert_same_run(scenario)
    # per period: the raise, the completion at +5 and the window expiry
    # at +500; then the horizon
    assert engine.steps == 3 * 10 + 1
    ticked = TickEngine(scenario)
    ticked.run()
    assert ticked.steps == 10_001


def test_storm_scenarios_match_tick_loop():
    # the batch must really hold raises back in every way and coalesce
    # them, or it proves nothing about the bulk raise path
    seen = set()
    steps = raise_ticks = 0
    for seed in range(120):
        scenario = storm_scenario(seed)
        engine = assert_same_run(scenario)
        steps += engine.steps
        raise_ticks += len({
            t for _, spec in scenario.workload
            for t in generate_workload(spec, engine.horizon, scenario.seed)})
        policy = scenario.policy
        for rec in engine.trace.records:
            if rec.kind in ("SUPPRESS", "MASK"):
                seen.add(rec.detail)
            elif rec.kind == "IPL_SET" and policy.delta_th > 0:
                seen.add("ipl_with_top_half_time")
        for _, spec in scenario.workload:
            if isinstance(spec, Storm):
                seen.add(f"rate{spec.rate}")
    assert seen >= {"masked", "ipl", "coalesced", "window", "bottom_half",
                    "ipl_with_top_half_time",
                    "rate1", "rate2", "rate3", "rate4"}, seen
    assert 2 * steps < raise_ticks  # most raise ticks are not steps


@pytest.mark.parametrize("window", [1, 3, 7])
def test_runs_do_not_depend_on_the_run_table_window(window, monkeypatch):
    # a raise, a delivered raise or the horizon on any window edge
    monkeypatch.setattr(engine_module, "_RAISE_WINDOW", window)
    for seed in range(40):
        assert_same_run(storm_scenario(seed))
        assert_same_run(random_scenario(seed))
        assert_same_run(sparse_coincident_scenario(seed))


def test_held_raises_are_not_steps():
    # a rate-3 storm from t=0: the first raise is delivered and
    # internalized, the n=1 window masks the line, and under auto-resume
    # every window expiry finds raises held and masks it again
    task = Task(id="t", wcet=3, period=50, importance=0, line="l",
                envelope_n=1, envelope_w=10)
    scenario = Scenario(
        task_set=TaskSet([task]),
        policy=Policy(fault_policy=FaultPolicy.AUTO_RESUME),
        workload=[("l", Storm(0, 3))],
        horizon=10_000,
    )
    engine = Engine(scenario)
    raise_event = engine.vic.raise_event
    calls = []

    def counted(line, t, count=1):
        calls.append((line, t, count))
        return raise_event(line, t, count)

    engine.vic.raise_event = counted
    trace, metrics = engine.run()
    # the delivery at 0, the completion at 3, the window expiries at
    # 10, 20, ..., 9990, and the horizon at 10000, where the last expiry
    # falls too
    steps = [0, 3, *range(10, 10_000, 10)]
    assert engine.steps == len(steps) + 1
    # one call per line at each step that raises, and one per line for
    # each held stretch between two steps, however many ticks it covers
    expected = []
    for step, after in zip(steps, steps[1:] + [10_000]):
        expected += [("l", step, 3), ("l", step + 1, 3 * (after - step - 1))]
    assert calls == expected
    assert len(calls) == 2002
    assert trace.entry_count < 4 * engine.steps
    assert metrics.per_line["l"]["raised"] == 30_000
    assert metrics.per_line["l"]["suppressed"] == 30_000 - 1
    ticked, ticked_metrics = TickEngine(scenario).run()
    assert_same_text(trace.to_csv_string(), ticked.to_csv_string())
    assert metrics.to_json_string() == ticked_metrics.to_json_string()


# The run enters the timer, shed and IPL phases only at steps where
# something is due; each edge below must still match the tick loop

def line_task(id, importance, wcet, n=2, w=10, deadline=None):
    return Task(id=id, wcet=wcet, period=10, importance=importance,
                line=f"l{id}", envelope_n=n, envelope_w=w, deadline=deadline)


def kinds_at(trace, time):
    return [(r.kind, r.task) for r in trace.records if r.time == time]


def test_a_deadline_at_a_step_a_timer_sets_is_shed():
    # lo's window expiry and deadline fall at 8, where nothing is raised
    # and nothing completes
    scenario = Scenario(
        task_set=TaskSet([line_task("hi", 2, 6),
                          line_task("lo", 1, 5, n=1, w=8, deadline=8)]),
        workload=[("lhi", Explicit((0,))), ("llo", Explicit((0,)))],
        horizon=12)
    engine = assert_same_run(scenario)
    assert kinds_at(engine.trace, 8) == [("UNMASK", "lo"), ("MISS", "lo")]


def test_a_deadline_at_the_horizon_is_shed():
    scenario = Scenario(
        task_set=TaskSet([line_task("hi", 2, 6),
                          line_task("lo", 1, 5, deadline=8)]),
        workload=[("lhi", Explicit((0,))), ("llo", Explicit((0,)))],
        horizon=8)
    engine = assert_same_run(scenario)
    assert kinds_at(engine.trace, 8) == [("MISS", "lo")]


def test_a_job_completing_on_its_deadline_tick_is_not_shed():
    # one tick of top-half time and three of execution: done at 4
    scenario = Scenario(task_set=TaskSet([line_task("t", 1, 3, deadline=4)]),
                        policy=Policy(delta_th=1),
                        workload=[("lt", Explicit((0,)))], horizon=10)
    engine = assert_same_run(scenario)
    assert kinds_at(engine.trace, 4) == [("COMPLETE", "t")]


def test_a_backfill_release_beside_a_due_job():
    # a's completion at 4 lifts its bottom-half mask and backfills the
    # raise held at 2, a release at 4, where b's deadline falls
    scenario = Scenario(
        task_set=TaskSet([line_task("a", 2, 4),
                          line_task("b", 1, 2, deadline=4)]),
        policy=Policy(mask_until_bottom_half=True),
        workload=[("la", Explicit((0, 2))), ("lb", Explicit((0,)))],
        horizon=10)
    engine = assert_same_run(scenario)
    at_4 = kinds_at(engine.trace, 4)
    assert at_4.index(("RELEASE", "a")) < at_4.index(("MISS", "b"))


def test_an_ipl_point_where_the_running_job_comes_back():
    # k preempts j at 3; j comes back at 5 and leaves again in the same
    # point for m, whose raise the level held back, and comes back at 6.
    # Each return recomputes the level
    scenario = Scenario(
        task_set=TaskSet([line_task("j", 1, 6, n=3), line_task("m", 2, 1),
                          line_task("k", 3, 2)]),
        policy=Policy(ipl_optimization=True),
        workload=[("lj", Explicit((0, 2))), ("lk", Explicit((3,))),
                  ("lm", Explicit((4,)))],
        horizon=20)
    engine = assert_same_run(scenario)
    trace = engine.trace
    assert kinds_at(trace, 5) == [
        ("COMPLETE", "k"), ("START", "j"), ("IPL_SET", ""),
        ("INTERNALIZE", "m"), ("RELEASE", "m"), ("PREEMPT", "j"),
        ("START", "m"), ("IPL_SET", "")]
    assert kinds_at(trace, 6) == [
        ("COMPLETE", "m"), ("START", "j"), ("IPL_SET", "")]
    # the schedule point as a fixed-point loop that computes every level
    confirmed, _ = ConfirmingEngine(scenario).run()
    assert_same_text(trace.to_csv_string(), confirmed.to_csv_string())


def test_execute_tick_serves_a_span():
    tasks = [
        Task(id="low", wcet=4, period=10, importance=1, line="ll",
             envelope_n=2, envelope_w=10),
        Task(id="high", wcet=5, period=20, importance=2, line="lh",
             envelope_n=2, envelope_w=20),
    ]
    ts = TaskSet(tasks)
    sched = Scheduler(ts, assign_importance_monotonic(ts), delta_th=2)
    low = sched.on_internalize("low", 0).job
    high = sched.on_internalize("high", 0).job
    sched.set_elevated({"high"})
    sched.account_top_half(0)
    sched.dispatch(high, 0)
    res = sched.execute_tick(0, 4)  # two kernel ticks, two job ticks
    assert res.kind == "ran" and not res.completed
    assert sched.kernel_pending == 0 and high.remaining == 3
    assert low.starved_by_elevated
    res = sched.execute_tick(4, 20)  # stops at the completion
    assert res.completed and high.completion == 7
    assert sched.execute_tick(7, 9).kind == "idle"
