"""Acceptance suite: one test per headline claim, run with -v for a
pass/fail line each. The numbers asserted here are frozen outputs of
independent hand calculation or brute-force oracles, not of the engine
itself.

    python3 -m pytest tests/test_acceptance.py -v
"""

import itertools
import time
from collections import Counter

import pytest

from envelopesim import (
    Explicit,
    Policy,
    Scenario,
    Storm,
    Task,
    TaskSet,
    run_scenario,
)
from envelopesim.feasibility import (
    MISSED,
    admissible_patterns,
    check_ooe_feasible,
    engine_verdicts,
    reference_verdicts,
    _normalized_policy,
)
from envelopesim.model import assign_importance_monotonic, explicit_priority_map
from conftest import scenario_monotonic, scenario_override, scenario_override_burst
from support import (
    conservation_counts,
    internalize_timestamps,
    oracle_verdicts,
    random_scenario,
    window_violations,
)

SUITE_SIZE = 1000


@pytest.fixture(scope="module")
def random_suite():
    """One shared batch of simulated random scenarios; several criteria
    assert properties over the same runs."""
    runs = []
    for seed in range(SUITE_SIZE):
        sc = random_scenario(seed)
        trace, metrics = run_scenario(sc)
        runs.append((sc, trace, metrics))
    return runs


def timed_run(scenario):
    t0 = time.perf_counter()
    trace, metrics = run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return trace, metrics


def test_criterion_1_two_task_worked_example():
    # (a) importance-monotonic priorities fail under normal arrivals:
    # the high task runs [0,2], the low task's first job is shed at 3
    # with one tick left
    trace, _ = timed_run(scenario_monotonic())
    starts = trace.of_kind("START", task="tau_h")
    completes = trace.of_kind("COMPLETE", task="tau_h")
    assert starts[0].time == 0 and completes[0].time == 2
    misses = trace.of_kind("MISS")
    assert len(misses) == 1
    m = misses[0]
    assert (m.task, m.job, m.time, m.detail) == ("tau_l", 0, 3, "remaining=1")

    # (b) a first-job priority override clears every deadline, over one
    # hyperperiod and over two
    for horizon in (6, 12):
        trace, _ = timed_run(scenario_override(horizon))
        assert not trace.of_kind("MISS")

    # (c) same policy with the high line also raised at t=3: both high
    # jobs complete in time, the low task's second job is the one
    # sanctioned drop, and the burst raises exactly one envelope alarm
    trace, metrics = timed_run(scenario_override_burst())
    completes = trace.of_kind("COMPLETE", task="tau_h")
    assert [(c.job, c.time) for c in completes] == [(0, 4), (1, 6)]
    assert completes[0].time <= 6 and completes[1].time <= 9
    drops = trace.of_kind("DROP")
    assert len(drops) == 1
    assert (drops[0].task, drops[0].job) == ("tau_l", 1)
    entered = [a for a in metrics.alarms
               if a["kind"] == "out_of_envelope_entered"]
    assert len(entered) == 1
    assert not trace.of_kind("MISS")
    print("\ncriterion 1: three worked-example runs reproduced")


def test_criterion_2_sliding_window_enforcement(random_suite):
    lines = 0
    for sc, trace, _ in random_suite:
        for task in sc.task_set:
            stamps = internalize_timestamps(trace, task.line)
            bad = window_violations(stamps, task.envelope_n, task.envelope_w)
            assert not bad, (sc.seed, task.line, bad)
            lines += 1
    print(f"\ncriterion 2: {len(random_suite)} scenarios, {lines} lines, "
          f"0 window violations")


def test_criterion_3_storm_defense():
    n, w, delta_th = 2, 20, 1
    sc = Scenario(
        task_set=TaskSet([
            Task(id="t", wcet=1, period=100, importance=0, line="l",
                 envelope_n=n, envelope_w=w),
        ]),
        policy=Policy(delta_th=delta_th),
        workload=[("l", Storm(start=0, rate=1))],
        horizon=20,
    )
    trace, metrics = run_scenario(sc)
    assert len(trace.of_kind("RAISE", line="l")) == 10 * n
    assert len(trace.of_kind("INTERNALIZE", line="l")) == n
    alarms = Counter(a["kind"] for a in metrics.alarms)
    assert alarms["window_bound_reached"] == 1
    assert alarms["sensor_fault"] == 1
    top_half = metrics.per_line["l"]["top_half_time"]
    assert top_half <= n * delta_th
    print(f"\ncriterion 3: 20 raises -> {n} internalizations, "
          f"top-half time {top_half} <= {n * delta_th}")


def test_criterion_4_counter_conservation(random_suite):
    checked = 0
    for sc, trace, _ in random_suite:
        for task in sc.task_set:
            raised, internalized, counter_only = conservation_counts(
                trace, task.line)
            assert raised == internalized + counter_only, (sc.seed, task.line)
            checked += 1
    print(f"\ncriterion 4: RAISE = INTERNALIZE + counter-only on "
          f"{checked} lines")


def three_line_scenario(ipl_on):
    """One running mid-priority task and three device lines: one whose
    task would preempt it, one below it in priority, one below the
    level. Event times are chosen so every raise lands during the first
    job's execution."""
    tasks = TaskSet([
        Task(id="tau_cur", wcet=4, period=50, importance=10, line="e_cur",
             envelope_n=3, envelope_w=5, priority=5),
        Task(id="tau_a", wcet=2, period=50, importance=8, line="e_a",
             envelope_n=3, envelope_w=5, priority=7),
        Task(id="tau_b", wcet=1, period=50, importance=6, line="e_b",
             envelope_n=3, envelope_w=5, priority=3),
        Task(id="tau_c", wcet=1, period=50, importance=4, line="e_c",
             envelope_n=3, envelope_w=5, priority=4),
    ])
    return Scenario(
        task_set=tasks,
        policy=Policy(assignment="explicit", ipl_optimization=ipl_on,
                      delta_th=0),
        workload=[
            ("e_cur", Explicit((0,))),
            ("e_c", Explicit((1,))),
            ("e_a", Explicit((2,))),
            ("e_b", Explicit((3,))),
        ],
        horizon=12,
    )


def test_criterion_5_interrupt_level_scheme():
    trace, metrics = run_scenario(three_line_scenario(ipl_on=True))

    # tau_cur occupies [0,2) before tau_a preempts it
    assert trace.of_kind("START", task="tau_cur")[0].time == 0
    preempts = trace.of_kind("PREEMPT", task="tau_cur")
    assert preempts[0].time == 2

    # E_C is suppressed while tau_cur runs; E_A is internalized at once
    sup_c = trace.of_kind("SUPPRESS", line="e_c")
    assert [(r.time, r.detail) for r in sup_c] == [(1, "ipl")]
    int_a = trace.of_kind("INTERNALIZE", line="e_a")
    assert [(r.time, r.detail) for r in int_a] == [(2, "ts=2")]
    sup_b = trace.of_kind("SUPPRESS", line="e_b")
    assert [(r.time, r.detail) for r in sup_b] == [(3, "ipl")]

    # both suppressed lines back-fill once the system drains, stamped
    # with the moment they became invisible
    assert [(r.time, r.detail) for r in trace.of_kind("INTERNALIZE",
                                                      line="e_b")] \
        == [(6, "ts=0;deferred")]
    assert [(r.time, r.detail) for r in trace.of_kind("INTERNALIZE",
                                                      line="e_c")] \
        == [(6, "ts=0;deferred")]
    levels = [r.detail for r in trace.of_kind("IPL_SET")]
    assert levels == ["level=8", "level=11", "level=8", "level=0",
                      "level=8", "level=4", "level=0"]
    assert all(m["completions"] == 1 for m in metrics.per_task.values())

    # with the optimization off, all three device events internalize at
    # their raise times and no level is ever programmed
    trace, _ = run_scenario(three_line_scenario(ipl_on=False))
    for line, t in (("e_c", 1), ("e_a", 2), ("e_b", 3)):
        recs = trace.of_kind("INTERNALIZE", line=line)
        assert [(r.time, r.detail) for r in recs] == [(t, f"ts={t}")]
    assert not trace.of_kind("SUPPRESS")
    assert not trace.of_kind("IPL_SET")
    print("\ncriterion 5: level suppresses E_C, delivers E_A; "
          "toggle internalizes all three")


def feasibility_instances():
    return [
        (
            "one self-interfering task",
            TaskSet([
                Task(id="t", wcet=5, period=8, importance=0, line="l",
                     envelope_n=2, envelope_w=7),
            ]),
            Policy(delta_th=1),
            16,
        ),
        (
            "two tasks, drops only",
            TaskSet([
                Task(id="t1", wcet=1, period=6, importance=1, line="l1",
                     envelope_n=1, envelope_w=4),
                Task(id="t2", wcet=2, period=12, importance=2, line="l2",
                     envelope_n=2, envelope_w=10),
            ]),
            Policy(delta_th=1),
            12,
        ),
        (
            "three tasks, explicit priorities",
            TaskSet([
                Task(id="t1", wcet=1, period=8, importance=0, line="l1",
                     envelope_n=2, envelope_w=4, priority=3),
                Task(id="t2", wcet=1, period=8, importance=1, line="l2",
                     envelope_n=2, envelope_w=8, priority=1),
                Task(id="t3", wcet=2, period=8, importance=2, line="l3",
                     envelope_n=1, envelope_w=8, priority=2),
            ]),
            Policy(assignment="explicit", delta_th=1),
            8,
        ),
    ]


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    totals = []
    for name, ts, policy, horizon in feasibility_instances():
        assert len(list(ts)) <= 3 and horizon <= 24
        pmap = explicit_priority_map(ts) if policy.assignment == "explicit" \
            else assign_importance_monotonic(ts)
        per_task = [admissible_patterns(t, horizon) for t in ts]
        total = 1
        for options in per_task:
            total *= len(options)
        assert total >= 50, name
        totals.append(total)
        normalized = _normalized_policy(policy)
        any_missed = False
        for combo in itertools.product(*per_task):
            patterns = {t.id: p for t, p in zip(ts, combo)}
            ref = reference_verdicts(ts, pmap, patterns, horizon,
                                     policy.delta_th)
            eng, _ = engine_verdicts(ts, normalized, patterns, horizon)
            assert ref == eng, (name, patterns)
            assert ref == oracle_verdicts(ts, pmap, patterns, horizon,
                                          policy.delta_th), (name, patterns)
            any_missed = any_missed or MISSED in ref.values()
        result = check_ooe_feasible(ts, policy, horizon)
        assert result.feasible == (not any_missed), name
        if not result.feasible:
            assert MISSED in result.witness_verdicts.values()
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"\ncriterion 6: {totals} pattern combinations agreed "
          f"job-for-job in {elapsed:.1f}s")


def test_criterion_7_determinism():
    scenarios = [scenario_monotonic(), scenario_override(),
                 scenario_override_burst()]
    scenarios += [random_scenario(seed) for seed in range(50)]
    for sc in scenarios:
        first, _ = run_scenario(sc)
        second, _ = run_scenario(sc)
        assert first.to_csv_string() == second.to_csv_string()
    print(f"\ncriterion 7: {len(scenarios)} scenarios byte-identical "
          f"on re-run")


def test_criterion_8_bottom_half_deferral():
    sc = Scenario(
        task_set=TaskSet([
            Task(id="t", wcet=4, period=20, importance=0, line="l",
                 envelope_n=5, envelope_w=10),
        ]),
        policy=Policy(mask_until_bottom_half=True),
        workload=[("l", Explicit((0, 1, 2, 3)))],
        horizon=30,
    )
    trace, _ = run_scenario(sc)
    # the backfilled batch gets its own mask cycle, so only the first
    # unmask belongs to the original deferral
    unmasks = trace.of_kind("UNMASK", line="l")
    assert (unmasks[0].time, unmasks[0].detail) == (4, "bottom_half")
    deferred = [r for r in trace.of_kind("INTERNALIZE", line="l")
                if ";deferred" in r.detail]
    assert len(deferred) == 3
    assert all(r.detail.startswith("ts=0;deferred") for r in deferred)
    starts = trace.of_kind("START", task="t")
    backfilled_starts = [s.time for s in starts if s.job in (1, 2, 3)]
    assert len(backfilled_starts) == 3
    assert all(t >= 4 for t in backfilled_starts)
    print("\ncriterion 8: 3 deferred internalizations at ts=0, "
          f"starts {backfilled_starts} after unmask at 4")
