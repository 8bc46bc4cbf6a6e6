import math
from fractions import Fraction

import pytest

from envelopesim import (
    INFINITE_PERIOD,
    Job,
    JobState,
    ResponseOption,
    Task,
    TaskSet,
    assign_importance_monotonic,
    explicit_priority_map,
    hyperperiod,
    utilization,
    validate_task_set,
)


def task(**kw):
    base = dict(id="t", wcet=1, period=10, importance=0, line="l",
                envelope_n=2, envelope_w=10)
    base.update(kw)
    return Task(**base)


def test_deadline_defaults_to_period():
    assert task(period=7).deadline == 7


def test_explicit_deadline_kept():
    assert task(period=7, deadline=5).deadline == 5


def test_infinite_period_requires_deadline():
    with pytest.raises(ValueError):
        task(period=INFINITE_PERIOD)
    t = task(period=INFINITE_PERIOD, deadline=4)
    assert t.exception_only
    assert t.deadline == 4


def test_hyperperiod_lcm():
    ts = TaskSet([task(id="a", period=4, line="la"),
                  task(id="b", period=6, line="lb", importance=1)])
    assert hyperperiod(ts) == 12


def test_hyperperiod_ignores_infinite():
    ts = TaskSet([task(id="a", period=4, line="la"),
                  task(id="b", period=INFINITE_PERIOD, deadline=3,
                       line="lb", importance=1)])
    assert hyperperiod(ts) == 4


def test_hyperperiod_empty_of_finite():
    ts = TaskSet([task(period=INFINITE_PERIOD, deadline=3)])
    assert hyperperiod(ts) == 1


def test_utilization_exact():
    ts = TaskSet([task(id="a", wcet=1, period=3, line="la"),
                  task(id="b", wcet=1, period=6, line="lb", importance=1)])
    assert utilization(ts) == Fraction(1, 2)


def test_utilization_exception_only_is_free():
    ts = TaskSet([task(period=INFINITE_PERIOD, deadline=5, wcet=5)])
    assert utilization(ts) == 0


def test_validate_clean_set():
    ts = TaskSet([task(id="a", line="la"),
                  task(id="b", line="lb", importance=1)])
    assert validate_task_set(ts).valid


@pytest.mark.parametrize("kw,fragment", [
    (dict(wcet=0), "wcet"),
    (dict(period=0), "period"),
    (dict(deadline=0), "deadline"),
    (dict(wcet=5, deadline=3), "exceeds deadline"),
    (dict(deadline=12), "exceeds period"),
    (dict(importance=-1), "negative importance"),
    (dict(envelope_n=0), "envelope_n"),
    (dict(envelope_w=0), "envelope_w"),
    (dict(job_priority_overrides={1: 5}), "outside [0, 1)"),
])
def test_validate_rejects(kw, fragment):
    report = validate_task_set(TaskSet([task(**kw)]))
    assert not report.valid
    assert any(fragment in p for p in report.problems)


def test_validate_duplicate_importance_and_line():
    ts = TaskSet([task(id="a"), task(id="b")])
    report = validate_task_set(ts)
    assert any("duplicate importance" in p for p in report.problems)
    assert any("line collision" in p for p in report.problems)


def test_validate_rejects_override_keys_outside_the_cycle():
    # two jobs per hyperperiod: seq mod 2 never reaches 7 or -1
    ts = TaskSet([task(id="a", period=3, line="la",
                       job_priority_overrides={7: 10, -1: 5, 1: 4}),
                  task(id="b", period=6, line="lb", importance=1)])
    problems = validate_task_set(ts).problems
    assert problems == [
        "task a: job_priority_overrides key -1 outside [0, 2)",
        "task a: job_priority_overrides key 7 outside [0, 2)",
    ]


def test_validate_exception_only_override_cycle_is_one():
    ts = TaskSet([task(period=INFINITE_PERIOD, deadline=5,
                       job_priority_overrides={0: 3, 1: 4})])
    assert validate_task_set(ts).problems == [
        "task t: job_priority_overrides key 1 outside [0, 1)"
    ]


def test_importance_monotonic_map():
    ts = TaskSet([task(id="a", importance=3, line="la"),
                  task(id="b", importance=7, line="lb")])
    pmap = assign_importance_monotonic(ts)
    assert pmap.priority("a", 0) == 3
    assert pmap.priority("b", 5) == 7


def test_explicit_map_requires_priorities():
    ts = TaskSet([task(id="a", line="la")])
    with pytest.raises(ValueError):
        explicit_priority_map(ts)


def test_override_repeats_per_hyperperiod():
    # two jobs per hyperperiod: the override on seq 0 recurs at seq 2, 4, ...
    ts = TaskSet([task(id="a", period=3, line="la", priority=1,
                       job_priority_overrides={0: 10}),
                  task(id="b", period=6, line="lb", importance=1,
                       priority=2)])
    pmap = explicit_priority_map(ts)
    assert pmap.priority("a", 0) == 10
    assert pmap.priority("a", 1) == 1
    assert pmap.priority("a", 2) == 10
    assert pmap.priority("a", 3) == 1
    assert pmap.priority("b", 0) == 2


def test_job_finalize_rules():
    job = Job(task_id="a", seq=0, release=0, abs_deadline=5, remaining=2)
    assert not job.finalized
    job.finalize(JobState.COMPLETED, 4)
    assert job.finalized and job.completion == 4
    with pytest.raises(ValueError):
        job.finalize(JobState.MISSED, 5)
    with pytest.raises(ValueError):
        Job(task_id="a", seq=1, release=0, abs_deadline=5,
            remaining=2).finalize(JobState.RELEASED, 1)


def test_response_option_values():
    assert ResponseOption("release_all") is ResponseOption.RELEASE_ALL
    assert ResponseOption("notify_running") is ResponseOption.NOTIFY_RUNNING


def test_infinite_period_is_math_inf():
    assert INFINITE_PERIOD == math.inf
