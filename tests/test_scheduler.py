import math
import random

from envelopesim import (
    JobState,
    ResponseOption,
    Scheduler,
    Task,
    TaskSet,
    assign_importance_monotonic,
    explicit_priority_map,
)
from envelopesim.scheduler import dispatch_key, pick, release_job, take_due


def make_sched(tasks, explicit=False, delta_th=0):
    ts = TaskSet(tasks)
    pmap = explicit_priority_map(ts) if explicit \
        else assign_importance_monotonic(ts)
    return Scheduler(ts, pmap, delta_th=delta_th)


def two_tasks(**low_kw):
    low = dict(id="low", wcet=2, period=10, importance=1, line="ll",
               envelope_n=2, envelope_w=10, priority=1)
    low.update(low_kw)
    high = dict(id="high", wcet=2, period=10, importance=2, line="lh",
                envelope_n=2, envelope_w=10, priority=2)
    return [Task(**low), Task(**high)]


def test_release_assigns_deadline_and_seq():
    sched = make_sched(two_tasks())
    j0 = sched.on_internalize("low", 3).job
    j1 = sched.on_internalize("low", 5).job
    assert (j0.seq, j0.release, j0.abs_deadline) == (0, 3, 13)
    assert (j1.seq, j1.release, j1.abs_deadline) == (1, 5, 15)


def test_pick_prefers_higher_priority():
    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    assert sched.pick_next(0) is jh
    assert sched.dispatch(jh, 0) == (None, True)
    assert sched.running is jh
    # same job again: no preemption, no start
    assert sched.dispatch(jh, 0) == (None, False)
    assert sched.dispatch(jl, 1) == (jh, True)
    assert sched.running is jl
    assert not jh.finalized  # a preempted job stays live
    assert sched.dispatch(None, 2) == (jl, False)
    assert sched.running is None


def test_elevation_outranks_priority():
    # low importance 1 < high importance 2, but explicit priorities invert
    tasks = two_tasks(priority=9)
    sched = make_sched(tasks, explicit=True)
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    sched.set_elevated({"high"})
    assert sched.pick_next(0) is jh


def test_elevated_order_by_importance():
    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    sched.set_elevated({"low", "high"})
    assert sched.pick_next(0) is jh


def test_job_priority_override_applies_per_seq():
    # low runs twice per hyperperiod, so the override cycle has length 2
    tasks = two_tasks(period=5, job_priority_overrides={0: 10})
    sched = make_sched(tasks, explicit=True)
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    assert sched.pick_next(0) is jl  # override 10 beats base 2
    sched.active.remove(jl)
    jl1 = sched.on_internalize("low", 5).job
    assert sched.pick_next(5) is jh  # seq 1 falls back to base 1
    sched.active.remove(jl1)
    jl2 = sched.on_internalize("low", 10).job
    assert sched.pick_next(10) is jl2  # seq 2 wraps back to the override


def test_notify_running_targets_live_job():
    tasks = two_tasks(response=ResponseOption.NOTIFY_RUNNING)
    sched = make_sched(tasks)
    j0 = sched.on_internalize("low", 0).job
    eff = sched.on_internalize("low", 1)
    assert eff.job is None and eff.notified is j0
    assert j0.notifications == 1
    assert sched.seq["low"] == 1  # no second job was created


def test_notify_running_degenerates_to_release():
    tasks = two_tasks(response=ResponseOption.NOTIFY_RUNNING)
    sched = make_sched(tasks)
    eff = sched.on_internalize("low", 0)
    assert eff.job is not None and eff.notified is None


def test_shed_miss_vs_drop():
    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    sched.set_elevated({"high"})
    sched.dispatch(jh, 0)
    sched.execute_tick(0, 1)  # elevated high runs: low is being starved
    assert jl.starved_by_elevated
    jl.abs_deadline = 1
    shed = sched.shed_check(1)
    assert shed == [jl]
    assert jl.state is JobState.DROPPED

    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    jl.abs_deadline = 1
    shed = sched.shed_check(1)
    assert shed[0].state is JobState.MISSED  # nobody starved it


def test_shed_ignores_complete_jobs():
    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    sched.dispatch(jl, 0)
    sched.execute_tick(0, 1)
    sched.execute_tick(1, 2)
    assert jl.state is JobState.COMPLETED
    assert jl.completion == 2
    assert sched.shed_check(10) == []


def test_starvation_requires_lower_importance_and_open_window():
    sched = make_sched(two_tasks())
    jl = sched.on_internalize("low", 0).job
    jh = sched.on_internalize("high", 0).job
    sched.dispatch(jl, 0)
    sched.set_elevated({"low"})
    sched.execute_tick(0, 1)
    # high is more important than the elevated runner: not starved
    assert not jh.starved_by_elevated


def test_kernel_time_precedes_job_execution():
    sched = make_sched(two_tasks(), delta_th=2)
    jl = sched.on_internalize("low", 0).job
    sched.dispatch(jl, 0)
    assert sched.account_top_half(0) == 2
    assert sched.kernel_pending == 2
    assert sched.execute_tick(0, 1).kind == "kernel"
    assert sched.execute_tick(1, 2).kind == "kernel"
    res = sched.execute_tick(2, 3)
    assert res.kind == "ran" and jl.remaining == 1
    assert sched.kernel_pending == 0


def test_idle_tick():
    sched = make_sched(two_tasks())
    assert sched.execute_tick(0, 1).kind == "idle"


def test_completion_time_is_end_of_tick():
    sched = make_sched(two_tasks(wcet=1))
    jl = sched.on_internalize("low", 4).job
    sched.dispatch(jl, 4)
    res = sched.execute_tick(4, 5)
    assert res.completed and jl.completion == 5


def random_keyed_task_set(rng):
    """2-4 tasks with distinct importances and base priorities, and
    job-level overrides on some of them."""
    n = rng.randint(2, 4)
    importances = rng.sample(range(10), n)
    priorities = rng.sample(range(1, 10), n)
    periods = [rng.choice([2, 3, 4, 6, 12]) for _ in range(n)]
    hp = math.lcm(*periods)
    tasks = []
    for i, period in enumerate(periods):
        k = hp // period
        overrides = {key: rng.randint(1, 12)
                     for key in rng.sample(range(k), rng.randint(0, k))}
        tasks.append(Task(id=f"t{i}", wcet=1, period=period,
                          importance=importances[i], line=f"l{i}",
                          envelope_n=1, envelope_w=period,
                          priority=priorities[i],
                          job_priority_overrides=overrides))
    return TaskSet(tasks)


def test_stored_keys_and_pick_follow_dispatch_key():
    rng = random.Random(7)
    elevation_decided = 0
    for _ in range(200):
        ts = random_keyed_task_set(rng)
        explicit = rng.random() < 0.5
        pmap = explicit_priority_map(ts) if explicit \
            else assign_importance_monotonic(ts)
        tasks = {t.id: t for t in ts}
        jobs = []
        for task in ts:
            for seq in rng.sample(range(24), 3):
                job = release_job(task, seq, rng.randrange(24), tasks, pmap)
                assert job.key == dispatch_key(job, (), tasks, pmap)
                assert job.elevated_key == dispatch_key(
                    job, {task.id}, tasks, pmap)
                jobs.append(job)
        assert pick([], set()) is None
        for _ in range(10):
            active = rng.sample(jobs, rng.randint(1, len(jobs)))
            chosen = rng.sample(sorted(tasks), rng.randint(0, len(tasks)))
            # the engine passes a set, the checker its episode dict
            elevated = set(chosen) if rng.random() < 0.5 \
                else dict.fromkeys(chosen, 0)
            expected = min(active, key=lambda j: dispatch_key(
                j, elevated, tasks, pmap))
            assert pick(active, elevated) is expected
            if expected is not pick(active, ()):
                elevation_decided += 1
    # elevation changed the choice often enough to matter
    assert elevation_decided > 100, elevation_decided


def test_take_due_removes_due_jobs_in_task_then_seq_order():
    ts = TaskSet(two_tasks())
    tasks = {t.id: t for t in ts}
    pmap = assign_importance_monotonic(ts)
    low0 = release_job(tasks["low"], 0, 0, tasks, pmap)
    high0 = release_job(tasks["high"], 0, 1, tasks, pmap)
    low1 = release_job(tasks["low"], 1, 2, tasks, pmap)
    high1 = release_job(tasks["high"], 1, 5, tasks, pmap)
    active = [low0, high0, low1, high1]
    assert take_due(active, 12) == [high0, low0, low1]
    assert active == [high1]
    assert take_due(active, 12) == []
