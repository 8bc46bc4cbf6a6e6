import itertools
import random
from pathlib import Path

import pytest

from envelopesim import (
    BoundsExceeded,
    EnumerationBounds,
    FeasibilityError,
    INFINITE_PERIOD,
    Policy,
    ResponseOption,
    Task,
    TaskSet,
    admissible_patterns,
    check_normal,
    check_ooe_feasible,
)
from envelopesim import feasibility
from envelopesim.cli import load_scenario
from envelopesim.engine import NOTIFY, select_priority_map
from envelopesim.feasibility import (
    COMPLETED,
    DROPPED,
    INCOMPLETE,
    MISSED,
    count_admissible_patterns,
    engine_verdicts,
    normal_pattern,
    reference_verdicts,
)
from envelopesim.model import (
    assign_importance_monotonic,
    explicit_priority_map,
    hyperperiod,
)
from conftest import two_task_set
from support import (
    oracle_admissible_patterns,
    oracle_verdicts,
    product_check,
    random_check_instance,
    window_violations,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def envelope_task(n, w, period=6, **kw):
    base = dict(id="t", wcet=1, period=period, importance=0, line="l",
                envelope_n=n, envelope_w=w)
    base.update(kw)
    return Task(**base)


def brute_force_patterns(task, horizon):
    need = set(normal_pattern(task, horizon))
    out = []
    for r in range(horizon + 1):
        for combo in itertools.combinations(range(horizon), r):
            if need.issubset(combo) and not window_violations(
                    combo, task.envelope_n, task.envelope_w):
                out.append(combo)
    return out


@pytest.mark.parametrize("n,w,period,horizon", [
    (1, 2, 6, 5),
    (1, 3, 6, 6),
    (2, 3, 6, 6),
    (2, 6, 6, 6),
    (3, 4, 6, 7),
    (2, 4, 3, 7),
    (1, 4, 3, 6),  # normal arrivals alone breach the envelope: no patterns
])
def test_admissible_patterns_match_brute_force(n, w, period, horizon):
    task = envelope_task(n, w, period=period)
    got = admissible_patterns(task, horizon)
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(brute_force_patterns(task, horizon))
    assert count_admissible_patterns(task, horizon) == len(got)
    # the sweep starts every slot at the normal pattern without a list
    assert not got or got[0] == normal_pattern(task, horizon)


def assert_enumerators_match_the_oracle(task, horizon):
    expected = oracle_admissible_patterns(task, horizon)
    masks = feasibility._admissible_masks(task, horizon)
    assert admissible_patterns(task, horizon) == expected
    assert [feasibility._times_of(m) for m in masks] == expected
    assert masks == [feasibility._mask_of(p) for p in expected]
    assert count_admissible_patterns(task, horizon) == len(expected)
    return expected


@pytest.mark.parametrize("task,horizon,count", [
    # exception-only: no arrival is mandatory, the empty pattern first
    (envelope_task(1, 3, period=INFINITE_PERIOD, deadline=3), 7, 19),
    # n >= W: no window can ever be full, so every superset of the
    # normal arrivals is admissible
    (envelope_task(3, 2, period=4), 8, 2 ** 6),
    (envelope_task(2, 2, period=INFINITE_PERIOD, deadline=2), 5, 2 ** 5),
    # W > horizon: one window spans the whole horizon
    (envelope_task(2, 9, period=3), 6, 1),
    (envelope_task(3, 9, period=INFINITE_PERIOD, deadline=2), 6, 42),
    # the normal pattern breaches its envelope: no patterns at all
    (envelope_task(1, 4, period=3), 6, 0),
])
def test_enumerators_match_the_tuple_oracle_on_edge_tasks(task, horizon,
                                                         count):
    assert len(assert_enumerators_match_the_oracle(task, horizon)) == count


def test_enumerators_match_the_tuple_oracle_on_random_tasks():
    rng = random.Random(2007)
    for _ in range(300):
        period = rng.choice([INFINITE_PERIOD, 1, 2, 3, 4, 6, 12])
        task = envelope_task(rng.randint(1, 4), rng.randint(1, 14),
                             period=period, deadline=rng.randint(1, 6))
        assert_enumerators_match_the_oracle(task, rng.randint(0, 13))


def test_refusal_comes_before_any_pattern_is_built(monkeypatch):
    # 2**23 patterns: every subset of the ticks 1..23 joins the arrival
    # at 0, so enumerating them first would take seconds and gigabytes
    def no_enumeration(task, horizon):
        raise AssertionError("patterns built before the bound check")

    monkeypatch.setattr(feasibility, "_admissible_masks", no_enumeration)
    task = envelope_task(1, 1, period=24)
    assert count_admissible_patterns(task, 24) == 2 ** 23
    with pytest.raises(BoundsExceeded, match="8388608 pattern combinations"):
        check_ooe_feasible(TaskSet([task]))


def test_patterns_are_supersets_of_the_normal_arrivals():
    for p in admissible_patterns(envelope_task(2, 4, period=3), 6):
        assert {0, 3}.issubset(p)


def test_exception_only_task_admits_the_empty_pattern():
    task = envelope_task(1, 3, period=INFINITE_PERIOD, deadline=3)
    patterns = admissible_patterns(task, 6)
    assert patterns[0] == ()
    assert (0, 3) in patterns
    assert count_admissible_patterns(task, 6) == len(patterns)


def test_normal_pattern_first_when_admissible():
    task = envelope_task(1, 3, period=3)
    patterns = admissible_patterns(task, 6)
    assert patterns[0] == (0, 3)


def test_normal_pattern_for_exception_only_task():
    task = envelope_task(2, 4, period=INFINITE_PERIOD, deadline=4)
    assert normal_pattern(task, 10) == ()


def test_check_normal_reports_first_miss():
    result = check_normal(two_task_set())
    assert not result.feasible
    assert result.horizon == 6
    assert result.witness == ("tau_l", 0, 3)
    assert result.metrics.per_task["tau_l"]["misses"] == 1


def test_check_normal_feasible_with_override():
    result = check_normal(two_task_set(override=True),
                          Policy(assignment="explicit"))
    assert result.feasible
    assert result.witness is None
    assert not result.trace.of_kind("MISS")


def test_reference_verdicts_normal_monotonic():
    ts = two_task_set()
    pmap = assign_importance_monotonic(ts)
    patterns = {"tau_l": (0, 3), "tau_h": (0,)}
    verdicts = reference_verdicts(ts, pmap, patterns, 6)
    assert verdicts == {
        ("tau_h", 0): COMPLETED,
        ("tau_l", 0): MISSED,
        ("tau_l", 1): COMPLETED,
    }


def test_reference_verdicts_sanction_drop():
    # the high task bursts out of envelope; the low task's second job is
    # sacrificed, which is a drop rather than a miss
    ts = two_task_set(override=True)
    pmap = explicit_priority_map(ts)
    patterns = {"tau_l": (0, 3), "tau_h": (0, 3)}
    verdicts = reference_verdicts(ts, pmap, patterns, 6)
    assert verdicts == {
        ("tau_h", 0): COMPLETED,
        ("tau_h", 1): COMPLETED,
        ("tau_l", 0): COMPLETED,
        ("tau_l", 1): DROPPED,
    }


def test_monotonic_assignment_violates_on_normal_pattern():
    result = check_ooe_feasible(two_task_set())
    assert not result.feasible
    assert result.patterns_checked == 1  # the all-normal combination
    assert result.witness_pattern == {"tau_l": (0, 3), "tau_h": (0,)}
    assert result.witness_verdicts[("tau_l", 0)] == MISSED
    assert result.witness_trace is not None
    assert result.witness_trace.of_kind("MISS")


def test_override_assignment_is_ooe_feasible():
    result = check_ooe_feasible(two_task_set(override=True),
                                Policy(assignment="explicit"))
    assert result.feasible
    assert result.horizon == 6
    # the low line admits only its normal arrivals; the high line can add
    # one extra event anywhere in the hyperperiod
    assert result.patterns_checked == 6
    assert result.witness_pattern is None


def tighter_task_set():
    return TaskSet([
        t if t.id != "tau_h" else Task(
            id="tau_h", wcet=2, period=6, importance=2, line="l_high",
            envelope_n=1, envelope_w=6, priority=2)
        for t in two_task_set(override=True)
    ])


def test_tighter_envelope_stays_feasible():
    # shrinking n only removes admissible patterns
    result = check_ooe_feasible(tighter_task_set(),
                                Policy(assignment="explicit"))
    assert result.feasible
    assert result.patterns_checked == 1  # neither line can add anything


def test_single_task_feasible():
    ts = TaskSet([envelope_task(2, 4, period=4)])
    result = check_ooe_feasible(ts)
    assert result.feasible
    assert result.patterns_checked == 4  # normal plus one extra at 1, 2 or 3


def test_single_task_overload_is_a_violation():
    # an extra arrival one tick after a release demands 6 ticks within 5
    ts = TaskSet([envelope_task(2, 4, period=4, wcet=3)])
    # within a single hyperperiod the second deadline is out of view
    assert check_ooe_feasible(ts).feasible
    result = check_ooe_feasible(ts, horizon=8)
    assert not result.feasible
    witness = set(result.witness_pattern["t"])
    assert witness > {0, 4}  # the normal arrivals plus at least one extra
    assert MISSED in result.witness_verdicts.values()
    assert result.witness_trace.of_kind("MISS")


def test_normal_pattern_breaching_envelope_is_rejected():
    bad = envelope_task(1, 5, period=3)  # two periodic arrivals per window
    assert admissible_patterns(bad, 6) == []
    with pytest.raises(FeasibilityError):
        check_ooe_feasible(TaskSet([bad]), horizon=6)


def test_normalization_ignores_deferral_knobs():
    ts = TaskSet([envelope_task(2, 4, period=4)])
    plain = check_ooe_feasible(ts)
    tricked = check_ooe_feasible(
        ts, Policy(ipl_optimization=True, mask_until_bottom_half=True))
    assert plain.feasible == tricked.feasible
    assert plain.patterns_checked == tricked.patterns_checked


def test_bounds_task_count():
    tasks = [envelope_task(1, 2, id=f"t{i}", line=f"l{i}", importance=i)
             for i in range(4)]
    with pytest.raises(BoundsExceeded):
        check_ooe_feasible(TaskSet(tasks))


def test_bounds_horizon():
    ts = TaskSet([envelope_task(2, 4, period=25)])
    with pytest.raises(BoundsExceeded):
        check_ooe_feasible(ts)
    # an explicit horizon can override the hyperperiod either way
    assert check_ooe_feasible(ts, horizon=4).feasible
    with pytest.raises(BoundsExceeded):
        check_ooe_feasible(TaskSet([envelope_task(2, 4, period=4)]),
                           horizon=30)


def test_bounds_pattern_count():
    ts = two_task_set(override=True)
    with pytest.raises(BoundsExceeded):
        check_ooe_feasible(ts, Policy(assignment="explicit"),
                           bounds=EnumerationBounds(max_patterns=5))


def test_vacuous_instance_over_the_bounds_is_feasible_uncounted(
        monkeypatch):
    # every deadline lies past the horizon: no combination is counted or
    # swept, however many there would be
    def refused(*args):
        raise AssertionError("combinations counted or swept")

    monkeypatch.setattr(feasibility, "count_admissible_patterns", refused)
    monkeypatch.setattr(feasibility, "_sweep", refused)
    far = 2 * 10 ** 9
    tasks = [envelope_task(2, 20, period=far, id=f"t{i}", line=f"l{i}",
                           importance=i) for i in range(3)]
    tasks.append(envelope_task(1, 5, period=INFINITE_PERIOD,
                               deadline=far, id="x", line="lx",
                               importance=9))
    for ts, horizon in ((TaskSet(tasks[:1]), 10 ** 9),
                        (TaskSet(tasks), 10 ** 9), (TaskSet(tasks), 12)):
        result = check_ooe_feasible(ts, None, horizon)
        assert result.feasible and result.vacuous
        assert (result.patterns_checked, result.ticks_simulated,
                result.snapshots) == (0, 0, 0)


def test_instance_over_the_bounds_is_refused_unless_vacuous(monkeypatch):
    # one deadline falls due within the horizon: refused as before
    monkeypatch.setattr(feasibility, "_sweep", None)
    far = 2 * 10 ** 9
    for deadline, horizon in ((10 ** 9, 10 ** 9), (24, 25)):
        ts = TaskSet([envelope_task(2, 20, period=far, id="a", line="la"),
                      envelope_task(2, 20, period=far, deadline=deadline,
                                    id="b", line="lb", importance=1)])
        with pytest.raises(BoundsExceeded, match=f"horizon {horizon} "):
            check_ooe_feasible(ts, None, horizon)
    # over the pattern bound, a vacuous instance is counted, not swept:
    # the sweep would count every combination and find no miss
    ts = two_task_set(override=True)
    bounds = EnumerationBounds(max_patterns=1)
    with pytest.raises(BoundsExceeded, match="3 pattern combinations"):
        check_ooe_feasible(ts, Policy(assignment="explicit"), 3, bounds)
    result = check_ooe_feasible(ts, Policy(assignment="explicit"), 2, bounds)
    assert result.feasible and result.vacuous
    assert result.patterns_checked == 2


def random_small_instance(seed):
    rng = random.Random(seed)
    n_tasks = rng.randint(1, 2)
    horizon = rng.randint(6, 10)
    importances = rng.sample(range(0, 9), n_tasks)
    priorities = rng.sample(range(1, 9), n_tasks)
    tasks = []
    for i in range(n_tasks):
        period = rng.randint(2, 6)
        tasks.append(Task(
            id=f"t{i}",
            wcet=rng.randint(1, max(1, period // 2)),
            period=period,
            importance=importances[i],
            line=f"l{i}",
            envelope_n=rng.randint(1, 2),
            envelope_w=rng.randint(2, 4),
            priority=priorities[i],
            response=rng.choice([ResponseOption.RELEASE_ALL,
                                 ResponseOption.NOTIFY_RUNNING]),
        ))
    policy = Policy(
        assignment=rng.choice(["importance_monotonic", "explicit"]),
        delta_th=rng.randrange(2),
    )
    return TaskSet(tasks), policy, horizon, rng


def test_reference_agrees_with_engine_on_sampled_patterns():
    # the enumeration's inner simulator, the full engine and the
    # independent oracle must reach the same verdict for every job,
    # pattern by pattern; the sample holds every fate reference_verdicts
    # reads off a job, and a NOTIFY_RUNNING task notifying a live job
    seen = set()
    for seed in range(40):
        ts, policy, horizon, rng = random_small_instance(seed)
        pmap = explicit_priority_map(ts) if policy.assignment == "explicit" \
            else assign_importance_monotonic(ts)
        per_task = {t.id: admissible_patterns(t, horizon) for t in ts}
        if not all(per_task.values()):
            continue  # normal arrivals can breach a tight envelope
        for _ in range(4):
            patterns = {
                tid: rng.choice(options)
                for tid, options in per_task.items()
            }
            ref = reference_verdicts(ts, pmap, patterns, horizon,
                                     policy.delta_th)
            eng, trace = engine_verdicts(ts, policy, patterns, horizon)
            assert ref == eng, (seed, patterns)
            assert ref == oracle_verdicts(ts, pmap, patterns, horizon,
                                          policy.delta_th), (seed, patterns)
            seen.update(ref.values())
            if any(trace.of_kind(NOTIFY)):
                seen.add("notified")
    assert seen == {COMPLETED, MISSED, DROPPED, INCOMPLETE, "notified"}


# the sweep against the product loop it replaced

def assert_sweep_matches_product(ts, policy=None, horizon=None):
    result = check_ooe_feasible(ts, policy, horizon)
    assert (result.feasible, result.patterns_checked,
            result.witness_pattern) == product_check(ts, policy, horizon)
    if result.vacuous:  # decided once counted: nothing stepped or built
        assert (result.ticks_simulated, result.snapshots,
                result.patterns_built) == (0, 0, 0)
        return result
    assert 0 < result.ticks_simulated \
        <= result.patterns_checked * (result.horizon + 1)
    # a feasible sweep advances every slot that can, so it holds every
    # list; otherwise each slot holds at least its normal pattern
    total = sum(count_admissible_patterns(t, result.horizon) for t in ts)
    if result.feasible:
        assert result.patterns_built == total
    else:
        assert len(ts) <= result.patterns_built <= total
    return result


def overload_task_set():
    return TaskSet([envelope_task(2, 4, period=4, wcet=3)])


@pytest.mark.parametrize("ts,policy,horizon", [
    (two_task_set(), None, None),
    (two_task_set(override=True), Policy(assignment="explicit"), None),
    (two_task_set(override=True), Policy(assignment="explicit"), 12),
    (tighter_task_set(), Policy(assignment="explicit"), None),
    (TaskSet([envelope_task(2, 4, period=4)]), None, None),
    (TaskSet([envelope_task(2, 4, period=4)]),
     Policy(ipl_optimization=True, mask_until_bottom_half=True), None),
    (overload_task_set(), None, None),
    (overload_task_set(), None, 8),
    (TaskSet([envelope_task(2, 4, period=25)]), None, 4),
], ids=["monotonic", "override", "override_h12", "tighter", "single",
        "knobs", "overload_h4", "overload_h8", "long_period_h4"])
def test_sweep_matches_product_on_test_instances(ts, policy, horizon):
    assert_sweep_matches_product(ts, policy, horizon)


def test_sweep_matches_product_on_accepted_demo_scenarios():
    accepted = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(str(path))
        try:
            result = check_ooe_feasible(scenario.task_set, scenario.policy,
                                        scenario.horizon)
        except BoundsExceeded:
            continue
        if not result.patterns_checked:  # vacuous over a bound: no sweep
            continue
        assert_sweep_matches_product(scenario.task_set, scenario.policy,
                                     scenario.horizon)
        accepted.append(path.stem)
    assert accepted == ["counterexample", "override", "override_burst"]


def test_sweep_matches_product_on_random_instances():
    seen = set()
    for seed in range(240):
        ts, policy, horizon = random_check_instance(seed)
        result = assert_sweep_matches_product(ts, policy, horizon)
        seen.add(policy.assignment)
        seen.add(f"delta_th={policy.delta_th}")
        for task in ts:
            if task.job_priority_overrides:
                seen.add(f"overrides under {policy.assignment}")
            if task.exception_only:
                seen.add("exception-only")
            seen.add(task.response.value)
        if result.feasible:
            seen.add("feasible")
        elif result.patterns_checked > 1:
            seen.add("violation after the first combination")
    assert seen >= {
        "overrides under explicit", "overrides under importance_monotonic",
        "delta_th=0", "delta_th=1", "notify_running", "release_all",
        "exception-only", "feasible",
        "violation after the first combination",
    }


def test_sweep_matches_product_on_larger_random_instances():
    # 500-2,000 combinations each, so slots advance and wrap many times
    # over jobs released again, arrival ticks patched and lists built late
    feasible = late = 0
    for seed in range(400):
        ts, policy, horizon = random_check_instance(
            seed, max_combinations=2000, min_combinations=500)
        result = assert_sweep_matches_product(ts, policy, horizon)
        feasible += result.feasible
        late += not result.feasible and result.patterns_checked > 1
    assert feasible >= 20 and late >= 100


def reused_starved_task_set():
    return TaskSet([
        Task(id="t0", wcet=1, period=2, importance=5, line="l0",
             envelope_n=1, envelope_w=2,
             response=ResponseOption.NOTIFY_RUNNING),
        Task(id="t1", wcet=2, period=6, importance=0, line="l1",
             envelope_n=2, envelope_w=5,
             response=ResponseOption.NOTIFY_RUNNING,
             job_priority_overrides={0: 12}),
        Task(id="t2", wcet=1, period=3, importance=8, line="l2",
             envelope_n=2, envelope_w=3),
    ])


@pytest.mark.parametrize("ts,horizon,feasible,checked", [
    # t's job 1, released at 2, completes in combinations 1 and 2 and is
    # released again in combination 3, which resumes at tick 1; had it
    # kept its remaining time of 0 it would never complete and would miss
    (TaskSet([Task(id="t", wcet=2, period=2, importance=0, line="l",
                   envelope_n=1, envelope_w=1,
                   response=ResponseOption.NOTIFY_RUNNING)]),
     4, True, 4),
    # t0's job 1, released at 2, is starved by an elevated t2 in
    # combination 13 and misses in combination 16, which resumes at tick
    # 1; had it stayed starved the miss would read as a sanctioned drop
    (reused_starved_task_set(), 5, False, 16),
], ids=["ran", "starved"])
def test_sweep_resets_reused_jobs(ts, horizon, feasible, checked):
    result = assert_sweep_matches_product(ts, None, horizon)
    assert (result.feasible, result.patterns_checked) == (feasible, checked)


def test_first_combination_miss_builds_no_pattern_list(monkeypatch):
    def no_enumeration(task, horizon):
        raise AssertionError("pattern list built before a slot advanced")

    monkeypatch.setattr(feasibility, "_admissible_masks", no_enumeration)
    demo = load_scenario(str(SCENARIOS / "counterexample.json"))
    for ts, policy, horizon in [(two_task_set(), None, None),
                                (demo.task_set, demo.policy, demo.horizon)]:
        result = check_ooe_feasible(ts, policy, horizon)
        assert not result.feasible
        assert result.patterns_checked == 1
        assert result.witness_pattern == {
            t.id: normal_pattern(t, result.horizon) for t in ts}
        assert result.witness_trace.of_kind("MISS")
        assert result.patterns_built == len(ts)


def test_advancing_slot_builds_its_list_once(monkeypatch):
    # t1 and t2 admit 5 patterns each and t0 one: the sweep stops at
    # t1's fourth and t2's first pattern, after t2 has advanced 12 times
    # and wrapped 3
    built = []
    enumerate_masks = feasibility._admissible_masks

    def counted(task, horizon):
        built.append(task.id)
        return enumerate_masks(task, horizon)

    monkeypatch.setattr(feasibility, "_admissible_masks", counted)
    result = check_ooe_feasible(reused_starved_task_set(), horizon=5)
    assert result.patterns_checked == 16
    assert built == ["t2", "t1"]
    assert result.patterns_built == 1 + 5 + 5


def test_sweep_restores_state_changed_after_the_divergence_tick():
    # a job starved in one combination must not stay starved where the
    # next one resumes before the starvation (patterns_checked 5), and
    # sequence numbers, which pick job-level overrides, must be rewound
    # (patterns_checked 13); the random instances rarely hit either
    starving = TaskSet([
        Task(id="t0", wcet=1, period=3, importance=6, line="l0",
             envelope_n=1, envelope_w=2, priority=6,
             job_priority_overrides={0: 12, 1: 8, 3: 12}),
        Task(id="t1", wcet=12, period=12, importance=7, line="l1",
             envelope_n=1, envelope_w=2, priority=2),
    ])
    overridden = TaskSet([
        Task(id="t0", wcet=1, period=3, importance=6, line="l0",
             envelope_n=1, envelope_w=2, priority=4,
             response=ResponseOption.NOTIFY_RUNNING),
        Task(id="t1", wcet=1, period=2, importance=7, line="l1",
             envelope_n=1, envelope_w=1, priority=5,
             job_priority_overrides={0: 1, 1: 9, 2: 6}),
    ])
    for ts, delta_th, checked in [(starving, 1, 5), (overridden, 0, 13)]:
        result = assert_sweep_matches_product(
            ts, Policy(assignment="explicit", delta_th=delta_th), 6)
        assert result.patterns_checked == checked


def test_sweep_resumes_from_shared_prefixes():
    # a silent fallback to simulating every combination from t=0 would
    # step all 26 * 13 ticks
    result = check_ooe_feasible(two_task_set(override=True),
                                Policy(assignment="explicit"), horizon=12)
    assert result.feasible
    assert result.patterns_checked == 26
    assert result.ticks_simulated < 0.6 * 26 * 13


# the cutoff: a combination stops once settled, and one resuming after
# that tick is not stepped

def late_preemption_task_set():
    # t0's job, due at the horizon 6, needs all of ticks 0-4 and one
    # more; t1's single extra arrival outranks it and is due at t + 6
    return TaskSet([
        Task(id="t0", wcet=5, period=6, importance=1, line="l0",
             envelope_n=1, envelope_w=6),
        Task(id="t1", wcet=2, period=INFINITE_PERIOD, deadline=6,
             importance=2, line="l1", envelope_n=1, envelope_w=6),
    ])


@pytest.mark.parametrize("ts,policy,checked,witness", [
    # combination 1 completes t0's job at tick 4 and is settled at 5, so
    # combination 2 (t1 at 5) is not stepped; combination 3 resumes at
    # 4, where t1's arrival, after the release cutoff (4 + 6 > 6),
    # preempts t0's job into a miss at 6
    (late_preemption_task_set(), None, 3,
     {"t0": (0,), "t1": (4,)}),
    # with delta_th = 1 the normal arrival's top half and the job fill
    # ticks 0-5; the extra arrival at 5, after the release cutoff, costs
    # one more tick of top-half time and the job misses at 6
    (TaskSet([envelope_task(2, 6, wcet=5)]), Policy(delta_th=1), 2,
     {"t": (0, 5)}),
], ids=["preemption", "top_half"])
def test_cutoff_waits_for_every_active_deadline(ts, policy, checked,
                                                witness):
    # every job released from tick 1 on falls due past the horizon, but
    # a job due at the horizon is still active: a cutoff on releases
    # alone would prove both instances feasible
    result = assert_sweep_matches_product(ts, policy, 6)
    assert (result.feasible, result.patterns_checked,
            result.witness_pattern) == (False, checked, witness)
    assert result.ticks_simulated == 8


def test_cutoff_matches_product_on_shortened_horizons(monkeypatch):
    # each random instance at its own horizon and at one below the
    # hyperperiod, where more jobs fall due past the horizon
    settled = feasibility._CheckerState.settled
    restore = feasibility._CheckerState.restore
    counts = {"stepped": 0, "early": 0}

    def counted_settled(state, s):
        out = settled(state, s)
        counts["early"] += out and s <= state.horizon
        return out

    def counted_restore(state, snap):
        counts["stepped"] += 1
        return restore(state, snap)

    monkeypatch.setattr(feasibility._CheckerState, "settled",
                        counted_settled)
    monkeypatch.setattr(feasibility._CheckerState, "restore",
                        counted_restore)
    # among the instances that are not vacuous: those where a
    # combination stopped early, those where one was not stepped, and
    # the violations found after one was not stepped
    stopped = skipped = late = 0
    for seed in range(200):
        ts, policy, horizon = random_check_instance(seed)
        short = random.Random(seed).randint(
            1, max(1, min(horizon, hyperperiod(ts)) - 1))
        for h in (horizon, short):
            counts.update(stepped=0, early=0)
            result = assert_sweep_matches_product(ts, policy, h)
            if result.vacuous:
                continue
            stopped += counts["early"] > 0
            skip = counts["stepped"] < result.patterns_checked
            skipped += skip
            late += skip and not result.feasible
    assert stopped >= 120 and skipped >= 80 and late >= 30, \
        (stopped, skipped, late)


@pytest.mark.parametrize("ts,horizon,checked", [
    # periodic arrivals at 0 only
    (TaskSet([envelope_task(2, 6, period=6, id="t0", line="l0"),
              envelope_task(2, 8, period=8, id="t1", line="l1",
                            importance=1)]), 5, 25),
    # t1 is exception-only, with 19 patterns
    (TaskSet([envelope_task(2, 6, period=6, id="t0", line="l0"),
              envelope_task(2, 4, period=INFINITE_PERIOD, deadline=6,
                            id="t1", line="l1", importance=1)]),
     5, 95),
], ids=["periodic", "exception_only"])
def test_vacuous_instance_is_decided_at_tick_zero(ts, horizon, checked,
                                                  monkeypatch):
    # decided before the sweep: the combinations are counted, no tick is
    # stepped, no state saved and no pattern list built
    result = assert_sweep_matches_product(ts, None, horizon)
    assert result.feasible and result.vacuous
    assert (result.patterns_checked, result.ticks_simulated,
            result.snapshots, result.patterns_built) == (checked, 0, 0, 0)
    # one tick more and the shortest deadline (6) falls due within it
    assert not check_ooe_feasible(ts, None, 6).vacuous
    monkeypatch.setattr(feasibility, "_sweep", None)
    assert check_ooe_feasible(ts, None, horizon) == result


def test_a_large_vacuous_instance_is_counted_not_swept(monkeypatch):
    # two exception-only tasks due 20 ticks after each arrival, over
    # horizon 16: 250 * 1873 combinations, none of them walked
    def refused(*args):
        raise AssertionError("a pattern built or a combination swept")

    for name in ("_sweep", "_admissible_masks"):
        monkeypatch.setattr(feasibility, name, refused)
    ts = TaskSet([
        envelope_task(1, 4, period=INFINITE_PERIOD, deadline=20, id="a",
                      line="la"),
        envelope_task(2, 6, period=INFINITE_PERIOD, deadline=20, id="b",
                      line="lb", importance=1)])
    result = check_ooe_feasible(ts, None, 16)
    assert result.feasible and result.vacuous
    assert (result.patterns_checked, result.ticks_simulated,
            result.snapshots, result.patterns_built) == (468_250, 0, 0, 0)


# the sweep's work counters and the step's cached facts

def expected_snapshots(ts, policy, horizon):
    """The initial state plus, per stepped combination, the ticks in
    (start, min(end, settled - 1)]: end is the next combination's start,
    or the horizon when the next combination is the first to move its
    slot past the slot's first pattern; the last combination snapshots
    nothing. A start is the earliest tick at which the arrival sets of
    some task that changed differ. settled is the first tick after the
    start at which the oracle simulator, run over the combination, has
    no active job due within the horizon, and from which every release
    falls due past it; a combination that starts at or after the last
    stepped one's settled tick is not stepped."""
    lists = [admissible_patterns(t, horizon) for t in ts]
    combos = list(itertools.product(*[range(len(p)) for p in lists]))
    starts = [0]
    for a, b in zip(combos, combos[1:]):
        starts.append(min(min(set(p[x]) ^ set(p[y]))
                          for p, x, y in zip(lists, a, b) if x != y))
    pmap = select_priority_map(ts, policy)
    shortest = min(t.deadline for t in ts)
    advanced = set()
    total = 1
    safe = horizon + 1
    for c, combo in enumerate(combos):
        if c + 1 < len(combos):
            j = next(i for i, (x, y) in enumerate(zip(combo, combos[c + 1]))
                     if x != y)
            end = starts[c + 1] if j in advanced else horizon
            advanced.add(j)
        else:
            end = starts[c]
        if starts[c] >= safe:
            continue
        dues = []
        oracle_verdicts(ts, pmap, {t.id: p[x] for t, p, x in
                                   zip(ts, lists, combo)},
                        horizon, policy.delta_th, dues)
        safe = next((s for s in range(starts[c] + 1, horizon + 1)
                     if s + shortest > horizon and dues[s] > horizon),
                    horizon + 1)
        total += max(min(end, safe - 1) - starts[c], 0)
    return total


def test_sweep_snapshots_only_up_to_the_next_divergence_tick():
    # snapshotting every tick after each start would take 1 + 133 - 26
    # on the first instance without the cutoff, which stops 5 of those
    # snapshots from being taken
    result = check_ooe_feasible(two_task_set(override=True),
                                Policy(assignment="explicit"), horizon=12)
    assert result.feasible and result.patterns_checked == 26
    assert result.snapshots == expected_snapshots(
        two_task_set(True), Policy(assignment="explicit"), 12)
    assert result.snapshots == 48
    checked = 0
    for seed in range(120):
        ts, policy, horizon = random_check_instance(seed)
        result = check_ooe_feasible(ts, policy, horizon)
        if result.feasible and result.patterns_checked > 1 \
                and not result.vacuous:
            assert result.snapshots == expected_snapshots(
                ts, policy, horizon), seed
            checked += 1
    assert checked >= 10


def assert_step_keeps_its_cached_facts(monkeypatch, instances):
    """Before every step: due and decays are the earliest active deadline
    and episode decay, and a kept runner is the job pick chooses, with
    every less important active job starved when it is elevated. Also
    checks that take_due runs exactly at the steps where an active job
    is due, and removes one each time."""
    step = feasibility._CheckerState.step
    shed = feasibility.take_due
    counts = {"due steps": 0, "take_due": 0}

    def checked_step(state, t, batch):
        active, episodes = state.active, state.episodes
        assert state.due == min([j.abs_deadline for j in active],
                                default=float("inf"))
        assert state.decays == min(episodes.values(), default=float("inf"))
        runner = state.runner
        if runner is not None:
            assert runner in active
            assert runner is feasibility.pick(active, episodes)
            if runner.task_id in episodes:
                imp = state.tasks[runner.task_id].importance
                assert all(j.starved_by_elevated for j in active
                           if state.tasks[j.task_id].importance < imp)
        # jobs released at t fall due after t
        counts["due steps"] += any(j.abs_deadline <= t for j in active)
        return step(state, t, batch)

    def counted_take_due(active, t):
        counts["take_due"] += 1
        due = shed(active, t)
        assert due
        return due

    monkeypatch.setattr(feasibility._CheckerState, "step", checked_step)
    monkeypatch.setattr(feasibility, "take_due", counted_take_due)
    for ts, policy, horizon in instances:
        assert_sweep_matches_product(ts, policy, horizon)
    assert counts["take_due"] == counts["due steps"] > 0


def test_step_keeps_its_cached_facts_on_random_instances(monkeypatch):
    assert_step_keeps_its_cached_facts(
        monkeypatch, [random_check_instance(seed) for seed in range(120)])


def test_step_keeps_its_cached_facts_on_pinned_instances(monkeypatch):
    assert_step_keeps_its_cached_facts(monkeypatch, [
        (two_task_set(override=True), Policy(assignment="explicit"), 12),
        (restored_runner_task_set(), Policy(assignment="explicit"), 5),
        (reused_flag_task_set(), Policy(assignment="explicit"), 8),
        (reused_starved_task_set(), None, 5),
    ])


# the cached runner: each event that must drop it, pinned

def restored_runner_task_set():
    return TaskSet([
        Task(id="t0", wcet=1, period=4, importance=1, line="l0",
             envelope_n=4, envelope_w=3, priority=5,
             response=ResponseOption.NOTIFY_RUNNING),
        Task(id="t1", wcet=3, period=4, importance=7, line="l1",
             envelope_n=1, envelope_w=2, priority=9,
             response=ResponseOption.NOTIFY_RUNNING),
    ])


def test_restore_drops_the_runner():
    # combination 3 resumes at tick 2, where nothing arrives, from a
    # state in which t1's job 0 has a tick left; the runner when
    # combination 2 ended is t1's job 1, released at 4. Kept across the
    # restore, that job would run at 2 and t1's job 0 would miss at 4
    result = assert_sweep_matches_product(
        restored_runner_task_set(), Policy(assignment="explicit"), 5)
    assert (result.feasible, result.patterns_checked) == (False, 7)
    assert result.witness_pattern == {"t0": (0, 2, 3, 4), "t1": (0, 4)}


def test_episode_decay_picks_again():
    # t0 is elevated from its extra arrival at 2 until 5, and t1 from its
    # extra arrival at 4 until 6. From tick 5 t1's job outranks t0's
    # job 1, which then misses at 6; a runner kept across the decay
    # would complete it
    ts = TaskSet([
        Task(id="t0", wcet=3, period=3, importance=6, line="l0",
             envelope_n=3, envelope_w=2, priority=8,
             response=ResponseOption.NOTIFY_RUNNING),
        Task(id="t1", wcet=5, period=6, importance=1, line="l1",
             envelope_n=1, envelope_w=4, priority=7,
             response=ResponseOption.NOTIFY_RUNNING),
    ])
    patterns = {"t0": (0, 2, 3), "t1": (0, 4)}
    want = {("t0", 0): COMPLETED, ("t0", 1): MISSED, ("t1", 0): DROPPED}
    assert reference_verdicts(ts, explicit_priority_map(ts), patterns, 6) == want
    assert oracle_verdicts(ts, explicit_priority_map(ts), patterns, 6) == want


def test_deadline_removal_picks_again():
    # t0's job 1, released at 2, runs from 3 and misses at 5 with a tick
    # left; the processor then goes to its job 2, released at 3. A runner
    # kept across the removal would run job 1 on and finish it at 5,
    # after it left the active set
    ts = TaskSet([
        Task(id="t0", wcet=3, period=3, importance=4, line="l0",
             envelope_n=3, envelope_w=3, priority=4),
        Task(id="t1", wcet=1, period=12, importance=3, line="l1",
             envelope_n=1, envelope_w=2, priority=3),
    ])
    patterns = {"t0": (0, 2, 3, 4), "t1": (0,)}
    want = oracle_verdicts(ts, explicit_priority_map(ts), patterns, 6)
    assert want[("t0", 1)] == MISSED and want[("t0", 2)] == MISSED
    assert reference_verdicts(ts, explicit_priority_map(ts), patterns, 6) == want


def reused_flag_task_set():
    return TaskSet([
        Task(id="t0", wcet=6, period=12, importance=3, line="l0",
             envelope_n=2, envelope_w=12, priority=7,
             response=ResponseOption.NOTIFY_RUNNING),
        Task(id="t1", wcet=1, period=3, importance=0, line="l1",
             envelope_n=1, envelope_w=3, priority=10),
        Task(id="t2", wcet=1, period=3, importance=2, line="l2",
             envelope_n=1, envelope_w=2, priority=8),
    ])


def test_reused_job_is_starved_again():
    # t0's extra arrival elevates it to the horizon, and its job runs
    # through the releases of t1 and t2 at 3 and 6. In combination 7
    # t2's job 1, released at 3 in combinations 1 and 6 already, is
    # released again, flag reset, while t0's job keeps running and pick
    # would choose it again: only a new mark_starved turns its miss at 6
    # into a sanctioned drop
    result = assert_sweep_matches_product(
        reused_flag_task_set(), Policy(assignment="explicit"), 8)
    assert (result.feasible, result.patterns_checked) == (True, 8)
