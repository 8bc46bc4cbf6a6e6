"""Schedulability checks, normal-case and under out-of-envelope arrivals.

check_normal simulates the synchronous periodic arrival pattern over one
hyperperiod and reports the first deadline miss, if any.

check_ooe_feasible asks a stronger question: does any admissible arrival
pattern lead to a genuine miss? Admissible means each task's expected
periodic arrivals all happen and an adversary adds extra events, as many
as the envelope permits. Drops of less important tasks in favor of
elevated ones are sanctioned and do not count against feasibility. The
check enumerates every admissible pattern combination exhaustively, so it
only accepts toy instances; anything larger raises BoundsExceeded instead
of silently sampling.

Verdicts inside the enumeration come from reference_verdicts, a
job-level tick loop that calls the engine's own rule functions: the
episode rule (monitor.episode_decay), the dispatch key
(scheduler.dispatch_key) and the starvation rule (scheduler.mark_starved).
It leaves out only what cannot matter within the envelope, the interrupt
controller, the line monitors and the trace, which keeps the inner loop
cheap. A violating pattern is always replayed through the full engine to
produce the witness trace, and the replay must reproduce the miss. An
independent re-implementation of the rules, the oracle the tests compare
both routes against, lives in tests/support.py.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .engine import (
    COMPLETE,
    DROP,
    Explicit,
    MISS,
    Metrics,
    Periodic,
    Policy,
    RELEASE,
    Scenario,
    Trace,
    _validate_scenario,
    run_scenario,
    select_priority_map,
)
from .model import (
    Job,
    PriorityMap,
    ResponseOption,
    Task,
    TaskSet,
    hyperperiod,
)
from .monitor import episode_decay
from .scheduler import dispatch_key, mark_starved

COMPLETED = "completed"
MISSED = "missed"
DROPPED = "dropped"
INCOMPLETE = "incomplete"


class FeasibilityError(Exception):
    pass


class BoundsExceeded(Exception):
    """The instance is too large for exhaustive pattern enumeration."""


@dataclass(frozen=True)
class EnumerationBounds:
    max_tasks: int = 3
    max_horizon: int = 24
    max_patterns: int = 1_000_000


@dataclass
class NormalCheckResult:
    feasible: bool
    horizon: int
    witness: Optional[Tuple[str, int, int]]  # (task, seq, miss time)
    trace: Trace
    metrics: Metrics


@dataclass
class OoeCheckResult:
    feasible: bool
    patterns_checked: int
    horizon: int
    witness_pattern: Optional[Dict[str, Tuple[int, ...]]] = None
    witness_verdicts: Optional[Dict[Tuple[str, int], str]] = None
    witness_trace: Optional[Trace] = None


def normal_pattern(task: Task, horizon: int) -> Tuple[int, ...]:
    """The expected arrival pattern: synchronous periodic releases, or no
    events at all for exception-only tasks."""
    if task.exception_only:
        return ()
    return tuple(range(0, horizon, int(task.period)))


def admissible_patterns(task: Task, horizon: int) -> List[Tuple[int, ...]]:
    """Every event-time tuple over [0, horizon) that contains the task's
    normal arrivals and stays within the envelope: at most n events in
    any window (t-W, t]. The expected events always happen; an adversary
    can only add to them. The normal pattern itself comes first.

    Returns an empty list when even the normal pattern breaches the
    envelope (a self-contradictory task definition)."""
    n, w = task.envelope_n, task.envelope_w
    mandatory = frozenset(normal_pattern(task, horizon))
    out: List[Tuple[int, ...]] = []
    chosen: List[int] = []

    def admits(t: int) -> bool:
        inside = 1 + sum(1 for s in chosen if s > t - w)
        return inside <= n

    def grow(t: int) -> None:
        if t == horizon:
            out.append(tuple(chosen))
            return
        if t in mandatory:
            # no pattern omits an expected arrival; a branch where it
            # cannot fit dies here
            if admits(t):
                chosen.append(t)
                grow(t + 1)
                chosen.pop()
            return
        grow(t + 1)
        if admits(t):
            chosen.append(t)
            grow(t + 1)
            chosen.pop()

    grow(0)
    return out


def check_normal(task_set: TaskSet,
                 policy: Optional[Policy] = None) -> NormalCheckResult:
    """Simulate synchronous periodic arrivals over one hyperperiod and
    report the first deadline miss."""
    policy = policy if policy is not None else Policy()
    horizon = hyperperiod(task_set)
    workload = [
        (t.line, Periodic(offset=0, period=int(t.period)))
        for t in task_set
        if not t.exception_only
    ]
    scenario = Scenario(
        task_set=task_set, policy=policy, workload=workload, horizon=horizon
    )
    trace, metrics = run_scenario(scenario)
    witness = None
    for rec in trace.of_kind(MISS):
        witness = (rec.task, rec.job, rec.time)
        break
    return NormalCheckResult(
        feasible=witness is None,
        horizon=horizon,
        witness=witness,
        trace=trace,
        metrics=metrics,
    )


def reference_verdicts(
    task_set: TaskSet,
    pmap: PriorityMap,
    patterns: Dict[str, Tuple[int, ...]],
    horizon: int,
    delta_th: int = 0,
) -> Dict[Tuple[str, int], str]:
    """Job verdicts for one arrival pattern, computed without the engine.

    Within the envelope no defense mask ever suppresses an event (a raise
    landing inside a masked span would be the n+1st event of one window),
    so internalization happens at raise time and the only moving parts
    are releases, the out-of-envelope episodes, two-band dispatch,
    top-half kernel time, and deadline finalization.
    """
    tasks = {t.id: t for t in task_set}
    arrivals: Dict[int, List[Task]] = {}
    for tid, times in patterns.items():
        for t in times:
            arrivals.setdefault(t, []).append(tasks[tid])
    verdicts: Dict[Tuple[str, int], str] = {}
    seqs = {t.id: 0 for t in task_set}
    last: Dict[str, Optional[int]] = {t.id: None for t in task_set}
    # the elevated tasks: decay time of each live episode, by task id
    episodes: Dict[str, float] = {}
    active: List[Job] = []
    kernel = 0

    def key(job: Job):
        return dispatch_key(job, episodes, tasks, pmap)

    for t in range(horizon + 1):
        for tid in [tid for tid, decay in episodes.items() if t >= decay]:
            del episodes[tid]
        if t < horizon:
            batch = sorted(
                arrivals.get(t, ()), key=lambda tk: (-tk.importance, tk.line)
            )
            for task in batch:
                decay = episode_decay(last[task.id], t, task.period,
                                      task.envelope_w)
                if decay is None:
                    episodes.pop(task.id, None)
                else:
                    episodes[task.id] = decay
                last[task.id] = t
                kernel += delta_th
                if task.response is ResponseOption.NOTIFY_RUNNING and any(
                    j.task_id == task.id for j in active
                ):
                    continue
                seq = seqs[task.id]
                seqs[task.id] = seq + 1
                active.append(Job(task.id, seq, t, t + task.deadline,
                                  task.wcet, task.wcet))
        for job in sorted(
            [j for j in active if j.abs_deadline <= t and j.remaining > 0],
            key=lambda j: (j.task_id, j.seq),
        ):
            verdicts[(job.task_id, job.seq)] = (
                DROPPED if job.starved_by_elevated else MISSED
            )
            active.remove(job)
        if t >= horizon:
            break
        if kernel > 0:
            kernel -= 1
            continue
        if not active:
            continue
        job = min(active, key=key)
        job.remaining -= 1
        if job.task_id in episodes:
            mark_starved(job, active, tasks)
        if job.remaining == 0:
            verdicts[(job.task_id, job.seq)] = COMPLETED
            active.remove(job)
    for job in active:
        verdicts[(job.task_id, job.seq)] = INCOMPLETE
    return verdicts


def engine_verdicts(
    task_set: TaskSet,
    policy: Policy,
    patterns: Dict[str, Tuple[int, ...]],
    horizon: int,
) -> Tuple[Dict[Tuple[str, int], str], Trace]:
    """Replay one arrival pattern through the full engine and classify
    every released job from the trace."""
    tasks = {t.id: t for t in task_set}
    workload = [
        (tasks[tid].line, Explicit(times=tuple(times)))
        for tid, times in patterns.items()
    ]
    scenario = Scenario(
        task_set=task_set, policy=policy, workload=workload, horizon=horizon
    )
    trace, _ = run_scenario(scenario)
    verdicts: Dict[Tuple[str, int], str] = {}
    for rec in trace.records:
        if rec.kind == RELEASE:
            verdicts[(rec.task, rec.job)] = INCOMPLETE
        elif rec.kind == COMPLETE:
            verdicts[(rec.task, rec.job)] = COMPLETED
        elif rec.kind == MISS:
            verdicts[(rec.task, rec.job)] = MISSED
        elif rec.kind == DROP:
            verdicts[(rec.task, rec.job)] = DROPPED
    return verdicts, trace


def _normalized_policy(policy: Optional[Policy]) -> Policy:
    """The feasibility question is about arrival patterns, therefore the
    deferral optimizations are switched off for the check. Top-half cost
    stays, it is load rather than an optimization."""
    policy = policy if policy is not None else Policy()
    return replace(policy, ipl_optimization=False, mask_until_bottom_half=False)


def check_ooe_feasible(
    task_set: TaskSet,
    policy: Optional[Policy] = None,
    horizon: Optional[int] = None,
    bounds: EnumerationBounds = EnumerationBounds(),
) -> OoeCheckResult:
    """Exhaustively decide whether every admissible arrival pattern meets
    all deadlines, sanctioned drops aside.

    Raises ScenarioError when the task set or policy is invalid, and
    BoundsExceeded when the instance is too large to enumerate.
    On a violation the witness pattern is replayed through the full
    engine; the resulting trace is attached to the verdict.
    """
    policy = _normalized_policy(policy)
    _validate_scenario(
        Scenario(task_set=task_set, policy=policy, horizon=horizon)
    )
    if horizon is None:
        horizon = hyperperiod(task_set)
    if len(task_set) > bounds.max_tasks:
        raise BoundsExceeded(
            f"{len(task_set)} tasks exceed the enumeration bound of "
            f"{bounds.max_tasks}"
        )
    if horizon > bounds.max_horizon:
        raise BoundsExceeded(
            f"horizon {horizon} exceeds the enumeration bound of "
            f"{bounds.max_horizon}"
        )
    pmap = select_priority_map(task_set, policy)
    task_ids = [t.id for t in task_set]
    per_task = [admissible_patterns(t, horizon) for t in task_set]
    for task, options in zip(task_set, per_task):
        if not options:
            raise FeasibilityError(
                f"task {task.id}: the normal arrival pattern already "
                f"breaches envelope ({task.envelope_n}, {task.envelope_w})"
            )
    total = 1
    for options in per_task:
        total *= len(options)
    if total > bounds.max_patterns:
        raise BoundsExceeded(
            f"{total} pattern combinations exceed the enumeration bound "
            f"of {bounds.max_patterns}"
        )
    checked = 0
    for combo in itertools.product(*per_task):
        checked += 1
        patterns = dict(zip(task_ids, combo))
        verdicts = reference_verdicts(
            task_set, pmap, patterns, horizon, policy.delta_th
        )
        if MISSED not in verdicts.values():
            continue
        engine_view, trace = engine_verdicts(
            task_set, policy, patterns, horizon
        )
        if MISSED not in engine_view.values():
            raise FeasibilityError(
                f"reference simulator reports a miss for pattern "
                f"{patterns} but the engine replay does not"
            )
        return OoeCheckResult(
            feasible=False,
            patterns_checked=checked,
            horizon=horizon,
            witness_pattern=patterns,
            witness_verdicts=engine_view,
            witness_trace=trace,
        )
    return OoeCheckResult(
        feasible=True, patterns_checked=checked, horizon=horizon
    )
