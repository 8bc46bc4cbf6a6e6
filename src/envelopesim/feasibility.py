"""Schedulability checks, normal-case and under out-of-envelope arrivals.

check_normal simulates the synchronous periodic arrival pattern over one
hyperperiod and reports the first deadline miss, if any.

check_ooe_feasible asks a stronger question: does any admissible arrival
pattern lead to a genuine miss? Admissible means each task's expected
periodic arrivals all happen and an adversary adds extra events, as many
as the envelope permits. Drops of less important tasks in favor of
elevated ones are sanctioned and do not count against feasibility. The
check decides every combination of the tasks' admissible patterns, so it
only accepts toy instances: it counts the patterns first, without
building them, and anything too large raises BoundsExceeded instead of
silently sampling.

Verdicts come from one job-level tick step (_CheckerState.step) that
steps model.Jobs through the engine's own lifecycle and rules:
scheduler.release_job builds each job with its two dispatch keys,
scheduler.pick selects the job to run, scheduler.take_due removes the
jobs whose deadline has come, and the episode rule
(monitor.episode_decay) and the starvation rule (scheduler.mark_starved)
decide elevation and drops. It leaves out only what cannot matter
within the envelope, the interrupt controller, the line monitors and
the trace, which keeps it cheap. The step calls those rules only on
events: take_due at ticks where a deadline has come, the decay filter
where an episode has ended, and pick (with mark_starved for an elevated
job) after an arrival, a deadline removal, a decay, a completion or a
restore; in between, the job pick chose keeps running. The step
records no job's fate, only whether a job missed its deadline:
reference_verdicts runs it over one pattern from t=0 and then reads each
released job's fate off the job.

The sweep visits the combinations in itertools.product order (the last
task's pattern varies fastest). It holds each pattern as an int bitmask,
bit t set when an event happens at t, so the ticks at which a task's
arrivals differ between two patterns are the bits set in their XOR. The
state at the start of tick d depends only on the arrivals before d, so
each combination resumes from a snapshot at its divergence tick: the
lowest bit set in the XOR of any task whose pattern changed. The next
combination depends only on the current one, so the sweep finds its
divergence tick before stepping the current one, which then snapshots
only the ticks after its own start up to that tick. That is enough:
when a later combination resumes at d, every combination since the last
one that started before d shared its arrivals before d, and that one
snapshotted d, since its successor started at d or later, while the
ones after it snapshot only ticks after d. When the next combination
moves a task whose pattern list is not built yet, the current one
snapshots every tick instead, so the list is still built only once the
sweep gets there. A combination stops at its first MISS, which ends the
sweep.

A combination also stops once its state is settled
(_CheckerState.settled): at the start of tick s every active job falls
due past the horizon, and s + D > horizon for the shortest relative
deadline D, so every job released at s or later does too. No arrival
from s on can then miss: only take_due reports a miss, at a tick t <=
horizon for a job due by t, and a job's deadline is fixed at its
release. Settledness holds at every later tick too, so the sweep stops
at the first settled tick s after the combination's start, snapshotting
nothing from s on. A later combination that resumes at s or after shares
every arrival before s with this one, so it reaches the same settled
state at s and cannot miss: it is counted but not stepped, and the
settled tick stays. One that resumes before s is stepped and finds its
own. The snapshot argument still holds. Take the last combination that
started before a stepped combination's resume tick d: had it been
skipped, or settled by d, every combination after it up to that one
would start at or after the settled tick and be skipped too. So it was
stepped past d and snapshotted d on the way. When no deadline at all can
fall due within the horizon (D > horizon), every combination would be
settled after tick 0 and the check is vacuous (OoeCheckResult.vacuous):
such an instance is feasible with no sweep, its combinations counted
when it is within the task and horizon bounds and not counted when it
is over one, and its ticks_simulated, snapshots and patterns_built 0.

patterns_checked is the 1-based product-order index of the first
violating combination, or the number of combinations when the instance
is feasible; ticks_simulated is the number of ticks the sweep stepped,
at most patterns_checked * (horizon + 1), and excludes the ticks the
cutoff decided; snapshots counts the states it saved, the initial one
included.

Between combinations the sweep rebuilds only what changed. The state
keeps every job it released by (task id, seq, release tick), which fix
the job's keys and deadline, and a repeated release reuses that job with
its remaining time and starvation flag reset; a snapshot carries both,
so restoring it rewinds the jobs it holds. Each tick has an arrival
mask, bit i set when the task at interrupt-order position i arrives, by
which the step looks up the batch of those tasks in interrupt order; a
pattern change flips its task's bit only at the ticks set in the pattern
XOR.
Each task's pattern list starts as its normal pattern, the enumeration's
first, and the sweep builds the full list only when the task's slot
first advances, so a sweep that stops early builds few patterns;
patterns_built counts those it holds at the end.

The violating combination is confirmed by a reference_verdicts run from
t=0 and replayed through the full engine, a plain Engine that validates
its scenario like any other run, to produce the witness trace; both must
show the miss. An independent re-implementation of the rules,
the product loop that simulated every combination from t=0, and the
enumeration that built each pattern as a tuple of event times, the
oracles the tests compare against, live in tests/support.py.
"""

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (
    COMPLETE,
    DROP,
    Engine,
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
    Task,
    TaskSet,
    hyperperiod,
    interrupt_order,
)
from .monitor import episode_decay
from .scheduler import mark_starved, notified_job, pick, release_job, take_due

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
    # the 1-based product-order index of the violating combination, or
    # the number of combinations when feasible; 0 for a vacuous instance
    # over max_tasks or max_horizon, decided without counting them
    patterns_checked: int
    horizon: int
    witness_pattern: Optional[Dict[str, Tuple[int, ...]]] = None
    witness_verdicts: Optional[Dict[Tuple[str, int], str]] = None
    witness_trace: Optional[Trace] = None
    ticks_simulated: int = 0
    patterns_built: int = 0
    snapshots: int = 0
    # no deadline falls due within the horizon, so no pattern can miss one
    vacuous: bool = False


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
    can only add to them. The normal pattern itself comes first; the rest
    follow in the depth-first order of _admissible_masks, which builds
    each pattern as a bitmask that this converts to a tuple.

    Returns an empty list when even the normal pattern breaches the
    envelope (a self-contradictory task definition). A task that
    model.validate_task_set refuses alone is refused with a
    ScenarioError, through the engine's scenario validation; its
    job_priority_overrides, which the patterns do not read and whose
    keys its task set's hyperperiod ranges, are left out."""
    if isinstance(task, Task):
        task = replace(task, job_priority_overrides={})
    _validate_scenario(Scenario(task_set=TaskSet([task])))
    return [_times_of(mask) for mask in _admissible_masks(task, horizon)]


def _mask_of(times: Sequence[int]) -> int:
    """A pattern as a bitmask: bit t is set when an event happens at t."""
    return sum(1 << t for t in times)


def _times_of(mask: int) -> Tuple[int, ...]:
    """The event times of a pattern bitmask, in ascending order."""
    return tuple(t for t in range(mask.bit_length()) if mask >> t & 1)


def _admissible_masks(task: Task, horizon: int) -> List[int]:
    """admissible_patterns(task, horizon) as bitmasks. Tick by tick, each
    partial pattern in turn skips the tick (unless a normal arrival falls
    there), then picks it (if its window has room): depth-first order."""
    n, w = task.envelope_n, task.envelope_w
    mandatory = _mask_of(normal_pattern(task, horizon))
    masks = [0]
    for t in range(horizon):
        # the events in (t-W, t) share a window with one at t
        older = max(t + 1 - w, 0)
        # no pattern omits an expected arrival, so a partial pattern
        # where one cannot fit dies here
        skippable = not mandatory >> t & 1
        grown: List[int] = []
        for mask in masks:
            if skippable:
                grown.append(mask)
            if (mask >> older).bit_count() < n:
                grown.append(mask | 1 << t)
        masks = grown
    return masks


def count_admissible_patterns(task: Task, horizon: int) -> int:
    """len(admissible_patterns(task, horizon)), without building a pattern.

    A count over the ticks whose state is what a later envelope test can
    still see of the events chosen so far: how many lie at or after
    horizon - W, inside every later window, and the times of the others
    that are still inside the current window. So at most
    min(W, horizon - W) event times are ever tracked."""
    n, w = task.envelope_n, task.envelope_w
    mandatory = _mask_of(normal_pattern(task, horizon))
    lasting = max(horizon - w, 0)
    recent = (1 << lasting) - 1
    # a state is one int: a bitmask of the times of the events chosen
    # before `lasting` still inside the window, plus the number of the
    # later ones shifted above it; it maps to its number of prefixes
    states: Dict[int, int] = {0: 1}
    for t in range(horizon):
        kept = ~((1 << max(t + 1 - w, 0)) - 1)
        skippable = not mandatory >> t & 1
        grown: Dict[int, int] = {}
        for state, ways in states.items():
            state &= kept
            if skippable:
                grown[state] = grown.get(state, 0) + ways
            if (state >> lasting) + (state & recent).bit_count() < n:
                state += 1 << (lasting if t >= lasting else t)
                grown[state] = grown.get(state, 0) + ways
        states = grown
    return sum(states.values())


def check_normal(task_set: TaskSet,
                 policy: Optional[Policy] = None) -> NormalCheckResult:
    """Simulate synchronous periodic arrivals over one hyperperiod and
    report the first deadline miss. The task set and policy go through
    the engine's intake before the hyperperiod is derived from them: an
    invalid one is refused with a ScenarioError."""
    policy = policy if policy is not None else Policy()
    _validate_scenario(Scenario(task_set=task_set, policy=policy))
    horizon = hyperperiod(task_set)
    workload = [(t.line, Periodic(0, int(t.period)))
                for t in task_set if not t.exception_only]
    trace, metrics = run_scenario(
        Scenario(task_set, policy, workload, horizon))
    witness = next(((r.task, r.job, r.time) for r in trace.of_kind(MISS)),
                   None)
    return NormalCheckResult(feasible=witness is None, horizon=horizon,
                             witness=witness, trace=trace, metrics=metrics)


class _CheckerState:
    """The checker's simulation state at the start of a tick: pending
    top-half kernel time, the active jobs, the live out-of-envelope
    episodes (decay time by task id), and each task's last arrival and
    next sequence number.

    Within the envelope no defense mask ever suppresses an event (a raise
    landing inside a masked span would be the n+1st event of one window),
    so internalization happens at raise time and the only moving parts
    are releases, the out-of-envelope episodes, two-band dispatch,
    top-half kernel time, and deadline finalization.

    The step records no job's fate: a job it finalizes leaves active
    with its remaining time and starvation flag as they were, and
    reference_verdicts reads the fate off those.

    The step scans only on events. due is the earliest active deadline
    and decays the earliest episode decay, so take_due and the decay
    filter run only at ticks where a job or an episode is due; a snapshot
    carries both. runner is the job pick chose, kept until an arrival, a
    deadline removal, a decay, a completion or a restore changes the
    active set, the elevated set or the starvation flags (which only a
    reused release and a restore reset). While it is kept, pick would
    choose it again and mark_starved would set the flags it set when the
    job was chosen, so neither runs.
    """

    def __init__(self, task_set: TaskSet, pmap: PriorityMap, horizon: int,
                 delta_th: int):
        self.tasks = {t.id: t for t in task_set}
        self.pmap = pmap
        self.horizon = horizon
        self.delta_th = delta_th
        self.kernel = 0
        self.active: List[Job] = []
        # step replaces these three dicts instead of changing them, so a
        # snapshot can share them
        self.episodes: Dict[str, float] = {}
        self.last: Dict[str, int] = {}
        self.seqs: Dict[str, int] = {t.id: 0 for t in task_set}
        # the earliest active deadline and episode decay, and the job
        # pick chose (None: pick again)
        self.due: float = math.inf
        self.decays: float = math.inf
        self.runner: Optional[Job] = None
        # every job released so far, by (task id, seq, release tick)
        self.released: Dict[Tuple[str, int, int], Job] = {}
        # a job released at this tick or later falls due past the horizon
        self.late = horizon + 1 - min(t.deadline for t in task_set)

    def settled(self, s: int) -> bool:
        """Whether no job can miss its deadline from the start of tick s
        on, whatever arrives from s: every active job, and every job
        released at s or later, falls due past the horizon."""
        return s >= self.late and self.due > self.horizon

    def snapshot(self) -> tuple:
        return (self.kernel, self.episodes, self.last, self.seqs, self.due,
                self.decays,
                [(j, j.remaining, j.starved_by_elevated)
                 for j in self.active])

    def restore(self, snap: tuple) -> None:
        (self.kernel, self.episodes, self.last, self.seqs, self.due,
         self.decays, jobs) = snap
        self.runner = None
        self.active = active = []
        for job, remaining, starved in jobs:
            job.remaining = remaining
            job.starved_by_elevated = starved
            active.append(job)

    def step(self, t: int, batch: Sequence[Task]) -> bool:
        """Advance over tick t: live episodes decay, the tasks in batch
        arrive in that order, jobs whose deadline has come are finalized,
        and below the horizon the processor serves one tick of kernel
        time or of the job pick selects. Returns whether a job
        missed its deadline at t."""
        episodes = self.episodes
        if self.decays <= t:
            episodes = self.episodes = {
                tid: decay for tid, decay in episodes.items() if t < decay
            }
            self.decays = min(episodes.values(), default=math.inf)
            self.runner = None
        active = self.active
        if batch:
            tasks, pmap = self.tasks, self.pmap
            episodes = self.episodes = dict(episodes)
            last = self.last = dict(self.last)
            seqs = self.seqs = dict(self.seqs)
            for task in batch:
                tid = task.id
                decay = episode_decay(last.get(tid), t, task.period,
                                      task.envelope_w)
                if decay is None:
                    episodes.pop(tid, None)
                else:
                    episodes[tid] = decay
                last[tid] = t
                self.kernel += self.delta_th
                if notified_job(task, active) is not None:
                    continue
                seq = seqs[tid]
                seqs[tid] = seq + 1
                job = self.released.get((tid, seq, t))
                if job is None:
                    job = self.released[tid, seq, t] = release_job(
                        task, seq, t, tasks, pmap)
                else:
                    job.remaining = task.wcet
                    job.starved_by_elevated = False
                active.append(job)
                if job.abs_deadline < self.due:
                    self.due = job.abs_deadline
            self.decays = min(episodes.values(), default=math.inf)
            self.runner = None
        missed = False
        if self.due <= t:
            due = take_due(active, t)
            self.due = min([j.abs_deadline for j in active],
                           default=math.inf)
            self.runner = None
            for job in due:
                if not job.starved_by_elevated:
                    missed = True
        if t >= self.horizon:
            return missed
        if self.kernel:
            self.kernel -= 1
            return missed
        job = self.runner
        if job is None:
            job = pick(active, episodes)
            if job is None:
                return missed
            self.runner = job
            if job.task_id in episodes:
                mark_starved(job, active, self.tasks)
        job.remaining -= 1
        if job.remaining == 0:
            active.remove(job)
            self.runner = None
            if job.abs_deadline == self.due:
                self.due = min([j.abs_deadline for j in active],
                               default=math.inf)
        return missed


def reference_verdicts(
    task_set: TaskSet,
    pmap: PriorityMap,
    patterns: Dict[str, Tuple[int, ...]],
    horizon: int,
    delta_th: int = 0,
) -> Dict[Tuple[str, int], str]:
    """Job verdicts for one arrival pattern, computed without the engine:
    the checker's step over ticks 0..horizon from the initial state, then
    each released job's fate read off the job. One still active is
    incomplete; a finished one completed; any other was finalized at its
    deadline, dropped when an elevated job starved it, else missed."""
    state = _CheckerState(task_set, pmap, horizon, delta_th)
    arrivals: Dict[int, List[Task]] = {}
    for task in interrupt_order(task_set):
        for t in patterns.get(task.id, ()):
            if t < horizon:
                arrivals.setdefault(t, []).append(task)
    for t in range(horizon + 1):
        state.step(t, arrivals.get(t, ()))
    return {
        (job.task_id, job.seq): INCOMPLETE if job in state.active
        else COMPLETED if job.remaining == 0
        else DROPPED if job.starved_by_elevated
        else MISSED
        for job in state.released.values()
    }


def _sweep(
    task_set: TaskSet,
    pmap: PriorityMap,
    counts: List[int],
    horizon: int,
    delta_th: int,
) -> Tuple[int, int, int, int, Optional[List[Tuple[int, ...]]]]:
    """Step every combination of the tasks' admissible patterns, of which
    task i has counts[i] > 0, in product order, each from the snapshot at
    its divergence tick up to its first settled tick, until one misses a
    deadline; a combination that resumes at or after the last settled
    tick is not stepped. The patterns are bitmasks from
    _admissible_masks. Returns the combinations checked,
    the ticks stepped, the snapshots taken, the patterns built, and the
    violating combination as event-time tuples (None when there is
    none)."""
    tasks = list(task_set)
    state = _CheckerState(task_set, pmap, horizon, delta_th)
    order = interrupt_order(task_set)
    # each product slot's bit in an arrival mask: its task's position in
    # interrupt order
    bit = [1 << order.index(task) for task in tasks]
    # the batch of each arrival mask: its tasks in interrupt order. The
    # masks below 1 << i hold only earlier tasks, so order[i] goes last
    batch_of: List[Tuple[Task, ...]] = [()]
    for task in order:
        batch_of += [batch + (task,) for batch in batch_of]
    # a list's first pattern is the normal one; the rest of the list is
    # built when its slot first advances
    per_task = [[_mask_of(normal_pattern(task, horizon))] for task in tasks]
    idx = [0] * len(tasks)
    # each tick's arrival mask
    arrivals = [0] * (horizon + 1)

    def arrive_at(i: int, changed: int) -> None:
        """Flip slot i's arrival at every tick set in changed."""
        while changed:
            t = (changed & -changed).bit_length() - 1
            changed &= changed - 1
            arrivals[t] ^= bit[i]

    def successor(j: int) -> Tuple[int, List[Tuple[int, int, int]]]:
        """The next combination, where slot j advances and every slot
        after it wraps to its first pattern: its divergence tick, the
        lowest bit set in any changed slot's old ^ new, and for each
        such slot (slot, index, old ^ new)."""
        changes, moves = 0, []
        for i in range(j, len(idx)):
            k = idx[i] + 1 if i == j else 0
            changed = per_task[i][idx[i]] ^ per_task[i][k]
            if changed:
                changes |= changed
                moves.append((i, k, changed))
        return (changes & -changes).bit_length() - 1, moves

    for i, options in enumerate(per_task):
        arrive_at(i, options[0])
    snaps = [state.snapshot()] + [None] * horizon
    start = checked = ticks = 0
    taken = 1
    # the tick from which the last combination stepped is settled
    safe = horizon + 1
    while True:
        checked += 1
        # the rightmost slot that can advance; the next combination
        # resumes at its divergence tick, so this one snapshots only the
        # ticks up to it, or every tick when slot j has no list yet
        j = len(idx) - 1
        while j >= 0 and idx[j] == counts[j] - 1:
            j -= 1
        if j < 0:
            until = start
        elif len(per_task[j]) < counts[j]:
            until = horizon
        else:
            resume, moves = successor(j)
            until = resume
        # a combination that starts at or after safe shares the arrivals
        # before safe with the last one stepped, so it is settled there
        # too and cannot miss: it is counted but not stepped
        if start < safe:
            state.restore(snaps[start])
            # after tick horizon every job left falls due past it, so
            # the loop always ends at a settled tick
            for t in range(start, horizon + 1):
                if state.step(t, batch_of[arrivals[t]]):
                    return (checked, ticks + t - start + 1, taken,
                            sum(map(len, per_task)),
                            [_times_of(options[i])
                             for options, i in zip(per_task, idx)])
                if state.settled(t + 1):
                    break
                if t < until:
                    snaps[t + 1] = state.snapshot()
                    taken += 1
            safe = t + 1
            ticks += safe - start
        if j < 0:
            return checked, ticks, taken, sum(map(len, per_task)), None
        if len(per_task[j]) < counts[j]:
            per_task[j] = _admissible_masks(tasks[j], horizon)
            resume, moves = successor(j)
        start = resume
        for i, k, changed in moves:
            idx[i] = k
            arrive_at(i, changed)


# each job's verdict from the last of its records of these kinds
_VERDICT_OF_KIND = {
    RELEASE: INCOMPLETE,
    COMPLETE: COMPLETED,
    MISS: MISSED,
    DROP: DROPPED,
}


def engine_verdicts(
    task_set: TaskSet,
    policy: Policy,
    patterns: Dict[str, Tuple[int, ...]],
    horizon: int,
) -> Tuple[Dict[Tuple[str, int], str], Trace]:
    """Replay one arrival pattern through the full engine and classify
    every released job from the trace. The replay is a plain engine run:
    the scenario it builds is validated like any other, and an invalid
    one raises ScenarioError."""
    tasks = {t.id: t for t in task_set}
    workload = [
        (tasks[tid].line, Explicit(times=tuple(times)))
        for tid, times in patterns.items()
    ]
    scenario = Scenario(
        task_set=task_set, policy=policy, workload=workload, horizon=horizon
    )
    trace, _ = Engine(scenario).run()
    verdicts = {(rec.task, rec.job): _VERDICT_OF_KIND[rec.kind]
                for rec in trace.of_kind(*_VERDICT_OF_KIND)}
    return verdicts, trace


def _normalized_policy(policy: Policy) -> Policy:
    """The feasibility question is about arrival patterns, therefore the
    deferral optimizations are switched off for the check. Top-half cost
    stays, it is load rather than an optimization."""
    return replace(policy, ipl_optimization=False, mask_until_bottom_half=False)


def check_ooe_feasible(
    task_set: TaskSet,
    policy: Optional[Policy] = None,
    horizon: Optional[int] = None,
    bounds: EnumerationBounds = EnumerationBounds(),
) -> OoeCheckResult:
    """Exhaustively decide whether every admissible arrival pattern meets
    all deadlines, sanctioned drops aside.

    Raises ScenarioError when the task set, policy or horizon is invalid,
    a field of the wrong type included, as the engine would refuse it;
    the policy is checked as given, before the deferral optimizations are
    switched off. Raises BoundsExceeded when the instance is too large to
    enumerate; the pattern count is checked before any pattern is built.
    A vacuous instance (see OoeCheckResult.vacuous) is feasible whatever
    its size and is decided without the sweep: over max_tasks or
    max_horizon without a pattern count.
    On a violation the witness pattern is replayed through the full
    engine; the resulting trace is attached to the verdict.
    """
    policy = policy if policy is not None else Policy()
    _validate_scenario(
        Scenario(task_set=task_set, policy=policy, horizon=horizon)
    )
    policy = _normalized_policy(policy)
    if horizon is None:
        horizon = hyperperiod(task_set)
    pmap = select_priority_map(task_set, policy)
    vacuous = _CheckerState(task_set, pmap, horizon,
                            policy.delta_th).settled(0)
    if len(task_set) > bounds.max_tasks:
        refusal = (f"{len(task_set)} tasks exceed the enumeration bound "
                   f"of {bounds.max_tasks}")
    elif horizon > bounds.max_horizon:
        refusal = (f"horizon {horizon} exceeds the enumeration bound of "
                   f"{bounds.max_horizon}")
    else:
        refusal = None
    if refusal is not None:
        if not vacuous:
            raise BoundsExceeded(refusal)
        # no pattern can miss a deadline. Counting the combinations costs
        # horizon times the states, unbounded here, and is not needed to
        # see that the normal pattern fits: a task's deadline, at most
        # its period, lies past the horizon, so it arrives at most once
        return OoeCheckResult(feasible=True, patterns_checked=0,
                              horizon=horizon, vacuous=True)
    counts = [count_admissible_patterns(t, horizon) for t in task_set]
    for task, count in zip(task_set, counts):
        if not count:
            raise FeasibilityError(
                f"task {task.id}: the normal arrival pattern already "
                f"breaches envelope ({task.envelope_n}, {task.envelope_w})"
            )
    total = math.prod(counts)
    if vacuous:  # the sweep would count every combination, feasible
        return OoeCheckResult(feasible=True, patterns_checked=total,
                              horizon=horizon, vacuous=True)
    if total > bounds.max_patterns:
        raise BoundsExceeded(
            f"{total} pattern combinations exceed the enumeration bound "
            f"of {bounds.max_patterns}"
        )
    checked, ticks, snapshots, built, witness = _sweep(
        task_set, pmap, counts, horizon, policy.delta_th
    )
    result = OoeCheckResult(
        feasible=witness is None, patterns_checked=checked, horizon=horizon,
        ticks_simulated=ticks, patterns_built=built, snapshots=snapshots,
    )
    if witness is None:
        return result
    patterns = dict(zip([t.id for t in task_set], witness))
    verdicts = reference_verdicts(
        task_set, pmap, patterns, horizon, policy.delta_th
    )
    if MISSED not in verdicts.values():
        raise FeasibilityError(
            f"the sweep reports a miss for pattern {patterns} but a run "
            f"from t=0 does not"
        )
    engine_view, trace = engine_verdicts(task_set, policy, patterns, horizon)
    if MISSED not in engine_view.values():
        raise FeasibilityError(
            f"reference simulator reports a miss for pattern "
            f"{patterns} but the engine replay does not"
        )
    result.witness_pattern = patterns
    result.witness_verdicts = engine_view
    result.witness_trace = trace
    return result
