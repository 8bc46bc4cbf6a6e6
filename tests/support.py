"""Shared oracles and generators for the test suite.

The window oracle, the conservation counts and the verdict oracle are
deliberately naive, independent re-implementations; the tick engine
drives the engine's own phases through every tick, as the engine did
before next-event time advance, and raises every occurrence through its
own raise_event call with fresh records, as the engine did before it
took a line's raises at a tick as one run; the full-scan set_ipl walks
every line on a level change, as the controller did before it walked
only the band between the old and the new level; the confirming engine follows every
schedule-point round that changed anything with one more and polls every
monitor and line priority in each, as the engine did before it stopped
at the first round without a backfill and kept that state from events,
and computes the level by scanning every line, as compute_ipl did before
it bisected an index;
the workload oracles expand each spec kind by its own ladder, and count
its raises by a second one, as the engine did before every spec became
one (count, ticks) source; the product check simulates every pattern
combination from t=0, as
the checker did before it shared prefixes, over patterns that the
pattern oracle builds as tuples of event times, as the checker did
before it held them as bitmasks; the reference parser
checks every scenario key by hand, as the CLI did before it read each
object through its dataclass fields; and the output oracles write the
trace through csv.writer and the metrics through json.dumps, as the
engine did before it wrote both directly. Tests compare the engine, the
checker, the parser and the writers against them.
"""

import csv
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from envelopesim import (
    INFINITE_PERIOD,
    Burst,
    Engine,
    EngineError,
    Explicit,
    FaultPolicy,
    Periodic,
    Policy,
    PriorityMap,
    ResponseOption,
    Scenario,
    ScenarioError,
    RaiseOutcome,
    Sporadic,
    Storm,
    Task,
    TaskSet,
    hyperperiod,
)
from envelopesim.engine import (
    CSV_HEADER,
    select_priority_map,
)
from envelopesim.feasibility import (
    COMPLETED,
    DROPPED,
    INCOMPLETE,
    MISSED,
    count_admissible_patterns,
    normal_pattern,
)
from envelopesim.model import interrupt_order


def csv_oracle(trace) -> str:
    """The trace CSV as csv.writer writes it, quoting as QUOTE_MINIMAL
    does."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(trace.records)
    return buf.getvalue()


def json_oracle(metrics) -> str:
    """The metrics JSON as json.dumps writes it."""
    return json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"


def _sha256(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    return hashlib.sha256(text).hexdigest()


def assert_same_text(got, expected) -> None:
    """assert got == expected for two texts, str or bytes, that may run to
    megabytes, failing at once: pytest's diff of two such texts takes
    minutes. Compares their sha256 digests first, then, only when those
    agree, the texts themselves, so it fails on exactly the inputs ==
    fails on (a str never equals a bytes). The failure names the digests,
    the lengths and the first differing line, not the texts."""
    digests = _sha256(got), _sha256(expected)
    if digests[0] == digests[1] and got == expected:
        return
    head = (f"texts differ: sha256 {digests[0][:16]} and {digests[1][:16]}, "
            f"{len(got)} and {len(expected)} long")
    if type(got) is not type(expected):
        raise AssertionError(f"{head}; a {type(got).__name__} is not a "
                             f"{type(expected).__name__}")
    newline = "\n" if isinstance(got, str) else b"\n"
    lines, want = got.split(newline), expected.split(newline)
    i = next((i for i, pair in enumerate(zip(lines, want))
              if pair[0] != pair[1]), min(len(lines), len(want)))
    shown = [repr(side[i])[:200] if i < len(side) else "no such line"
             for side in (lines, want)]
    raise AssertionError(f"{head}; first at line {i + 1}: {shown[0]} != "
                         f"{shown[1]}")


def window_violations(timestamps, n, w):
    """Brute-force sliding-window check: for every event time t, count
    events in (t - w, t]. Returns the violating (t, count) pairs."""
    out = []
    for t in timestamps:
        count = sum(1 for s in timestamps if t - w < s <= t)
        if count > n:
            out.append((t, count))
    return out


def internalize_timestamps(trace, line):
    """Assigned timestamps of every INTERNALIZE record on a line."""
    out = []
    for rec in trace.of_kind("INTERNALIZE", line=line):
        ts_field = rec.detail.split(";")[0]
        assert ts_field.startswith("ts=")
        out.append(int(ts_field[3:]))
    return out


def conservation_counts(trace, line):
    """(raised, internalized, counter_only) for one line, from the trace."""
    raised = len(trace.of_kind("RAISE", line=line))
    internalized = trace.of_kind("INTERNALIZE", line=line)
    suppressed = len(trace.of_kind("SUPPRESS", line=line))
    deferred = sum(1 for r in internalized if ";deferred" in r.detail)
    return raised, len(internalized), suppressed - deferred


@dataclass
class _RefJob:
    task_id: str
    seq: int
    release: int
    deadline: int
    remaining: int
    starved: bool = False


def oracle_verdicts(
    task_set: TaskSet,
    pmap: PriorityMap,
    patterns: Dict[str, Tuple[int, ...]],
    horizon: int,
    delta_th: int = 0,
    dues: Optional[List[float]] = None,
) -> Dict[Tuple[str, int], str]:
    """Job verdicts for one arrival pattern, computed without the engine
    or its rule functions (the checker's inner loop before it shared
    them, kept as an independent oracle). A list given as dues receives
    the earliest deadline among the active jobs at the start of each
    tick 0..horizon, inf when none is active.

    Within the envelope no defense mask ever suppresses an event (a raise
    landing inside a masked span would be the n+1st event of one window),
    so internalization happens at raise time and the only moving parts
    are releases, the out-of-envelope episode predicate, two-band
    dispatch, top-half kernel time, and deadline finalization.
    """
    tasks = {t.id: t for t in task_set}
    arrivals: Dict[int, List[Task]] = {}
    for tid, times in patterns.items():
        for t in times:
            arrivals.setdefault(t, []).append(tasks[tid])
    verdicts: Dict[Tuple[str, int], str] = {}
    seqs = {t.id: 0 for t in task_set}
    last: Dict[str, Optional[int]] = {t.id: None for t in task_set}
    ooe = {t.id: False for t in task_set}
    decay_at: Dict[str, Optional[float]] = {t.id: None for t in task_set}
    active: List[_RefJob] = []
    kernel = 0

    def elevated(tid: str, t: int) -> bool:
        return ooe[tid] and (decay_at[tid] is None or t < decay_at[tid])

    def key(job: _RefJob, t: int):
        if elevated(job.task_id, t):
            return (0, -tasks[job.task_id].importance, job.task_id, job.seq)
        return (
            1,
            -pmap.priority(job.task_id, job.seq),
            job.task_id,
            job.seq,
        )

    for t in range(horizon + 1):
        if dues is not None:
            dues.append(min([j.deadline for j in active], default=math.inf))
        for tid in ooe:
            if ooe[tid] and decay_at[tid] is not None and t >= decay_at[tid]:
                ooe[tid] = False
                decay_at[tid] = None
        if t < horizon:
            batch = sorted(
                arrivals.get(t, ()), key=lambda tk: (-tk.importance, tk.line)
            )
            for task in batch:
                prev = last[task.id]
                if prev is not None:
                    if t - prev < task.period:
                        ooe[task.id] = True
                        decay_at[task.id] = prev + max(
                            task.period, task.envelope_w
                        )
                    else:
                        ooe[task.id] = False
                        decay_at[task.id] = None
                last[task.id] = t
                kernel += delta_th
                if task.response is ResponseOption.NOTIFY_RUNNING and any(
                    j.task_id == task.id for j in active
                ):
                    continue
                seq = seqs[task.id]
                seqs[task.id] = seq + 1
                active.append(
                    _RefJob(task.id, seq, t, t + task.deadline, task.wcet)
                )
        for job in sorted(
            [j for j in active if j.deadline <= t and j.remaining > 0],
            key=lambda j: (j.task_id, j.seq),
        ):
            verdicts[(job.task_id, job.seq)] = (
                DROPPED if job.starved else MISSED
            )
            active.remove(job)
        if t >= horizon:
            break
        if kernel > 0:
            kernel -= 1
            continue
        if not active:
            continue
        job = min(active, key=lambda j: key(j, t))
        job.remaining -= 1
        if elevated(job.task_id, t):
            imp = tasks[job.task_id].importance
            for other in active:
                if other is job:
                    continue
                if tasks[other.task_id].importance < imp \
                        and other.release <= t < other.deadline:
                    other.starved = True
        if job.remaining == 0:
            verdicts[(job.task_id, job.seq)] = COMPLETED
            active.remove(job)
    for job in active:
        verdicts[(job.task_id, job.seq)] = INCOMPLETE
    return verdicts


def oracle_admissible_patterns(task: Task,
                               horizon: int) -> List[Tuple[int, ...]]:
    """Every admissible pattern of the task over [0, horizon) as a tuple
    of event times, in the checker's order: a depth-first walk over the
    ticks that at each tick first skips it, unless a normal arrival falls
    there, and then picks it, if the window ending there has room. The
    normal pattern comes first; an empty list means that even it
    breaches the envelope."""
    n, w = task.envelope_n, task.envelope_w
    mandatory = frozenset(normal_pattern(task, horizon))
    out: List[Tuple[int, ...]] = []
    chosen: List[int] = []
    picked = [False] * horizon

    def grow(t: int, inside: int) -> None:
        # inside: the chosen events in [t-W, t); the one at t-W, if any,
        # leaves before the envelope test at t
        if t == horizon:
            out.append(tuple(chosen))
            return
        leaving = t - w
        if leaving >= 0 and picked[leaving]:
            inside -= 1
        if t not in mandatory:
            grow(t + 1, inside)
        if inside < n:
            chosen.append(t)
            picked[t] = True
            grow(t + 1, inside + 1)
            picked[t] = False
            chosen.pop()

    grow(0, 0)
    return out


def product_check(task_set: TaskSet, policy: Optional[Policy] = None,
                  horizon: Optional[int] = None):
    """The exhaustive check as a product loop, the checker before it
    shared prefixes: every combination of the tasks' admissible patterns,
    as oracle_admissible_patterns lists them, in itertools.product order,
    each simulated from t=0 by oracle_verdicts, until one misses a
    deadline. Returns (feasible, patterns_checked, witness_pattern)."""
    policy = policy if policy is not None else Policy()
    if horizon is None:
        horizon = hyperperiod(task_set)
    pmap = select_priority_map(task_set, policy)
    task_ids = [t.id for t in task_set]
    per_task = [oracle_admissible_patterns(t, horizon) for t in task_set]
    checked = 0
    for combo in itertools.product(*per_task):
        checked += 1
        patterns = dict(zip(task_ids, combo))
        verdicts = oracle_verdicts(task_set, pmap, patterns, horizon,
                                   policy.delta_th)
        if MISSED in verdicts.values():
            return False, checked, patterns
    return True, checked, None


def random_check_instance(seed, max_combinations=300, min_combinations=0):
    """A small random instance for the exhaustive checker, as (task set,
    policy, horizon): 1-3 tasks, either priority assignment, job-level
    overrides on about half the tasks, delta_th 0 or 1, both response
    options, and exception-only tasks. Periods divide 12, so the
    hyperperiod stays small; the horizon is the hyperperiod or an
    explicit one. Draws are repeated until the instance has between
    min_combinations and max_combinations pattern combinations, which
    bounds its cost."""
    rng = random.Random(seed)
    while True:
        n_tasks = rng.randint(1, 3)
        periods = [INFINITE_PERIOD if rng.random() < 0.2
                   else rng.choice([2, 3, 4, 6, 12]) for _ in range(n_tasks)]
        finite = [p for p in periods if p != INFINITE_PERIOD]
        hp = math.lcm(*finite) if finite else 1
        horizon = hp if hp >= 4 and rng.random() < 0.5 \
            else rng.randint(4, 12)
        importances = rng.sample(range(10), n_tasks)
        priorities = rng.sample(range(1, 10), n_tasks)
        tasks = []
        for i, period in enumerate(periods):
            if period == INFINITE_PERIOD:
                deadline, k = rng.randint(2, 6), 1
                n, w = rng.randint(1, 2), rng.randint(3, 12)
            else:
                deadline, k = period, hp // period
                n, w = rng.randint(1, 2), rng.randint(1, period)
            overrides = {}
            if rng.random() < 0.5:
                overrides = {key: rng.randint(1, 12)
                             for key in rng.sample(range(k),
                                                   rng.randint(1, k))}
            tasks.append(Task(
                id=f"t{i}",
                wcet=rng.randint(1, deadline),
                period=period,
                deadline=deadline,
                importance=importances[i],
                line=f"l{i}",
                envelope_n=n,
                envelope_w=w,
                response=rng.choice([ResponseOption.RELEASE_ALL,
                                     ResponseOption.NOTIFY_RUNNING]),
                priority=priorities[i],
                job_priority_overrides=overrides,
            ))
        policy = Policy(
            assignment=rng.choice(["importance_monotonic", "explicit"]),
            delta_th=rng.randrange(2),
        )
        total = math.prod(count_admissible_patterns(t, horizon)
                          for t in tasks)
        if min_combinations <= total <= max_combinations:
            return TaskSet(tasks), policy, horizon


def oracle_generate_workload(spec, horizon: int, seed: int = 0) -> List[int]:
    """A workload spec's sorted raise times inside [0, horizon), expanded
    by a ladder over the spec kinds."""
    if isinstance(spec, Periodic):
        if spec.period < 1:
            raise ScenarioError([f"periodic workload: period {spec.period} < 1"])
        return [t for t in range(spec.offset, horizon, spec.period)
                if t >= 0]
    if isinstance(spec, Sporadic):
        if not (0.0 < spec.density <= 1.0):
            raise ScenarioError(
                [f"sporadic workload: density {spec.density} outside (0, 1]"]
            )
        if spec.min_sep < 1:
            raise ScenarioError(
                [f"sporadic workload: min_sep {spec.min_sep} < 1"])
        rng = random.Random(f"{seed}:{spec.seed}")
        out = []
        t = 0
        while t < horizon:
            if rng.random() < spec.density:
                out.append(t)
                t += spec.min_sep
            else:
                t += 1
        return out
    if isinstance(spec, Burst):
        if spec.spacing < 0 or spec.count < 0:
            raise ScenarioError(["burst workload: negative count or spacing"])
        return [spec.at + k * spec.spacing
                for k in _oracle_burst_indices(spec, horizon)]
    if isinstance(spec, Storm):
        return [t for t in _oracle_storm_ticks(spec, horizon)
                for _ in range(spec.rate)]
    if isinstance(spec, Explicit):
        return sorted(t for t in spec.times if 0 <= t < horizon)
    raise ScenarioError([f"unknown workload spec {spec!r}"])


def _oracle_storm_ticks(spec, horizon: int) -> range:
    """The ticks in [0, horizon) at which a storm raises spec.rate times."""
    if spec.rate < 1:
        raise ScenarioError([f"storm workload: rate {spec.rate} < 1"])
    return range(max(0, spec.start), horizon)


def _oracle_burst_indices(spec, horizon: int) -> range:
    """The k in [0, count) whose raise at + k * spacing lies in
    [0, horizon)."""
    if spec.spacing == 0:
        return range(spec.count if 0 <= spec.at < horizon else 0)
    return range(max(0, -(spec.at // spec.spacing)),
                 min(spec.count, (horizon - 1 - spec.at) // spec.spacing + 1))


def oracle_estimate_raises(spec, horizon: int) -> int:
    """A second ladder over the spec kinds, counting raises from the spec
    alone: a sporadic spec counts its draws, an explicit spec every time
    it lists, and a spec oracle_generate_workload rejects 0. Counts are
    taken by arithmetic, not len(), so they may pass sys.maxsize."""
    if isinstance(spec, Periodic):
        if spec.period < 1:
            return 0
        first = spec.offset \
            + max(0, -(spec.offset // spec.period)) * spec.period
        return max(0, -((first - horizon) // spec.period))
    if isinstance(spec, Sporadic):
        return horizon if spec.min_sep >= 1 and 0 < spec.density <= 1 \
            else 0
    if isinstance(spec, Burst):
        if spec.spacing < 0 or spec.count < 0:
            return 0
        indices = _oracle_burst_indices(spec, horizon)
        return max(0, indices.stop - indices.start)
    if isinstance(spec, Storm):
        return max(0, spec.rate) * max(0, horizon - max(0, spec.start))
    if isinstance(spec, Explicit):
        return len(spec.times)
    return 0


_SUPPRESS_REASON = {
    RaiseOutcome.SUPPRESSED_MASKED: "masked",
    RaiseOutcome.SUPPRESSED_IPL: "ipl",
    RaiseOutcome.LATCHED_PENDING: "coalesced",
}


class TickEngine(Engine):
    """The engine's phases driven one tick at a time: every step of
    range(horizon + 1) is visited and the processor advances by single
    ticks. Each occurrence is raised on its own, from a table of one
    entry per occurrence that the workload oracle expands, and logged
    with fresh records. Next-event time advance and the engine's raise
    runs must reproduce its traces byte for byte."""

    def __init__(self, scenario):
        super().__init__(scenario)
        rank = {task.line: i
                for i, task in enumerate(interrupt_order(self.task_set))}
        made = [(line,
                 oracle_generate_workload(spec, self.horizon, scenario.seed))
                for line, spec in scenario.workload]
        self.occurrences: Dict[int, List[str]] = {}
        for line, times in sorted(made, key=lambda m: rank[m[0]]):
            for t in times:
                self.occurrences.setdefault(t, []).append(line)

    def _process_raises(self, t):
        delivered = False
        for line in self.occurrences.get(t, ()):
            outcome = self.vic.raise_event(line, t)
            task = self.line_task[line].id
            self._log(t, "RAISE", line, task, detail=outcome.value)
            if outcome is RaiseOutcome.DELIVERED_NOW:
                delivered = True
            else:
                self.line_suppressed[line] += 1
                self._log(t, "SUPPRESS", line, task,
                          detail=_SUPPRESS_REASON[outcome])
        return delivered

    def run(self):
        for t in range(self.horizon + 1):
            self.steps += 1
            self._process_timers(t)
            if t < self.horizon:
                self._process_raises(t)
            self._drain_deliverable(t)
            self._process_timers(t)
            self._process_shed(t)
            self._process_timers(t)
            if self._needs_dispatch:
                self._schedule_point(t)
                self._needs_dispatch = False
            if t == self.horizon:
                break
            res = self.sched.execute_tick(t, t + 1)
            if res.kind == "idle" and self.sched.active:
                raise EngineError(f"idle at t={t} with released work pending")
            if res.completed:
                job = res.job
                self._log(
                    t + 1, "COMPLETE", self.line_of(job), job.task_id,
                    job.seq, detail=f"response={job.completion - job.release}",
                )
                self._after_finalize(job, t + 1)
                self._needs_dispatch = True
        return self.trace, self._metrics()


def full_scan_set_ipl(vic, level, t):
    """VicState.set_ipl walking every line: each unmasked line at or
    below the level gets a hold if it has none, and each unmasked line
    above it that has one is released."""
    vic.ipl = level
    released = []
    for ln in vic.lines.values():
        if ln.masked:
            continue
        if ln.irq_priority <= level:
            if ln.hold is None:
                ln.hold = (t, ln.device_counter)
        elif ln.hold is not None:
            since, counter = ln.hold
            released.append((ln.id, since, ln.device_counter - counter))
            ln.hold = None
    return released


def linear_compute_ipl(running_priority, lines):
    """compute_ipl over the lines as they are, (importance, next-job
    priority) each, without an index: the least importance among the
    lines whose priority lies above running_priority, else the greatest
    importance plus one; 0 when idle or without lines."""
    if running_priority is None:
        return 0
    lines = list(lines)
    if not lines:
        return 0
    preempting = [imp for imp, prio in lines if prio > running_priority]
    if not preempting:
        return max(imp for imp, _ in lines) + 1
    return min(preempting)


class ConfirmingEngine(Engine):
    """The schedule point as a fixed-point loop: a round that dispatched
    or backfilled is followed by another, so the last round of every
    point confirms that nothing changes, within 2 * (lines + 1) rounds.
    Every round asks every monitor whether its episode is live and looks
    up every line's next-job priority, and the level is computed afresh
    each time, by the linear oracle rather than the engine's index. The engine's schedule point, which stops at the first
    round without a backfill and keeps the elevated set and the line
    priorities from events, must reproduce its traces byte for byte."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self._lines_by_irq = interrupt_order(self.task_set)

    def _apply_ipl(self, t):
        running = self.sched.running
        priority, seq = self.pmap.priority, self.sched.seq
        level = linear_compute_ipl(
            None if running is None
            else priority(running.task_id, running.seq),
            [(task.importance, priority(task.id, seq[task.id]))
             for task in self._lines_by_irq],
        )
        if level == self.vic.ipl:
            return False
        released = self.vic.set_ipl(level, t)
        self._log(t, "IPL_SET", detail=f"level={level}")
        backfilled = False
        for line, since, held in released:
            if held > 0 and self._backfill(line, t, since, held):
                backfilled = True
        return backfilled

    def _schedule_point(self, t):
        for _ in range(2 * (len(self.line_task) + 1)):
            changed = False
            elevated = {
                mon.task_id for mon in self.monitors.values()
                if mon.ooe_active(t)
            }
            self.sched.set_elevated(elevated)
            target = self.sched.pick_next(t)
            preempted, started = self.sched.dispatch(target, t)
            if preempted is not None:
                self._log(t, "PREEMPT", self.line_of(preempted),
                          preempted.task_id, preempted.seq,
                          detail=f"remaining={preempted.remaining}")
                changed = True
            if started:
                self._log(t, "START", self.line_of(target), target.task_id,
                          target.seq, detail=f"remaining={target.remaining}")
                changed = True
            if not self.policy.ipl_optimization:
                return
            recon = self._apply_ipl(t)
            if recon:
                self._process_timers(t)
            if not recon and not changed:
                return
        raise EngineError(f"schedule point at t={t} did not stabilize")


def random_scenario(seed):
    """A small random but valid scenario. Varied on purpose: every policy
    knob, every workload kind, and task counts from 1 to 4."""
    rng = random.Random(seed)
    n_tasks = rng.randint(1, 4)
    horizon = rng.randint(20, 200)
    importances = rng.sample(range(0, 50), n_tasks)
    priorities = rng.sample(range(1, 50), n_tasks)
    tasks = []
    workload = []
    for i in range(n_tasks):
        period = rng.randint(3, 40)
        wcet = rng.randint(1, max(1, period // 3))
        task_id = f"t{i}"
        line = f"l{i}"
        tasks.append(
            Task(
                id=task_id,
                wcet=wcet,
                period=period,
                importance=importances[i],
                line=line,
                envelope_n=rng.randint(1, 4),
                envelope_w=rng.randint(2, 30),
                priority=priorities[i],
            )
        )
        kind = rng.randrange(5)
        if kind == 0:
            workload.append((line, Periodic(rng.randint(0, 5), period)))
        elif kind == 1:
            workload.append(
                (line, Sporadic(rng.randint(1, period), rng.uniform(0.05, 0.6),
                                rng.randint(0, 999)))
            )
        elif kind == 2:
            workload.append(
                (line, Burst(rng.randint(0, horizon - 1), rng.randint(1, 6),
                             rng.randint(0, 3)))
            )
        elif kind == 3:
            workload.append(
                (line, Storm(rng.randint(0, horizon - 1), rng.randint(1, 2)))
            )
        else:
            count = rng.randint(0, 8)
            times = sorted(rng.sample(range(horizon), min(count, horizon)))
            workload.append((line, Explicit(tuple(times))))
    policy = Policy(
        assignment=rng.choice(["importance_monotonic", "explicit"]),
        fault_policy=rng.choice([FaultPolicy.PERMANENT, FaultPolicy.AUTO_RESUME]),
        ipl_optimization=rng.random() < 0.5,
        mask_until_bottom_half=rng.random() < 0.5,
        delta_th=rng.randrange(3),
    )
    return Scenario(
        task_set=TaskSet(tasks),
        policy=policy,
        workload=workload,
        horizon=horizon,
        seed=seed,
    )


def with_ipl_and_overrides(scenario, seed):
    """The scenario with the IPL on, explicit priorities and a job-level
    override on one early job index of each task, so that a release can
    change the priority of the line's next job."""
    rng = random.Random(f"overrides:{seed}")
    hp = hyperperiod(scenario.task_set)
    tasks = []
    for task in scenario.task_set:
        k = max(1, hp // int(task.period))
        key = rng.randrange(min(k, 3))
        tasks.append(replace(task, job_priority_overrides={
            key: rng.randint(1, 60)}))
    return replace(
        scenario, task_set=TaskSet(tasks),
        policy=replace(scenario.policy, assignment="explicit",
                       ipl_optimization=True))


def sparse_coincident_scenario(seed):
    """A long, mostly idle scenario whose events pile onto shared ticks.

    Each task has W = D = T and C = D - k * delta_th with k in {1, 2}
    and delta_th > 0, so a job released at r whose start was delayed by
    k top halves completes exactly at its deadline r + D, which is also
    when a window timer armed at r expires. A second raise a few ticks later starts an out-of-envelope
    episode whose decay timer is due at r + T as well. Clusters of
    raises sit far apart, leaving long idle spans between them."""
    rng = random.Random(seed)
    n_tasks = rng.randint(1, 3)
    horizon = rng.randint(2000, 20000)
    delta_th = rng.randint(1, 2)
    importances = rng.sample(range(0, 50), n_tasks)
    priorities = rng.sample(range(1, 50), n_tasks)
    tasks = []
    workload = []
    for i in range(n_tasks):
        period = rng.randint(8, 300)
        wcet = max(1, period - delta_th * rng.randint(1, 2))
        line = f"l{i}"
        tasks.append(
            Task(
                id=f"t{i}",
                wcet=wcet,
                period=period,
                importance=importances[i],
                line=line,
                envelope_n=rng.randint(1, 2),
                envelope_w=period,
                priority=priorities[i],
            )
        )
        times = set()
        for _ in range(rng.randint(2, 6)):
            r = rng.randrange(horizon)
            times.add(r)
            if rng.random() < 0.6:
                times.add(r + rng.randint(1, period - 1))
            if rng.random() < 0.3:
                times.add(r + period)
        workload.append((line, Explicit(tuple(sorted(times)))))
    policy = Policy(
        assignment=rng.choice(["importance_monotonic", "explicit"]),
        fault_policy=rng.choice([FaultPolicy.PERMANENT, FaultPolicy.AUTO_RESUME]),
        ipl_optimization=rng.random() < 0.5,
        mask_until_bottom_half=rng.random() < 0.5,
        delta_th=delta_th,
    )
    return Scenario(
        task_set=TaskSet(tasks),
        policy=policy,
        workload=workload,
        horizon=horizon,
        seed=seed,
    )


def storm_scenario(seed):
    """A short scenario whose lines take storms of 1 to 4 raises per
    tick, some overlapped by a burst or a periodic spec on the same
    line, against small windows: window masks, bottom-half masks, IPL
    holds with delta_th > 0 and coalesced raises all occur, and most
    raise ticks meet only held lines."""
    rng = random.Random(f"storm:{seed}")
    n_tasks = rng.randint(1, 4)
    horizon = rng.randint(60, 400)
    importances = rng.sample(range(0, 50), n_tasks)
    priorities = rng.sample(range(1, 50), n_tasks)
    tasks = []
    workload = []
    for i in range(n_tasks):
        period = rng.randint(6, 60)
        line = f"l{i}"
        n = rng.randint(1, 4)
        tasks.append(
            Task(
                id=f"t{i}",
                wcet=rng.randint(1, max(1, period // 3)),
                period=period,
                importance=importances[i],
                line=line,
                envelope_n=n,
                envelope_w=rng.randint(n, 40),
                priority=priorities[i],
            )
        )
        workload.append((line, Storm(rng.randrange(horizon // 2),
                                     rng.randint(1, 4))))
        extra = rng.randrange(3)
        if extra == 1:
            workload.append((line, Burst(rng.randrange(horizon),
                                         rng.randint(1, 20),
                                         rng.randint(0, 2))))
        elif extra == 2:
            workload.append((line, Periodic(rng.randrange(period), period)))
    policy = Policy(
        assignment=rng.choice(["importance_monotonic", "explicit"]),
        fault_policy=rng.choice([FaultPolicy.PERMANENT,
                                 FaultPolicy.AUTO_RESUME]),
        ipl_optimization=rng.random() < 0.6,
        mask_until_bottom_half=rng.random() < 0.5,
        delta_th=rng.randrange(3),
    )
    return Scenario(
        task_set=TaskSet(tasks),
        policy=policy,
        workload=workload,
        horizon=horizon,
        seed=seed,
    )


# the scenario parser as it was before it read each object through its
# dataclass fields: one hand-written check per key, one branch per
# workload kind. cli.parse_scenario must agree with it on every input
# but the override keys it now refuses.


def _reject_extras(obj: dict, allowed, where: str) -> None:
    extras = sorted(set(obj) - set(allowed))
    if extras:
        raise ScenarioError(
            [f"{where}: unknown key(s) {', '.join(extras)}"]
        )


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError([f"{where}: missing required key '{key}'"])
    return obj[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError([f"{where}: expected an integer, got {value!r}"])
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError([f"{where}: expected a boolean, got {value!r}"])
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError([f"{where}: expected a string, got {value!r}"])
    return value


def _parse_task(obj: dict) -> Task:
    if not isinstance(obj, dict):
        raise ScenarioError([f"task entry must be an object, got {obj!r}"])
    where = f"task '{obj.get('id', '?')}'"
    _reject_extras(
        obj,
        (
            "id", "C", "T", "D", "importance", "line", "n", "W",
            "response", "priority", "job_priority_overrides",
        ),
        where,
    )
    task_id = _as_str(_need(obj, "id", where), where + ".id")
    period_raw = _need(obj, "T", where)
    if period_raw is None or period_raw == "inf":
        period = INFINITE_PERIOD
    else:
        period = _as_int(period_raw, where + ".T")
    deadline = None
    if "D" in obj:
        deadline = _as_int(obj["D"], where + ".D")
    response = ResponseOption.RELEASE_ALL
    if "response" in obj:
        raw = _as_str(obj["response"], where + ".response")
        try:
            response = ResponseOption(raw)
        except ValueError:
            raise ScenarioError(
                [f"{where}.response: unknown option '{raw}'"]
            ) from None
    priority = None
    if "priority" in obj:
        priority = _as_int(obj["priority"], where + ".priority")
    overrides: Dict[int, int] = {}
    if "job_priority_overrides" in obj:
        raw_map = obj["job_priority_overrides"]
        if not isinstance(raw_map, dict):
            raise ScenarioError(
                [f"{where}.job_priority_overrides: expected an object"]
            )
        for k, v in raw_map.items():
            try:
                seq = int(k)
            except (TypeError, ValueError):
                raise ScenarioError(
                    [f"{where}.job_priority_overrides: bad key {k!r}"]
                ) from None
            overrides[seq] = _as_int(
                v, f"{where}.job_priority_overrides[{k}]"
            )
    try:
        return Task(
            id=task_id,
            wcet=_as_int(_need(obj, "C", where), where + ".C"),
            period=period,
            importance=_as_int(
                _need(obj, "importance", where), where + ".importance"
            ),
            line=_as_str(_need(obj, "line", where), where + ".line"),
            envelope_n=_as_int(_need(obj, "n", where), where + ".n"),
            envelope_w=_as_int(_need(obj, "W", where), where + ".W"),
            deadline=deadline,
            response=response,
            priority=priority,
            job_priority_overrides=overrides,
        )
    except ValueError as exc:
        raise ScenarioError([str(exc)]) from None


def _parse_policy(obj: dict) -> Policy:
    if not isinstance(obj, dict):
        raise ScenarioError([f"policy must be an object, got {obj!r}"])
    _reject_extras(
        obj,
        (
            "assignment", "fault_policy", "ipl_optimization",
            "mask_until_bottom_half", "delta_th",
        ),
        "policy",
    )
    policy = Policy()
    if "assignment" in obj:
        policy.assignment = _as_str(obj["assignment"], "policy.assignment")
    if "fault_policy" in obj:
        raw = _as_str(obj["fault_policy"], "policy.fault_policy")
        try:
            policy.fault_policy = FaultPolicy(raw)
        except ValueError:
            raise ScenarioError(
                [f"policy.fault_policy: unknown option '{raw}'"]
            ) from None
    if "ipl_optimization" in obj:
        policy.ipl_optimization = _as_bool(
            obj["ipl_optimization"], "policy.ipl_optimization"
        )
    if "mask_until_bottom_half" in obj:
        policy.mask_until_bottom_half = _as_bool(
            obj["mask_until_bottom_half"], "policy.mask_until_bottom_half"
        )
    if "delta_th" in obj:
        policy.delta_th = _as_int(obj["delta_th"], "policy.delta_th")
    return policy


def _parse_workload_entry(obj: dict) -> Tuple[str, object]:
    if not isinstance(obj, dict):
        raise ScenarioError(
            [f"workload entry must be an object, got {obj!r}"]
        )
    kind = _as_str(_need(obj, "kind", "workload entry"), "workload.kind")
    line = _as_str(_need(obj, "line", "workload entry"), "workload.line")
    where = f"workload for line '{line}'"
    if kind == "periodic":
        _reject_extras(obj, ("kind", "line", "offset", "period"), where)
        return line, Periodic(
            offset=_as_int(_need(obj, "offset", where), where + ".offset"),
            period=_as_int(_need(obj, "period", where), where + ".period"),
        )
    if kind == "sporadic":
        _reject_extras(obj, ("kind", "line", "min_sep", "density", "seed"), where)
        density = _need(obj, "density", where)
        if isinstance(density, bool) or not isinstance(density, (int, float)):
            raise ScenarioError([f"{where}.density: expected a number"])
        return line, Sporadic(
            min_sep=_as_int(_need(obj, "min_sep", where), where + ".min_sep"),
            density=float(density),
            seed=_as_int(_need(obj, "seed", where), where + ".seed"),
        )
    if kind == "burst":
        _reject_extras(obj, ("kind", "line", "at", "count", "spacing"), where)
        return line, Burst(
            at=_as_int(_need(obj, "at", where), where + ".at"),
            count=_as_int(_need(obj, "count", where), where + ".count"),
            spacing=_as_int(_need(obj, "spacing", where), where + ".spacing"),
        )
    if kind == "storm":
        _reject_extras(obj, ("kind", "line", "start", "rate"), where)
        return line, Storm(
            start=_as_int(_need(obj, "start", where), where + ".start"),
            rate=_as_int(_need(obj, "rate", where), where + ".rate"),
        )
    if kind == "explicit":
        _reject_extras(obj, ("kind", "line", "times"), where)
        times = _need(obj, "times", where)
        if not isinstance(times, list):
            raise ScenarioError([f"{where}.times: expected a list"])
        return line, Explicit(
            times=tuple(_as_int(t, where + ".times[]") for t in times)
        )
    raise ScenarioError([f"{where}: unknown workload kind '{kind}'"])


def reference_parse_scenario(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    _reject_extras(
        obj, ("tasks", "policy", "workload", "horizon", "seed"), "scenario"
    )
    raw_tasks = _need(obj, "tasks", "scenario")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ScenarioError(["scenario.tasks: expected a non-empty list"])
    tasks = TaskSet([_parse_task(t) for t in raw_tasks])
    policy = _parse_policy(obj.get("policy", {}))
    raw_workload = obj.get("workload", [])
    if not isinstance(raw_workload, list):
        raise ScenarioError(["scenario.workload: expected a list"])
    workload = [_parse_workload_entry(w) for w in raw_workload]
    horizon = None
    if "horizon" in obj and obj["horizon"] is not None:
        horizon = _as_int(obj["horizon"], "scenario.horizon")
    seed = 0
    if "seed" in obj:
        seed = _as_int(obj["seed"], "scenario.seed")
    return Scenario(
        task_set=tasks, policy=policy, workload=workload,
        horizon=horizon, seed=seed,
    )
