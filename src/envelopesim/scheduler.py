"""Preemptive fixed-priority scheduling with importance elevation.

Dispatch preference has two bands. Tasks whose line is currently out of
envelope are elevated: their jobs rank first, ordered by importance
descending. Everyone else follows by scheduler priority, with job-level
overrides applied. Ties cannot occur between distinct priorities; the
(task id, seq) pair breaks the rest deterministically.

A job that reaches its deadline incomplete is classified Dropped when an
elevated, more important task consumed processor time inside the job's
release-to-deadline window (the sanctioned sacrifice), and Missed
otherwise (a genuine scheduling failure).

Both rules are pure functions, dispatch_key and mark_starved. The
Scheduler and the feasibility checker share one job lifecycle on top of
them: release_job builds every Job and takes both of its dispatch keys
once, pick selects over the stored keys, and take_due removes the jobs
whose deadline has come.
"""

from dataclasses import dataclass
from operator import attrgetter
from typing import Container, Dict, List, Mapping, Optional, Set, Tuple

from .model import (
    Job,
    JobState,
    PriorityMap,
    ResponseOption,
    Task,
    TaskSet,
)


# The members the run and check paths read, as module constants: EnumType
# defines __getattr__, so every attribute read on an Enum class is a
# Python-level call
_NOTIFY_RUNNING = ResponseOption.NOTIFY_RUNNING
_COMPLETED = JobState.COMPLETED
_MISSED = JobState.MISSED
_DROPPED = JobState.DROPPED


@dataclass
class ReleaseEffect:
    job: Optional[Job] = None
    notified: Optional[Job] = None


@dataclass
class TickResult:
    kind: str  # "idle" | "kernel" | "ran"
    job: Optional[Job] = None
    completed: bool = False


def dispatch_key(job: Job, elevated: Container[str],
                 tasks: Mapping[str, Task], pmap: PriorityMap) -> Tuple:
    """The two-band dispatch rule: the active job with the smallest key
    runs. Jobs of elevated tasks (elevated holds their ids) come first,
    by importance descending; the rest follow by scheduler priority,
    overrides applied."""
    if job.task_id in elevated:
        return (0, -tasks[job.task_id].importance, job.task_id, job.seq)
    return (1, -pmap.priority(job.task_id, job.seq), job.task_id, job.seq)


def job_priority(job: Job) -> int:
    """The job's scheduler priority, overrides applied, read from the
    normal-band key release_job stored."""
    return -job.key[1]


_plain_key = attrgetter("key")
_finalize_order = attrgetter("task_id", "seq")


def release_job(task: Task, seq: int, t: int, tasks: Mapping[str, Task],
                pmap: PriorityMap) -> Job:
    """Job seq of task, released at t. Its dispatch keys do not change
    during its life, so both come from dispatch_key here, once."""
    job = Job(task.id, seq, t, t + task.deadline, task.wcet)
    job.key = dispatch_key(job, (), tasks, pmap)
    job.elevated_key = dispatch_key(job, (task.id,), tasks, pmap)
    return job


def notified_job(task: Task, active: List[Job]) -> Optional[Job]:
    """The response rule: the live job an arrival of task notifies instead
    of releasing one. Only a NOTIFY_RUNNING task has it, and that task
    releases only while it has no live job, so the job is unique."""
    if task.response is _NOTIFY_RUNNING:
        for live in active:
            if live.task_id == task.id:
                return live
    return None


def pick(active: List[Job], elevated: Container[str]) -> Optional[Job]:
    """The active job that dispatch_key ranks first, read from the keys
    release_job stored; elevated holds the elevated tasks' ids."""
    if len(active) < 2:
        return active[0] if active else None
    if not elevated:
        return min(active, key=_plain_key)
    return min(active, key=lambda j: j.elevated_key
               if j.task_id in elevated else j.key)


def take_due(active: List[Job], t: int) -> List[Job]:
    """Remove from active, and return in (task id, seq) order, the jobs
    whose deadline has come by t."""
    due = [j for j in active if j.abs_deadline <= t]
    if due:
        due.sort(key=_finalize_order)
        for job in due:
            active.remove(job)
    return due


def mark_starved(runner: Job, active: List[Job],
                 tasks: Mapping[str, Task]) -> None:
    """The starvation rule, for an elevated job that just ran: every less
    important active job was starved by it, which turns its miss into a
    sanctioned drop.

    Each such job's window [release, deadline) covers the whole span the
    runner executed: the job was active when the span began, so it was
    released at or before its start, and callers end spans at the
    earliest active deadline after shedding the jobs whose deadline has
    arrived, so the deadline lies at or after its end."""
    imp = tasks[runner.task_id].importance
    for other in active:
        if other is not runner and tasks[other.task_id].importance < imp:
            other.starved_by_elevated = True


class Scheduler:
    def __init__(self, task_set: TaskSet, priority_map: PriorityMap,
                 delta_th: int = 0):
        self.tasks: Dict[str, Task] = {t.id: t for t in task_set}
        self.pmap = priority_map
        self.delta_th = delta_th
        self.seq: Dict[str, int] = {t.id: 0 for t in task_set}
        self.jobs: List[Job] = []
        self.active: List[Job] = []
        self.running: Optional[Job] = None
        self.elevated: Set[str] = set()
        self.kernel_pending = 0

    def set_elevated(self, task_ids) -> None:
        self.elevated = set(task_ids)

    def on_internalize(self, task_id: str, t: int) -> ReleaseEffect:
        """Respond to an internalized event: release a job, or notify a
        live one for NOTIFY_RUNNING tasks. The elevated set is left to
        the caller, which keeps it in step before the next dispatch."""
        task = self.tasks[task_id]
        live = notified_job(task, self.active)
        if live is not None:
            live.notifications += 1
            return ReleaseEffect(notified=live)
        seq = self.seq[task_id]
        self.seq[task_id] = seq + 1
        job = release_job(task, seq, t, self.tasks, self.pmap)
        self.jobs.append(job)
        self.active.append(job)
        return ReleaseEffect(job=job)

    def pick_next(self, t: int) -> Optional[Job]:
        return pick(self.active, self.elevated)

    def dispatch(self, job: Optional[Job],
                 t: int) -> Tuple[Optional[Job], bool]:
        """Hand the processor to job. Returns (preempted, started); the
        running job is never finalized, since completion and shed_check
        take the processor from it."""
        prev = self.running
        if prev is job:
            return (None, False)
        self.running = job
        return (prev, job is not None)

    def shed_check(self, t: int) -> List[Job]:
        """Finalize every job whose deadline has arrived: DROPPED when an
        elevated job starved it, MISSED otherwise."""
        due = take_due(self.active, t)
        for job in due:
            job.finalize(_DROPPED if job.starved_by_elevated else _MISSED,
                         t)
            if self.running is job:
                self.running = None
        return due

    def account_top_half(self, t: int) -> int:
        """Charge one interrupt entry. The running job loses delta_th
        ticks to kernel time."""
        self.kernel_pending += self.delta_th
        return self.delta_th

    def execute_tick(self, t: int, until: int) -> TickResult:
        """Advance the processor over the ticks [t, until), until > t.
        Pending kernel time is served first, then the running job;
        execution stops early when the job completes, and the job then
        completes at the end of its last tick.

        The result's kind is "ran" when the job executed at all, else
        "kernel" when kernel time was served, else "idle". The caller
        ends a span at the next release and the next deadline, so the
        active jobs are the same on every tick of it.
        """
        kernel = min(self.kernel_pending, until - t)
        self.kernel_pending -= kernel
        start = t + kernel
        job = self.running
        if job is None or start == until:
            return TickResult(kind="kernel" if kernel else "idle")
        end = start + min(job.remaining, until - start)
        job.remaining -= end - start
        if job.task_id in self.elevated:
            mark_starved(job, self.active, self.tasks)
        if job.remaining == 0:
            job.finalize(_COMPLETED, end)
            self.active.remove(job)
            self.running = None
            return TickResult(kind="ran", job=job, completed=True)
        return TickResult(kind="ran", job=job)
