"""Task model for event-triggered real-time systems.

Time is measured in integer ticks throughout the package. A task is
characterized by its worst-case execution time, its expected minimum
inter-arrival time (the period), a relative deadline, and an importance
value. Importance is a total order that is deliberately independent of
both scheduler priority and any notion of criticality: it only states
which task the system would rather keep alive when not everything can
be served.

Each task additionally carries an arrival envelope (n, W): at most n
releasing events are considered legitimate within any sliding window of
W ticks. Event sources that exceed the envelope are throttled and
eventually declared faulty by the monitor layer.
"""

import functools
import math
from collections import abc
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple, get_origin

TimeInstant = int
Duration = int

# Sentinel period for exception-only tasks: their normal arrival has either
# happened already or never happens, so every further event is out of
# envelope by definition.
INFINITE_PERIOD = math.inf


class ResponseOption(Enum):
    """How the system responds to a task-releasing event beyond the first.

    RELEASE_ALL releases one job per internalized event, even while an
    earlier job of the same task is still incomplete. NOTIFY_RUNNING
    instead informs an already live job (an exception-handler style
    response); it degenerates to a release when no live job exists.
    """

    RELEASE_ALL = "release_all"
    NOTIFY_RUNNING = "notify_running"


@dataclass(frozen=True)
class Task:
    """A sporadic task.

    Attributes:
        id: unique task name.
        wcet: worst-case execution time in ticks, at least 1.
        period: minimum inter-arrival time of in-envelope events. May be
            INFINITE_PERIOD for exception-only tasks, in which case an
            explicit deadline is required.
        importance: non-negative integer, unique within a task set.
            Larger values mean more important.
        line: interrupt line this task's releasing event arrives on.
            Exactly one task per line.
        envelope_n: maximum legitimate events per sliding window.
        envelope_w: sliding window length in ticks.
        deadline: relative deadline; defaults to the period.
        response: out-of-envelope response option.
        priority: base scheduler priority for explicit assignments.
            Larger values win. Ignored under importance-monotonic
            assignment.
        job_priority_overrides: job-level priority overrides, keyed by
            the job sequence number modulo the number of jobs this task
            releases per hyperperiod.
    """

    id: str
    wcet: Duration
    period: float
    importance: int
    line: str
    envelope_n: int
    envelope_w: Duration
    deadline: Optional[Duration] = None
    response: ResponseOption = ResponseOption.RELEASE_ALL
    priority: Optional[int] = None
    job_priority_overrides: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.deadline is None:
            if self.period == INFINITE_PERIOD:
                raise ValueError(
                    f"task {self.id}: an explicit deadline is required when "
                    f"the period is infinite"
                )
            # any other period is the gate's to report (validate_task_set)
            if _is_whole(self.period):
                object.__setattr__(self, "deadline", int(self.period))

    @property
    def exception_only(self) -> bool:
        return self.period == INFINITE_PERIOD


@dataclass
class TaskSet:
    tasks: list

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self):
        return len(self.tasks)


def interrupt_order(task_set: TaskSet) -> List[Task]:
    """The tasks in interrupt priority order, importance descending, then
    line id: the order in which raises at one tick are internalized."""
    return sorted(task_set, key=lambda task: (-task.importance, task.line))


def hyperperiod(task_set: TaskSet) -> int:
    """Least common multiple of all finite periods, or 1 if none exist."""
    periods = [int(t.period) for t in task_set if not t.exception_only]
    if not periods:
        return 1
    return math.lcm(*periods)


def utilization(task_set: TaskSet) -> Fraction:
    """Exact processor utilization. Exception-only tasks contribute zero."""
    total = Fraction(0)
    for t in task_set:
        if not t.exception_only:
            total += Fraction(t.wcet, int(t.period))
    return total


def _jobs_per_hyperperiod(task: Task, hp: int) -> int:
    """The jobs task releases per hyperperiod hp, at least 1: the modulus
    of its job_priority_overrides keys."""
    return 1 if task.exception_only else max(1, hp // int(task.period))


@dataclass
class ValidationReport:
    problems: list
    # False when the gate refused a type, and so no value rule ran
    typed: bool = True

    @property
    def valid(self) -> bool:
        return not self.problems


def is_ticks(value) -> bool:
    """True for a tick count the engine takes: an int, a bool excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_whole(value) -> bool:
    """True for a finite number without a fractional part."""
    return _is_number(value) and value % 1 == 0


_TICKS = "an integer tick count"
_WHOLE_TICKS = "a whole number of ticks"

# The one rule each field annotation sets for its values, as (accepts,
# noun, exact): what a value must pass, what a refusal says it is not,
# and the types whose every value passes, which the gate takes without a
# call. A field keyed by (class, name) has its own rule. The library gate
# (field_problems) and the CLI's readers test with these.
FIELD_RULES = {
    int: (is_ticks, _TICKS, {int}),
    Optional[int]: (lambda v: v is None or is_ticks(v), _TICKS,
                    {int, type(None)}),
    float: (_is_number, "a number", {int, float}),
    str: (lambda v: isinstance(v, str), "a string", {str}),
    bool: (lambda v: isinstance(v, bool), "a boolean", {bool}),
    Tuple[int, ...]: (lambda v: isinstance(v, tuple)
                      and all(map(is_ticks, v)),
                      "a tuple of integer tick counts", ()),
    Mapping[int, int]: (lambda v: isinstance(v, (dict, abc.Mapping)) and (
                            not v or all(map(is_ticks, chain(v, v.values())))),
                        "a mapping of integers to integers", ()),
    # a task's period and window set episode decay times, which the decay
    # timer fires on whole ticks; a period may also be infinite
    (Task, "period"): (lambda v: v == INFINITE_PERIOD or _is_whole(v),
                       _WHOLE_TICKS, {int}),
    (Task, "envelope_w"): (is_ticks, _WHOLE_TICKS, {int}),
}


@functools.lru_cache(maxsize=None)
def _field_rules(cls) -> tuple:
    """(name, accepts, noun, exact) for each field of the dataclass cls:
    its own rule, else its annotation's, else the instances of the
    annotation's class (an Enum, TaskSet, Policy, the list of a List)."""
    return tuple((f.name, *(FIELD_RULES.get((cls, f.name))
                            or FIELD_RULES.get(f.type)
                            or _instances(get_origin(f.type) or f.type)))
                 for f in fields(cls))


def _instances(kind: type):
    return (lambda v: isinstance(v, kind)), f"a {kind.__name__}", {kind}


def field_problems(obj, where: str = "") -> List[str]:
    """The gate: a problem, prefixed by where, for each field of the
    dataclass obj whose value its rule refuses."""
    problems = []
    for name, accepts, noun, exact in _field_rules(type(obj)):
        value = getattr(obj, name)
        if type(value) not in exact and not accepts(value):
            problems.append(f"{where}{name} {value!r} is not {noun}")
    return problems


def validate_task_set(task_set: TaskSet) -> ValidationReport:
    """Static sanity checks. Returns a report instead of raising so a
    caller can show every problem at once. The gate goes first: every
    task must be a Task whose fields pass their rules (field_problems).
    The value rules run only on a task set that does; one that does not
    gets a report of its type problems, not typed."""
    problems = []
    for t in task_set:
        if isinstance(t, Task):
            problems += field_problems(t, f"task {t.id}: ")
        else:
            problems.append(f"task set entry {t!r} is not a Task")
    if problems:
        return ValidationReport(problems, typed=False)
    if not len(task_set):
        problems.append("the task set holds no task")
    hp = None
    if all(t.exception_only or t.period >= 1 for t in task_set):
        hp = hyperperiod(task_set)
    seen_ids = set()
    seen_importance = {}
    seen_lines = {}
    seen_priorities = {}
    for t in task_set:
        if t.id in seen_ids:
            problems.append(f"task {t.id}: duplicate task id")
        seen_ids.add(t.id)
        if t.wcet < 1:
            problems.append(f"task {t.id}: wcet must be at least 1 tick")
        if not t.exception_only and t.period < 1:
            problems.append(f"task {t.id}: zero or negative period")
        if t.deadline < 1:
            problems.append(f"task {t.id}: zero or negative deadline")
        if t.wcet > t.deadline:
            problems.append(
                f"task {t.id}: wcet {t.wcet} exceeds deadline {t.deadline}"
            )
        if not t.exception_only and t.deadline > t.period:
            problems.append(
                f"task {t.id}: deadline {t.deadline} exceeds period "
                f"{int(t.period)}"
            )
        if t.importance < 0:
            problems.append(f"task {t.id}: negative importance")
        if t.importance in seen_importance:
            problems.append(
                f"task {t.id}: duplicate importance {t.importance} "
                f"(also used by {seen_importance[t.importance]})"
            )
        seen_importance.setdefault(t.importance, t.id)
        if t.envelope_n < 1:
            problems.append(f"task {t.id}: envelope_n must be at least 1")
        if t.envelope_w < 1:
            problems.append(f"task {t.id}: envelope_w must be at least 1")
        # some csv.writer versions leave a carriage return unquoted under
        # the trace's "\n" line ends, and csv.reader splits a record there
        if "\r" in t.id or "\r" in t.line:
            problems.append(
                f"task {t.id!r}: task and line ids may not hold a "
                f"carriage return"
            )
        if t.line in seen_lines:
            problems.append(
                f"task {t.id}: line collision on '{t.line}' with "
                f"{seen_lines[t.line]}"
            )
        seen_lines.setdefault(t.line, t.id)
        if t.priority is not None:
            if t.priority in seen_priorities:
                problems.append(
                    f"task {t.id}: duplicate base priority {t.priority} "
                    f"(also used by {seen_priorities[t.priority]})"
                )
            seen_priorities.setdefault(t.priority, t.id)
        if hp is not None:
            # overrides are keyed by seq mod k, so other keys never apply
            k = _jobs_per_hyperperiod(t, hp)
            for key in sorted(t.job_priority_overrides):
                if not 0 <= key < k:
                    problems.append(
                        f"task {t.id}: job_priority_overrides key {key} "
                        f"outside [0, {k})"
                    )
    return ValidationReport(problems)


@dataclass
class PriorityMap:
    """Scheduler priority lookup with optional job-level overrides.

    Overrides are keyed by (task, seq mod k) where k is the number of
    jobs the task releases per hyperperiod, so a priority pattern
    repeats every hyperperiod.
    """

    base: Dict[str, int]
    overrides: Dict[str, Dict[int, int]] = field(default_factory=dict)
    seq_modulus: Dict[str, int] = field(default_factory=dict)

    def priority(self, task_id: str, seq: int) -> int:
        per_task = self.overrides.get(task_id)
        if per_task:
            k = self.seq_modulus.get(task_id, 1)
            override = per_task.get(seq % k)
            if override is not None:
                return override
        return self.base[task_id]


def assign_importance_monotonic(task_set: TaskSet) -> PriorityMap:
    """Higher importance gets higher scheduler priority, nothing else."""
    return PriorityMap(base={t.id: t.importance for t in task_set})


def explicit_priority_map(task_set: TaskSet) -> PriorityMap:
    """Build the priority map from per-task base priorities and job-level
    overrides given in the task definitions."""
    base = {}
    overrides = {}
    modulus = {}
    hp = hyperperiod(task_set)
    for t in task_set:
        if t.priority is None:
            raise ValueError(
                f"task {t.id}: explicit priority assignment requires a "
                f"priority value"
            )
        base[t.id] = t.priority
        if t.job_priority_overrides:
            overrides[t.id] = dict(t.job_priority_overrides)
        modulus[t.id] = _jobs_per_hyperperiod(t, hp)
    return PriorityMap(base=base, overrides=overrides, seq_modulus=modulus)


class JobState(Enum):
    RELEASED = "released"
    COMPLETED = "completed"
    MISSED = "missed"
    DROPPED = "dropped"


# The members a job's finalization reads, as module constants: EnumType
# defines __getattr__, so every attribute read on an Enum class is a
# Python-level call. _FINAL is a tuple, which tests members by identity,
# since hashing a member is a Python-level call too.
_RELEASED = JobState.RELEASED
_COMPLETED = JobState.COMPLETED
_FINAL = (JobState.COMPLETED, JobState.MISSED, JobState.DROPPED)


@dataclass(slots=True, eq=False)
class Job:
    """One released instance of a task, equal only to itself.
    scheduler.release_job builds it with both dispatch keys: key while
    its task is not elevated, elevated_key while it is."""

    task_id: str
    seq: int
    release: TimeInstant
    abs_deadline: TimeInstant
    remaining: Duration
    state: JobState = JobState.RELEASED
    notifications: int = 0
    starved_by_elevated: bool = False
    completion: Optional[TimeInstant] = None
    key: Optional[tuple] = None
    elevated_key: Optional[tuple] = None

    @property
    def finalized(self) -> bool:
        return self.state is not _RELEASED

    def finalize(self, state: JobState, t: TimeInstant) -> None:
        if self.finalized:
            raise ValueError(
                f"job {self.task_id}#{self.seq} already finalized as "
                f"{self.state.value}"
            )
        if state not in _FINAL:
            raise ValueError(f"{state} is not a final state")
        self.state = state
        if state is _COMPLETED:
            self.completion = t
