"""Out-of-envelope detection and defense per interrupt line.

Each line owns a ring buffer of the last envelope_n internalization
timestamps. When the buffer fills inside one sliding window the line is
masked, an alarm is raised, and a timer is set to the earliest buffered
timestamp plus the window length. At expiry the controller's hold on the
line decides, that is the occurrences its device counter took since the
mask began: none means the sensor calmed down and the line is unmasked;
any means the source exceeded its envelope for a full window and is
declared faulty.

The window defense reconstructs nothing: held-back occurrences only count
toward the fault decision. The deferral optimizations, which hold
occurrences back and backfill them later (the interrupt priority level
and the bottom-half mask), live in the engine.

An out-of-envelope episode starts when two internalizations arrive closer
together than the task period. It ends either at the first internalization
whose gap reaches the period again, or once the violating pair has aged
out of the last max(period, window) ticks. This is the weakest memoryless
exit rule; the trace records every internalization timestamp, so stricter
rules can be evaluated offline against the same run. The rule is the pure
function episode_decay, which LineMonitor and the feasibility checker
both call.
"""

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .model import Task
from .vic import VicState


class MonitorError(Exception):
    pass


class LineState(Enum):
    IN_ENVELOPE = "in_envelope"
    OUT_OF_ENVELOPE = "out_of_envelope"
    WINDOW_MASKED = "window_masked"
    FAULTY = "faulty"


class AlarmKind(Enum):
    OUT_OF_ENVELOPE_ENTERED = "out_of_envelope_entered"
    WINDOW_BOUND_REACHED = "window_bound_reached"
    SENSOR_FAULT = "sensor_fault"
    SENSOR_RESUMED = "sensor_resumed"


class FaultPolicy(Enum):
    PERMANENT = "permanent"
    AUTO_RESUME = "auto_resume"


# The members the run path reads, as module constants: EnumType defines
# __getattr__, so every attribute read on an Enum class is a Python-level
# call
_IN_ENVELOPE = LineState.IN_ENVELOPE
_OUT_OF_ENVELOPE = LineState.OUT_OF_ENVELOPE
_WINDOW_MASKED = LineState.WINDOW_MASKED
_FAULTY = LineState.FAULTY
_OOE_ENTERED = AlarmKind.OUT_OF_ENVELOPE_ENTERED
_WINDOW_BOUND_REACHED = AlarmKind.WINDOW_BOUND_REACHED
_SENSOR_FAULT = AlarmKind.SENSOR_FAULT
_SENSOR_RESUMED = AlarmKind.SENSOR_RESUMED
_AUTO_RESUME = FaultPolicy.AUTO_RESUME


@dataclass
class MonitorEffect:
    """What one internalization did to the line. Its alarms report an
    episode start and the window mask; afterwards the monitor's
    window_timer is set exactly when the window defense masked the line."""

    exited_ooe: bool = False
    alarms: List[AlarmKind] = field(default_factory=list)


@dataclass
class TimerEffect:
    """Outcome of a window timer expiry. unmasked covers the auto-resume
    too, which its SENSOR_RESUMED alarm tells apart. Afterwards the
    monitor's window_timer is set exactly when the timer was re-armed."""

    unmasked: bool = False
    alarms: List[AlarmKind] = field(default_factory=list)


def episode_decay(prev: Optional[int], t: int, period: float,
                  window: int) -> Optional[float]:
    """The episode rule: what an internalization at t leaves behind when
    the line's previous internalization was at prev (None for the first).

    A gap below the period starts or prolongs an out-of-envelope episode
    that decays once the violating pair has aged out, at
    prev + max(period, window), which lies after t; the result is that
    decay time (infinite for exception-only tasks). Otherwise no episode
    is live after t and the result is None.
    """
    if prev is not None and t - prev < period:
        return prev + max(period, window)
    return None


class LineMonitor:
    def __init__(self, task: Task, fault_policy: FaultPolicy = FaultPolicy.PERMANENT):
        self.line = task.line
        self.task_id = task.id
        self.n = task.envelope_n
        self.window = task.envelope_w
        self.period = task.period
        self.fault_policy = fault_policy
        self.ring: List[int] = []
        self.last_internalize: Optional[int] = None
        self.window_timer: Optional[int] = None
        # WINDOW_MASKED or FAULTY while the window defense holds the line
        # masked, None otherwise
        self._defense: Optional[LineState] = None
        # decay time of the live out-of-envelope episode, None when none
        self._ooe_decay_at: Optional[float] = None

    @property
    def state(self) -> LineState:
        """Derived from the window defense and the recorded episode."""
        if self._defense is not None:
            return self._defense
        if self._ooe_decay_at is not None:
            return _OUT_OF_ENVELOPE
        return _IN_ENVELOPE

    # episode bookkeeping

    def ooe_active(self, t: int) -> bool:
        """Is the out-of-envelope episode live at time t?"""
        return self._ooe_decay_at is not None and t < self._ooe_decay_at

    def has_episode(self) -> bool:
        """Is an episode recorded? It stays recorded after its decay
        time until decay, a later internalization or an unmask retires
        it."""
        return self._ooe_decay_at is not None

    def decay_due(self) -> Optional[int]:
        if self._ooe_decay_at is not None \
                and math.isfinite(self._ooe_decay_at):
            return int(self._ooe_decay_at)
        return None

    def decay(self, t: int) -> bool:
        """Retire the episode once the violating pair has aged out.
        Returns True when the episode ended at this call."""
        if self._ooe_decay_at is not None and t >= self._ooe_decay_at:
            self._ooe_decay_at = None
            return True
        return False

    # core protocol

    def _prune(self, t: int) -> None:
        self.ring = [ts for ts in self.ring if ts > t - self.window]

    def record_internalization(self, vic: VicState, t: int) -> MonitorEffect:
        """Record one internalized occurrence with timestamp t.

        t may lie in the past relative to the wall clock when occurrences
        deferred by a mask are backfilled. Must not be called while the
        window defense or a declared fault holds the line masked.
        """
        if self._defense is not None:
            raise MonitorError(
                f"line {self.line}: internalization while window-masked"
            )
        eff = MonitorEffect()
        self.decay(t)
        self._prune(t)
        decay_at = episode_decay(self.last_internalize, t, self.period,
                                 self.window)
        if decay_at is not None and self._ooe_decay_at is None:
            eff.alarms.append(_OOE_ENTERED)
        elif decay_at is None and self._ooe_decay_at is not None:
            eff.exited_ooe = True
        self._ooe_decay_at = decay_at
        self.last_internalize = t
        insort(self.ring, t)
        if len(self.ring) >= self.n:
            vic.set_line_mask(self.line, True, t)
            self._defense = _WINDOW_MASKED
            self.window_timer = self.ring[0] + self.window
            eff.alarms.append(_WINDOW_BOUND_REACHED)
        return eff

    def handle_window_timer(self, vic: VicState, t: int) -> TimerEffect:
        """Decide fault or unmask when the sliding window closes.

        Accepts t at or after the armed expiry so windows anchored at
        backfilled timestamps can close late but deterministically.
        """
        if self.window_timer is None or t < self.window_timer:
            raise MonitorError(
                f"line {self.line}: window timer not due at t={t}"
            )
        if self._defense is None:
            raise MonitorError(
                f"line {self.line}: window timer fired while unmasked"
            )
        eff = TimerEffect()
        self._prune(t)
        _, delta = vic.held(self.line)
        if self._defense is _WINDOW_MASKED:
            if delta == 0:
                self._unmask(vic, t)
                eff.unmasked = True
            else:
                eff.alarms.append(_SENSOR_FAULT)
                self._defense = _FAULTY
                if self.fault_policy is _AUTO_RESUME:
                    vic.set_line_mask(self.line, True, t)
                    self.window_timer = t + self.window
                else:
                    self.window_timer = None
        elif delta < self.n:
            # auto-resume probe: a full window stayed below the bound
            self._unmask(vic, t)
            eff.unmasked = True
            eff.alarms.append(_SENSOR_RESUMED)
        else:
            vic.set_line_mask(self.line, True, t)
            self.window_timer = t + self.window
        return eff

    def _unmask(self, vic: VicState, t: int) -> None:
        vic.set_line_mask(self.line, False, t)
        self.window_timer = None
        self._defense = None
        self.decay(t)


class IplIndex(NamedTuple):
    """What compute_ipl bisects (see ipl_index)."""

    priorities: List[int]
    levels: List[int]


def ipl_index(lines: Iterable[Tuple[int, int]]) -> IplIndex:
    """The index compute_ipl bisects, from each line's task importance
    and the priority the line's next released job would get: the
    priorities in ascending order, and for each position the least
    importance of the lines from there on, with the greatest importance
    plus one past the end (0 when there are no lines)."""
    ordered = sorted(lines, key=itemgetter(1))
    importances = [imp for imp, _ in ordered]
    top = max(importances) + 1 if importances else 0
    levels = list(accumulate(reversed(importances), min, initial=top))
    levels.reverse()
    return IplIndex([prio for _, prio in ordered], levels)


def compute_ipl(running_priority: Optional[int], index: IplIndex) -> int:
    """Interrupt priority level that suppresses lines whose next job
    would not preempt the running job.

    running_priority is the running job's priority, or None when the
    processor is idle; index is ipl_index over the lines, each given as
    its task's importance and the priority the line's next released job
    would get. When nothing runs, index is not read.

    Device lines carry irq priority importance + 1, so a level L
    suppresses exactly the lines with importance below L. The level is
    set to the importance of the least important task that would still
    preempt, keeping that task's line enabled and silencing everything
    strictly less important. The rule is deliberately imperfect: a
    non-preempting line at or above the bound stays enabled, and
    over-suppressed lines are corrected at the next schedule point via
    their counters.

    The lines that would preempt are those whose priority lies above
    running_priority: a suffix of the index, found by one bisection.
    The level is the least importance in that suffix, or the greatest
    importance plus one when it is empty, so with no lines at all the
    level is 0.
    """
    if running_priority is None:
        return 0
    priorities, levels = index
    return levels[bisect_right(priorities, running_priority)]
