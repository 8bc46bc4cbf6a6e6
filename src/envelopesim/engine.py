"""Deterministic discrete-event simulation of the whole system.

Time is measured in integer ticks, but the engine only visits the time
steps where something can happen (next-event time advance). At each
visited step t it runs, in a fixed order, the phases that have work at t:

1. due timers, if any (window expiries before episode decays, then line id);
2. the raises scheduled at t, in interrupt priority order;
3. internalization of whatever the controller delivers, at steps where
   a raise was delivered: no other step leaves a line pending;
4. finalization of the jobs whose deadline has come (shed), if any;
5. due timers, if any;
6. a schedule point, when anything above changed the ready set
   (dispatch plus, when enabled, recomputation of the interrupt
   priority level), repeated only after a round that backfilled, so
   at most lines + 1 rounds. It polls no monitor and no priority: the
   engine keeps the scheduler's elevated set in step with the recorded
   episodes where an internalization, a decay timer or a window timer's
   unmask opens, moves or ends one, and each line's next-job priority,
   updated at each release; a round recomputes the level only when the
   running job or one of those priorities changed, by one bisection over
   an index of the priorities, rebuilt at the first recomputation after
   a release moved one.

The engine then jumps to the earliest of the next raise on a line the
controller lets through (unmasked, above the interrupt priority level and
not pending), the earliest pending timer, the earliest deadline of an
active job, the running job's completion after the pending kernel time
is served, and the horizon. The ticks in between are executed in one
span: pending kernel time from interrupt top halves first, then the
dispatched job. No job is released or finalized inside a span, so
skipping those steps changes nothing; a completion is logged at the end
of its span, which is the next step. Nothing masks, unmasks or moves the
level inside a span either, so a raise tick in it meets only held lines:
its raises are taken on the way, as counters and records that land
before the span's completion. A line's raises at one tick are one run:
one raise_event call takes them all and classifies the first, and the
rest coalesce with it or meet the same hold. The run table hands the
raises over as maximal segments, stretches of ticks with the same runs,
so a storm or any other spec that raises on every tick costs nothing
per tick. A segment in a span is one held stretch: one raise_event call
per line takes the whole stretch, since every raise of it meets the
same hold. One method raises a step's tick and a held stretch alike and
builds their trace entries (_raise_runs).

The raises the controller holds back are one trace entry per held
stretch, not a RAISE and a SUPPRESS record each: a storm's trace is
mostly such pairs. The held runs of a step, between two delivered
raises, are a stretch of one tick. Trace expands stretches when its
records are read, counts their records as they are added, and writes
each tick of one as one joined string of CSV rows, in chunks of a
bounded number of rows, each field quoted where csv.writer quotes it.

Both deferral optimizations live here: the interrupt priority level and
the bottom-half mask. The controller counts what either holds back, and
the engine backfills that count when the hold ends.

Identical scenarios, including seeds, produce bit-identical traces. Every
tie is broken by a fixed rule: time, then timers before raises, then
interrupt priority descending, then line id.
"""

import csv
import heapq
import io
import json
import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .model import (
    Job,
    JobState,
    PriorityMap,
    Task,
    TaskSet,
    assign_importance_monotonic,
    explicit_priority_map,
    field_problems,
    hyperperiod,
    interrupt_order,
    validate_task_set,
)
from .monitor import (
    AlarmKind,
    FaultPolicy,
    LineMonitor,
    LineState,
    compute_ipl,
    ipl_index,
)
from .scheduler import Scheduler, job_priority
from .vic import InterruptLine, RaiseOutcome, VicState

# Trace record kinds. These names are part of the CSV interface.
RAISE = "RAISE"
INTERNALIZE = "INTERNALIZE"
SUPPRESS = "SUPPRESS"
MASK = "MASK"
UNMASK = "UNMASK"
IPL_SET = "IPL_SET"
TIMER_SET = "TIMER_SET"
RELEASE = "RELEASE"
NOTIFY = "NOTIFY"
START = "START"
PREEMPT = "PREEMPT"
COMPLETE = "COMPLETE"
MISS = "MISS"
DROP = "DROP"
ALARM = "ALARM"

CSV_HEADER = ["time", "kind", "line", "task", "job", "detail"]
_CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
# the characters csv.writer quotes a field for under "\n" line ends: "\r"
# differs between versions. writerow returns the length, 2 for c unquoted
_QUOTED = "".join([c for c in ',"\n\r' if csv.writer(
    io.StringIO(), lineterminator="\n").writerow(c) > 2])

# the SUPPRESS record's detail for each outcome that holds a raise back.
# The raise path reads an outcome's value through _value_ and keys on it:
# an Enum's value property and its hash are Python-level calls
_SUPPRESS_REASON = {
    RaiseOutcome.SUPPRESSED_MASKED.value: "masked",
    RaiseOutcome.SUPPRESSED_IPL.value: "ipl",
    RaiseOutcome.LATCHED_PENDING.value: "coalesced",
}
_DELIVERED = RaiseOutcome.DELIVERED_NOW.value
_COALESCED = RaiseOutcome.LATCHED_PENDING.value

# The members the run path reads, as module constants: EnumType defines
# __getattr__, so every attribute read on an Enum class is a Python-level
# call. _DEFENDED is a tuple, which tests members by identity.
_COMPLETED_JOB = JobState.COMPLETED
_MISSED_JOB = JobState.MISSED
_DROPPED_JOB = JobState.DROPPED
_DEFENDED = (LineState.WINDOW_MASKED, LineState.FAULTY)

# builds a TraceRecord from a tuple of all six fields in C, without the
# Python-level NamedTuple __new__
_record = tuple.__new__


class ScenarioError(Exception):
    """Scenario rejected before simulation. Carries every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class Periodic:
    offset: int
    period: int


@dataclass(frozen=True)
class Sporadic:
    min_sep: int
    density: float
    seed: int


@dataclass(frozen=True)
class Burst:
    at: int
    count: int
    spacing: int


@dataclass(frozen=True)
class Storm:
    start: int
    rate: int


@dataclass(frozen=True)
class Explicit:
    times: Tuple[int, ...]


WorkloadSpec = Union[Periodic, Sporadic, Burst, Storm, Explicit]
# the spec classes: isinstance tests a tuple of them in C, a Union in Python
_SPECS = WorkloadSpec.__args__


def _spec_problems(spec) -> List[str]:
    """Every problem of a workload spec, the one rule set for specs: an
    unknown kind; else the gate (model.field_problems) on its fields;
    else, only once they pass, the first of its value rules it breaks.
    _raises expands only a spec with none."""
    if not isinstance(spec, _SPECS):
        return [f"unknown workload spec {spec!r}"]
    where = f"{type(spec).__name__.lower()} workload: "
    problems = field_problems(spec, where)
    if problems:
        return problems
    if isinstance(spec, Periodic) and spec.period < 1:
        return [f"{where}period {spec.period} < 1"]
    if isinstance(spec, Sporadic):
        if not 0.0 < spec.density <= 1.0:
            return [f"{where}density {spec.density} outside (0, 1]"]
        if spec.min_sep < 1:
            return [f"{where}min_sep {spec.min_sep} < 1"]
    if isinstance(spec, Burst) and (spec.spacing < 0 or spec.count < 0):
        return [f"{where}negative count or spacing"]
    if isinstance(spec, Storm) and spec.rate < 1:
        return [f"{where}rate {spec.rate} < 1"]
    return problems


def _raises(spec: WorkloadSpec, horizon: int, seed: int = 0):
    """What a workload spec raises over [0, horizon), as (count, ticks):
    count raises at each of the ticks, in ascending order, an explicit
    spec's repeated time listed once per raise; every kind but sporadic
    and explicit as a range. The only place a spec is expanded, and only
    one that _spec_problems passes. A sporadic spec's ticks are drawn as
    they are read."""
    if isinstance(spec, Periodic):
        # a negative offset keeps its phase, as a burst's at does
        return 1, range(max(spec.offset, spec.offset % spec.period),
                        horizon, spec.period)
    if isinstance(spec, Sporadic):
        return 1, _sporadic_ticks(spec, horizon, seed)
    if isinstance(spec, Burst):
        at, step = spec.at, spec.spacing
        if not step:  # all count raises at the one tick at, if any
            return spec.count, (range(max(0, at), min(horizon, at + 1))
                                if spec.count else range(0))
        # a burst starting before 0 keeps its phase: at % step is its
        # first tick at or after 0
        return 1, range(at if at >= 0 else at % step,
                        min(horizon, at + spec.count * step), step)
    if isinstance(spec, Storm):
        return spec.rate, range(max(0, spec.start), horizon)
    return 1, sorted(t for t in spec.times if 0 <= t < horizon)


def _sporadic_ticks(spec: Sporadic, horizon: int, seed: int):
    """A sporadic spec's raise ticks, one random draw per tick passed
    over. The spec's own sub-seed keeps distinct lines decorrelated under
    one scenario seed."""
    draw = random.Random(f"{seed}:{spec.seed}").random
    density, gap = spec.density, spec.min_sep
    t = 0
    while t < horizon:
        if draw() < density:
            yield t
            t += gap
        else:
            t += 1


def generate_workload(spec: WorkloadSpec, horizon: int,
                      seed: int = 0) -> List[int]:
    """Expand a workload spec into a sorted list of raise times inside
    [0, horizon), a tick repeated once per raise at it. A spec that
    breaks a rule is refused, before any expansion, with a ScenarioError
    that carries its problems."""
    problems = _spec_problems(spec)
    if problems:
        raise ScenarioError(problems)
    count, ticks = _raises(spec, horizon, seed)
    return [t for t in ticks for _ in range(count)]


# The most raises a scenario's workload may expand to, counting a sporadic
# line's random draws, one per tick, as raises; _raise_count counts them
# before the engine reads any spec. The engine spends a few microseconds
# per raise and, once the records are read, holds one or two trace
# records per raise, so the limit keeps a run to seconds and hundreds of
# megabytes.
MAX_WORKLOAD_RAISES = 1_000_000


def _raise_count(spec: WorkloadSpec, count: int, ticks, horizon: int) -> int:
    """The raises the limit counts for spec, from its expansion (count,
    ticks): horizon for a sporadic spec, whose random draws, at most one
    per tick, bound its raises; else every raise generate_workload lists,
    a range's ticks counted from its ends, since len() overflows past
    sys.maxsize, an explicit spec's list from its length."""
    if type(ticks) is range:
        return count * max(0, (ticks.stop - ticks.start - 1) // ticks.step + 1)
    return horizon if isinstance(spec, Sporadic) else len(ticks)


@dataclass
class Policy:
    assignment: str = "importance_monotonic"  # or "explicit"
    fault_policy: FaultPolicy = FaultPolicy.PERMANENT
    ipl_optimization: bool = False
    mask_until_bottom_half: bool = False
    delta_th: int = 0


@dataclass
class Scenario:
    task_set: TaskSet
    policy: Policy = field(default_factory=Policy)
    workload: List[Tuple[str, WorkloadSpec]] = field(default_factory=list)
    horizon: Optional[int] = None
    seed: int = 0

    def resolved_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        max_w = max((t.envelope_w for t in self.task_set), default=0)
        return 2 * hyperperiod(self.task_set) + max_w


class TraceRecord(NamedTuple):
    time: int
    kind: str
    line: str = ""
    task: str = ""
    job: Optional[int] = None
    detail: str = ""


# The kind slot of a held-stretch entry. No record kind is this object,
# so a test by identity tells the two kinds of Trace entry apart
_HELD = object()


def _pair(t, line, task, value):
    """The RAISE and SUPPRESS records at tick t of one raise of a held
    run on line and task with the given outcome value."""
    return (_record(TraceRecord, (t, RAISE, line, task, None, value)),
            _record(TraceRecord, (t, SUPPRESS, line, task, None,
                                  _SUPPRESS_REASON[value])))


def _expand(entries) -> List[TraceRecord]:
    """Trace entries as records: each held stretch becomes, at each of
    its ticks, each run's count RAISE/SUPPRESS pairs, the two records of
    a run shared across its repeats."""
    out = []
    for entry in entries:
        if entry[1] is _HELD:
            last, _, first, runs, _, _ = entry
            for t in range(first, last + 1):
                for line, task, value, count in zip(*[iter(runs)] * 4):
                    out += _pair(t, line, task, value) * count
        else:
            out.append(entry)
    return out


def _backwards(first, last) -> EngineError:
    """The error for entry first appended after entry last, which ends
    at a later time, naming the records at the seam."""
    if first[1] is _HELD:
        first = _pair(first[2], *first[3][:3])[0]
    if last[1] is _HELD:
        last = _pair(last[0], *last[3][-4:-1])[1]
    return EngineError(f"trace time went backwards: {first} after {last}")


# The most CSV rows write_csv renders to text at once: it writes each
# chunk as it is made, so it never holds a string per row of the whole
# trace. to_csv_string renders this many entries at a time.
# Measured, not derived: on the bench batches, chunks of 128 to 2048 rows
# gave storm peaks within 1.5% of each other, and 1024 or more raised the
# peak of traces of about a thousand records by 14%
_CSV_CHUNK = 512

# The ticks the run table is filled for at once (see _run_pieces): a
# window's point ticks are all the table holds, and no piece crosses a
# window's end. Each fill costs a few microseconds per spec, which a
# window of 1024 ticks made about 4% of a long, sparse run. Intervals
# add nothing to the table, and one per window to the pieces
_RAISE_WINDOW = 4096
# the next tick of a spec that raises no more, later than every tick
_NEVER = float("inf")
# the head of a run table that has yielded its last segment
_END = (_NEVER, _NEVER, None)


def _run_table(sources):
    """The run table: the raises as maximal segments (first, last, runs)
    in ascending, disjoint tick order, where every tick from first to
    last has exactly these raises. runs is flat: line, count, line,
    count, ... in interrupt priority order. A line's raises at one tick
    are one run, whichever specs made them: each spec adds its count at
    each of its ticks. sources holds each spec's (line, count, ticks), in
    interrupt priority order, so each tick's runs keep that order.

    The segments are _run_pieces's pieces with each contiguous pair of
    equal runs joined, across window seams and point ticks too, so no two
    contiguous segments carry equal runs. A segment is yielded once the
    piece after it is read: the table reads at most one window ahead."""
    pieces = _run_pieces(sources)
    del sources  # _run_pieces drops the spec tuples once it has read them
    first, last, runs = next(pieces, _END)
    for lo, hi, more in pieces:
        if lo == last + 1 and more == runs:
            last = hi
        else:
            yield first, last, runs
            first, last, runs = lo, hi, more
    if runs is not None:
        yield first, last, runs


def _run_pieces(sources):
    """The run table's pieces, window by window: (first, last, runs) as
    _run_table's segments, but none crossing a window's end.

    A spec whose ticks are a range of step 1 (a storm, a burst of spacing
    1 or a period-1 spec) is an interval, which costs nothing per tick.
    Every other spec's ticks are points, filled into a dict one window of
    _RAISE_WINDOW ticks at a time, starting at the earliest tick a spec
    has not yet raised at, so an idle stretch costs no fills and the
    table holds at most a window's points. In a window where no interval
    is live, each point tick is a piece of its own, and its runs leave
    the table as it is yielded; in any other the window is cut (see
    _cut)."""
    rank = {}
    # per point spec: [its next tick, line, count, its later ticks], the
    # next tick _NEVER once it has none; per interval: [its next tick,
    # its end, line, count]
    heads = []
    spans = []
    for line, count, ticks in sources:
        rank.setdefault(line, len(rank))
        if type(ticks) is range and ticks.step == 1:
            if ticks:
                spans.append([ticks.start, ticks.stop, line, count])
        else:
            ticks = iter(ticks)
            heads.append([next(ticks, _NEVER), line, count, ticks])
    del sources  # a run holds only heads and spans, not the spec tuples
    start = min([head[0] for head in heads + spans], default=_NEVER)
    while start < _NEVER:
        end = start + _RAISE_WINDOW
        table = {}
        get = table.get
        start = _NEVER
        for head in heads:
            t = head[0]
            if t < end:
                _, line, count, ticks = head
                for t in chain((t,), ticks):
                    if t >= end:
                        break
                    runs = get(t)
                    if runs is None:
                        table[t] = [line, count]
                    elif runs[-2] == line:
                        runs[-1] += count
                    else:
                        runs += (line, count)
                else:
                    t = _NEVER
                head[0] = t
            if t < start:
                start = t
        live = [span for span in spans if span[0] < end]
        if live:
            yield from _cut(live, table, end, rank)
            for span in live:
                span[0] = end
            spans = [span for span in spans if span[0] < span[1]]
        else:
            for t in sorted(table):
                yield t, t, table.pop(t)
        for span in spans:
            if span[0] < start:
                start = span[0]


def _cut(live, points: dict, end: int, rank: dict):
    """The pieces of a window, up to end, where the intervals in live
    raise beside the point ticks' runs in points. The window is cut at
    the intervals' ends, clipped to it, and at each point tick and the
    tick after it. Each piece carries the runs of the intervals over it,
    a line's counts summed, and at a point tick also that tick's runs,
    merged by interrupt rank (rank) with a shared line's counts summed.
    Pieces with no runs are left out; the rest are yielded as they are,
    contiguous ones with equal runs too (_run_table joins them)."""
    cuts = {end}
    for a, stop, _, _ in live:
        cuts.add(a)
        if stop < end:
            cuts.add(stop)
    for t in points:
        cuts.add(t)
        cuts.add(t + 1)
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        runs = []
        for a, stop, line, count in live:
            if a <= lo < stop:
                if runs and runs[-2] == line:
                    runs[-1] += count
                else:
                    runs += (line, count)
        more = points.get(lo)
        if more is not None:
            if runs:
                counts = dict(zip(runs[::2], runs[1::2]))
                for line, count in zip(more[::2], more[1::2]):
                    counts[line] = counts.get(line, 0) + count
                runs = []
                for line in sorted(counts, key=rank.__getitem__):
                    runs += (line, counts[line])
            else:
                runs = more
        elif not runs:
            continue
        yield lo, hi - 1, runs


def _csv_rows(entries, head: str, memo: list) -> str:
    """head, then the CSV rows of entries joined as they are (see
    _stretch_rows for a held stretch's, and for memo)."""
    parts = [head]
    # in a held stretch's entry, t is its last tick, l its first and ta
    # its runs
    parts += [
        f"{t},{k},{l},{ta},{'' if j is None else j},{d}\n"
        if k is not _HELD else _stretch_rows(l, t, ta, memo)
        for t, k, l, ta, j, d in entries
    ]
    return "".join(parts)


def _stretch_rows(first: int, last: int, runs: tuple, memo: list) -> str:
    """The CSV rows of a held stretch: at each tick from first to last,
    each run's RAISE and SUPPRESS rows repeated count times. The rows of
    a tick differ from another tick's only in their time, so each tick's
    are one join of the rows' suffixes with the tick. memo keeps the last
    runs' suffixes: a storm's stretches mostly repeat the runs before."""
    if runs != memo[0]:
        reason = _SUPPRESS_REASON
        suffixes = [""]
        for line, task, value, count in zip(*[iter(runs)] * 4):
            suffixes += (f",RAISE,{line},{task},,{value}\n",
                         f",SUPPRESS,{line},{task},,{reason[value]}\n") * count
        memo[:] = runs, suffixes
    suffixes = memo[1]
    if first == last:  # a step's stretch: some 15% faster without the list
        return str(first).join(suffixes)
    return "".join([str(t).join(suffixes) for t in range(first, last + 1)])


def _csv_field(x) -> str:
    """x as csv.writer writes a field: None as empty, a float by repr,
    anything else by str, quoted when it holds a character of _QUOTED."""
    if not isinstance(x, str):
        x = "" if x is None else repr(x) if isinstance(x, float) else str(x)
    quoted = any([c in x for c in _QUOTED])
    return '"' + x.replace('"', '""') + '"' if quoted else x


def _csv_form(entries) -> list:
    """entries with each field, or a held stretch's line and task ids, as
    csv.writer writes it (see _csv_field); stretches stay unexpanded."""
    return [tuple(map(_csv_field, e)) if e[1] is not _HELD else
            (*e[:3], tuple([_csv_field(x) if i % 4 < 2 else x
                            for i, x in enumerate(e[3])]), *e[4:])
            for e in entries]


def _narrow(entry, size: int):
    """A held stretch as stretches of at most size rows each: of fewer
    ticks, or, where one tick has more than size rows, of one tick and
    one line's run of fewer raises, at least one raise (two rows)."""
    last, _, first, runs, rows, ticks = entry
    if rows * ticks <= size:
        yield entry
    elif rows <= size:
        step = size // rows
        for t in range(first, last + 1, step):
            end = min(t + step, last + 1)
            yield (end - 1, _HELD, t, runs, rows, end - t)
    else:
        most = max(1, size // 2)
        for t in range(first, last + 1):
            for line, task, value, count in zip(*[iter(runs)] * 4):
                for done in range(0, count, most):
                    n = min(most, count - done)
                    yield (t, _HELD, t, (line, task, value, n), 2 * n, 1)


def _pieces(entries, size: int):
    """entries in lists of at most size rows, held stretches wider than
    size narrowed first (see _narrow)."""
    piece, rows = [], 0
    for entry in entries:
        for part in _narrow(entry, size) if entry[1] is _HELD else (entry,):
            width = part[4] * part[5] if part[1] is _HELD else 1
            if piece and rows + width > size:
                yield piece
                piece, rows = [], 0
            piece.append(part)
            rows += width
    if piece:
        yield piece


class Trace:
    """A run's records in time order.

    Most records of a storm are RAISE and SUPPRESS pairs of raises the
    controller held back. The engine stores them as held stretches,
    built only in Engine._raise_runs: one per run table segment taken
    between two steps, and one per step's held runs between two
    delivered raises. An entry (last, _HELD, first, runs, rows, ticks)
    stands for, at every tick from first to last, each run's count such
    pairs. runs holds line, task, outcome value and count per line,
    flat, in interrupt order; rows is the records of one tick, and ticks
    last - first + 1.
    The time slot holds the last tick, which appending checks against.
    Only this class reads entries: `records` expands stretches when it is
    first read after an extend, len adds the records they stand for (a
    count the engine passes to extend), of_kind skips them unless asked
    for RAISE or SUPPRESS, and the CSV writes each tick of one as one
    joined string. Every other entry is a TraceRecord.

    write_csv writes the CSV in chunks of at most _CSV_CHUNK rows,
    weighing the entries as it goes (see _pieces), so it holds one
    chunk's text beside the entries; to_csv_string, which holds the whole
    text anyway, renders slices of _CSV_CHUNK entries. _write renders
    every chunk, held stretches unexpanded, from the entries as they are
    when the trace is plain, and from their CSV form (see _csv_form)
    otherwise. The engine marks its trace plain from its ids, not by
    scanning the text: in its records only a line or task id can hold a
    character of _QUOTED (kinds are constants and details are built from
    ints and fixed words; a detail that names a task, as a DROP cause
    would, must extend this rule to its own text). It adds through
    _add and _extend, which check no field's text. append, extend
    and reading records, whose list the caller may change, can bring in
    any string, so they drop the mark."""

    def __init__(self):
        self._entries: list = []
        # the records the held stretches in _entries stand for beyond one
        # per entry. Only extend adds a stretch, so this is 0 exactly
        # when _entries is all records
        self._extra = 0
        self._plain = False  # no field needs quoting: only the engine sets it

    @property
    def records(self) -> List[TraceRecord]:
        """The records, with held stretches expanded: the same list on
        every read, which the caller may change, so it drops the mark."""
        self._plain = False
        if self._extra:
            self._entries[:] = _expand(self._entries)
            self._extra = 0
        return self._entries

    @property
    def entry_count(self) -> int:
        """The entries the trace holds: each record, and each held
        stretch, however many records it stands for."""
        return len(self._entries)

    def append(self, rec: TraceRecord) -> None:
        """Append a record, whose fields may hold any string."""
        self._plain = False
        self._add(*rec)

    def _add(self, time, kind, line="", task="", job=None, detail=""):
        """Append the record of these fields: the engine's _log."""
        rec = _record(TraceRecord, (time, kind, line, task, job, detail))
        entries = self._entries
        if entries and time < entries[-1][0]:
            raise _backwards(rec, entries[-1])
        entries.append(rec)

    def extend(self, entries: list, extra: int = 0) -> None:
        """Append the entries of one time step, records of any strings
        and held stretches of one tick, or one held stretch. Only the
        first tick of the first is checked against the trace's last tick.
        extra is the records their stretches stand for beyond one per
        entry, rows * ticks - 1 each: the caller that builds the
        stretches counts them, and 0 fits entries that are all records."""
        self._plain = False
        self._extend(entries, extra)

    def _extend(self, entries: list, extra: int = 0) -> None:
        if not entries:
            return
        own = self._entries
        head = entries[0]
        if own and (head[2] if head[1] is _HELD else head[0]) < own[-1][0]:
            raise _backwards(head, own[-1])
        self._extra += extra
        own += entries

    def of_kind(self, *kinds, line: Optional[str] = None,
                task: Optional[str] = None) -> List[TraceRecord]:
        """The records of the given kinds (all when none is given), on
        the given line and task. A held stretch holds only RAISE and
        SUPPRESS records, so a question about neither reads the entries as
        they are."""
        if kinds and RAISE not in kinds and SUPPRESS not in kinds:
            entries = self._entries
        else:
            entries = _expand(self._entries)
        return [r for r in entries
                if (not kinds or r[1] in kinds)
                and (line is None or r[2] == line)
                and (task is None or r[3] == task)]

    def _write(self, write, chunks) -> None:
        """Pass write the CSV's text one chunk, a list of the entries, at a
        time, rendered with one memo for the call (see _stretch_rows): the
        entries themselves when the trace fits in one, else chunks."""
        head, memo = _CSV_HEADER_LINE, [None, None]
        for chunk in (self._entries,) if len(self) <= _CSV_CHUNK else chunks:
            write(_csv_rows(chunk if self._plain else _csv_form(chunk), head,
                            memo))
            head = ""

    def to_csv_string(self) -> str:
        """The trace as csv.writer writes it with "\n" line ends."""
        entries, size, texts = self._entries, _CSV_CHUNK, []
        self._write(texts.append, (entries[i:i + size]
                                   for i in range(0, len(entries), size)))
        return "".join(texts)

    def write_csv(self, path) -> None:
        """Write to_csv_string()'s text to path in chunks of at most
        _CSV_CHUNK rows (see _pieces), each as soon as it is rendered."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self._write(fh.write, _pieces(self._entries, _CSV_CHUNK))

    def __len__(self):
        """The number of records, held stretches counted without
        expanding."""
        return len(self._entries) + self._extra


# json's C encoder, with separators that mark the structure: it escapes
# every newline inside a string, so each newline in its text is one of
# these
_encode = json.JSONEncoder(sort_keys=True, separators=(",\n", ":\n")).encode
_NESTED = (dict, list, tuple)
# the rows of one encoder call: the encoder holds all its pieces at once
_JSON_BATCH = 8
_ROWS_APART = "\n    },\n    "  # a row's close, the comma, the next item
_ROW_OPEN = "{\n      "
_LIST_ROWS_APART = _ROWS_APART + _ROW_OPEN


def _mapping_rows(head: str, rows: dict, out: list) -> bool:
    r"""Append head, then the text json.dumps(indent=2) writes for a
    top-level mapping of rows, str keys and every row a non-empty dict,
    but with ",\n" between the items of a row. False, with out
    unfinished, when a row holds a dict or a list: each row then brings
    more than its own ":\n{", or a ":\n["."""
    out.append(head)
    if not rows:
        out.append("{}")
        return True
    out.append("{\n    ")
    keys = sorted(rows)  # no (key, row) pairs: they would all be held
    for i in range(0, len(keys), _JSON_BATCH):
        batch = {key: rows[key] for key in keys[i:i + _JSON_BATCH]}
        text = _encode(batch)
        if text.count(":\n{") != len(batch) or ":\n[" in text:
            return False
        if i:
            out.append(_ROWS_APART)
        out.append(text[1:-2].replace("},\n", _ROWS_APART)
                   .replace(":\n{", ": " + _ROW_OPEN).replace(":\n", ": "))
    out.append("\n    }\n  }")
    return True


def _list_rows(head: str, rows, out: list) -> bool:
    r"""_mapping_rows for a top-level list or tuple of rows: False when a
    row holds a dict or a list, which only then puts one after a ":\n"."""
    out.append(head)
    if not rows:
        out.append("[]")
        return True
    out.append("[\n    " + _ROW_OPEN)
    for i in range(0, len(rows), _JSON_BATCH):
        text = _encode(rows[i:i + _JSON_BATCH])
        if ":\n{" in text or ":\n[" in text:
            return False
        if i:
            out.append(_LIST_ROWS_APART)
        out.append(text[2:-2].replace("},\n{", _LIST_ROWS_APART)
                   .replace(":\n", ": "))
    out.append("\n    }\n  ]")
    return True


@dataclass
class Metrics:
    per_task: Dict[str, Dict[str, object]]
    per_line: Dict[str, Dict[str, int]]
    alarms: List[Dict[str, object]]
    total_top_half_time: int

    def to_dict(self) -> dict:
        return {
            "per_task": self.per_task,
            "per_line": self.per_line,
            "alarms": self.alarms,
            "total_top_half_time": self.total_top_half_time,
        }

    def to_json_string(self) -> str:
        r"""The metrics as json.dumps(self.to_dict(), indent=2,
        sort_keys=True) + "\n" writes them. With an indent, json uses its
        pure-Python encoder, so the fixed shape is written here by json's
        C encoder, a batch of rows per call, and joined. The shape:
        per_line and per_task are dicts with str keys, alarms is a list or
        tuple, every row under them is a non-empty dict, and neither a
        row's values nor total_top_half_time is a dict, list or tuple.
        Metrics of any other shape go through json.dumps.

        Why the text is the same: the C encoder writes what the Python
        one does for every key and scalar, and it escapes each newline
        inside a string, so every newline in its text is a separator:
        ",\n" between items, ":\n" after a key. A "}" right before ",\n"
        closes a dict, since a string ends in a quote and a number or a
        constant in neither brace; with rows holding only scalars, that
        dict is a row. ":\n{" opens a dict value: with every row a dict,
        a mapping's batch holds exactly one per row and a list's none,
        unless some row holds a dict; a list anywhere in a row shows as
        ":\n[". So the rows are known to hold only scalars before any
        text is kept, and the replacements rewrite only separators and
        the braces around rows, into the newlines and indents json.dumps
        writes at those depths. The ",\n" between the items of a row are
        the only ",\n" followed by a quote in the joined text, the rest
        having become ",\n" and an indent, and are indented last, in one
        pass over the whole text: the pieces it is joined from are then
        shorter than the text, and gone before it grows."""
        per_line, per_task = self.per_line, self.per_task
        alarms, total = self.alarms, self.total_top_half_time
        rows = (per_line.values(), per_task.values(), alarms) \
            if isinstance(per_line, dict) and isinstance(per_task, dict) \
            and isinstance(alarms, (list, tuple)) else None
        out = []
        if (rows is None or isinstance(total, _NESTED)
                or not all(map(isinstance, chain(per_line, per_task),
                               repeat(str)))
                or not all(map(isinstance, chain(*rows), repeat(dict)))
                or not all(chain(*rows))
                or not _list_rows('{\n  "alarms": ', alarms, out)
                or not _mapping_rows(',\n  "per_line": ', per_line, out)
                or not _mapping_rows(',\n  "per_task": ', per_task, out)):
            return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        out += ',\n  "total_top_half_time": ', _encode(total), "\n}\n"
        text = "".join(out)
        del out
        return text.replace(',\n"', ',\n      "')

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_json_string())


def _validate_scenario(scenario: Scenario) -> Tuple[int, list]:
    """Refuse a scenario that cannot be simulated, with a ScenarioError
    that carries every problem found, or else return what the engine is
    built from: the horizon, and each workload entry's raise source
    (line, count, ticks), its spec expanded by _raises once, with the
    scenario's seed. The gate goes first: every field of the scenario,
    its task set, tasks and policy must pass the rule of its annotation
    (model.field_problems), each workload entry must be a (line, spec)
    pair, and each spec must have no problem (_spec_problems), so the
    problems of every spec are reported at once, beside the task set's.
    The other value rules run only on what passed it."""
    problems = field_problems(scenario) \
        or field_problems(scenario.task_set, "task set: ")
    if problems:
        raise ScenarioError(problems)
    policy = scenario.policy
    problems = field_problems(policy)
    for entry in scenario.workload:
        if isinstance(entry, tuple) and len(entry) == 2 \
                and isinstance(entry[0], str):
            problems += _spec_problems(entry[1])
        else:
            problems.append(
                f"workload entry {entry!r} is not a (line, spec) pair")
    report = validate_task_set(scenario.task_set)
    if problems or not report.typed:
        raise ScenarioError(report.problems + problems)
    problems = report.problems
    lines = {t.line for t in scenario.task_set}
    for line, spec in scenario.workload:
        if line not in lines:
            problems.append(f"workload references unknown line '{line}'")
    if scenario.horizon is not None and scenario.horizon < 1:
        problems.append(f"horizon must be positive, got {scenario.horizon}")
    if policy.delta_th < 0:
        problems.append("delta_th must be >= 0")
    assignment = policy.assignment
    if assignment == "explicit":
        problems += [f"task {t.id}: explicit priority assignment requires "
                     f"a priority value"
                     for t in scenario.task_set if t.priority is None]
    elif assignment != "importance_monotonic":
        problems.append(f"unknown priority assignment '{assignment}'")
    if problems:
        raise ScenarioError(problems)
    horizon = scenario.resolved_horizon()
    sources, raises = [], 0
    for line, spec in scenario.workload:
        count, ticks = _raises(spec, horizon, scenario.seed)
        raises += _raise_count(spec, count, ticks, horizon)
        sources.append((line, count, ticks))
    if raises > MAX_WORKLOAD_RAISES:
        raise ScenarioError([
            f"the workload expands to {raises} raises (sporadic lines "
            f"count one draw per tick) over horizon {horizon}, above "
            f"the limit of {MAX_WORKLOAD_RAISES}"
        ])
    return horizon, sources


def select_priority_map(task_set: TaskSet, policy: Policy) -> PriorityMap:
    """The priorities policy.assignment selects, once validated."""
    if policy.assignment != "explicit":
        return assign_importance_monotonic(task_set)
    return explicit_priority_map(task_set)


class Engine:
    def __init__(self, scenario: Scenario):
        self.horizon, sources = _validate_scenario(scenario)
        self.scenario = scenario
        self.policy = scenario.policy
        self.task_set = scenario.task_set
        self.line_task: Dict[str, Task] = {t.line: t for t in self.task_set}
        # irq = importance + 1: level 0 must mean "nothing suppressed"
        # even for an importance-0 task under the strict > comparison
        self.vic = VicState(
            InterruptLine(t.line, t.importance + 1) for t in self.task_set
        )
        self.monitors: Dict[str, LineMonitor] = {
            t.line: LineMonitor(t, scenario.policy.fault_policy)
            for t in self.task_set
        }
        self.pmap = select_priority_map(self.task_set, scenario.policy)
        self.sched = Scheduler(self.task_set, self.pmap,
                               scenario.policy.delta_th)
        self.trace = Trace()
        # appends a record of its arguments (see Trace._add)
        self._log = self.trace._add
        # only an id can bring a character csv.writer quotes (see Trace)
        ids = "".join([t.line + t.id for t in self.task_set])
        self.trace._plain = not any([c in ids for c in _QUOTED])
        self.alarms: List[Dict[str, object]] = []
        order = interrupt_order(self.task_set)
        self._irq_rank = {task.line: i for i, task in enumerate(order)}
        # per line in interrupt priority order, what ipl_index reads: its
        # task's importance and the priority of the task's next job. Only
        # a release advances the task's seq, so only a release updates an
        # entry; when the value moves it drops the index, which the next
        # level computation rebuilds, and so marks the level stale
        self._irq_order: List[Tuple[int, int]] = [
            (task.importance, self.pmap.priority(task.id, 0))
            for task in order
        ]
        self._ipl_index = None
        # the running job the current level was computed for
        self._ipl_running: Optional[Job] = None
        # the run table (see _run_table) and its head, the next segment
        # (first, last, runs) or what is left of it, or _END; reading the
        # head fills the first window
        rank = self._irq_rank
        sources.sort(key=lambda source: rank[source[0]])
        self._table = _run_table(sources)
        del sources  # the table alone holds the spec tuples, and drops them
        self._head = next(self._table, _END)
        # (due, rank, line): window expiries (rank 0) before episode
        # decays (rank 1), then line id; a line has at most one window
        # entry, and equal decay entries are interchangeable
        self.timers: List[Tuple[int, int, str]] = []
        # the earliest deadline of the jobs active at the last _next_step
        self._due = _NEVER
        self.steps = 0
        # line -> the job whose finalization lifts its bottom-half mask;
        # the only record that a bottom-half mask is on
        self._bh_trigger: Dict[str, Job] = {}
        self._needs_dispatch = True
        self.line_internalized = {l: 0 for l in self.line_task}
        self.line_suppressed = {l: 0 for l in self.line_task}
        self.line_top_half = {l: 0 for l in self.line_task}

    # logging helpers

    def _alarm(self, time, line, kind: AlarmKind):
        self.alarms.append({"time": time, "line": line, "kind": kind.value})
        self._log(time, ALARM, line, self.line_task[line].id,
                  detail=kind.value)

    # main loop

    def run(self) -> Tuple[Trace, Metrics]:
        sched = self.sched
        timers = self.timers
        t = 0
        while True:
            self.steps += 1
            if timers and timers[0][0] <= t:
                self._process_timers(t)
            head = self._head
            if head[0] == t:  # take tick t off the head: its rest stays
                _, last, runs = head
                self._head = (t + 1, last, runs) if last > t \
                    else next(self._table, _END)
                # a drain clears every pending line, so only a delivered
                # raise leaves one for this step's drain
                if self._raise_runs(t, t, runs):
                    self._drain_deliverable(t)
            # a job released since _next_step took _due, by a drain or a
            # backfill, is released at t with a deadline D >= C >= 1 ticks
            # on: it falls due after t
            if self._due <= t:
                self._process_shed(t)
            if timers and timers[0][0] <= t:
                self._process_timers(t)
            if self._needs_dispatch:
                self._schedule_point(t)
                self._needs_dispatch = False
            if t == self.horizon:
                break
            until = self._next_step(t)
            if sched.running is None and sched.active \
                    and sched.kernel_pending < until - t:
                raise EngineError(
                    f"idle at t={t + sched.kernel_pending} with released "
                    f"work pending"
                )
            res = sched.execute_tick(t, until)
            if res.completed:
                job = res.job
                self._log(
                    until, COMPLETE, self.line_of(job), job.task_id, job.seq,
                    detail=f"response={job.completion - job.release}",
                )
                self._after_finalize(job, until)
                self._needs_dispatch = True
            t = until
        return self.trace, self._metrics()

    def _next_step(self, t: int) -> int:
        """The earliest time after t at which anything can happen: a
        raise the controller would deliver, a timer, a deadline, the
        running job's completion after the pending kernel time, or the
        horizon. It keeps the earliest active deadline as _due: the
        next step sheds only when that deadline has come. The raise ticks
        before the step, whose raises all meet held lines, are taken on
        the way: until the next step nothing masks, unmasks, moves the
        level or clears a pending bit, so they change only the counters
        and the trace, and their records land before the span's
        COMPLETE. For the same reason every raise of a line meets the
        same hold on the way, so each segment of the run table below the
        step, once its lines are found held, is one held stretch, raised
        at once (see _raise_runs). A segment reaching past the step
        leaves its rest, from the step on, as the head."""
        sched = self.sched
        due = _NEVER
        for job in sched.active:
            if job.abs_deadline < due:
                due = job.abs_deadline
        self._due = due
        until = self.horizon
        if self.timers and self.timers[0][0] < until:
            until = self.timers[0][0]
        if due < until:
            until = due
        running = sched.running
        if running is not None:
            done = t + sched.kernel_pending + running.remaining
            if done < until:
                until = done
        # every candidate lies after t (timers due at t have fired and
        # deadlines at t were shed); the floor keeps time moving anyway
        if until < t + 1:
            until = t + 1
        head = self._head
        if head[0] >= until:
            return until
        held = set()  # lines found held back; none changes before until
        while head[0] < until:
            first, last, runs = head
            for line in runs[::2]:
                if line not in held:
                    if self.vic.delivers(line):
                        self._head = head
                        return first
                    held.add(line)
            if last < until:
                head = next(self._table, _END)
            else:  # the segment reaches past until: its rest is the head
                head = (until, last, runs)
                last = until - 1
            self._raise_runs(first, last, runs)
        self._head = head
        return until

    def _raise_runs(self, first: int, last: int, runs: list) -> bool:
        """Raise runs, as the run table holds them, at every tick from
        first to last; True when a raise was delivered, which only a
        step's tick (first == last) can have: the ticks _next_step takes
        on the way meet only held lines. A run of count raises on one
        line per tick is one raise_event call, which classifies the first
        and finds every later one held as it is, or, after a delivery,
        coalesced. The held runs between two delivered raises are one
        held stretch (see Trace)."""
        ticks = last - first + 1
        if ticks == 1:  # the entry holds one int for both ends, not two
            last = first
        vic = self.vic
        suppressed = self.line_suppressed
        entries = []
        taken = []  # the held runs since the last delivered raise
        rows = extra = 0
        delivered = False
        pairs = iter(runs)
        for line, count in zip(pairs, pairs):
            task = self.line_task[line].id
            value = vic.raise_event(line, first, count * ticks)._value_
            if value == _DELIVERED:
                delivered = True
                if taken:
                    entries.append((last, _HELD, first, tuple(taken), rows,
                                    ticks))
                    extra += rows * ticks - 1
                    taken = []
                    rows = 0
                entries.append(_record(TraceRecord,
                                       (first, RAISE, line, task, None,
                                        value)))
                count -= 1
                if not count:
                    continue
                value = _COALESCED
            suppressed[line] += count * ticks
            taken += (line, task, value, count)
            rows += 2 * count
        if taken:
            entries.append((last, _HELD, first, tuple(taken), rows, ticks))
            extra += rows * ticks - 1
        self.trace._extend(entries, extra)
        return delivered

    def line_of(self, job: Job) -> str:
        return self.sched.tasks[job.task_id].line

    def _process_timers(self, t: int) -> None:
        timers = self.timers
        while timers and timers[0][0] <= t:
            _, rank, line = heapq.heappop(timers)
            mon = self.monitors[line]
            if rank == 0:
                eff = mon.handle_window_timer(self.vic, t)
                self._note_episode(mon)  # an unmask can retire it
                for kind in eff.alarms:
                    self._alarm(t, line, kind)
                if eff.unmasked:
                    self._log(t, UNMASK, line, self.line_task[line].id,
                              detail="window")
                    self._needs_dispatch = True
                if mon.window_timer is not None:  # re-armed
                    self._register_timer(mon.window_timer, "window", line, t)
            elif mon.decay(t):
                self.sched.elevated.discard(mon.task_id)
                self._needs_dispatch = True

    def _note_episode(self, mon: LineMonitor) -> None:
        if mon.has_episode():
            self.sched.elevated.add(mon.task_id)
        else:
            self.sched.elevated.discard(mon.task_id)

    def _register_timer(self, due: int, kind: str, line: str,
                        now: int) -> None:
        self._log(now, TIMER_SET, line, self.line_task[line].id,
                  detail=f"{kind}_expiry={due}")
        rank = 0 if kind == "window" else 1
        heapq.heappush(self.timers, (max(due, now), rank, line))

    def _drain_deliverable(self, t: int) -> None:
        while True:
            line = self.vic.poll_deliverable()
            if line is None:
                return
            reff = self._internalize(line, t, t, deferred=False)
            self.line_top_half[line] += self.sched.account_top_half(t)
            self._mask_bottom_half(line, t, t, reff.job or reff.notified)
            self._needs_dispatch = True

    def _internalize(self, line: str, now: int, ts: int, deferred: bool):
        """Internalize one occurrence of a line with event timestamp ts
        (equal to now except for backfilled occurrences). Charging the
        top half and the bottom-half mask are left to the caller."""
        mon = self.monitors[line]
        task = self.line_task[line]
        eff = mon.record_internalization(self.vic, ts)
        self._note_episode(mon)
        ooe = mon.ooe_active(now)
        self.line_internalized[line] += 1
        detail = f"ts={ts}"
        if deferred:
            detail += ";deferred"
        if ooe:
            detail += ";ooe"
        if eff.exited_ooe:
            detail += ";ooe_exit"
        self._log(now, INTERNALIZE, line, task.id, detail=detail)
        for kind in eff.alarms:
            self._alarm(now, line, kind)
        if mon.window_timer is not None:  # the window defense masked
            self._log(now, MASK, line, task.id, detail="window")
            self._register_timer(mon.window_timer, "window", line, now)
        decay_due = mon.decay_due()
        if decay_due is not None:
            self._register_timer(decay_due, "decay", line, now)
        reff = self.sched.on_internalize(task.id, now)
        if reff.job is not None:
            self._log(now, RELEASE, line, task.id, reff.job.seq,
                      detail=f"deadline={reff.job.abs_deadline}")
            i = self._irq_rank[line]
            nxt = self.pmap.priority(task.id, reff.job.seq + 1)
            if nxt != self._irq_order[i][1]:
                self._irq_order[i] = (task.importance, nxt)
                self._ipl_index = None
        elif reff.notified is not None:
            self._log(now, NOTIFY, line, task.id, reff.notified.seq,
                      detail="ooe" if ooe else "in_envelope")
        return reff

    def _mask_bottom_half(self, line: str, now: int, ts: int,
                          trigger: Optional[Job]) -> None:
        """In bottom-half mode, mask the line until trigger, the job its
        last internalization released or notified, is finalized. The hold
        starts at ts, the timestamp of the event that caused the mask. A
        line the controller already masks is left alone: that mask
        belongs to the window defense or a fault."""
        if (
            self.policy.mask_until_bottom_half
            and trigger is not None
            and not self.vic.lines[line].masked
        ):
            self.vic.set_line_mask(line, True, ts)
            self._log(now, MASK, line, self.line_task[line].id,
                      detail="bottom_half")
            self._bh_trigger[line] = trigger

    def _backfill(self, line: str, now: int, ts: int, count: int) -> int:
        """Internalize count occurrences that a hold deferred, all
        carrying ts, the tick the hold began (for a bottom-half mask, the
        masking event's timestamp). The earlier timestamp is a safe
        over-approximation: pressure on the window can only start sooner.
        Stops early if the window defense engages; leftovers stay
        counter-only."""
        mon = self.monitors[line]
        done = 0
        last_trigger = None
        for _ in range(count):
            if mon.state in _DEFENDED:
                break
            reff = self._internalize(line, now, ts, deferred=True)
            last_trigger = reff.job or reff.notified
            done += 1
        if done:
            self._needs_dispatch = True
        self._mask_bottom_half(line, now, ts, last_trigger)
        return done

    def _after_finalize(self, job: Job, now: int) -> None:
        line = self.line_of(job)
        if self._bh_trigger.get(line) is job:
            # a bottom-half-masked line is internalized only after this
            # release, so the window defense never took the mask over
            del self._bh_trigger[line]
            since, deferred = self.vic.set_line_mask(line, False, now)
            self._log(now, UNMASK, line, job.task_id, detail="bottom_half")
            if deferred:
                self._backfill(line, now, since, deferred)
            self._needs_dispatch = True

    def _process_shed(self, t: int) -> None:
        for job in self.sched.shed_check(t):
            kind = DROP if job.state is _DROPPED_JOB else MISS
            self._log(t, kind, self.line_of(job), job.task_id, job.seq,
                      detail=f"remaining={job.remaining}")
            self._after_finalize(job, t)
            self._needs_dispatch = True

    # schedule points

    def _schedule_point(self, t: int) -> None:
        # Dispatch and the IPL feed back into each other through the
        # backfill. A round that backfills nothing internalizes nothing
        # and fires no timer, so another would pick the same job and
        # compute the same level: the point ends. No raise happens inside
        # a point, and a line held back again starts its new hold at its
        # current counter, so each line is backfilled at most once: at
        # most lines + 1 rounds. A backfill repeats the round.
        #
        # The scheduler's elevated set, which the engine keeps, holds the
        # tasks with a recorded episode; no monitor is asked whether its
        # episode is live (ooe_active). The two agree at t: an episode
        # with a finite decay time d, a whole tick, gets a decay timer at
        # max(d, now) when it is recorded, so every episode that has
        # decayed by t retired in _process_timers(t), which runs before
        # the point and after each backfilling round; an episode with an
        # infinite decay time is live forever. The level depends only on
        # the running job and the cached line priorities: it stands while
        # neither moved, since only _apply_ipl sets it.
        sched = self.sched
        for _ in range(len(self.line_task) + 1):
            target = sched.pick_next(t)
            preempted, started = sched.dispatch(target, t)
            if preempted is not None:
                self._log(t, PREEMPT, self.line_of(preempted),
                          preempted.task_id, preempted.seq,
                          detail=f"remaining={preempted.remaining}")
            if started:
                self._log(t, START, self.line_of(target), target.task_id,
                          target.seq, detail=f"remaining={target.remaining}")
            if not self.policy.ipl_optimization or (
                    sched.running is self._ipl_running
                    and self._ipl_index is not None) \
                    or not self._apply_ipl(t):
                return
            self._process_timers(t)
        raise EngineError(f"schedule point at t={t} did not stabilize")

    def _apply_ipl(self, t: int) -> bool:
        """Set the level the running job calls for; True if it backfilled.
        The schedule point calls it only when the running job or a line
        priority moved since the level was last computed."""
        running = self.sched.running
        index = self._ipl_index
        self._ipl_running = running
        if index is None:
            index = self._ipl_index = ipl_index(self._irq_order)
        level = compute_ipl(
            None if running is None else job_priority(running), index)
        if level == self.vic.ipl:
            return False
        released = self.vic.set_ipl(level, t)
        self._log(t, IPL_SET, detail=f"level={level}")
        backfilled = False
        for line, since, held in released:
            if held > 0 and self._backfill(line, t, since, held):
                backfilled = True
        return backfilled

    # metrics

    def _metrics(self) -> Metrics:
        per_task = {}
        responses = {}
        for task in self.task_set:
            per_task[task.id] = {"released": 0, "completions": 0,
                                 "misses": 0, "drops": 0,
                                 "notifications": 0}
            responses[task.id] = []
        for j in self.sched.jobs:
            row = per_task[j.task_id]
            row["released"] += 1
            row["notifications"] += j.notifications
            if j.state is _COMPLETED_JOB:
                row["completions"] += 1
                responses[j.task_id].append(j.completion - j.release)
            elif j.state is _MISSED_JOB:
                row["misses"] += 1
            elif j.state is _DROPPED_JOB:
                row["drops"] += 1
        for task_id, times in responses.items():
            row = per_task[task_id]
            row["max_response"] = max(times) if times else None
            row["avg_response"] = sum(times) / len(times) if times else None
        per_line = {}
        for line in sorted(self.line_task):
            per_line[line] = {
                "raised": self.vic.lines[line].device_counter,
                "internalized": self.line_internalized[line],
                "suppressed": self.line_suppressed[line],
                "top_half_time": self.line_top_half[line],
                "mask_ops": self.vic.mask_ops[line],
            }
        return Metrics(
            per_task=per_task,
            per_line=per_line,
            alarms=self.alarms,
            total_top_half_time=sum(self.line_top_half.values()),
        )


def run_scenario(scenario: Scenario) -> Tuple[Trace, Metrics]:
    """Validate and simulate a scenario. Pure: equal inputs give
    byte-identical traces."""
    return Engine(scenario).run()
