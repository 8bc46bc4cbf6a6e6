"""Command line interface.

Three subcommands:

    run    simulate a scenario, write the trace CSV and metrics JSON
    check  exhaustive feasibility under admissible arrival patterns
    gantt  render a trace CSV as a schedule chart (csv or svg)

Exit codes:

    0  success (for run: no deadline miss; sanctioned drops are fine)
    1  unreadable or invalid input, or an output that cannot be written
    2  run finished with at least one deadline miss
    3  run finished with a sensor declared faulty (and no miss)
    4  check found a violating arrival pattern (witness written)
    5  check refused the instance: enumeration bounds exceeded

Scenario files are strict JSON. Each object is read through the fields of
the dataclass it becomes (Scenario, Task, Policy, a workload spec): a
field without a default is a required key, the field's annotation picks
the check on its value, and any other key is refused. Task fields keep
their short keys (C, T, D, n, W). Two inputs that would drop a value
without a word are refused as well: a key repeated within one object,
and a job_priority_overrides key that is not the canonical spelling of
an integer ("00", " 1", "+1", "1_0").
"""

import argparse
import csv
import dataclasses
import errno
import functools
import io
import json
import os
import sys
from enum import Enum
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from .engine import (
    ALARM,
    COMPLETE,
    CSV_HEADER,
    DROP,
    Burst,
    Engine,
    Explicit,
    IPL_SET,
    MASK,
    MISS,
    PREEMPT,
    Periodic,
    Policy,
    RELEASE,
    START,
    Scenario,
    ScenarioError,
    Sporadic,
    Storm,
    TIMER_SET,
    UNMASK,
    _validate_scenario,
)
from .feasibility import BoundsExceeded, FeasibilityError, check_ooe_feasible
from .model import FIELD_RULES, INFINITE_PERIOD, Task, TaskSet

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISS = 2
EXIT_FAULT = 3
EXIT_VIOLATION = 4
EXIT_BOUNDS = 5


# strict scenario parsing: each JSON object is read through the fields of
# the dataclass it becomes, and unknown keys are rejected at every level
# so a typo cannot silently fall back to a default


# the scalar readers test a value with the rule the library gate applies
# to its annotation (model.FIELD_RULES), as the gate does, and refuse it
# in their own words
def _expect(noun: str, annotation):
    accepts, _, exact = FIELD_RULES[annotation]

    def read(value, where: str, key: str):
        if type(value) not in exact and not accepts(value):
            raise ScenarioError(
                [f"{where}.{key}: expected {noun}, got {value!r}"])
        return value
    return read


_as_int = _expect("an integer", int)
_as_bool = _expect("a boolean", bool)
_as_str = _expect("a string", str)
_is_number, _, _NUMBERS = FIELD_RULES[float]


def _as_float(value, where: str, key: str) -> float:
    if type(value) not in _NUMBERS and not _is_number(value):
        raise ScenarioError([f"{where}.{key}: expected a number"])
    return float(value)


def _as_option(enum, value, where: str, key: str):
    raw = _as_str(value, where, key)
    try:
        return enum(raw)
    except ValueError:
        raise ScenarioError(
            [f"{where}.{key}: unknown option '{raw}'"]) from None


def _as_int_tuple(value, where: str, key: str) -> Tuple[int, ...]:
    if not isinstance(value, list):
        raise ScenarioError([f"{where}.{key}: expected a list"])
    return tuple(_as_int(v, where, key + "[]") for v in value)


def _as_overrides(value, where: str, key: str) -> Dict[int, int]:
    if not isinstance(value, dict):
        raise ScenarioError([f"{where}.{key}: expected an object"])
    out = {}
    for k, v in value.items():
        try:
            seq = int(k)
            if str(seq) != k:  # one spelling per index, so none collide
                raise ValueError
        except (TypeError, ValueError):
            raise ScenarioError([f"{where}.{key}: bad key {k!r}"]) from None
        out[seq] = _as_int(v, where, f"{key}[{k}]")
    return out


def _as_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError([f"{what} must be an object, got {value!r}"])
    return value


def _as_tasks(value, where: str, key: str) -> TaskSet:
    if not isinstance(value, list) or not value:
        raise ScenarioError([f"{where}.{key}: expected a non-empty list"])
    tasks = []
    for obj in value:
        task = f"task '{_as_object(obj, 'task entry').get('id', '?')}'"
        try:
            tasks.append(_read(Task, obj, task))
        except ValueError as exc:  # from Task's own checks
            raise ScenarioError([str(exc)]) from None
    return TaskSet(tasks)


_WORKLOAD_KINDS = {cls.__name__.lower(): cls
                   for cls in (Periodic, Sporadic, Burst, Storm, Explicit)}


def _as_workload(value, where: str, key: str) -> List[Tuple[str, object]]:
    if not isinstance(value, list):
        raise ScenarioError([f"{where}.{key}: expected a list"])
    workload = []
    for obj in value:
        for name in ("kind", "line"):
            if name not in _as_object(obj, "workload entry"):
                raise ScenarioError(
                    [f"workload entry: missing required key '{name}'"])
        kind = _as_str(obj["kind"], "workload", "kind")
        line = _as_str(obj["line"], "workload", "line")
        entry = f"workload for line '{line}'"
        if kind not in _WORKLOAD_KINDS:
            raise ScenarioError([f"{entry}: unknown workload kind '{kind}'"])
        spec = _read(_WORKLOAD_KINDS[kind], obj, entry, ("kind", "line"))
        workload.append((line, spec))
    return workload


# a field's JSON key, where it is not the field's name
_KEYS = {
    Task: {"wcet": "C", "period": "T", "deadline": "D",
           "envelope_n": "n", "envelope_w": "W"},
    Scenario: {"task_set": "tasks"},
}

# the fields read by hand; every other field's annotation picks its reader
_HAND_READERS = {
    (Task, "period"): lambda value, where, key: INFINITE_PERIOD
        if value is None or value == "inf" else _as_int(value, where, key),
    (Scenario, "task_set"): _as_tasks,
    (Scenario, "policy"): lambda value, where, key: _read(
        Policy, _as_object(value, "policy"), "policy"),
    (Scenario, "workload"): _as_workload,
    (Scenario, "horizon"): lambda value, where, key:
        None if value is None else _as_int(value, where, key),
}

_READERS = {
    int: _as_int, Optional[int]: _as_int, bool: _as_bool, str: _as_str,
    float: _as_float, Tuple[int, ...]: _as_int_tuple,
    Mapping[int, int]: _as_overrides,
}


def _reader(annotation):
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return functools.partial(_as_option, annotation)
    try:
        return _READERS[annotation]
    except KeyError:
        raise TypeError(f"no scenario reader for {annotation!r}") from None


@functools.lru_cache(maxsize=None)
def _schema(cls, known: Tuple[str, ...] = ()):
    """The fields of the dataclass cls as (JSON key, field name, reader,
    required) tuples, and the keys its JSON object may hold: the fields'
    and the known ones, which the caller reads."""
    keys = _KEYS.get(cls, {})
    fields = tuple(
        (keys.get(f.name, f.name), f.name,
         _HAND_READERS.get((cls, f.name)) or _reader(f.type),
         f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )
    return fields, frozenset(f[0] for f in fields).union(known)


def _read(cls, obj: dict, where: str, known: Tuple[str, ...] = ()):
    fields, allowed = _schema(cls, known)
    if not allowed.issuperset(obj):
        extras = ", ".join(sorted(set(obj) - allowed))
        raise ScenarioError([f"{where}: unknown key(s) {extras}"])
    values = {}
    for key, name, read, required in fields:
        if key in obj:
            values[name] = read(obj[key], where, key)
        elif required:
            raise ScenarioError([f"{where}: missing required key '{key}'"])
    return cls(**values)


def parse_scenario(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    return _read(Scenario, obj, "scenario")


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ScenarioError([f"scenario: duplicate key '{key}'"])
        seen.add(key)
    return dict(pairs)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"cannot read scenario file: {exc}"]) from None
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError([f"scenario is not valid JSON: {exc}"]) from None
    return parse_scenario(obj)


# subcommands


def _written(what: str, write, path) -> bool:
    """write(path) unless path is None; on failure print why, return False."""
    try:
        if path is not None:
            write(path)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        engine = Engine(scenario)
        trace, metrics = engine.run()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not (_written("trace file", trace.write_csv, args.trace)
            and _written("metrics file", metrics.write_json, args.metrics)):
        return EXIT_INVALID
    if args.verbose:
        for rec in trace.of_kind(IPL_SET, TIMER_SET):
            print(
                f"t={rec.time} {rec.kind} line={rec.line} {rec.detail}",
                file=sys.stderr,
            )
        print(f"steps={engine.steps} ticks={engine.horizon + 1} "
              f"entries={trace.entry_count}", file=sys.stderr)
    misses = sum(m["misses"] for m in metrics.per_task.values())
    drops = sum(m["drops"] for m in metrics.per_task.values())
    faults = sum(
        1 for a in metrics.alarms if a["kind"] == "sensor_fault"
    )
    print(
        f"horizon={engine.horizon} records={len(trace)} "
        f"misses={misses} drops={drops} sensor_faults={faults}"
    )
    if misses:
        return EXIT_MISS
    if faults:
        return EXIT_FAULT
    return EXIT_OK


def _creatable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise when
    its directory is missing or cannot be written, or it is or names a
    directory, without creating it. open refuses a name that ends in a
    separator as a directory, whether or not anything of that name
    exists, and before it checks permission; abspath drops the separator,
    so the directory tested is the one that holds the name."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif path.endswith((os.sep, os.altsep or os.sep)):
        code = errno.EISDIR
    elif not os.access(directory, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def cmd_check(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        # the check reads no workload, but refuses what run refuses
        _validate_scenario(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    witness_path = args.witness or str(
        Path(args.scenario).with_suffix(".witness.csv")
    )
    # a violation's witness is written after the sweep: refuse a path
    # that cannot be written before the sweep runs, creating no file
    if not _written("witness trace", _creatable, witness_path):
        return EXIT_INVALID
    try:
        result = check_ooe_feasible(
            scenario.task_set, scenario.policy, scenario.horizon
        )
    except BoundsExceeded as exc:
        print(f"bounds exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except (ScenarioError, FeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if result.vacuous:
        print(
            f"note: no deadline can fall due within horizon "
            f"{result.horizon}, so the check holds vacuously",
            file=sys.stderr,
        )
    if not result.patterns_checked:  # vacuous over a bound: not counted
        print(
            f"Feasible: no deadline can fall due within horizon "
            f"{result.horizon} (combinations not counted)"
        )
        return EXIT_OK
    if args.verbose:
        print(
            f"combinations={result.patterns_checked} "
            f"ticks={result.ticks_simulated} of "
            f"{result.patterns_checked * (result.horizon + 1)} "
            f"patterns_built={result.patterns_built} "
            f"snapshots={result.snapshots}",
            file=sys.stderr,
        )
    if result.feasible:
        print(
            f"Feasible: {result.patterns_checked} admissible pattern "
            f"combinations over horizon {result.horizon}, no deadline miss"
        )
        return EXIT_OK
    if not _written("witness trace", result.witness_trace.write_csv,
                    witness_path):
        return EXIT_INVALID
    pattern = {
        tid: list(times) for tid, times in result.witness_pattern.items()
    }
    print(
        f"Violation: pattern {json.dumps(pattern, sort_keys=True)} "
        f"(combination {result.patterns_checked}) misses a deadline; "
        f"witness trace written to {witness_path}"
    )
    return EXIT_VIOLATION


# gantt rendering


GANTT_HEADER = ["task", "start", "end", "kind"]


def _read_trace_csv(path) -> List[dict]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ValueError(f"cannot read trace file: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ValueError(f"trace line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(
            f"not a trace CSV: expected header {','.join(CSV_HEADER)}"
        )
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"trace line {i}: expected 6 fields")
        try:
            time = int(row[0])
        except ValueError:
            raise ValueError(
                f"trace line {i}: bad time value {row[0]!r}"
            ) from None
        out.append(
            {
                "time": time,
                "kind": row[1],
                "line": row[2],
                "task": row[3],
                "job": row[4],
                "detail": row[5],
            }
        )
    return out


def build_gantt_rows(records: List[dict]) -> List[Tuple[str, int, int, str]]:
    """Flatten a trace into chart rows (task, start, end, kind).

    Run bars span from a START to the next PREEMPT, COMPLETE, MISS or
    DROP of the same job; mask bars span MASK to UNMASK per line. Point
    events (release, deadline, drop, miss, alarms) have start == end.
    """
    if not records:
        return []
    t_end = max(r["time"] for r in records)
    rows: List[Tuple[str, int, int, str]] = []
    open_run: Dict[Tuple[str, str], int] = {}
    open_mask: Dict[str, Tuple[str, int]] = {}
    for rec in records:
        kind = rec["kind"]
        task = rec["task"]
        t = rec["time"]
        if kind == START:
            open_run[(task, rec["job"])] = t
        elif kind in (PREEMPT, COMPLETE, MISS, DROP):
            start = open_run.pop((task, rec["job"]), None)
            if start is not None:
                rows.append((task, start, t, "run"))
            if kind == MISS:
                rows.append((task, t, t, "miss"))
            elif kind == DROP:
                rows.append((task, t, t, "drop"))
        if kind == RELEASE:
            rows.append((task, t, t, "release"))
            detail = rec["detail"]
            if detail.startswith("deadline="):
                d = int(detail.split("=", 1)[1])
                rows.append((task, d, d, "deadline"))
        elif kind == MASK:
            open_mask[rec["line"]] = (task, t)
        elif kind == UNMASK:
            opened = open_mask.pop(rec["line"], None)
            if opened is not None:
                rows.append((opened[0], opened[1], t, "mask"))
        elif kind == ALARM:
            rows.append((task, t, t, f"alarm_{rec['detail']}"))
    for (task, job), start in sorted(open_run.items()):
        rows.append((task, start, t_end, "run"))
    for line, (task, start) in sorted(open_mask.items()):
        rows.append((task, start, t_end, "mask"))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return rows


_SVG_COLORS = {
    "run": "#4c78a8",
    "mask": "#e45756",
    "release": "#54a24b",
    "deadline": "#222222",
    "miss": "#b2182b",
    "drop": "#f58518",
}


def render_gantt_svg(rows: List[Tuple[str, int, int, str]]) -> str:
    """A small, self-contained chart: one lane per task, run and mask
    bars, tick marks for point events."""
    from xml.sax.saxutils import escape  # ~40 ms: kept off start-up

    tasks = sorted({r[0] for r in rows if r[0]})
    t_max = max((r[2] for r in rows), default=0)
    t_max = max(t_max, 1)
    left, top, lane_h, px = 120, 30, 28, max(8, 720 // t_max)
    width = left + t_max * px + 40
    height = top + lane_h * len(tasks) + 50
    lane = {task: top + i * lane_h for i, task in enumerate(tasks)}

    def x(t):
        return left + t * px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for task in tasks:
        y = lane[task]
        parts.append(
            f'<text x="4" y="{y + 18}" fill="#222">{escape(task)}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y + lane_h - 2}" x2="{x(t_max)}" '
            f'y2="{y + lane_h - 2}" stroke="#dddddd"/>'
        )
    step = max(1, t_max // 12)
    axis_y = top + lane_h * len(tasks) + 14
    for t in range(0, t_max + 1, step):
        parts.append(
            f'<line x1="{x(t)}" y1="{top - 8}" x2="{x(t)}" '
            f'y2="{axis_y - 10}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{x(t)}" y="{axis_y}" fill="#555" '
            f'text-anchor="middle">{t}</text>'
        )
    for task, start, end, kind in rows:
        if task not in lane:
            continue
        y = lane[task]
        color = _SVG_COLORS.get(kind, "#9d755d")
        title = f"<title>{escape(f'{task} {kind} [{start},{end}]')}</title>"
        if kind == "run":
            parts.append(
                f'<rect x="{x(start)}" y="{y + 6}" '
                f'width="{max(1, (end - start) * px)}" height="12" '
                f'fill="{color}">{title}</rect>'
            )
        elif kind == "mask":
            parts.append(
                f'<rect x="{x(start)}" y="{y + 20}" '
                f'width="{max(1, (end - start) * px)}" height="4" '
                f'fill="{color}">{title}</rect>'
            )
        elif kind in ("release", "deadline"):
            parts.append(
                f'<line x1="{x(start)}" y1="{y + 2}" x2="{x(start)}" '
                f'y2="{y + lane_h - 4}" stroke="{color}" '
                f'stroke-dasharray="2,2">{title}</line>'
            )
        elif kind.startswith("alarm_"):
            parts.append(
                f'<circle cx="{x(start)}" cy="{y + 3}" r="3" '
                f'fill="#9d755d">{title}</circle>'
            )
        else:  # miss, drop
            parts.append(
                f'<circle cx="{x(start)}" cy="{y + 12}" r="4" '
                f'fill="{color}">{title}</circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_gantt(args) -> int:
    try:
        records = _read_trace_csv(args.trace)
        rows = build_gantt_rows(records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([GANTT_HEADER, *rows])
        text = buf.getvalue()
    else:
        text = render_gantt_svg(rows)
    if not _written("chart", lambda out: Path(out).write_text(
            text, encoding="utf-8"), args.out):
        return EXIT_INVALID
    print(f"wrote {len(rows)} chart rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envelopesim",
        description=(
            "Simulate event-triggered real-time systems with arrival "
            "envelopes, out-of-envelope defense, and importance-aware "
            "scheduling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--trace", help="write the event trace CSV here")
    p_run.add_argument("--metrics", help="write the metrics JSON here")
    p_run.add_argument(
        "--verbose", action="store_true",
        help="echo IPL and timer records, the step count and the trace's "
             "entry count to stderr",
    )
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser(
        "check", help="exhaustive feasibility under admissible arrivals"
    )
    p_check.add_argument("--scenario", required=True, help="scenario JSON file")
    p_check.add_argument(
        "--witness",
        help="witness trace path (default: <scenario>.witness.csv)",
    )
    p_check.add_argument(
        "--verbose", action="store_true",
        help="print to stderr the combinations checked "
             "(combinations=), the ticks simulated out of those of "
             "simulating every combination from t=0 (ticks= of), the "
             "arrival pattern lists built (patterns_built=) and the "
             "checker states saved (snapshots=)",
    )
    p_check.set_defaults(func=cmd_check)

    p_gantt = sub.add_parser("gantt", help="render a trace as a chart")
    p_gantt.add_argument("--trace", required=True, help="trace CSV file")
    p_gantt.add_argument("--out", required=True, help="output file")
    p_gantt.add_argument(
        "--format", choices=("csv", "svg"), default="csv",
        help="output format (default csv)",
    )
    p_gantt.set_defaults(func=cmd_gantt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
