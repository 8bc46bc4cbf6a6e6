"""Command line interface.

Three subcommands:

    run    simulate a scenario, write the trace CSV and metrics JSON
    check  exhaustive feasibility under admissible arrival patterns
    gantt  render a trace CSV as a schedule chart (csv or svg)

Exit codes:

    0  success (for run: no deadline miss; sanctioned drops are fine)
    1  unreadable or invalid input
    2  run finished with at least one deadline miss
    3  run finished with a sensor declared faulty (and no miss)
    4  check found a violating arrival pattern (witness written)
    5  check refused the instance: enumeration bounds exceeded
"""

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

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
)
from .feasibility import BoundsExceeded, FeasibilityError, check_ooe_feasible
from .model import INFINITE_PERIOD, ResponseOption, Task, TaskSet
from .monitor import FaultPolicy

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISS = 2
EXIT_FAULT = 3
EXIT_VIOLATION = 4
EXIT_BOUNDS = 5


# strict scenario parsing: unknown keys are rejected at every level so a
# typo cannot silently fall back to a default


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


def parse_scenario(obj: dict) -> Scenario:
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


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError([f"cannot read scenario file: {exc}"]) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"scenario is not valid JSON: {exc}"]) from None
    return parse_scenario(obj)


# subcommands


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        engine = Engine(scenario)
        trace, metrics = engine.run()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.trace:
        trace.write_csv(args.trace)
    if args.metrics:
        metrics.write_json(args.metrics)
    if args.verbose:
        for rec in trace.of_kind(IPL_SET, TIMER_SET):
            print(
                f"t={rec.time} {rec.kind} line={rec.line} {rec.detail}",
                file=sys.stderr,
            )
        print(f"steps={engine.steps} ticks={engine.horizon + 1}",
              file=sys.stderr)
    misses = sum(m["misses"] for m in metrics.per_task.values())
    drops = sum(m["drops"] for m in metrics.per_task.values())
    faults = sum(
        1 for a in metrics.alarms if a["kind"] == "sensor_fault"
    )
    print(
        f"horizon={scenario.resolved_horizon()} records={len(trace)} "
        f"misses={misses} drops={drops} sensor_faults={faults}"
    )
    if misses:
        return EXIT_MISS
    if faults:
        return EXIT_FAULT
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    if args.verbose:
        print(
            f"combinations={result.patterns_checked} "
            f"ticks={result.ticks_simulated} of "
            f"{result.patterns_checked * (result.horizon + 1)}",
            file=sys.stderr,
        )
    if result.feasible:
        print(
            f"Feasible: {result.patterns_checked} admissible pattern "
            f"combinations over horizon {result.horizon}, no deadline miss"
        )
        return EXIT_OK
    witness_path = args.witness or str(
        Path(args.scenario).with_suffix(".witness.csv")
    )
    result.witness_trace.write_csv(witness_path)
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
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValueError(f"cannot read trace file: {exc}") from None
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
            f'<text x="4" y="{y + 18}" fill="#222">{task}</text>'
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
        title = f"<title>{task} {kind} [{start},{end}]</title>"
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
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(GANTT_HEADER)
        for row in rows:
            writer.writerow([row[0], str(row[1]), str(row[2]), row[3]])
        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
    else:
        Path(args.out).write_text(render_gantt_svg(rows), encoding="utf-8")
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
        help="echo IPL and timer records and the step count to stderr",
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
        help="print the combinations checked and the ticks simulated "
             "to stderr",
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
