"""Seed-independent output checks, applied to every item of a batch.

They read only the trace records and metrics the program produced and
the scenario it was given, and return a list of problems (empty when the
item is correct).
"""

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List


def check_run(scenario: dict, trace, metrics) -> List[str]:
    """Sliding-window bound over INTERNALIZE timestamps on every line, and
    counter conservation raised = internalized + counter-only, with the
    per-line metrics matching the trace."""
    problems = []
    envelope = {t["line"]: (t["n"], t["W"]) for t in scenario["tasks"]}
    stamps: Dict[str, List[int]] = defaultdict(list)
    raised: Dict[str, int] = defaultdict(int)
    suppressed: Dict[str, int] = defaultdict(int)
    deferred: Dict[str, int] = defaultdict(int)
    for rec in trace.records:
        if rec.kind == "INTERNALIZE":
            ts = rec.detail.split(";")[0]
            stamps[rec.line].append(int(ts[3:]))
            if ";deferred" in rec.detail:
                deferred[rec.line] += 1
        elif rec.kind == "RAISE":
            raised[rec.line] += 1
        elif rec.kind == "SUPPRESS":
            suppressed[rec.line] += 1
    for line, (n, w) in envelope.items():
        worst = max_in_window(stamps[line], w)
        if worst > n:
            problems.append(
                f"line {line}: {worst} internalizations in one window of "
                f"{w} ticks, bound {n}")
        internalized = len(stamps[line])
        counter_only = suppressed[line] - deferred[line]
        if raised[line] != internalized + counter_only:
            problems.append(
                f"line {line}: raised {raised[line]} != internalized "
                f"{internalized} + counter-only {counter_only}")
        counters = metrics.per_line[line]
        if (counters["raised"], counters["internalized"]) \
                != (raised[line], internalized):
            problems.append(f"line {line}: metrics counters disagree with "
                            f"the trace")
    return problems


def max_in_window(stamps: List[int], w: int) -> int:
    """Largest number of timestamps inside any window (t - w, t]."""
    ordered = sorted(stamps)
    worst = 0
    for i, t in enumerate(ordered):
        # windows ending at an event time are the only ones that matter
        end = bisect_right(ordered, t, i)
        start = bisect_right(ordered, t - w)
        worst = max(worst, end - start)
    return worst


def check_verdict(expect: dict, result) -> List[str]:
    """The verdict and combination count recorded for the pool instance,
    and, for a violation, a MISS in the engine's witness replay."""
    problems = []
    verdict = "feasible" if result.feasible else "violating"
    if verdict != expect["verdict"]:
        problems.append(f"verdict {verdict}, expected {expect['verdict']}")
    if result.patterns_checked != expect["patterns"]:
        problems.append(f"{result.patterns_checked} patterns checked, "
                        f"expected {expect['patterns']}")
    if not result.feasible and not any(
            r.kind == "MISS" for r in result.witness_trace.records):
        problems.append("witness replay shows no MISS")
    return problems
