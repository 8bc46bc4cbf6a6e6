"""Build check_pool.json, the vetted instances behind check_adversarial.

The checker's cost is the number of admissible pattern combinations it
visits, and that number spans five orders of magnitude over small random
task sets. A freely random batch would make the workload's host time a
lottery, so instances are drawn once from a seeded random family and run
through the checker. Feasible ones with 400 to 2500 combinations and
violating ones that exit within 400 patterns are kept, sorted by cost,
and thinned to evenly spaced picks: 12 feasible and 38 violating. The
benchmark's seed relabels and reorders these; it does not change them.

    python3 perfbench/make_check_pool.py

Takes a few minutes; the output is deterministic.
"""

import json
import sys
import time
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from envelopesim import cli, hyperperiod  # noqa: E402
from envelopesim.feasibility import (  # noqa: E402
    EnumerationBounds,
    admissible_patterns,
    check_ooe_feasible,
)

FAMILY_SEED = 20251206
FEASIBLE_COMBOS = (400, 2500)
VIOLATING_MAX_PATTERNS = 400
WANT_FEASIBLE = 36
WANT_VIOLATING = 96
KEEP_FEASIBLE = 12
KEEP_VIOLATING = 38
PERIODS = (4, 6, 8, 12, 24)


def candidate(rng):
    """One 2- or 3-task instance whose hyperperiod fits the default
    horizon bound."""
    while True:
        k = rng.choice((2, 3))
        periods = [rng.choice(PERIODS) for _ in range(k)]
        if all(24 % p == 0 for p in periods):
            break
    importances = rng.sample(range(1, 20), k)
    explicit = rng.random() < 0.5
    priorities = rng.sample(range(1, 40), k)
    tasks = []
    for j, period in enumerate(periods):
        task = {
            "id": f"t{j}",
            "C": rng.randint(1, max(1, period // 3)),
            "T": period,
            "importance": importances[j],
            "line": f"l{j}",
            "n": rng.randint(1, 3),
            "W": rng.choice((max(1, period // 2), period, 2 * period)),
        }
        if explicit:
            task["priority"] = priorities[j]
            if rng.random() < 0.4:
                task["job_priority_overrides"] = {"0": rng.randint(1, 40)}
        tasks.append(task)
    policy = {
        "assignment": "explicit" if explicit else "importance_monotonic",
        "delta_th": rng.randrange(2),
    }
    return {"tasks": tasks, "policy": policy}


def combos(scenario):
    horizon = hyperperiod(scenario.task_set)
    total = 1
    for task in scenario.task_set:
        total *= len(admissible_patterns(task, horizon))
    return total


def evenly_spaced(entries, count):
    return [entries[(2 * s + 1) * len(entries) // (2 * count)]
            for s in range(count)]


def main():
    rng = random.Random(FAMILY_SEED)
    feasible, violating = [], []
    seen = set()
    while len(feasible) < WANT_FEASIBLE or len(violating) < WANT_VIOLATING:
        obj = candidate(rng)
        key = json.dumps(obj, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        try:
            scenario = cli.parse_scenario(obj)
            total = combos(scenario)
        except Exception:  # invalid draw: the family is broad on purpose
            continue
        if total == 0 or total > EnumerationBounds().max_patterns:
            continue
        if total > FEASIBLE_COMBOS[1] and len(violating) >= WANT_VIOLATING:
            continue
        if total > 20 * FEASIBLE_COMBOS[1]:
            continue
        try:
            t0 = time.perf_counter()
            result = check_ooe_feasible(
                scenario.task_set, scenario.policy, scenario.horizon
            )
            took = time.perf_counter() - t0
        except Exception:
            continue
        entry = dict(obj, combos=total, patterns=result.patterns_checked)
        if result.feasible:
            if FEASIBLE_COMBOS[0] <= total <= FEASIBLE_COMBOS[1] \
                    and len(feasible) < WANT_FEASIBLE:
                feasible.append(dict(entry, verdict="feasible"))
        elif result.patterns_checked <= VIOLATING_MAX_PATTERNS \
                and len(violating) < WANT_VIOLATING:
            violating.append(dict(entry, verdict="violating"))
        print(f"feasible={len(feasible)} violating={len(violating)} "
              f"last={result.feasible} {total} {took * 1000:.0f}ms",
              file=sys.stderr)
    feasible.sort(key=lambda e: e["combos"])
    violating.sort(key=lambda e: e["patterns"])
    out = {"family_seed": FAMILY_SEED,
           "feasible": evenly_spaced(feasible, KEEP_FEASIBLE),
           "violating": evenly_spaced(violating, KEEP_VIOLATING)}
    (HERE / "check_pool.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
