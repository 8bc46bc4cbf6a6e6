"""Seeded input generators for the four benchmark workloads.

Every generator returns a batch of items: plain scenario dicts in the
format `envelopesim run` and `envelopesim check` read, so the program
receives only generated inputs. Item sizes are stratified (item i of n
draws its size from the i-th slice of the range) so that the batch's
total and tail cost barely move from one seed to the next, while every
other parameter is drawn freely.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

BATCH = 50
POOL_PATH = Path(__file__).resolve().parent / "check_pool.json"


@dataclass
class Item:
    id: str
    kind: str  # "run" or "check"
    scenario: dict
    # check items: the verdict and combination count recorded in the pool
    expect: Optional[dict] = None


def _stratified(rng, i, count, lo, hi):
    return int(lo + (hi - lo) * (i + rng.random()) / count)


def _log_stratified(rng, count, lo, hi):
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (i + rng.random()) / count))
            for i in range(count)]


def sparse_long(rng, count=BATCH) -> List[Item]:
    """1 to 3 periodic tasks, periods of hundreds to thousands of ticks,
    utilization under 1%, no IPL, no bottom-half masking, no storms.
    Periods are stratified on a log scale over all tasks of the batch, so
    the batch's job count, like its tick count, barely moves with the
    seed."""
    sizes = [1 + i % 3 for i in range(count)]
    periods = _log_stratified(rng, sum(sizes), 400, 3000)
    rng.shuffle(periods)
    items = []
    for i, k in enumerate(sizes):
        importances = rng.sample(range(1, 100), k)
        tasks, workload = [], []
        for j in range(k):
            period = periods.pop()
            tasks.append({
                "id": f"s{j}", "C": rng.randint(1, max(1, period // (150 * k))),
                "T": period, "importance": importances[j], "line": f"ls{j}",
                "n": 2, "W": period,
            })
            workload.append({"kind": "periodic", "line": f"ls{j}",
                             "offset": rng.randrange(period), "period": period})
        items.append({"tasks": tasks, "workload": workload,
                      "horizon": _stratified(rng, i, count, 2000, 8000)})
    return _batch("sparse_long", "run", rng, items)


def storm_defense(rng, count=BATCH) -> List[Item]:
    """3 to 6 lines, each under a storm of 1 to 3 raises per tick plus a
    spacing-1 burst, against tight envelopes. Auto-resume, one tick of
    top-half time per entry, bottom-half masking on every other item."""
    items = []
    for i in range(count):
        n_lines = 3 + i % 4
        horizon = _stratified(rng, i, count, 150, 450)
        importances = rng.sample(range(1, 100), n_lines)
        tasks, workload = [], []
        for j in range(n_lines):
            line = f"ld{j}"
            n = rng.randint(1, 3)
            tasks.append({
                "id": f"d{j}", "C": rng.randint(1, 3),
                "T": rng.randint(20, 80), "importance": importances[j],
                "line": line, "n": n, "W": rng.randint(max(n, 5), 30),
            })
            workload.append({"kind": "storm", "line": line,
                             "start": rng.randrange(horizon // 4),
                             "rate": 1 + (i + j) % 3})
            workload.append({"kind": "burst", "line": line,
                             "at": rng.randrange(horizon // 2),
                             "count": rng.randint(5, 30), "spacing": 1})
        items.append({
            "tasks": tasks, "workload": workload, "horizon": horizon,
            "policy": {"fault_policy": "auto_resume", "delta_th": 1,
                       "mask_until_bottom_half": i % 2 == 1},
        })
    return _batch("storm_defense", "run", rng, items)


def ipl_wide(rng, count=BATCH) -> List[Item]:
    """36 to 44 lines with explicit priorities, a fifth of them with a
    first-job override, sporadic arrivals, IPL on."""
    items = []
    for i in range(count):
        n_lines = 36 + i % 9
        importances = rng.sample(range(0, 200), n_lines)
        priorities = rng.sample(range(1, 400), n_lines)
        tasks, workload = [], []
        for j in range(n_lines):
            line = f"lw{j:02d}"
            period = rng.randint(100, 400)
            task = {
                "id": f"w{j:02d}", "C": rng.randint(1, 4), "T": period,
                "importance": importances[j], "line": line,
                "n": rng.randint(1, 3), "W": rng.randint(period // 2, period),
                "priority": priorities[j],
            }
            if rng.random() < 0.2:
                task["job_priority_overrides"] = {"0": rng.randint(1, 400)}
            tasks.append(task)
            workload.append({"kind": "sporadic", "line": line,
                             "min_sep": rng.randint(period // 2, period),
                             "density": round(rng.uniform(0.01, 0.05), 4),
                             "seed": rng.randrange(10 ** 6)})
        items.append({
            "tasks": tasks, "workload": workload,
            "horizon": _stratified(rng, i, count, 150, 450),
            "policy": {"assignment": "explicit", "ipl_optimization": True,
                       "delta_th": rng.randrange(2)},
        })
    return _batch("ipl_wide", "run", rng, items)


def check_adversarial(rng, count=BATCH) -> List[Item]:
    """2- and 3-task instances from the vetted pool: a quarter feasible
    (full sweeps), the rest violating (early exit plus witness replay).
    The seed relabels them: fresh names, and importances and priorities
    that keep every order and tie, so the verdict and combination count
    recorded in the pool still hold and the batch's cost does not depend
    on the seed."""
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    entries = pool["feasible"] + pool["violating"]
    n_feasible = count * len(pool["feasible"]) // len(entries)
    chosen = (_evenly_spaced(pool["feasible"], n_feasible)
              + _evenly_spaced(pool["violating"], count - n_feasible))
    items = [
        (_relabel(rng, {"tasks": e["tasks"], "policy": e["policy"]}),
         {"verdict": e["verdict"], "patterns": e["patterns"]})
        for e in chosen
    ]
    rng.shuffle(items)
    return [Item(f"check_adversarial-{i:03d}", "check", sc, expect)
            for i, (sc, expect) in enumerate(items)]


def _evenly_spaced(entries, count):
    return [entries[(2 * s + 1) * len(entries) // (2 * count)]
            for s in range(count)]


def _monotone(rng, values, lo, hi):
    """Map distinct values to fresh random ones in the same order."""
    distinct = sorted(set(values))
    fresh = sorted(rng.sample(range(lo, hi), len(distinct)))
    return dict(zip(distinct, fresh))


def _relabel(rng, scenario):
    tasks = scenario["tasks"]
    prefix = rng.choice("abcdefgh")
    imp = _monotone(rng, [t["importance"] for t in tasks], 0, 1000)
    prios = [t["priority"] for t in tasks if "priority" in t]
    for t in tasks:
        prios.extend(t.get("job_priority_overrides", {}).values())
    prio = _monotone(rng, prios, 1, 1000)
    out = []
    for j, t in enumerate(tasks):
        t = dict(t, id=f"{prefix}{j}", line=f"{prefix}l{j}",
                 importance=imp[t["importance"]])
        if "priority" in t:
            t["priority"] = prio[t["priority"]]
        if "job_priority_overrides" in t:
            t["job_priority_overrides"] = {
                k: prio[v] for k, v in t["job_priority_overrides"].items()
            }
        out.append(t)
    return dict(scenario, tasks=out)


def _batch(name, kind, rng, scenarios):
    rng.shuffle(scenarios)
    return [Item(f"{name}-{i:03d}", kind, sc) for i, sc in enumerate(scenarios)]


WORKLOADS: Dict[str, Callable[..., List[Item]]] = {
    "sparse_long": sparse_long,
    "storm_defense": storm_defense,
    "ipl_wide": ipl_wide,
    "check_adversarial": check_adversarial,
}


def generate(name: str, seed: int, count: int = BATCH) -> List[Item]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), count)
