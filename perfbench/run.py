"""envelopesim benchmark: four seeded workloads, host-time metrics, and a
per-layer split measured from outside the program.

    python3 perfbench/run.py --workload sparse_long --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Host time is wall time the simulator takes on this machine, reported at
the reference speed of reference.py so that stretches in which other
tenants slow the host do not show; simulated numbers are ticks of the
modelled machine. The model has no hardware reference results, so it is
unvalidated and no error figure is given.

One process, one thread. For each workload the benchmark

1. sets up: imports envelopesim in a fresh interpreter and generates the
   batch from the seed (repeated after every timed pass; the median is
   reported);
2. runs a checking pass: every item once through the output checks in
   oracles.py and, at the default seed, against the golden digests; then
   measures peak memory on the items with the longest traces under
   tracemalloc;
3. runs timed passes over the batch until --seconds have elapsed (with
   --trace 1 it alternates untraced and traced passes), timing the
   reference kernel between items, and takes each item's median host
   time over them at the reference speed;
4. hashes the 1000-scenario random suite and compares it with the value
   recorded in golden.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import gc
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import layers
import oracles
import reference
import suite
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
MEMORY_ITEMS = 3
KERNEL_EVERY = 3
SETUP_KERNELS = 3
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scenario_p50_ms": "ms",
    "scenario_tail_ms": "ms",
    "sim_ticks_per_s": "ticks/s",
    "trace_records_per_s": "records/s",
    "check_patterns_per_s": "patterns/s",
    "peak_mem_mb": "MB",
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import envelopesim.cli; "
    "print(time.perf_counter() - t)"
)


class Program:
    """The envelopesim modules, called through their module attributes so
    that the layer tracer's wrappers are seen."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import envelopesim
        import envelopesim.cli
        import envelopesim.feasibility

        if SRC not in Path(envelopesim.__file__).resolve().parents:
            raise ImportError(f"envelopesim imported from outside {SRC}")
        self.es = envelopesim
        self.cli = envelopesim.cli
        self.feasibility = envelopesim.feasibility

    def execute(self, item):
        """One item, as `envelopesim run --trace --metrics` or
        `envelopesim check` processes it. Returns the parsed scenario,
        the outputs, and the trace CSV (the witness for a violation,
        empty for a feasible check)."""
        scenario = self.cli.parse_scenario(item.scenario)
        if item.kind == "run":
            trace, metrics = self.es.run_scenario(scenario)
            csv_text = trace.to_csv_string()
            return scenario, (trace, metrics, metrics.to_json_string()), \
                csv_text
        result = self.feasibility.check_ooe_feasible(
            scenario.task_set, scenario.policy, scenario.horizon)
        csv_text = "" if result.feasible \
            else result.witness_trace.to_csv_string()
        return scenario, result, csv_text


@dataclass
class ItemRecord:
    """What the checking pass learns about one item."""

    trace_sha256: str
    golden: str
    ticks: int
    records: int
    patterns: int
    problems: List[str] = field(default_factory=list)


def digest(text: str) -> str:
    """SHA-256 of a text, or "-" for no text (a feasible check has no
    witness trace)."""
    if not text:
        return "-"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe(item, scenario, outputs, csv_text) -> ItemRecord:
    """Digests and work counts of one item's outputs, and the problems
    the output checks find."""
    if item.kind == "run":
        trace, metrics, metrics_json = outputs
        return ItemRecord(
            trace_sha256=digest(csv_text),
            golden=digest(metrics_json),
            ticks=scenario.resolved_horizon() + 1,
            records=len(trace),
            patterns=1,
            problems=oracles.check_run(item.scenario, trace, metrics),
        )
    result = outputs
    replays = 0 if result.feasible else 1
    canonical = json.dumps({
        "feasible": result.feasible,
        "patterns_checked": result.patterns_checked,
        "horizon": result.horizon,
        "witness_pattern": result.witness_pattern,
    }, sort_keys=True)
    return ItemRecord(
        trace_sha256=digest(csv_text),
        golden=digest(canonical),
        ticks=(result.patterns_checked + replays) * (result.horizon + 1),
        records=0 if result.feasible else len(result.witness_trace),
        patterns=result.patterns_checked,
        problems=oracles.check_verdict(item.expect, result),
    )


def sim_stats(kind, stats, outputs):
    """Accumulate the simulated statistics: exact counts, identical
    between commits that change only host speed."""
    if kind == "check":
        result = outputs
        stats["feasible" if result.feasible else "violating"] += 1
        stats["patterns_checked"] += result.patterns_checked
        if not result.feasible:
            stats["witness_misses"] += sum(
                1 for r in result.witness_trace.records if r.kind == "MISS")
        return
    trace, metrics, _ = outputs
    for per_task in metrics.per_task.values():
        for key in ("released", "completions", "misses", "drops",
                    "notifications"):
            stats[key] += per_task[key]
        if per_task["max_response"] is not None:
            stats["max_response"] = max(stats["max_response"],
                                        per_task["max_response"])
    for rec in trace.records:
        if rec.kind == "COMPLETE":
            stats["response_sum"] += int(rec.detail.split("=", 1)[1])
    for counters in metrics.per_line.values():
        for key, value in counters.items():
            stats[key] += value
    stats["alarms"] += len(metrics.alarms)


def set_up(name: str, seed: int, count: int):
    """One set-up: envelopesim imported in a fresh interpreter, then the
    batch generated in this one. Returns the batch and the seconds the
    two took at the reference speed, gauged just before and after."""
    speed = [reference.time_kernel() for _ in range(SETUP_KERNELS)]
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True)
    t0 = time.perf_counter()
    items = workloads.generate(name, seed, count)
    took = float(probe.stdout) + time.perf_counter() - t0
    speed += [reference.time_kernel() for _ in range(SETUP_KERNELS)]
    return items, took * reference.scale(speed)


def checking_pass(program, items, golden_items):
    """Every item once, through the output checks."""
    records: Dict[str, ItemRecord] = {}
    stats: Counter = Counter()
    failed = 0
    for item in items:
        try:
            scenario, outputs, csv_text = program.execute(item)
        except Exception as exc:  # an item that raises is a failed item
            records[item.id] = ItemRecord("-", "-", 0, 0, 0,
                                          [f"raised {exc!r}"])
            failed += 1
            continue
        rec = describe(item, scenario, outputs, csv_text)
        expected = golden_items.get(item.id)
        if expected is not None and expected != rec.golden:
            rec.problems.append("output differs from the golden copy")
        if rec.problems:
            failed += 1
        sim_stats(item.kind, stats, outputs)
        records[item.id] = rec
    return records, dict(stats), failed


def peak_memory(program, items, records) -> int:
    """Peak bytes allocated while running one item, under tracemalloc,
    over the MEMORY_ITEMS items with the most trace records. Items run
    one at a time and drop their outputs, and what an item holds at once
    is its trace (a checker sweep drops each pattern's run before the
    next), so the item with the longest trace sets the workload's peak;
    tracemalloc slows the engine several times over, so the rest are not
    measured."""
    biggest = sorted(items, key=lambda it: (-records[it.id].records, it.id))
    peak = 0
    for item in biggest[:MEMORY_ITEMS]:
        gc.collect()
        tracemalloc.start()
        try:
            program.execute(item)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak


def timed_pass(program, items, records, tracer=None):
    """Host time of each item at the reference speed; outputs are
    compared with the checking pass outside the timed region. The
    reference kernel runs before every KERNEL_EVERY-th item, and the
    median of its times in the pass sets the pass's scale. Each pass
    takes the items in a fresh order, so that an item's time does not
    hang on the one item that would always run before it."""
    gc.collect()
    times = {}
    speed = []
    failed = 0
    clock = time.perf_counter
    for k, item in enumerate(items):
        if k % KERNEL_EVERY == 0:
            speed.append(reference.time_kernel())
        if tracer is not None:
            tracer.item = item.id
        t0 = clock()
        try:
            _, _, csv_text = program.execute(item)
        except Exception:
            failed += 1
            continue
        times[item.id] = clock() - t0
        if digest(csv_text) != records[item.id].trace_sha256:
            failed += 1
    factor = reference.scale(speed)
    return {k: v * factor for k, v in times.items()}, failed


def tail_percentile(samples: int) -> float:
    """The highest percentile on the grid with at least 10 samples beyond
    it. The samples are the items of the batch, so every run of a
    workload reports the same percentile."""
    for p in TAIL_GRID:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def nearest_rank(ordered: List[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def measure(name: str, seed: int = DEFAULT_SEED, seconds: float = 10.0,
            trace: bool = False, count: int = workloads.BATCH,
            check_suite: bool = True, log=print) -> dict:
    """Run one workload and return its result object.

    Set-up is repeated after every timed pass, so that its median is
    taken over the same stretch of time as the timed metrics."""
    program = Program()
    items, took = set_up(name, seed, count)
    setups = [took]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden_items = golden["items"][name] \
        if seed == golden["default_seed"] and count == workloads.BATCH \
        else {}
    records, stats, failed = checking_pass(program, items, golden_items)
    attempted = len(items)
    good = [it for it in items if not records[it.id].problems]
    peak = peak_memory(program, good, records)

    tracer = layers.LayerTracer() if trace else None
    item_times = {it.id: [] for it in good}
    traced_times = {it.id: [] for it in good}
    snaps = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        order = list(good)
        random.Random(f"{name}:{seed}:{passes}").shuffle(order)
        times, bad = timed_pass(program, order, records)
        passes += 1
        for k, v in times.items():
            item_times[k].append(v)
        attempted += len(good)
        failed += bad
        again, took = set_up(name, seed, count)
        if again != items:
            raise RuntimeError(f"{name}: seed {seed} gave another batch")
        setups.append(took)
        if tracer is None:
            continue
        tracer.reset()
        tracer.install()
        try:
            times, bad = timed_pass(program, order, records, tracer)
        finally:
            tracer.uninstall()
        for k, v in times.items():
            traced_times[k].append(v)
        snaps.append(tracer.snapshot())
        attempted += len(good)
        failed += bad

    suite_sha = suite.suite_hash(program.es) if check_suite else None
    suite_ok = suite_sha is None or suite_sha == golden["suite_sha256"]

    per_pass = {
        "ticks": sum(records[it.id].ticks for it in good),
        "records": sum(records[it.id].records for it in good),
        "patterns": sum(records[it.id].patterns for it in good),
    }
    per_item = item_medians(item_times)
    wall = sum(per_item)
    tail_p = tail_percentile(len(per_item))
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "scenario_p50_ms": statistics.median(per_item) * 1e3,
        "scenario_tail_ms": nearest_rank(per_item, tail_p) * 1e3,
        "sim_ticks_per_s": per_pass["ticks"] / wall,
        "trace_records_per_s": per_pass["records"] / wall,
        "check_patterns_per_s": per_pass["patterns"] / wall,
        "peak_mem_mb": peak / 1e6,
    }
    result = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "item_times_s": item_times,
        "tail_percentile": tail_p,
        "tail_samples": len(per_item),
        "per_pass": per_pass,
        "sim_stats": stats,
        "suite_sha256": suite_sha,
        "suite_ok": suite_ok,
        "items": {k: {"trace_sha256": r.trace_sha256, "golden": r.golden,
                      "problems": r.problems} for k, r in records.items()},
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(snaps)
        result["per_layer"]["tracing_overhead"] = \
            sum(item_medians(traced_times)) / wall - 1.0
        result["calls_consistent"] = all(
            {k: v for k, v in s.items() if k.endswith(".calls")}
            == {k: v for k, v in snaps[0].items() if k.endswith(".calls")}
            for s in snaps)
        if not result["calls_consistent"]:
            failed += 1
            result["failed"] = failed
        result["spans"] = tracer.dump()
    report(result, log)
    return result


def item_medians(item_times) -> List[float]:
    """Each item's median host time over the timed passes, at the
    reference speed, sorted."""
    return sorted(statistics.median(times)
                  for times in item_times.values() if times)


def per_layer(snaps) -> dict:
    """Call counts of one pass (identical on every pass), and the median
    over traced passes of every time and ratio."""
    out = {}
    for key in snaps[0]:
        if key.endswith(".calls"):
            out[key] = snaps[0][key]
        else:
            out[key] = statistics.median(s[key] for s in snaps)
    return out


def report(result, log) -> None:
    name = result["workload"]
    for item_id, rec in result["items"].items():
        log(f"item {item_id} trace_sha256={rec['trace_sha256']}")
        for problem in rec["problems"]:
            log(f"item {item_id} FAILED: {problem}")
    log(f"sim_stats {name} {json.dumps(result['sim_stats'], sort_keys=True)}")
    if result["suite_sha256"] is not None:
        verdict = "match" if result["suite_ok"] else "MISMATCH"
        log(f"suite_sha256 {result['suite_sha256']} {verdict}")
    for metric, value in result["end_to_end"].items():
        log(f"{name} {metric} {value:.6g} {END_TO_END[metric]}")
    log(f"{name} failed_frac {result['failed'] / result['attempted']:.6g} "
        f"ratio")
    log(f"{name} scenario_tail_ms is p{result['tail_percentile']:g} over "
        f"{result['tail_samples']} items, each the median of "
        f"{result['passes']} timed passes")
    units = layers.per_layer_units()
    for metric, value in result.get("per_layer", {}).items():
        log(f"{name} {metric} {value:.6g} {units[metric]}")


def summary(result, trace: bool) -> dict:
    if trace:
        units = layers.per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0 and result["suite_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        Program()
    except ImportError as exc:
        print(f"error: cannot import envelopesim from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    OUT.mkdir(exist_ok=True)
    summaries = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        summaries[name] = summary(result, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(summaries[name], sort_keys=True))
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
