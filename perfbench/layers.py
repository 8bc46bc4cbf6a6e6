"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each envelopesim module with
timing wrappers for the duration of a traced pass and restores them
afterwards; nothing in `src/` knows about it. Every call opens a span
(name, start, end, parent span, item id). Hot calls are aggregated per
(function, parent) as they close; item-level calls are also kept one by
one. A span's self time is its duration minus the time of its child
spans.
"""

import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

# (metric prefix, module, owner class or None, attribute, keep each span)
TARGETS = [
    ("cli.parse_scenario", "cli", None, "parse_scenario", True),
    ("model.validate_task_set", "model", None, "validate_task_set", False),
    ("model.priority", "model", "PriorityMap", "priority", False),
    ("vic.raise_event", "vic", "VicState", "raise_event", False),
    ("vic.set_line_mask", "vic", "VicState", "set_line_mask", False),
    ("vic.set_ipl", "vic", "VicState", "set_ipl", False),
    ("vic.poll_deliverable", "vic", "VicState", "poll_deliverable", False),
    ("monitor.record_internalization", "monitor", "LineMonitor",
     "record_internalization", False),
    ("monitor.handle_window_timer", "monitor", "LineMonitor",
     "handle_window_timer", False),
    ("monitor.decay", "monitor", "LineMonitor", "decay", False),
    ("monitor.ooe_active", "monitor", "LineMonitor", "ooe_active", False),
    ("monitor.compute_ipl", "monitor", None, "compute_ipl", False),
    ("scheduler.on_internalize", "scheduler", "Scheduler", "on_internalize",
     False),
    ("scheduler.set_elevated", "scheduler", "Scheduler", "set_elevated",
     False),
    ("scheduler.pick_next", "scheduler", "Scheduler", "pick_next", False),
    ("scheduler.dispatch", "scheduler", "Scheduler", "dispatch", False),
    ("scheduler.shed_check", "scheduler", "Scheduler", "shed_check", False),
    ("scheduler.execute_tick", "scheduler", "Scheduler", "execute_tick",
     False),
    ("engine.generate_workload", "engine", None, "generate_workload", False),
    ("engine.init", "engine", "Engine", "__init__", True),
    ("engine.run", "engine", "Engine", "run", True),
    ("engine.trace.append", "engine", "Trace", "append", False),
    ("engine.trace.to_csv", "engine", "Trace", "to_csv_string", True),
    ("engine.metrics.to_json", "engine", "Metrics", "to_json_string", True),
    ("feasibility.admissible_patterns", "feasibility", None,
     "admissible_patterns", False),
    ("feasibility.reference_verdicts", "feasibility", None,
     "reference_verdicts", False),
    ("feasibility.engine_verdicts", "feasibility", None, "engine_verdicts",
     True),
    ("feasibility.check_ooe_feasible", "feasibility", None,
     "check_ooe_feasible", True),
]

# derived per-layer metrics and their units; each is a ratio of two
# quantities the wrappers measure at the same boundary
DERIVED = {
    "engine.init_s": "s",
    "engine.us_per_tick": "us",
    "vic.suppressed_ratio": "ratio",
    "scheduler.busy_tick_ratio": "ratio",
    "feasibility.us_per_pattern": "us",
}


def _observe_tick(counts, args, result):
    counts["ticks"] += 1
    if result.kind != "idle":
        counts["busy_ticks"] += 1


def _observe_raise(counts, args, result):
    counts["raises"] += 1
    if result.value != "delivered_now":
        counts["suppressed"] += 1


def _observe_run(counts, args, result):
    counts["engine_ticks"] += args[0].horizon + 1


def _observe_check(counts, args, result):
    counts["patterns"] += result.patterns_checked


OBSERVERS = {
    "scheduler.execute_tick": _observe_tick,
    "vic.raise_event": _observe_raise,
    "engine.run": _observe_run,
    "feasibility.check_ooe_feasible": _observe_check,
}


class LayerTracer:
    def __init__(self):
        self.stack: List[list] = []
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.agg: Dict[Tuple[str, str], list] = {}
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.item: Optional[str] = None
        self._undo: List[tuple] = []

    def reset(self) -> None:
        self.agg.clear()
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name, fn, keep):
        stack, agg, spans = self.stack, self.agg, self.spans
        counts, observe = self.counts, OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                key = (name, parent[0] if parent else "")
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep:
                    spans.append((name, start, end, key[1], tracer.item))
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target. A module-level function is replaced
        wherever envelopesim bound it by name, so calls through
        `from .monitor import compute_ipl` in the engine are seen too."""
        modules = [m for n, m in sys.modules.items()
                   if n == "envelopesim" or n.startswith("envelopesim.")]
        for name, mod_name, owner, attr, keep in TARGETS:
            mod = sys.modules[f"envelopesim.{mod_name}"]
            if owner is not None:
                cls = getattr(mod, owner)
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn, keep))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(name, fn, keep)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)

    def snapshot(self) -> dict:
        """Per-function calls and self time, summed over parents, plus
        the derived ratios, for what ran since the last reset."""
        calls: Counter = Counter()
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        for (name, _parent), (n, total, own) in self.agg.items():
            calls[name] += n
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + total
        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        c = self.counts
        out["engine.init_s"] = total_s.get("engine.init", 0.0)
        out["engine.us_per_tick"] = _ratio(
            total_s.get("engine.run", 0.0) * 1e6, c["engine_ticks"])
        out["vic.suppressed_ratio"] = _ratio(c["suppressed"], c["raises"])
        out["scheduler.busy_tick_ratio"] = _ratio(c["busy_ticks"], c["ticks"])
        out["feasibility.us_per_pattern"] = _ratio(
            total_s.get("feasibility.check_ooe_feasible", 0.0) * 1e6,
            c["patterns"])
        return out

    def dump(self) -> dict:
        return {
            "aggregated": [
                {"name": name, "parent": parent, "calls": n,
                 "total_s": total, "self_s": own}
                for (name, parent), (n, total, own) in sorted(self.agg.items())
            ],
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent,
                 "item": item}
                for name, start, end, parent, item in self.spans
            ],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit. The
    tracing overhead is the batch's host time in traced passes over that
    in untraced passes, minus one."""
    units = {}
    for name, *_ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    units["tracing_overhead"] = "ratio"
    return units
