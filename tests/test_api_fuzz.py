"""Seeded fuzz of the library API: the demo scenarios, parsed, then
mutated in their dataclass fields and in their structure, go through
`Engine`, `run_scenario`, `check_ooe_feasible` and `check_normal`, their
workload specs through `generate_workload` and their tasks through
`admissible_patterns`. A wrong-typed field must be refused with
ScenarioError before any simulation; nothing else may escape but the
checker's BoundsExceeded and FeasibilityError, and each call is bounded
in time, as in the CLI fuzz."""

import dataclasses
import random

from envelopesim import (
    BoundsExceeded,
    Engine,
    EnumerationBounds,
    FaultPolicy,
    FeasibilityError,
    Periodic,
    Policy,
    ResponseOption,
    ScenarioError,
    TaskSet,
    admissible_patterns,
    check_normal,
    check_ooe_feasible,
    generate_workload,
    run_scenario,
)
from envelopesim.cli import load_scenario
from envelopesim.model import is_ticks
from support import oracle_estimate_raises
from test_cli_fuzz import CALL_LIMIT, DEMOS, WORD_EDGES, time_limit

MUTANTS_PER_DEMO = 60
# values of every other type, and edges of the right ones
ODD_VALUES = ["x", "3", "release_all", "notify_running", "auto_resume",
              "permanent", 1.5, 2.0, -0.5, float("nan"), float("inf"),
              True, False, None, [], [1], {}, {0: 1}, (), (1, 2.5),
              FaultPolicy.AUTO_RESUME, ResponseOption.NOTIFY_RUNNING,
              Periodic(0, 3), Policy(), 0, -1, 10 ** 9, *WORD_EDGES]
# workload entries that are not (line, spec) pairs
ODD_ENTRIES = [("l",), ("l", Periodic(0, 3), 1), ["l", Periodic(0, 3)],
               "l", Periodic(0, 3), (3, Periodic(0, 3)), ("l", "periodic")]
# policies that are not a Policy, which check_ooe_feasible must refuse
# before it normalizes them
ODD_POLICIES = [{"assignment": "explicit"}, "permanent", 0,
                FaultPolicy.PERMANENT]
# the most raise times generate_workload may list for a fuzzed spec; a
# spec that could list more is expanded over an empty horizon instead
MAX_LISTED = 10 ** 5
# admissible_patterns enumerates up to 2**horizon patterns
PATTERN_HORIZON = 8


def other_value(rng, value):
    """A neighbour of an int, now and then, else a value of another kind
    or an edge."""
    if isinstance(value, int) and not isinstance(value, bool) \
            and rng.random() < 0.3:
        return rng.choice([value - 1, value + 1, 2 * value, 0])
    return rng.choice(ODD_VALUES)


def mutate_fields(rng, obj):
    """obj, a dataclass, with one field given another value; a frozen
    one is rebuilt through dataclasses.replace, as a caller would."""
    name = rng.choice([f.name for f in dataclasses.fields(obj)])
    try:
        return dataclasses.replace(
            obj, **{name: other_value(rng, getattr(obj, name))})
    except ValueError:  # Task's own rule: an infinite period needs a D
        return obj


def mutate(rng, scenario):
    """The scenario with one change: a field of it, of its task set, of a
    task, of its policy or of a workload spec given another value, the
    policy replaced by something that is not a Policy, or an entry added
    to the workload or the task set that is not a (line, spec) pair or a
    Task. A part an earlier change replaced is left as it is."""
    tasks = getattr(scenario.task_set, "tasks", None)
    specs = [i for i, entry in enumerate(scenario.workload)
             if isinstance(entry, tuple) and len(entry) == 2
             and dataclasses.is_dataclass(entry[1])] \
        if isinstance(scenario.workload, list) else []
    op = rng.randrange(8)
    if op == 0:
        scenario = mutate_fields(rng, scenario)
    elif op == 1 and isinstance(scenario.task_set, TaskSet):
        scenario.task_set = mutate_fields(rng, scenario.task_set)
    elif op == 2 and isinstance(tasks, list) and tasks:
        i = rng.randrange(len(tasks))
        if dataclasses.is_dataclass(tasks[i]):
            tasks[i] = mutate_fields(rng, tasks[i])
    elif op == 3 and isinstance(scenario.policy, Policy):
        scenario.policy = mutate_fields(rng, scenario.policy)
    elif op == 4 and specs:
        i = rng.choice(specs)
        line, spec = scenario.workload[i]
        scenario.workload[i] = (line, mutate_fields(rng, spec))
    elif op == 5:
        scenario.policy = rng.choice(ODD_POLICIES)
    elif op == 6 and isinstance(scenario.workload, list):
        scenario.workload.append(rng.choice(ODD_ENTRIES))
    elif op == 7 and isinstance(tasks, list):
        tasks.append(rng.choice([None, "task", Policy(), (1, 2)]))
    return scenario


def listed(items):
    """items, where a change left it a list, else no items."""
    return items if isinstance(items, list) else []


def expansion_horizon(spec, horizon):
    """The mutant's horizon, if it is a tick count over which spec, were
    it accepted, lists at most MAX_LISTED raise times; else 0, over which
    every spec lists none and is still checked."""
    if not is_ticks(horizon):
        return 0
    try:
        count = oracle_estimate_raises(spec, horizon)
    except TypeError:  # a field of the wrong type, which the gate refuses
        return horizon
    return horizon if count <= MAX_LISTED else 0


def attempt(fn, *args, **kwargs):
    """What fn(*args) did: "ok", or the type of what it raised, which
    must be one a wrong input may raise."""
    allowed = (ScenarioError,)
    if fn is check_ooe_feasible:
        allowed += (BoundsExceeded, FeasibilityError)
    with time_limit(CALL_LIMIT):
        try:
            fn(*args, **kwargs)
        except allowed as exc:
            return type(exc).__name__
    return "ok"


def test_mutated_scenarios_raise_only_scenario_error():
    rng = random.Random(2033)
    bounds = EnumerationBounds(max_patterns=10 ** 4)
    seen = set()
    for demo in DEMOS:
        for _ in range(MUTANTS_PER_DEMO):
            scenario = load_scenario(demo)
            scenario.horizon = rng.randint(1, 24)
            for _ in range(rng.choice([1, 1, 2, 3])):
                scenario = mutate(rng, scenario)
            seen.add(attempt(Engine, scenario))
            seen.add(attempt(run_scenario, scenario))
            seen.add(attempt(check_ooe_feasible, scenario.task_set,
                             scenario.policy, scenario.horizon,
                             bounds=bounds))
            seen.add(attempt(check_normal, scenario.task_set,
                             scenario.policy))
            entries, tasks = listed(scenario.workload), listed(
                getattr(scenario.task_set, "tasks", None))
            for entry in entries:
                if isinstance(entry, tuple) and len(entry) == 2:
                    seen.add(attempt(generate_workload, entry[1],
                                     expansion_horizon(entry[1],
                                                       scenario.horizon)))
            for task in tasks:
                seen.add(attempt(admissible_patterns, task,
                                 PATTERN_HORIZON))
    # the mutants are refused, but some reach the simulation and the check
    assert {"ok", "ScenarioError"} <= seen, seen
