"""Seeded fuzz of the CLI: the demo scenarios, mutated in their integers
and in their structure, go through `run` and `check` in this process.
Every call must exit with one of the codes the cli module documents and
print no traceback; each is bounded in time, so a hang fails the test
instead of stalling the suite."""

import contextlib
import copy
import functools
import json
import random
import signal
from pathlib import Path

from envelopesim import cli
from envelopesim.feasibility import EnumerationBounds

DEMOS = sorted(
    (Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json"))
MUTANTS_PER_DEMO = 100
# the codes the cli module documents for each command
RUN_CODES = {cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_MISS, cli.EXIT_FAULT}
CHECK_CODES = {cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_VIOLATION,
               cli.EXIT_BOUNDS}
# seconds a single call may take; the mutants take milliseconds
CALL_LIMIT = 10
KINDS = ["periodic", "sporadic", "burst", "storm", "explicit", "gust"]


class Hung(BaseException):
    """A call over its time limit; no handler in the program catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise Hung(f"a call ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def slots(node):
    """Every (container, key) under node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


def other_value(rng, value, key):
    """A value for an int slot: mostly a neighbour or a multiple, else an
    edge of its range, a large number, or one of another type. A horizon
    stays small."""
    if key == "horizon":
        return rng.choice([0, -1, 1, 2, 5, 12, 24, 1.5, "8", None, True])
    if isinstance(value, bool) or not isinstance(value, int):
        value = 1
    if rng.random() < 0.7:
        return rng.choice([value - 1, value + 1, 2 * value, value // 2, 0, 1])
    return rng.choice([-1, 10 ** 9, -10 ** 9, 2.5, float("inf"), "3", None,
                       True, [], {}])


def mutate(rng, obj):
    """One change to obj, in place: an int changed, or a key or an item
    dropped, added, repeated or of another type, a workload kind or line
    changed, or a task repeated under a new id and line, or as it is."""
    where = list(slots(obj))
    node, key = rng.choice(where)
    value = node[key]
    op = rng.choice([0, 0, 0, 0, 1, 2, 3, 4, 5, 6])
    if op == 0:
        ints = [(n, k) for n, k in where if isinstance(n[k], int)]
        if ints:
            node, key = rng.choice(ints)
        node[key] = other_value(rng, node[key], key)
    elif op == 1:
        del node[key]
    elif op == 2:
        if isinstance(node, dict):
            node[rng.choice(["bogus", "rate", "W", "line"])] = 1
        else:
            node.append(copy.deepcopy(value))
    elif op == 3:
        node[key] = rng.choice([[], {}, "x", 3, None, False])
    elif op == 4:
        specs = obj.get("workload") if isinstance(obj, dict) else None
        if isinstance(specs, list) and specs and isinstance(specs[0], dict):
            rng.choice(specs)["kind"] = rng.choice(KINDS)
    elif op == 5:
        specs = obj.get("workload") if isinstance(obj, dict) else None
        if isinstance(specs, list) and specs and isinstance(specs[0], dict):
            rng.choice(specs)["line"] = rng.choice(["ghost", "l", "e_a"])
    else:
        tasks = obj.get("tasks") if isinstance(obj, dict) else None
        if isinstance(tasks, list) and tasks:
            task = copy.deepcopy(rng.choice(tasks))
            if isinstance(task, dict) and rng.random() < 0.7:
                task.update(id="new", line="l_new", importance=99)
            tasks.append(task)


def mutant_text(rng, demo: dict) -> str:
    """The demo at a small horizon with one to three changes, as JSON
    text; now and then cut short, or with a key repeated."""
    obj = copy.deepcopy(demo)
    obj["horizon"] = rng.randint(1, 24)
    for _ in range(rng.choice([1, 1, 2, 3])):
        mutate(rng, obj)
    text = json.dumps(obj)
    roll = rng.random()
    if roll < 0.05:
        return text[:rng.randrange(len(text))]
    if roll < 0.1 and text.endswith("}"):
        return text[:-1] + ', "horizon": 3}'
    return text


def call(capsys, argv, codes):
    with time_limit(CALL_LIMIT):
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in codes, (argv, code, out, err)
    assert "Traceback" not in out + err, (argv, out, err)
    if code == cli.EXIT_INVALID:
        assert err.startswith("error: "), (argv, err)
    return code


def test_mutated_demos_exit_with_a_documented_code(tmp_path, capsys,
                                                   monkeypatch):
    # a sweep of up to 10**4 combinations keeps each check short; larger
    # instances exit as refused
    monkeypatch.setattr(cli, "check_ooe_feasible", functools.partial(
        cli.check_ooe_feasible,
        bounds=EnumerationBounds(max_patterns=10 ** 4)))
    rng = random.Random(2024)
    path = tmp_path / "scenario.json"
    files = [str(tmp_path / name) for name in ("t.csv", "m.json", "w.csv")]
    seen = set()
    for demo in DEMOS:
        base = json.loads(demo.read_text())
        for _ in range(MUTANTS_PER_DEMO):
            path.write_text(mutant_text(rng, base))
            seen.add(("run", call(capsys, [
                "run", "--scenario", str(path), "--trace", files[0],
                "--metrics", files[1]], RUN_CODES)))
            seen.add(("check", call(capsys, [
                "check", "--scenario", str(path), "--witness", files[2]],
                CHECK_CODES)))
    # the mutants reach past validation, into every kind of verdict
    assert seen >= {("run", code) for code in RUN_CODES} | {
        ("check", code) for code in CHECK_CODES}, seen
