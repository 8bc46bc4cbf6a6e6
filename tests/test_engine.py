import bisect
import gc
import importlib.util
import random
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from envelopesim import (
    INFINITE_PERIOD,
    Burst,
    Engine,
    EngineError,
    Explicit,
    FaultPolicy,
    LineMonitor,
    Periodic,
    Policy,
    PriorityMap,
    ResponseOption,
    Scenario,
    ScenarioError,
    Sporadic,
    Storm,
    Task,
    TaskSet,
    Trace,
    TraceRecord,
    check_ooe_feasible,
    generate_workload,
    ipl_index,
    run_scenario,
)
from envelopesim.cli import parse_scenario
import envelopesim.engine as engine_module
from envelopesim.engine import _validate_scenario
from envelopesim.model import interrupt_order
from conftest import scenario_monotonic, scenario_override, \
    scenario_override_burst
from support import ConfirmingEngine, conservation_counts, \
    internalize_timestamps, linear_compute_ipl, oracle_estimate_raises, \
    oracle_generate_workload, random_scenario, storm_scenario, \
    with_ipl_and_overrides


def one_task_scenario(task_kw=None, **scenario_kw):
    kw = dict(id="t", wcet=1, period=10, importance=3, line="l",
              envelope_n=5, envelope_w=5)
    kw.update(task_kw or {})
    return Scenario(task_set=TaskSet([Task(**kw)]), **scenario_kw)


# workload generators

def test_periodic_times():
    assert generate_workload(Periodic(0, 3), 10) == [0, 3, 6, 9]
    assert generate_workload(Periodic(2, 4), 10) == [2, 6]
    assert generate_workload(Periodic(-5, 4), 10) == [3, 7]


def test_periodic_rejects_bad_period():
    with pytest.raises(ScenarioError):
        generate_workload(Periodic(0, 0), 10)


def test_first_invalid_workload_in_scenario_order_is_reported():
    # raises are stored in interrupt order, but the specs expand in
    # scenario order: the less important line's error comes first
    sc = scenario_monotonic()
    sc.workload = [("l_low", Periodic(0, 0)), ("l_high", Storm(0, 0))]
    with pytest.raises(ScenarioError) as exc:
        Engine(sc)
    assert exc.value.problems == ["periodic workload: period 0 < 1",
                                  "storm workload: rate 0 < 1"]


def interrupt_rank(scenario):
    return {task.line: i
            for i, task in enumerate(interrupt_order(scenario.task_set))}


def expanded_run_table(scenario):
    """The run table from generate_workload's expansion of every spec:
    at each tick, each raised line's total count, lines in interrupt
    priority order."""
    horizon, rank = scenario.resolved_horizon(), interrupt_rank(scenario)
    counts = {}
    for line, spec in scenario.workload:
        for t in generate_workload(spec, horizon, scenario.seed):
            at = counts.setdefault(t, {})
            at[line] = at.get(line, 0) + 1
    table = {}
    for t, at in counts.items():
        table[t] = []
        for line in sorted(at, key=rank.get):
            table[t] += [line, at[line]]
    return table


class CountedTicks:
    """A spec's ticks, counting how many times they are read."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)
        self.reads = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.reads += 1
        return next(self.ticks)


def read_stream(stream, scenario):
    """stream(sources) over the scenario's specs, in interrupt order, read
    to its end: each segment (first, last, runs) with the point ticks
    read when it was yielded, checked to be ascending and disjoint; also
    the interval ticks and the point ticks. A step-1 range goes in as it
    is, which the table reads as an interval, and every other spec's
    ticks are counted as they are read."""
    horizon, rank = scenario.resolved_horizon(), interrupt_rank(scenario)
    sources, counted, spanned, pointed = [], [], set(), set()
    for line, spec in sorted(scenario.workload, key=lambda ls: rank[ls[0]]):
        count, ticks = engine_module._raises(spec, horizon, scenario.seed)
        if type(ticks) is range and ticks.step == 1:
            spanned.update(ticks)
        else:
            ticks = CountedTicks(ticks)
            counted.append(ticks)
            pointed.update(generate_workload(spec, horizon, scenario.seed))
        sources.append((line, count, ticks))
    out = []
    for first, last, runs in stream(sources):
        assert first <= last
        assert not out or out[-1][1] < first
        out.append((first, last, runs,
                    sum(ticks.reads for ticks in counted)))
    return out, spanned, pointed


def streamed_run_table(scenario):
    """_run_pieces over the scenario's specs, read to its end: the table
    as a dict of each tick's runs, and the pieces of each window it
    filled, in order.

    The pieces are disjoint and ascending. The windows follow from the
    raise ticks alone: each starts at the earliest raise tick at or
    after the last one's end. Every piece lies in one window. The point
    specs are read as a window that holds a point tick is filled, and
    not while its pieces are yielded. In a window where no interval
    raises, each piece is one tick."""
    window = engine_module._RAISE_WINDOW
    stream, spanned, pointed = read_stream(engine_module._run_pieces,
                                           scenario)
    windows, reads = [], -1  # per window: its start, interval, pieces
    for first, last, runs, now in stream:
        if windows and first < windows[-1][0] + window:
            assert now == reads
            start, mixed, pieces = windows[-1]
        else:
            start, pieces = first, []
            ticks = range(start, start + window)
            mixed = not spanned.isdisjoint(ticks)
            windows.append((start, mixed, pieces))
            if not pointed.isdisjoint(ticks):
                assert now > reads
        assert last < start + window
        assert mixed or first == last
        pieces.append((first, last, runs))
        reads = now
    table = {t: runs for first, last, runs, _ in stream
             for t in range(first, last + 1)}
    return table, [pieces for _, _, pieces in windows]


def joined_run_table(scenario):
    """_run_table over the scenario's specs, read to its end, as a list
    of segments (first, last, runs). They are ascending and disjoint, no
    two contiguous ones carry equal runs, and they expand to the expanded
    run table. Each is yielded before the table reads past the window of
    the piece after it: the point ticks read by then are at most those
    read when _run_pieces yields that piece."""
    joined, _, _ = read_stream(engine_module._run_table, scenario)
    pieces, _, _ = read_stream(engine_module._run_pieces, scenario)
    starts = [first for first, _, _, _ in pieces]
    for (_, last, runs, _), (first, _, more, _) in zip(joined, joined[1:]):
        assert last + 1 < first or runs != more
    for _, last, _, reads in joined:
        after = bisect.bisect_right(starts, last)
        assert reads <= (pieces[after][3] if after < len(pieces)
                         else pieces[-1][3])
    table = {t: runs for first, last, runs, _ in joined
             for t in range(first, last + 1)}
    assert table == expanded_run_table(scenario)
    return [segment[:3] for segment in joined]


def raise_windows(monkeypatch):
    """Set the run table's window to the module's, then to a few ticks,
    so that every run table spans several windows; yield each."""
    for window in (engine_module._RAISE_WINDOW, 4, 3, 1):
        monkeypatch.setattr(engine_module, "_RAISE_WINDOW", window)
        yield window


def assert_streamed_run_table(scenario):
    """The streamed run table is the expanded one; the table and the
    segments of each window it filled."""
    table, windows = streamed_run_table(scenario)
    assert table == expanded_run_table(scenario)
    return table, windows


def storms_beside_bursts():
    """The storm scenarios of seeds 0-199 where a storm adds its rate at
    each tick beside a burst on the same line."""
    both = [sc for sc in map(storm_scenario, range(200))
            if any(isinstance(a, Storm) and isinstance(b, Burst)
                   and la == lb
                   for la, a in sc.workload for lb, b in sc.workload)]
    assert len(both) >= 20
    return both


def interleaved_scenario():
    """Storms, bursts and a periodic spec on two lines, interleaved."""
    sc = scenario_monotonic(horizon=30)
    sc.workload = [
        ("l_low", Storm(4, 3)), ("l_high", Burst(2, 6, 1)),
        ("l_low", Burst(0, 8, 0)), ("l_high", Storm(20, 2)),
        ("l_low", Periodic(1, 5)), ("l_high", Storm(6, 1)),
        ("l_low", Burst(10, 12, 2)),
    ]
    return sc


def merged_scenario():
    """A storm and a spacing-1 burst on one line, intervals across window
    seams, with a sporadic and an explicit spec raising inside them on
    that line, and a spacing-1 burst from before 0 on the other line:
    every tick of its 40 raises."""
    sc = scenario_monotonic(horizon=40)
    sc.seed = 3
    sporadic = Sporadic(2, 0.5, 4)
    sc.workload = [
        ("l_low", Storm(2, 2)), ("l_low", Burst(5, 20, 1)),
        ("l_low", sporadic), ("l_low", Explicit((6, 7, 7, 12, 30))),
        ("l_high", Burst(-4, 10, 1)), ("l_high", Explicit((3, 4, 10))),
    ]
    assert set(generate_workload(sporadic, 40, 3)).intersection(range(5, 25))
    return sc


def test_run_table_matches_the_expanded_workload(monkeypatch):
    # a storm adds its rate at each tick, beside the raises of a burst
    # or a periodic spec on the same line and of other lines
    scenarios = storms_beside_bursts() + [interleaved_scenario()]
    merged = merged_scenario()
    for window in raise_windows(monkeypatch):
        for sc in scenarios:
            assert_streamed_run_table(sc)
        # every tick raises; in windows of more than one tick the
        # intervals are read as intervals, in fewer pieces than ticks
        table, windows = assert_streamed_run_table(merged)
        assert len(table) == 40
        assert window == 1 or sum(map(len, windows)) < 40


def test_run_table_yields_maximal_segments(monkeypatch):
    # the pieces joined across window seams and point ticks: the same
    # segments at every window, many of them longer than a window
    scenarios = [*map(storm_scenario, range(200)), interleaved_scenario(),
                 merged_scenario()]
    seen = {}
    crossed = 0
    for window in raise_windows(monkeypatch):
        for i, sc in enumerate(scenarios):
            segments = joined_run_table(sc)
            assert seen.setdefault(i, segments) == segments
            crossed += any(last - first >= window
                           for first, last, _ in segments)
    assert crossed >= 600


@pytest.mark.parametrize("w", [engine_module._RAISE_WINDOW, 4, 3, 1])
def test_run_table_spans_many_windows(w, monkeypatch):
    # every spec kind over several windows, specs sharing a line, and
    # raises on the first and last tick of each window: a raise on every
    # tick from 0 on makes the windows [k * w, (k + 1) * w)
    monkeypatch.setattr(engine_module, "_RAISE_WINDOW", w)
    edges = tuple(t for k in range(1, 4) for t in (k * w - 1, k * w))
    sc = scenario_monotonic(horizon=4 * w + 3)
    sc.seed = 5
    sc.workload = [
        ("l_low", Storm(0, 1)),
        ("l_high", Periodic(-5, 7)),
        ("l_low", Sporadic(2, 0.4, 9)),
        ("l_high", Burst(w - 1, 6, 0)),
        ("l_high", Burst(-3, 3 * w, 2)),
        ("l_low", Explicit(edges + edges[:2] + (0, 4 * w + 2))),
        ("l_high", Sporadic(1, 0.2, 3)),
        ("l_high", Storm(2 * w, 2)),
        ("l_low", Explicit((w + 1, w + 1, 3 * w + 1))),
    ]
    _, windows = assert_streamed_run_table(sc)
    assert len(windows) >= 4
    # a sparse workload: the windows start at the next raise, not at
    # the last window's end
    sc.workload = [("l_low", Explicit((1, 50 * w, 50 * w + w - 1,
                                       50 * w + w, 200 * w)))]
    sc.horizon = 200 * w + 1
    _, windows = assert_streamed_run_table(sc)
    assert len(windows) <= 6


def test_sporadic_ticks_keep_their_stream_across_windows(monkeypatch):
    specs = [Sporadic(1, 0.3, 0), Sporadic(3, 0.7, 1), Sporadic(2, 1.0, 2)]
    sc = scenario_monotonic(horizon=9000)
    sc.seed = 11
    sc.workload = [(line, spec) for spec in specs
                   for line in ("l_high", "l_low")]
    for _ in raise_windows(monkeypatch):
        table, windows = assert_streamed_run_table(sc)
        assert len(windows) > 2
        # each line's ticks are the whole-horizon expansion of its specs
        for line in ("l_high", "l_low"):
            expected = sorted(t for spec in specs
                              for t in generate_workload(spec, 9000, 11))
            got = [t for t in sorted(table)
                   for i in range(0, len(table[t]), 2)
                   if table[t][i] == line
                   for _ in range(table[t][i + 1])]
            assert got == expected


def test_engine_reads_the_run_table_to_its_end():
    for sc in map(storm_scenario, range(20)):
        engine = Engine(sc)
        engine.run()
        assert engine._head is engine_module._END


def test_the_run_table_drops_the_spec_tuples():
    # once the first window is filled, neither the table nor its pieces
    # keep the sources they were built from
    engine = Engine(one_task_scenario(
        workload=[("l", Periodic(0, 3)), ("l", Storm(5, 1))],
        horizon=10 ** 4))
    table = engine._table.gi_frame.f_locals
    assert "sources" not in table
    assert "sources" not in table["pieces"].gi_frame.f_locals


def test_engine_holds_no_whole_horizon_run_table():
    # the storm probe: a run table for every tick would be megabytes
    probe = one_task_scenario(workload=[("l", Storm(0, 3))],
                              horizon=10 ** 5)
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(probe)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the engine is still alive, so held counts what it keeps
    assert engine._head is not engine_module._END
    assert held < 1_000_000


def test_a_storm_is_read_in_segments_not_ticks(monkeypatch):
    # the storm probe: one interval over 10^5 ticks is a segment per
    # window, in the table and as the engine pulls it
    horizon = 10 ** 5
    probe = one_task_scenario(
        task_kw=dict(period=100, importance=0, envelope_n=2,
                     envelope_w=20),
        policy=Policy(fault_policy=FaultPolicy.AUTO_RESUME, delta_th=1),
        workload=[("l", Storm(0, 3))], horizon=horizon)
    bound = -(-horizon // engine_module._RAISE_WINDOW)
    sources = [("l", *engine_module._raises(Storm(0, 3), horizon))]
    assert len(list(engine_module._run_table(sources))) <= bound
    pulled = 0
    run_table = engine_module._run_table

    def counted(sources):
        nonlocal pulled
        for segment in run_table(sources):
            pulled += 1
            yield segment

    monkeypatch.setattr(engine_module, "_run_table", counted)
    engine = Engine(probe)
    trace, metrics = engine.run()
    assert engine._head is engine_module._END
    assert pulled <= bound
    assert metrics.per_line["l"]["raised"] == 3 * horizon


def test_burst_times():
    assert generate_workload(Burst(3, 2, 0), 10) == [3, 3]
    assert generate_workload(Burst(8, 4, 1), 10) == [8, 9]
    with pytest.raises(ScenarioError):
        generate_workload(Burst(0, -1, 0), 10)


def test_storm_times():
    assert generate_workload(Storm(1, 2), 4) == [1, 1, 2, 2, 3, 3]
    with pytest.raises(ScenarioError):
        generate_workload(Storm(0, 0), 4)


def test_explicit_times_sorted_and_clipped():
    assert generate_workload(Explicit((9, 2, -1, 30)), 10) == [2, 9]


def test_sporadic_deterministic_per_seed():
    a = generate_workload(Sporadic(2, 0.5, 42), 60, seed=1)
    b = generate_workload(Sporadic(2, 0.5, 42), 60, seed=1)
    assert a == b
    c = generate_workload(Sporadic(2, 0.5, 43), 60, seed=1)
    assert a != c


def test_sporadic_respects_min_separation():
    times = generate_workload(Sporadic(4, 0.9, 7), 100, seed=0)
    assert times
    assert all(b - a >= 4 for a, b in zip(times, times[1:]))


def test_sporadic_rejects_bad_density():
    with pytest.raises(ScenarioError):
        generate_workload(Sporadic(1, 0.0, 0), 10)
    with pytest.raises(ScenarioError):
        generate_workload(Sporadic(1, 1.5, 0), 10)


# trace plumbing

def test_trace_rejects_backwards_time():
    trace = Trace()
    trace.append(TraceRecord(5, "RAISE"))
    with pytest.raises(EngineError):
        trace.append(TraceRecord(4, "RAISE"))


def test_trace_csv_shape():
    trace, _ = run_scenario(one_task_scenario(
        workload=[("l", Explicit((0,)))], horizon=3))
    text = trace.to_csv_string()
    lines = text.split("\n")
    assert lines[0] == "time,kind,line,task,job,detail"
    assert text.endswith("\n")
    assert "\r" not in text
    assert len(lines) == len(trace) + 2  # header + records + final newline


def test_scenario_default_horizon():
    sc = one_task_scenario(task_kw=dict(period=6, envelope_w=9))
    assert sc.resolved_horizon() == 2 * 6 + 9


# validation

def test_scenario_validation_collects_problems():
    tasks = TaskSet([
        Task(id="a", wcet=1, period=5, importance=1, line="x",
             envelope_n=1, envelope_w=1),
        Task(id="b", wcet=1, period=5, importance=1, line="x",
             envelope_n=1, envelope_w=1),
    ])
    sc = Scenario(task_set=tasks, workload=[("ghost", Periodic(0, 5))],
                  horizon=0, policy=Policy(assignment="nope", delta_th=-1))
    with pytest.raises(ScenarioError) as exc:
        run_scenario(sc)
    text = str(exc.value)
    for fragment in ("duplicate importance", "line collision",
                     "unknown line 'ghost'", "horizon", "delta_th",
                     "unknown priority assignment"):
        assert fragment in text


def limit_count(spec, horizon):
    """The raises the workload limit counts for a valid spec over
    horizon, from its expansion."""
    return engine_module._raise_count(
        spec, *engine_module._raises(spec, horizon), horizon)


def test_raise_estimates_need_no_generation():
    assert limit_count(Periodic(-5, 4), 10) == 2
    assert limit_count(Sporadic(2, 0.5, 42), 60) == 60
    assert limit_count(Burst(8, 4, 1), 10) == 2
    assert limit_count(Burst(3, 10 ** 12, 0), 10) == 10 ** 12
    assert limit_count(Storm(1, 3), 4) == 9
    assert limit_count(Explicit((9, 2, -1, 30)), 10) == 2
    # a burst far longer than the horizon expands only its in-range part
    assert generate_workload(Burst(-3, 10 ** 12, 2), 6) == [1, 3, 5]


def outcome(fn, *args):
    """fn's result, or the message of the ScenarioError it raised."""
    try:
        return fn(*args)
    except ScenarioError as exc:
        return f"refused: {exc}"


# specs at the edges of each kind's arithmetic: negative offset, start
# and at; spacing 0 and count 0; bursts straddling tick 0 or the horizon;
# storms starting at or after the horizon; explicit duplicates and times
# outside the horizon; and each kind's invalid values
EDGE_SPECS = [
    Periodic(0, 3), Periodic(-5, 4), Periodic(-4, 4), Periodic(9, 4),
    Periodic(10, 1), Periodic(0, 0), Periodic(3, -2),
    Burst(3, 2, 0), Burst(3, 0, 0), Burst(3, 0, 2), Burst(-1, 5, 0),
    Burst(10, 5, 0), Burst(9, 5, 0), Burst(0, 3, 0), Burst(-3, 4, 2),
    Burst(-4, 4, 2), Burst(-9, 3, 4), Burst(-10, 3, 4), Burst(8, 4, 1),
    Burst(7, 9, 3), Burst(-3, 10 ** 12, 2), Burst(12, 3, 2),
    Burst(0, -1, 0), Burst(0, 1, -1),
    Storm(0, 1), Storm(-4, 2), Storm(9, 3), Storm(10, 2), Storm(15, 1),
    Storm(0, 0), Storm(2, -1),
    Explicit(()), Explicit((9, 2, -1, 30)), Explicit((3, 3, 0, 3, 10, 9)),
    Explicit((-1, 10, 11)),
    Sporadic(2, 0.5, 42), Sporadic(0, 1.0, 1), Sporadic(-3, 0.3, 2),
    Sporadic(4, 0.9, 7), Sporadic(1, 0.0, 0), Sporadic(1, 1.5, 0),
]


def random_spec(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Periodic(rng.randint(-6, 12), rng.randint(-1, 7))
    if kind == 1:
        density = rng.choice([0.0, 0.1, 0.5, 1.0, 1.2])
        return Sporadic(rng.randint(-2, 6), density, rng.randrange(100))
    if kind == 2:
        return Burst(rng.randint(-12, 14), rng.randint(-1, 9),
                     rng.randint(-1, 5))
    if kind == 3:
        return Storm(rng.randint(-5, 14), rng.randint(-1, 4))
    return Explicit(tuple(rng.randint(-3, 14)
                          for _ in range(rng.randrange(7))))


def ladder_cases():
    """(spec, horizon, seed): every edge spec, then a seeded batch of
    every kind."""
    rng = random.Random(19)
    cases = [(spec, horizon, seed) for spec in EDGE_SPECS
             for horizon in (0, 1, 10) for seed in (0, 3)]
    return cases + [(random_spec(rng), rng.randint(1, 40), rng.randrange(4))
                    for _ in range(2000)]


def test_workload_matches_the_ladder_oracle():
    kinds = set()
    for spec, horizon, seed in ladder_cases():
        expected = outcome(oracle_generate_workload, spec, horizon, seed)
        got = outcome(generate_workload, spec, horizon, seed)
        assert got == expected, (spec, horizon, seed)
        if isinstance(got, list):
            kinds.add(type(spec))
            count = limit_count(spec, horizon)
            assert count == (horizon if isinstance(spec, Sporadic)
                             else len(got)), (spec, horizon)
            if not isinstance(spec, Explicit):
                assert count == oracle_estimate_raises(spec, horizon)
    assert kinds == {Periodic, Sporadic, Burst, Storm, Explicit}
    # ranges longer than sys.maxsize, whose len() overflows, are counted
    # from their ends
    huge = 4 * sys.maxsize
    for spec, horizon in [
            (Periodic(0, 1), 2 ** 63), (Periodic(-7, 3), huge),
            (Periodic(5, 2), 2 ** 65 + 1), (Storm(-3, 2), huge),
            (Storm(2 ** 63, 5), 2 ** 64), (Burst(0, 2 ** 70, 1), huge),
            (Burst(-9, 2 ** 66, 3), 2 ** 65), (Burst(1, 2 ** 64, 0), 2),
            (Sporadic(1, 0.5, 0), huge)]:
        count = limit_count(spec, horizon)
        assert count > sys.maxsize, (spec, horizon)
        assert count == oracle_estimate_raises(spec, horizon), (spec, horizon)


def test_run_table_matches_the_ladder_oracle(monkeypatch):
    # each spec beside a periodic one on the same line, whose raises the
    # table adds to the spec's at the ticks they share
    other = Periodic(1, 4)
    cases = []
    for spec, horizon, seed in ladder_cases():
        if horizon < 1 or isinstance(
                outcome(oracle_generate_workload, spec, horizon), str):
            continue
        sc = one_task_scenario(workload=[("l", spec), ("l", other)],
                               horizon=horizon, seed=seed)
        counts = {}
        for t in oracle_generate_workload(spec, horizon, seed) \
                + oracle_generate_workload(other, horizon):
            counts[t] = counts.get(t, 0) + 1
        cases.append((sc, {t: ["l", n] for t, n in counts.items()}))
    for _ in raise_windows(monkeypatch):
        for sc, expected in cases:
            table, _ = assert_streamed_run_table(sc)
            assert table == expected


def test_oversized_workload_is_refused_before_expansion():
    # the storm probe, rate 3 over 10^5 ticks, stays under the limit
    probe = one_task_scenario(workload=[("l", Storm(0, 3))], horizon=10 ** 5)
    _validate_scenario(probe)
    huge = [("l", Storm(0, 10 ** 9)), ("l", Sporadic(1, 0.1, 0))]
    sc = one_task_scenario(workload=huge, horizon=10 ** 6)
    with pytest.raises(ScenarioError, match=r"expands to 1000000001000000 "
                       r"raises .* over horizon 1000000, above the limit"):
        _validate_scenario(sc)


def prime_periods_storm():
    """Five tasks whose periods are primes near 10^4, a storm on one,
    and no horizon: the resolved horizon, twice the hyperperiod plus the
    widest window, is about 2 * 10^20 ticks."""
    periods = [10007, 10009, 10037, 10039, 10061]
    return Scenario(task_set=TaskSet([
        Task(id=f"t{i}", wcet=1, period=p, importance=i, line=f"l{i}",
             envelope_n=5, envelope_w=5) for i, p in enumerate(periods)]),
        workload=[("l0", Storm(0, 1))])


def test_a_workload_longer_than_sys_maxsize_is_refused_by_the_limit():
    # such a range has no len(), which raised OverflowError
    for sc, raises in [
            (one_task_scenario(workload=[("l", Periodic(0, 1))],
                               horizon=2 ** 63), 2 ** 63),
            (prime_periods_storm(), 203076706819437990903)]:
        for build in (Engine, run_scenario):
            with pytest.raises(ScenarioError) as exc:
                build(sc)
            assert exc.value.problems == [
                f"the workload expands to {raises} raises (sporadic lines "
                f"count one draw per tick) over horizon {raises}, above "
                f"the limit of {engine_module.MAX_WORKLOAD_RAISES}"]


@pytest.mark.parametrize("spec,message", [
    (Periodic(0, 2.5), "periodic workload: period 2.5 is not an integer "
     "tick count"),
    (Explicit((1.5,)), "explicit workload: times (1.5,) is not a tuple of "
     "integer tick counts"),
    (Storm(0, "3"), "storm workload: rate '3' is not an integer tick "
     "count"),
    ("periodic", "unknown workload spec 'periodic'"),
])
def test_generate_workload_refuses_a_wrong_typed_spec(spec, message):
    with pytest.raises(ScenarioError) as exc:
        generate_workload(spec, 10)
    assert exc.value.problems == [message]


def test_every_spec_problem_is_reported_at_once():
    # two wrong-typed specs, then a bad value beside a task's
    sc = one_task_scenario(workload=[
        ("l", Periodic(0, 2.5)), ("l", Storm(0, 1)),
        ("l", Sporadic("2", 0.5, 0))], horizon=10)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(sc)
    assert exc.value.problems == [
        "periodic workload: period 2.5 is not an integer tick count",
        "sporadic workload: min_sep '2' is not an integer tick count"]
    sc = one_task_scenario(task_kw=dict(wcet=0),
                           workload=[("l", Burst(0, -1, 1))], horizon=10)
    with pytest.raises(ScenarioError) as exc:
        Engine(sc)
    assert exc.value.problems == [
        "task t: wcet must be at least 1 tick",
        "burst workload: negative count or spacing"]


def test_fractional_period_or_window_is_refused():
    sc = one_task_scenario(task_kw=dict(period=2.5, envelope_w=3.5),
                           workload=[], horizon=10)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(sc)
    assert "period 2.5 is not a whole number of ticks" in str(exc.value)
    assert "envelope_w 3.5 is not a whole number of ticks" in str(exc.value)


@pytest.mark.parametrize("task_kw, policy, field", [
    ({}, Policy(delta_th=0.5), "delta_th 0.5"),
    ({}, Policy(delta_th=True), "delta_th True"),
    (dict(wcet=1.5), Policy(), "wcet 1.5"),
    (dict(wcet=True), Policy(), "wcet True"),
    (dict(deadline=5.5), Policy(), "deadline 5.5"),
    (dict(deadline=2.0), Policy(), "deadline 2.0"),
], ids=["delta_th", "delta_th_bool", "wcet", "wcet_bool", "deadline",
        "deadline_float"])
def test_fractional_or_bool_tick_counts_are_refused(task_kw, policy, field):
    # each was run as fractional ticks: delta_th 0.5 completed at 2.5 and
    # made the checker find its replay disagreeing, wcet 1.5 completed at
    # 1.5 and deadline 5.5 was released with deadline=5.5
    sc = one_task_scenario(task_kw=task_kw, policy=policy,
                           workload=[("l", Explicit((0, 3)))], horizon=20)
    message = re.escape(f"{field} is not an integer tick count")
    with pytest.raises(ScenarioError, match=message):
        run_scenario(sc)
    with pytest.raises(ScenarioError, match=message):
        check_ooe_feasible(sc.task_set, policy, horizon=20)


def test_fault_policy_must_be_a_member():
    # a string was run as permanent: this burst's auto-resume lifts the
    # sensor fault, which a string never did
    sc = one_task_scenario(task_kw=dict(envelope_n=2, envelope_w=10),
                           workload=[("l", Burst(0, 15, 1))], horizon=40,
                           policy=Policy(fault_policy=FaultPolicy.AUTO_RESUME))
    _, metrics = run_scenario(sc)
    assert metrics.alarms[-1]["kind"] == "sensor_resumed"
    for value in ("auto_resume", "bogus", None):
        policy = Policy(fault_policy=value)
        message = re.escape(f"fault_policy {value!r} is not a FaultPolicy")
        with pytest.raises(ScenarioError, match=message):
            run_scenario(replace(sc, policy=policy))
        with pytest.raises(ScenarioError, match=message):
            check_ooe_feasible(sc.task_set, policy)


@pytest.mark.parametrize("task_kw, scenario_kw, message, checked", [
    (dict(envelope_n=1.5), {},
     "task t: envelope_n 1.5 is not an integer tick count", True),
    (dict(importance=1.5), {},
     "task t: importance 1.5 is not an integer tick count", True),
    (dict(response="notify_running"), {},
     "task t: response 'notify_running' is not a ResponseOption", True),
    ({}, dict(policy=Policy(ipl_optimization="yes")),
     "ipl_optimization 'yes' is not a boolean", True),
    ({}, dict(workload=[("l", Explicit((1.5,)))]),
     "explicit workload: times (1.5,) is not a tuple of integer tick "
     "counts", False),
    ({}, dict(seed=1.0), "seed 1.0 is not an integer tick count", False),
    (dict(wcet="x"), {}, "task t: wcet 'x' is not an integer tick count",
     True),
    (dict(id=7), {}, "task 7: id 7 is not a string", True),
    (dict(priority="hi"), {},
     "task t: priority 'hi' is not an integer tick count", True),
    ({}, dict(horizon=10.5), "horizon 10.5 is not an integer tick count",
     True),
    ({}, dict(workload=[("l", Periodic(0, 2.5))]),
     "periodic workload: period 2.5 is not an integer tick count", False),
    ({}, dict(workload=[("l", Storm(0, "3"))]),
     "storm workload: rate '3' is not an integer tick count", False),
    (dict(job_priority_overrides={0: "x"}), {},
     "task t: job_priority_overrides {0: 'x'} is not a mapping of "
     "integers to integers", True),
], ids=["envelope_n", "importance", "response", "ipl_optimization",
        "explicit_times", "seed", "wcet_str", "id", "priority", "horizon",
        "periodic_period", "storm_rate", "override_value"])
def test_wrong_typed_fields_are_refused_before_simulation(
        task_kw, scenario_kw, message, checked):
    # the first six ran, as fractional counts, as release_all, with the
    # IPL on or with another random stream; the others escaped as a
    # TypeError from the first comparison or sum that met them
    kw = dict(workload=[("l", Explicit((0, 3)))], horizon=20)
    kw.update(scenario_kw)
    sc = one_task_scenario(task_kw=task_kw, **kw)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(sc)
    assert exc.value.problems == [message]
    if checked:  # the field reaches the checker too
        with pytest.raises(ScenarioError) as exc:
            check_ooe_feasible(sc.task_set, sc.policy, sc.horizon)
        assert exc.value.problems == [message]


def test_a_float_seed_would_draw_another_stream():
    # the scenario seed keys the sporadic draws as text, so seed 1.0 drew
    # another stream than seed 1, and ran it without a word
    spec = Sporadic(1, 0.5, 0)
    assert generate_workload(spec, 40, 1) != generate_workload(spec, 40, 1.0)
    sc = one_task_scenario(workload=[("l", spec)], horizon=40, seed=1.0)
    with pytest.raises(ScenarioError, match=re.escape(
            "seed 1.0 is not an integer tick count")):
        run_scenario(sc)


def test_a_response_string_is_refused_not_run_as_release_all():
    # the string was run as release_all: no job was notified, where the
    # member notifies the live job of the second, out-of-envelope event
    kw = dict(wcet=3, envelope_n=3, envelope_w=10)
    work = dict(workload=[("l", Explicit((0, 1)))], horizon=10)
    notified, _ = run_scenario(one_task_scenario(
        task_kw=dict(kw, response=ResponseOption.NOTIFY_RUNNING), **work))
    released, _ = run_scenario(one_task_scenario(task_kw=kw, **work))
    assert notified.of_kind("NOTIFY") and not released.of_kind("NOTIFY")
    with pytest.raises(ScenarioError, match="response 'notify_running'"):
        run_scenario(one_task_scenario(
            task_kw=dict(kw, response="notify_running"), **work))


def test_a_non_numeric_period_leaves_the_deadline_to_the_gate():
    # the default deadline was int(period), which raised a bare ValueError
    # from the constructor
    task = Task(id="t", wcet=1, period="x", importance=0, line="l",
                envelope_n=1, envelope_w=1)
    assert task.deadline is None
    sc = Scenario(task_set=TaskSet([task]), horizon=5)
    with pytest.raises(ScenarioError, match=re.escape(
            "task t: period 'x' is not a whole number of ticks")):
        run_scenario(sc)


def test_engine_expands_each_spec_once_and_replays_on_a_plain_engine(
        monkeypatch):
    # validation expands each spec and hands the expansion to the engine,
    # which expanded every spec a second time
    expanded, built = [], []
    expand, init = engine_module._raises, Engine.__init__

    def counted_expand(spec, *args):
        expanded.append(spec)
        return expand(spec, *args)

    def recorded_init(self, scenario):
        built.append(type(self))
        init(self, scenario)

    monkeypatch.setattr(engine_module, "_raises", counted_expand)
    sc = scenario_monotonic()
    Engine(sc)
    assert expanded == [spec for _, spec in sc.workload]
    # a witness replay is an ordinary, validating engine run
    monkeypatch.setattr(Engine, "__init__", recorded_init)
    result = check_ooe_feasible(sc.task_set, sc.policy)
    assert not result.feasible and built == [Engine]


def test_explicit_assignment_requires_priorities():
    sc = one_task_scenario(policy=Policy(assignment="explicit"),
                           workload=[], horizon=5)
    with pytest.raises(ScenarioError):
        run_scenario(sc)


# determinism

def test_reruns_are_byte_identical():
    sc = random_scenario(7)
    t1, m1 = run_scenario(sc)
    t2, m2 = run_scenario(sc)
    assert t1.to_csv_string() == t2.to_csv_string()
    assert m1.to_json_string() == m2.to_json_string()


# the two-task counterexample and its repairs

def test_monotonic_priorities_miss_under_normal_arrivals():
    trace, metrics = run_scenario(scenario_monotonic())
    misses = trace.of_kind("MISS")
    assert len(misses) == 1
    miss = misses[0]
    assert (miss.task, miss.job, miss.time) == ("tau_l", 0, 3)
    assert miss.detail == "remaining=1"
    # the high task occupied [0, 2)
    start = trace.of_kind("START", task="tau_h")[0]
    done = trace.of_kind("COMPLETE", task="tau_h")[0]
    assert (start.time, done.time, done.detail) == (0, 2, "response=2")
    assert metrics.per_task["tau_l"]["misses"] == 1


def test_override_meets_every_deadline():
    for horizon in (6, 12):
        trace, metrics = run_scenario(scenario_override(horizon))
        assert not trace.of_kind("MISS")
        assert not trace.of_kind("DROP")
        assert metrics.per_task["tau_l"]["misses"] == 0
        assert metrics.per_task["tau_h"]["misses"] == 0


def test_override_priority_pattern_repeats():
    # even jobs of tau_l carry the override and run first in their period
    trace, _ = run_scenario(scenario_override(12))
    starts = {(r.task, r.job): r.time for r in trace.of_kind("START")}
    assert starts[("tau_l", 0)] == 0
    assert starts[("tau_l", 2)] == 6
    assert starts[("tau_h", 0)] == 2
    assert starts[("tau_h", 1)] == 8


def test_burst_drop_is_sanctioned_not_missed():
    trace, metrics = run_scenario(scenario_override_burst())
    assert not trace.of_kind("MISS")
    drops = trace.of_kind("DROP")
    assert len(drops) == 1
    assert (drops[0].task, drops[0].job, drops[0].time) == ("tau_l", 1, 6)
    assert drops[0].detail == "remaining=2"
    entered = [a for a in metrics.alarms
               if a["kind"] == "out_of_envelope_entered"]
    assert len(entered) == 1
    assert entered[0]["line"] == "l_high" and entered[0]["time"] == 3
    # both jobs of the important task finish
    done = trace.of_kind("COMPLETE", task="tau_h")
    assert [(r.job, r.time) for r in done] == [(0, 4), (1, 6)]
    assert metrics.per_task["tau_h"]["completions"] == 2


# controller behavior through the engine

def test_same_tick_raises_coalesce():
    sc = one_task_scenario(workload=[("l", Burst(3, 2, 0))], horizon=8)
    trace, metrics = run_scenario(sc)
    assert len(trace.of_kind("RAISE", line="l")) == 2
    assert len(trace.of_kind("INTERNALIZE", line="l")) == 1
    sup = trace.of_kind("SUPPRESS", line="l")
    assert len(sup) == 1 and sup[0].detail == "coalesced"
    raised, internalized, counter_only = conservation_counts(trace, "l")
    assert raised == internalized + counter_only == 2
    assert metrics.per_line["l"]["raised"] == 2
    assert metrics.per_line["l"]["suppressed"] == 1


def test_in_envelope_raises_internalize_same_tick():
    sc = one_task_scenario(task_kw=dict(period=4, envelope_n=3),
                           workload=[("l", Periodic(0, 4))], horizon=20)
    trace, _ = run_scenario(sc)
    raises = trace.of_kind("RAISE", line="l")
    finished = trace.of_kind("INTERNALIZE", line="l")
    assert [r.time for r in raises] == [r.time for r in finished]
    assert internalize_timestamps(trace, "l") == [0, 4, 8, 12, 16]


def test_single_event_envelope_cycles_without_loss():
    # n=1 with W=T: the mask reopens right before each periodic arrival
    sc = one_task_scenario(task_kw=dict(period=5, envelope_n=1,
                                        envelope_w=5),
                           workload=[("l", Periodic(0, 5))], horizon=20)
    trace, metrics = run_scenario(sc)
    assert len(trace.of_kind("INTERNALIZE", line="l")) == 4
    assert not trace.of_kind("SUPPRESS", line="l")
    assert metrics.per_task["t"]["completions"] == 4
    assert not metrics.per_task["t"]["misses"]


def test_storm_declares_permanent_fault():
    sc = one_task_scenario(
        task_kw=dict(envelope_n=1, envelope_w=5, period=5),
        workload=[("l", Storm(0, 1))], horizon=10)
    trace, metrics = run_scenario(sc)
    assert len(trace.of_kind("INTERNALIZE", line="l")) == 1
    assert len(trace.of_kind("SUPPRESS", line="l")) == 9
    kinds = [a["kind"] for a in metrics.alarms]
    assert kinds == ["window_bound_reached", "sensor_fault"]
    assert [a["time"] for a in metrics.alarms] == [0, 5]
    # permanent: no further unmask after the fault
    assert not trace.of_kind("UNMASK", line="l")


def test_fault_auto_resume_through_engine():
    sc = one_task_scenario(
        task_kw=dict(envelope_n=1, envelope_w=4, period=4),
        workload=[("l", Explicit((0, 2)))], horizon=16,
        policy=Policy(fault_policy=FaultPolicy.AUTO_RESUME))
    trace, metrics = run_scenario(sc)
    kinds = [(a["time"], a["kind"]) for a in metrics.alarms]
    assert kinds == [
        (0, "window_bound_reached"),
        (4, "sensor_fault"),
        (8, "sensor_resumed"),
    ]
    unmasks = trace.of_kind("UNMASK", line="l")
    assert [r.time for r in unmasks] == [8]


def test_top_half_time_delays_completion():
    sc = one_task_scenario(task_kw=dict(wcet=2),
                           workload=[("l", Explicit((0,)))], horizon=10,
                           policy=Policy(delta_th=2))
    trace, metrics = run_scenario(sc)
    done = trace.of_kind("COMPLETE", task="t")[0]
    assert done.time == 4 and done.detail == "response=4"
    assert metrics.total_top_half_time == 2
    assert metrics.per_line["l"]["top_half_time"] == 2


def test_top_half_time_is_additive():
    sc = one_task_scenario(task_kw=dict(wcet=1),
                           workload=[("l", Explicit((0, 5)))], horizon=10,
                           policy=Policy(delta_th=1))
    trace, metrics = run_scenario(sc)
    done = trace.of_kind("COMPLETE", task="t")
    assert [(r.job, r.time) for r in done] == [(0, 2), (1, 7)]
    assert metrics.total_top_half_time == 2


def test_notify_running_notifies_live_job():
    sc = one_task_scenario(
        task_kw=dict(wcet=5, response=ResponseOption.NOTIFY_RUNNING,
                     envelope_n=3),
        workload=[("l", Explicit((0, 2)))], horizon=12)
    trace, metrics = run_scenario(sc)
    notes = trace.of_kind("NOTIFY", line="l")
    assert len(notes) == 1
    assert notes[0].time == 2 and notes[0].job == 0
    assert notes[0].detail == "ooe"  # gap 2 < period 10
    assert metrics.per_task["t"]["notifications"] == 1
    assert metrics.per_task["t"]["released"] == 1
    entered = [a for a in metrics.alarms
               if a["kind"] == "out_of_envelope_entered"]
    assert [a["time"] for a in entered] == [2]


def test_exception_only_task_every_repeat_is_ooe():
    sc = one_task_scenario(
        task_kw=dict(period=INFINITE_PERIOD, deadline=4, envelope_n=3,
                     envelope_w=5),
        workload=[("l", Explicit((0, 6)))], horizon=14)
    trace, metrics = run_scenario(sc)
    recs = trace.of_kind("INTERNALIZE", line="l")
    assert recs[0].detail == "ts=0"
    assert recs[1].detail == "ts=6;ooe"  # any gap is below an infinite period
    rel = trace.of_kind("RELEASE", line="l")
    assert [r.detail for r in rel] == ["deadline=4", "deadline=10"]
    entered = [a for a in metrics.alarms
               if a["kind"] == "out_of_envelope_entered"]
    assert [a["time"] for a in entered] == [6]


def test_ipl_suppression_and_backfill():
    # single runner: no released job would preempt it, so its own line is
    # held below the level until it completes
    sc = one_task_scenario(task_kw=dict(wcet=3, importance=5),
                           workload=[("l", Explicit((0, 1)))], horizon=12,
                           policy=Policy(ipl_optimization=True))
    trace, metrics = run_scenario(sc)
    sup = trace.of_kind("SUPPRESS", line="l")
    assert len(sup) == 1
    assert sup[0].time == 1 and sup[0].detail == "ipl"
    deferred = [r for r in trace.of_kind("INTERNALIZE", line="l")
                if ";deferred" in r.detail]
    assert len(deferred) == 1
    assert deferred[0].time == 3  # backfilled when the first job completed
    assert deferred[0].detail.startswith("ts=0;deferred")
    levels = [r.detail for r in trace.of_kind("IPL_SET")]
    assert levels[0] == "level=6"
    assert metrics.per_task["t"]["completions"] == 2
    raised, internalized, counter_only = conservation_counts(trace, "l")
    assert raised == internalized + counter_only == 2


def test_lines_are_served_by_importance_not_line_id():
    # line ids sort against importance: "a" is the least important line
    tasks = TaskSet([
        Task(id="r", wcet=5, period=20, importance=9, line="r",
             envelope_n=2, envelope_w=20),
        Task(id="ta", wcet=1, period=20, importance=1, line="a",
             envelope_n=2, envelope_w=20),
        Task(id="tb", wcet=1, period=20, importance=2, line="b",
             envelope_n=2, envelope_w=20),
    ])
    sc = Scenario(task_set=tasks, horizon=20,
                  policy=Policy(ipl_optimization=True),
                  workload=[("r", Explicit((0,))), ("a", Explicit((1, 10))),
                            ("b", Explicit((2, 10)))])
    trace, _ = run_scenario(sc)
    # r runs over [0, 5) and no released job would preempt it, so the
    # raises at 1 and 2 are suppressed and both backfilled at 5
    assert [r.line for r in trace.of_kind("SUPPRESS")] == ["a", "b"]
    deferred = [(r.time, r.line) for r in trace.of_kind("INTERNALIZE")
                if ";deferred" in r.detail]
    assert deferred == [(5, "b"), (5, "a")]
    same_tick = [r.line for r in trace.of_kind("RAISE") if r.time == 10]
    assert same_tick == ["b", "a"]


class RoundCountingEngine(Engine):
    """Counts the rounds of each schedule point: each round picks the job
    to run once, while _apply_ipl is entered only in the rounds where the
    running job or a line priority moved."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.rounds = []
        pick_next = self.sched.pick_next

        def counted(t):
            self.rounds[-1] += 1
            return pick_next(t)

        self.sched.pick_next = counted

    def _schedule_point(self, t):
        self.rounds.append(0)
        super()._schedule_point(t)


def test_schedule_point_rounds_stay_under_the_derived_cap():
    most = at_cap = 0
    for seed in range(1000):
        sc = random_scenario(seed)
        if not sc.policy.ipl_optimization:
            continue
        engine = RoundCountingEngine(sc)
        engine.run()
        cap = len(sc.task_set) + 1
        assert max(engine.rounds) <= cap, seed
        at_cap += max(engine.rounds) == cap
        most = max(most, max(engine.rounds))
    assert most >= 2  # backfills really make schedule points iterate
    assert at_cap  # and the cap is reached: every line backfilled once


def test_schedule_point_matches_the_confirming_loop():
    # each scenario as generated, and one with the IPL on whose releases
    # move line priorities through job-level overrides; a generated
    # scenario that has the IPL on already is run once
    for seed in range(2000):
        sc = random_scenario(seed)
        variants = [sc]
        if not sc.policy.ipl_optimization:
            variants.append(with_ipl_and_overrides(sc, seed))
        for scenario in variants:
            trace, metrics = Engine(scenario).run()
            want, want_metrics = ConfirmingEngine(scenario).run()
            assert trace.to_csv_string() == want.to_csv_string(), seed
            assert metrics.to_json_string() \
                == want_metrics.to_json_string(), seed


def test_level_computations_read_a_current_index(monkeypatch):
    # the index is rebuilt only after a release moved a line priority, so
    # at every level computation it must equal the index of the lines'
    # current next-job priorities, and give the linear oracle's level
    engines, compute_ipl = [], engine_module.compute_ipl
    checked = [0]

    def checking(running_priority, index):
        engine = engines[-1]
        seq, priority = engine.sched.seq, engine.pmap.priority
        lines = [(task.importance, priority(task.id, seq[task.id]))
                 for task in interrupt_order(engine.task_set)]
        assert index == ipl_index(lines)
        level = compute_ipl(running_priority, index)
        assert level == linear_compute_ipl(running_priority, lines)
        checked[0] += running_priority is not None
        return level

    monkeypatch.setattr(engine_module, "compute_ipl", checking)
    for seed in range(300):
        engines.append(Engine(
            with_ipl_and_overrides(random_scenario(seed), seed)))
        engines[-1].run()
    assert checked[0] > 1000


def bench_batch(name, seed):
    """The benchmark's batch of run items for a workload and seed, parsed
    as `envelopesim run` parses them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_scenario(item.scenario)
            for item in workloads.generate(name, seed)]


def test_ipl_wide_computes_each_level_once(monkeypatch):
    # compute_ipl runs once per level computation, as many times as the
    # linear scan did before the index; the index is rebuilt only at the
    # computations that follow a moved line priority
    calls = {"compute_ipl": 0, "ipl_index": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(engine_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine_module, name, counted)
    for scenario in bench_batch("ipl_wide", 0):
        run_scenario(scenario)
    assert calls == {"compute_ipl": 5025, "ipl_index": 420}


# per seed-0 batch, how often a run enters the timer, shed and IPL
# phases. Entered at every step, they were (2316, 1158, 0) on sparse_long,
# (9344, 4672, 0) on storm_defense and (13097, 6438, 6543) on ipl_wide
PHASE_ENTRIES = {
    "sparse_long": (0, 0, 0),
    "storm_defense": (3901, 18, 0),
    "ipl_wide": (1646, 4, 5025),
}


@pytest.mark.parametrize("name", sorted(PHASE_ENTRIES))
def test_phases_are_entered_only_when_due(name, monkeypatch):
    # a timer phase only with a timer due, a shed only with a deadline
    # come, a level computation only after the running job or a line
    # priority moved
    phases = ("_process_timers", "_process_shed", "_apply_ipl")
    calls = dict.fromkeys(phases, 0)
    for phase in phases:
        def counted(self, t, _phase=phase, _fn=getattr(Engine, phase)):
            calls[_phase] += 1
            return _fn(self, t)
        monkeypatch.setattr(Engine, phase, counted)
    for scenario in bench_batch(name, 0):
        run_scenario(scenario)
    assert tuple(calls.values()) == PHASE_ENTRIES[name]


def test_schedule_points_do_not_poll_monitors_or_priorities(monkeypatch):
    # the elevated set and the line priorities are kept from events, so a
    # run asks a monitor or the priority map about once per internalized
    # occurrence, not once per line in every round; polling them made
    # about 6.6 calls per round on these seeds
    calls = [0]
    for owner, name in ((LineMonitor, "ooe_active"),
                        (PriorityMap, "priority")):
        def counted(*args, _fn=getattr(owner, name)):
            calls[0] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    rounds = 0
    for seed in range(1000):
        sc = random_scenario(seed)
        if not sc.policy.ipl_optimization:
            continue
        engine = RoundCountingEngine(sc)
        engine.run()
        rounds += sum(engine.rounds)
    assert rounds > 5000
    assert calls[0] <= 2 * rounds


class LiveEpisodeEngine(Engine):
    """The engine, asserting at every round of every schedule point, the
    first included, that the scheduler's elevated set, which the engine
    keeps from events, holds exactly the tasks whose monitor reports a
    live episode. Counts the rounds that found a task elevated."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.elevated_rounds = 0
        pick_next = self.sched.pick_next

        def checked(t):
            live = {mon.task_id for mon in self.monitors.values()
                    if mon.ooe_active(t)}
            assert self.sched.elevated == live, t
            self.elevated_rounds += bool(live)
            return pick_next(t)

        self.sched.pick_next = checked


def test_elevated_set_and_alarms_are_each_recorded_once():
    # the random suite and the storm batch, which open episodes, arm
    # their decay timers and raise every alarm kind
    elevated_rounds = decay_timers = 0
    kinds = set()
    for scenario in [*map(random_scenario, range(1000)),
                     *map(storm_scenario, range(120))]:
        engine = LiveEpisodeEngine(scenario)
        trace, metrics = engine.run()
        elevated_rounds += engine.elevated_rounds
        decay_timers += sum(r.detail.startswith("decay_expiry=")
                      for r in trace.of_kind("TIMER_SET"))
        alarms = [(a["time"], a["line"], a["kind"]) for a in metrics.alarms]
        assert alarms == [(r.time, r.line, r.detail)
                          for r in trace.of_kind("ALARM")]
        kinds.update(kind for _, _, kind in alarms)
    assert elevated_rounds > 5000 and decay_timers > 5000
    assert kinds == {"out_of_envelope_entered", "window_bound_reached",
                     "sensor_fault", "sensor_resumed"}


def test_ipl_off_means_no_ipl_records():
    sc = one_task_scenario(workload=[("l", Periodic(0, 10))], horizon=20)
    trace, _ = run_scenario(sc)
    assert not trace.of_kind("IPL_SET")
    assert not [r for r in trace.of_kind("SUPPRESS") if r.detail == "ipl"]


def test_bottom_half_defers_and_backfills():
    sc = one_task_scenario(
        task_kw=dict(wcet=4, period=20, envelope_n=5, envelope_w=10),
        workload=[("l", Explicit((0, 1, 2, 3)))], horizon=30,
        policy=Policy(mask_until_bottom_half=True))
    trace, metrics = run_scenario(sc)
    # one mask per deferred handler: the opener, then one re-mask
    # covering the whole backfilled batch
    masks = trace.of_kind("MASK", line="l")
    assert [(r.time, r.detail) for r in masks] == [(0, "bottom_half"),
                                                   (4, "bottom_half")]
    unmask = trace.of_kind("UNMASK", line="l")
    assert unmask[0].time == 4 and unmask[0].detail == "bottom_half"
    deferred = [r for r in trace.of_kind("INTERNALIZE", line="l")
                if ";deferred" in r.detail]
    assert len(deferred) == 3
    assert all(r.detail.startswith("ts=0;deferred") for r in deferred)
    assert all(r.time == 4 for r in deferred)
    starts = trace.of_kind("START", task="t")
    assert [r.time for r in starts] == [0, 4, 8, 12]
    assert metrics.per_task["t"]["completions"] == 4
    raised, internalized, counter_only = conservation_counts(trace, "l")
    assert raised == internalized + counter_only == 4


def test_bottom_half_leaves_a_window_mask_alone():
    # the drained internalization fills the window, so the line is
    # already masked when the bottom-half mask would start; the window
    # defense keeps the mask, and its timer lifts it
    sc = one_task_scenario(
        task_kw=dict(wcet=2, period=20, envelope_n=1, envelope_w=10),
        workload=[("l", Explicit((0,)))], horizon=20,
        policy=Policy(mask_until_bottom_half=True))
    trace, metrics = run_scenario(sc)
    assert [(r.time, r.detail) for r in trace.of_kind("MASK")] == [
        (0, "window")]
    assert [(r.time, r.detail) for r in trace.of_kind("UNMASK")] == [
        (10, "window")]
    assert [r.time for r in trace.of_kind("COMPLETE")] == [2]
    assert metrics.per_line["l"]["mask_ops"] == 2


def test_metrics_shape():
    _, metrics = run_scenario(scenario_override_burst())
    data = metrics.to_dict()
    assert set(data) == {"per_task", "per_line", "alarms",
                         "total_top_half_time"}
    tau_l = data["per_task"]["tau_l"]
    assert tau_l["released"] == 4
    assert tau_l["completions"] == 3
    assert tau_l["drops"] == 1
    assert tau_l["max_response"] == 2
    tau_h = data["per_task"]["tau_h"]
    assert tau_h["completions"] == 2
    assert tau_h["max_response"] == 4
    assert data["per_line"]["l_low"]["raised"] == 4
    assert data["total_top_half_time"] == 0


def test_bottom_half_remask_keeps_the_masking_event_timestamp():
    # the re-mask after a backfill is stamped with the backfilled
    # timestamp, so what queues up behind it is backfilled at that
    # timestamp too, not at the tick of the first release
    sc = one_task_scenario(
        task_kw=dict(wcet=3, period=20, envelope_n=10, envelope_w=10),
        workload=[("l", Explicit((0, 1, 4)))], horizon=20,
        policy=Policy(mask_until_bottom_half=True))
    trace, _ = run_scenario(sc)
    deferred = [(r.time, r.detail.split(";")[0])
                for r in trace.of_kind("INTERNALIZE", line="l")
                if ";deferred" in r.detail]
    assert deferred == [(3, "ts=0"), (6, "ts=0")]
