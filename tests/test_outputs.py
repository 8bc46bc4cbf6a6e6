"""The trace CSV and metrics JSON writers against csv.writer and
json.dumps (`support.csv_oracle`, `support.json_oracle`), the per-step
trace append, and held-stretch trace entries against the records they
stand for."""

import csv
import gc
import io
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from enum import IntEnum
from pathlib import Path

import pytest

import envelopesim.engine as engine_module
from envelopesim import (
    Burst,
    Engine,
    EngineError,
    Explicit,
    FaultPolicy,
    Metrics,
    Periodic,
    Policy,
    Scenario,
    ScenarioError,
    Storm,
    Task,
    TaskSet,
    Trace,
    TraceRecord,
    generate_workload,
    run_scenario,
)
from envelopesim.cli import load_scenario
from support import TickEngine, assert_same_text, csv_oracle, \
    json_oracle, random_scenario, storm_scenario

DEMO_SCENARIOS = sorted(
    (Path(__file__).parent.parent / "demos" / "scenarios").glob("*.json")
)


def assert_writers_match(trace, metrics):
    assert trace.to_csv_string() == csv_oracle(trace)
    assert metrics.to_json_string() == json_oracle(metrics)


def test_writers_match_the_oracles_on_the_random_suite():
    for seed in range(1000):
        assert_writers_match(*run_scenario(random_scenario(seed)))


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_writers_match_the_oracles_on_the_demos(path):
    assert_writers_match(*run_scenario(load_scenario(path)))


# the trace CSV

def scenario_with_ids(line, task):
    """A storm on a line with the given ids next to a plain periodic
    line: raises, suppressions, masks, alarms, releases and drops."""
    return Scenario(
        task_set=TaskSet([
            Task(id=task, wcet=1, period=5, importance=2, line=line,
                 envelope_n=1, envelope_w=5),
            Task(id="plain", wcet=1, period=4, importance=1, line="l",
                 envelope_n=1, envelope_w=4),
        ]),
        workload=[(line, Storm(2, 2)), ("l", Periodic(0, 4))],
        horizon=12,
    )


@pytest.mark.parametrize("char", [",", '"', "\n"],
                         ids=["comma", "quote", "newline"])
def test_ids_that_need_quoting_are_written_as_csv_writer_does(char):
    line, task = f"li{char}ne", f"{char}task{char}"
    trace, _ = run_scenario(scenario_with_ids(line, task))
    assert trace.of_kind(line=line)
    assert trace.to_csv_string() == csv_oracle(trace)


@pytest.mark.parametrize("line,task", [("li\rne", "task"),
                                       ("line", "ta\rsk")],
                         ids=["line", "task"])
def test_ids_with_a_carriage_return_are_refused(line, task):
    # csv.writer leaves "\r" unquoted under a "\n" line terminator, and
    # csv.reader then splits the record there
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scenario_with_ids(line, task))
    assert exc.value.problems == [
        f"task {task!r}: task and line ids may not hold a carriage return"
    ]


def test_a_carriage_return_in_a_built_trace_is_written_as_csv_writer_does():
    # the engine refuses such ids, but a Trace can be built by hand
    trace = Trace()
    trace.append(TraceRecord(0, "RAISE", "li\rne", "task", None, "x"))
    assert trace.to_csv_string() == csv_oracle(trace)


def test_quoted_ids_read_back():
    line, task = 'l,"i\nne"', '"\n,task'
    trace, _ = run_scenario(scenario_with_ids(line, task))
    rows = list(csv.reader(io.StringIO(trace.to_csv_string(), newline="")))
    assert rows[0] == ["time", "kind", "line", "task", "job", "detail"]
    assert rows[1:] == [
        [str(r.time), r.kind, r.line, r.task,
         "" if r.job is None else str(r.job), r.detail]
        for r in trace.records
    ]
    assert any(r.line == line for r in trace.records)


def test_plain_ids_take_the_unquoted_path(monkeypatch, tmp_path):
    trace, _ = run_scenario(scenario_with_ids("line", "task"))
    # reading the records makes a trace quoted: the oracle reads a twin
    expected = csv_oracle(run_scenario(scenario_with_ids("line", "task"))[0])

    def no_quoting(*args, **kwargs):
        raise AssertionError("a trace without quoting put in its CSV form")

    monkeypatch.setattr(engine_module, "_csv_form", no_quoting)
    text = trace.to_csv_string()
    assert text == expected
    assert written(trace, tmp_path / "trace.csv") == expected
    assert '"' not in text


# the CSV in chunks: to_csv_string joins them, write_csv streams them

@pytest.fixture(params=[None, 7], ids=lambda c: f"chunk{c or ''}")
def csv_chunk(request, monkeypatch):
    """The CSV chunk: the module's, then a few entries."""
    if request.param is not None:
        monkeypatch.setattr(engine_module, "_CSV_CHUNK", request.param)
    return engine_module._CSV_CHUNK


def written(trace, path):
    """What write_csv leaves in the file at path, as text."""
    trace.write_csv(path)
    return path.read_bytes().decode("utf-8")


def counting_chunks(monkeypatch):
    """A list that gets each chunk of entries _csv_rows renders."""
    rendered = []
    csv_rows = engine_module._csv_rows

    def rows(entries, *rest):
        rendered.append(entries)
        return csv_rows(entries, *rest)

    monkeypatch.setattr(engine_module, "_csv_rows", rows)
    return rendered


def test_traces_of_several_chunks_match_the_oracle(csv_chunk, tmp_path,
                                                   monkeypatch):
    path = tmp_path / "trace.csv"
    rendered = counting_chunks(monkeypatch)
    long = 0
    for seed in range(30):
        trace, _ = run_scenario(storm_scenario(seed))
        text = trace.to_csv_string()
        rendered.clear()
        assert written(trace, path) == text
        long += len(rendered) > 2
        # the oracle expands the held stretches the writers rendered
        assert text == csv_oracle(trace)
    assert long >= 3


def late_id_scenario(line, horizon):
    """A periodic line from tick 0 and a line with the given id that
    raises once, near the horizon."""
    return Scenario(
        task_set=TaskSet([
            Task(id="plain", wcet=1, period=4, importance=1, line="l",
                 envelope_n=1, envelope_w=4),
            Task(id="late", wcet=1, period=5, importance=2, line=line,
                 envelope_n=1, envelope_w=5),
        ]),
        workload=[("l", Periodic(0, 4)), (line, Explicit((horizon - 2,)))],
        horizon=horizon,
    )


@pytest.mark.parametrize("char", [",", '"'], ids=["comma", "quote"])
def test_an_id_to_quote_in_a_late_chunk_is_quoted_from_the_start(
        char, csv_chunk, tmp_path):
    line = f"li{char}ne"
    trace, _ = run_scenario(late_id_scenario(line, 4 * csv_chunk))
    first = next(i for i, e in enumerate(trace._entries) if e[2] == line)
    assert first >= 2 * csv_chunk
    expected = csv_oracle(trace)
    assert trace.to_csv_string() == expected
    # the engine knew of the id before the first row, so the early
    # chunks are put in their CSV form as the late one is
    assert written(trace, tmp_path / "trace.csv") == expected


class WrittenOnce(io.StringIO):
    """A file write_csv may only append to: it is never rewound or cut.
    Its text is kept when it is closed."""

    def seek(self, *args):
        raise AssertionError("the file was rewound")

    def truncate(self, *args):
        raise AssertionError("the file was truncated")

    def close(self):
        self.text = self.getvalue()
        super().close()


@pytest.mark.parametrize("char", [",", '"', "\n"],
                         ids=["comma", "quote", "newline"])
def test_an_id_to_quote_renders_no_chunk_unquoted(char, csv_chunk,
                                                  monkeypatch):
    line = f"li{char}ne"
    scenario = late_id_scenario(line, 4 * csv_chunk)
    expected = csv_oracle(run_scenario(scenario)[0])
    trace, _ = run_scenario(scenario)
    rendered = counting_chunks(monkeypatch)
    files = []

    def opened(*args, **kwargs):
        files.append(WrittenOnce())
        return files[-1]

    monkeypatch.setattr(engine_module, "open", opened, raising=False)
    assert trace.to_csv_string() == expected
    trace.write_csv("trace.csv")
    assert [f.text for f in files] == [expected]
    # every chunk reaches the renderer with the id in its quoted form only
    quoted = '"' + line.replace('"', '""') + '"'
    fields = [[f for e in chunk
               for f in (e[3] if e[1] is engine_module._HELD else e)]
              for chunk in rendered]
    assert len(fields) >= 2
    assert not any(line in chunk for chunk in fields)
    assert any(quoted in chunk for chunk in fields)


# the characters csv.writer quotes, and "\r", which it leaves as it is
ODD = [",", '"', "\n", "\r"]


@pytest.mark.parametrize("add", ["append", "extend", "records"])
def test_records_added_from_outside_are_written_as_csv_writer_does(
        add, csv_chunk, tmp_path):
    trace, _ = run_scenario(scenario_with_ids("line", "task"))
    assert held_runs(trace)
    end = trace._entries[-1][0]
    plain = TraceRecord(end, "MASK", "l", "plain", 1, "window")
    odd = [plain._replace(**{field: f"a{c}b"})
           for c in ODD for field in ("line", "task", "kind", "detail")]
    if add == "append":
        for rec in odd:
            trace.append(rec)
    elif add == "extend":
        trace.extend(odd)
    else:
        trace.records.extend(odd)
    text = trace.to_csv_string()
    assert written(trace, tmp_path / "trace.csv") == text
    assert text == csv_oracle(trace)
    assert '"a,b"' in text and '"a""b"' in text and "a\rb" in text


# a seeded batch of traces built by hand, with any strings in any field

TEXT = [",", '"', "\n", "\r", " ", "é", "ü€", "", "x"]


def random_text(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 3)))


def random_record(rng, t):
    job = rng.choice([None, rng.randint(-3, 99), random_text(rng),
                      rng.uniform(-1e3, 1e3), 1e20, float("nan")])
    return TraceRecord(t, random_text(rng), random_text(rng),
                       random_text(rng), job, random_text(rng))


def random_stretch(rng, first):
    """A held stretch from first, its ids drawn like any field; and the
    records it stands for beyond one."""
    last = first + rng.choice([0, 0, 1, rng.randint(2, 60)])
    runs = ()
    for _ in range(rng.randint(1, 3)):
        runs += (random_text(rng), random_text(rng),
                 rng.choice(sorted(SUPPRESS_REASON)), rng.randint(1, 4))
    rows = 2 * sum(runs[3::4])
    ticks = last - first + 1
    return (last, engine_module._HELD, first, runs, rows, ticks), \
        rows * ticks - 1


def random_built_trace(rng):
    """A trace built through append, extend (records and held stretches)
    and the records list, in time order."""
    trace, t = Trace(), 0
    for _ in range(rng.randint(0, 12)):
        t += rng.randint(0, 2)
        how = rng.random()
        if how < 0.3:
            trace.append(random_record(rng, t))
        elif how < 0.9:
            entries, extra = [], 0
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    entries.append(random_record(rng, t))
                    continue
                stretch, more = random_stretch(rng, t)
                entries.append(stretch)
                extra += more
                if stretch[0] > t:  # a wider stretch ends the step
                    t = stretch[0]
                    break
            trace.extend(entries, extra)
        else:
            trace.records.append(random_record(rng, t))
    return trace


def no_expand(entries):
    raise AssertionError("a write path built the records")


def test_built_traces_match_the_oracle(csv_chunk, tmp_path, monkeypatch):
    rng = random.Random(20261020)
    path = tmp_path / "trace.csv"
    stretches = wide = 0
    for _ in range(300):
        trace = random_built_trace(rng)
        stretches += len(held_runs(trace))
        wide += len(trace) > csv_chunk
        entries = list(trace._entries)
        with monkeypatch.context() as m:
            m.setattr(engine_module, "_expand", no_expand)
            text = trace.to_csv_string()
            assert written(trace, path) == text
        assert trace._entries == entries
        # the oracle expands the held stretches the writers rendered
        assert text == csv_oracle(trace)
    assert stretches > 300 and wide > 30


def test_a_quoted_storm_is_written_without_building_records(csv_chunk,
                                                            tmp_path,
                                                            monkeypatch):
    trace, _ = run_scenario(storm_probe(300, line='l,"1"'))
    assert len(trace) > 4 * trace.entry_count
    with monkeypatch.context() as m:
        m.setattr(engine_module, "_expand", no_expand)
        text = trace.to_csv_string()
        assert_same_text(written(trace, tmp_path / "trace.csv"), text)
    assert_same_text(text, csv_oracle(trace))
    assert '"l,""1"""' in text


def test_empty_and_one_chunk_traces_are_one_text(monkeypatch, tmp_path):
    path = tmp_path / "trace.csv"
    empty = Trace()
    assert empty.to_csv_string() == csv_oracle(empty) \
        == "time,kind,line,task,job,detail\n"
    assert written(empty, path) == csv_oracle(empty)
    trace, _ = run_scenario(scenario_with_ids("line", "task"))
    assert 1 < len(trace._entries) <= engine_module._CSV_CHUNK
    rendered = []

    def rows(entries, *rest):
        rendered.append(entries)
        return csv_rows(entries, *rest)

    csv_rows = engine_module._csv_rows
    monkeypatch.setattr(engine_module, "_csv_rows", rows)
    text = trace.to_csv_string()
    assert written(trace, path) == text == csv_oracle(trace)
    # one text, rendered from the entries themselves, not a copy
    assert len(rendered) == 2
    assert all(entries is trace._entries for entries in rendered)


def storm_probe(horizon, line="l", rate=3):
    """One line under a storm from tick 0: a trace mostly of held
    stretches, some 2 * rate records per tick."""
    task = Task(id="sensor", wcet=1, period=100, importance=0, line=line,
                envelope_n=2, envelope_w=20)
    return Scenario(
        task_set=TaskSet([task]),
        policy=Policy(delta_th=1, fault_policy=FaultPolicy.AUTO_RESUME),
        workload=[(line, Storm(0, rate))], horizon=horizon)


def assert_write_csv_streams(trace, path):
    """write_csv on a storm probe's trace peaks under an eighth of the
    file it writes: the whole text would be its size at least."""
    gc.collect()
    tracemalloc.start()
    try:
        trace.write_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size / 8


def same_text(got, expected) -> bool:
    try:
        assert_same_text(got, expected)
    except AssertionError:
        return False
    return True


def test_assert_same_text_fails_exactly_where_equality_does():
    # every pair of texts of up to 3 characters of "a\n,", as str and as
    # bytes, a str against its bytes, and unpaired surrogates
    texts = ["".join(chars) for n in range(4)
             for chars in itertools.product("a\n,", repeat=n)]
    cases = [(a, b) for a in texts for b in texts]
    cases += [(a.encode(), b.encode()) for a, b in cases]
    cases += [(a, a.encode()) for a in texts]
    cases += [("\ud800", "\ud800"), ("\ud800", "\udc00"), ("é", "é")]
    for got, expected in cases:
        assert same_text(got, expected) == (got == expected), (got, expected)


def test_assert_same_text_names_the_first_differing_line():
    # a storm probe's text with one character changed in its last row
    text = run_scenario(storm_probe(3 * 10 ** 4))[0].to_csv_string()
    assert len(text) > 5_000_000
    rows = text.count("\n")
    changed = text[:-3] + "X" + text[-2:]
    with pytest.raises(AssertionError,
                       match=f"; first at line {rows}: ") as failure:
        assert_same_text(changed, text)
    assert len(str(failure.value)) < 1000
    with pytest.raises(AssertionError, match=f"first at line {rows + 1}: "
                       "'' != no such line"):
        assert_same_text(text, text[:-1])


def test_write_csv_holds_one_chunk_beside_the_trace(tmp_path):
    trace, _ = run_scenario(storm_probe(3 * 10 ** 4))
    assert_write_csv_streams(trace, tmp_path / "trace.csv")


def test_the_quoted_csv_streams_and_leaves_held_runs_unexpanded(tmp_path):
    # a comma in the line id: every chunk is put in its CSV form
    trace, _ = run_scenario(storm_probe(3 * 10 ** 4, line="l,1"))
    entries = len(trace._entries)
    assert entries < len(trace)
    path = tmp_path / "trace.csv"
    assert_write_csv_streams(trace, path)
    assert len(trace._entries) == entries
    text = trace.to_csv_string()
    assert len(trace._entries) == entries
    expected = csv_oracle(trace)
    assert_same_text(text, expected)
    assert_same_text(path.read_bytes().decode("utf-8"), expected)


def test_to_csv_string_slices_entries_and_write_csv_bounds_rows(
        monkeypatch, tmp_path):
    # to_csv_string returns the whole text, so it renders slices of
    # entries and weighs none; write_csv streams chunks of bounded rows
    trace, _ = run_scenario(storm_probe(3 * 10 ** 4))
    size = engine_module._CSV_CHUNK
    rendered = counting_chunks(monkeypatch)
    pieces = engine_module._pieces

    def weighed(entries, size):
        raise AssertionError("an entry weighed by to_csv_string")

    monkeypatch.setattr(engine_module, "_pieces", weighed)
    text = trace.to_csv_string()
    assert max(len(chunk) for chunk in rendered) <= size
    assert len(rendered) == math.ceil(trace.entry_count / size)
    assert [e for chunk in rendered for e in chunk] == trace._entries
    monkeypatch.setattr(engine_module, "_pieces", pieces)
    rendered.clear()
    assert_same_text(written(trace, tmp_path / "trace.csv"), text)
    rows = [sum(e[4] * e[5] if e[1] is engine_module._HELD else 1
                for e in chunk) for chunk in rendered]
    assert sum(rows) == len(trace) == text.count("\n") - 1
    assert max(rows) <= size
    assert len(rendered) <= 1.1 * len(trace) / size + 1


# an entry wider than a chunk is written in pieces of at most a chunk

QUOTING = pytest.mark.parametrize("line", ["l", "l,1"],
                                  ids=["unquoted", "quoted"])


def assert_streams_whole(trace, path):
    """write_csv streams (see assert_write_csv_streams), leaves the
    trace's entries as they were, and writes the text csv.writer writes,
    which the oracle reads from the expanded records."""
    entries = list(trace._entries)
    assert_write_csv_streams(trace, path)
    assert trace._entries == entries
    assert_same_text(path.read_bytes().decode("utf-8"), csv_oracle(trace))


@QUOTING
def test_a_burst_wider_than_a_chunk_is_written_in_pieces(line, tmp_path):
    # 2 * 10**5 raises at tick 0: one delivered, the rest one held run
    task = Task(id="sensor", wcet=1, period=100, importance=0, line=line,
                envelope_n=2, envelope_w=20)
    trace, _ = run_scenario(Scenario(
        task_set=TaskSet([task]), workload=[(line, Burst(0, 2 * 10 ** 5, 0))],
        horizon=10))
    assert trace.entry_count < 20
    assert len(trace) > 100 * trace.entry_count * engine_module._CSV_CHUNK
    assert_streams_whole(trace, tmp_path / "trace.csv")


@QUOTING
def test_a_stretch_wider_than_a_chunk_is_written_in_pieces(line, tmp_path):
    # a rate-50 storm held back between window expiries: stretches of
    # some 20 ticks of 100 records each
    trace, _ = run_scenario(storm_probe(4000, line=line, rate=50))
    widest = max(e[4] * e[5] for e in held_runs(trace))
    assert widest > engine_module._CSV_CHUNK
    assert_streams_whole(trace, tmp_path / "trace.csv")


# the metrics JSON

def metrics(per_task=None, per_line=None, alarms=(), total=0):
    return Metrics(per_task=per_task or {}, per_line=per_line or {},
                   alarms=list(alarms), total_top_half_time=total)


ROW = {"released": 3, "completions": 3, "misses": 0, "drops": 0,
       "notifications": 1, "max_response": 4, "avg_response": 7 / 3}
EMPTY_ROW = dict(ROW, completions=0, max_response=None, avg_response=None)
ALARMS = [{"time": 0, "line": "l", "kind": "enter_ooe"},
          {"time": 5, "line": "l", "kind": "fault"},
          {"time": 9, "line": "m", "kind": "exit_ooe"}]


class TaskId(str):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 3

METRICS_CASES = {
    "empty": metrics(),
    "no_alarms": metrics({"t": ROW}, {"l": {"raised": 2, "suppressed": 0}}),
    "several_alarms": metrics({"t": ROW}, {"l": {"raised": 2}}, ALARMS, 3),
    "no_responses": metrics({"t": EMPTY_ROW, "u": ROW}),
    "empty_per_task": metrics({}, {"l": {"raised": 1}}, ALARMS[:1]),
    "empty_rows": metrics({"t": {}}, {"l": {}}, [{}]),
    "escaped_ids": metrics(
        {"tä": ROW, 'q"t': EMPTY_ROW, "b\\s": ROW, "☃\n": ROW},
        {"lé": {"raised": 1}, 'l"\\': {"raised": 2}},
        [{"time": 1, "line": "lé", "kind": 'k"\\'}]),
    "bool_values": metrics({"t": dict(ROW, flag=True, off=False)}),
    "floats": metrics({"t": dict(ROW, a=0.1, b=-0.0, c=1e300, d=2.5e-8,
                                 e=math.inf, f=-math.inf, g=math.nan)},
                      total=1.5),
    "str_subclass_id": metrics({TaskId("t"): ROW, "s": ROW},
                               {TaskId("l"): {"raised": TaskId("x")}}),
    "row_keys_not_str": metrics({"t": {True: 1, False: 0, 2.5: 3, 7: 4}},
                                {"l": {None: 1}}),
    "int_enum": metrics({"t": dict(ROW, level=Level.HIGH)},
                        {"l": {Level.LOW: Level.HIGH}}, total=Level.LOW),
    "alarms_tuple": replace(metrics(), alarms=tuple(ALARMS)),
    "str_total": metrics(total="n/a"),
    # outside the fixed shape: json.dumps writes these
    "nested_value": metrics({"t": {"inner": {"x": [1, 2]}}}),
    "tuple_value": metrics({"t": dict(ROW, pair=(1, 2))}),
    "list_in_alarm": metrics(alarms=[{"time": 1, "lines": ["l", "m"]}]),
    "int_keys": metrics(per_line={1: {"raised": 1}}),
    "row_not_a_dict": metrics(per_line={"l": 5}),
    "alarms_str": replace(metrics(), alarms=""),
    "alarms_empty_dict": replace(metrics(), alarms={}),
    "alarms_dict": replace(metrics(), alarms={"a": {"time": 1}}),
    "list_total": metrics(total=[1, 2]),
    "dict_total": metrics(total={"l": 1}),
}


@pytest.mark.parametrize("case", METRICS_CASES.values(), ids=METRICS_CASES)
def test_metrics_json_matches_json_dumps(case):
    assert case.to_json_string() == json_oracle(case)


def test_run_metrics_take_the_direct_path(monkeypatch):
    runs = [run_scenario(load_scenario(path))[1] for path in DEMO_SCENARIOS]
    runs += [run_scenario(random_scenario(seed))[1] for seed in range(50)]
    runs += [run_scenario(held_scenario(seed, 2, True))[1]
             for seed in range(4)]
    assert any(m.alarms for m in runs)
    expected = [json_oracle(m) for m in runs]

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps used for metrics of the run shape")

    monkeypatch.setattr(json, "dumps", no_dumps)
    assert [m.to_json_string() for m in runs] == expected


# the metrics JSON's marked text: the separators hold a newline, which the
# encoder escapes inside strings, so no id or value can pass for one

# strings that would read as a separator, a row's brace or a key's colon
# if a newline inside a string were written as it is
TRICKY = ["a:\n{", "},\n", ":\n[", 'x: {"', "{}", '"}', "\\", '\\"',
          "\n", ',\n"', "é☃", "k\u2028", ":", "{", "}", ""]


def rows_of(n, row):
    return {f"{TRICKY[i % len(TRICKY)]}#{i}": dict(row, i=i)
            for i in range(n)}


SHAPED_CASES = {
    "tricky_ids": metrics(
        {s + "t": ROW for s in TRICKY}, {s + "l": {"raised": 1}
                                          for s in TRICKY}),
    "tricky_values": metrics(
        {"t": {f"k{i}": s for i, s in enumerate(TRICKY)}},
        {s: {s: s} for s in TRICKY},
        [{"time": i, "line": s, "kind": s} for i, s in enumerate(TRICKY)],
        total=TRICKY[0]),
    "tricky_row_keys": metrics({"t": {s: 1 for s in TRICKY}}),
    "one_batch": metrics(rows_of(8, ROW), rows_of(8, {"raised": 2}),
                         (ALARMS * 3)[:8]),
    "batch_and_one": metrics(rows_of(9, ROW), rows_of(9, {"raised": 2}),
                             (ALARMS * 3)[:9]),
    "many_batches": metrics(rows_of(44, ROW), rows_of(44, {"raised": 2}),
                            ALARMS * 17),
    "only_alarms": metrics(alarms=ALARMS),
    "only_per_line": metrics(per_line=rows_of(3, {"raised": 2})),
}

# outside the fixed shape, or rows the direct path leaves to json.dumps:
# each must still come out as json.dumps writes it
FALLBACK_CASES = {
    "empty_row_in_a_batch": metrics(dict(rows_of(9, ROW), e={})),
    "empty_alarm_late": metrics(alarms=ALARMS * 4 + [{}]),
    "empty_dict_value_late": metrics(rows_of(12, ROW) | {"z": {"v": {}}}),
    "empty_list_value": metrics(per_line={"l": {"raised": []}}),
    "nested_in_a_later_batch": metrics(
        per_line=rows_of(20, {"raised": 1}) | {"zz": {"d": {"x": 1}}}),
    "nested_list_in_alarm": metrics(
        alarms=ALARMS * 4 + [{"time": 1, "lines": ("l", "m")}]),
    "nested_where_a_row_is_missing": metrics(
        per_line={"a": 5, "b": {"x": {"y": 1}}}),
    "tricky_row_not_a_dict": metrics(per_task={"t": "a:\n{"}),
    "int_keys_past_nine": metrics(per_task={i: ROW for i in range(12)}),
}


@pytest.mark.parametrize("case", SHAPED_CASES.values(), ids=SHAPED_CASES)
def test_shaped_metrics_match_json_dumps_without_it(case, monkeypatch):
    expected = json_oracle(case)

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps used for metrics of the run shape")

    monkeypatch.setattr(json, "dumps", no_dumps)
    assert case.to_json_string() == expected


@pytest.mark.parametrize("case", FALLBACK_CASES.values(), ids=FALLBACK_CASES)
def test_metrics_outside_the_shape_match_json_dumps(case):
    assert case.to_json_string() == json_oracle(case)


def random_value(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(TRICKY) + rng.choice(TRICKY)
    if kind == 1:
        return rng.randrange(-5, 10 ** 6)
    if kind == 2:
        return rng.choice([0.1, -0.0, 1e300, math.inf, 7 / 3])
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4 and rng.random() < 0.05:  # now and then outside the shape
        return rng.choice([{}, [], {"x": 1}, (1, "}")])
    return rng.randrange(100)


def random_rows(rng, n):
    return [{rng.choice(TRICKY) + str(k): random_value(rng)
             for k in range(rng.randrange(0 if rng.random() < 0.05 else 1,
                                          6))}
            for _ in range(n)]


def test_random_metrics_match_json_dumps(monkeypatch):
    rng = random.Random(0)
    dumps, fallbacks = json.dumps, [0]

    def counted(*args, **kwargs):
        fallbacks[0] += 1
        return dumps(*args, **kwargs)

    def section():
        n = rng.choice((0, 1, 7, 8, 9, 20))
        return {f"{rng.choice(TRICKY)}{i}": row
                for i, row in enumerate(random_rows(rng, n))}

    cases = 400
    for _ in range(cases):
        case = metrics(section(), section(),
                       random_rows(rng, rng.choice((0, 3, 17))),
                       random_value(rng) if rng.random() < 0.9 else [1])
        expected = json_oracle(case)
        monkeypatch.setattr(json, "dumps", counted)
        assert case.to_json_string() == expected
        monkeypatch.setattr(json, "dumps", dumps)
    # both paths were taken, the direct one more often
    assert 0 < fallbacks[0] < cases / 2


def per_row_json(metrics):
    """The fixed shape's JSON as the engine wrote it before it encoded a
    batch of rows per call: one encoder call per row, each section's rows
    joined, then the sections."""
    encode = json.JSONEncoder(sort_keys=True,
                              separators=(",\n      ", ": ")).encode

    def row(r):
        return "{\n      " + encode(r)[1:-1] + "\n    }" if r else "{}"

    def block(brackets, items):
        if not items:
            return brackets
        return (brackets[0] + "\n    " + ",\n    ".join(items) + "\n  "
                + brackets[1])

    return "".join((
        '{\n  "alarms": ', block("[]", [row(r) for r in metrics.alarms]),
        ',\n  "per_line": ', block("{}", [
            encode(k) + ": " + row(r)
            for k, r in sorted(metrics.per_line.items())]),
        ',\n  "per_task": ', block("{}", [
            encode(k) + ": " + row(r)
            for k, r in sorted(metrics.per_task.items())]),
        ',\n  "total_top_half_time": ', encode(metrics.total_top_half_time),
        "\n}\n"))


def json_peak(write, metrics):
    """The peak bytes tracemalloc sees while write(metrics) runs, the
    least of three runs."""
    peaks = []
    for _ in range(3):
        gc.collect()
        tracemalloc.start()
        try:
            write(metrics)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_metrics_json_peaks_no_higher_than_the_per_row_writer():
    # the encoder holds every piece of one call at once, so the rows go
    # in batches; the document is joined from pieces shorter than itself
    lines = 44
    case = metrics(
        {f"w{i:02d}": dict(ROW, avg_response=i / 7) for i in range(lines)},
        {f"lw{i:02d}": {"raised": i, "internalized": i, "suppressed": 0,
                        "top_half_time": 2 * i, "mask_ops": 1}
         for i in range(lines)},
        [{"time": i, "line": f"lw{i % lines:02d}",
          "kind": "out_of_envelope_entered"} for i in range(52)], 140)
    assert per_row_json(case) == case.to_json_string() == json_oracle(case)
    assert json_peak(Metrics.to_json_string, case) \
        <= json_peak(per_row_json, case)


# Trace.extend

def records_at(*times):
    return [TraceRecord(t, "RAISE", "l", "t", None, str(i))
            for i, t in enumerate(times)]


def test_extend_matches_append():
    steps = [records_at(0, 0), records_at(1), records_at(3, 3, 3)]
    appended, extended = Trace(), Trace()
    for step in steps:
        for rec in step:
            appended.append(rec)
        extended.extend(step)
    assert extended.records == appended.records
    assert len(extended) == len(appended) == 6


def test_extend_rejects_backwards_time():
    trace = Trace()
    trace.extend(records_at(5))
    early = TraceRecord(4, "SUPPRESS", "l", "t", None, "ipl")
    with pytest.raises(EngineError) as err:
        trace.extend([early, TraceRecord(4, "RAISE")])
    assert str(early) in str(err.value)
    assert str(trace.records[-1]) in str(err.value)
    assert len(trace) == 1


def test_extend_with_nothing_is_a_no_op():
    trace = Trace()
    trace.extend([])
    assert trace.records == []
    trace.extend(records_at(2))
    before = list(trace.records)
    trace.extend([])
    assert trace.records == before


# held runs: the raises a step holds back are one trace entry

def held_scenario(seed, rate, bottom_half):
    """A seeded storm scenario with every storm at the given rate, the
    IPL optimization on and bottom-half masking as given."""
    sc = storm_scenario(seed)
    return replace(
        sc,
        workload=[(line, Storm(spec.start, rate))
                  if isinstance(spec, Storm) else (line, spec)
                  for line, spec in sc.workload],
        policy=replace(sc.policy, ipl_optimization=True,
                       mask_until_bottom_half=bottom_half),
    )


HELD_SCENARIOS = [
    pytest.param(held_scenario(seed, rate, bottom_half),
                 id=f"seed{seed}-rate{rate}-{mode}")
    for seed in range(4)
    for rate in (1, 2, 3)
    for bottom_half, mode in ((False, "plain"), (True, "bottom_half"))
] + [pytest.param(load_scenario(Path(__file__).parent.parent / "demos"
                                / "scenarios" / "storm.json"), id="demo")]


# the SUPPRESS record's detail for each outcome of a held raise
SUPPRESS_REASON = {"suppressed_masked": "masked", "suppressed_ipl": "ipl",
                   "latched_pending": "coalesced"}


def pair(time, run):
    """The RAISE and SUPPRESS records of one raise of a held run
    (line, task, outcome value, count) at the given tick."""
    line, task, value, _ = run
    return [TraceRecord(time, "RAISE", line, task, None, value),
            TraceRecord(time, "SUPPRESS", line, task, None,
                        SUPPRESS_REASON[value])]


def runs_of(stretch):
    """A held stretch's runs, flat in the entry, as (line, task, outcome
    value, count) tuples."""
    runs = stretch[3]
    return [runs[i:i + 4] for i in range(0, len(runs), 4)]


def stretch_records(stretch):
    """The records a held stretch (last, kind, first, runs, rows, ticks)
    stands for: at each tick, each run's pair count times."""
    last, _, first, _, _, _ = stretch
    return [rec for t in range(first, last + 1) for run in runs_of(stretch)
            for rec in pair(t, run) * run[3]]


def held_runs(trace):
    """The trace's held-stretch entries; every other entry is a record."""
    return [e for e in trace._entries if not isinstance(e, TraceRecord)]


@pytest.mark.parametrize("scenario", HELD_SCENARIOS)
def test_held_runs_read_as_the_records_they_stand_for(scenario):
    trace, _ = run_scenario(scenario)
    assert held_runs(trace)
    size = len(trace)
    text = trace.to_csv_string()
    assert held_runs(trace)  # neither len nor the CSV expanded them
    assert size == len(trace.records) == len(trace)
    assert not held_runs(trace)
    assert trace.to_csv_string() == text == csv_oracle(trace)
    # the engine before held runs logged each raise with fresh records
    ticked, _ = TickEngine(scenario).run()
    assert trace.records == ticked.records


def test_a_held_run_expands_to_its_pairs():
    trace, _ = run_scenario(held_scenario(1, 3, False))
    stretch = max(held_runs(trace), key=lambda e: e[4] * e[5])
    last, _, first, _, rows, ticks = stretch
    runs = runs_of(stretch)
    assert ticks == last - first + 1 > 1
    assert rows == 2 * sum(run[3] for run in runs)
    assert max(run[3] for run in runs) > 1
    single = Trace()
    single.extend([stretch], rows * ticks - 1)
    assert len(single) == rows * ticks
    assert single.records == stretch_records(stretch)


@pytest.mark.parametrize("kinds", [("IPL_SET", "TIMER_SET"), ("MASK",),
                                   ("RELEASE", "COMPLETE", "MISS", "DROP"),
                                   ("RAISE",), ("SUPPRESS", "UNMASK"), ()],
                         ids=lambda k: "-".join(k) or "all")
def test_of_kind_equals_filtering_the_records(kinds):
    for seed in range(6):
        trace, _ = run_scenario(held_scenario(seed, 2, seed % 2 == 0))
        line = sorted({r.line for r in trace.of_kind("INTERNALIZE")})[0]
        found = trace.of_kind(*kinds)
        on_line = trace.of_kind(*kinds, line=line, task=f"t{line[1:]}")
        if kinds and "RAISE" not in kinds and "SUPPRESS" not in kinds:
            assert held_runs(trace)  # answered without expanding
        assert found == [r for r in trace.records
                         if not kinds or r.kind in kinds]
        assert on_line == [r for r in found
                           if r.line == line and r.task == f"t{line[1:]}"]


def test_len_is_kept_as_entries_are_added_and_records_change():
    for seed in range(4):
        trace, _ = run_scenario(held_scenario(seed, 3, seed % 2 == 1))
        runs = held_runs(trace)
        assert runs
        size = len(trace)
        assert size == len(trace.records) == len(trace)
        # a caller may change the list records returns, as a test that
        # drops a record to see an oracle catch it does
        lost = next(r for r in trace.records if r.kind == "SUPPRESS")
        trace.records.remove(lost)
        assert len(trace) == len(trace.records) == size - 1
        trace.records.append(lost)
        assert len(trace) == len(trace.records) == size
        # a held stretch added after the expansion is counted again
        last = trace.records[-1].time
        _, kind, _, lines, rows, ticks = runs[-1]
        trace.extend([(last + ticks - 1, kind, last, lines, rows, ticks)],
                     rows * ticks - 1)
        assert len(trace) == size + rows * ticks
        assert len(trace) == len(trace.records)


def test_a_comma_in_a_line_id_is_quoted_with_held_runs():
    trace, _ = run_scenario(scenario_with_ids("li,ne", "task"))
    assert held_runs(trace)
    text = trace.to_csv_string()
    assert '"li,ne"' in text
    assert text == csv_oracle(trace)


def test_append_and_extend_refuse_backwards_time_after_a_held_run():
    trace, _ = run_scenario(held_scenario(1, 3, False))
    stretch = next(e for e in reversed(held_runs(trace)) if e[5] > 1)
    last, kind, first, runs, rows, ticks = stretch
    line, task = runs[-4:-2]
    held = Trace()
    held.extend([stretch], rows * ticks - 1)
    # before the stretch's first tick, and after it but before its last
    for time in (first - 1, last - 1):
        early = TraceRecord(time, "ALARM", line, task)
        for add in (held.append, lambda rec: held.extend([rec])):
            with pytest.raises(EngineError) as err:
                add(early)
            assert str(early) in str(err.value)
            assert str(pair(last, runs[-4:])[1]) in str(err.value)
            assert len(held) == rows * ticks
    # a stretch that starts before the last tick, though it ends after it
    overlapping = (last + 2, kind, last - 1, runs, rows, 4)
    with pytest.raises(EngineError) as err:
        held.extend([overlapping], 4 * rows - 1)
    assert str(pair(last - 1, runs[:4])[0]) in str(err.value)
    assert len(held) == rows * ticks
    tick = (last, kind, last, runs, rows, 1)
    held.extend([tick], rows - 1)
    held.append(TraceRecord(last, "INTERNALIZE", line, task))
    assert len(held) == rows * (ticks + 1) + 1
    assert held.records == stretch_records(stretch) + stretch_records(tick) \
        + [TraceRecord(last, "INTERNALIZE", line, task)]


# held stretches: the raises held back between two steps are one entry

def one_line_task(task, line, importance, **kw):
    return Task(id=task, wcet=kw.get("wcet", 1), period=kw.get("period", 20),
                importance=importance, line=line,
                envelope_n=kw.get("n", 1), envelope_w=kw.get("w", 10))


AUTO = Policy(fault_policy=FaultPolicy.AUTO_RESUME)

# each scenario and what breaks or holds its stretches
STRETCH_SCENARIOS = {
    # ticks 25 to 34 carry a run of 3, the others of 2
    "overlap": Scenario(
        task_set=TaskSet([one_line_task("t", "l", 0)]), policy=AUTO,
        workload=[("l", Storm(0, 2)), ("l", Burst(25, 10, 1))],
        horizon=120),
    # raise ticks two apart never follow each other
    "gap": Scenario(
        task_set=TaskSet([one_line_task("t", "l", 0)]), policy=AUTO,
        workload=[("l", Burst(0, 50, 2))], horizon=120),
    # every seventh tick a raise on another line is delivered
    "delivers": Scenario(
        task_set=TaskSet([one_line_task("s", "ls", 1),
                          one_line_task("p", "lp", 2, n=5, w=7, period=7)]),
        policy=AUTO,
        workload=[("ls", Storm(0, 2)), ("lp", Periodic(0, 7))],
        horizon=120),
    # the long job of the important line holds the other at the level
    "ipl": Scenario(
        task_set=TaskSet([
            one_line_task("lo", "llo", 1, period=40, n=20, w=40),
            one_line_task("hi", "lhi", 2, wcet=15, period=40, n=2, w=40)]),
        policy=Policy(ipl_optimization=True,
                      fault_policy=FaultPolicy.AUTO_RESUME),
        workload=[("llo", Storm(0, 2)), ("lhi", Periodic(0, 40))],
        horizon=120),
    # two storming lines masked until their bottom halves end
    "bottom_half": Scenario(
        task_set=TaskSet([
            one_line_task("a", "la", 1, wcet=5, period=30, n=20, w=30),
            one_line_task("b", "lb", 2, wcet=3, period=30, n=20, w=30)]),
        policy=Policy(mask_until_bottom_half=True,
                      fault_policy=FaultPolicy.AUTO_RESUME),
        workload=[("la", Storm(0, 2)), ("lb", Storm(3, 1))],
        horizon=120),
}


@pytest.fixture(params=[7, 1], ids=lambda c: f"chunk{c}")
def tiny_chunk(request, monkeypatch):
    """A CSV chunk of a few rows, or of one: every stretch is narrowed."""
    monkeypatch.setattr(engine_module, "_CSV_CHUNK", request.param)
    return request.param


def counted_run(scenario):
    """The engine after its run, its outputs, and its raise_event calls
    as (line, tick, count)."""
    engine = Engine(scenario)
    raise_event = engine.vic.raise_event
    calls = []

    def counted(line, t, count=1):
        calls.append((line, t, count))
        return raise_event(line, t, count)

    engine.vic.raise_event = counted
    trace, metrics = engine.run()
    return engine, trace, metrics, calls


def outcomes(stretches):
    """The outcome values of the runs of the given held stretches."""
    return {run[2] for e in stretches for run in runs_of(e)}


@pytest.mark.parametrize("name", sorted(STRETCH_SCENARIOS))
def test_held_stretches_match_the_tick_engine(name, tiny_chunk, tmp_path):
    scenario = STRETCH_SCENARIOS[name]
    engine, trace, metrics, calls = counted_run(scenario)
    held = held_runs(trace)
    long = [e for e in held if e[5] > 1]
    # what each scenario is for: runs of 2 and more leave coalesced
    # raises after each delivery, and every stretch of more than one
    # tick but the IPL's is masked
    if name == "gap":
        assert held and not long
    else:
        assert long
        assert "latched_pending" in outcomes(held)
        assert "suppressed_masked" in outcomes(long)
    if name == "overlap":
        assert {run[3] for e in long for run in runs_of(e)} == {2, 3}
    if name == "delivers":
        assert any((e[0] + 1) % 7 == 0 for e in long)
    if name == "ipl":
        assert "suppressed_ipl" in outcomes(long)
    if name == "bottom_half":
        assert any(len(runs_of(e)) == 2 for e in long)
    for e in held:
        last, _, first, _, rows, ticks = e
        assert ticks == last - first + 1 >= 1
        assert rows == 2 * sum(run[3] for run in runs_of(e))
    # one raise_event call per line for each stretch the walk took, and
    # at most one per line at each step: fewer calls than raise ticks
    assert len(set((line, t) for line, t, _ in calls)) == len(calls)
    for e in long:
        _, _, first, _, _, ticks = e
        for line, _, _, count in runs_of(e):
            assert (line, first, count * ticks) in calls
    raised = {line: sum(c for l, _, c in calls if l == line)
              for line in metrics.per_line}
    assert raised == {line: row["raised"]
                      for line, row in metrics.per_line.items()}
    raise_ticks = len({(line, t) for line, spec in scenario.workload
                       for t in generate_workload(spec, engine.horizon)})
    assert len(calls) < raise_ticks or name == "gap"
    # the outputs
    size = len(trace)
    text = trace.to_csv_string()
    assert written(trace, tmp_path / "trace.csv") == text
    assert held_runs(trace) == held  # the CSV narrowed nothing in place
    ticked, ticked_metrics = TickEngine(scenario).run()
    assert text == csv_oracle(ticked)
    assert trace.records == ticked.records
    assert size == len(trace)
    assert metrics.to_json_string() == ticked_metrics.to_json_string()


def test_storm_probe_entries_follow_the_steps():
    # 605,012 records; one entry per held raise tick would be 105,016
    engine = Engine(storm_probe(10 ** 5))
    trace, _ = engine.run()
    assert engine.steps == 5004
    assert len(trace) == 605_012
    assert trace.entry_count < 4 * engine.steps


def test_stretches_alternating_between_two_runs_match_the_oracle(
        csv_chunk, tmp_path):
    # two lines raising on alternate ticks, held back together: each
    # stretch's runs differ from the one before and equal the one before
    # that, so the CSV's last-runs memo misses at every stretch
    scenario = Scenario(
        task_set=TaskSet([one_line_task("a", "la", 1),
                          one_line_task("b", "lb", 2)]),
        policy=AUTO,
        workload=[("la", Burst(0, 300, 2)), ("lb", Burst(1, 300, 2))],
        horizon=600)
    trace, _ = run_scenario(scenario)
    runs = [e[3] for e in held_runs(trace)]
    alternating = sum(a != b and a == c
                      for a, b, c in zip(runs, runs[1:], runs[2:]))
    assert alternating > 0.9 * len(runs)
    assert len(trace) > 2 * csv_chunk
    text = trace.to_csv_string()
    assert written(trace, tmp_path / "trace.csv") == text
    assert text == csv_oracle(trace)
