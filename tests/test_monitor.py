import random

import pytest

from envelopesim import (
    AlarmKind,
    FaultPolicy,
    InterruptLine,
    LineMonitor,
    LineState,
    MonitorError,
    Task,
    VicState,
    compute_ipl,
    ipl_index,
)
from support import linear_compute_ipl


def setup_line(n, w, period, policy=FaultPolicy.PERMANENT, line="l"):
    task = Task(id="t", wcet=1, period=period, importance=0, line=line,
                envelope_n=n, envelope_w=w)
    vic = VicState([InterruptLine(id=line, irq_priority=5)])
    return vic, LineMonitor(task, fault_policy=policy)


def test_window_fills_and_reopens():
    vic, mon = setup_line(n=3, w=10, period=4)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 4)
    assert mon.window_timer is None
    eff = mon.record_internalization(vic, 8)
    assert mon.window_timer == 10  # earliest buffered ts plus window
    assert eff.alarms == [AlarmKind.WINDOW_BOUND_REACHED]
    assert mon.state is LineState.WINDOW_MASKED
    assert vic.lines["l"].masked

    teff = mon.handle_window_timer(vic, 10)
    assert teff.unmasked and not teff.alarms
    assert mon.state is LineState.IN_ENVELOPE
    assert not vic.lines["l"].masked
    assert mon.ring == [4, 8]  # the event at 0 aged out of the window


def test_single_event_envelope_masks_immediately():
    vic, mon = setup_line(n=1, w=5, period=5)
    mon.record_internalization(vic, 2)
    assert mon.window_timer == 7 and vic.lines["l"].masked
    assert mon.handle_window_timer(vic, 7).unmasked


def test_window_boundary_is_half_open():
    # events exactly W apart never share a window
    vic, mon = setup_line(n=2, w=5, period=2)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 5)
    assert mon.window_timer is None and not vic.lines["l"].masked
    assert mon.ring == [5]

    vic, mon = setup_line(n=2, w=5, period=2)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 4)
    assert mon.window_timer == 5 and vic.lines["l"].masked


def test_internalize_while_window_masked_rejected():
    vic, mon = setup_line(n=1, w=5, period=5)
    mon.record_internalization(vic, 0)
    with pytest.raises(MonitorError):
        mon.record_internalization(vic, 1)


def test_timer_not_due_rejected_late_accepted():
    vic, mon = setup_line(n=1, w=5, period=5)
    mon.record_internalization(vic, 0)
    with pytest.raises(MonitorError):
        mon.handle_window_timer(vic, 4)
    assert mon.handle_window_timer(vic, 6).unmasked


def test_timer_while_unmasked_rejected():
    vic, mon = setup_line(n=2, w=5, period=2)
    mon.record_internalization(vic, 0)
    mon.window_timer = 5
    with pytest.raises(MonitorError):
        mon.handle_window_timer(vic, 5)


def test_episode_enter_and_alarm_once():
    vic, mon = setup_line(n=10, w=4, period=6)
    assert not mon.record_internalization(vic, 0).alarms
    eff = mon.record_internalization(vic, 3)
    assert eff.alarms == [AlarmKind.OUT_OF_ENVELOPE_ENTERED]
    assert mon.state is LineState.OUT_OF_ENVELOPE
    # still in the same episode: no second alarm
    eff = mon.record_internalization(vic, 5)
    assert not eff.alarms


def test_episode_decays_after_violating_pair_ages_out():
    vic, mon = setup_line(n=10, w=4, period=6)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 3)
    # pair (0, 3): decay anchored at the earlier event plus max(T, W)
    assert mon.decay_due() == 6
    assert mon.ooe_active(5)
    assert not mon.ooe_active(6)
    # recorded until the decay retires it, live only before its decay
    assert mon.has_episode()
    assert mon.decay(6)
    assert not mon.has_episode()
    assert mon.state is LineState.IN_ENVELOPE


def test_episode_memoryless_exit_on_period_gap():
    # window longer than the period so the exit beats the decay
    vic, mon = setup_line(n=10, w=20, period=6)
    mon.record_internalization(vic, 0)
    assert mon.record_internalization(vic, 3).alarms == [
        AlarmKind.OUT_OF_ENVELOPE_ENTERED]
    assert mon.decay_due() == 20
    eff = mon.record_internalization(vic, 12)  # gap 9 >= period
    assert eff.exited_ooe
    assert not mon.ooe_active(12)
    assert mon.state is LineState.IN_ENVELOPE


def test_episode_decay_tracks_latest_violating_pair():
    vic, mon = setup_line(n=10, w=4, period=6)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 3)
    mon.record_internalization(vic, 5)  # pair (3, 5) now anchors the decay
    assert mon.decay_due() == 9


def test_fault_permanent():
    vic, mon = setup_line(n=2, w=10, period=1)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    assert mon.window_timer == 10
    vic.raise_event("l", 5)  # suppressed, counts toward the fault decision
    eff = mon.handle_window_timer(vic, 10)
    assert not eff.unmasked
    assert eff.alarms == [AlarmKind.SENSOR_FAULT]
    assert mon.window_timer is None  # not re-armed
    assert mon.state is LineState.FAULTY
    assert vic.lines["l"].masked  # masked forever


def test_fault_auto_resume_probes_and_resumes():
    vic, mon = setup_line(n=2, w=10, period=1, policy=FaultPolicy.AUTO_RESUME)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    vic.raise_event("l", 5)
    eff = mon.handle_window_timer(vic, 10)
    assert eff.alarms == [AlarmKind.SENSOR_FAULT]
    assert not eff.unmasked and mon.window_timer == 20

    # still storming through the probe window: stays faulty, silent rearm
    vic.raise_event("l", 12)
    vic.raise_event("l", 15)
    eff = mon.handle_window_timer(vic, 20)
    assert not eff.unmasked and mon.window_timer == 30 and not eff.alarms

    # one occurrence is strictly below the bound n=2: resume
    vic.raise_event("l", 25)
    eff = mon.handle_window_timer(vic, 30)
    assert eff.unmasked and mon.window_timer is None
    assert eff.alarms == [AlarmKind.SENSOR_RESUMED]
    assert mon.state is LineState.IN_ENVELOPE
    assert not vic.lines["l"].masked


def test_window_mask_holds_the_line_from_the_masking_event():
    vic, mon = setup_line(n=2, w=10, period=1)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    assert vic.held("l") == (1, 0)
    vic.raise_event("l", 5)
    assert vic.held("l") == (1, 1)
    mon.handle_window_timer(vic, 10)
    assert vic.held("l") == (1, 1)  # permanent fault: the hold runs on


def test_auto_resume_rearm_restarts_the_hold():
    vic, mon = setup_line(n=2, w=10, period=1, policy=FaultPolicy.AUTO_RESUME)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    vic.raise_event("l", 5)
    mon.handle_window_timer(vic, 10)
    assert mon.window_timer == 20
    assert vic.held("l") == (10, 0)
    vic.raise_event("l", 12)
    vic.raise_event("l", 15)
    mon.handle_window_timer(vic, 20)
    assert mon.window_timer == 30
    assert vic.held("l") == (20, 0)
    assert vic.mask_ops["l"] == 1  # the line stayed masked throughout


def test_fault_auto_resume_threshold_is_strict():
    vic, mon = setup_line(n=2, w=10, period=1, policy=FaultPolicy.AUTO_RESUME)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    vic.raise_event("l", 5)
    mon.handle_window_timer(vic, 10)
    # exactly n occurrences in the probe window: not calm enough
    vic.raise_event("l", 12)
    vic.raise_event("l", 13)
    eff = mon.handle_window_timer(vic, 20)
    assert not eff.unmasked and mon.state is LineState.FAULTY


def test_unmask_during_a_live_episode_reads_out_of_envelope():
    vic, mon = setup_line(n=3, w=10, period=4)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 2)
    mon.record_internalization(vic, 3)
    assert mon.window_timer == 10
    # pair (2, 3) keeps the episode live until 2 + max(T, W) = 12
    assert mon.handle_window_timer(vic, 10).unmasked
    assert mon.state is LineState.OUT_OF_ENVELOPE
    assert mon.decay(12)
    assert mon.state is LineState.IN_ENVELOPE


def ipl(running_priority, lines):
    """The level compute_ipl bisects from the lines' index, checked
    against the linear oracle over the lines themselves."""
    level = compute_ipl(running_priority, ipl_index(lines))
    assert level == linear_compute_ipl(running_priority, lines)
    return level


def test_ipl_idle_is_zero():
    assert ipl(None, [(8, 7)]) == 0
    assert compute_ipl(None, None) == 0  # the index is not read


def test_ipl_no_lines_is_zero():
    assert ipl(5, []) == 0


def test_ipl_least_important_preemptor_sets_level():
    # b preempts and is least important; only c sits below level 6
    assert ipl(5, [(8, 7), (6, 6), (4, 4)]) == 6


def test_ipl_no_preemptor_suppresses_everything():
    # above every line's irq priority
    assert ipl(9, [(8, 7), (6, 6)]) == 9


def test_ipl_importance_zero_preemptor_stays_deliverable():
    assert ipl(5, [(0, 7)]) == 0


def test_ipl_index_lists_priorities_with_suffix_minima():
    # sorted by priority, ties in either order; the least importance from
    # each position on, and the greatest importance plus one at the end
    priorities, levels = ipl_index([(8, 7), (3, 2), (6, 7), (9, 1)])
    assert priorities == [1, 2, 7, 7]
    assert levels == [3, 3, 6, 6, 10]
    assert ipl_index([]) == ([], [0])


def random_lines(rng):
    """A random line set, possibly empty, with priorities and importances
    drawn from small ranges so that ties are common."""
    spread = rng.choice((2, 5, 40))
    return [(rng.randrange(spread), rng.randrange(1, spread + 1))
            for _ in range(rng.randrange(8))]


def test_ipl_index_matches_the_linear_oracle():
    rng = random.Random(0)
    sets = ties = 0
    for _ in range(3000):
        lines = random_lines(rng)
        sets += not lines
        ties += len({prio for _, prio in lines}) < len(lines)
        index = ipl_index(lines)
        # every running priority around and between the lines' own
        for running in [None, 0, *range(1, 42)]:
            assert compute_ipl(running, index) \
                == linear_compute_ipl(running, lines), (lines, running)
    assert sets and ties  # the empty set and tied priorities came up


def test_ipl_index_follows_next_priority_moves():
    # a release moves its line's next-job priority, which a task's
    # job_priority_overrides can set to any value, tied ones included;
    # the index rebuilt after each move answers as the oracle does
    rng = random.Random(1)
    for _ in range(200):
        lines = random_lines(rng) or [(0, 1)]
        overrides = [rng.randint(1, 12) for _ in range(4)]
        for _ in range(20):
            i = rng.randrange(len(lines))
            lines[i] = (lines[i][0], rng.choice(overrides))
            index = ipl_index(lines)
            for running in (None, *range(14)):
                assert compute_ipl(running, index) \
                    == linear_compute_ipl(running, lines)
