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
)


def setup_line(n, w, period, policy=FaultPolicy.PERMANENT, line="l"):
    task = Task(id="t", wcet=1, period=period, importance=0, line=line,
                envelope_n=n, envelope_w=w)
    vic = VicState([InterruptLine(id=line, irq_priority=5)])
    return vic, LineMonitor(task, fault_policy=policy)


def test_window_fills_and_reopens():
    vic, mon = setup_line(n=3, w=10, period=4)
    assert not mon.record_internalization(vic, 0).masked
    assert not mon.record_internalization(vic, 4).masked
    eff = mon.record_internalization(vic, 8)
    assert eff.masked
    assert eff.window_timer == 10  # earliest buffered ts plus window
    assert [a.kind for a in eff.alarms] == [AlarmKind.WINDOW_BOUND_REACHED]
    assert mon.state is LineState.WINDOW_MASKED
    assert vic.lines["l"].masked

    teff = mon.handle_window_timer(vic, 10)
    assert teff.unmasked and not teff.fault_declared
    assert mon.state is LineState.IN_ENVELOPE
    assert not vic.lines["l"].masked
    assert mon.ring == [4, 8]  # the event at 0 aged out of the window


def test_single_event_envelope_masks_immediately():
    vic, mon = setup_line(n=1, w=5, period=5)
    eff = mon.record_internalization(vic, 2)
    assert eff.masked and eff.window_timer == 7
    assert mon.handle_window_timer(vic, 7).unmasked


def test_window_boundary_is_half_open():
    # events exactly W apart never share a window
    vic, mon = setup_line(n=2, w=5, period=2)
    mon.record_internalization(vic, 0)
    assert not mon.record_internalization(vic, 5).masked
    assert mon.ring == [5]

    vic, mon = setup_line(n=2, w=5, period=2)
    mon.record_internalization(vic, 0)
    assert mon.record_internalization(vic, 4).masked


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
    assert not mon.record_internalization(vic, 0).entered_ooe
    eff = mon.record_internalization(vic, 3)
    assert eff.entered_ooe
    assert [a.kind for a in eff.alarms] == [AlarmKind.OUT_OF_ENVELOPE_ENTERED]
    assert mon.state is LineState.OUT_OF_ENVELOPE
    # still in the same episode: no second alarm
    eff = mon.record_internalization(vic, 5)
    assert not eff.entered_ooe and not eff.alarms


def test_episode_decays_after_violating_pair_ages_out():
    vic, mon = setup_line(n=10, w=4, period=6)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 3)
    # pair (0, 3): decay anchored at the earlier event plus max(T, W)
    assert mon.decay_due() == 6
    assert mon.ooe_active(5)
    assert not mon.ooe_active(6)
    assert mon.decay(6)
    assert mon.state is LineState.IN_ENVELOPE


def test_episode_memoryless_exit_on_period_gap():
    # window longer than the period so the exit beats the decay
    vic, mon = setup_line(n=10, w=20, period=6)
    mon.record_internalization(vic, 0)
    assert mon.record_internalization(vic, 3).entered_ooe
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
    assert mon.record_internalization(vic, 1).masked
    vic.raise_event("l", 5)  # suppressed, counts toward the fault decision
    eff = mon.handle_window_timer(vic, 10)
    assert eff.fault_declared
    assert [a.kind for a in eff.alarms] == [AlarmKind.SENSOR_FAULT]
    assert eff.rearm_at is None
    assert mon.window_timer is None
    assert mon.state is LineState.FAULTY
    assert vic.lines["l"].masked  # masked forever


def test_fault_auto_resume_probes_and_resumes():
    vic, mon = setup_line(n=2, w=10, period=1, policy=FaultPolicy.AUTO_RESUME)
    mon.record_internalization(vic, 0)
    mon.record_internalization(vic, 1)
    vic.raise_event("l", 5)
    eff = mon.handle_window_timer(vic, 10)
    assert eff.fault_declared and eff.rearm_at == 20

    # still storming through the probe window: stays faulty, silent rearm
    vic.raise_event("l", 12)
    vic.raise_event("l", 15)
    eff = mon.handle_window_timer(vic, 20)
    assert not eff.resumed and eff.rearm_at == 30 and not eff.alarms

    # one occurrence is strictly below the bound n=2: resume
    vic.raise_event("l", 25)
    eff = mon.handle_window_timer(vic, 30)
    assert eff.resumed
    assert [a.kind for a in eff.alarms] == [AlarmKind.SENSOR_RESUMED]
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
    assert mon.handle_window_timer(vic, 10).rearm_at == 20
    assert vic.held("l") == (10, 0)
    vic.raise_event("l", 12)
    vic.raise_event("l", 15)
    assert mon.handle_window_timer(vic, 20).rearm_at == 30
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
    assert not eff.resumed and mon.state is LineState.FAULTY


def test_bottom_half_defer_and_release():
    vic, mon = setup_line(n=5, w=10, period=3)
    assert mon.apply_bottom_half_mask(vic, 3)
    assert mon.bottom_half_masked
    vic.raise_event("l", 4)
    vic.raise_event("l", 5)
    rel = mon.release_bottom_half_mask(vic, 7)
    assert rel.deferred == 2
    assert rel.assigned_timestamp == 3
    assert not mon.bottom_half_masked
    assert not vic.lines["l"].masked
    assert vic.held("l") is None
    assert vic.poll_deliverable() is None  # the deferred set no pending bit


def test_bottom_half_noop_while_window_masked():
    vic, mon = setup_line(n=1, w=5, period=5)
    mon.record_internalization(vic, 0)
    assert not mon.apply_bottom_half_mask(vic, 1)


def test_bottom_half_double_apply_noop():
    vic, mon = setup_line(n=5, w=10, period=3)
    assert mon.apply_bottom_half_mask(vic, 0)
    assert not mon.apply_bottom_half_mask(vic, 1)


def test_bottom_half_release_without_mask_rejected():
    vic, mon = setup_line(n=5, w=10, period=3)
    with pytest.raises(MonitorError):
        mon.release_bottom_half_mask(vic, 0)


def test_window_defense_takes_over_bottom_half():
    vic, mon = setup_line(n=2, w=10, period=1)
    mon.record_internalization(vic, 0)
    mon.apply_bottom_half_mask(vic, 0)
    eff = mon.record_internalization(vic, 1)  # backfill fills the ring
    assert eff.masked
    assert not mon.bottom_half_masked
    assert mon.state is LineState.WINDOW_MASKED


def test_ipl_idle_is_zero():
    assert compute_ipl(None, [(8, 7)]) == 0


def test_ipl_no_lines_is_zero():
    assert compute_ipl(5, []) == 0


def test_ipl_least_important_preemptor_sets_level():
    # b preempts and is least important; only c sits below level 6
    assert compute_ipl(5, [(8, 7), (6, 6), (4, 4)]) == 6


def test_ipl_no_preemptor_suppresses_everything():
    # above every line's irq priority
    assert compute_ipl(9, [(8, 7), (6, 6)]) == 9


def test_ipl_importance_zero_preemptor_stays_deliverable():
    assert compute_ipl(5, [(0, 7)]) == 0
