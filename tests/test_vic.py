import random

import pytest

from envelopesim import (
    InterruptLine,
    RaiseOutcome,
    VicError,
    VicState,
)
from support import full_scan_set_ipl


def make_vic(*lines):
    return VicState(InterruptLine(**spec) for spec in lines)


def test_counter_increments_on_every_raise():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    vic.set_line_mask("a", True, 1)
    vic.raise_event("a", 1)
    vic.raise_event("a", 2)
    assert vic.lines["a"].device_counter == 3


def test_delivered_then_latched():
    vic = make_vic(dict(id="a", irq_priority=5))
    assert vic.raise_event("a", 0) is RaiseOutcome.DELIVERED_NOW
    assert vic.raise_event("a", 0) is RaiseOutcome.LATCHED_PENDING
    assert vic.raise_event("a", 0) is RaiseOutcome.LATCHED_PENDING


@pytest.mark.parametrize("setup,first,rest", [
    (lambda vic: None, RaiseOutcome.DELIVERED_NOW,
     RaiseOutcome.LATCHED_PENDING),
    (lambda vic: vic.set_line_mask("a", True, 0),
     RaiseOutcome.SUPPRESSED_MASKED, RaiseOutcome.SUPPRESSED_MASKED),
    (lambda vic: vic.set_ipl(5, 0), RaiseOutcome.SUPPRESSED_IPL,
     RaiseOutcome.SUPPRESSED_IPL),
    (lambda vic: vic.raise_event("a", 0), RaiseOutcome.LATCHED_PENDING,
     RaiseOutcome.LATCHED_PENDING),
], ids=["delivered", "masked", "ipl", "pending"])
def test_repeated_raises_share_the_outcome_of_one_more(setup, first, rest):
    # a run of count raises leaves the line as count single raises do,
    # and reports the first one's outcome
    for count in (1, 2, 5):
        vic = make_vic(dict(id="a", irq_priority=5))
        setup(vic)
        before = vic.lines["a"].device_counter
        assert vic.raise_event("a", 3, count) is first
        assert vic.lines["a"].device_counter == before + count
        one_by_one = make_vic(dict(id="a", irq_priority=5))
        setup(one_by_one)
        assert [one_by_one.raise_event("a", 3) for _ in range(count)] \
            == [first] + [rest] * (count - 1)
        assert one_by_one.lines["a"] == vic.lines["a"]
        assert one_by_one.poll_deliverable() == vic.poll_deliverable()


def test_repeat_needs_a_raise_to_repeat():
    vic = make_vic(dict(id="a", irq_priority=5))
    for count in (0, -1):
        with pytest.raises(VicError, match="at least one raise"):
            vic.raise_event("a", 0, count)
    assert vic.lines["a"].device_counter == 0
    assert vic.delivers("a")
    vic.raise_event("a", 0)
    assert not vic.delivers("a")  # pending: a raise would coalesce


def test_delivers_follows_mask_and_level():
    vic = make_vic(dict(id="a", irq_priority=5), dict(id="b", irq_priority=3))
    vic.set_ipl(3, 0)
    assert vic.delivers("a") and not vic.delivers("b")
    vic.set_line_mask("a", True, 1)
    assert not vic.delivers("a")
    with pytest.raises(VicError):
        vic.delivers("ghost")


def test_masked_without_latch_drops_pending():
    # a suppressed occurrence sets no pending bit: only the counter has it
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, 0)
    assert vic.raise_event("a", 0) is RaiseOutcome.SUPPRESSED_MASKED
    assert vic.set_line_mask("a", False, 1) == (0, 1)
    assert vic.poll_deliverable() is None


def test_a_line_built_masked_is_held_from_tick_0():
    # as if masked through set_line_mask at tick 0: its raises are held
    # back and counted in the hold, and unmasking reports them
    built = make_vic(dict(id="a", irq_priority=5, masked=True,
                          device_counter=2))
    masked_at_0 = make_vic(dict(id="a", irq_priority=5, device_counter=2))
    masked_at_0.set_line_mask("a", True, 0)
    assert built.lines == masked_at_0.lines
    assert built.held("a") == (0, 0)
    assert built.raise_event("a", 1, 3) is RaiseOutcome.SUPPRESSED_MASKED
    assert built.held("a") == (0, 3)
    assert built.set_line_mask("a", False, 4) == (0, 3)
    assert built.held("a") is None


def test_a_line_built_masked_and_pending_waits_for_the_unmask():
    vic = make_vic(dict(id="a", irq_priority=5, masked=True, pending=True))
    assert not vic.delivers("a")
    assert vic.poll_deliverable() is None
    assert vic.set_line_mask("a", False, 2) == (0, 0)
    assert vic.poll_deliverable() == "a"


# exhaustive around the strict ipl comparison: irq must exceed ipl
@pytest.mark.parametrize("irq,ipl,outcome", [
    (4, 5, RaiseOutcome.SUPPRESSED_IPL),
    (5, 5, RaiseOutcome.SUPPRESSED_IPL),
    (6, 5, RaiseOutcome.DELIVERED_NOW),
])
def test_ipl_boundary(irq, ipl, outcome):
    vic = make_vic(dict(id="a", irq_priority=irq))
    vic.set_ipl(ipl, 0)
    assert vic.raise_event("a", 0) is outcome


def test_ipl_zero_blocks_nothing_positive():
    vic = make_vic(dict(id="a", irq_priority=1))
    assert vic.raise_event("a", 0) is RaiseOutcome.DELIVERED_NOW


def test_ipl_rejects_negative():
    vic = make_vic(dict(id="a", irq_priority=1))
    with pytest.raises(VicError):
        vic.set_ipl(-1, 0)


def test_poll_order_by_irq_priority():
    vic = make_vic(dict(id="lo", irq_priority=2), dict(id="hi", irq_priority=9))
    vic.raise_event("lo", 0)
    vic.raise_event("hi", 0)
    assert vic.poll_deliverable() == "hi"
    assert vic.poll_deliverable() == "lo"
    assert vic.poll_deliverable() is None


def test_poll_tie_breaks_on_id():
    vic = make_vic(dict(id="b", irq_priority=4), dict(id="a", irq_priority=4))
    vic.raise_event("b", 0)
    vic.raise_event("a", 0)
    assert vic.poll_deliverable() == "a"


def test_timer_line_cannot_be_masked():
    # kernel timers are not a line, and no unknown line can be masked
    vic = make_vic()
    with pytest.raises(VicError):
        vic.set_line_mask("ghost", True, 0)


def test_mask_ops_counts_effective_toggles_only():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, 0)
    vic.set_line_mask("a", True, 1)   # no toggle
    vic.set_line_mask("a", False, 2)
    vic.set_line_mask("a", False, 3)  # no toggle
    assert vic.mask_ops["a"] == 2


def test_snapshot_and_delta():
    # the hold is the counter reading at the tick the mask began
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    assert vic.held("a") is None
    vic.set_line_mask("a", True, 10)
    assert vic.lines["a"].hold == (10, 1)
    vic.raise_event("a", 11)
    vic.raise_event("a", 12)
    assert vic.held("a") == (10, 2)


def test_masked_line_never_deliverable_even_when_latched():
    # a pending occurrence waits out a mask and a level above the line
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    vic.set_line_mask("a", True, 0)
    assert vic.poll_deliverable() is None
    vic.set_line_mask("a", False, 1)
    vic.set_ipl(5, 1)
    assert vic.poll_deliverable() is None
    vic.set_ipl(4, 2)
    assert vic.poll_deliverable() == "a"


def test_unmask_under_the_level_starts_a_hold():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_ipl(5, 0)
    vic.set_line_mask("a", True, 3)
    vic.raise_event("a", 4)
    assert vic.set_line_mask("a", False, 6) == (3, 1)
    assert vic.held("a") == (6, 0)
    assert vic.raise_event("a", 7) is RaiseOutcome.SUPPRESSED_IPL
    assert vic.set_ipl(0, 9) == [("a", 6, 1)]
    assert vic.held("a") is None


def test_unmask_above_the_level_ends_the_hold():
    vic = make_vic(dict(id="a", irq_priority=5))
    assert vic.set_line_mask("a", True, 2) is None
    assert vic.set_line_mask("a", False, 4) == (2, 0)
    assert vic.held("a") is None


def test_masking_restarts_an_ipl_hold():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_ipl(5, 0)
    vic.raise_event("a", 1)
    assert vic.set_line_mask("a", True, 2) == (0, 1)
    assert vic.held("a") == (2, 0)


def test_masking_again_restarts_the_hold():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, 0)
    vic.raise_event("a", 1)
    assert vic.set_line_mask("a", True, 5) == (0, 1)
    assert vic.held("a") == (5, 0)
    assert vic.mask_ops["a"] == 1


def test_ipl_hold_starts_once_and_skips_masked_lines():
    vic = make_vic(dict(id="a", irq_priority=2), dict(id="m", irq_priority=1))
    vic.set_line_mask("m", True, 0)
    assert vic.set_ipl(2, 1) == []
    assert vic.held("a") == (1, 0)
    assert vic.held("m") == (0, 0)
    vic.raise_event("a", 2)
    vic.set_ipl(3, 4)  # a higher level keeps the running hold
    assert vic.held("a") == (1, 1)
    # the mask, not the level, holds m back
    assert vic.set_ipl(0, 5) == [("a", 1, 1)]
    assert vic.held("m") == (0, 0)


def test_ipl_release_reports_in_interrupt_order():
    vic = make_vic(dict(id="b", irq_priority=2), dict(id="c", irq_priority=3),
                   dict(id="a", irq_priority=2))
    vic.set_ipl(3, 0)
    vic.raise_event("a", 1)
    assert vic.set_ipl(0, 4) == [("c", 0, 0), ("a", 0, 1), ("b", 0, 0)]


def test_unknown_line_raises():
    vic = make_vic()
    with pytest.raises(VicError):
        vic.raise_event("ghost", 0)
    with pytest.raises(VicError):
        vic.held("ghost")


def test_duplicate_line_rejected():
    with pytest.raises(VicError):
        make_vic(dict(id="a", irq_priority=1), dict(id="a", irq_priority=2))


def test_priority_below_one_rejected():
    # level 0 must hold nothing back
    with pytest.raises(VicError, match="priority 0 < 1"):
        make_vic(dict(id="a", irq_priority=0))


@pytest.mark.parametrize("seed", range(40))
def test_set_ipl_band_matches_full_scan(seed):
    # seeded level sequences over lines sharing priorities, some masked
    # and unmasked along the way, with raises in between: the band walk
    # and the full scan keep the same holds and release the same lines
    rng = random.Random(seed)
    specs = [dict(id=f"l{i}", irq_priority=rng.randint(1, 8))
             for i in range(rng.randint(1, 9))]
    band, full = make_vic(*specs), make_vic(*specs)
    for t in range(60):
        action = rng.randrange(4)
        if action == 0:
            level = rng.randint(0, 9)
            assert band.set_ipl(level, t) == full_scan_set_ipl(full, level, t)
        elif action == 1:
            line, masked = rng.choice(specs)["id"], rng.random() < 0.5
            assert band.set_line_mask(line, masked, t) \
                == full.set_line_mask(line, masked, t)
        else:
            line = rng.choice(specs)["id"]
            assert band.raise_event(line, t) is full.raise_event(line, t)
            if rng.random() < 0.5:
                assert band.poll_deliverable() == full.poll_deliverable()
        assert band.ipl == full.ipl
        assert band.lines == full.lines


@pytest.mark.parametrize("seed", range(20))
def test_pending_count_follows_the_pending_bits(seed):
    # poll_deliverable skips its scan when the count reads 0, so the count
    # must equal the lines with the pending bit after every operation,
    # lines built pending included, and a poll must find what a scan does
    rng = random.Random(seed)
    specs = [dict(id=f"l{i}", irq_priority=rng.randint(1, 8),
                  pending=rng.random() < 0.2)
             for i in range(rng.randint(1, 9))]
    vic = make_vic(*specs)
    for t in range(80):
        action = rng.randrange(4)
        line = rng.choice(specs)["id"]
        if action == 0:
            vic.set_ipl(rng.randint(0, 9), t)
        elif action == 1:
            vic.set_line_mask(line, rng.random() < 0.5, t)
        elif action == 2:
            vic.raise_event(line, t, rng.randint(1, 3))
        else:
            scan = next((ln.id for ln in vic.lines.values()
                         if ln.pending and ln.hold is None), None)
            assert vic.poll_deliverable() == scan
        assert vic._pending == sum(ln.pending for ln in vic.lines.values())
