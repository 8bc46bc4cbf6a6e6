import pytest

from envelopesim import (
    TIMER_LINE,
    InterruptLine,
    RaiseOutcome,
    VicError,
    VicState,
)


def make_vic(*lines):
    return VicState(InterruptLine(**spec) for spec in lines)


def test_counter_increments_on_every_raise():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    vic.set_line_mask("a", True)
    vic.raise_event("a", 1)
    vic.raise_event("a", 2)
    assert vic.read_counter("a") == 3


def test_delivered_then_latched():
    vic = make_vic(dict(id="a", irq_priority=5))
    assert vic.raise_event("a", 0) is RaiseOutcome.DELIVERED_NOW
    assert vic.raise_event("a", 0) is RaiseOutcome.LATCHED_PENDING
    assert vic.raise_event("a", 0) is RaiseOutcome.LATCHED_PENDING


def test_masked_without_latch_drops_pending():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True)
    assert vic.raise_event("a", 0) is RaiseOutcome.SUPPRESSED_MASKED
    vic.set_line_mask("a", False)
    assert not vic.deliverable("a")


def test_masked_with_latch_survives_unmask():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, latch=True)
    assert vic.raise_event("a", 0) is RaiseOutcome.SUPPRESSED_MASKED
    vic.set_line_mask("a", False)
    assert vic.deliverable("a")


# exhaustive around the strict ipl comparison: irq must exceed ipl
@pytest.mark.parametrize("irq,ipl,outcome", [
    (4, 5, RaiseOutcome.SUPPRESSED_IPL),
    (5, 5, RaiseOutcome.SUPPRESSED_IPL),
    (6, 5, RaiseOutcome.DELIVERED_NOW),
])
def test_ipl_boundary(irq, ipl, outcome):
    vic = make_vic(dict(id="a", irq_priority=irq))
    vic.set_ipl(ipl)
    assert vic.raise_event("a", 0) is outcome


def test_ipl_zero_blocks_nothing_positive():
    vic = make_vic(dict(id="a", irq_priority=1))
    assert vic.raise_event("a", 0) is RaiseOutcome.DELIVERED_NOW


def test_ipl_rejects_negative():
    vic = make_vic(dict(id="a", irq_priority=1))
    with pytest.raises(VicError):
        vic.set_ipl(-1)


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
    vic = make_vic()
    with pytest.raises(VicError):
        vic.set_line_mask(TIMER_LINE, True)


def test_mask_ops_counts_effective_toggles_only():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True)
    vic.set_line_mask("a", True)   # no-op
    vic.set_line_mask("a", False)
    vic.set_line_mask("a", False)  # no-op
    assert vic.mask_ops["a"] == 2


def test_unmask_clears_latch_flag():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, latch=True)
    vic.set_line_mask("a", False)
    vic.set_line_mask("a", True)
    # second mask did not ask for latching, so the raise is lost
    vic.raise_event("a", 0)
    vic.set_line_mask("a", False)
    assert not vic.deliverable("a")


def test_snapshot_and_delta():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    snap = vic.snapshot_counter("a", 10)
    assert snap.counter == 1 and snap.time == 10 and snap.line == "a"
    vic.raise_event("a", 11)
    vic.raise_event("a", 12)
    assert vic.delta_since(snap) == 2


def test_clear_pending():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.raise_event("a", 0)
    vic.clear_pending("a")
    assert not vic.deliverable("a")


def test_masked_line_never_deliverable_even_when_latched():
    vic = make_vic(dict(id="a", irq_priority=5))
    vic.set_line_mask("a", True, latch=True)
    vic.raise_event("a", 0)
    assert not vic.deliverable("a")
    assert vic.poll_deliverable() is None


def test_unknown_line_raises():
    vic = make_vic()
    with pytest.raises(VicError):
        vic.raise_event("ghost", 0)
    with pytest.raises(VicError):
        vic.read_counter("ghost")


def test_duplicate_line_rejected():
    with pytest.raises(VicError):
        make_vic(dict(id="a", irq_priority=1), dict(id="a", irq_priority=2))


def test_reserved_timer_id_rejected():
    with pytest.raises(VicError):
        make_vic(dict(id=TIMER_LINE, irq_priority=1))
