"""Vectored interrupt controller with per-line masks and a priority level.

The controller keeps one line per event source. Every raise increments the
line's device counter whether or not the event gets through. A suppressed
occurrence sets no pending bit: the counter alone carries it, so nothing
is lost while a line is masked or at or below the interrupt priority
level (IPL).

While the controller holds a line back (masked, or unmasked at or below
the IPL), the line keeps one hold: the tick at which the holding began
and the counter reading at that tick. The counter difference is the
number of occurrences held back since then, which the monitor layer uses
to decide faults and the engine uses to backfill deferred occurrences.

A line is deliverable when it is pending and not held back. Lines are
kept in interrupt order: priority descending, then line id, so the lines
a change of level holds back or lets through are one contiguous band.
Priorities start at 1: level 0 holds nothing back. Kernel timers are not
a line here: the engine keeps them.
"""

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple


class VicError(Exception):
    pass


class RaiseOutcome(Enum):
    DELIVERED_NOW = "delivered_now"
    LATCHED_PENDING = "latched_pending"
    SUPPRESSED_MASKED = "suppressed_masked"
    SUPPRESSED_IPL = "suppressed_ipl"


# The members as module constants for the raise path: EnumType defines
# __getattr__, so every attribute read on an Enum class is a Python-level
# call that costs about as much as the rest of a raise.
_DELIVERED_NOW = RaiseOutcome.DELIVERED_NOW
_LATCHED_PENDING = RaiseOutcome.LATCHED_PENDING
_SUPPRESSED_MASKED = RaiseOutcome.SUPPRESSED_MASKED
_SUPPRESSED_IPL = RaiseOutcome.SUPPRESSED_IPL


@dataclass
class InterruptLine:
    id: str
    irq_priority: int
    masked: bool = False
    device_counter: int = 0
    pending: bool = False
    # (since, device_counter at since) while the controller holds the line
    # back (masked, or at or below the IPL), None while it lets the line
    # through; VicState keeps this in step with the mask and the level
    hold: Optional[Tuple[int, int]] = None


def _held(ln: InterruptLine) -> Optional[Tuple[int, int]]:
    if ln.hold is None:
        return None
    since, counter = ln.hold
    return since, ln.device_counter - counter


class VicState:
    """The lines in interrupt order, the level, and how many lines are
    pending. Only raise_event sets a pending bit, on a delivered raise,
    which finds the bit clear; only poll_deliverable clears one, on the
    line it returns. So the count starts at the lines passed in with the
    bit set, goes up at each delivered raise and down at each line
    polled, and equals the pending lines between any two calls: with it
    at 0, poll_deliverable returns None without a scan. Nothing else of
    the controller touches the bit; a caller that sets or clears it on a
    line directly must not poll afterwards."""

    def __init__(self, lines: Iterable[InterruptLine]):
        self.lines: Dict[str, InterruptLine] = {}
        for ln in sorted(lines, key=lambda ln: (-ln.irq_priority, ln.id)):
            if ln.id in self.lines:
                raise VicError(f"duplicate line id '{ln.id}'")
            if ln.irq_priority < 1:
                raise VicError(
                    f"line '{ln.id}': interrupt priority "
                    f"{ln.irq_priority} < 1"
                )
            self.lines[ln.id] = ln
            ln.hold = (0, ln.device_counter) if ln.masked else None
        self.ipl = 0
        self.mask_ops: Dict[str, int] = {ln: 0 for ln in self.lines}
        # the lines in interrupt order, and their negated priorities
        # (ascending) for bisecting the band a level change touches
        self._order: List[InterruptLine] = list(self.lines.values())
        self._neg_priority = [-ln.irq_priority for ln in self._order]
        self._pending = sum([ln.pending for ln in self._order])

    def _line(self, line_id: str) -> InterruptLine:
        try:
            return self.lines[line_id]
        except KeyError:
            raise VicError(f"unknown interrupt line '{line_id}'") from None

    def _outcome(self, ln: InterruptLine) -> RaiseOutcome:
        """The deliverability rule: what a raise on the line meets now."""
        if ln.masked:
            return _SUPPRESSED_MASKED
        if ln.irq_priority <= self.ipl:
            return _SUPPRESSED_IPL
        if ln.pending:
            # The pending bit is binary; simultaneous occurrences coalesce.
            return _LATCHED_PENDING
        return _DELIVERED_NOW

    def raise_event(self, line_id: str, t: int,
                    count: int = 1) -> RaiseOutcome:
        """Record count occurrences at t on a line and classify the first.

        The device counter always increments, by count. Masked and
        IPL-suppressed occurrences do not set the pending bit; the counter
        carries them. The first occurrence leaves the line pending or
        held back, so every further one coalesces with it
        (LATCHED_PENDING) or meets the same hold, as count single calls
        would find.
        """
        if count < 1:
            raise VicError(
                f"line '{line_id}': a run needs at least one raise, got "
                f"{count} at t={t}"
            )
        ln = self.lines.get(line_id) or self._line(line_id)
        ln.device_counter += count
        outcome = self._outcome(ln)
        if outcome is _DELIVERED_NOW:
            ln.pending = True
            self._pending += 1
        return outcome

    def delivers(self, line_id: str) -> bool:
        """Whether a raise on the line would be delivered now."""
        ln = self.lines.get(line_id) or self._line(line_id)
        return self._outcome(ln) is _DELIVERED_NOW

    def set_line_mask(self, line_id: str, masked: bool,
                      t: int) -> Optional[Tuple[int, int]]:
        """Mask or unmask a line at t.

        While the line stays held back (masked, or unmasked at or below
        the IPL) a new hold starts at t, so masking again restarts it;
        otherwise the hold ends. Returns the hold this call ended as
        (since, held), or None when there was none.
        """
        ln = self._line(line_id)
        if ln.masked != masked:
            self.mask_ops[line_id] += 1
        ln.masked = masked
        ended = _held(ln)
        if masked or ln.irq_priority <= self.ipl:
            ln.hold = (t, ln.device_counter)
        else:
            ln.hold = None
        return ended

    def set_ipl(self, level: int, t: int) -> List[Tuple[str, int, int]]:
        """Set the level at t. Every unmasked line it newly holds back
        starts a hold at t. Returns (line, since, held) for each line the
        level releases, in interrupt order.

        Only the lines with a priority above the lower of the old and the
        new level and at or below the higher one change side, and they
        are contiguous in interrupt order: only that band is walked."""
        if level < 0:
            raise VicError(f"interrupt priority level must be >= 0, got {level}")
        old, self.ipl = self.ipl, level
        released = []
        neg = self._neg_priority
        band = self._order[bisect_left(neg, -max(old, level)):
                           bisect_left(neg, -min(old, level))]
        for ln in band:
            if ln.masked:
                continue
            if level > old:
                if ln.hold is None:
                    ln.hold = (t, ln.device_counter)
            elif ln.hold is not None:
                released.append((ln.id, *_held(ln)))
                ln.hold = None
        return released

    def held(self, line_id: str) -> Optional[Tuple[int, int]]:
        """The line's current hold as (since, occurrences counted since),
        or None when the controller lets the line through."""
        return _held(self._line(line_id))

    def poll_deliverable(self) -> Optional[str]:
        """Return the first deliverable line in interrupt order and clear
        its pending flag; None at once when no line is pending."""
        if not self._pending:
            return None
        for ln in self._order:
            if ln.pending and ln.hold is None:
                ln.pending = False
                self._pending -= 1
                return ln.id
        return None
