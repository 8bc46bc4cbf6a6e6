"""Vectored interrupt controller with per-line masks and a priority level.

The controller keeps one line per event source. Every raise increments the
line's device counter whether or not the event gets through; suppressed
occurrences therefore stay countable and the monitor layer can reconstruct
what happened while a line was masked or below the interrupt priority
level (IPL).

A line is deliverable when it is pending, unmasked, and its priority is
strictly above the IPL. Kernel timers are not a line here: the engine
keeps them, and the timer line's name is reserved so no device can take
it.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional

from .model import TIMER_LINE


class VicError(Exception):
    pass


class RaiseOutcome(Enum):
    DELIVERED_NOW = "delivered_now"
    LATCHED_PENDING = "latched_pending"
    SUPPRESSED_MASKED = "suppressed_masked"
    SUPPRESSED_IPL = "suppressed_ipl"


@dataclass(frozen=True)
class Snapshot:
    """A device counter reading taken at a known time."""

    line: str
    counter: int
    time: int


@dataclass
class InterruptLine:
    id: str
    irq_priority: int
    masked: bool = False
    device_counter: int = 0
    pending: bool = False
    # Level-trigger retention: while masked, remember that at least one
    # occurrence arrived. Only the bottom-half masking mode wants this;
    # the window defense relies on the counter alone.
    latch_while_masked: bool = False


class VicState:
    def __init__(self, lines: Iterable[InterruptLine]):
        self.lines: Dict[str, InterruptLine] = {}
        for ln in lines:
            if ln.id == TIMER_LINE:
                raise VicError(f"line id '{TIMER_LINE}' is reserved")
            if ln.id in self.lines:
                raise VicError(f"duplicate line id '{ln.id}'")
            self.lines[ln.id] = ln
        self.ipl = 0
        self.mask_ops: Dict[str, int] = {ln: 0 for ln in self.lines}

    def _line(self, line_id: str) -> InterruptLine:
        try:
            return self.lines[line_id]
        except KeyError:
            raise VicError(f"unknown interrupt line '{line_id}'") from None

    def raise_event(self, line_id: str, t: int) -> RaiseOutcome:
        """Record one occurrence on a line and classify its deliverability.

        The device counter always increments. Masked and IPL-suppressed
        occurrences do not set the pending latch (the counter carries
        them), except that a line masked in level-trigger mode keeps one
        pending occurrence for the unmask.
        """
        ln = self._line(line_id)
        ln.device_counter += 1
        if ln.masked:
            if ln.latch_while_masked:
                ln.pending = True
            return RaiseOutcome.SUPPRESSED_MASKED
        if ln.irq_priority <= self.ipl:
            return RaiseOutcome.SUPPRESSED_IPL
        if ln.pending:
            # The pending bit is binary; simultaneous occurrences coalesce.
            return RaiseOutcome.LATCHED_PENDING
        ln.pending = True
        return RaiseOutcome.DELIVERED_NOW

    def set_line_mask(self, line_id: str, masked: bool,
                      latch: bool = False) -> None:
        ln = self._line(line_id)
        if ln.masked != masked:
            self.mask_ops[line_id] += 1
        ln.masked = masked
        ln.latch_while_masked = latch if masked else False

    def clear_pending(self, line_id: str) -> None:
        self._line(line_id).pending = False

    def set_ipl(self, level: int) -> None:
        if level < 0:
            raise VicError(f"interrupt priority level must be >= 0, got {level}")
        self.ipl = level

    def deliverable(self, line_id: str) -> bool:
        ln = self._line(line_id)
        return ln.pending and not ln.masked and ln.irq_priority > self.ipl

    def poll_deliverable(self) -> Optional[str]:
        """Return the highest-priority deliverable pending line and clear
        its pending flag."""
        candidates = [
            ln for ln in self.lines.values()
            if ln.pending and not ln.masked and ln.irq_priority > self.ipl
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda ln: (-ln.irq_priority, ln.id))
        best.pending = False
        return best.id

    def read_counter(self, line_id: str) -> int:
        return self._line(line_id).device_counter

    def snapshot_counter(self, line_id: str, t: int) -> Snapshot:
        return Snapshot(line=line_id, counter=self.read_counter(line_id), time=t)

    def delta_since(self, snapshot: Snapshot) -> int:
        return self.read_counter(snapshot.line) - snapshot.counter
