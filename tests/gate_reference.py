"""The ``check_step`` gate: a test-only oracle for the pipeline's gate.

Production pipelines gate every step event with
:class:`repro.pipeline.gate.LatchGate`: the TRF dirty mask, then a live
CTT probe per memory access.  This module keeps the gate in the form
the LATCH hardware describes, one
:meth:`repro.core.latch.LatchModule.check_step` per event through the
CTC and TLB, which also drives their cost counters and the ``latch.*``
check-path statistics.  Both gates must make the same admission
decisions at every queue and batch shape, so the differential tests
install this one as ``pipeline.gate`` and compare.  Nothing under
``src/`` may import it.
"""

from __future__ import annotations

from repro.machine.events import StepEvent
from repro.pipeline.gate import GateStats

#: Gate names the differential tests parametrise over: ``"scalar"`` is
#: this reference gate, ``"vector"`` the production gate.
GATES = ("scalar", "vector")


class ReferenceGate:
    """Coarse classification through ``check_step``, event at a time."""

    def __init__(self, latch, pending) -> None:
        self.latch = latch
        self.pending = pending
        self.stats = GateStats()

    def admit(self, event: StepEvent) -> bool:
        """Decide one step event; updates the per-reason accounting."""
        self.stats.steps += 1
        check = self.latch.check_step(event)
        if check.register_tainted:
            self.stats.register_hits += 1
            return True
        # Without a register hit the step's coarse verdict is its memory
        # verdict.
        if check.coarse_tainted:
            self.stats.memory_hits += 1
            return True
        for access in event.memory_accesses:
            if self.pending.covers(access.address, access.size):
                self.stats.pending_hits += 1
                return True
        if self.latch.trf.any_tainted(event.regs_written):
            self.stats.writeback_hits += 1
            return True
        self.stats.suppressed += 1
        return False


def with_gate(pipeline, gate: str):
    """``pipeline`` gated by ``gate``, one of :data:`GATES`, in place."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    if gate == "scalar":
        pipeline.gate = ReferenceGate(pipeline.latch, pipeline.pending)
    return pipeline
