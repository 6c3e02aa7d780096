"""The LATCH gating stage: admit or suppress each committed instruction.

An instruction must reach the precise monitor iff any of:

* a source register is tainted in the (conservative) TRF;
* a memory operand hits a coarsely tainted domain;
* a memory operand is covered by a queued-but-unanalysed write (the
  pending-update FIFO guard against false negatives from queue lag);
* a written register is currently marked tainted (the instruction
  changes taint state by overwriting it).

Every verdict is computed live, at admission time, against the current
TRF and CTT, so a coarse tag write made by a drain earlier in the same
batch is seen by the very next admission.  Registers are tested on the
TRF dirty mask, and each memory access is a direct CTT probe
(:meth:`repro.core.ctt.CoarseTaintTable.any_domain_tainted`).

The CTC and TLB are not consulted.  In the paper they are hardware
structures whose cost never changes a verdict: under the pipeline's
immediate-clear discipline the CTC always resolves to the CTT bit and
the TLB screen is a conservative refinement of it, so
:meth:`repro.core.latch.LatchModule.check_step` would make the same
admission decisions at every queue and batch shape.  The gate therefore
leaves the ``latch.*`` check-path counters at zero; the CTC and TLB
count only the tag-update traffic the monitor writes back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.events import StepEvent


@dataclass
class GateStats:
    """Per-reason admission accounting."""

    steps: int = 0
    register_hits: int = 0
    memory_hits: int = 0
    pending_hits: int = 0
    writeback_hits: int = 0
    suppressed: int = 0

    @property
    def admitted(self) -> int:
        return self.steps - self.suppressed


class LatchGate:
    """Stage 2 of the pipeline: coarse classification of step events."""

    def __init__(self, latch, pending) -> None:
        self.latch = latch
        self.pending = pending
        self.stats = GateStats()

    def admit(self, event: StepEvent) -> bool:
        """Decide one step event; updates the per-reason accounting."""
        self.stats.steps += 1
        trf = self.latch.trf
        if trf.any_tainted(event.regs_read):
            self.stats.register_hits += 1
            return True
        accesses = event.memory_accesses
        ctt = self.latch.ctt
        for access in accesses:
            if ctt.any_domain_tainted(access.address, access.size):
                self.stats.memory_hits += 1
                return True
        for access in accesses:
            if self.pending.covers(access.address, access.size):
                self.stats.pending_hits += 1
                return True
        if trf.any_tainted(event.regs_written):
            self.stats.writeback_hits += 1
            return True
        self.stats.suppressed += 1
        return False
