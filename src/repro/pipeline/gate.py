"""The LATCH gating stage: admit or suppress each committed instruction.

An instruction must reach the precise monitor iff any of:

* a source register is tainted in the (conservative) TRF;
* a memory operand hits a coarsely tainted domain;
* a memory operand is covered by a queued-but-unanalysed write (the
  pending-update FIFO guard against false negatives from queue lag);
* a written register is currently marked tainted (the instruction
  changes taint state by overwriting it).

Two backends compute the memory-operand verdict:

* ``scalar`` — :meth:`repro.core.latch.LatchModule.check_step` per
  event, driving the CTC/TLB cost model exactly as the hardware would;
* ``vector`` — batched pure-CTT classification through
  :mod:`repro.kernels.classify` against a frozen :class:`CttIndex`.

Under the pipeline's immediate-clear discipline the CTC always resolves
to the CTT bit and the TLB screen is a conservative refinement of it,
so both backends produce the *same admission decisions*; only the cache
cost counters differ (the vector path models a wider classification
unit and leaves the CTC/TLB untouched).  The frozen index is
invalidated on every coarse tag write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.backend import observe_batch, record_dispatch
from repro.kernels.classify import (
    CttIndex,
    as_index_array,
    coarse_flags_window,
    effective_sizes,
)
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

    def __init__(self, latch, pending, backend: str) -> None:
        self.latch = latch
        self.pending = pending
        self.backend = backend
        self.stats = GateStats()
        self._ctt_index: Optional[CttIndex] = None

    # -------------------------------------------------------------- index

    def invalidate_index(self) -> None:
        """Drop the frozen CTT view (called on every coarse tag write)."""
        self._ctt_index = None

    def _frozen_index(self) -> CttIndex:
        if self._ctt_index is None:
            self._ctt_index = CttIndex(self.latch.ctt)
        return self._ctt_index

    # -------------------------------------------------------------- flags

    def memory_flags(
        self, events: Sequence[StepEvent]
    ) -> List[Optional[bool]]:
        """Precomputed memory verdict per event (vector backend only).

        The scalar backend returns ``None`` placeholders — its verdicts
        are computed live in :meth:`admit` via ``check_step`` so the
        CTC/TLB cost model sees each access at admission time.
        """
        if self.backend != "vector" or not events:
            return [None] * len(events)
        addresses: List[int] = []
        sizes: List[int] = []
        counts: List[int] = []
        for event in events:
            accesses = event.memory_accesses
            counts.append(len(accesses))
            for access in accesses:
                addresses.append(access.address)
                sizes.append(access.size)
        if not addresses:
            return [False] * len(events)
        flags = coarse_flags_window(
            as_index_array(addresses),
            effective_sizes(sizes),
            self.latch.config.domain_size,
            self._frozen_index(),
        )
        record_dispatch("vector")
        observe_batch("classify", len(addresses))
        out: List[Optional[bool]] = []
        cursor = 0
        for count in counts:
            out.append(bool(np.any(flags[cursor:cursor + count])))
            cursor += count
        return out

    def fresh_memory_flag(self, event: StepEvent) -> bool:
        """Memory verdict against the *current* CTT (post-mutation).

        Used when a mid-batch drain invalidated precomputed flags; the
        rebuild is O(live CTT words) and the path is rare by
        construction (see ``PipelineConfig.pending_capacity``).
        """
        self.invalidate_index()
        flags = self.memory_flags([event])
        if flags[0] is None:  # scalar backend: delegate to the live check
            return self.latch.check_step(event).coarse_tainted
        return flags[0]

    # -------------------------------------------------------------- admit

    def admit(
        self, event: StepEvent, memory_flag: Optional[bool] = None
    ) -> bool:
        """Decide one step event; updates the per-reason accounting."""
        self.stats.steps += 1
        trf = self.latch.trf
        if memory_flag is None:
            check = self.latch.check_step(event)
            register_hit = check.register_tainted
            # Without a register hit the step's coarse verdict is its
            # memory verdict.
            memory_hit = check.coarse_tainted
        else:
            register_hit = trf.any_tainted(event.regs_read)
            memory_hit = memory_flag
        if register_hit:
            self.stats.register_hits += 1
            return True
        if memory_hit:
            self.stats.memory_hits += 1
            return True
        for access in event.memory_accesses:
            if self.pending.covers(access.address, access.size):
                self.stats.pending_hits += 1
                return True
        if trf.any_tainted(event.regs_written):
            self.stats.writeback_hits += 1
            return True
        self.stats.suppressed += 1
        return False
