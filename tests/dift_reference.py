"""The classical DTA rules as one opcode if-chain: a test-only oracle.

Production code propagates taint through the per-opcode handler table of
:mod:`repro.dift.propagation`.  This module keeps the rules in their
plainest form, a single :func:`propagate` that walks the opcodes and
reports every tag write in a :class:`PropagationResult`, so the handlers
can be compared against it rule by rule.  Nothing under ``src/`` may
import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.isa.instructions import Format, Opcode
from repro.machine.events import StepEvent
from repro.dift.tags import ShadowMemory, TaintRegisterFile

_CLEARING_OPS = frozenset({Opcode.XOR, Opcode.SUB})
_SIGNED_LOADS = frozenset({Opcode.LB, Opcode.LH})


@dataclass
class PropagationResult:
    """Outcome of propagating taint through one instruction.

    Attributes:
        touched_taint: the instruction manipulated tainted data — any
            source register carried taint, or any byte of any memory
            operand (read or written) was tainted before/after the
            access.  This is the paper's "instructions touching tainted
            data" metric (Tables 1 and 2).
        tainted_sources: True if a source register or loaded byte was
            tainted.
        memory_tag_writes: (address, tags) pairs applied to shadow
            memory, in the order a tag listener must see them.
        register_tag_writes: (register, tags) pairs applied to the TRF.
    """

    touched_taint: bool = False
    tainted_sources: bool = False
    memory_tag_writes: List[Tuple[int, bytes]] = field(default_factory=list)
    register_tag_writes: List[Tuple[int, bytes]] = field(default_factory=list)


def propagate(
    event: StepEvent,
    trf: TaintRegisterFile,
    shadow: ShadowMemory,
) -> PropagationResult:
    """Apply the classical DTA rules for one committed instruction.

    Mutates ``trf`` and ``shadow`` in place and reports what changed.
    """
    instruction = event.instruction
    opcode = instruction.opcode
    result = PropagationResult()

    source_tainted = trf.any_tainted(event.regs_read)
    result.tainted_sources = source_tainted
    result.touched_taint = source_tainted

    if instruction.is_load:
        access = event.reads[0]
        tags = shadow.get_range(access.address, access.size)
        if any(tags):
            result.touched_taint = True
            result.tainted_sources = True
        extended = _extend_tags(tags, opcode)
        trf.set(instruction.rd, extended)
        result.register_tag_writes.append((instruction.rd, extended))
        return result

    if instruction.is_store:
        access = event.writes[0]
        value_tags = trf.get(instruction.rs2)[: access.size]
        # A store touches taint if the stored value is tainted or the
        # destination bytes were tainted (the store may be clearing them).
        if any(value_tags) or shadow.any_tainted(access.address, access.size):
            result.touched_taint = True
        shadow.set_tags(access.address, value_tags)
        result.memory_tag_writes.append((access.address, bytes(value_tags)))
        return result

    if opcode == Opcode.STNT:
        # Taint-management instruction: handled by the LATCH port, and
        # deliberately NOT counted as an application taint access.
        result.touched_taint = False
        result.tainted_sources = False
        return result

    fmt = instruction.format
    if fmt == Format.R:
        if opcode in _CLEARING_OPS and instruction.rs1 == instruction.rs2:
            tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        else:
            tags = trf.union(instruction.rs1, instruction.rs2)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode == Opcode.LUI:
        tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode in (Opcode.JAL, Opcode.JALR):
        if instruction.rd not in (None, 0):
            tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
            trf.set(instruction.rd, tags)
            result.register_tag_writes.append((instruction.rd, tags))
        return result

    if fmt == Format.I and instruction.rd is not None and opcode != Opcode.LTNT:
        tags = trf.get(instruction.rs1) if instruction.rs1 is not None else bytes(4)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode == Opcode.LTNT:
        # The loaded exception address is machine metadata, never tainted.
        tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    # Branches, nop, halt, syscall, strf: no register/memory taint flow.
    return result


def _extend_tags(tags: bytes, opcode: Opcode) -> bytes:
    """Extend loaded tags to a full register width.

    Sign-extension replicates the top loaded byte's tag into the upper
    bytes (a tainted sign bit taints the extension); zero-extension and
    full-width loads pad with clean tags.
    """
    width = TaintRegisterFile.BYTES_PER_REGISTER
    if len(tags) >= width:
        return bytes(tags[:width])
    if opcode in _SIGNED_LOADS and tags:
        fill = tags[-1]
        return bytes(tags) + bytes([fill]) * (width - len(tags))
    return bytes(tags).ljust(width, b"\x00")
