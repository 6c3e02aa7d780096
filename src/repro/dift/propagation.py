"""Classical Dynamic Taint Analysis propagation rules, one handler per opcode.

These are the rules libdft applies (and the paper adopts: "All of our
evaluations apply the classical Dynamic Taint Analysis rules used by
[32]"), expressed over the toy ISA:

* register-register ALU: destination tags = byte-wise union of sources;
  the self-cancelling idioms ``xor rd, rs, rs`` and ``sub rd, rs, rs``
  clear the destination (their result is a constant);
* register-immediate ALU: destination tags = source tags;
* ``lui``, ``ltnt`` and ``jal``/``jalr`` link writes: destination cleared
  (immediates and machine metadata are untainted by definition);
* loads: destination tags = shadow tags of the loaded bytes, with the
  sign/zero-extension bytes inheriting the tag of the top loaded byte;
* stores: shadow tags of the stored bytes = source-register tags.

As in libdft, each rule is resolved once: :data:`HANDLERS` maps every
opcode to a handler that updates the TRF and shadow memory in place,
tells the tag listeners of every shadow write (clean stores included),
and returns whether the instruction touched taint: a tainted source
register, or a memory operand byte tainted before or after the access
(never for ``stnt``, which is taint management).  Sources are tested
against the TRF dirty mask, so clean instructions allocate nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from repro.isa.instructions import OPCODE_FORMAT, Format, Opcode
from repro.machine.events import StepEvent
from repro.dift.tags import ShadowMemory, TaintRegisterFile

_WIDTH = TaintRegisterFile.BYTES_PER_REGISTER


def _alu(event, trf, shadow, listeners):
    instruction = event.instruction
    return trf.merge(instruction.rd, instruction.rs1, instruction.rs2)


def _alu_immediate(event, trf, shadow, listeners):
    instruction = event.instruction
    return trf.copy(instruction.rd, instruction.rs1)


def _clear_destination(event, trf, shadow, listeners):
    instruction = event.instruction
    touched = trf.is_tainted(instruction.rs1)
    trf.clear(instruction.rd)
    return touched


def _alu_self_cancelling(event, trf, shadow, listeners):
    instruction = event.instruction
    if instruction.rs1 == instruction.rs2:
        return _clear_destination(event, trf, shadow, listeners)
    return trf.merge(instruction.rd, instruction.rs1, instruction.rs2)


def _constant(event, trf, shadow, listeners):
    trf.clear(event.instruction.rd)
    return False


def _load(signed: bool):
    def handler(event, trf, shadow, listeners):
        instruction = event.instruction
        access = event.reads[0]
        touched = trf.is_tainted(instruction.rs1)
        tags = shadow.get_range(access.address, access.size)
        if not any(tags):
            trf.clear(instruction.rd)
            return touched
        if len(tags) < _WIDTH:
            tags += (tags[-1:] if signed else b"\x00") * (_WIDTH - len(tags))
        trf.set(instruction.rd, tags)
        return True

    return handler


def _store(event, trf, shadow, listeners):
    instruction = event.instruction
    access = event.writes[0]
    address = access.address
    touched = (
        trf.is_tainted(instruction.rs1)
        or trf.is_tainted(instruction.rs2)
        or shadow.any_tainted(address, access.size)
    )
    tags = trf.get(instruction.rs2)[: access.size]
    shadow.set_tags(address, tags)
    for listener in listeners:
        listener(address, tags)
    return touched


def _reads(event, trf, shadow, listeners):
    # Branches, nop, halt, syscall, strf: no register/memory taint flow.
    return trf.any_tainted(event.regs_read)


def _build() -> Dict[Opcode, Callable]:
    handlers = dict.fromkeys(Opcode, _reads)
    for opcode, fmt in OPCODE_FORMAT.items():
        if fmt in (Format.R, Format.I):
            handlers[opcode] = _alu if fmt == Format.R else _alu_immediate
    handlers.update({
        Opcode.XOR: _alu_self_cancelling,
        Opcode.SUB: _alu_self_cancelling,
        Opcode.LUI: _constant,
        Opcode.LTNT: _constant,
        Opcode.JAL: _constant,
        Opcode.JALR: _clear_destination,
        Opcode.LB: _load(signed=True),
        Opcode.LH: _load(signed=True),
        Opcode.LBU: _load(signed=False),
        Opcode.LHU: _load(signed=False),
        Opcode.LW: _load(signed=False),
        Opcode.SB: _store,
        Opcode.SH: _store,
        Opcode.SW: _store,
        Opcode.STNT: lambda event, trf, shadow, listeners: False,
    })
    return handlers


#: ``HANDLERS[opcode](event, trf, shadow, listeners) -> touched``.
HANDLERS = _build()


def propagate(
    event: StepEvent,
    trf: TaintRegisterFile,
    shadow: ShadowMemory,
    listeners: Iterable[Callable[[int, bytes], None]] = (),
) -> bool:
    """Apply one instruction's rule; listeners get ``(address, tags)``."""
    return HANDLERS[event.instruction.opcode](event, trf, shadow, listeners)
