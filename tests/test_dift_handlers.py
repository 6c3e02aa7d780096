"""Parity of the per-opcode DIFT handlers with the reference if-chain.

:mod:`tests.dift_reference` states the classical DTA rules as one opcode
if-chain.  For every opcode, random register taint (colours 1..255),
random shadow contents and memory accesses that straddle a page or wrap
past 0xFFFFFFFF, the production handlers must leave the same TRF bytes
and dirty mask, the same shadow bytes and tainted-byte count, report
the same touched flag and call the tag listeners with the same writes
in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dift.propagation import HANDLERS, propagate
from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.isa.instructions import (
    LOAD_SIZES,
    OPCODE_FORMAT,
    STORE_SIZES,
    Format,
    Instruction,
    Opcode,
)
from repro.machine.events import MemoryAccess, StepEvent
from tests import dift_reference

_MASK32 = 0xFFFFFFFF

#: Addresses where a 4-byte access can cross a page or wrap around.
_EDGES = (0x0, 0x1000, 0x2000, 0x10000, 0xFFFFF000)

tags = st.one_of(st.just(0), st.integers(1, 255))
register_tags = st.lists(tags, min_size=4, max_size=4).map(bytes)
# Few registers, so sources and destinations often coincide.
registers = st.one_of(st.integers(0, 3), st.integers(0, 15))
addresses = st.one_of(
    st.builds(
        lambda edge, delta: (edge + delta) & _MASK32,
        st.sampled_from(_EDGES), st.integers(-6, 6),
    ),
    st.integers(0, _MASK32),
)


def cpu_event(instruction, address):
    """The StepEvent the CPU commits for ``instruction`` (cpu._execute)."""
    op = instruction.opcode
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2
    reads = writes = ()
    if op == Opcode.SYSCALL:
        regs_read = (3, 4, 5, 6)
    elif op in LOAD_SIZES:
        regs_read = (rs1,)
        reads = (MemoryAccess(address, LOAD_SIZES[op], False),)
    elif op in STORE_SIZES:
        regs_read = (rs1, rs2)
        writes = (MemoryAccess(address, STORE_SIZES[op], True),)
    else:
        regs_read = tuple(r for r in (rs1, rs2) if r is not None)
    return StepEvent(
        index=0, pc=0x1000, instruction=instruction, regs_read=regs_read,
        regs_written=(rd,) if rd else (), reads=reads, writes=writes,
        next_pc=0x1004,
    )


@st.composite
def instructions(draw, op):
    fmt = OPCODE_FORMAT[op]
    rd = rs1 = rs2 = None
    if fmt in (Format.R, Format.I, Format.J, Format.U):
        rd = draw(registers)
    if fmt in (Format.R, Format.S, Format.B) or (
        fmt == Format.I and op != Opcode.LTNT
    ) or op == Opcode.STRF:
        rs1 = draw(registers)
    if fmt in (Format.R, Format.S, Format.B):
        # Half the time both sources are one register (``xor r, x, x``).
        rs2 = draw(st.one_of(st.just(rs1), registers))
    return Instruction(op, rd=rd, rs1=rs1, rs2=rs2)


@st.composite
def machine_states(draw):
    """(per-register tags, shadow writes) applied identically to both sides."""
    trf = draw(st.dictionaries(registers, register_tags, max_size=6))
    shadow = draw(st.lists(
        st.tuples(addresses, st.lists(tags, min_size=1, max_size=8).map(bytes)),
        min_size=1, max_size=6,
    ))
    return trf, shadow


def build(state):
    trf_tags, shadow_writes = state
    trf, shadow = TaintRegisterFile(), ShadowMemory()
    for register, value in trf_tags.items():
        trf.set(register, value)
    for address, value in shadow_writes:
        shadow.set_tags(address, value)
    return trf, shadow


def observe(trf, shadow):
    return (
        [trf.get(register) for register in range(16)],
        trf.register_mask(),
        {n: bytes(page) for n, page in shadow._pages.items() if any(page)},
        shadow.tainted_byte_count,
    )


def test_every_opcode_has_a_handler():
    assert set(HANDLERS) == set(Opcode)


@pytest.mark.parametrize("opcode", sorted(Opcode), ids=lambda op: op.name)
@settings(max_examples=30, deadline=None)
@given(state=machine_states(), address=addresses, data=st.data())
def test_handlers_match_the_reference_rules(opcode, state, address, data):
    instruction = data.draw(instructions(opcode))
    # Aim most accesses at or just before bytes the state wrote.
    if data.draw(st.integers(0, 3)):
        base, value = data.draw(st.sampled_from(state[1]))
        address = (base + data.draw(st.integers(-3, len(value)))) & _MASK32
    event = cpu_event(instruction, address)

    trf, shadow = build(state)
    expected = dift_reference.propagate(event, trf, shadow)
    trf2, shadow2 = build(state)
    calls = []
    touched = propagate(
        event, trf2, shadow2, [lambda a, t: calls.append((a, t))]
    )

    assert touched is expected.touched_taint
    assert calls == expected.memory_tag_writes
    # Listeners may keep what they are given: never the TRF's storage.
    assert all(type(t) is bytes for _, t in calls)
    assert observe(trf2, shadow2) == observe(trf, shadow)



def test_production_code_never_imports_the_reference():
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    assert [
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "dift_reference" in path.read_text()
    ] == []
