"""Rule-by-rule tests of the classical DTA propagation.

Each rule is observed the way its users see it: the TRF and shadow state
after the step, the tag writes a listener receives, and the returned
touched flag.
"""

import pytest

from repro.core.latch import LatchModule
from repro.dift.engine import DIFTEngine, DIFTStats
from repro.dift.propagation import propagate
from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.isa.instructions import Instruction, Opcode
from repro.machine.events import MemoryAccess, StepEvent
from repro.pipeline import StreamingPipeline
from repro.slatch.controller import SLatchSystem
from repro.workloads import programs


def step(instruction, reads=(), writes=()):
    return StepEvent(
        index=0,
        pc=0x1000,
        instruction=instruction,
        regs_read=instruction.source_registers(),
        regs_written=(instruction.rd,) if instruction.rd is not None else (),
        reads=tuple(reads),
        writes=tuple(writes),
        next_pc=0x1004,
    )


def registers(trf):
    return [trf.get(register) for register in range(16)]


def run(event, trf, shadow):
    """Propagate ``event``; return (touched, listener calls)."""
    writes = []
    touched = propagate(
        event, trf, shadow, [lambda address, tags: writes.append((address, tags))]
    )
    return touched, writes


class TestAluRules:
    def test_union_of_sources(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        touched, _ = run(
            step(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)), trf, shadow
        )
        assert trf.is_tainted(3)
        # The tainted source is what the flag reports.
        assert touched and trf.is_tainted(1)

    def test_clean_sources_clear_destination(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(3)  # stale
        touched, _ = run(
            step(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)), trf, shadow
        )
        assert not trf.is_tainted(3)
        assert not touched

    def test_xor_same_register_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        propagate(step(Instruction(Opcode.XOR, rd=5, rs1=5, rs2=5)), trf, shadow)
        assert not trf.is_tainted(5)

    def test_sub_same_register_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        propagate(step(Instruction(Opcode.SUB, rd=6, rs1=5, rs2=5)), trf, shadow)
        assert not trf.is_tainted(6)

    def test_immediate_copies_source(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(1, b"\x01\x01\x00\x00")
        propagate(step(Instruction(Opcode.ADDI, rd=2, rs1=1, imm=4)), trf, shadow)
        assert trf.get(2) == b"\x01\x01\x00\x00"

    def test_lui_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(4)
        propagate(step(Instruction(Opcode.LUI, rd=4, imm=1)), trf, shadow)
        assert not trf.is_tainted(4)

    def test_two_tainted_sources_take_the_bytewise_union(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(1, b"\x03\x00\x01\x00")
        trf.set(2, b"\x01\x02\x00\x00")
        touched, _ = run(
            step(Instruction(Opcode.OR, rd=3, rs1=1, rs2=2)), trf, shadow
        )
        assert touched
        assert trf.get(3) == b"\x03\x02\x01\x00"

    def test_writes_to_r0_are_dropped(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        touched, _ = run(
            step(Instruction(Opcode.ADDI, rd=0, rs1=1, imm=4)), trf, shadow
        )
        assert touched
        assert not trf.is_tainted(0)


class TestMemoryRules:
    def test_load_pulls_shadow_tags(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set_range(0x100, 4, 1)
        event = step(
            Instruction(Opcode.LW, rd=2, rs1=1, imm=0),
            reads=[MemoryAccess(0x100, 4, False)],
        )
        before = registers(trf)
        touched, writes = run(event, trf, shadow)
        assert trf.get(2) == b"\x01\x01\x01\x01"
        assert touched
        # Register 2 is the only register the load wrote, and a load
        # writes no shadow memory.
        before[2] = b"\x01\x01\x01\x01"
        assert registers(trf) == before
        assert writes == []

    def test_partial_load_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x101, 1)  # only second byte
        event = step(
            Instruction(Opcode.LW, rd=2, rs1=1, imm=0),
            reads=[MemoryAccess(0x100, 4, False)],
        )
        propagate(event, trf, shadow)
        assert trf.get(2) == b"\x00\x01\x00\x00"

    def test_signed_byte_load_extends_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x100, 1)
        event = step(
            Instruction(Opcode.LB, rd=2, rs1=1, imm=0),
            reads=[MemoryAccess(0x100, 1, False)],
        )
        propagate(event, trf, shadow)
        # Sign-extension bytes inherit the top byte's tag.
        assert trf.get(2) == b"\x01\x01\x01\x01"

    def test_unsigned_byte_load_does_not_extend(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x100, 1)
        event = step(
            Instruction(Opcode.LBU, rd=2, rs1=1, imm=0),
            reads=[MemoryAccess(0x100, 1, False)],
        )
        propagate(event, trf, shadow)
        assert trf.get(2) == b"\x01\x00\x00\x00"

    def test_clean_load_clears_destination(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(2)
        event = step(
            Instruction(Opcode.LW, rd=2, rs1=1, imm=0),
            reads=[MemoryAccess(0x200, 4, False)],
        )
        touched, _ = run(event, trf, shadow)
        assert not trf.is_tainted(2)
        assert not touched

    def test_store_writes_tags(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(2, b"\x01\x01\x00\x00")
        event = step(
            Instruction(Opcode.SW, rs1=1, rs2=2, imm=0),
            writes=[MemoryAccess(0x300, 4, True)],
        )
        before = registers(trf)
        touched, writes = run(event, trf, shadow)
        assert shadow.get_range(0x300, 4) == b"\x01\x01\x00\x00"
        assert touched
        assert writes == [(0x300, b"\x01\x01\x00\x00")]
        assert registers(trf) == before

    def test_clean_store_over_tainted_bytes_clears_and_counts(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set_range(0x300, 4, 1)
        event = step(
            Instruction(Opcode.SW, rs1=1, rs2=2, imm=0),
            writes=[MemoryAccess(0x300, 4, True)],
        )
        touched, writes = run(event, trf, shadow)
        assert not shadow.any_tainted(0x300, 4)
        # The store touched tainted memory (it cleared it), and the
        # listeners hear the clear so the coarse state can drop it.
        assert touched
        assert writes == [(0x300, bytes(4))]

    def test_clean_store_over_clean_bytes_still_notifies(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        event = step(
            Instruction(Opcode.SH, rs1=1, rs2=2, imm=0),
            writes=[MemoryAccess(0x300, 2, True)],
        )
        touched, writes = run(event, trf, shadow)
        assert not touched
        assert writes == [(0x300, bytes(2))]
        assert shadow.tainted_byte_count == 0

    def test_narrow_store_only_covers_its_bytes(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(2)
        event = step(
            Instruction(Opcode.SB, rs1=1, rs2=2, imm=0),
            writes=[MemoryAccess(0x400, 1, True)],
        )
        propagate(event, trf, shadow)
        assert shadow.get(0x400) == 1
        assert shadow.get(0x401) == 0

    def test_store_across_a_page_boundary(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(2, b"\x01\x02\x03\x04")
        event = step(
            Instruction(Opcode.SW, rs1=1, rs2=2, imm=0),
            writes=[MemoryAccess(0x1FFE, 4, True)],
        )
        touched, writes = run(event, trf, shadow)
        assert touched
        assert shadow.get_range(0x1FFE, 4) == b"\x01\x02\x03\x04"
        assert shadow.tainted_pages() == {1, 2}
        assert writes == [(0x1FFE, b"\x01\x02\x03\x04")]


class TestControlAndSpecialRules:
    def test_branches_do_not_propagate(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        before = registers(trf)
        touched, writes = run(
            step(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=8)), trf, shadow
        )
        assert touched  # reading a tainted register counts
        assert registers(trf) == before
        assert writes == []

    def test_jal_clears_link_register(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        propagate(step(Instruction(Opcode.JAL, rd=1, imm=8)), trf, shadow)
        assert not trf.is_tainted(1)

    def test_jalr_flags_tainted_source(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        touched, _ = run(
            step(Instruction(Opcode.JALR, rd=1, rs1=5, imm=0)), trf, shadow
        )
        # The tainted target register is reported and left tainted; only
        # the link register is written (clean).
        assert touched
        assert trf.is_tainted(5)
        assert not trf.is_tainted(1)

    def test_stnt_not_counted_as_application_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        touched, _ = run(
            step(Instruction(Opcode.STNT, rs1=1, rs2=2)), trf, shadow
        )
        assert not touched

    def test_ltnt_destination_untainted(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(3)
        propagate(step(Instruction(Opcode.LTNT, rd=3)), trf, shadow)
        assert not trf.is_tainted(3)

    def test_nop_touches_nothing(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(4)
        shadow.set_range(0x100, 4, 1)
        before = registers(trf)
        touched, writes = run(step(Instruction(Opcode.NOP)), trf, shadow)
        assert not touched
        assert writes == []
        assert registers(trf) == before
        assert shadow.get_range(0x100, 4) == b"\x01" * 4

    def test_syscall_reads_its_argument_registers(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        event = StepEvent(
            index=0, pc=0x1000, instruction=Instruction(Opcode.SYSCALL),
            regs_read=(3, 4, 5, 6), regs_written=(3,), next_pc=0x1004,
        )
        touched, writes = run(event, trf, shadow)
        assert touched
        assert writes == []


#: DIFTStats and LatchModule.update_memory_tags calls of the default
#: ``file_filter`` and ``phased_compute`` scenarios, as measured with the
#: opcode if-chain the handler table replaced: the handlers must not move
#: one count.
PINNED_COUNTS = {
    ("file_filter", "engine"): (DIFTStats(447, 112, 32, 0), 0),
    ("file_filter", "slatch"): (DIFTStats(419, 112, 32, 0), 17),
    ("file_filter", "pipeline"): (DIFTStats(112, 112, 32, 0), 18),
    ("phased_compute", "engine"): (DIFTStats(5092, 64, 16, 0), 0),
    ("phased_compute", "slatch"): (DIFTStats(1253, 64, 16, 0), 33),
    ("phased_compute", "pipeline"): (DIFTStats(64, 64, 16, 0), 34),
}


@pytest.mark.parametrize("scenario,monitor", sorted(PINNED_COUNTS))
def test_workload_counts_are_pinned(scenario, monitor, monkeypatch):
    calls = []
    original = LatchModule.update_memory_tags

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LatchModule, "update_memory_tags", counting)
    cpu = getattr(programs, scenario)().make_cpu()
    if monitor == "engine":
        engine = DIFTEngine()
        cpu.attach(engine)
    elif monitor == "slatch":
        engine = SLatchSystem(cpu).engine
    else:
        engine = StreamingPipeline(cpu).engine
    cpu.run()
    assert cpu.halted
    assert (engine.stats, len(calls)) == PINNED_COUNTS[scenario, monitor]
