"""LatchModule tests: check path, update path, and the superset invariant.

The crucial property (Figure 1 of the paper): the coarse state is always
a superset of the precise state — a clean coarse check guarantees clean
bytes, so LATCH can never produce a false negative.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.latch import CheckLevel, LatchConfig, LatchModule
from repro.dift.tags import ShadowMemory
from repro.isa.instructions import Instruction, Opcode
from repro.machine.events import MemoryAccess, StepEvent


class TestCheckPath:
    def test_cold_page_resolved_by_tlb(self):
        latch = LatchModule()
        result = latch.check_memory(0x9000, 4)
        assert result.level == CheckLevel.TLB
        assert not result.coarse_tainted

    def test_tainted_domain_goes_to_precise(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1000, b"\x01")
        result = latch.check_memory(0x1000, 4)
        assert result.level == CheckLevel.PRECISE
        assert result.coarse_tainted
        assert latch.last_exception_address == 0x1000

    def test_false_positive_same_domain(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1000, b"\x01")
        # Different byte, same 64-byte domain → coarse positive.
        result = latch.check_memory(0x1020, 1)
        assert result.coarse_tainted

    def test_clean_domain_in_hot_page_resolved_by_ctc(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1000, b"\x01")
        # Same page-level domain (2 KiB), different 64 B domain.
        result = latch.check_memory(0x1100, 4)
        assert result.level == CheckLevel.CTC
        assert not result.coarse_tainted

    def test_without_tlb_bits_everything_hits_ctc(self):
        latch = LatchModule(LatchConfig(use_tlb_bits=False))
        result = latch.check_memory(0x9000, 4)
        assert result.level == CheckLevel.CTC

    def test_access_spanning_domains(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1040, b"\x01")  # second domain
        result = latch.check_memory(0x103E, 4)  # spans 0x1000 and 0x1040
        assert result.coarse_tainted

    def test_stats_accumulate(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1000, b"\x01")
        latch.check_memory(0x1000)
        latch.check_memory(0x9000)
        stats = latch.stats
        assert stats.memory_checks == 2
        assert stats.sent_to_precise == 1
        assert stats.resolved_by_tlb == 1
        fractions = stats.level_fractions()
        assert fractions["tlb"] == pytest.approx(0.5)
        assert fractions["precise"] == pytest.approx(0.5)


class TestStepChecks:
    def _event(self, regs_read=(), accesses=()):
        return StepEvent(
            index=0,
            pc=0,
            instruction=Instruction(Opcode.NOP),
            regs_read=tuple(regs_read),
            reads=tuple(accesses),
            next_pc=4,
        )

    def test_register_positive(self):
        latch = LatchModule()
        latch.trf.taint(5)
        check = latch.check_step(self._event(regs_read=(5,)))
        assert check.register_tainted and check.coarse_tainted
        assert latch.stats.register_positives == 1

    def test_clean_step(self):
        latch = LatchModule()
        check = latch.check_step(
            self._event(regs_read=(1, 2), accesses=[MemoryAccess(0x100, 4, False)])
        )
        assert not check.coarse_tainted

    def test_memory_positive(self):
        latch = LatchModule()
        latch.update_memory_tags(0x100, b"\x01")
        check = latch.check_step(
            self._event(accesses=[MemoryAccess(0x100, 4, False)])
        )
        assert check.coarse_tainted
        assert latch.stats.coarse_positives == 1

    def test_clean_register_only_steps_share_one_check(self):
        latch = LatchModule()
        latch.trf.taint(9)  # a tainted register the steps do not read
        first = latch.check_step(self._event(regs_read=(1, 2)))
        second = latch.check_step(self._event(regs_read=(3,)))
        assert first is second
        assert not first.coarse_tainted and not first.register_tainted
        assert first.memory_results == ()
        stats = latch.stats
        assert stats.steps_checked == 2
        assert stats.register_positives == stats.coarse_positives == 0
        assert stats.memory_checks == 0
        assert latch.ctc.stats.accesses == 0
        assert latch.tlb_bits.checks == 0

    def test_tainted_register_only_step_is_a_fresh_positive(self):
        latch = LatchModule()
        clean = latch.check_step(self._event(regs_read=(5,)))
        latch.trf.taint(5)
        first = latch.check_step(self._event(regs_read=(5,)))
        second = latch.check_step(self._event(regs_read=(1, 5)))
        assert first is not clean and first is not second
        assert first.register_tainted and first.coarse_tainted
        assert first.memory_results == ()
        assert latch.stats.register_positives == 2
        assert latch.stats.coarse_positives == 2
        assert latch.stats.memory_checks == 0


class TestUpdatePath:
    def test_strf_loads_register_mask(self):
        latch = LatchModule()
        latch.set_trf_mask((1 << 3) | (1 << 7))
        assert latch.trf.tainted_registers() == (3, 7)

    def test_bulk_load_from_shadow(self):
        latch = LatchModule()
        shadow = ShadowMemory()
        shadow.set_range(0x4000, 10, 1)
        latch.bulk_load_from_shadow(shadow)
        assert latch.check_memory(0x4000).coarse_tainted
        assert not latch.check_memory(0x8000).coarse_tainted

    def test_update_keeps_tlb_bits_coherent(self):
        latch = LatchModule()
        latch.check_memory(0x1000)  # TLB entry resident, bit clean
        latch.update_memory_tags(0x1000, b"\x01")
        # The resident TLB entry must now route the access to the CTC.
        result = latch.check_memory(0x1000)
        assert result.coarse_tainted

    def test_reconcile_clears_refreshes_tlb(self):
        latch = LatchModule()
        shadow = ShadowMemory()
        latch.update_memory_tags(0x1000, b"\x01")
        latch.update_memory_tags(0x1000, b"\x00")
        assert latch.check_memory(0x1000).coarse_tainted  # deferred
        cleared = latch.reconcile_clears(shadow.region_clean)
        assert cleared == 1
        result = latch.check_memory(0x1000)
        assert not result.coarse_tainted
        assert result.level == CheckLevel.TLB

    def test_reset_stats_keeps_state(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1000, b"\x01")
        latch.check_memory(0x1000)
        latch.reset_stats()
        assert latch.stats.memory_checks == 0
        assert latch.check_memory(0x1000).coarse_tainted


class TestSupersetInvariant:
    """Coarse state ⊇ precise state under arbitrary update sequences."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x7FFF),  # address
                st.integers(min_value=1, max_value=8),       # length
                st.booleans(),                               # taint or clear
            ),
            min_size=1,
            max_size=60,
        ),
        st.booleans(),  # defer clears (S-LATCH) or immediate (H-LATCH)
    )
    def test_no_false_negatives(self, operations, defer):
        latch = LatchModule(LatchConfig(ctc_entries=4, tlb_entries=8))
        shadow = ShadowMemory()
        for address, length, taint in operations:
            tag = 1 if taint else 0
            shadow.set_range(address, length, tag)
            tags = bytes([tag]) * length
            if defer:
                latch.update_memory_tags(address, tags)
            else:
                latch.update_memory_tags(
                    address, tags, defer_clear=False,
                    clean_oracle=shadow.region_clean,
                )
        # Every precisely tainted byte must be coarse-tainted.
        for byte_address in shadow.iter_tainted_bytes():
            assert latch.check_memory(byte_address, 1).coarse_tainted
        # After reconciling clears, the invariant still holds and fully
        # clean domains are released.
        latch.reconcile_clears(shadow.region_clean)
        for byte_address in shadow.iter_tainted_bytes():
            assert latch.check_memory(byte_address, 1).coarse_tainted

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x3FFF),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_immediate_clears_are_exact_at_domain_level(self, operations):
        """With the Figure 12 logic, a domain bit is set iff the domain
        holds at least one tainted byte."""
        latch = LatchModule(LatchConfig(ctc_entries=8))
        shadow = ShadowMemory()
        for address, taint in operations:
            tag = 1 if taint else 0
            shadow.set(address, tag)
            latch.update_memory_tags(
                address, bytes([tag]), defer_clear=False,
                clean_oracle=shadow.region_clean,
            )
        geometry = latch.geometry
        touched_domains = {geometry.domain_base(a) for a, _ in operations}
        for base in touched_domains:
            expected = shadow.any_tainted(base, geometry.domain_size)
            assert latch.ctt.is_domain_tainted(base) == expected


class TestStraddlingAndWrap:
    """Multi-byte accesses across domain / page / address-space edges."""

    def test_straddling_store_taints_both_domains(self):
        latch = LatchModule()
        latch.update_memory_tags(0x103E, b"\x01" * 4)  # 2 bytes each side
        assert latch.ctt.is_domain_tainted(0x1000)
        assert latch.ctt.is_domain_tainted(0x1040)

    def test_straddling_clear_defers_in_both_domains(self):
        latch = LatchModule()
        shadow = ShadowMemory()
        latch.update_memory_tags(0x103E, b"\x01" * 4)
        latch.update_memory_tags(0x103E, b"\x00" * 4)
        # Deferred: both bits still set until reconcile releases both.
        assert latch.check_memory(0x1000, 1).coarse_tainted
        assert latch.check_memory(0x1040, 1).coarse_tainted
        assert latch.reconcile_clears(shadow.region_clean) == 2
        assert not latch.check_memory(0x103E, 4).coarse_tainted

    def test_store_straddling_page_domains_updates_both_tlb_bits(self):
        latch = LatchModule()
        span = latch.geometry.word_span
        latch.check_memory(span - 4, 1)   # both pages TLB-resident, clean
        latch.check_memory(span, 1)
        latch.update_memory_tags(span - 4, b"\x01" * 8)
        assert latch.check_memory(span - 4, 1).coarse_tainted
        assert latch.check_memory(span, 1).coarse_tainted

    def test_wrap_around_store_taints_top_and_bottom(self):
        latch = LatchModule()
        latch.update_memory_tags(0xFFFF_FFFE, b"\x01" * 4)
        assert latch.ctt.is_domain_tainted(0xFFFF_FFC0)
        assert latch.ctt.is_domain_tainted(0)

    def test_wrap_around_check_sees_low_memory_taint(self):
        latch = LatchModule()
        latch.update_memory_tags(0x0, b"\x01")
        result = latch.check_memory(0xFFFF_FFFE, 4)
        assert result.coarse_tainted

    def test_wrap_around_check_clean_terminates(self):
        latch = LatchModule(LatchConfig(use_tlb_bits=False))
        result = latch.check_memory(0xFFFF_FFF8, 16)
        assert not result.coarse_tainted

    def test_unmasked_addresses_fold_to_canonical_domains(self):
        latch = LatchModule()
        latch.update_memory_tags(0x1_0000_1000, b"\x01")
        assert latch.check_memory(0x1000, 1).coarse_tainted

    def test_invariants_hold_after_wrap_traffic(self):
        latch = LatchModule(LatchConfig(ctc_entries=2, tlb_entries=2))
        shadow = ShadowMemory()
        for address, tags in (
            (0xFFFF_FFFE, b"\x01" * 4),
            (0x103E, b"\x01" * 4),
            (0xFFFF_FFFE, b"\x00" * 2),
        ):
            for offset, tag in enumerate(tags):
                shadow.set((address + offset) & 0xFFFF_FFFF, tag)
            latch.update_memory_tags(address, tags)
            latch.check_memory(address, len(tags))
            latch.check_invariants(shadow)
        latch.reconcile_clears(shadow.region_clean)
        latch.check_invariants(shadow)
