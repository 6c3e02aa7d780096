"""Shadow memory and taint register file tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dift.tags import ShadowMemory, TaintRegisterFile

_MASK32 = 0xFFFFFFFF

#: Addresses next to a page boundary or the top of the address space.
_edge_addresses = st.one_of(
    st.builds(
        lambda base, delta: (base + delta) & _MASK32,
        st.sampled_from((0x0, 0x1000, 0x2000)),
        st.integers(min_value=-8, max_value=8),
    ),
    st.integers(min_value=0, max_value=0x2FFF),
)
_any_tag = st.integers(min_value=0, max_value=600)
_shadow_operations = st.one_of(
    st.builds(
        lambda a, t: lambda s: s.set(a, t), _edge_addresses, _any_tag
    ),
    st.builds(
        lambda a, n, t: lambda s: s.set_range(a, n, t),
        _edge_addresses, st.integers(min_value=0, max_value=20), _any_tag,
    ),
    st.builds(
        lambda a, tags: lambda s: s.set_tags(a, tags),
        _edge_addresses, st.binary(max_size=9),
    ),
    st.builds(
        lambda a, n: lambda s: s.clear_range(a, n),
        _edge_addresses, st.integers(min_value=0, max_value=20),
    ),
)


class TestShadowMemory:
    def test_default_clean(self):
        shadow = ShadowMemory()
        assert shadow.get(0x1234) == 0
        assert not shadow.any_tainted(0, 1 << 16)
        assert shadow.tainted_byte_count == 0

    def test_set_and_get(self):
        shadow = ShadowMemory()
        shadow.set(0x100, 7)
        assert shadow.get(0x100) == 7
        assert shadow.get(0x101) == 0

    def test_range_operations(self):
        shadow = ShadowMemory()
        shadow.set_range(0x10, 8, 1)
        assert shadow.all_tainted(0x10, 8)
        assert shadow.any_tainted(0x17, 2)
        assert not shadow.all_tainted(0x10, 9)
        shadow.clear_range(0x10, 4)
        assert not shadow.any_tainted(0x10, 4)
        assert shadow.any_tainted(0x14, 4)

    def test_byte_count_tracks_set_and_clear(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 10, 1)
        assert shadow.tainted_byte_count == 10
        shadow.set(0, 2)  # retag, not a new byte
        assert shadow.tainted_byte_count == 10
        shadow.clear_range(0, 5)
        assert shadow.tainted_byte_count == 5

    def test_clearing_clean_byte_is_noop(self):
        shadow = ShadowMemory()
        shadow.set(0x9999, 0)
        assert shadow.tainted_byte_count == 0

    def test_set_tags_vector(self):
        shadow = ShadowMemory()
        shadow.set_tags(0x20, b"\x01\x00\x02")
        assert shadow.get_range(0x20, 3) == b"\x01\x00\x02"

    def test_tainted_pages(self):
        shadow = ShadowMemory()
        shadow.set(0x1000, 1)
        shadow.set(0x5005, 1)
        assert shadow.tainted_pages() == {1, 5}
        shadow.clear_range(0x1000, 1)
        assert shadow.tainted_pages() == {5}

    def test_iter_tainted_bytes_sorted(self):
        shadow = ShadowMemory()
        shadow.set(0x5000, 1)
        shadow.set(0x1003, 1)
        shadow.set(0x1001, 1)
        assert list(shadow.iter_tainted_bytes()) == [0x1001, 0x1003, 0x5000]

    def test_cross_page_range(self):
        shadow = ShadowMemory()
        shadow.set_range(0xFFE, 4, 1)  # spans pages 0 and 1
        assert shadow.any_tainted(0x1000, 1)
        assert shadow.any_tainted(0xFFE, 1)

    def test_clear_all(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 100, 1)
        shadow.clear_all()
        assert shadow.tainted_byte_count == 0
        assert not shadow.any_tainted(0, 100)

    def test_iter_tainted_domains(self):
        shadow = ShadowMemory()
        shadow.set(0x100, 1)       # domain 0x100
        shadow.set(0x13F, 1)       # same 64 B domain
        shadow.set(0x2005, 1)      # domain 0x2000
        assert list(shadow.iter_tainted_domains(64)) == [0x100, 0x2000]

    def test_iter_tainted_domains_validates_size(self):
        with pytest.raises(ValueError):
            list(ShadowMemory().iter_tainted_domains(48))

    def test_bulk_set_range_counts(self):
        shadow = ShadowMemory()
        shadow.set_range(0xFF0, 0x40, 1)  # crosses a page boundary
        assert shadow.tainted_byte_count == 0x40
        shadow.set_range(0xFF0, 0x10, 2)  # retag, no count change
        assert shadow.tainted_byte_count == 0x40
        shadow.set_range(0x1000, 0x10, 0)  # clear part on the second page
        assert shadow.tainted_byte_count == 0x30

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x1FFF),
                st.integers(min_value=1, max_value=64),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=60,
        )
    )
    def test_set_range_matches_per_byte_model(self, operations):
        shadow = ShadowMemory()
        model = {}
        for address, length, tag in operations:
            shadow.set_range(address, length, tag)
            for offset in range(length):
                if tag:
                    model[address + offset] = tag
                else:
                    model.pop(address + offset, None)
        assert shadow.tainted_byte_count == len(model)
        for address, tag in model.items():
            assert shadow.get(address) == tag

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x3FFF),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, operations):
        """Shadow memory behaves exactly like a dict of byte → tag."""
        shadow = ShadowMemory()
        model = {}
        for address, tag in operations:
            shadow.set(address, tag)
            if tag:
                model[address] = tag
            else:
                model.pop(address, None)
        assert shadow.tainted_byte_count == len(model)
        for address, tag in model.items():
            assert shadow.get(address) == tag

    def test_set_masks_the_tag_before_counting(self):
        shadow = ShadowMemory()
        shadow.set(0x10, 256)  # stores 0: nothing became tainted
        assert shadow.get(0x10) == 0
        assert shadow.tainted_byte_count == 0
        shadow.set(0x11, 1)
        shadow.set(0x11, 512)  # clears the byte
        assert shadow.get(0x11) == 0
        assert shadow.tainted_byte_count == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_shadow_operations, max_size=40))
    def test_count_equals_nonzero_shadow_bytes(self, operations):
        """``tainted_byte_count`` is the number of non-zero shadow bytes
        after any mix of writes, including tags >= 256 and ranges that
        cross a page or wrap past 0xFFFFFFFF."""
        shadow = ShadowMemory()
        for operation in operations:
            operation(shadow)
        nonzero = sum(
            len(page) - page.count(0) for page in shadow._pages.values()
        )
        assert shadow.tainted_byte_count == nonzero

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(_edge_addresses, st.binary(min_size=0, max_size=9)),
            max_size=20,
        ),
        _edge_addresses,
        st.integers(min_value=-1, max_value=9),
    )
    def test_range_fast_paths_match_per_byte_model(self, writes, address, length):
        """The in-page slice paths of ``set_tags``, ``get_range`` and
        ``any_tainted`` agree with a dict of byte -> tag."""
        shadow = ShadowMemory()
        model = {}
        for base, tags in writes:
            shadow.set_tags(base, tags)
            for offset, tag in enumerate(tags):
                model[(base + offset) & _MASK32] = tag
        expected = bytes(
            model.get((address + i) & _MASK32, 0) for i in range(length)
        )
        assert shadow.get_range(address, length) == expected
        assert shadow.any_tainted(address, length) == any(expected)
        assert shadow.tainted_byte_count == sum(1 for t in model.values() if t)


class TestTaintRegisterFile:
    def test_default_clean(self):
        trf = TaintRegisterFile()
        assert not any(trf.is_tainted(r) for r in range(16))

    def test_taint_and_clear(self):
        trf = TaintRegisterFile()
        trf.taint(5)
        assert trf.is_tainted(5)
        assert trf.get(5) == b"\x01\x01\x01\x01"
        trf.clear(5)
        assert not trf.is_tainted(5)

    def test_r0_immune(self):
        trf = TaintRegisterFile()
        trf.taint(0)
        assert not trf.is_tainted(0)
        trf.set(0, b"\x01\x01\x01\x01")
        assert not trf.is_tainted(0)

    def test_partial_byte_taint(self):
        trf = TaintRegisterFile()
        trf.set(3, b"\x01\x00\x00\x00")
        assert trf.is_tainted(3)
        assert trf.get(3) == b"\x01\x00\x00\x00"

    def test_set_pads_short_tags(self):
        trf = TaintRegisterFile()
        trf.set(2, b"\x01")
        assert trf.get(2) == b"\x01\x00\x00\x00"

    def test_any_tainted(self):
        trf = TaintRegisterFile()
        trf.taint(7)
        assert trf.any_tainted((1, 7))
        assert not trf.any_tainted((1, 2))
        assert not trf.any_tainted(())

    def test_union(self):
        trf = TaintRegisterFile()
        trf.set(1, b"\x01\x00\x00\x00")
        trf.set(2, b"\x00\x02\x00\x00")
        assert trf.union(1, 2) == b"\x01\x02\x00\x00"

    def test_byte_mask_roundtrip(self):
        trf = TaintRegisterFile()
        trf.set(1, b"\x01\x00\x01\x00")
        trf.taint(9)
        mask = trf.mask()
        other = TaintRegisterFile()
        other.load_mask(mask)
        assert other.is_tainted(1) and other.is_tainted(9)
        assert other.get(1)[0] and not other.get(1)[1]

    def test_register_mask_roundtrip(self):
        trf = TaintRegisterFile()
        trf.taint(4)
        trf.taint(11)
        mask = trf.register_mask()
        assert mask == (1 << 4) | (1 << 11)
        other = TaintRegisterFile()
        other.taint(2)  # should be cleared by the load
        other.load_register_mask(mask)
        assert other.tainted_registers() == (4, 11)

    def test_load_register_mask_ignores_r0_bit(self):
        trf = TaintRegisterFile()
        trf.load_register_mask(1)  # bit 0 = r0
        assert not trf.is_tainted(0)

    def test_clear_all(self):
        trf = TaintRegisterFile()
        for register in range(16):
            trf.taint(register)
        trf.clear_all()
        assert trf.tainted_registers() == ()


def _trf_operations():
    registers = st.integers(min_value=0, max_value=15)
    tags = st.binary(min_size=0, max_size=6)
    tag_value = st.integers(min_value=0, max_value=3)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), registers, tags),
            st.tuples(st.just("taint"), registers, tag_value),
            st.tuples(st.just("clear"), registers),
            st.tuples(
                st.just("clear_registers"),
                st.lists(registers, max_size=5),
            ),
            st.tuples(
                st.just("load_mask"),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
                tag_value,
            ),
            st.tuples(
                st.just("load_register_mask"),
                st.integers(min_value=0, max_value=(1 << 16) - 1),
                tag_value,
            ),
            st.tuples(st.just("clear_all")),
        ),
        max_size=40,
    )


class TestDirtyMask:
    """The per-register dirty mask always equals a scan of the tag bytes."""

    @staticmethod
    def _assert_matches_byte_scan(trf):
        scanned = [
            register
            for register in range(TaintRegisterFile.REGISTER_COUNT)
            if any(trf.get(register))
        ]
        assert 0 not in scanned
        assert trf.tainted_registers() == tuple(scanned)
        assert trf.register_mask() == sum(1 << r for r in scanned)
        for register in range(TaintRegisterFile.REGISTER_COUNT):
            assert trf.is_tainted(register) == (register in scanned)
        assert trf.any_tainted(range(16)) == bool(scanned)
        for low in range(0, 16, 4):
            window = range(low, low + 4)
            assert trf.any_tainted(window) == any(r in scanned for r in window)
        assert not trf.any_tainted(())

    @given(_trf_operations())
    def test_mask_matches_byte_scan_after_every_operation(self, operations):
        trf = TaintRegisterFile()
        self._assert_matches_byte_scan(trf)
        for name, *arguments in operations:
            getattr(trf, name)(*arguments)
            self._assert_matches_byte_scan(trf)

    def test_clear_registers_clears_only_listed(self):
        trf = TaintRegisterFile()
        trf.taint(2)
        trf.set(5, b"\x00\x00\x03")
        trf.clear_registers((5, 7))
        assert trf.tainted_registers() == (2,)
        assert trf.get(5) == bytes(4)