"""Coarse Taint Table tests."""

from hypothesis import example, given, strategies as st

from repro.core.ctt import CoarseTaintTable
from repro.core.domains import DomainGeometry


def make_table(domain_size=64):
    return CoarseTaintTable(DomainGeometry(domain_size=domain_size))


class TestBits:
    def test_initially_clean(self):
        table = make_table()
        assert not table.is_domain_tainted(0x1234)
        assert table.tainted_domain_count() == 0

    def test_set_and_clear(self):
        table = make_table()
        assert table.set_domain(0x100)
        assert table.is_domain_tainted(0x100)
        assert table.is_domain_tainted(0x13F)  # same 64 B domain
        assert not table.is_domain_tainted(0x140)
        assert table.clear_domain(0x100)
        assert not table.is_domain_tainted(0x100)

    def test_idempotent_returns(self):
        table = make_table()
        assert table.set_domain(0)
        assert not table.set_domain(0)
        assert table.clear_domain(0)
        assert not table.clear_domain(0)

    def test_zero_words_elided(self):
        table = make_table()
        table.set_domain(0x100)
        table.clear_domain(0x100)
        assert table.tainted_words() == set()

    def test_any_domain_tainted_over_range(self):
        table = make_table()
        table.set_domain(0x80)
        assert table.any_domain_tainted(0x40, 0x100)
        assert not table.any_domain_tainted(0x100, 0x40)
        assert table.any_domain_tainted(0x7F, 2)  # straddles into domain

    def test_any_domain_tainted_on_empty_table(self):
        table = make_table()
        assert not table.any_domain_tainted(0, 0)
        assert not table.any_domain_tainted(0xFFFFFFF0, 0x40)

    def test_any_domain_tainted_wraps_past_top(self):
        table = make_table()
        table.set_domain(0)
        assert table.any_domain_tainted(0xFFFFFFF0, 0x20)
        assert not table.any_domain_tainted(0xFFFFFFF0, 0x10)

    def test_word_value(self):
        table = make_table()
        table.set_domain(0)       # bit 0 of word 0
        table.set_domain(64 * 5)  # bit 5
        assert table.word(0) == 0b100001
        assert table.word(1) == 0

    def test_set_word(self):
        table = make_table()
        table.set_word(2, 0xF)
        assert table.is_domain_tainted(2 * 2048)
        table.set_word(2, 0)
        assert not table.is_domain_tainted(2 * 2048)

    def test_iter_tainted_domains(self):
        table = make_table()
        table.set_domain(64 * 40)
        table.set_domain(0)
        assert list(table.iter_tainted_domains()) == [0, 40]

    def test_clear_all(self):
        table = make_table()
        table.set_domain(0)
        table.clear_all()
        assert table.tainted_domain_count() == 0


class TestPageSummaries:
    def test_page_word_or(self):
        table = make_table()
        table.set_domain(0x0800)  # second half of page 0
        assert table.page_word_or(0) != 0
        assert table.page_word_or(1) == 0

    def test_page_taint_bits_per_word(self):
        table = make_table()
        table.set_domain(0x0000)  # page 0, page-domain 0
        table.set_domain(0x1800)  # page 1, page-domain 1
        assert table.page_taint_bits(0) == 0b01
        assert table.page_taint_bits(1) == 0b10
        assert table.page_taint_bits(2) == 0


_MASK32 = 0xFFFFFFFF


@given(
    domain_size=st.sampled_from([1, 8, 32, 64, 128]),
    address=st.one_of(
        st.integers(0, _MASK32),
        st.integers(0, _MASK32 >> 7).map(lambda line: line << 7),
        st.integers(_MASK32 - 600, _MASK32),
    ),
    length=st.one_of(
        st.sampled_from([0, 1]), st.integers(2, 8), st.integers(9, 600)
    ),
    words=st.lists(
        st.tuples(
            st.integers(-3, 3),
            # Mostly sparse words, so a single missed or misplaced
            # domain bit changes the verdict.
            st.one_of(
                st.integers(0, 31).map(lambda bit: 1 << bit),
                st.integers(0, _MASK32),
            ),
        ),
        max_size=6,
    ),
    far_word=st.one_of(st.none(), st.integers(0, 1 << 27)),
)
@example(
    domain_size=64, address=_MASK32 - 3, length=8,
    words=[(1, 1)], far_word=None,
)
@example(
    domain_size=64, address=0x1000, length=0, words=[(0, 1)], far_word=None,
)
def test_any_domain_tainted_matches_domain_walk(
    domain_size, address, length, words, far_word
):
    """The direct word probe equals a walk of ``is_domain_tainted``.

    Words are placed around the queried address (offsets wrap past the
    last CTT word, so ranges crossing 0xFFFFFFFF meet set bits), plus
    one optional word anywhere; an empty ``words`` list with no far
    word is the empty table.
    """
    table = make_table(domain_size)
    geometry = table.geometry
    total_words = geometry.total_words
    home = geometry.word_index(address)
    for delta, value in words:
        table.set_word((home + delta) % total_words, value)
    if far_word is not None:
        table.set_word(far_word % total_words, 0x80000001)
    expected = any(
        table.is_domain_tainted(base)
        for base in geometry.domain_bases_in_range(address, max(length, 1))
    )
    assert table.any_domain_tainted(address, length) == expected
