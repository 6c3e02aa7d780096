"""Taint tag storage: shadow memory and the taint register file.

Shadow memory keeps one tag byte per program byte (0 = clean, non-zero =
tainted; the tag value can carry a source colour).  Storage is sparse —
pages of shadow tags are allocated only when a byte in the page is first
tainted — so fully clean programs cost nothing, mirroring how libdft's
tagmap behaves in practice.

The taint register file (TRF) holds one tag per register byte (4 tags per
32-bit register), matching the byte-level register taint the paper's TRF
stores (Figure 7, component B).  It also keeps a 16-bit per-register dirty
mask: this is the hardware TRF's "any taint" wire, the OR of each
register's tag bits that the coarse check tests in one step, so a clean
register file costs the check nothing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

_PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_OFFSET_MASK = _PAGE_SIZE - 1
_MASK32 = 0xFFFFFFFF
_CLEAN_REGISTER = bytes(4)


class ShadowMemory:
    """Sparse byte-granular taint tags for a 32-bit address space."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._tainted_byte_count = 0

    # ------------------------------------------------------------- queries

    def get(self, address: int) -> int:
        """Tag of the byte at ``address`` (0 if clean)."""
        page = self._pages.get((address & _MASK32) >> _PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & _OFFSET_MASK]

    def get_range(self, address: int, length: int) -> bytes:
        """Tags of ``length`` bytes starting at ``address`` (in-page: a slice)."""
        address &= _MASK32
        offset = address & _OFFSET_MASK
        if 0 < length <= _PAGE_SIZE - offset:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        return bytes(self.get((address + i) & _MASK32) for i in range(length))

    def any_tainted(self, address: int, length: int) -> bool:
        """True if any byte in [address, address+length) is tainted."""
        return any(self.get_range(address, length))

    def all_tainted(self, address: int, length: int) -> bool:
        """True if every byte in the range is tainted."""
        return all(self.get_range(address, length))

    @property
    def tainted_byte_count(self) -> int:
        """Number of currently tainted bytes."""
        return self._tainted_byte_count

    def tainted_pages(self) -> Set[int]:
        """Page numbers containing at least one tainted byte."""
        return {
            number
            for number, page in self._pages.items()
            if any(page)
        }

    def iter_tainted_bytes(self) -> Iterator[int]:
        """Yield the address of every tainted byte (ascending)."""
        for number in sorted(self._pages):
            page = self._pages[number]
            base = number << _PAGE_SHIFT
            for offset, tag in enumerate(page):
                if tag:
                    yield base + offset

    def region_clean(self, address: int, length: int) -> bool:
        """True if no byte in the region is tainted (alias for clarity)."""
        return not self.any_tainted(address, length)

    def iter_tainted_domains(self, domain_size: int) -> Iterator[int]:
        """Yield the base address of every ``domain_size``-aligned region
        containing at least one tainted byte (ascending; bulk scan)."""
        yield from self.tainted_domain_bases(domain_size).tolist()

    def tainted_domain_bases(self, domain_size: int) -> "np.ndarray":
        """Vectorised twin of :meth:`iter_tainted_domains`.

        Returns the same base addresses as one ascending int64 array; the
        per-page scan reduces a (domains, domain_size) view instead of
        slicing python bytearrays, which is what makes bulk-loading a
        LATCH module from a large shadow cheap (the columnar replay path
        pays this on every open).
        """
        import numpy as np

        if domain_size < 1 or _PAGE_SIZE % domain_size:
            raise ValueError("domain_size must divide the page size")
        per_page = _PAGE_SIZE // domain_size
        chunks = []
        for number in sorted(self._pages):
            tags = np.frombuffer(self._pages[number], dtype=np.uint8)
            hits = tags.reshape(per_page, domain_size).any(axis=1)
            if hits.any():
                base = np.int64(number << _PAGE_SHIFT)
                chunks.append(
                    base + np.flatnonzero(hits).astype(np.int64) * domain_size
                )
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------ mutation

    def set(self, address: int, tag: int) -> None:
        """Set the tag of one byte to ``tag & 0xFF``; 0 clears."""
        self.set_range(address, 1, tag)

    def set_range(self, address: int, length: int, tag: int) -> None:
        """Set every byte in the range to ``tag`` (bulk, per-page)."""
        if length <= 0:
            return
        tag &= 0xFF
        address &= _MASK32
        remaining = length
        cursor = address
        while remaining:
            number = cursor >> _PAGE_SHIFT
            offset = cursor & _OFFSET_MASK
            chunk = min(remaining, _PAGE_SIZE - offset)
            page = self._pages.get(number)
            if page is None:
                if tag:
                    page = bytearray(_PAGE_SIZE)
                    self._pages[number] = page
                    page[offset : offset + chunk] = bytes([tag]) * chunk
                    self._tainted_byte_count += chunk
            else:
                old = page[offset : offset + chunk]
                old_tainted = chunk - old.count(0)
                page[offset : offset + chunk] = bytes([tag]) * chunk
                new_tainted = chunk if tag else 0
                self._tainted_byte_count += new_tainted - old_tainted
            cursor = (cursor + chunk) & _MASK32
            remaining -= chunk

    def set_tags(self, address: int, tags: bytes) -> None:
        """Copy a vector of tags starting at ``address`` (in-page: a slice)."""
        address &= _MASK32
        offset = address & _OFFSET_MASK
        length = len(tags)
        if length <= _PAGE_SIZE - offset:
            number = address >> _PAGE_SHIFT
            page = self._pages.get(number)
            new_tainted = length - tags.count(0)
            if page is None:
                if not new_tainted:
                    return
                page = self._pages[number] = bytearray(_PAGE_SIZE)
            old_tainted = length - page.count(0, offset, offset + length)
            page[offset : offset + length] = tags
            self._tainted_byte_count += new_tainted - old_tainted
            return
        for offset, tag in enumerate(tags):
            self.set((address + offset) & _MASK32, tag)

    def clear_range(self, address: int, length: int) -> None:
        """Remove taint from the range."""
        self.set_range(address, length, 0)

    def clear_all(self) -> None:
        """Remove all taint."""
        self._pages.clear()
        self._tainted_byte_count = 0


class TaintRegisterFile:
    """Byte-level taint for the 16 architectural registers.

    Each register carries four tag bytes.  The aggregate per-register
    bitmask view (:meth:`mask`, :meth:`load_mask`) supports the ``strf``
    instruction, which reloads the hardware TRF from a register bitmask
    after a software-DIFT epoch (Table 5 of the paper).

    Alongside the tag bytes the TRF keeps an integer dirty mask, bit *r*
    set iff some tag byte of register *r* is non-zero.  Every mutator
    keeps it exact, so the register queries are single mask tests and a
    fully clean TRF answers :meth:`any_tainted` without looking at any
    register.
    """

    REGISTER_COUNT = 16
    BYTES_PER_REGISTER = 4

    def __init__(self) -> None:
        self._tags: List[bytearray] = [
            bytearray(self.BYTES_PER_REGISTER) for _ in range(self.REGISTER_COUNT)
        ]
        self._dirty = 0

    def get(self, register: int) -> bytes:
        """The four tag bytes of ``register``."""
        if self._dirty >> register & 1:
            return bytes(self._tags[register])
        return _CLEAN_REGISTER

    def set(self, register: int, tags: bytes) -> None:
        """Replace the tag bytes of ``register``."""
        if register == 0:
            return  # r0 is hard-wired zero and can never be tainted
        padded = bytes(tags[: self.BYTES_PER_REGISTER]).ljust(
            self.BYTES_PER_REGISTER, b"\x00"
        )
        self._tags[register][:] = padded
        if padded == _CLEAN_REGISTER:
            self._dirty &= ~(1 << register)
        else:
            self._dirty |= 1 << register

    def taint(self, register: int, tag: int = 1) -> None:
        """Taint every byte of ``register`` with ``tag``."""
        self.set(register, bytes([tag]) * self.BYTES_PER_REGISTER)

    def clear(self, register: int) -> None:
        """Remove taint from ``register``."""
        if self._dirty >> register & 1:
            self._tags[register][:] = _CLEAN_REGISTER
            self._dirty &= ~(1 << register)

    def copy(self, register: int, source: int) -> bool:
        """Give ``register`` the tags of ``source``; True if they are tainted."""
        if self._dirty >> source & 1:
            if register:
                self._tags[register][:] = self._tags[source]
                self._dirty |= 1 << register
            return True
        self.clear(register)
        return False

    def merge(self, register: int, first: int, second: int) -> bool:
        """Give ``register`` the byte-wise union of two sources' tags; True
        if either is tainted.  Only two tainted sources pay for a union."""
        dirty = self._dirty
        if not dirty >> second & 1 or first == second:
            return self.copy(register, first)
        if not dirty >> first & 1:
            return self.copy(register, second)
        if register:
            tags = self._tags
            tags[register][:] = bytes(map(max, tags[first], tags[second]))
            self._dirty = dirty | 1 << register
        return True

    def clear_registers(self, registers) -> None:
        """Remove taint from each of ``registers``.

        Only registers whose dirty bit is set are touched, so on a clean
        TRF this is one test and no work.
        """
        if self._dirty:
            for register in registers:
                self.clear(register)

    def is_tainted(self, register: int) -> bool:
        """True if any byte of ``register`` is tainted."""
        return bool(self._dirty >> register & 1)

    def any_tainted(self, registers) -> bool:
        """True if any of ``registers`` carries taint."""
        dirty = self._dirty
        if not dirty:
            return False
        for register in registers:
            if dirty >> register & 1:
                return True
        return False

    def union(self, *registers: int) -> bytes:
        """Byte-wise union (max) of the tags of several registers."""
        out = bytearray(self.BYTES_PER_REGISTER)
        for register in registers:
            for index, tag in enumerate(self._tags[register]):
                out[index] = max(out[index], tag)
        return bytes(out)

    def mask(self) -> int:
        """Pack the TRF into a bitmask: bit (4*reg + byte) = tainted."""
        value = 0
        for register in self.tainted_registers():
            for byte_index in range(self.BYTES_PER_REGISTER):
                if self._tags[register][byte_index]:
                    value |= 1 << (register * self.BYTES_PER_REGISTER + byte_index)
        return value

    def load_mask(self, mask: int, tag: int = 1) -> None:
        """Reload the TRF from a bitmask (the ``strf`` semantics)."""
        dirty = 0
        for register in range(1, self.REGISTER_COUNT):
            tags = self._tags[register]
            for byte_index in range(self.BYTES_PER_REGISTER):
                bit = 1 << (register * self.BYTES_PER_REGISTER + byte_index)
                tags[byte_index] = tag if (mask & bit) else 0
            if tags != _CLEAN_REGISTER:
                dirty |= 1 << register
        self._tags[0][:] = _CLEAN_REGISTER
        self._dirty = dirty

    def register_mask(self) -> int:
        """Pack the TRF into a 16-bit mask: bit r = register r tainted.

        This is the coarse view a 32-bit ``strf`` operand can carry; the
        byte-precise :meth:`mask` needs 64 bits and is used internally.
        """
        return self._dirty

    def load_register_mask(self, mask: int, tag: int = 1) -> None:
        """Reload the TRF from a per-register bitmask (``strf`` semantics)."""
        filled = bytes([tag]) * self.BYTES_PER_REGISTER
        dirty = 0
        for register in range(1, self.REGISTER_COUNT):
            if mask >> register & 1:
                self._tags[register][:] = filled
                if tag:
                    dirty |= 1 << register
            elif self._dirty >> register & 1:
                self._tags[register][:] = _CLEAN_REGISTER
        self._dirty = dirty

    def clear_all(self) -> None:
        """Remove taint from every register."""
        self.clear_registers(range(self.REGISTER_COUNT))

    def tainted_registers(self) -> Tuple[int, ...]:
        """Registers carrying any taint."""
        dirty = self._dirty
        return tuple(
            register
            for register in range(self.REGISTER_COUNT)
            if dirty >> register & 1
        )
