"""Per-access reference loops: the executable semantics of the kernels.

One function per batch kernel, with the kernel's exact signature, so a
test can swap it in at the kernel's call site and compare snapshots
byte for byte (``tests/test_kernels_equivalence.py``, the golden tests
and ``tests/golden/regen.py`` do exactly that).  Each loop drives the
real model objects one access at a time — the definition the vector
kernels must reproduce.

Test oracles only: production code never imports this module.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np


def replay_check_memory(latch, addresses, sizes) -> np.ndarray:
    """``latch.check_memory`` per access; the coarse-tainted flags."""
    return np.array(
        [
            latch.check_memory(int(address), int(size)).coarse_tainted
            for address, size in zip(addresses, sizes)
        ],
        dtype=bool,
    )


def replay_taint_cache(tcache, addresses, sizes, writes) -> None:
    """``tcache.access`` per access."""
    for address, size, write in zip(addresses, sizes, writes):
        tcache.access(int(address), size=int(size), write=bool(write))


def replay_hlatch_window(system, addresses, sizes, writes) -> None:
    """``HLatchSystem.access`` per access."""
    for address, size, write in zip(addresses, sizes, writes):
        system.access(int(address), int(size), bool(write))


def segment_epochs(active_flags, gap_before, tainted_flags):
    """Per-access run-length segmentation into ``(lengths, tainted_counts)``."""
    lengths = []
    tainted_counts = []
    previous: Optional[bool] = None
    for index in range(len(active_flags)):
        flag = bool(active_flags[index])
        if flag != previous:
            lengths.append(0)
            tainted_counts.append(0)
            previous = flag
        lengths[-1] += 1 + int(gap_before[index])
        tainted_counts[-1] += int(bool(tainted_flags[index]))
    return (
        np.array(lengths, dtype=np.int64),
        np.array(tainted_counts, dtype=np.int64),
    )


def domains_from_extents(
    extents: Sequence[Tuple[int, int]], domain_size: int
) -> np.ndarray:
    """Sorted unique domain indices overlapping any ``(start, length)``."""
    indices: Set[int] = set()
    for start, length in extents:
        first = start // domain_size
        last = (start + length - 1) // domain_size
        indices.update(range(first, last + 1))
    return np.fromiter(sorted(indices), dtype=np.int64, count=len(indices))


def duration_profile(
    free_lengths: np.ndarray,
    total_instructions: int,
    thresholds: Sequence[int],
) -> Dict[int, float]:
    """One masked sum per threshold, as a percentage of all instructions."""
    free_lengths = np.asarray(free_lengths, dtype=np.int64)
    return {
        threshold: float(
            free_lengths[free_lengths >= threshold].sum()
            / total_instructions * 100.0
        )
        for threshold in thresholds
    }
