"""Shard planning for columnar replay.

A *shard plan* is a list of half-open ``(start, stop)`` access ranges
covering a trace window.  Because the merge algebra in
:mod:`repro.trace.replay` is exact for **any** split (see
:class:`~repro.kernels.lru.LruState`), correctness never depends on
where the cuts land; the planner still snaps cuts to epoch starts when
the trace carries an epoch index, so each shard keeps whole locality
phases and the run compression inside it stays as effective as in an
unsplit replay.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def plan_shards(
    n: int,
    shards: int,
    epoch_starts: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int]]:
    """Split ``n`` accesses into at most ``shards`` contiguous ranges.

    Ideal cut points are the even ``n / shards`` grid; when
    ``epoch_starts`` is given each cut snaps to the nearest epoch start,
    so shards hold whole epochs.  Snapping can merge neighbouring cuts
    (traces with few epochs yield fewer shards); the ranges always
    partition ``[0, n)`` exactly and are never empty.
    """
    if n < 0:
        raise ValueError(f"negative window length {n}")
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    if n == 0:
        return []
    shards = min(shards, n)
    ideal = [round(i * n / shards) for i in range(1, shards)]
    if epoch_starts is not None and len(epoch_starts) > 0:
        snaps = np.asarray(epoch_starts, dtype=np.int64)
        snaps = snaps[(snaps > 0) & (snaps < n)]
        if len(snaps):
            positions = np.searchsorted(snaps, ideal)
            cuts = []
            for target, position in zip(ideal, positions):
                lower = snaps[position - 1] if position > 0 else None
                upper = snaps[position] if position < len(snaps) else None
                if lower is None:
                    best = upper
                elif upper is None:
                    best = lower
                else:
                    best = lower if target - lower <= upper - target else upper
                cuts.append(int(best))
        else:
            cuts = []
    else:
        cuts = [int(c) for c in ideal]
    boundaries = [0]
    for cut in cuts:
        if boundaries[-1] < cut < n:
            boundaries.append(cut)
    boundaries.append(n)
    return [
        (boundaries[i], boundaries[i + 1])
        for i in range(len(boundaries) - 1)
    ]


def explicit_plan(n: int, cuts: Sequence[int]) -> List[Tuple[int, int]]:
    """A shard plan from explicit cut points (property-test helper).

    ``cuts`` may be unsorted, contain duplicates, 0, or ``n``; the
    result partitions ``[0, n)`` with a boundary at every in-range cut.
    """
    boundaries = sorted({c for c in cuts if 0 < c < n})
    edges = [0] + boundaries + [n]
    if n == 0:
        return []
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
