"""Shared pieces of the benchmark: statistics, set-up timing, results."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Set-up runs at least ``SETUP_REPEATS`` times per run, and more (up to
#: ``SETUP_MAX_REPEATS``) until ``SETUP_MIN_SECONDS`` of set-up has been
#: timed, so that a quick set-up is still a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_MIN_SECONDS = 2.0

#: Largest share of a traced pass's wall time that the layer spans may
#: leave uncovered: the benchmark's own work (building CPUs, comparing
#: verdicts) plus loop glue outside any span.
CLOSURE_TOLERANCE = 0.05

clock = time.perf_counter


def tail(samples: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``, or None when there
    are too few samples for such a percentile at or above the median.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * (beyond + 1):
        return None
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its waited-for children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setup(build: Callable[[], object]):
    """Run ``build`` repeatedly; return the last result and the median time.

    ``build`` may return an object with a ``discard()`` method; every
    result but the last is discarded before the next build starts.
    """
    durations: List[float] = []
    built = None
    while len(durations) < SETUP_REPEATS or (
        sum(durations) < SETUP_MIN_SECONDS
        and len(durations) < SETUP_MAX_REPEATS
    ):
        if built is not None and hasattr(built, "discard"):
            built.discard()
        gc.collect()
        started = clock()
        built = build()
        durations.append(clock() - started)
    return built, statistics.median(durations)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (untraced), name -> value.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced run), name -> value.
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Further figures printed for a reader, name -> (value, unit).
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Failed checks by what was checked.
    failures: Counter = field(default_factory=Counter)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] += 1
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def rotated(items: Sequence, by: int) -> List:
    """``items`` rotated left by ``by`` (interleaving order per round)."""
    shift = by % len(items)
    return list(items[shift:]) + list(items[:shift])


def closure_metrics(table, root: str, outcome: Outcome) -> Dict[str, float]:
    """Ledger shares of one traced pass, and the closure check."""
    ledger = table.closure(root)
    wall = table.total_seconds(root)
    harness = sum(v for k, v in ledger.items() if k.startswith("bench."))
    unattributed = ledger.get(root, 0.0)
    layers = sum(ledger.values()) - harness - unattributed
    closed = (
        abs(sum(ledger.values()) - wall) <= 1e-6 * max(wall, 1.0)
        and float(table.self_time.min(initial=0.0)) >= -1e-6
        and harness + unattributed <= CLOSURE_TOLERANCE * wall
    )
    outcome.check(closed, f"span ledger closure under {root}")
    return {
        "ledger.layer_share": layers / wall,
        "ledger.harness_share": harness / wall,
        "ledger.unattributed_share": unattributed / wall,
    }
