"""repro.trace — the zero-copy columnar trace format and its replay.

The ``.ltrace`` container (ISSUE 8) is the on-disk/wire representation
of the reproduction's traces: versioned, checksummed, mmap-friendly
numpy sections a reader maps once and replays without materialising
per-event python objects.

* :mod:`~repro.trace.format` — the container itself (prologue, aligned
  sections, JSON directory, crc32 integrity, zero-copy reader);
* :mod:`~repro.trace.convert` — access-trace kind: the
  :class:`~repro.workloads.trace.AccessTrace` columns plus an epoch
  index, and the :class:`ColumnarAccessTrace` replay view;
* :mod:`~repro.trace.record` — event-trace kind: a
  :class:`TraceRecorder` observer that captures a CPU's full commit
  stream, and :func:`replay_events` to drive any observer from it;
* :mod:`~repro.trace.shard` — shard planning (epoch-snapped cuts,
  explicit cut lists);
* :mod:`~repro.trace.replay` — the in-process sharded replay: stateless
  :func:`shard_partial` per shard, exact carry-over
  :func:`merge_partials`, and the :func:`replay_columnar` entry point.

The load-bearing invariant, enforced by the format conformance and
shard property test suites and re-proved by ``repro-check``'s
``columnar`` oracle path: a sharded columnar replay is bit-identical
to the scalar object replay, for any shard plan.  ``docs/TRACE.md``
documents the format.
"""

from repro.trace.convert import (
    ACCESS_KIND,
    ColumnarAccessTrace,
    columnar_trace_bytes,
    epoch_starts,
    load_columnar_trace,
    save_columnar_trace,
)
from repro.trace.format import (
    ColumnarFile,
    TRACE_MAGIC,
    TRACE_VERSION,
    to_bytes,
    write_columnar,
)
from repro.trace.record import (
    EVENT_KIND,
    TraceRecorder,
    access_window,
    iter_events,
    replay_events,
)
from repro.trace.replay import (
    ColumnarReplayResult,
    ShardPartial,
    merge_baseline_partials,
    merge_partials,
    publish_trace_metrics,
    replay_columnar,
    shard_partial,
)
from repro.trace.shard import (
    explicit_plan,
    plan_shards,
)

__all__ = [
    "ACCESS_KIND",
    "EVENT_KIND",
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "ColumnarAccessTrace",
    "ColumnarFile",
    "ColumnarReplayResult",
    "ShardPartial",
    "TraceRecorder",
    "access_window",
    "columnar_trace_bytes",
    "epoch_starts",
    "explicit_plan",
    "iter_events",
    "load_columnar_trace",
    "merge_baseline_partials",
    "merge_partials",
    "plan_shards",
    "publish_trace_metrics",
    "replay_columnar",
    "replay_events",
    "save_columnar_trace",
    "shard_partial",
    "to_bytes",
    "write_columnar",
]
