"""Micro-benchmark: object-path vs vector vs zero-copy columnar replay.

Three end-to-end replays of the same window, each measuring everything
a consumer of that path would pay:

* ``test_bench_object_replay`` — the per-event python-object path:
  :meth:`AccessTrace.iter_accesses` materialises a tuple per access and
  the H-LATCH stack is driven one ``system.access`` call at a time.
  This is the watchdog's ``--normalize-by`` reference entry.
* ``test_bench_vector_npz`` — the in-memory vector path: the window's
  numpy arrays (as cached from the ``.npz`` trace cache) are handed to
  :func:`replay_hlatch_window` in one call.
* ``test_bench_columnar_sharded`` — the ``.ltrace`` path: open the
  mmapped container, replay it as one shard, and merge — i.e.
  :func:`repro.trace.replay_columnar` from a cold file handle.  (The
  name predates the single in-process path; it is kept so the
  committed baseline and the watchdog stay valid.)

The H-LATCH stack is constructed and bulk-loaded in each round's setup
for the first two (that cost is identical across backends); the
columnar path builds its own systems from the trace's taint-layout
section, which *is* part of what it must amortise, so it stays inside
the measured region.

Run standalone (the CI job uploads the JSON as ``BENCH_trace.json``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_trace.py -q \
        --benchmark-json=BENCH_trace.json

``test_columnar_speedup_floor`` asserts two bounds on the columnar
path's best-of time: ≥ 10x over the object path end-to-end, which holds
with wide margin (the kernels alone measure ~19x over a plain scalar
loop, and the object path additionally pays tuple materialisation),
and ≤ 1.5x the vector path — the best non-columnar replay — so opening
the container, loading the taint layout and the shard/merge seam never
cost more than half again the bare kernels.
"""

from __future__ import annotations

import time

import conftest
from conftest import access_trace_for, emit
from repro.hlatch.system import HLatchSystem
from repro.kernels import replay_hlatch_window
from repro.trace import replay_columnar, save_columnar_trace

WORKLOAD = "gcc"
MIN_SPEEDUP = 10.0
#: Columnar best-of time over the vector path's best-of time.
MAX_OVER_VECTOR = 1.5
SHARDS = 1


def _fresh_system(trace) -> HLatchSystem:
    system = HLatchSystem()
    system.load_taint(trace.layout)
    return system


def _object_replay(system, trace) -> None:
    for address, size, is_write, _tainted, _gap in trace.iter_accesses():
        system.access(address, size, is_write)


def _vector_replay(system, trace) -> None:
    replay_hlatch_window(system, trace.addresses, trace.sizes, trace.is_write)


def _columnar_replay(path) -> None:
    replay_columnar(path, baseline_config=None, shards=SHARDS)


def _ltrace_path():
    """The window as a committed-format ``.ltrace``, cached on disk."""
    path = conftest._CACHE_DIR / f"{WORKLOAD}_w{conftest.TRACE_WINDOW}.ltrace"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        save_columnar_trace(access_trace_for(WORKLOAD), path)
    return path


def test_bench_object_replay(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _object_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=3,
    )


def test_bench_vector_npz(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _vector_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=5,
    )


def test_bench_columnar_sharded(benchmark):
    path = _ltrace_path()
    benchmark.pedantic(_columnar_replay, args=(path,), rounds=5)


def test_columnar_speedup_floor():
    """Columnar replay ≥ 10x the object path and ≤ 1.5x the vector path."""
    trace = access_trace_for(WORKLOAD)
    path = _ltrace_path()

    def best_of(run, rounds: int) -> float:
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    def object_round():
        _object_replay(_fresh_system(trace), trace)

    def vector_round():
        _vector_replay(_fresh_system(trace), trace)

    objected = best_of(object_round, 3)
    # Both sides pay for building and bulk-loading their H-LATCH
    # system, as the object path does above: the columnar path loads
    # the taint layout from the container inside its own timed region.
    vectored = best_of(vector_round, 5)
    columnar = best_of(lambda: _columnar_replay(path), 5)
    speedup = objected / columnar
    over_vector = columnar / vectored
    emit(
        "BENCH_trace_speedup",
        f"end-to-end replay ({WORKLOAD}, {trace.access_count} accesses, "
        f"{SHARDS} shard): object {objected * 1e3:.1f} ms, "
        f"vector {vectored * 1e3:.1f} ms, "
        f"columnar {columnar * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x), "
        f"columnar/vector {over_vector:.2f}x (ceiling {MAX_OVER_VECTOR}x)",
    )
    assert speedup >= MIN_SPEEDUP
    assert over_vector <= MAX_OVER_VECTOR
