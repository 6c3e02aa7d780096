"""``trace-replay``: the gcc-profile access trace through ``replay_columnar``.

Set-up generates a seeded gcc-profile access window, writes it as an
``.ltrace`` container under ``perfbench/out/``, and keeps the window's
arrays in memory. Each measured round then replays the window three
times:

* ``replay_columnar`` with its default single shard opens the container
  cold (a new handle, with its checksum check), loads the taint layout,
  and replays with the conventional-cache baseline, as a user of the
  format would (``main_over_ref``);
* the same with two shards (``second_over_ref``), the smallest split,
  which says whether sharding pays for its partial/merge work;
* the reference replays the in-memory arrays with the vector kernels
  (``replay_hlatch_window`` and ``replay_taint_cache``) on a freshly
  loaded ``HLatchSystem``.

The order rotates from round to round. The H-LATCH reports, baseline
miss counts and CTC hits of all three must be equal, and so repeat
exactly. No instruction is emulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    Outcome,
    clock,
    closure_metrics,
    median,
    peak_rss_mb,
    rotated,
    timed_setup,
)
from ledger import NO_SPANS, Ledger

HERE = Path(__file__).resolve().parent
PROFILE = "gcc"
#: Instructions of the generated window: about 525k memory accesses.
WINDOW_INSTRUCTIONS = 1_500_000
#: Rounds in each pass of a traced run (untraced, then traced).
TRACE_ROUNDS = 2
KINDS = ("columnar", "sharded", "vector")


@dataclass
class ReplayInputs:
    path: Path
    trace: object
    #: ``(H-LATCH report, baseline misses, CTC hits)`` of the reference.
    expected: Tuple[object, int, int]


def build_inputs(seed: int) -> ReplayInputs:
    from repro.trace import save_columnar_trace
    from repro.workloads import get_profile
    from repro.workloads.generator import WorkloadGenerator

    trace = WorkloadGenerator(get_profile(PROFILE), seed=seed).access_trace(
        WINDOW_INSTRUCTIONS
    )
    path = HERE / "out" / f"{PROFILE}-seed{seed}.ltrace"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_columnar_trace(trace, path)
    return ReplayInputs(path, trace, _vector(trace))


def _columnar(path: Path, shards: int) -> Tuple[object, int, int]:
    import repro.trace

    result = repro.trace.replay_columnar(path, shards=shards)
    return (result.hlatch, result.baseline.misses,
            result.system.latch.ctc.stats.hits)


def _vector(trace) -> Tuple[object, int, int]:
    from repro import kernels
    from repro.hlatch.system import HLatchSystem
    from repro.hlatch.taint_cache import (
        CONVENTIONAL_TAINT_CACHE,
        PreciseTaintCache,
    )
    from repro.kernels.replay import replay_taint_cache

    system = HLatchSystem()
    system.load_taint(trace.layout)
    kernels.replay_hlatch_window(
        system, trace.addresses, trace.sizes, trace.is_write
    )
    cache = PreciseTaintCache(CONVENTIONAL_TAINT_CACHE)
    replay_taint_cache(cache, trace.addresses, trace.sizes, trace.is_write)
    return (system.report(trace.name), cache.stats.misses,
            system.latch.ctc.stats.hits)


def _round(index: int, inputs: ReplayInputs, outcome: Outcome,
           spans=NO_SPANS) -> Dict[str, float]:
    times: Dict[str, float] = {}
    for kind in rotated(KINDS, index):
        started = clock()
        with spans.span(f"bench.op.{kind}"):
            if kind == "vector":
                result = _vector(inputs.trace)
            else:
                result = _columnar(inputs.path, 1 if kind == "columnar" else 2)
        times[kind] = clock() - started
        outcome.check(result == inputs.expected, f"{kind} replay report")
    return times


def layer_targets():
    import repro.trace
    from repro import kernels
    from repro.hlatch.system import HLatchSystem
    from repro.kernels import replay as kernel_replay
    from repro.trace import format as trace_format
    from repro.trace import replay as trace_replay

    return [
        (repro.trace, "replay_columnar", "trace.replay_columnar"),
        (trace_format.ColumnarFile, "__init__", "trace.open"),
        (HLatchSystem, "load_taint", "trace.load_taint"),
        (trace_replay, "shard_partial", "trace.shard_partial"),
        (trace_replay, "merge_partials", "trace.merge_partials"),
        (trace_replay, "merge_baseline_partials", "trace.merge_baseline"),
        (kernels, "replay_hlatch_window", "kernels.replay_hlatch_window"),
        (kernel_replay, "replay_taint_cache", "kernels.replay_taint_cache"),
    ]


def _figures(rounds: List[Dict[str, float]], accesses: int) -> Dict[str, float]:
    figures = {
        "main_over_ref": median([r["columnar"] / r["vector"] for r in rounds]),
        "second_over_ref": median([r["sharded"] / r["vector"] for r in rounds]),
    }
    for kind in KINDS:
        figures[f"{kind}_maccess_per_s"] = median(
            [accesses / r[kind] for r in rounds]
        ) / 1e6
    return figures


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path=None) -> Outcome:
    """Set up, measure and check the replay workload."""
    outcome = Outcome()
    inputs, setup = timed_setup(lambda: build_inputs(seed))
    outcome.end_to_end["setup_s"] = setup
    accesses = inputs.trace.access_count
    _round(0, inputs, outcome)  # warm-up, checked but not timed

    if not trace:
        rounds: List[Dict[str, float]] = []
        deadline = clock() + seconds
        while len(rounds) < 3 or clock() < deadline:
            rounds.append(_round(len(rounds) + 1, inputs, outcome))
        figures = _figures(rounds, accesses)
        for name in ("main_over_ref", "second_over_ref"):
            outcome.end_to_end[name] = figures[name]
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
        for kind in KINDS:
            name = f"{kind}_maccess_per_s"
            outcome.report[name] = (figures[name], "Maccess/s")
        outcome.report["accesses"] = (float(accesses), "count")
        outcome.report["rounds"] = (float(len(rounds)), "count")
        return outcome

    started = clock()
    rounds = [_round(i + 1, inputs, outcome) for i in range(TRACE_ROUNDS)]
    untraced = clock() - started
    figures = _figures(rounds, accesses)
    ledger = Ledger()
    with ledger.wrapped(layer_targets()):
        with ledger.span("pass"):
            for i in range(TRACE_ROUNDS):
                ledger.run_id = i + 1
                _round(i + 1, inputs, outcome, ledger)
    table = ledger.table()
    columnar = table.under("bench.op.columnar")
    vector = table.under("bench.op.vector")
    per = 1.0 / TRACE_ROUNDS
    report, baseline_misses, ctc_hits = inputs.expected
    layers = {
        "trace.open.s": table.total_seconds("trace.open", columnar) * per,
        "trace.load_taint.s": table.total_seconds("trace.load_taint", columnar) * per,
        "trace.shard_partial.s": table.total_seconds("trace.shard_partial", columnar) * per,
        "trace.merge_partials.s": table.total_seconds("trace.merge_partials", columnar) * per,
        "trace.merge_baseline.s": table.total_seconds("trace.merge_baseline", columnar) * per,
        "trace.replay_columnar.self_s":
            table.self_seconds("trace.replay_columnar", columnar) * per,
        "trace.replay_maccess_per_s": figures["columnar_maccess_per_s"],
        "trace.sharded_maccess_per_s": figures["sharded_maccess_per_s"],
        "kernels.replay_hlatch_window.s":
            table.total_seconds("kernels.replay_hlatch_window") * per,
        "kernels.replay_taint_cache.s": table.total_seconds(
            "kernels.replay_taint_cache",
            vector & ~table.under("kernels.replay_hlatch_window"),
        ) * per,
        "kernels.vector_maccess_per_s": figures["vector_maccess_per_s"],
        "hlatch.accesses": float(report.accesses),
        "hlatch.tcache_misses": float(report.tcache_misses),
        "hlatch.ctc_hits": float(ctc_hits),
        "hlatch.ctc_misses": float(report.ctc_misses),
        "hlatch.sent_to_precise": float(report.sent_to_precise),
        "hlatch.baseline_misses": float(baseline_misses),
        "tracing_overhead": table.total_seconds("pass") / untraced,
    }
    layers.update(closure_metrics(table, "pass", outcome))
    outcome.per_layer.update(layers)
    if spans_path is not None:
        table.dump(spans_path, {"workload": workload, "rounds": TRACE_ROUNDS})
    return outcome
