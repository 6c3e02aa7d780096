"""``clean-compute`` and ``taint-stream``: program → verdict on the live path.

Each round runs the same program on three fresh machines: bare
(``CPU.run`` alone), under ``SLatchSystem`` and under
``StreamingPipeline`` with ``PipelineConfig.from_env()``. The three run
in lockstep slices of a few thousand instructions, in an order that
rotates every slice, so host drift hits all three alike and the
per-round ratio to the bare run cancels it.

Every monitored verdict is compared with the ``state_signature`` of a
standalone ``DIFTEngine`` run made in set-up, and every simulated
counter with the first run's, which must repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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

#: Clean-loop iterations of ``phased_compute``: about 126k instructions,
#: of which at least 99 % commit in hardware mode under S-LATCH.
CLEAN_ITERATIONS = 10_500
CLEAN_PAYLOAD_BYTES = 16
#: Size of the tainted ``file_filter`` payload (about 24k instructions).
TAINT_PAYLOAD_BYTES = 2048
#: Rounds in each pass of a traced run (untraced, then traced).
TRACE_ROUNDS = 2
#: Instructions each machine commits per turn of a lockstep round.
SLICE_STEPS = 2000
#: Instructions each machine commits in the untimed warm-up.
WARMUP_STEPS = 20_000

KINDS = ("bare", "slatch", "pipeline")


@dataclass
class LocalInputs:
    """One program, its input files and the reference verdict."""

    program: object
    files: Tuple[Tuple[str, bytes, bool], ...]
    steps: int
    signature: object

    def make_cpu(self):
        from repro.machine.cpu import CPU
        from repro.machine.devices import DeviceTable, VirtualFile

        devices = DeviceTable()
        for name, data, tainted in self.files:
            devices.register_file(VirtualFile(name, data, tainted=tainted))
        return CPU(self.program, devices=devices)


def _payload(workload: str, seed: int) -> Tuple[object, Tuple]:
    from repro.workloads import programs

    rng = random.Random(f"{workload}:{seed}")
    if workload == "clean-compute":
        payload = bytes(rng.randrange(256) for _ in range(CLEAN_PAYLOAD_BYTES))
        scenario = programs.phased_compute(payload, CLEAN_ITERATIONS)
        return scenario.program, (("phase.in", payload, True),)
    # Printable text with a lowercase share, so the upper-casing branch
    # of the filter runs on about half of the bytes.
    alphabet = bytes(range(32, 127))
    payload = bytes(rng.choice(alphabet) for _ in range(TAINT_PAYLOAD_BYTES))
    scenario = programs.file_filter(payload)
    return scenario.program, (
        ("input.dat", payload, True),
        ("output.dat", b"", False),
    )


def build_inputs(workload: str, seed: int) -> LocalInputs:
    """Assemble the program and compute its reference verdict."""
    from repro.check.oracle import state_signature
    from repro.dift.engine import DIFTEngine

    program, files = _payload(workload, seed)
    inputs = LocalInputs(program, files, 0, None)
    cpu = inputs.make_cpu()
    engine = DIFTEngine()
    cpu.attach(engine)
    cpu.run()
    if not cpu.halted:
        raise RuntimeError(f"{workload} reference run did not halt")
    inputs.steps = cpu.step_count
    inputs.signature = state_signature(engine)
    return inputs


# ------------------------------------------------------------------ runs


def _start(kind: str, inputs: LocalInputs):
    """A fresh CPU for ``kind`` with its monitor attached."""
    from repro.pipeline import StreamingPipeline
    from repro.pipeline.config import PipelineConfig
    from repro.slatch.controller import SLatchSystem

    cpu = inputs.make_cpu()
    if kind == "bare":
        return cpu, cpu
    if kind == "slatch":
        return cpu, SLatchSystem(cpu)
    return cpu, StreamingPipeline(cpu, config=PipelineConfig.from_env())


def _counts(kind: str, result) -> Tuple[int, ...]:
    if kind == "bare":
        return (result.step_count, int(result.halted))
    if kind == "slatch":
        c = result.counters
        return (c.hw_instructions, c.sw_instructions, c.traps,
                c.false_positives, c.returns, c.reconciled_domains)
    s = result.stats
    return (s.instructions, s.enqueued, s.suppressed, s.sampled_out,
            s.drained, s.queue_full_stalls, s.batches,
            result.gate.stats.suppressed)


class _Checker:
    """Checks each run's verdict and that its counters repeat."""

    def __init__(self, inputs: LocalInputs, outcome: Outcome) -> None:
        self.inputs = inputs
        self.outcome = outcome
        self.first: Dict[str, Tuple[int, ...]] = {}
        #: The monitors of the latest round, for the per-layer counts.
        self.last: Dict[str, object] = {}

    def __call__(self, kind: str, result) -> None:
        from repro.check.oracle import state_signature

        self.last[kind] = result
        counts = _counts(kind, result)
        expected = self.first.setdefault(kind, counts)
        if kind == "bare":
            ok = counts == (self.inputs.steps, 1)
        else:
            ok = (state_signature(result.engine) == self.inputs.signature
                  and counts == expected)
        self.outcome.check(ok, f"{kind} verdict or counters")


def _round(index: int, inputs: LocalInputs, check: _Checker,
           spans=NO_SPANS) -> Dict[str, float]:
    """Run the three machines in lockstep; return each one's wall time.

    The machines advance ``SLICE_STEPS`` instructions at a time, in an
    order that rotates every slice, so a change of host speed lands on
    all three within milliseconds of each other.
    """
    times = dict.fromkeys(KINDS, 0.0)
    machines = {}
    for kind in KINDS:
        started = clock()
        with spans.span(f"bench.op.{kind}"):
            machines[kind] = _start(kind, inputs)
        times[kind] += clock() - started
    turn = index
    while not all(cpu.halted for cpu, _ in machines.values()):
        for kind in rotated(KINDS, turn):
            cpu = machines[kind][0]
            if not cpu.halted:
                started = clock()
                with spans.span(f"bench.op.{kind}"):
                    cpu.run(SLICE_STEPS)
                times[kind] += clock() - started
        turn += 1
    with spans.span("bench.check"):
        for kind in KINDS:
            check(kind, machines[kind][1])
    return times


def _rates(rounds: List[Dict[str, float]], steps: int) -> Dict[str, float]:
    """End-to-end figures from the per-round times (medians over rounds)."""
    figures = {
        "slatch_over_bare": median([r["slatch"] / r["bare"] for r in rounds]),
        "pipeline_over_bare": median([r["pipeline"] / r["bare"] for r in rounds]),
    }
    for kind in KINDS:
        figures[f"{kind}_kinsn_per_s"] = median(
            [steps / r[kind] for r in rounds]
        ) / 1e3
    return figures


# ------------------------------------------------------------- tracing


def layer_targets():
    """The local path's layer functions, as ``(owner, attribute, span)``."""
    from repro.core.latch import LatchModule
    from repro.dift.engine import DIFTEngine
    from repro.machine.cpu import CPU
    from repro.pipeline import StreamingPipeline
    from repro.slatch.controller import SLatchSystem

    return [
        (CPU, "run", "machine.run"),
        (SLatchSystem, "on_step", "slatch.on_step"),
        (LatchModule, "check_step", "core.check_step"),
        (LatchModule, "update_memory_tags", "core.update_memory_tags"),
        (LatchModule, "reconcile_clears", "core.reconcile_clears"),
        (DIFTEngine, "on_step", "dift.on_step"),
        (StreamingPipeline, "flush", "pipeline.flush"),
        (StreamingPipeline, "drain", "pipeline.drain"),
    ]


def _local_layers(table, inputs: LocalInputs, last: Dict[str, object],
                  outcome: Outcome) -> Dict[str, float]:
    per = 1.0 / TRACE_ROUNDS
    slatch = last["slatch"]
    pipeline = last["pipeline"]
    coarse_hits = slatch.counters.traps + slatch.counters.false_positives
    metrics = {
        "machine.steps": float(inputs.steps),
        "machine.self_s": table.self_seconds("machine.run") * per,
        "core.check_step.calls": table.calls("core.check_step") * per,
        "core.check_step.s": table.self_seconds("core.check_step") * per,
        "core.update_memory_tags.s": table.self_seconds("core.update_memory_tags") * per,
        "core.reconcile_clears.s": table.self_seconds("core.reconcile_clears") * per,
        "slatch.self_s": table.self_seconds("slatch.on_step") * per,
        "slatch.hw_instructions": float(slatch.counters.hw_instructions),
        "slatch.sw_instructions": float(slatch.counters.sw_instructions),
        "slatch.traps": float(slatch.counters.traps),
        "slatch.false_positives": float(slatch.counters.false_positives),
        "slatch.fp_ratio": (
            slatch.counters.false_positives / coarse_hits if coarse_hits else 0.0
        ),
        "dift.on_step.calls": table.calls("dift.on_step") * per,
        "dift.on_step.s": table.self_seconds("dift.on_step") * per,
        "pipeline.flush.s": table.self_seconds("pipeline.flush") * per,
        "pipeline.drain.s": table.total_seconds("pipeline.drain") * per,
        "pipeline.admit_ratio": pipeline.stats.enqueued / pipeline.stats.instructions,
        "pipeline.gate.suppressed": float(pipeline.gate.stats.suppressed),
        "pipeline.queue_full_stalls": float(pipeline.stats.queue_full_stalls),
    }
    metrics.update(closure_metrics(table, "pass", outcome))
    return metrics


# ------------------------------------------------------------------ entry


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path=None) -> Outcome:
    """Set up, measure and check one local workload."""
    outcome = Outcome()
    inputs, setup = timed_setup(lambda: build_inputs(workload, seed))
    outcome.end_to_end["setup_s"] = setup
    measure(workload, inputs, seconds, trace, outcome, spans_path)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return outcome


def measure(workload: str, inputs: LocalInputs, seconds: float, trace: bool,
            outcome: Outcome, spans_path=None) -> None:
    """Run the workload's measured region and fill ``outcome``."""
    check = _Checker(inputs, outcome)
    for kind in KINDS:  # warm-up: the first instructions of each machine
        _start(kind, inputs)[0].run(WARMUP_STEPS)
    if not trace:
        rounds: List[Dict[str, float]] = []
        deadline = clock() + seconds
        while len(rounds) < 3 or clock() < deadline:
            rounds.append(_round(len(rounds) + 1, inputs, check))
        figures = _rates(rounds, inputs.steps)
        outcome.end_to_end["main_over_ref"] = figures["slatch_over_bare"]
        outcome.end_to_end["second_over_ref"] = figures["pipeline_over_bare"]
        _report(outcome, figures, len(rounds))
        return

    # Traced run: the same rounds untraced, then traced.
    started = clock()
    rounds = [_round(i + 1, inputs, check) for i in range(TRACE_ROUNDS)]
    untraced = clock() - started
    figures = _rates(rounds, inputs.steps)

    ledger = Ledger()
    with ledger.wrapped(layer_targets()):
        with ledger.span("pass"):
            for i in range(TRACE_ROUNDS):
                ledger.run_id = i + 1
                _round(i + 1, inputs, check, ledger)
    table = ledger.table()
    outcome.per_layer.update(_local_layers(table, inputs, check.last, outcome))
    outcome.per_layer["tracing_overhead"] = table.total_seconds("pass") / untraced
    outcome.per_layer["machine.bare_kinsn_per_s"] = figures["bare_kinsn_per_s"]
    for name in ("slatch_kinsn_per_s", "pipeline_kinsn_per_s",
                 "slatch_over_bare", "pipeline_over_bare"):
        outcome.per_layer[name.replace("_", ".", 1)] = figures[name]
    if spans_path is not None:
        table.dump(spans_path, {"workload": workload, "rounds": TRACE_ROUNDS})


def _report(outcome: Outcome, figures: Dict[str, float], rounds: int) -> None:
    units = {
        "slatch_kinsn_per_s": "kinsn/s", "pipeline_kinsn_per_s": "kinsn/s",
        "slatch_over_bare": "x", "pipeline_over_bare": "x",
        "bare_kinsn_per_s": "kinsn/s",
    }
    for name, unit in units.items():
        outcome.report[name] = (figures[name], unit)
    outcome.report["rounds"] = (float(rounds), "count")
