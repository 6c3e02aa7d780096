"""Streaming pipeline differential tests: decoupled but lossless.

The acceptance bar for ``repro.pipeline``: the streaming path must end
with a final taint state *byte-identical* to an always-on DIFT tracker,
for every scenario, both gating backends, and adversarial queue shapes.
"""

import dataclasses

import pytest

from repro.dift.engine import DIFTEngine
from repro.dift.policy import leak_detection_policy
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.platch.functional import PLatchSystem
from repro.workloads import attacks, programs

SCENARIOS = [
    ("file-filter", lambda: programs.file_filter(), None),
    ("checksum", lambda: programs.checksum(), None),
    ("cipher", lambda: programs.substitution_cipher(), None),
    ("echo", lambda: programs.echo_server(), None),
    ("phased", lambda: programs.phased_compute(), None),
    ("overflow", lambda: attacks.buffer_overflow(hijack=True), None),
    ("overflow-benign", lambda: attacks.buffer_overflow(hijack=False), None),
    ("leak", lambda: attacks.data_leak(leak=True), leak_detection_policy),
]

BACKENDS = ["scalar", "vector"]

#: (queue_capacity, gate_batch) shapes that stress distinct regimes:
#: deep queue + backend-default batching, shallow queue + small batches,
#: and a queue *smaller* than the gate batch (mid-batch drains).
QUEUE_SHAPES = [(256, None), (8, 4), (4, 32)]


def run_reference(build, policy_factory):
    scenario = build()
    cpu = scenario.make_cpu()
    engine = DIFTEngine(policy_factory() if policy_factory else None)
    cpu.attach(engine)
    try:
        cpu.run(300_000)
    except Exception:
        pass
    return engine


def run_pipeline(build, policy_factory=None, **config_kwargs):
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = StreamingPipeline(
        cpu,
        policy=policy_factory() if policy_factory else None,
        config=PipelineConfig(**config_kwargs),
    )
    try:
        cpu.run(300_000)
    except Exception:
        pass
    pipeline.finish()
    return pipeline


def signature(engine):
    return (
        [(alert.kind, alert.pc) for alert in engine.alerts],
        list(engine.shadow.iter_tainted_bytes()),
    )


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_matches_always_on_reference(name, build, policy, backend):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(build, policy, backend=backend)
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy",
    [SCENARIOS[0], SCENARIOS[3], SCENARIOS[5]],
    ids=["file-filter", "echo", "overflow"],
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "queue_capacity,gate_batch", QUEUE_SHAPES,
    ids=[f"q{q}b{b}" for q, b in QUEUE_SHAPES],
)
def test_queue_shapes_stay_lossless(
    name, build, policy, backend, queue_capacity, gate_batch
):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(
        build, policy,
        backend=backend,
        queue_capacity=queue_capacity,
        gate_batch=gate_batch,
    )
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_backends_make_identical_admission_decisions(name, build, policy):
    """Scalar and vector gating agree event-for-event, not just finally."""
    scalar = run_pipeline(build, policy, backend="scalar")
    vector = run_pipeline(build, policy, backend="vector")
    assert scalar.stats.enqueued == vector.stats.enqueued
    assert scalar.stats.suppressed == vector.stats.suppressed
    assert scalar.stats.control_events == vector.stats.control_events
    assert signature(scalar.engine) == signature(vector.engine)


def test_gate_suppresses_the_clean_majority():
    pipeline = run_pipeline(
        lambda: programs.phased_compute(clean_iterations=1500), None
    )
    assert pipeline.stats.enqueue_fraction < 0.4
    assert pipeline.stats.drained == pipeline.stats.enqueued


def test_frozen_index_invalidated_by_coarse_tag_writes():
    """The vector gate's frozen CTT view must not outlive a tag write."""
    pipeline = run_pipeline(lambda: programs.file_filter(), None,
                            backend="vector")
    gate = pipeline.gate
    index = gate._frozen_index()
    assert gate._ctt_index is index
    pipeline.latch.update_memory_tags(0x9000, b"\x01\x01")
    pipeline.gate.invalidate_index()  # what the tag-write hook does
    assert gate._ctt_index is None
    assert gate._frozen_index() is not index


def test_wrapper_is_bit_identical_to_raw_pipeline():
    """PLatchSystem == StreamingPipeline(scalar, gate_batch=1) exactly."""
    build = lambda: programs.echo_server()
    wrapped_cpu = build().make_cpu()
    wrapped = PLatchSystem(wrapped_cpu, queue_capacity=32, drain_batch=8)
    wrapped_cpu.run(300_000)
    wrapped.drain_all()

    pipeline = run_pipeline(
        build, None,
        queue_capacity=32, drain_batch=8, gate_batch=1, backend="scalar",
    )
    assert signature(wrapped.engine) == signature(pipeline.engine)
    assert wrapped.stats.enqueued == pipeline.stats.enqueued
    assert wrapped.stats.queue_full_stalls == pipeline.stats.queue_full_stalls
    counters = wrapped.counters
    assert counters.enqueued == pipeline.stats.enqueued
    assert counters.drained == pipeline.stats.drained


def test_publish_metrics_exposes_pipeline_series():
    pipeline = run_pipeline(lambda: programs.file_filter(), None)
    snapshot = pipeline.snapshot()
    assert snapshot.get("pipeline.instructions") == pipeline.stats.instructions
    assert snapshot.get("pipeline.events.enqueued") == pipeline.stats.enqueued
    assert snapshot.get("pipeline.queue.stalls") == (
        pipeline.stats.queue_full_stalls
    )
    assert snapshot.get("pipeline.enqueue_frac") == pytest.approx(
        pipeline.stats.enqueue_fraction
    )
    # The downstream stages publish into the same registry.
    assert snapshot.get("dift.instructions") == pipeline.stats.drained
    assert "ctc.hit_rate" in snapshot


def test_backend_and_gate_batch_resolve_once_at_construction(monkeypatch):
    """Flipping REPRO_KERNEL_BACKEND mid-run leaves a live pipeline alone."""
    from repro.kernels.backend import BACKEND_ENV_VAR

    def counters(pipeline):
        return (
            dataclasses.asdict(pipeline.stats),
            dataclasses.asdict(pipeline.gate.stats),
            dataclasses.asdict(pipeline.latch.stats),
            signature(pipeline.engine),
        )

    monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
    steady = run_pipeline(programs.phased_compute, backend=None)

    cpu = programs.phased_compute().make_cpu()
    pipeline = StreamingPipeline(cpu, config=PipelineConfig(backend=None))
    assert (pipeline.backend, pipeline.gate_batch) == ("vector", 16)
    flips = 0
    while not cpu.halted:
        cpu.run(500)
        flips += 1
        monkeypatch.setenv(
            BACKEND_ENV_VAR, "scalar" if flips % 2 else "vector"
        )
        assert (pipeline.backend, pipeline.gate_batch) == ("vector", 16)
        assert pipeline.gate.backend == "vector"
    pipeline.finish()
    assert flips > 2
    assert counters(pipeline) == counters(steady)
