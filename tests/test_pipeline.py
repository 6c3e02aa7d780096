"""Streaming pipeline differential tests: decoupled but lossless.

The acceptance bar for ``repro.pipeline``: the streaming path must end
with a final taint state *byte-identical* to an always-on DIFT tracker,
for every scenario and adversarial queue shapes.  Each case runs under
the production gate (``vector``) and under the test-only ``check_step``
gate of ``tests/gate_reference.py`` (``scalar``), and the two must make
the same admission decisions.
"""

import dataclasses

import pytest

from repro.check.generator import generate_program
from repro.check.oracle import state_signature
from repro.dift.engine import DIFTEngine
from repro.dift.policy import leak_detection_policy
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.machine.cpu import CPU
from repro.machine.devices import DeviceTable, VirtualFile
from repro.machine.events import InputEvent, MemoryAccess, StepEvent
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.pipeline.gate import LatchGate
from repro.platch.functional import PLatchSystem
from repro.workloads import attacks, programs
from tests.gate_reference import GATES, with_gate

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

#: (queue_capacity, gate_batch) shapes that stress distinct regimes:
#: deep queue + default batching (``None``), shallow queue + small
#: batches, and a queue *smaller* than the gate batch (mid-batch drains).
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


def run_pipeline(build, policy_factory=None, latch_config=None,
                 gate="vector", **config_kwargs):
    """Run a scenario under ``gate``; ``None`` knobs keep the default."""
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = with_gate(StreamingPipeline(
        cpu,
        policy=policy_factory() if policy_factory else None,
        latch_config=latch_config,
        config=PipelineConfig(**{
            key: value for key, value in config_kwargs.items()
            if value is not None
        }),
    ), gate)
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
@pytest.mark.parametrize("backend", GATES)
def test_streaming_matches_always_on_reference(name, build, policy, backend):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(build, policy, gate=backend)
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy",
    [SCENARIOS[0], SCENARIOS[3], SCENARIOS[5]],
    ids=["file-filter", "echo", "overflow"],
)
@pytest.mark.parametrize("backend", GATES)
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
        gate=backend,
        queue_capacity=queue_capacity,
        gate_batch=gate_batch,
    )
    assert signature(pipeline.engine) == signature(reference)


#: (queue_capacity, drain_batch, gate_batch) shapes for the gate
#: agreement grid: the default shape, then tight queues with gate
#: batches smaller, larger and much larger than the queue.
AGREEMENT_SHAPES = [
    (256, 64, 16), (4, 2, 3), (8, 4, 32), (2, 1, 64), (16, 16, 8),
]

#: Seeds of the generated hazard programs in the agreement grid.
AGREEMENT_SEEDS = range(60)


def admission_record(pipeline):
    """Everything an admission decision can move, for one run."""
    return (
        dataclasses.asdict(pipeline.stats),
        dataclasses.asdict(pipeline.gate.stats),
        pipeline.model.stall_cycles,
        state_signature(pipeline.engine),
    )


def gate_records(build, shape, policy=None, latch_config=None):
    """``admission_record`` of a reference and a production run."""
    queue_capacity, drain_batch, gate_batch = shape
    return [
        admission_record(run_pipeline(
            build, policy,
            latch_config=latch_config,
            gate=gate,
            queue_capacity=queue_capacity,
            drain_batch=drain_batch,
            gate_batch=gate_batch,
        ))
        for gate in GATES
    ]


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_backends_make_identical_admission_decisions(name, build, policy):
    """The gate and ``check_step`` agree event-for-event at every shape."""
    for shape in AGREEMENT_SHAPES:
        reference, production = gate_records(build, shape, policy)
        assert reference == production, shape


@pytest.mark.parametrize(
    "shape", AGREEMENT_SHAPES,
    ids=[f"q{q}d{d}b{b}" for q, d, b in AGREEMENT_SHAPES],
)
def test_backends_agree_on_generated_corpus(shape):
    """Equal counters, stall cycles and state over generated programs.

    At tight shapes a drain inside a gate batch sets and clears CTT
    bits between two admissions of that batch; a verdict that lagged
    the CTT would count differently from ``check_step`` here.
    """
    for seed in AGREEMENT_SEEDS:
        cp = generate_program(seed)
        reference, production = gate_records(
            lambda: cp, shape, latch_config=cp.config
        )
        assert reference == production, cp.name


def test_gate_suppresses_the_clean_majority():
    pipeline = run_pipeline(
        lambda: programs.phased_compute(clean_iterations=1500), None
    )
    assert pipeline.stats.enqueue_fraction < 0.4
    assert pipeline.stats.drained == pipeline.stats.enqueued


#: Taints ``buf``, copies one tainted byte to 0x9000 (a clean domain),
#: then loads the clean byte next to it.  No syscall separates the store
#: from the load, so both sit in one gate batch.
MID_BATCH_PROGRAM = """
.data
path:   .asciiz "t.txt"
buf:    .space 16
.text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r4, r3
    li   r3, 1
    li   r5, buf
    li   r6, 4
    syscall
    li   r8, buf
    lbu  r9, 0(r8)
    li   r13, 0x9000
    sb   r9, 0(r13)
    lbu  r11, 1(r13)
    halt
"""


@pytest.mark.parametrize("backend", GATES)
def test_mid_batch_tag_write_seen_by_next_admission(backend):
    """A coarse tag write made by a drain inside a batch is live at once.

    With ``drain_batch=1`` the tainted store drains as soon as it is
    admitted, and its precise tag write sets the CTT bit of 0x9000's
    domain.  The next load in the same batch reads 0x9001: no register
    is tainted and the pending guard covers only 0x9000, so the gate
    must admit it on the CTT bit set mid-batch.
    """
    devices = DeviceTable()
    devices.register_file(VirtualFile("t.txt", b"TTTT", tainted=True))
    cpu = CPU(assemble(MID_BATCH_PROGRAM), devices=devices)
    pipeline = with_gate(StreamingPipeline(cpu, config=PipelineConfig(
        queue_capacity=8, drain_batch=1, gate_batch=64,
    )), backend)
    gate = pipeline.gate
    decisions = {}
    admit = gate.admit

    def recording_admit(event):
        memory_hits = gate.stats.memory_hits
        admitted = admit(event)
        for access in event.memory_accesses:
            decisions[access.address] = (
                admitted,
                gate.stats.memory_hits - memory_hits,
                pipeline.stats.batches,
            )
        return admitted

    gate.admit = recording_admit
    cpu.run(1_000)
    pipeline.finish()
    store, load = decisions[0x9000], decisions[0x9001]
    assert store[2] == load[2], "store and load must share a gate batch"
    assert load[:2] == (True, 1)
    assert 0x9000 in set(pipeline.engine.shadow.iter_tainted_bytes())


#: Reads 4 tainted bytes to 0x9040, the first byte of a 64-byte domain,
#: then loads a word at 0x903e: the load's first domain is clean and
#: only its second one is tainted.  Its address register is clean and
#: no queued store covers it.
STRADDLE_PROGRAM = """
.data
path:   .asciiz "t.txt"
.text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r4, r3
    li   r3, 1
    li   r5, 0x9040
    li   r6, 4
    syscall
    li   r8, 0x903e
    lw   r9, 0(r8)
    halt
"""


@pytest.mark.parametrize("backend", GATES)
def test_straddling_access_probes_every_domain_it_touches(backend):
    """A load is admitted when only its last domain is tainted."""
    devices = DeviceTable()
    devices.register_file(VirtualFile("t.txt", b"TTTT", tainted=True))
    cpu = CPU(assemble(STRADDLE_PROGRAM), devices=devices)
    pipeline = with_gate(StreamingPipeline(cpu), backend)
    cpu.run(1_000)
    pipeline.finish()
    assert pipeline.gate.stats.memory_hits == 1
    assert pipeline.engine.trf.any_tainted((9,))


@pytest.mark.parametrize("backend", GATES)
def test_gate_probes_every_access_of_a_step(backend):
    """A step may carry several accesses (the wire allows it): all count.

    Only the second read hits the tainted domain; the step must still
    be admitted on a memory hit.
    """
    pipeline = with_gate(StreamingPipeline(None), backend)
    pipeline.on_input(InputEvent(
        step_index=0, address=0x9040, data=b"TTTT",
        source_kind="file", source_name="t.txt",
    ))
    event = StepEvent(
        index=1, pc=0, instruction=Instruction(Opcode.LW, rd=9, rs1=8),
        regs_read=(8,), regs_written=(9,),
        reads=(MemoryAccess(0x100, 4, is_write=False),
               MemoryAccess(0x9040, 4, is_write=False)),
    )
    assert pipeline.gate.admit(event)
    assert pipeline.gate.stats.memory_hits == 1


def test_wrapper_is_bit_identical_to_raw_pipeline():
    """PLatchSystem == StreamingPipeline(gate_batch=1) exactly."""
    build = lambda: programs.echo_server()
    wrapped_cpu = build().make_cpu()
    wrapped = PLatchSystem(wrapped_cpu, queue_capacity=32, drain_batch=8)
    wrapped_cpu.run(300_000)
    wrapped.drain_all()

    pipeline = run_pipeline(
        build, None, queue_capacity=32, drain_batch=8, gate_batch=1,
    )
    assert signature(wrapped.engine) == signature(pipeline.engine)
    assert wrapped.stats.enqueued == pipeline.stats.enqueued
    assert wrapped.stats.queue_full_stalls == pipeline.stats.queue_full_stalls
    counters = wrapped.counters
    assert counters.enqueued == pipeline.stats.enqueued
    assert counters.drained == pipeline.stats.drained


@pytest.mark.parametrize(
    "shape", AGREEMENT_SHAPES,
    ids=[f"q{q}d{d}" for q, d, _ in AGREEMENT_SHAPES],
)
def test_wrapper_matches_the_reference_gate_on_generated_corpus(shape):
    """PLatchSystem at batch 1 == the ``check_step`` gate at batch 1."""
    queue_capacity, drain_batch, _ = shape
    for seed in AGREEMENT_SEEDS:
        cp = generate_program(seed)
        cpu = cp.make_cpu()
        wrapped = PLatchSystem(
            cpu, latch_config=cp.config,
            queue_capacity=queue_capacity, drain_batch=drain_batch,
        )
        try:
            cpu.run(300_000)
        except Exception:
            pass
        wrapped.finish()
        reference = run_pipeline(
            lambda: cp, latch_config=cp.config, gate="scalar",
            queue_capacity=queue_capacity, drain_batch=drain_batch,
            gate_batch=1,
        )
        assert admission_record(wrapped) == admission_record(reference), (
            cp.name
        )


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


def test_default_pipeline_is_vector_with_gate_batch_16():
    """The one production gate, at the default batch of 16."""
    pipeline = StreamingPipeline(programs.phased_compute().make_cpu())
    assert pipeline.gate_batch == 16
    assert type(pipeline.gate) is LatchGate
    assert pipeline.config == PipelineConfig(gate_batch=16)


@pytest.mark.parametrize("backend", ["gpu", "auto", None, "Vector"])
def test_unknown_backend_rejected_at_construction(backend):
    """The retired ``backend`` field is no config knob, whatever its value."""
    with pytest.raises(TypeError, match="backend"):
        PipelineConfig(backend=backend)


def test_production_code_never_imports_the_gate_reference():
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    assert [
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "gate_reference" in path.read_text()
    ] == []
