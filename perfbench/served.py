"""``served-mixed``: two tenants against one ``repro-serve`` process.

The server runs in its own process on loopback, with a token bucket far
above the offered load so that the server, not the rate limiter, is
measured. One asyncio loop in this process drives two connections:

* ``bulk`` runs a closed loop. Each cycle streams the recorded
  taint-stream trace (``stream_open``, ``events`` frames,
  ``stream_close``) and then submits the clean-compute program as a
  whole job (``submit``).
* ``probe`` sends a small ``checksum`` trace on an open-loop, seeded
  schedule: gaps drawn uniformly between half and one and a half times
  the mean gap. A probe is timed from its due time, so a stall of
  the server also counts against the probes queued behind it.

The program behind the stream also runs on the bare emulator in this
process, one slice after each ``events`` reply, so the served time and
its reference share the same host conditions. That bare run is the
reference of ``main_over_ref`` (streamed check time over bare run
time). The job's program runs bare just before and just after each
submit; the mean of the two is the reference of ``second_over_ref``
(submit time over bare run time). Probe latencies are printed with
their median and tail; across runs they vary too much for a bound. In a
traced run the stream and the job also run in process, through
``StreamSession.feed`` and ``JobRunner.run``, for the per-layer costs.
The probe clock stops while this process works on its own, as that
blocks the loop the probes run on.

Every served and in-process result must equal
``repro.serve.client.local_reference`` of the same program.
"""

from __future__ import annotations

import asyncio
import base64
import os
import random
import signal
import subprocess
import sys
import threading
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import local
from common import (
    Outcome,
    clock,
    closure_metrics,
    median,
    peak_rss_mb,
    tail,
    timed_setup,
)
from ledger import NO_SPANS, Ledger

ROOT = Path(__file__).resolve().parent.parent

#: Token bucket of every tenant: far above what one client can offer.
RATE = 1e9
BURST = 1e9
#: The submitted job is the clean-compute program with a quarter of its
#: clean loop, so a submit holds the server for a minority of a cycle
#: and the probe median measures the streaming path.
SUBMIT_ITERATIONS = local.CLEAN_ITERATIONS // 4
PROBE_PAYLOAD_BYTES = 48
#: Mean probe arrivals per second of served time (open loop), low
#: enough that the probe connection is idle most of the time.
PROBE_RATE = 5.0
#: Cycles in each pass of a traced run (untraced, then traced).
TRACE_CYCLES = 4
SERVER_START_TIMEOUT = 60.0
#: Checks that compare a served or in-process result with the reference.
RESULT_CHECKS = ("served stream", "served submit", "probe result",
                 "in-process stream", "in-process job")


# ----------------------------------------------------------------- server


#: ``repro-serve`` with Python's own SIGINT handler: a parent started in
#: the background may hand its children SIGINT ignored, and the server
#: shuts down cleanly only on KeyboardInterrupt.
_SERVE = (
    "import signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.serve.cli import main; main()"
)


class ServerProcess:
    """``repro-serve serve`` in a child process on an ephemeral port."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE, "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--rate", repr(RATE), "--burst", repr(BURST)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )
        watchdog = threading.Timer(SERVER_START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------- inputs


def _source_of(builder, *args):
    """The assembly text a ``programs`` builder assembles, and its program.

    ``submit`` carries assembly source, which the builders do not keep;
    the text is caught on its way into ``assemble``.
    """
    from repro.workloads import programs

    captured: List[str] = []
    original = programs.assemble

    def capture(source, *rest, **options):
        captured.append(source)
        return original(source, *rest, **options)

    programs.assemble = capture
    try:
        scenario = builder(*args)
    finally:
        programs.assemble = original
    return captured[-1], scenario.program


def _expected(factory) -> Dict:
    from repro.serve.client import local_reference
    from repro.serve.protocol import canonical_json

    return canonical_json(local_reference(factory))


@dataclass
class ServedInputs:
    stream: local.LocalInputs
    stream_events: List[Dict]
    stream_expected: str
    job_inputs: local.LocalInputs
    job: Dict
    job_expected: str
    probe: local.LocalInputs
    probe_events: List[Dict]
    probe_expected: str
    server: Optional[ServerProcess] = None

    def discard(self) -> None:
        if self.server is not None:
            self.server.stop()


def build_inputs(seed: int) -> ServedInputs:
    """Record the traces, compute reference results, start the server."""
    from repro.serve.client import record_trace
    from repro.workloads import programs

    program, files = local._payload("taint-stream", seed)
    stream = local.LocalInputs(program, files, 0, None)

    rng = random.Random(f"served-mixed:{seed}")
    payload = bytes(rng.randrange(256) for _ in range(local.CLEAN_PAYLOAD_BYTES))
    source, job_program = _source_of(
        programs.phased_compute, payload, SUBMIT_ITERATIONS
    )
    job_inputs = local.LocalInputs(
        job_program, (("phase.in", payload, True),), 0, None
    )
    job = {
        "source": source,
        "files": [{"name": "phase.in", "tainted": True,
                   "data": base64.b64encode(payload).decode("ascii")}],
    }
    probe_payload = bytes(rng.randrange(256) for _ in range(PROBE_PAYLOAD_BYTES))
    probe = programs.checksum(probe_payload)
    probe_inputs = local.LocalInputs(
        probe.program, (("data.bin", probe_payload, True),), 0, None
    )

    for program in (stream, job_inputs, probe_inputs):
        cpu = program.make_cpu()
        cpu.run()
        program.steps = cpu.step_count
    inputs = ServedInputs(
        stream=stream,
        stream_events=record_trace(stream.make_cpu),
        stream_expected=_expected(stream.make_cpu),
        job_inputs=job_inputs,
        job=job,
        job_expected=_expected(job_inputs.make_cpu),
        probe=probe_inputs,
        probe_events=record_trace(probe_inputs.make_cpu),
        probe_expected=_expected(probe_inputs.make_cpu),
    )
    inputs.server = ServerProcess()
    return inputs


def _matches(reply: Dict, expected: str) -> bool:
    from repro.serve.protocol import canonical_json

    return reply.get("type") == "result" and canonical_json(
        {"signature": reply.get("signature"), "stats": reply.get("stats")}
    ) == expected


# ----------------------------------------------------------------- client


class Connection:
    """One client connection speaking the frame protocol.

    The benchmark speaks the protocol itself rather than through
    ``AsyncServeClient`` so that it can time each ``events`` frame and
    run the bare reference between frames.
    """

    def __init__(self, reader, writer, spans) -> None:
        self.reader = reader
        self.writer = writer
        self.spans = spans
        self.retries = 0
        self.max_batch = 64

    @classmethod
    async def open(cls, port: int, tenant: str, spans) -> "Connection":
        from repro.serve.protocol import PROTOCOL_VERSION

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection = cls(reader, writer, spans)
        welcome = await connection.request(
            {"type": "hello", "proto": PROTOCOL_VERSION, "tenant": tenant}
        )
        connection.max_batch = int(welcome["limits"]["max_batch"])
        return connection

    async def request(self, message: Dict) -> Dict:
        """Send one request; wait out RETRY answers; return the reply."""
        from repro.serve import protocol

        with self.spans.span(f"serve.rtt.{message['type']}"):
            while True:
                self.writer.write(protocol.encode_frame(message))
                await self.writer.drain()
                header = await self.reader.readexactly(4)
                reply = protocol.decode_payload(
                    await self.reader.readexactly(int.from_bytes(header, "big"))
                )
                if reply["type"] != "retry":
                    break
                self.retries += 1
                await asyncio.sleep(int(reply.get("backoff_ms", 1)) / 1e3)
        if reply["type"] == "error":
            from repro.serve.client import ServeError

            raise ServeError(str(reply.get("detail")), code=reply.get("code"))
        return reply

    async def check_trace(self, events: List[Dict], rtts: List[float],
                          shadow: Optional["BareShadow"] = None) -> Dict:
        """Stream ``events``; ``shadow`` advances one slice per frame.

        The slice runs after the frame's reply, while the server has no
        bulk work, so it neither competes with the server for a core nor
        delays the frame; its time is left out of ``rtts``.
        """
        ack = await self.request({"type": "stream_open"})
        stream = ack["stream"]
        for start in range(0, len(events), self.max_batch):
            batch = events[start:start + self.max_batch]
            sent = clock()
            await self.request(
                {"type": "events", "stream": stream, "batch": batch}
            )
            rtts.append(clock() - sent)
            if shadow is not None:
                shadow.advance(len(batch))
        return await self.request({"type": "stream_close", "stream": stream})

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class BareShadow:
    """A bare run of a program, advanced in timed slices."""

    def __init__(self, program: local.LocalInputs, spans) -> None:
        self.program = program
        self.spans = spans
        started = clock()
        self.cpu = program.make_cpu()
        self.seconds = clock() - started

    def advance(self, steps: Optional[int] = None) -> None:
        if self.cpu.halted:
            return
        started = clock()
        with self.spans.span("bench.bare"):
            if steps is None:
                self.cpu.run()
            else:
                self.cpu.run(steps)
        self.seconds += clock() - started

    def finish(self) -> bool:
        """Run to the end; True if the run matches the recorded one."""
        self.advance()
        return self.cpu.halted and self.cpu.step_count == self.program.steps


# ------------------------------------------------------------- in process


class InProcess:
    """The served stream and job, run through the server's own classes."""

    def __init__(self) -> None:
        from repro.serve.server import ServeConfig, TaintServer
        from repro.serve.tenant import TenantLimits

        server = TaintServer(ServeConfig(default_limits=TenantLimits(
            rate=RATE, burst=BURST, max_streams=None,
        )))
        self.controller = server.controller
        self.tenant = server.tenants.get("reference")
        self.streams = 0

    def stream(self, events: List[Dict], max_batch: int) -> Dict:
        from repro.serve.session import StreamSession

        self.streams += 1
        slot = self.controller.admit_request(self.tenant, "stream")
        session = StreamSession(self.tenant, f"r{self.streams}", slot,
                                self.controller)
        try:
            for start in range(0, len(events), max_batch):
                session.feed(events[start:start + max_batch])
            return session.result()
        finally:
            session.close()

    def job(self, job: Dict) -> Dict:
        from repro.serve.session import JobRunner

        slot = self.controller.admit_request(self.tenant, "job")
        runner = JobRunner(self.tenant, slot, self.controller)
        try:
            return runner.run(job)
        finally:
            runner.release()


# ----------------------------------------------------------------- probes


class ProbeClock:
    """Probe time: wall time with the spells this process works alone cut out."""

    def __init__(self) -> None:
        self.paused_total = 0.0
        self._paused_at = 0.0
        self.running = asyncio.Event()
        self.running.set()
        self.idle = asyncio.Event()
        self.idle.set()

    def now(self) -> float:
        return clock() - self.paused_total

    async def pause(self) -> None:
        """Stop new probes, wait for the one in flight, stop the clock."""
        self.running.clear()
        await self.idle.wait()
        self._paused_at = clock()

    def resume(self) -> None:
        self.paused_total += clock() - self._paused_at
        self.running.set()


@dataclass
class ProbeLog:
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)


async def _probes(connection: Connection, inputs: ServedInputs,
                  probe_clock: ProbeClock, rng: random.Random,
                  log: ProbeLog, outcome: Outcome, spans) -> None:
    due = probe_clock.now()
    while True:
        due += (0.5 + rng.random()) / PROBE_RATE
        while True:
            delay = due - probe_clock.now()
            if delay > 0:
                await asyncio.sleep(delay)
            await probe_clock.running.wait()
            if due <= probe_clock.now():
                break
        probe_clock.idle.clear()
        try:
            log.lags.append(probe_clock.now() - due)
            with spans.span("bench.probe"):
                reply = await connection.check_trace(inputs.probe_events, [])
            log.latencies.append(probe_clock.now() - due)
            outcome.check(_matches(reply, inputs.probe_expected), "probe result")
        finally:
            probe_clock.idle.set()


# ------------------------------------------------------------------- bulk


@dataclass
class Cycle:
    stream_s: float
    submit_s: float
    bare_stream_s: float
    bare_job_s: float


@asynccontextmanager
async def _paused(probe_clock: ProbeClock, spans):
    """This process works alone: no probe in flight, probe clock stopped."""
    with spans.span("bench.pause"):
        await probe_clock.pause()
    try:
        yield
    finally:
        probe_clock.resume()


async def _cycle(bulk: Connection, inputs: ServedInputs,
                 in_process: Optional[InProcess], probe_clock: ProbeClock,
                 rtts: List[float], outcome: Outcome, spans) -> Cycle:
    shadow = BareShadow(inputs.stream, spans)
    sliced = shadow.seconds
    started = clock()
    with spans.span("bench.stream"):
        reply = await bulk.check_trace(inputs.stream_events, rtts, shadow)
    stream_s = clock() - started - (shadow.seconds - sliced)
    outcome.check(_matches(reply, inputs.stream_expected), "served stream")

    # The job's bare runs bracket the submit, so drift cancels to first order.
    async with _paused(probe_clock, spans):
        outcome.check(shadow.finish(), "bare stream program")
        before = BareShadow(inputs.job_inputs, spans)
        outcome.check(before.finish(), "bare job program")
    submitted_at = clock()
    reply = await bulk.request({"type": "submit", "job": inputs.job})
    submit_s = clock() - submitted_at
    outcome.check(_matches(reply, inputs.job_expected), "served submit")

    async with _paused(probe_clock, spans):
        after = BareShadow(inputs.job_inputs, spans)
        outcome.check(after.finish(), "bare job program")
        if in_process is not None:
            with spans.span("bench.in_process"):
                stream_result = in_process.stream(inputs.stream_events,
                                                  bulk.max_batch)
                job_result = in_process.job(inputs.job)
            outcome.check(_matches(stream_result, inputs.stream_expected),
                          "in-process stream")
            outcome.check(_matches(job_result, inputs.job_expected),
                          "in-process job")
    return Cycle(stream_s, submit_s, shadow.seconds,
                 (before.seconds + after.seconds) / 2)


@dataclass
class Pass:
    cycles: List[Cycle]
    rtts: List[float]
    probes: ProbeLog
    wall: float
    retries: int


async def _pass(port: int, inputs: ServedInputs, seed: int, outcome: Outcome,
                spans=NO_SPANS, cycles: Optional[int] = None,
                seconds: float = 0.0, in_process: bool = False) -> Pass:
    """Drive both tenants for a number of cycles or until ``seconds`` pass."""
    reference = InProcess() if in_process else None
    bulk = await Connection.open(port, "bulk", spans)
    probe = await Connection.open(port, "probe", spans)
    probe_clock = ProbeClock()
    log = ProbeLog()
    rtts: List[float] = []
    done: List[Cycle] = []
    probe_task = asyncio.create_task(_probes(
        probe, inputs, probe_clock, random.Random(f"probe:{seed}"), log,
        outcome, spans,
    ))
    started = clock()
    try:
        deadline = started + seconds
        with spans.span("pass"):
            while (len(done) < cycles if cycles is not None
                   else len(done) < 3 or clock() < deadline):
                if isinstance(spans, Ledger):
                    spans.run_id = len(done) + 1
                done.append(await _cycle(bulk, inputs, reference, probe_clock,
                                         rtts, outcome, spans))
        wall = clock() - started
        await probe_clock.pause()
    finally:
        probe_task.cancel()
        try:
            await probe_task
        except asyncio.CancelledError:
            pass
        await bulk.close()
        await probe.close()
    return Pass(done, rtts, log, wall, bulk.retries + probe.retries)


# ------------------------------------------------------------------ entry


def _figures(run: Pass, inputs: ServedInputs) -> Dict[str, float]:
    figures = {
        "main_over_ref": median([c.stream_s / c.bare_stream_s
                                 for c in run.cycles]),
        "second_over_ref": median([c.submit_s / c.bare_job_s
                                   for c in run.cycles]),
        "probe_p50_ms": median(run.probes.latencies) * 1e3,
        "stream_kevents_per_s": median([
            len(inputs.stream_events) / c.stream_s for c in run.cycles
        ]) / 1e3,
        "submit_kinsn_per_s": median([
            inputs.job_inputs.steps / c.submit_s for c in run.cycles
        ]) / 1e3,
        "events_rtt_ms": median(run.rtts) * 1e3,
        "lag_ms": sum(run.probes.lags) / max(len(run.probes.lags), 1) * 1e3,
        "probe_samples": float(len(run.probes.latencies)),
        "retries": float(run.retries),
    }
    tail_figure = tail(run.probes.latencies)
    if tail_figure is not None:
        figures["probe_tail_ms"] = tail_figure[0] * 1e3
        figures["probe_tail_pct"] = tail_figure[1]
    return figures


def layer_targets():
    from repro.serve import protocol, session
    from repro.serve.session import JobRunner, StreamSession

    return local.layer_targets() + [
        (protocol, "encode_frame", "serve.encode_frame"),
        (session, "decode_batch", "serve.decode_batch"),
        (StreamSession, "feed", "serve.feed"),
        (JobRunner, "run", "serve.job_run"),
    ]


def _layers(table, inputs: ServedInputs, cycles: int,
            outcome: Outcome) -> Dict[str, float]:
    per = 1.0 / cycles
    events = len(inputs.stream_events) * cycles
    streamed = table.under("bench.stream")
    metrics = {
        "machine.self_s": table.self_seconds("machine.run") * per,
        "core.check_step.calls": table.calls("core.check_step") * per,
        "core.check_step.s": table.self_seconds("core.check_step") * per,
        "core.update_memory_tags.s": table.self_seconds("core.update_memory_tags") * per,
        "core.reconcile_clears.s": table.self_seconds("core.reconcile_clears") * per,
        "dift.on_step.calls": table.calls("dift.on_step") * per,
        "dift.on_step.s": table.self_seconds("dift.on_step") * per,
        "pipeline.flush.s": table.self_seconds("pipeline.flush") * per,
        "pipeline.drain.s": table.total_seconds("pipeline.drain") * per,
        "serve.decode_us_per_event":
            table.total_seconds("serve.decode_batch") / events * 1e6,
        "serve.feed_us_per_event":
            table.total_seconds("serve.feed") / events * 1e6,
        "serve.encode_frame_us_per_event":
            table.total_seconds("serve.encode_frame", streamed) / events * 1e6,
        "serve.job_run_s": table.total_seconds("serve.job_run") * per,
    }
    metrics.update(closure_metrics(table, "pass", outcome))
    return metrics


async def _traced(port, inputs, seed, outcome, spans_path):
    untraced = await _pass(port, inputs, seed, outcome, cycles=TRACE_CYCLES,
                           in_process=True)
    ledger = Ledger()
    with ledger.wrapped(layer_targets()):
        traced = await _pass(port, inputs, seed, outcome, ledger,
                             cycles=TRACE_CYCLES, in_process=True)
    table = ledger.table()
    metrics = _layers(table, inputs, TRACE_CYCLES, outcome)
    metrics["tracing_overhead"] = traced.wall / untraced.wall
    if spans_path is not None:
        table.dump(spans_path, {"workload": "served-mixed",
                                "cycles": TRACE_CYCLES})
    return untraced, metrics


async def _main(inputs: ServedInputs, seed: int, seconds: float, trace: bool,
                outcome: Outcome, spans_path):
    port = inputs.server.port
    # Warm-up: one checked cycle, not timed.
    await _pass(port, inputs, seed, outcome, cycles=1, in_process=trace)
    if trace:
        return await _traced(port, inputs, seed, outcome, spans_path)
    return await _pass(port, inputs, seed, outcome, seconds=seconds), {}


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path=None) -> Outcome:
    """Set up, measure and check the served workload."""
    outcome = Outcome()
    inputs, setup = timed_setup(lambda: build_inputs(seed))
    try:
        measured, layers = asyncio.run(
            _main(inputs, seed, seconds, trace, outcome, spans_path)
        )
    finally:
        inputs.discard()
    figures = _figures(measured, inputs)
    outcome.check(measured.retries == 0, "no RETRY above the offered load")
    outcome.end_to_end.update({
        "setup_s": setup,
        "main_over_ref": figures["main_over_ref"],
        "second_over_ref": figures["second_over_ref"],
        "peak_rss_mb": peak_rss_mb() + peak_rss_mb(children=True),
    })
    units = {
        "stream_kevents_per_s": "kevent/s", "submit_kinsn_per_s": "kinsn/s",
        "probe_p50_ms": "ms", "probe_tail_ms": "ms", "probe_tail_pct": "percentile",
        "probe_samples": "count", "events_rtt_ms": "ms", "lag_ms": "ms",
        "retries": "count",
    }
    for name, unit in units.items():
        if name in figures:
            outcome.report[name] = (figures[name], unit)
    if trace:
        outcome.per_layer.update(layers)
        outcome.per_layer.update({
            "serve.stream_kevents_per_s": figures["stream_kevents_per_s"],
            "serve.submit_kinsn_per_s": figures["submit_kinsn_per_s"],
            "serve.probe_p50_ms": figures["probe_p50_ms"],
            "serve.probe_tail_ms": figures.get("probe_tail_ms", 0.0),
            "serve.events_rtt_ms": figures["events_rtt_ms"],
            "serve.retries": figures["retries"],
            "serve.divergences": float(sum(
                count for what, count in outcome.failures.items()
                if what in RESULT_CHECKS
            )),
            "loadgen.lag_ms": figures["lag_ms"],
        })
    return outcome
