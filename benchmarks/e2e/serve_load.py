"""The ``serve_*`` workloads: ``ServeClient`` -> TCP -> server process.

The load generator is this process: one thread, one event loop, two
connections, a closed loop (each in-flight slot sends its next request
when the previous reply arrived and was checked).  The server is a
child process running the default ``ServeConfig``.

The traced run adds a stepwise replay of the same request stream in
this process — every hop of a request called directly, one span each —
because from outside the server only the whole round trip is visible.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from repro import QueueBlocking, create_task_kernel, mem
from repro.core.errors import ServeError
from repro.dev.manager import shutdown_device_workers
from repro.kernels import AxpyElementsKernel
from repro.runtime import clear_plan_cache, get_plan, plan_cache_info
from repro.serve import (
    Batch,
    Batcher,
    FairShareAdmission,
    Gateway,
    LaunchRequest,
    RetryAfter,
    ServeConfig,
    ShardRouter,
    get_workload,
)
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.tuning import auto_divide

import floor
from spans import Recorder, timed
from stats import hit_rate, median, read_peak_rss_mb, summarize_ops

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
#: Distinct input pairs each in-flight slot cycles through.
POOL = 4
OP_TIMEOUT_S = 20.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 40.0
STEPWISE_MIN_REPS = 5
CODEC_STEPS = ("encode_req", "decode_req", "encode_resp", "decode_resp")
#: Spans around one layer call each; what they do not cover of a TCP op
#: is ``trace.unattributed_share``.
LEAF_SPANS = tuple("protocol." + step for step in CODEC_STEPS) + (
    "workloads.validate", "admission.offer", "admission.next_ready",
    "batcher.add", "batcher.pop_ready", "mem.alloc", "mem.copy_h2d",
    "plan.hit", "queue.enqueue", "mem.copy_d2h",
)


@dataclass(frozen=True)
class Shape:
    n: int
    inflight: int
    #: A shared ``alpha`` lets the batcher coalesce across connections;
    #: distinct ones guarantee it cannot.
    shared_alpha: bool
    warm_rounds: int


SHAPES = {
    "serve_small": Shape(n=256, inflight=1, shared_alpha=False, warm_rounds=1),
    "serve_bulk": Shape(n=2**16, inflight=1, shared_alpha=False, warm_rounds=1),
    # Merged launches differ in extent with the batch size, so several
    # rounds are needed before the common batch sizes have a plan.
    "serve_pipelined": Shape(n=256, inflight=16, shared_alpha=True, warm_rounds=8),
}


@dataclass
class Slot:
    conn: int
    index: int
    tenant: str
    alpha: float
    pool: List[tuple]


def make_slots(shape: Shape, seed: int) -> List[Slot]:
    """Every request the workload will send, from the seed."""
    rng = np.random.default_rng(seed)
    shared = float(rng.uniform(1.0, 3.0))
    slots = []
    for conn in range(CONNECTIONS):
        alpha = shared if shape.shared_alpha else shared + 1.0 + conn
        for i in range(shape.inflight):
            pool = [(rng.random(shape.n), rng.random(shape.n)) for _ in range(POOL)]
            slots.append(
                Slot(conn, conn * shape.inflight + i, f"tenant{conn}", alpha, pool)
            )
    return slots


class ServerChild:
    """The server process; stopped (or killed) on every exit path."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _read_json_line(self, timeout: float) -> dict:
        box: Dict[str, str] = {}
        reader = threading.Thread(
            target=lambda: box.setdefault("line", self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout)
        line = box.get("line")
        if not line:
            raise RuntimeError("server child printed nothing within the timeout")
        return json.loads(line)

    def wait_port(self) -> int:
        return int(self._read_json_line(SERVER_START_TIMEOUT_S)["port"])

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(self.proc.pid)

    def stop(self) -> List[str]:
        """Graceful stop; returns what went wrong or was left behind."""
        problems: List[str] = []
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except OSError:
                problems.append("server child closed its stdin early")
        try:
            report = self._read_json_line(SERVER_STOP_TIMEOUT_S)
            if report.get("segments"):
                problems.append(f"server leaked shm segments {report['segments']}")
            if report.get("workers"):
                problems.append(f"server kept device workers {report['workers']}")
        except (RuntimeError, ValueError) as exc:
            problems.append(f"no leak report from the server child: {exc}")
        try:
            code = self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            if code != 0:
                problems.append(f"server child exited with code {code}")
        except subprocess.TimeoutExpired:
            problems.append("server child did not exit; killed")
        finally:
            self.kill()
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


@dataclass
class _Loop:
    """Result of a closed TCP loop; the lists hold verified-correct ops."""

    op_seconds: List[float] = field(default_factory=list)
    floor_seconds: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wall: float = 0.0


async def tcp_loop(
    clients: List[ServeClient], slots: List[Slot], seconds: float, min_ops: int,
    rec: Optional[Recorder] = None,
) -> _Loop:
    """Closed loop: each slot keeps exactly one request in flight."""
    loop = _Loop()
    start = time.perf_counter()

    async def drive(slot: Slot) -> None:
        client = clients[slot.conn]
        turn = 0
        while not (
            time.perf_counter() - start >= seconds and loop.attempted >= min_ops
        ):
            x, y = slot.pool[turn % POOL]
            turn += 1
            op = loop.attempted
            loop.attempted += 1
            t0 = time.perf_counter()
            try:
                result = await asyncio.wait_for(
                    client.launch(
                        "axpy", tenant=slot.tenant,
                        params={"alpha": slot.alpha}, arrays={"x": x, "y": y},
                    ),
                    OP_TIMEOUT_S,
                )
            except RetryAfter:
                # No hidden retries: a refusal is a failed op.
                loop.refused += 1
                loop.failed += 1
                continue
            except (ServeError, asyncio.TimeoutError, OSError):
                loop.failed += 1
                continue
            t1 = time.perf_counter()
            want = floor.axpy(slot.alpha, x, y)
            t2 = time.perf_counter()
            got = result.arrays.get("y")
            if got is not None and np.array_equal(got, want):
                loop.op_seconds.append(t1 - t0)
                loop.floor_seconds.append(t2 - t1)
                loop.batch_sizes.append(result.batch_size)
            else:
                loop.failed += 1
            loop.wall = time.perf_counter() - start
            if rec is not None:
                track = 2 + slot.index
                rec.add("serve.client.launch", t0, t1, op, track)
                rec.add("floor.axpy", t1, t2, op, track)
                rec.add("verify", t2, start + loop.wall, op, track)

    await asyncio.gather(*(drive(slot) for slot in slots))
    return loop


async def _connect(port: int) -> List[ServeClient]:
    clients = [ServeClient(port=port, max_retries=0) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    return clients


async def _client_side(port, shape, slots, seconds, min_ops, trace, ready, rec):
    clients = await _connect(port)
    try:
        warm = await tcp_loop(clients, slots, 0.0, len(slots) * shape.warm_rounds)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} of {warm.attempted} warm-up ops failed")
        ready()
        if seconds <= 0:
            return None, None
        if not trace:
            return await tcp_loop(clients, slots, seconds, min_ops), None
        plain = await tcp_loop(clients, slots, 0.3 * seconds, min_ops)
        traced = await tcp_loop(clients, slots, 0.3 * seconds, min_ops, rec)
        return plain, traced
    finally:
        for client in clients:
            await client.close()


def _summarize(loop: _Loop) -> dict:
    return summarize_ops(
        loop.op_seconds, loop.floor_seconds, loop.attempted, loop.failed, loop.wall
    )


def _request(slot: Slot, x, y) -> LaunchRequest:
    return LaunchRequest(
        workload="axpy", tenant=slot.tenant,
        params={"alpha": slot.alpha}, arrays={"x": x, "y": y},
    )


def _stepwise_ops(gw: Gateway, slots, seconds: float, rec: Recorder) -> dict:
    """One request at a time through every hop, called directly."""
    wire, payload, failed, reps = [], [], 0, 0
    start = time.perf_counter()
    while reps < STEPWISE_MIN_REPS or time.perf_counter() - start < seconds:
        slot = slots[reps % len(slots)]
        x, y = slot.pool[(reps // len(slots)) % POOL]
        with rec.span("op.stepwise", op=reps):
            with rec.span("protocol.encode_req"):
                line = protocol.encode_message(
                    {
                        "op": "launch", "id": reps, "workload": "axpy",
                        "tenant": slot.tenant, "backend": "",
                        "params": {"alpha": slot.alpha},
                        "arrays": protocol.encode_arrays({"x": x, "y": y}),
                    }
                )
            with rec.span("protocol.decode_req"):
                message = protocol.decode_message(line)
                arrays = protocol.decode_arrays(message["arrays"])
            with rec.span("gateway.inproc"):
                request = LaunchRequest(
                    workload=message["workload"], tenant=message["tenant"],
                    params=message["params"], arrays=arrays,
                )
                _, handle = timed(rec, "gateway.submit", gw.submit, request)
                result = handle.result(OP_TIMEOUT_S)
            with rec.span("protocol.encode_resp"):
                reply = protocol.encode_message(protocol.result_payload(reps, result))
            with rec.span("protocol.decode_resp"):
                got = protocol.decode_arrays(protocol.decode_message(reply)["arrays"])
        if not np.array_equal(got["y"], floor.axpy(slot.alpha, x, y)):
            failed += 1
        wire.append(len(line) + len(reply))
        payload.append(x.nbytes + y.nbytes + got["y"].nbytes)
        reps += 1
    return {"wire": wire, "payload": payload, "failed": failed, "reps": reps}


def _layer_probes(shape: Shape, slots, reps: int, rec: Recorder) -> Dict[str, float]:
    """Split the gateway span: each layer's call on an object of its
    own, ``reps`` times."""
    config = ServeConfig()
    workload = get_workload("axpy")
    slot = slots[0]
    x, y = slot.pool[0]
    m: Dict[str, float] = {}

    admission = FairShareAdmission(config)
    batcher = Batcher(config.batch_window, config.batch_max, config.enable_batching)
    for _ in range(reps):
        request = _request(slot, x, y)
        timed(rec, "workloads.validate", workload.validate, request)
        timed(rec, "admission.offer", admission.offer, request)
        timed(rec, "admission.next_ready", admission.next_ready)
        admission.task_finished(slot.tenant, 0.0, True)
        now = time.perf_counter()
        timed(rec, "batcher.add", batcher.add, request, now)
        timed(rec, "batcher.pop_ready", batcher.pop_ready, now + config.batch_window)

    router = ShardRouter(config)
    try:
        lane = router.lanes[0]
        for _ in range(reps):
            timed(
                rec, "workloads.execute", workload.execute,
                [_request(slot, x, y)], lane.acc_type, lane.device,
            )
        if shape.inflight > 1:
            batch = [_request(s, *s.pool[0]) for s in slots[: shape.inflight]]
            for _ in range(reps):
                timed(
                    rec, "workloads.execute_batched", workload.execute,
                    batch, lane.acc_type, lane.device,
                )
        for _ in range(reps):
            done = threading.Event()
            batch = Batch(None, workload, "", time.perf_counter())
            batch.requests.append(_request(slot, x, y))
            with rec.span("router.submit_to_callback"):
                router.submit(batch, lambda *args: done.set())
                done.wait(OP_TIMEOUT_S)

        # The sequence AxpyWorkload.execute performs, one call per span.
        acc, dev = lane.acc_type, lane.device
        queue = QueueBlocking(dev)

        def alloc_both():
            return [
                mem.alloc(dev, a.shape, dtype=a.dtype, pitched=False) for a in (x, y)
            ]

        def stage_both(bx, by):
            mem.copy(queue, bx, x)
            mem.copy(queue, by, y)

        kernel = AxpyElementsKernel()
        out = np.empty_like(y)
        cache0 = plan_cache_info()
        for _ in range(reps):
            with rec.span("execute.steps"):
                _, (bx, by) = timed(rec, "mem.alloc", alloc_both)
                timed(rec, "mem.copy_h2d", stage_both, bx, by)
                work_div = auto_divide(
                    shape.n, acc.get_acc_dev_props(dev), kernel=kernel,
                    acc_type=acc, device=dev, thread_elems=min(shape.n, 256),
                )
                task = create_task_kernel(
                    acc, work_div, kernel, shape.n, slot.alpha, bx, by
                )
                timed(rec, "plan.hit", get_plan, task, dev)
                timed(rec, "queue.enqueue", queue.enqueue, task)
                timed(rec, "mem.copy_d2h", mem.copy, queue, out, by)
                bx.free()
                by.free()
        m["plan.hit_rate"] = hit_rate(cache0, plan_cache_info())
        if not np.array_equal(out, floor.axpy(slot.alpha, x, y)):
            raise RuntimeError("stepwise execute sequence does not match its twin")
        for _ in range(reps):
            clear_plan_cache()
            timed(rec, "plan.miss", get_plan, task, dev)
    finally:
        router.drain()
        router.close()
        shutdown_device_workers()
    return m


def _per_layer_metrics(shape, plain, traced, step, probes, rec) -> Dict[str, float]:
    def p50(name: str) -> float:
        return median(rec.durations(name))

    m = dict(probes)
    m.update(_summarize(plain)["raw"])
    for name in CODEC_STEPS:
        m[f"protocol.{name}_ms"] = p50("protocol." + name) * 1e3
    m["protocol.wire_bytes_per_op"] = median(step["wire"])
    m["protocol.bytes_expansion"] = median(step["wire"]) / median(step["payload"])

    execute = p50("workloads.execute")
    tcp_p50 = median(plain.op_seconds)
    m["transport.remainder_ms"] = (tcp_p50 - p50("op.stepwise")) * 1e3
    m["gateway.inproc_ms"] = p50("gateway.inproc") * 1e3
    m["gateway.submit_us"] = p50("gateway.submit") * 1e6
    m["gateway.wait_ms"] = (p50("gateway.inproc") - execute) * 1e3
    m["admission.offer_us"] = p50("admission.offer") * 1e6
    m["admission.next_ready_us"] = p50("admission.next_ready") * 1e6
    m["admission.refused"] = plain.refused + traced.refused
    m["batcher.add_us"] = p50("batcher.add") * 1e6
    m["batcher.pop_ready_us"] = p50("batcher.pop_ready") * 1e6
    sizes = plain.batch_sizes + traced.batch_sizes
    m["batcher.mean_batch"] = sum(sizes) / max(1, len(sizes))
    m["batcher.max_batch"] = max(sizes, default=0)
    m["router.handoff_us"] = (p50("router.submit_to_callback") - execute) * 1e6
    m["workloads.validate_us"] = p50("workloads.validate") * 1e6
    m["workloads.execute_ms"] = execute * 1e3
    if shape.inflight > 1:
        m["workloads.execute_batched_ms_per_req"] = (
            p50("workloads.execute_batched") / shape.inflight * 1e3
        )
    m["mem.alloc_us"] = p50("mem.alloc") * 1e6
    m["mem.copy_h2d_ms"] = p50("mem.copy_h2d") * 1e3
    m["mem.copy_d2h_ms"] = p50("mem.copy_d2h") * 1e3
    # Computed from array sizes (x and y in, y out), not measured.
    m["mem.bytes_copied_per_op"] = 3 * shape.n * 8
    m["queue.enqueue_us"] = p50("queue.enqueue") * 1e6
    m["plan.hit_us"] = p50("plan.hit") * 1e6
    m["plan.miss_us"] = p50("plan.miss") * 1e6

    traced_p50 = median(traced.op_seconds)
    m["trace.overhead_share"] = traced_p50 / tcp_p50 - 1.0
    # Time of a TCP op that no span around a layer call accounts for:
    # sockets, event-loop hops, the batch window, pump and lane queues —
    # visible only as remainders until the program records spans itself.
    covered = sum(p50(name) for name in LEAF_SPANS)
    m["trace.unattributed_share"] = max(0.0, 1.0 - covered / traced_p50)
    return m


def run(
    workload: str, seed: int, seconds: float, min_ops: int, probe_reps: int,
    trace: bool, ready,
) -> dict:
    """Set up, signal ``ready()``, measure, tear down.  ``seconds <= 0``
    stops after set-up (a set-up probe)."""
    shape = SHAPES[workload]
    slots = make_slots(shape, seed)
    rec = Recorder() if trace else None
    server = ServerChild()
    try:
        port = server.wait_port()
        plain, traced = asyncio.run(
            _client_side(port, shape, slots, seconds, min_ops, trace, ready, rec)
        )
        rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    problems = server.stop()
    if plain is None:
        out = {"attempted": 0, "failed": 0, "metrics": {}}
    elif not trace:
        out = _summarize(plain)
        out["metrics"]["peak_rss_mb"] = rss
    else:
        with Gateway(ServeConfig()) as gw:
            step = _stepwise_ops(gw, slots, 0.2 * seconds, rec)
        probes = _layer_probes(shape, slots, probe_reps, rec)
        out = {
            "attempted": plain.attempted + traced.attempted + step["reps"],
            "failed": plain.failed + traced.failed + step["failed"],
            "metrics": _per_layer_metrics(shape, plain, traced, step, probes, rec),
            "recorder": rec,
        }
    out["problems"] = problems
    return out
