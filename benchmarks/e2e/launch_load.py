"""The ``launch_*`` workloads: the paper's user, no serve layer.

One op is one pass over five items on ``AccCpuOmp2Blocks`` through
``create_task_kernel`` + ``QueueBlocking.enqueue`` with buffers staged
beforehand; each item is dominated by a different layer (launch
overhead, per-block dispatch, kernel body, BLAS, graph replay).
``launch_compiled`` is the identical pass under
``REPRO_SCHEDULER=compiled``, which the orchestrator sets in this
process's environment before it starts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from repro import (
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    clear_plan_cache,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import compile_stats
from repro.dev.manager import shutdown_device_workers
from repro.kernels import AxpyElementsKernel, GemmOmpStyleKernel, Jacobi2DKernel
from repro.runtime import get_plan, plan_cache_info

import floor
from floor import ITEMS
from spans import Recorder, timed
from stats import hit_rate, median, read_peak_rss_mb, summarize_ops

BACKEND = "AccCpuOmp2Blocks"
AXPY_BLOCKS = 1024
AXPY_SPAN_BLOCKS = 16
GEMM_ROWS_PER_BLOCK = 16
#: Every tenth probe is a cold one (``plan.miss_us``,
#: ``compile.trace_ms``, ``graph.cold_submit_ms``): a cold pass costs a
#: trace and compile of every item.
COLD_EVERY = 10
WARM_PASSES = 8


class LaunchPass:
    """The five items with their buffers staged on the device."""

    def __init__(self, inputs: Dict[str, np.ndarray]):
        self.acc = accelerator(BACKEND)
        self.dev = get_dev_by_idx(self.acc, 0)
        self.queue = QueueBlocking(self.dev)
        self.bufs = {name: self._stage(arr) for name, arr in inputs.items()}
        self.bufs["jacobi_scratch"] = mem.alloc(
            self.dev, inputs["jacobi"].shape, pitched=False
        )
        b = self.bufs
        axpy = AxpyElementsKernel()
        self.tasks = {
            "tiny": create_task_kernel(
                self.acc, WorkDivMembers.make(1, 1, floor.TINY_N),
                axpy, floor.TINY_N, floor.ALPHA, b["tiny_x"], b["tiny_y"],
            ),
            "axpy_blocks": create_task_kernel(
                self.acc,
                WorkDivMembers.make(AXPY_BLOCKS, 1, floor.AXPY_N // AXPY_BLOCKS),
                axpy, floor.AXPY_N, floor.ALPHA, b["blocks_x"], b["blocks_y"],
            ),
            "axpy_spans": create_task_kernel(
                self.acc,
                WorkDivMembers.make(AXPY_SPAN_BLOCKS, 1, floor.AXPY_N // AXPY_SPAN_BLOCKS),
                axpy, floor.AXPY_N, floor.ALPHA, b["spans_x"], b["spans_y"],
            ),
            "gemm": create_task_kernel(
                self.acc,
                WorkDivMembers.make(floor.GEMM_N // GEMM_ROWS_PER_BLOCK, 1, GEMM_ROWS_PER_BLOCK),
                GemmOmpStyleKernel(), floor.GEMM_N, floor.GEMM_ALPHA,
                b["gemm_a"], b["gemm_b"], floor.GEMM_BETA, b["gemm_c"],
            ),
        }
        hw = floor.JACOBI_HW
        elems = Vec(8, 16)
        self._jacobi_div = WorkDivMembers.make(
            Vec(hw, hw).ceil_div(elems), Vec(1, 1), elems
        )
        self._jacobi_kernel = Jacobi2DKernel()
        self._items = {
            "tiny": self._tiny,
            "axpy_blocks": lambda rec: self.queue.enqueue(self.tasks["axpy_blocks"]),
            "axpy_spans": lambda rec: self.queue.enqueue(self.tasks["axpy_spans"]),
            "gemm": lambda rec: self.queue.enqueue(self.tasks["gemm"]),
            "jacobi_graph": self._jacobi,
        }

    def _stage(self, host: np.ndarray):
        buf = mem.alloc(self.dev, host.shape, dtype=host.dtype, pitched=False)
        mem.copy(self.queue, buf, host)
        return buf

    def _tiny(self, rec) -> None:
        task = self.tasks["tiny"]
        for _ in range(floor.TINY_LAUNCHES):
            self.queue.enqueue(task)

    def record_graph(self) -> Graph:
        hw = floor.JACOBI_HW
        src, dst = self.bufs["jacobi"], self.bufs["jacobi_scratch"]
        g = Graph()
        for sweep in range(floor.JACOBI_SWEEPS):
            g.launch(
                self.acc, self._jacobi_div, self._jacobi_kernel,
                hw, hw, floor.JACOBI_C, src, dst,
                reads=[src], writes=[dst], label=f"sweep{sweep}",
            )
            src, dst = dst, src
        return g

    def _jacobi(self, rec) -> None:
        _, g = timed(rec, "graph.record", self.record_graph)
        timed(rec, "graph.submit", g.submit)

    def run_item(self, name: str, rec: Optional[Recorder] = None) -> float:
        seconds, _ = timed(rec, "kernels." + name, self._items[name], rec)
        return seconds

    def run(self, rec: Optional[Recorder] = None) -> Dict[str, float]:
        """One op: every item once, in order; seconds per item."""
        return {name: self.run_item(name, rec) for name in ITEMS}

    def outputs(self) -> Dict[str, np.ndarray]:
        out = {}
        for item, key in (
            ("tiny", "tiny_y"), ("axpy_blocks", "blocks_y"),
            ("axpy_spans", "spans_y"), ("gemm", "gemm_c"),
            ("jacobi_graph", "jacobi"),
        ):
            buf = self.bufs[key]
            host = np.empty(tuple(buf.extent), dtype=buf.dtype)
            mem.copy(self.queue, host, buf)
            out[item] = host
        return out

    def free(self) -> None:
        for buf in self.bufs.values():
            buf.free()


def _per_item() -> Dict[str, List[float]]:
    return {name: [] for name in ITEMS}


@dataclass
class _Loop:
    """Result of a closed loop of passes (verified-correct ops only in
    the time lists)."""

    op_seconds: List[float] = field(default_factory=list)
    item_seconds: Dict[str, List[float]] = field(default_factory=_per_item)
    floor_seconds: Dict[str, List[float]] = field(default_factory=_per_item)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0


def run_loop(
    lp: LaunchPass, fp: floor.FloorPass, seconds: float, min_ops: int,
    rec: Optional[Recorder] = None,
) -> _Loop:
    """Passes back to back, each followed by its numpy twin and the
    comparison of the two (after the op's end timestamp)."""
    loop = _Loop()
    start = time.perf_counter()
    while True:
        op = loop.attempted
        if rec is None:
            t0 = time.perf_counter()
            items = lp.run()
            op_seconds = time.perf_counter() - t0
        else:
            with rec.span("op", op=op) as root:
                items = lp.run(rec)
            op_seconds = root.duration
        floors = fp.run()
        loop.attempted += 1
        if floor.outputs_match(lp.outputs(), fp.outputs()):
            loop.op_seconds.append(op_seconds)
            for name in ITEMS:
                loop.item_seconds[name].append(items[name])
                loop.floor_seconds[name].append(floors[name])
        else:
            loop.failed += 1
        loop.wall = time.perf_counter() - start
        if loop.wall >= seconds and loop.attempted >= min_ops:
            return loop


def overhead_x(loop: _Loop) -> float:
    """Geometric mean over the items of the median ratio of an item to
    its twin in the same pass, so a 150 us launch weighs as much as a
    40 ms one."""
    logs = [
        np.log(median([
            i / f for i, f in zip(loop.item_seconds[n], loop.floor_seconds[n])
        ]))
        for n in ITEMS
    ]
    return float(np.exp(np.mean(logs)))


def summarize(loop: _Loop) -> dict:
    twin_seconds = [sum(per_item) for per_item in zip(*loop.floor_seconds.values())]
    out = summarize_ops(
        loop.op_seconds, twin_seconds, loop.attempted, loop.failed, loop.wall
    )
    if loop.op_seconds:
        out["metrics"]["overhead_x"] = overhead_x(loop)
    return out


def _vectorized_items(lp: LaunchPass) -> List[str]:
    """Items whose launches execute as compiled replays (a plan marked
    ``compiled`` may still fall back to interpretation every launch)."""
    out = []
    for name in ITEMS:
        before = compile_stats()["compiled_launches"]
        lp.run_item(name)
        if compile_stats()["compiled_launches"] > before:
            out.append(name)
    return out


def _per_layer(
    lp, fp, seconds: float, min_ops: int, probe_reps: int, rec: Recorder
) -> dict:
    """The traced run: an untraced loop, the same loop with a span per
    item, then probes that time one layer call each."""
    compiled = os.environ.get("REPRO_SCHEDULER") == "compiled"
    plain = run_loop(lp, fp, 0.3 * seconds, min_ops)
    stats0, cache0 = compile_stats(), plan_cache_info()
    traced = run_loop(lp, fp, 0.3 * seconds, min_ops, rec)
    stats1, cache1 = compile_stats(), plan_cache_info()
    ops = max(1, traced.attempted)

    m: Dict[str, float] = dict(summarize(plain)["raw"])
    item_p50 = {n: median(traced.item_seconds[n]) for n in ITEMS}
    for name in ITEMS:
        unit, scale = ("us", 1e6) if name == "tiny" else ("ms", 1e3)
        m[f"kernels.{name}_{unit}"] = item_p50[name] * scale
        m[f"floor.{name}_ms"] = median(traced.floor_seconds[name]) * 1e3
        m[f"kernels.{name}_flops"] = floor.ITEM_FLOPS[name]
        m[f"kernels.{name}_bytes"] = floor.ITEM_BYTES[name]

    m["queue.enqueue_us"] = item_p50["tiny"] / floor.TINY_LAUNCHES * 1e6
    m["scheduler.per_block_us"] = item_p50["axpy_blocks"] / AXPY_BLOCKS * 1e6
    m["plan.hit_rate"] = hit_rate(cache0, cache1)

    def wanted(task) -> str:
        # The runtime runs a one-block grid inline by design.
        if compiled:
            return "compiled"
        return "sequential" if task.work_div.block_count == 1 else "pooled"

    m["scheduler.fallbacks"] = sum(
        get_plan(task, lp.dev).schedule != wanted(task) for task in lp.tasks.values()
    )
    vectorized = _vectorized_items(lp)
    fp.run()  # keep the twin in step with the extra pass above
    m["compile.vectorized_share"] = len(vectorized) / len(ITEMS)
    m["compile.replay_ms"] = sum(item_p50[n] for n in vectorized) * 1e3
    m["compile.fallbacks"] = (
        sum(stats1["fallbacks"].values()) - sum(stats0["fallbacks"].values())
    ) / ops
    m["compile.retraces"] = stats1["retraces"] - stats0["retraces"]

    m["graph.record_us"] = median(rec.durations("graph.record")) * 1e6
    m["graph.replay_us_per_node"] = (
        median(rec.durations("graph.submit")) / floor.JACOBI_SWEEPS * 1e6
    )

    tiny = lp.tasks["tiny"]
    m["plan.hit_us"] = median(
        [timed(rec, "plan.hit", get_plan, tiny, lp.dev)[0] for _ in range(probe_reps)]
    ) * 1e6

    # Cold probes last: clearing the plan cache drops the compiled
    # replays too, so every launch after it traces again.
    miss, cold_items, cold_graph = [], {n: [] for n in vectorized}, []
    for _ in range(max(1, probe_reps // COLD_EVERY)):
        clear_plan_cache()
        miss.append(timed(rec, "plan.miss", get_plan, tiny, lp.dev)[0])
        clear_plan_cache()
        cold = {n: timed(rec, "cold." + n, lp.run_item, n)[0] for n in ITEMS}
        for n in vectorized:
            cold_items[n].append(cold[n])
        cold_graph.append(cold["jacobi_graph"])
        fp.run()
    m["plan.miss_us"] = median(miss) * 1e6
    m["graph.cold_submit_ms"] = median(cold_graph) * 1e3
    m["compile.trace_ms"] = sum(
        max(0.0, median(cold_items[n]) - item_p50[n]) for n in vectorized
    ) * 1e3

    correct = floor.outputs_match(lp.outputs(), fp.outputs())
    p50_plain, p50_traced = median(plain.op_seconds), median(traced.op_seconds)
    m["trace.overhead_share"] = p50_traced / p50_plain - 1.0
    root_self = rec.self_times()["op"]
    m["trace.unattributed_share"] = median(
        [s / d for s, d in zip(root_self, rec.durations("op"))]
    )
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed + (0 if correct else 1),
        "metrics": m,
    }


def run(
    workload: str, seed: int, seconds: float, min_ops: int, probe_reps: int,
    trace: bool, ready,
) -> dict:
    """Set up, signal ``ready()``, measure, tear down.  ``seconds <= 0``
    stops after set-up (a set-up probe)."""
    if (workload == "launch_compiled") != (
        os.environ.get("REPRO_SCHEDULER") == "compiled"
    ):
        raise RuntimeError(f"{workload}: REPRO_SCHEDULER does not fit the workload")
    inputs = floor.launch_inputs(seed)
    lp = LaunchPass(inputs)
    try:
        fp = floor.FloorPass(inputs)
        # Warm-up: every shape once (plan-cache fill; trace and compile
        # under the compiled schedule), then on until the block pool's
        # start-up transient — the first second of passes runs three
        # times slower — is over.
        for _ in range(WARM_PASSES):
            lp.run()
            fp.run()
        if not floor.outputs_match(lp.outputs(), fp.outputs()):
            raise RuntimeError("warm-up pass does not match its numpy twin")
        ready()
        if seconds <= 0:
            return {"attempted": 0, "failed": 0, "metrics": {}}
        if trace:
            rec = Recorder()
            out = _per_layer(lp, fp, seconds, min_ops, probe_reps, rec)
            out["recorder"] = rec
            return out
        out = summarize(run_loop(lp, fp, seconds, min_ops))
        out["metrics"]["peak_rss_mb"] = read_peak_rss_mb()
        return out
    finally:
        lp.free()
        shutdown_device_workers()
