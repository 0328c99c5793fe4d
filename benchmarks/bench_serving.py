"""Serving gateway acceptance bench: batching, fairness, identity, drain.

ROADMAP serving extension's acceptance gates, all against the
in-process :class:`repro.serve.Gateway` (the TCP layer adds only
framing, so the gateway is what the bounds are about):

* **batching throughput** — 1000 concurrent small axpy launches through
  a batching gateway finish at **>= 2x** the throughput of the same
  traffic with batching disabled (same lanes, same admission limits);
* **fair-share under abuse** — with one greedy tenant flooding the
  gateway, a well-behaved tenant's p99 latency stays **within 3x of its
  solo p99** (weighted deficit round-robin + per-tenant in-flight caps
  doing their job);
* **bit-identity** — results coming back from coalesced batches are
  bitwise equal to direct solo ``Workload.execute`` runs of the same
  payloads (a client cannot tell its launch was merged);
* **graceful shutdown** — after ``shutdown()`` no shared-memory segment
  and no block-worker pool survives, and every handle is resolved.

One number is reported and not gated: a **mixed two-lane burst**
(``AccCpuSerial`` + ``AccCpuOmp2Blocks``, 2000 axpy launches of 4096
elements from 8 threads, alternating lanes), in-process and over TCP —
req/s in ``BENCH_serving_two_lanes.json``.  Both lanes share the
gateway's loop thread: every batch runs there, one after another, so
the two lanes never run at the same time; this is where that shows.

The standalone smoke mode drives the full TCP path for CI::

    python benchmarks/bench_serving.py smoke

200 concurrent socket clients (plus one greedy flooder in phase two)
send mixed traffic; the run asserts the same fairness bound end-to-end
and writes the latency table to ``reports/serving_smoke.txt``.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro import accelerator, get_dev_by_idx
from repro.bench import write_bench_json, write_report
from repro.comparison import render_table
from repro.dev.manager import device_workers
from repro.serve import (
    Gateway,
    LaunchRequest,
    RetryAfter,
    ServeConfig,
    get_workload,
)

#: Small-launch fleet the throughput gate coalesces.
TOTAL_LAUNCHES = 1000
SMALL_N = 256

#: Well-behaved tenant's probe traffic for the fairness gate.
PROBE_REQUESTS = 60
PROBE_GAP = 0.002

#: Scheduler-noise floor for the p99 ratio: sub-2ms solo percentiles on
#: a shared CI runner are dominated by tick jitter, not by the gateway.
P99_FLOOR = 0.002


def _bench_config(**overrides) -> ServeConfig:
    """Wide-open admission so the gates isolate what they claim to
    measure (batching, fairness) instead of queue-bound artifacts."""
    base = dict(
        batch_window=0.004,
        batch_max=64,
        queue_bound=4096,
        tenant_inflight=4096,
        drain_timeout=120.0,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _submit_with_retry(gateway: Gateway, request) -> "object":
    """Offer honouring backpressure — what any sane client does."""
    while True:
        try:
            return gateway.submit(request)
        except RetryAfter as exc:
            time.sleep(min(exc.delay, 0.01))


# ---------------------------------------------------------------------------
# Gate 1: batching >= 2x unbatched throughput at 1000 small launches
# ---------------------------------------------------------------------------


def _run_fleet(batching: bool) -> dict:
    """Push TOTAL_LAUNCHES small axpy requests through one gateway from
    eight submitter threads; returns wall time and batch stats."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(SMALL_N)
    y = rng.standard_normal(SMALL_N)
    gateway = Gateway(_bench_config(enable_batching=batching))
    handles = []
    handles_lock = threading.Lock()
    threads = 8
    per_thread = TOTAL_LAUNCHES // threads
    barrier = threading.Barrier(threads + 1)

    def submitter():
        barrier.wait(timeout=60)
        local = []
        for _ in range(per_thread):
            local.append(
                _submit_with_retry(
                    gateway,
                    LaunchRequest(
                        workload="axpy",
                        params={"alpha": 2.0},
                        arrays={"x": x, "y": y},
                    ),
                )
            )
        with handles_lock:
            handles.extend(local)

    workers = [threading.Thread(target=submitter) for _ in range(threads)]
    for t in workers:
        t.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for t in workers:
        t.join(timeout=300)
    results = [h.result(timeout=300) for h in handles]
    wall = time.perf_counter() - start
    gateway.shutdown(release_pools=False)

    expected = 2.0 * x + y
    for res in results:
        np.testing.assert_array_equal(res.arrays["y"], expected)
    sizes = [res.batch_size for res in results]
    return {
        "wall": wall,
        "throughput": len(results) / wall,
        "max_batch": max(sizes),
        "mean_batch": float(np.mean(sizes)),
    }


def test_serving_batching_throughput(benchmark):
    """The coalescer pays for itself: >= 2x throughput over the
    unbatched gateway at 1000 concurrent small launches."""

    def run():
        return {
            "unbatched": _run_fleet(batching=False),
            "batched": _run_fleet(batching=True),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "mode": mode,
            "wall [s]": f"{s['wall']:7.3f}",
            "req/s": f"{s['throughput']:9.1f}",
            "max batch": s["max_batch"],
            "mean batch": f"{s['mean_batch']:6.2f}",
        }
        for mode, s in stats.items()
    ]
    speedup = (
        stats["batched"]["throughput"] / stats["unbatched"]["throughput"]
    )
    text = render_table(
        rows,
        f"Serving: {TOTAL_LAUNCHES} small launches, batched vs unbatched "
        f"(speedup {speedup:.2f}x, bound >= 2x)",
    )
    print("\n" + text)
    write_report("serving_throughput.txt", text)
    write_bench_json("serving_throughput", {
        "batched_throughput": (stats["batched"]["throughput"], "req/s"),
        "unbatched_throughput": (
            stats["unbatched"]["throughput"], "req/s"
        ),
        "batching_speedup": speedup,
        "batched_max_batch": stats["batched"]["max_batch"],
        "batched_mean_batch": stats["batched"]["mean_batch"],
    })

    # The batcher really ran (not 1000 singleton "batches")...
    assert stats["batched"]["max_batch"] > 1, stats
    assert stats["unbatched"]["max_batch"] == 1, stats
    # ...and the acceptance bound holds.
    assert speedup >= 2.0, stats


# ---------------------------------------------------------------------------
# Gate 2: greedy tenant cannot blow up a well-behaved tenant's p99
# ---------------------------------------------------------------------------


def _probe_latencies(gateway: Gateway) -> np.ndarray:
    """The well-behaved tenant: paced small requests, solo or not."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal(SMALL_N)
    y = rng.standard_normal(SMALL_N)
    handles = []
    for _ in range(PROBE_REQUESTS):
        handles.append(
            _submit_with_retry(
                gateway,
                LaunchRequest(
                    workload="axpy",
                    tenant="steady",
                    params={"alpha": 3.0},
                    arrays={"x": x, "y": y},
                ),
            )
        )
        time.sleep(PROBE_GAP)
    return np.array([h.result(timeout=300).latency for h in handles])


def _fairness_config() -> ServeConfig:
    """Realistic limits: bounded queues and in-flight caps are exactly
    the mechanism that contains the greedy tenant.  The tight in-flight
    cap matters — it bounds how much greedy work can sit ahead of a
    steady request on the lane (head-of-line blocking), which no amount
    of admission-order fairness can undo after the fact."""
    return ServeConfig(
        batch_window=0.002,
        batch_max=32,
        queue_bound=64,
        tenant_inflight=2,
        tenant_weights={"steady": 4.0},
        drain_timeout=120.0,
    )


def test_serving_fairness_greedy_tenant(benchmark):
    """One tenant flooding as fast as backpressure lets it; the steady
    tenant's p99 stays within 3x its solo p99."""
    rng = np.random.default_rng(31)
    flood_x = rng.standard_normal(4096)
    flood_y = rng.standard_normal(4096)

    def run():
        with Gateway(_fairness_config()) as solo_gw:
            solo = _probe_latencies(solo_gw)
            solo_gw.shutdown(release_pools=False)

        gateway = Gateway(_fairness_config())
        stop = threading.Event()

        def greedy():
            # Distinct alpha: the flood must not merge into (and thereby
            # subsidize) the steady tenant's batches.
            handles = []
            while not stop.is_set():
                try:
                    handles.append(
                        gateway.submit(
                            LaunchRequest(
                                workload="axpy",
                                tenant="greedy",
                                params={"alpha": 9.0},
                                arrays={"x": flood_x, "y": flood_y},
                            )
                        )
                    )
                except RetryAfter as exc:
                    stop.wait(min(exc.delay, 0.005))
            for h in handles:
                try:
                    h.result(timeout=300)
                except Exception:
                    pass

        flooder = threading.Thread(target=greedy)
        flooder.start()
        time.sleep(0.05)  # let the flood build a backlog first
        try:
            contended = _probe_latencies(gateway)
        finally:
            stop.set()
            flooder.join(timeout=300)
            gateway.shutdown(release_pools=False)
        return solo, contended

    solo, contended = benchmark.pedantic(run, rounds=1, iterations=1)
    solo_p99 = float(np.percentile(solo, 99))
    contended_p99 = float(np.percentile(contended, 99))
    bound = 3 * max(solo_p99, P99_FLOOR)
    rows = [
        {
            "scenario": name,
            "p50 [ms]": f"{np.percentile(lat, 50) * 1e3:8.2f}",
            "p95 [ms]": f"{np.percentile(lat, 95) * 1e3:8.2f}",
            "p99 [ms]": f"{np.percentile(lat, 99) * 1e3:8.2f}",
        }
        for name, lat in (("solo", solo), ("vs greedy tenant", contended))
    ]
    text = render_table(
        rows,
        "Serving: steady tenant latency, solo vs under a greedy flood "
        f"(bound: p99 <= 3x solo p99 = {bound * 1e3:.2f} ms)",
    )
    print("\n" + text)
    write_report("serving_fairness.txt", text)
    write_bench_json("serving_fairness", {
        "solo_p99": (solo_p99, "s"),
        "contended_p99": (contended_p99, "s"),
        "p99_bound": (bound, "s"),
    })
    assert contended_p99 <= bound, (solo_p99, contended_p99)


# ---------------------------------------------------------------------------
# Gate 3: batched results are bit-identical to the direct solo path
# ---------------------------------------------------------------------------


def test_serving_batched_bit_identity():
    """A burst of mixed axpy/gemm requests coalesced by the gateway
    returns exactly the bytes the direct solo ``execute`` path yields."""
    rng = np.random.default_rng(5)
    acc = accelerator("AccCpuSerial")
    device = get_dev_by_idx(acc, 0)

    requests = []
    for _ in range(24):
        x = rng.standard_normal(257)
        y = rng.standard_normal(257)
        requests.append(
            LaunchRequest(
                workload="axpy",
                params={"alpha": 1.5},
                arrays={"x": x, "y": y},
            )
        )
    for _ in range(12):
        A = rng.standard_normal((96, 96))
        B = rng.standard_normal((96, 96))
        C = rng.standard_normal((96, 96))
        requests.append(
            LaunchRequest(
                workload="gemm",
                params={"alpha": 2.0, "beta": -1.0},
                arrays={"A": A, "B": B, "C": C},
            )
        )

    # Direct path first: one solo execute per request, untouched by the
    # gateway.  Payload copies keep the reference honest.
    reference = []
    for req in requests:
        solo = LaunchRequest(
            workload=req.workload,
            params=dict(req.params),
            arrays={k: v.copy() for k, v in req.arrays.items()},
        )
        reference.append(
            get_workload(req.workload).execute([solo], acc, device)[0]
        )

    gateway = Gateway(_bench_config(batch_window=0.01))
    try:
        handles = [gateway.submit(req) for req in requests]
        results = [h.result(timeout=300) for h in handles]
    finally:
        gateway.shutdown(release_pools=False)

    assert max(r.batch_size for r in results) > 1, "burst never batched"
    for res, ref in zip(results, reference):
        for name, ref_arr in ref.items():
            np.testing.assert_array_equal(
                res.arrays[name],
                ref_arr,
                err_msg=f"request #{res.request_id} array {name!r}",
            )


# ---------------------------------------------------------------------------
# Gate 4: graceful shutdown leaks nothing
# ---------------------------------------------------------------------------


def test_serving_shutdown_releases_everything():
    """After a drained shutdown: zero worker pools, every handle
    resolved, nothing pending, the gateway's loop thread gone."""
    rng = np.random.default_rng(17)
    gateway = Gateway(
        _bench_config(
            # A multi-core lane too, so the block thread pool actually
            # spins up and must be torn down again.
            lanes=(("AccCpuSerial", 0), ("AccCpuOmp2Blocks", 0)),
        )
    )
    handles = []
    for i in range(64):
        x = rng.standard_normal(SMALL_N)
        y = rng.standard_normal(SMALL_N)
        handles.append(
            _submit_with_retry(
                gateway,
                LaunchRequest(
                    workload="axpy",
                    backend=("AccCpuOmp2Blocks" if i % 2 else ""),
                    params={"alpha": 2.0},
                    arrays={"x": x, "y": y},
                ),
            )
        )
    drained = gateway.shutdown(drain=True, release_pools=True)
    assert drained, "graceful shutdown timed out"
    for h in handles:
        assert h.done()
        h.result(timeout=1)  # raises if anything was failed instead

    assert device_workers() == {}, "leaked block-worker pools"
    assert not gateway._loop_thread.is_alive()
    assert gateway.pending() == 0
    assert sum(lane.requests for lane in gateway.router.lanes) == 64


# ---------------------------------------------------------------------------
# Reported, not gated: a mixed burst over two lanes
# ---------------------------------------------------------------------------

TWO_LANES = (("AccCpuSerial", 0), ("AccCpuOmp2Blocks", 0))
BURST_REQUESTS = 2000
BURST_THREADS = 8
BURST_N = 4096


def _burst_payloads():
    """Per thread: its (backend, alpha, x, y) launches; lanes alternate
    and each lane keeps one alpha, so its requests may coalesce."""
    rng = np.random.default_rng(43)
    x = rng.standard_normal(BURST_N)
    y = rng.standard_normal(BURST_N)
    per_thread = BURST_REQUESTS // BURST_THREADS
    return [
        [(TWO_LANES[i % 2][0], 2.0 + i % 2, x, y) for i in range(per_thread)]
        for _ in range(BURST_THREADS)
    ]


def _run_threads(target, payloads) -> float:
    """Wall seconds for BURST_THREADS threads each running
    ``target(payload)``, released together."""
    barrier = threading.Barrier(BURST_THREADS + 1)
    errors = []

    def run(payload):
        barrier.wait(timeout=60)
        try:
            target(payload)
        except Exception as exc:  # noqa: BLE001 - reported after join
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for t in threads:
        t.join(timeout=300)
    wall = time.perf_counter() - start
    assert not errors, errors
    return wall


def _check(result, backend, alpha, x, y) -> None:
    assert result.lane.startswith(backend), (result.lane, backend)
    np.testing.assert_array_equal(result.arrays["y"], alpha * x + y)


def _burst_in_process(payloads) -> float:
    gateway = Gateway(_bench_config(lanes=TWO_LANES))

    def submit_all(payload):
        handles = [
            (_submit_with_retry(gateway, LaunchRequest(
                workload="axpy", backend=backend, params={"alpha": alpha},
                arrays={"x": x, "y": y},
            )), backend, alpha, x, y)
            for backend, alpha, x, y in payload
        ]
        for handle, *args in handles:
            _check(handle.result(timeout=300), *args)

    try:
        return _run_threads(submit_all, payloads)
    finally:
        gateway.shutdown(release_pools=False)


def _burst_over_tcp(payloads) -> float:
    """The same burst through one server (its own loop thread); each
    submitter thread pipelines its launches over one connection."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeServer

    started = threading.Event()
    box = {}

    async def serve():
        server = ServeServer(_bench_config(lanes=TWO_LANES, port=0))
        await server.start()
        box["port"], box["stop"] = server.port, asyncio.Event()
        started.set()
        try:
            await box["stop"].wait()
        finally:
            await server.stop()

    loop = asyncio.new_event_loop()
    server_thread = threading.Thread(target=loop.run_until_complete, args=(serve(),))
    server_thread.start()
    assert started.wait(60), "server did not start"

    async def client_burst(payload):
        async with ServeClient(port=box["port"]) as client:
            results = await asyncio.gather(*(
                client.launch("axpy", backend=backend, params={"alpha": alpha},
                              arrays={"x": x, "y": y})
                for backend, alpha, x, y in payload
            ))
        for result, args in zip(results, payload):
            _check(result, *args)

    try:
        return _run_threads(lambda p: asyncio.run(client_burst(p)), payloads)
    finally:
        loop.call_soon_threadsafe(box["stop"].set)
        server_thread.join(timeout=120)
        loop.close()


def test_serving_two_lane_burst():
    """Reported, not gated: req/s of a mixed two-lane burst, in-process
    and over TCP; every result is checked.  Both lanes share the
    gateway's loop thread, so their batches run one after another."""
    payloads = _burst_payloads()
    rates = {
        "in_process": BURST_REQUESTS / _burst_in_process(payloads),
        "tcp": BURST_REQUESTS / _burst_over_tcp(payloads),
    }
    rows = [{"path": path, "req/s": f"{rate:9.1f}"} for path, rate in rates.items()]
    text = render_table(
        rows,
        f"Serving: {BURST_REQUESTS} axpy launches (n={BURST_N}) from "
        f"{BURST_THREADS} threads over lanes AccCpuSerial + AccCpuOmp2Blocks "
        "(reported, not gated)",
    )
    print("\n" + text)
    write_report("serving_two_lanes.txt", text)
    write_bench_json("serving_two_lanes", {
        "in_process_throughput": (rates["in_process"], "req/s"),
        "tcp_throughput": (rates["tcp"], "req/s"),
    })


# ---------------------------------------------------------------------------
# Standalone smoke mode: the full TCP path under 200 clients (for CI)
# ---------------------------------------------------------------------------

SMOKE_CLIENTS = 200
SMOKE_PER_CLIENT = 4


async def _smoke_phase(port: int, greedy: bool) -> dict:
    """SMOKE_CLIENTS sockets, each sending SMOKE_PER_CLIENT small
    launches; when ``greedy`` a flooding client runs alongside."""
    from repro.serve.client import ServeClient

    rng = np.random.default_rng(41)
    x = rng.standard_normal(SMALL_N)
    y = rng.standard_normal(SMALL_N)
    expected = 2.0 * x + y
    latencies: list = []
    stop = asyncio.Event()

    async def fleet_client(idx: int) -> None:
        async with ServeClient(port=port) as client:
            for _ in range(SMOKE_PER_CLIENT):
                t0 = time.perf_counter()
                res = await client.launch(
                    "axpy",
                    tenant="fleet",
                    params={"alpha": 2.0},
                    arrays={"x": x, "y": y},
                )
                latencies.append(time.perf_counter() - t0)
                np.testing.assert_array_equal(res.arrays["y"], expected)

    async def greedy_client() -> None:
        big_x = rng.standard_normal(4096)
        big_y = rng.standard_normal(4096)
        async with ServeClient(port=port) as client:
            while not stop.is_set():
                await asyncio.gather(
                    *(
                        client.launch(
                            "axpy",
                            tenant="greedy",
                            params={"alpha": 9.0},
                            arrays={"x": big_x, "y": big_y},
                        )
                        for _ in range(8)
                    )
                )

    flood = asyncio.ensure_future(greedy_client()) if greedy else None
    if greedy:
        await asyncio.sleep(0.05)
    try:
        await asyncio.gather(
            *(fleet_client(i) for i in range(SMOKE_CLIENTS))
        )
    finally:
        stop.set()
        if flood is not None:
            await flood
    lat = np.array(latencies)
    return {
        "requests": len(lat),
        "p50": float(np.percentile(lat, 50)),
        "p95": float(np.percentile(lat, 95)),
        "p99": float(np.percentile(lat, 99)),
    }


async def _smoke_main() -> int:
    from repro.serve.server import ServeServer

    config = ServeConfig(
        port=0,
        batch_window=0.002,
        batch_max=64,
        queue_bound=64,
        tenant_inflight=8,
        tenant_weights={"fleet": 4.0},
        drain_timeout=120.0,
    )
    server = ServeServer(config=config)
    await server.start()
    try:
        solo = await _smoke_phase(server.port, greedy=False)
        contended = await _smoke_phase(server.port, greedy=True)
    finally:
        await server.stop()

    bound = 3 * max(solo["p99"], P99_FLOOR)
    rows = [
        {
            "phase": name,
            "requests": s["requests"],
            "p50 [ms]": f"{s['p50'] * 1e3:8.2f}",
            "p95 [ms]": f"{s['p95'] * 1e3:8.2f}",
            "p99 [ms]": f"{s['p99'] * 1e3:8.2f}",
        }
        for name, s in (
            ("200 clients solo", solo),
            ("200 clients + greedy flood", contended),
        )
    ]
    text = render_table(
        rows,
        f"Serving smoke: {SMOKE_CLIENTS} TCP clients, fleet-tenant p99 "
        f"bound {bound * 1e3:.2f} ms",
    )
    print("\n" + text)
    write_report("serving_smoke.txt", text)
    write_bench_json("serving_smoke", {
        "solo_p99": (solo["p99"], "s"),
        "contended_p99": (contended["p99"], "s"),
        "solo_requests": solo["requests"],
        "contended_requests": contended["requests"],
    })

    ok = True
    if solo["requests"] != SMOKE_CLIENTS * SMOKE_PER_CLIENT:
        print(f"smoke FAILED: lost requests in solo phase: {solo}")
        ok = False
    if contended["p99"] > bound:
        print(
            "smoke FAILED: fleet p99 "
            f"{contended['p99'] * 1e3:.2f} ms exceeds {bound * 1e3:.2f} ms"
        )
        ok = False
    if ok:
        print("smoke ok: fairness bound held")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "smoke":
        raise SystemExit(asyncio.run(_smoke_main()))
    raise SystemExit(pytest.main([__file__, "-v"]))
