"""Gateway end-to-end: submit → batch → execute → resolve, plus
backpressure, error delivery, fairness accounting and shutdown."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.errors import ServeError
from repro.serve import (
    Gateway,
    GatewayClosed,
    RetryAfter,
    ServeConfig,
)

from . import Slow, calls


@pytest.fixture
def gateway():
    gw = Gateway(ServeConfig(batch_window=0.002, drain_timeout=30.0))
    yield gw
    gw.shutdown(release_pools=False)


def _occupy_loop(gw):
    """Launch a gated ``Slow`` batch and return its handle once it runs
    on the gateway's loop thread; ``Slow.gate.set()`` lets it finish.
    Until then every request offered waits for the next step."""
    Slow.started.clear()
    Slow.gate.clear()
    gated = gw.launch("test_slow_overlap", params={"gate": 1})
    assert Slow.started.wait(timeout=30)
    return gated


def _overlapping_pair(gw, launch):
    """Three ``launch()`` calls, the last parked in a held batch, the
    way real traffic gets one: the first two are offered while a gated
    batch occupies the loop thread, so the next step adds both to one
    open batch, which gives their key company, and the key's next batch
    opens held.  Returns the pair's handles and the held one."""
    gated = _occupy_loop(gw)
    try:
        pair = [launch(), launch()]
    finally:
        Slow.gate.set()
    gated.result(timeout=30)
    assert [h.result(timeout=30).batch_size for h in pair] == [2, 2]
    added = calls(gw.batcher, "add")
    held = launch()
    assert added.acquire(timeout=30)  # the held one reached the batcher
    assert gw.stats()["batcher"]["held"] == 1
    return pair, held


def _axpy_args(rng, n=128):
    return {
        "params": {"alpha": 2.0},
        "arrays": {
            "x": rng.standard_normal(n),
            "y": rng.standard_normal(n),
        },
    }


class TestEndToEnd:
    def test_single_launch(self, gateway, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        handle = gateway.launch(
            "axpy", params={"alpha": 3.0}, arrays={"x": x, "y": y}
        )
        result = handle.result(timeout=30)
        assert np.array_equal(result.arrays["y"], 3.0 * x + y)
        assert result.latency > 0
        assert result.lane

    def test_concurrent_burst_batches(self, gateway, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        handles = [
            gateway.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            )
            for _ in range(8)
        ]
        results = [h.result(timeout=30) for h in handles]
        assert all(
            np.array_equal(r.arrays["y"], 2.0 * x + y) for r in results
        )
        # The burst lands inside one window: at least one merged batch.
        assert max(r.batch_size for r in results) > 1

    def test_a_batch_of_two_tenants_is_accounted_per_tenant(self, gateway, rng):
        """A finished batch is settled once: each member's admission slot
        freed, its completion counted under its own tenant and its
        latency observed, before its handle resolves."""
        from repro.telemetry.metrics import registry

        def completed(tenant):
            return sum(
                i.value for i in registry().instruments("repro_serve_requests_total")
                if dict(i.labels) == {"tenant": tenant, "outcome": "completed"}
            )

        before = {t: completed(t) for t in ("batch-a", "batch-b")}
        args = _axpy_args(rng)
        gated = _occupy_loop(gateway)
        try:
            handles = [
                gateway.launch("axpy", tenant=tenant, **args)
                for tenant in ("batch-a", "batch-b", "batch-b")
            ]
        finally:
            Slow.gate.set()
        gated.result(timeout=30)
        results = [h.result(timeout=30) for h in handles]
        assert [r.batch_size for r in results] == [3, 3, 3]
        assert completed("batch-a") - before["batch-a"] == 1
        assert completed("batch-b") - before["batch-b"] == 2
        tenants = gateway.stats()["tenants"]
        assert tenants["batch-a"]["inflight"] == 0 and tenants["batch-a"]["completed"] == 1
        assert tenants["batch-b"]["inflight"] == 0 and tenants["batch-b"]["completed"] == 2
        latencies = {
            dict(i.labels)["tenant"]: i.count
            for i in registry().instruments("repro_serve_latency_seconds")
        }
        assert latencies["batch-a"] >= 1 and latencies["batch-b"] >= 2

    def test_sequential_solo_launches_pay_no_window(self, rng):
        """A closed-loop client (next launch after the reply) is alone
        every time: no batch of its key is ever opened held.  Asserted
        on the batcher's counter, not on wall time."""
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        with Gateway() as gw:
            assert gw.config.batch_window > 0
            for _ in range(20):
                r = gw.launch(
                    "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
                ).result(timeout=30)
                assert r.batch_size == 1
                assert np.array_equal(r.arrays["y"], 2.0 * x + y)
            batcher = gw.stats()["batcher"]
            assert (batcher["held"], batcher["immediate"]) == (0, 20)
            gw.shutdown(release_pools=False)

    def test_hold_decision_is_on_the_span_and_the_trace_record(self, rng):
        from repro import telemetry
        from repro.telemetry import tracing

        window = 0.02
        root = tracing.new_trace()
        with Gateway(ServeConfig(batch_window=window)) as gw:
            with telemetry.collect() as t, tracing.use(root):
                _, last = _overlapping_pair(
                    gw, lambda: gw.launch("axpy", **_axpy_args(rng))
                )
                last.result(timeout=30)
            health_ok, health = gw._health()
            gw.shutdown(release_pools=False)
        events = telemetry.to_chrome_trace(t)["traceEvents"]
        spans = [
            ev for ev in events
            if ev["name"] == "serve.request" and ev["args"]["workload"] == "axpy"
        ]
        assert len(spans) == 3
        assert sorted(ev["args"]["held"] for ev in spans) == [False, False, True]
        (held,) = (ev for ev in spans if ev["args"]["held"])
        assert held["args"]["batch_wait_s"] >= window * 0.9
        # The same span's record, as /traces reads it from the log.
        record = next(
            r for r in telemetry.spanlog.log().recent(8, kind="serve.request")
            if r["request_id"] == last.request.request_id
        )
        assert record["held"] is True
        assert record["batch_wait_s"] >= window * 0.9
        assert health_ok and health["batcher"]["held"] == 1

    def test_batched_result_bit_identical_to_solo(self, rng):
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        with Gateway(
            ServeConfig(enable_batching=False, batch_window=0.0)
        ) as solo_gw:
            solo = solo_gw.launch(
                "axpy", params={"alpha": 1.3}, arrays={"x": x, "y": y}
            ).result(timeout=30)
            assert solo.batch_size == 1
            solo_gw.shutdown(release_pools=False)
        with Gateway(ServeConfig(batch_window=0.005)) as batch_gw:
            handles = [
                batch_gw.launch(
                    "axpy", params={"alpha": 1.3}, arrays={"x": x, "y": y}
                )
                for _ in range(4)
            ]
            results = [h.result(timeout=30) for h in handles]
            batch_gw.shutdown(release_pools=False)
        for r in results:
            assert np.array_equal(r.arrays["y"], solo.arrays["y"])

    def test_graph_submission(self, gateway):
        plate = np.zeros((16, 16))
        plate[0, :] = 100.0
        handle = gateway.submit_graph(
            "heat_equation",
            params={"steps": 3, "c": 0.2},
            arrays={"plate": plate},
        )
        result = handle.result(timeout=60)
        out = result.arrays["plate"]
        assert out.shape == (16, 16)
        assert out[1, 1] > 0  # heat diffused off the hot edge
        assert result.batch_size == 1  # graphs never merge

    def test_mixed_tenants_complete(self, gateway, rng):
        handles = []
        for tenant in ("alice", "bob", "carol"):
            for _ in range(4):
                handles.append(
                    gateway.launch(
                        "axpy", tenant=tenant, **_axpy_args(rng)
                    )
                )
        for h in handles:
            h.result(timeout=30)
        stats = gateway.stats()
        assert stats["requests"]["completed"] == 12
        assert set(stats["tenants"]) == {"alice", "bob", "carol"}

    def test_await_handle(self, gateway, rng):
        import asyncio

        async def run():
            handle = gateway.launch("axpy", **_axpy_args(rng))
            return await handle

        result = asyncio.run(run())
        assert "y" in result.arrays


class TestValidationAndErrors:
    def test_invalid_request_rejected_at_submit(self, gateway):
        with pytest.raises(ServeError):
            gateway.launch("axpy", params={"alpha": 1.0}, arrays={})
        # Nothing was admitted or leaked.
        assert gateway.pending() == 0

    def test_unknown_workload_rejected(self, gateway):
        with pytest.raises(ServeError, match="unknown workload"):
            gateway.launch("definitely_not_registered")

    def test_unknown_backend_rejected(self, gateway, rng):
        with pytest.raises(ServeError, match="no lane"):
            gateway.launch(
                "axpy", backend="AccGpuHypothetical", **_axpy_args(rng)
            )

    def test_execution_error_fails_only_that_handle(self, gateway, rng):
        from repro.serve import register_workload, Workload

        class Exploding(Workload):
            name = "test_exploding"

            def validate(self, req):
                pass

            def execute(self, requests, acc_type, device):
                raise RuntimeError("boom")

        try:
            register_workload(Exploding())
        except ServeError:
            pass  # registered by an earlier test run
        bad = gateway.launch("test_exploding")
        good = gateway.launch("axpy", **_axpy_args(rng))
        with pytest.raises(RuntimeError, match="boom"):
            bad.result(timeout=30)
        good.result(timeout=30)  # the lane survived the failure
        assert gateway.stats()["requests"]["failed"] == 1


class TestBackpressure:
    def test_retry_after_when_queue_full(self, rng):
        # One-request queue, no step progress possible during the
        # flood: the second offer must bounce.
        gw = Gateway(
            ServeConfig(
                queue_bound=1, tenant_inflight=1, batch_window=0.0
            )
        )
        try:
            args = _axpy_args(rng, n=20_000)
            seen_retry = False
            handles = []
            for _ in range(50):
                try:
                    handles.append(gateway_launch(gw, args))
                except RetryAfter as exc:
                    seen_retry = True
                    assert exc.delay > 0
                    break
            assert seen_retry
            for h in handles:
                h.result(timeout=30)
        finally:
            gw.shutdown(release_pools=False)


def gateway_launch(gw, args):
    return gw.launch("axpy", **args)


class TestShutdown:
    def test_shutdown_drains_inflight(self, rng):
        gw = Gateway(ServeConfig(batch_window=0.002))
        handles = [
            gw.launch("axpy", **_axpy_args(rng)) for _ in range(6)
        ]
        assert gw.shutdown(release_pools=False) is True
        for h in handles:
            assert "y" in h.result(timeout=1).arrays

    def test_submit_after_shutdown_raises(self, rng):
        gw = Gateway(ServeConfig(batch_window=0.0))
        gw.shutdown(release_pools=False)
        with pytest.raises(GatewayClosed):
            gw.launch("axpy", **_axpy_args(rng))

    def test_shutdown_idempotent(self):
        gw = Gateway(ServeConfig(batch_window=0.0))
        assert gw.shutdown(release_pools=False) is True
        assert gw.shutdown(release_pools=False) is True

    def test_abort_fails_queued_handles(self, rng):
        # Tiny in-flight cap + many requests: most sit in the admission
        # queue when the abort lands.
        gw = Gateway(
            ServeConfig(
                batch_window=0.0, tenant_inflight=1, queue_bound=256
            )
        )
        args = _axpy_args(rng, n=50_000)
        handles = [gw.launch("axpy", **args) for _ in range(30)]
        gw.shutdown(drain=False, release_pools=False)
        outcomes = {"ok": 0, "closed": 0}
        for h in handles:
            try:
                h.result(timeout=5)
                outcomes["ok"] += 1
            except GatewayClosed:
                outcomes["closed"] += 1
        assert outcomes["ok"] + outcomes["closed"] == 30
        assert outcomes["closed"] > 0, "abort should strand queued work"

    def test_abort_fails_stranded_handles_without_waiting(self):
        """Stranded work never reaches a lane, so the abort fails it at
        once — not after the wait for what is already running."""
        from repro.serve import Workload, register_workload

        class Gated(Workload):
            name = "test_gated"
            started, gate = threading.Event(), threading.Event()

            def validate(self, req):
                pass

            def execute(self, requests, acc_type, device):
                type(self).started.set()
                assert type(self).gate.wait(timeout=30)
                return [{} for _ in requests]

        try:
            register_workload(Gated())
        except ServeError:
            pass  # registered by an earlier test run
        Gated.started.clear()
        Gated.gate.clear()
        gw = Gateway(ServeConfig(batch_window=0.0, tenant_inflight=1))
        running = gw.launch("test_gated")
        try:
            assert Gated.started.wait(timeout=30)
            stranded = [gw.launch("test_gated") for _ in range(5)]
            aborting = threading.Thread(
                target=gw.shutdown, kwargs={"drain": False, "release_pools": False}
            )
            aborting.start()
            for handle in stranded:
                with pytest.raises(GatewayClosed):
                    handle.result(timeout=10)
            assert not Gated.gate.is_set() and not running.done()
        finally:
            Gated.gate.set()
        aborting.join(timeout=30)
        assert not aborting.is_alive()
        running.result(timeout=10)

    def test_no_leaked_pump_thread(self):
        """The one thread an in-process gateway starts, its loop
        thread, is gone after shutdown and its loop closed."""
        gw = Gateway(ServeConfig(batch_window=0.0))
        thread = gw._loop_thread
        assert thread.is_alive()
        gw.shutdown(release_pools=False)
        thread.join(timeout=5)
        assert not thread.is_alive() and gw._loop.is_closed()

    def test_context_manager(self, rng):
        with Gateway(ServeConfig(batch_window=0.002)) as gw:
            h = gw.launch("axpy", **_axpy_args(rng))
            h.result(timeout=30)
        assert gw.closed


class TestThreadedClients:
    def test_many_threads_share_gateway(self, gateway, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        expected = 2.0 * x + y
        errors = []

        def client(tenant):
            try:
                for _ in range(5):
                    r = gateway.launch(
                        "axpy",
                        tenant=tenant,
                        params={"alpha": 2.0},
                        arrays={"x": x, "y": y},
                    ).result(timeout=30)
                    assert np.array_equal(r.arrays["y"], expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(f"t{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert gateway.stats()["requests"]["completed"] == 40

    def test_threads_coalesce_without_a_server_and_shut_down_clean(self, rng):
        """An in-process gateway steps on its one loop thread: requests
        that threads submit while a batch occupies that thread meet in
        one batch at the next step, and shutdown leaves the loop thread
        stopped and its loop closed."""
        n = 6
        gw = Gateway(
            ServeConfig(
                batch_window=30.0, batch_max=n, lanes=(("AccCpuSerial", 0),)
            )
        )
        args = _axpy_args(rng, n=64)
        handles = []
        gated = _occupy_loop(gw)
        try:
            threads = [
                threading.Thread(
                    target=lambda: handles.append(gw.launch("axpy", **args))
                )
                for _ in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            Slow.gate.set()
        gated.result(timeout=30)
        # The first opens the key's batch unheld, the others join it,
        # and it flushes full: the 30 s window is never waited for.
        results = [h.result(timeout=30) for h in handles]
        assert [r.batch_size for r in results] == [n] * n
        expected = 2.0 * args["arrays"]["x"] + args["arrays"]["y"]
        assert all(np.array_equal(r.arrays["y"], expected) for r in results)
        thread = gw._loop_thread
        assert gw.shutdown(release_pools=False) is True
        thread.join(timeout=5)
        assert not thread.is_alive() and gw._loop.is_closed()

    def test_same_key_burst_still_coalesces(self, rng):
        """32 threads on one key: the first request runs unheld, the
        ones that arrive while it is inside earn the key its window —
        merged launches appear and every result stays bit-identical.

        Doubles as the stress test of the thread -> loop hand-off of
        submissions (short switch interval, more threads than cores): one
        lost note would leave the key "inside" for good, and every later
        request of it would be held."""
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        expected = 2.0 * x + y
        start = threading.Barrier(32)
        sizes, errors = [], []

        def launch(tenant):
            r = gw.launch(
                "axpy",
                tenant=tenant,
                params={"alpha": 2.0},
                arrays={"x": x, "y": y},
            ).result(timeout=30)
            assert np.array_equal(r.arrays["y"], expected)
            return r

        def client(tenant):
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    sizes.append(launch(tenant).batch_size)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Gateway() as gw:
                threads = [
                    threading.Thread(target=client, args=(f"t{i % 4}",))
                    for i in range(32)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                assert len(sizes) == 96
                assert max(sizes) > 1
                # Alone again: one wasted window at most, then no hold.
                launch("t0")
                held = gw.stats()["batcher"]["held"]
                assert held >= 1
                assert launch("t0").batch_size == 1
                assert gw.stats()["batcher"]["held"] == held
                gw.shutdown(release_pools=False)
        finally:
            sys.setswitchinterval(interval)
