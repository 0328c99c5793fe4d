"""Per-device schedulers: chunking, env-configured caps, determinism,
the ``REPRO_SCHEDULER`` override, fallbacks and pool lifetime."""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import (
    AccCpuFibers,
    AccCpuOmp2Blocks,
    AccCpuSerial,
    QueueBlocking,
    WorkDivMembers,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.core.vec import Vec
from repro.dev.manager import device_workers, shutdown_device_workers
from repro.kernels.axpy import AxpyElementsKernel
from repro.kernels.histogram import HistogramKernel, histogram_reference
from repro.runtime import clear_plan_cache, get_plan, shutdown_schedulers
from repro.runtime.scheduler import (
    MAX_BLOCK_WORKERS,
    SCHEDULER_ENV,
    CompiledScheduler,
    chunk_indices,
    resolve_max_block_workers,
    resolve_scheduler_override,
    scheduler_for,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestChunking:
    def test_chunks_cover_all_indices_in_order(self):
        idx = [Vec(i) for i in range(17)]
        chunks = chunk_indices(idx, 4)
        assert [v for c in chunks for v in c] == idx
        assert len(chunks) <= 4

    def test_chunk_size_is_ceil_div(self):
        idx = [Vec(i) for i in range(10)]
        chunks = chunk_indices(idx, 4)
        # ceil(10/4) = 3 -> chunk sizes 3,3,3,1
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_fewer_blocks_than_workers(self):
        idx = [Vec(i) for i in range(3)]
        chunks = chunk_indices(idx, 16)
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_empty_grid(self):
        assert chunk_indices([], 8) == []


class TestWorkerCap:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_BLOCK_WORKERS", raising=False)
        import os

        expected = min(MAX_BLOCK_WORKERS, max(2, os.cpu_count() or 1))
        assert resolve_max_block_workers() == expected

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_BLOCK_WORKERS", "3")
        assert resolve_max_block_workers() == 3

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_BLOCK_WORKERS", "0")
        assert resolve_max_block_workers() == 1

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_BLOCK_WORKERS", "lots")
        with pytest.raises(ValueError):
            resolve_max_block_workers()

    def test_cap_visible_in_device_properties(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        props = AccCpuOmp2Blocks.get_acc_dev_props(dev)
        assert props.max_block_workers == resolve_max_block_workers()

    def test_sequential_backend_reports_one_worker(self):
        from repro import AccCpuSerial

        dev = get_dev_by_idx(AccCpuSerial, 0)
        assert AccCpuSerial.get_acc_dev_props(dev).max_block_workers == 1

    def test_cap_applies_to_fresh_pool(self):
        """A subprocess with REPRO_MAX_BLOCK_WORKERS=2 builds a 2-worker
        pool and reports it through device properties."""
        code = (
            "from repro import AccCpuOmp2Blocks, get_dev_by_idx\n"
            "from repro.runtime.scheduler import scheduler_for\n"
            "dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)\n"
            "sched = scheduler_for(dev, 'pooled')\n"
            "props = AccCpuOmp2Blocks.get_acc_dev_props(dev)\n"
            "print(sched.worker_count, props.max_block_workers)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_MAX_BLOCK_WORKERS": "2"},
            cwd="/root/repo",
            check=True,
        )
        assert out.stdout.split() == ["2", "2"]


class TestDispatchSemantics:
    def test_pooled_grid_correctness_large(self):
        @fn_acc
        def bump(acc, data):
            from repro.core import Blocks, Grid, get_idx

            bi = get_idx(acc, Grid, Blocks)[0]
            data[bi] += 1.0

        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        n = 1000
        buf = mem.alloc(dev, n)
        mem.memset(q, buf, 0.0)
        q.enqueue(
            create_task_kernel(
                AccCpuOmp2Blocks, WorkDivMembers.make(n, 1, 1), bump, buf
            )
        )
        assert np.all(buf.as_numpy() == 1.0)
        buf.free()

    def test_fiber_interleaving_preserved_under_runtime(self):
        """The fiber back-end's deterministic round-robin survives the
        scheduler refactor: block order and intra-block fiber order are
        exactly reproducible."""

        @fn_acc
        def k(acc, out):
            from repro.core import Block, Blocks, Grid, Threads, get_idx

            bi = get_idx(acc, Grid, Blocks)[0]
            ti = get_idx(acc, Block, Threads)[0]
            order = acc.atomic_add(out, 0, 1.0)
            out[1 + bi * 4 + ti] = order
            acc.sync_block_threads()

        results = []
        for _ in range(3):
            dev = get_dev_by_idx(AccCpuFibers, 0)
            q = QueueBlocking(dev)
            out = mem.alloc(dev, 1 + 8)
            mem.memset(q, out, 0.0)
            q.enqueue(
                create_task_kernel(
                    AccCpuFibers, WorkDivMembers.make(2, 4, 1), k, out
                )
            )
            results.append(out.as_numpy().copy())
            out.free()
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[1], results[2])
        # Blocks sequential + fibers round-robin => arrival order is the
        # global linear (block, thread) order.
        np.testing.assert_array_equal(results[0][1:], np.arange(8.0))

    def test_error_in_one_chunk_propagates(self):
        from repro.core.errors import KernelError

        @fn_acc
        def sometimes_bad(acc):
            from repro.core import Blocks, Grid, get_idx

            if get_idx(acc, Grid, Blocks)[0] == 37:
                raise RuntimeError("chunk casualty")

        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        q = QueueBlocking(dev)
        with pytest.raises(KernelError, match="block"):
            q.enqueue(
                create_task_kernel(
                    AccCpuOmp2Blocks, WorkDivMembers.make(64, 1, 1), sometimes_bad
                )
            )

    @pytest.mark.parametrize("exit_exc", [KeyboardInterrupt, SystemExit])
    def test_interpreter_exit_is_not_a_kernel_failure(self, exit_exc):
        """Ctrl-C (or sys.exit) while the sequential scheduler runs a
        block in the caller's thread must surface as itself, not as
        "kernel ... failed in block ..."."""
        from repro import AccCpuSerial
        from repro.core.errors import KernelError

        ran = []

        @fn_acc
        def interrupted(acc):
            from repro.core import Blocks, Grid, get_idx

            b = get_idx(acc, Grid, Blocks)[0]
            ran.append(b)
            if b == 2:
                raise exit_exc()

        dev = get_dev_by_idx(AccCpuSerial, 0)
        q = QueueBlocking(dev)
        task = create_task_kernel(
            AccCpuSerial, WorkDivMembers.make(5, 1, 1), interrupted
        )
        with pytest.raises(exit_exc) as err:
            q.enqueue(task)
        assert not isinstance(err.value, KernelError)
        assert ran == [0, 1, 2]  # later blocks never start
        # The queue and the plan stay usable afterwards.
        ran.clear()
        with pytest.raises(exit_exc):
            q.enqueue(task)
        assert ran == [0, 1, 2]

    def test_ordinary_exception_still_wrapped_with_its_block(self):
        from repro import AccCpuSerial
        from repro.core.errors import KernelError

        @fn_acc
        def bad(acc):
            from repro.core import Blocks, Grid, get_idx

            if get_idx(acc, Grid, Blocks)[0] == 3:
                raise ValueError("casualty")

        dev = get_dev_by_idx(AccCpuSerial, 0)
        with pytest.raises(KernelError, match=r"failed in block Vec\(3\)") as err:
            QueueBlocking(dev).enqueue(
                create_task_kernel(AccCpuSerial, WorkDivMembers.make(5, 1, 1), bad)
            )
        assert isinstance(err.value.__cause__, ValueError)

    def test_unknown_schedule_rejected(self):
        dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        with pytest.raises(ValueError, match="unknown block schedule"):
            scheduler_for(dev, "quantum")


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuOmp2Blocks)


@pytest.fixture
def fresh_plans():
    clear_plan_cache()
    yield
    clear_plan_cache()
    shutdown_schedulers()


def _axpy_task(dev, n=1024, blocks=4):
    x, y = mem.alloc(dev, n), mem.alloc(dev, n)
    x.as_numpy()[:] = np.arange(n, dtype=np.float64)
    y.as_numpy()[:] = 1.0
    wd = WorkDivMembers.make((blocks,), (1,), (-(-n // blocks),))
    task = create_task_kernel(AccCpuOmp2Blocks, wd, AxpyElementsKernel(), n, 2.0, x, y)
    return task, x, y


def _histogram_task(dev, n=2048, bins=16):
    """A kernel the compiled schedule cannot serve: it allocates shared
    memory, so every compiled launch falls back (``shared-memory``)."""
    data = np.random.default_rng(3).random(n)
    x, hist = mem.alloc(dev, n), mem.alloc(dev, bins)
    x.as_numpy()[:] = data
    hist.as_numpy()[:] = 0.0
    wd = WorkDivMembers.make((8,), (1,), (n // 8,))
    task = create_task_kernel(
        AccCpuOmp2Blocks, wd, HistogramKernel(), n, 0.0, 1.0, bins, x, hist
    )
    return task, data, x, hist


class TestEnvResolution:
    def test_scheduler_env_values(self, monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        assert resolve_scheduler_override() is None
        for raw, want in (
            ("sequential", "sequential"),
            ("pooled", "pooled"),
            (" Pooled ", "pooled"),
            ("compiled", "compiled"),
            ("COMPILED", "compiled"),
        ):
            monkeypatch.setenv(SCHEDULER_ENV, raw)
            assert resolve_scheduler_override() == want

    def test_scheduler_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "gpu")
        with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
            resolve_scheduler_override()

    def test_override_never_remaps_sequential_backends(self, monkeypatch, fresh_plans):
        monkeypatch.setenv(SCHEDULER_ENV, "pooled")
        sdev = get_dev_by_idx(AccCpuSerial)
        buf = mem.alloc(sdev, 64)
        wd = WorkDivMembers.make(4, 1, 16)
        task = create_task_kernel(AccCpuSerial, wd, AxpyElementsKernel(), 64, 1.0, buf, buf)
        assert get_plan(task, sdev).schedule == "sequential"
        buf.free()

    def test_override_is_part_of_plan_identity(self, dev, monkeypatch, fresh_plans):
        task, x, y = _axpy_task(dev)
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        p1 = get_plan(task, dev)
        monkeypatch.setenv(SCHEDULER_ENV, "compiled")
        p2 = get_plan(task, dev)
        assert p1 is not p2
        assert p1.schedule == "pooled" and p2.schedule == "compiled"
        x.free()
        y.free()


class TestFallbacks:
    """A launch the compiled schedule cannot serve runs on the thread
    pool: correct, counted, logged once and flight-recorded."""

    def test_fallback_stays_correct(self, dev, monkeypatch, caplog, fresh_plans):
        monkeypatch.setenv(SCHEDULER_ENV, "compiled")
        task, data, x, hist = _histogram_task(dev)
        with caplog.at_level(logging.INFO, "repro.runtime.scheduler"):
            QueueBlocking(dev).enqueue(task)
        assert get_plan(task, dev).schedule == "compiled"
        np.testing.assert_array_equal(hist.as_numpy(), histogram_reference(data, 16, 0.0, 1.0))
        assert any("falls back to the thread pool" in r.message for r in caplog.records)
        x.free()
        hist.free()

    def test_fallback_reason_logged_once(self, dev, monkeypatch, caplog, fresh_plans):
        monkeypatch.setenv(SCHEDULER_ENV, "compiled")
        task, _data, x, hist = _histogram_task(dev)
        queue = QueueBlocking(dev)
        with caplog.at_level(logging.INFO, "repro.runtime.scheduler"):
            queue.enqueue(task)
            queue.enqueue(task)
        assert len([r for r in caplog.records if "falls back" in r.message]) == 1
        x.free()
        hist.free()

    def test_fallbacks_are_counted_and_flight_recorded(
        self, dev, monkeypatch, tmp_path, fresh_plans
    ):
        from repro.telemetry import flight
        from repro.telemetry.metrics import registry

        def count():
            return registry().counter(
                "repro_scheduler_fallbacks_total",
                "",
                schedule="compiled",
                kernel="HistogramKernel",
                reason="shared-memory",
            ).value

        monkeypatch.setenv(SCHEDULER_ENV, "compiled")
        task, _data, x, hist = _histogram_task(dev)
        queue = QueueBlocking(dev)
        before = count()
        rec = flight.activate(str(tmp_path))
        try:
            queue.enqueue(task)
            queue.enqueue(task)
            events = [e for e in rec.events() if e["kind"] == "scheduler_fallback"]
        finally:
            flight.deactivate()
        assert count() - before == 2
        assert len(events) == 2
        assert events[0]["schedule"] == "compiled"
        assert events[0]["reason"] == "shared-memory"
        x.free()
        hist.free()

    def test_custom_block_subset_falls_back(self, dev, fresh_plans):
        task, x, y = _axpy_task(dev, n=256, blocks=4)
        plan = get_plan(task, dev)
        grid = plan.grid_for(task)
        subset = plan.block_indices[:2]
        CompiledScheduler(dev).dispatch(plan, grid, subset, task)
        want = np.ones(256)
        want[:128] += 2.0 * np.arange(128.0)
        np.testing.assert_array_equal(y.as_numpy(), want)
        x.free()
        y.free()


class TestDevWorkerLifecycle:
    def test_device_workers_reflects_live_pools(self, dev, fresh_plans):
        shutdown_device_workers()
        assert device_workers() == {}
        task, x, y = _axpy_task(dev)
        QueueBlocking(dev).enqueue(task)
        assert (dev.uid, "pooled") in device_workers()
        shutdown_device_workers()
        assert device_workers() == {}
        x.free()
        y.free()


class TestAtexitOrdering:
    def test_exit_with_live_pools_is_clean(self):
        """A thread pool still alive at interpreter exit neither hangs
        nor prints a traceback: the atexit-registered
        shutdown_schedulers drains it before executor teardown."""
        code = (
            "from repro import mem\n"
            "from repro.acc.cpu import AccCpuOmp2Blocks\n"
            "from repro.core.kernel import create_task_kernel\n"
            "from repro.core.workdiv import WorkDivMembers\n"
            "from repro.dev.manager import get_dev_by_idx\n"
            "from repro.kernels.axpy import AxpyElementsKernel\n"
            "from repro.queue import QueueBlocking\n"
            "dev = get_dev_by_idx(AccCpuOmp2Blocks)\n"
            "x, y = mem.alloc(dev, 1024), mem.alloc(dev, 1024)\n"
            "wd = WorkDivMembers.make(4, 1, 256)\n"
            "QueueBlocking(dev).enqueue(create_task_kernel(\n"
            "    AccCpuOmp2Blocks, wd, AxpyElementsKernel(), 1024, 2.0, x, y))\n"
            "print('LAUNCHED')\n"
            "# exit without shutdown_schedulers(), without free(): atexit must cope\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "LAUNCHED" in proc.stdout
        assert "Traceback" not in proc.stderr
