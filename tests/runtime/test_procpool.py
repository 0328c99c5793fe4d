"""Process-pool block dispatch: classification, workers, fallback."""

import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import mem
from repro.acc.cpu import AccCpuOmp2Blocks, AccCpuSerial
from repro.core.kernel import create_task_kernel
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.dev.manager import (
    device_workers,
    get_dev_by_idx,
    shutdown_device_workers,
)
from repro.kernels.axpy import AxpyElementsKernel, axpy_reference
from repro.kernels.histogram import HistogramKernel, histogram_reference
from repro.queue import QueueBlocking
from repro.runtime import (
    ProcessPoolScheduler,
    clear_plan_cache,
    get_plan,
    scheduler_for,
    shutdown_schedulers,
)
from repro.runtime.procpool import (
    ATOMIC_STRIPES,
    ProcessSharedAtomicDomain,
    marshal_launch,
    process_launch_state,
    reset_worker_state,
    run_chunk,
    worker_init,
)
from repro.runtime.scheduler import PROCESS_WORKERS_ENV, SCHEDULER_ENV


from repro.core.kernel import fn_acc


@fn_acc
def _boom(acc, b):
    raise RuntimeError("nope")


class _DiesInWorkers(AxpyElementsKernel):
    """AXPY in the parent process, sudden death in a pool worker."""

    def __call__(self, acc, n, alpha, x, y):
        if mp.parent_process() is not None:
            os._exit(1)
        super().__call__(acc, n, alpha, x, y)


@pytest.fixture
def dev():
    return get_dev_by_idx(AccCpuOmp2Blocks)


@pytest.fixture(autouse=True)
def _clean():
    clear_plan_cache()
    yield
    clear_plan_cache()
    shutdown_schedulers()
    reset_worker_state()


def _axpy_task(dev, n=1024, blocks=4, shm=True):
    x = mem.alloc(dev, n, shm=shm)
    y = mem.alloc(dev, n, shm=shm)
    x.as_numpy()[:] = np.arange(n, dtype=np.float64)
    y.as_numpy()[:] = 1.0
    wd = WorkDivMembers.make((blocks,), (1,), (-(-n // blocks),))
    task = create_task_kernel(
        AccCpuOmp2Blocks, wd, AxpyElementsKernel(), n, 2.0, x, y
    )
    return task, x, y


class TestClassification:
    def test_shm_axpy_is_eligible(self, dev):
        task, x, y = _axpy_task(dev)
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert state.eligible, state.reason
        assert state.blob is not None and state.digest
        x.free()
        y.free()

    def test_private_buffer_ineligible_with_reason(self, dev):
        task, x, y = _axpy_task(dev, shm=False)
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert not state.eligible
        assert "private-memory" in state.reason
        assert "shm=True" in state.reason
        x.free()
        y.free()

    def test_lambda_kernel_ineligible(self, dev):
        buf = mem.alloc(dev, 64, shm=True)
        wd = WorkDivMembers.make(4, 1, 16)
        task = create_task_kernel(
            AccCpuOmp2Blocks, wd, lambda acc, b: None, buf
        )
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert not state.eligible
        assert "pickle" in state.reason
        buf.free()

    def test_view_of_shared_buffer_eligible(self, dev):
        base = mem.alloc(dev, (8, 8), shm=True)
        view = mem.sub_view(base, offset=(2, 0), extent=(4, 8))
        wd = WorkDivMembers.make(2, 1, 2)
        task = create_task_kernel(
            AccCpuOmp2Blocks, wd, AxpyElementsKernel(), 4, 1.0, view, view
        )
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert state.eligible, state.reason
        base.free()

    def test_view_of_private_buffer_ineligible(self, dev):
        base = mem.alloc(dev, (8, 8), shm=False)
        view = mem.sub_view(base, offset=(0, 0), extent=(4, 8))
        wd = WorkDivMembers.make(2, 1, 2)
        task = create_task_kernel(
            AccCpuOmp2Blocks, wd, AxpyElementsKernel(), 4, 1.0, view, view
        )
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert not state.eligible
        assert "view of a private-memory" in state.reason
        base.free()

    def test_state_memoised_per_args_identity(self, dev):
        task, x, y = _axpy_task(dev)
        plan = get_plan(task, dev)
        s1 = process_launch_state(plan, task)
        s2 = process_launch_state(plan, task)
        assert s1 is s2
        x.free()
        y.free()


class TestProcessSharedAtomicDomain:
    def test_locks_keyed_by_index_not_array(self):
        locks = [mp.get_context("spawn").Lock() for _ in range(8)]
        dom = ProcessSharedAtomicDomain(locks)
        a = np.zeros(4)
        b = np.zeros(4)
        # Same index on different arrays -> same stripe (identity of the
        # array is process-local and must not participate).
        assert dom._lock_for(a, 2) is dom._lock_for(b, 2)
        assert dom._lock_for(a, (1, 3)) is dom._lock_for(b, (1, 3))

    def test_rmw_semantics_preserved(self):
        locks = [mp.get_context("spawn").Lock() for _ in range(4)]
        dom = ProcessSharedAtomicDomain(locks)
        arr = np.zeros(3)
        old = dom.atomic_add(arr, 1, 5.0)
        assert old == 0.0 and arr[1] == 5.0
        assert dom.atomic_max(arr, 1, 3.0) == 5.0 and arr[1] == 5.0

    def test_empty_lock_table_rejected(self):
        with pytest.raises(ValueError):
            ProcessSharedAtomicDomain([])


class TestRunChunkInProcess:
    """run_chunk exercised in-process (worker_init called directly)."""

    def test_runs_span_and_returns_timings(self, dev):
        task, x, y = _axpy_task(dev, n=256, blocks=4)
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        worker_init([mp.get_context("spawn").Lock() for _ in range(4)])
        pid, timings = run_chunk(state.digest, state.blob, 0, 4, True)
        assert pid == os.getpid()
        assert [k for k, _ in timings] == [0, 1, 2, 3]
        assert np.array_equal(
            y.as_numpy(),
            axpy_reference(2.0, np.arange(256.0), np.ones(256)),
        )
        x.free()
        y.free()

    def test_payload_cached_by_digest(self, dev):
        task, x, y = _axpy_task(dev, n=64, blocks=2)
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        worker_init([mp.get_context("spawn").Lock()])
        run_chunk(state.digest, state.blob, 0, 1, False)
        from repro.runtime import procpool

        cached = procpool._payloads[state.digest]
        run_chunk(state.digest, state.blob, 1, 2, False)
        assert procpool._payloads[state.digest] is cached
        x.free()
        y.free()

    def test_worker_grid_gets_the_shared_atomic_domain(self, dev):
        """The grid's own domain is created on first use; the worker
        must still be able to *install* the process-shared one, and an
        atomics kernel run through it must use the spawn-time locks."""
        from repro.runtime import procpool

        n, bins = 512, 8
        data = np.random.default_rng(5).random(n)
        x = mem.alloc(dev, n, shm=True)
        hist = mem.alloc(dev, bins, shm=True)
        x.as_numpy()[:] = data
        task = create_task_kernel(
            AccCpuOmp2Blocks, WorkDivMembers.make(4, 1, n // 4),
            HistogramKernel(), n, 0.0, 1.0, bins, x, hist,
        )
        state = marshal_launch(get_plan(task, dev), task)
        assert state.eligible, state.reason
        locks = [mp.get_context("spawn").Lock() for _ in range(4)]
        worker_init(locks)
        reset_worker_state()
        run_chunk(state.digest, state.blob, 0, 4, False)
        _kernel, grid, _blocks = procpool._payloads[state.digest]
        assert isinstance(grid.atomics, ProcessSharedAtomicDomain)
        assert grid.atomics._locks == tuple(locks)
        assert np.array_equal(
            hist.as_numpy(), histogram_reference(data, bins, 0.0, 1.0)
        )
        x.free()
        hist.free()

    def test_kernel_error_carries_worker_pid(self, dev):
        from repro.core.errors import KernelError

        buf = mem.alloc(dev, 8, shm=True)
        wd = WorkDivMembers.make(2, 1, 4)
        task = create_task_kernel(AccCpuOmp2Blocks, wd, _boom, buf)
        plan = get_plan(task, dev)
        state = marshal_launch(plan, task)
        assert state.eligible, state.reason
        worker_init([mp.get_context("spawn").Lock()])
        with pytest.raises(KernelError) as err:
            run_chunk(state.digest, state.blob, 0, 1, False)
        assert "process worker pid" in str(err.value)
        assert err.value.__cause__ is None  # message-only, pickle-safe
        buf.free()


class TestDispatch:
    def test_end_to_end_two_workers(self, dev, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        n = 4096
        task, x, y = _axpy_task(dev, n=n, blocks=8)
        queue = QueueBlocking(dev)
        queue.enqueue(task)
        expect = axpy_reference(2.0, np.arange(float(n)), np.ones(n))
        assert np.array_equal(y.as_numpy(), expect)
        plan = get_plan(task, dev)
        assert plan.schedule == "processes"
        sched = scheduler_for(dev, "processes")
        assert isinstance(sched, ProcessPoolScheduler)
        assert sched.worker_count == 2
        # Warm relaunch reuses the marshalled payload and stays right.
        y.as_numpy()[:] = 1.0
        queue.enqueue(task)
        assert np.array_equal(y.as_numpy(), expect)
        x.free()
        y.free()

    def test_atomics_via_shared_lock_table(self, dev, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        n, bins = 2048, 16
        rng = np.random.default_rng(3)
        data = rng.random(n)
        x = mem.alloc(dev, n, shm=True)
        hist = mem.alloc(dev, bins, shm=True)
        x.as_numpy()[:] = data
        wd = WorkDivMembers.make((8,), (1,), (n // 8,))
        task = create_task_kernel(
            AccCpuOmp2Blocks, wd, HistogramKernel(), n, 0.0, 1.0, bins,
            x, hist,
        )
        QueueBlocking(dev).enqueue(task)
        assert get_plan(task, dev).schedule == "processes"
        assert np.array_equal(
            hist.as_numpy(), histogram_reference(data, bins, 0.0, 1.0)
        )
        x.free()
        hist.free()

    def test_private_buffers_fall_back_and_stay_correct(
        self, dev, monkeypatch, caplog
    ):
        import logging

        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        n = 512
        task, x, y = _axpy_task(dev, n=n, blocks=4, shm=False)
        with caplog.at_level(logging.INFO, "repro.runtime.scheduler"):
            QueueBlocking(dev).enqueue(task)
        assert np.array_equal(
            y.as_numpy(),
            axpy_reference(2.0, np.arange(float(n)), np.ones(n)),
        )
        assert any(
            "falls back to the thread pool" in r.message for r in caplog.records
        )
        x.free()
        y.free()

    def test_fallback_reason_logged_once(self, dev, monkeypatch, caplog):
        import logging

        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        task, x, y = _axpy_task(dev, shm=False)
        queue = QueueBlocking(dev)
        with caplog.at_level(logging.INFO, "repro.runtime.scheduler"):
            queue.enqueue(task)
            queue.enqueue(task)
        fallbacks = [
            r for r in caplog.records if "falls back" in r.message
        ]
        assert len(fallbacks) == 1
        x.free()
        y.free()

    def test_fallbacks_are_counted_and_flight_recorded(
        self, dev, monkeypatch, tmp_path
    ):
        from repro.telemetry import flight
        from repro.telemetry.metrics import registry

        def count():
            return registry().counter(
                "repro_scheduler_fallbacks_total",
                "",
                schedule="processes",
                kernel="AxpyElementsKernel",
                reason="private-buffer",
            ).value

        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        task, x, y = _axpy_task(dev, shm=False)
        queue = QueueBlocking(dev)
        before = count()
        rec = flight.activate(str(tmp_path))
        try:
            queue.enqueue(task)
            queue.enqueue(task)
            events = [
                e for e in rec.events() if e["kind"] == "scheduler_fallback"
            ]
        finally:
            flight.deactivate()
        assert count() - before == 2
        assert len(events) == 2
        assert events[0]["schedule"] == "processes"
        assert events[0]["reason"] == "private-buffer"
        x.free()
        y.free()

    def test_worker_death_before_any_chunk_reruns_on_the_thread_pool(
        self, dev, monkeypatch
    ):
        from repro.telemetry.metrics import registry

        def count():
            return registry().counter(
                "repro_scheduler_fallbacks_total",
                "",
                schedule="processes",
                kernel="_DiesInWorkers",
                reason="worker-died",
            ).value

        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        n = 1024
        expect = axpy_reference(2.0, np.arange(float(n)), np.ones(n))
        task, x, y = _axpy_task(dev, n=n)
        doomed = create_task_kernel(
            AccCpuOmp2Blocks, task.work_div, _DiesInWorkers(), *task.args
        )
        assert process_launch_state(get_plan(doomed, dev), doomed).eligible
        before = count()
        queue = QueueBlocking(dev)
        queue.enqueue(doomed)
        assert np.array_equal(y.as_numpy(), expect)
        assert count() - before == 1
        sched = scheduler_for(dev, "processes")
        assert sched._pool is None  # the broken pool was dropped
        # The next launch spawns a fresh pool and runs in it.
        y.as_numpy()[:] = 1.0
        queue.enqueue(task)
        assert np.array_equal(y.as_numpy(), expect)
        assert sched._pool is not None
        x.free()
        y.free()

    def test_custom_block_subset_falls_back(self, dev, monkeypatch):
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "2")
        task, x, y = _axpy_task(dev, n=256, blocks=4)
        plan = get_plan(task, dev)
        sched = ProcessPoolScheduler(dev)
        from repro.acc.base import GridContext

        grid = GridContext(
            dev, plan.work_div, plan.props, plan.unwrap_args(task.args)
        )
        subset = plan.block_indices[:2]
        sched.dispatch(plan, grid, subset, task)  # must not hang or raise
        x.free()
        y.free()

    def test_pool_lazy_and_shutdown_idempotent(self, dev, monkeypatch):
        sched = ProcessPoolScheduler(dev)
        assert sched._pool is None  # nothing spawned until needed
        sched.shutdown()
        sched.shutdown()


class TestEnvResolution:
    def test_scheduler_env_values(self, monkeypatch):
        from repro.runtime import resolve_scheduler_override

        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        assert resolve_scheduler_override() is None
        for raw, want in (
            ("sequential", "sequential"),
            ("threads", "pooled"),
            ("pooled", "pooled"),
            ("processes", "processes"),
            ("PROCESSES", "processes"),
        ):
            monkeypatch.setenv(SCHEDULER_ENV, raw)
            assert resolve_scheduler_override() == want

    def test_scheduler_env_rejects_unknown(self, monkeypatch):
        from repro.runtime import resolve_scheduler_override

        monkeypatch.setenv(SCHEDULER_ENV, "gpu")
        with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
            resolve_scheduler_override()

    def test_process_workers_env(self, monkeypatch):
        from repro.runtime import resolve_process_workers

        monkeypatch.setenv(PROCESS_WORKERS_ENV, "5")
        assert resolve_process_workers() == 5
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "0")
        assert resolve_process_workers() == 1
        monkeypatch.setenv(PROCESS_WORKERS_ENV, "soon")
        with pytest.raises(ValueError):
            resolve_process_workers()

    def test_override_never_remaps_sequential_backends(
        self, dev, monkeypatch
    ):
        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        sdev = get_dev_by_idx(AccCpuSerial)
        buf = mem.alloc(sdev, 64, shm=True)
        wd = WorkDivMembers.make(4, 1, 16)
        task = create_task_kernel(
            AccCpuSerial, wd, AxpyElementsKernel(), 64, 1.0, buf, buf
        )
        assert get_plan(task, sdev).schedule == "sequential"
        buf.free()

    def test_override_is_part_of_plan_identity(self, dev, monkeypatch):
        task, x, y = _axpy_task(dev)
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        p1 = get_plan(task, dev)
        monkeypatch.setenv(SCHEDULER_ENV, "processes")
        p2 = get_plan(task, dev)
        assert p1 is not p2
        assert p1.schedule == "pooled" and p2.schedule == "processes"
        x.free()
        y.free()


class TestDevWorkerLifecycle:
    def test_device_workers_reflects_live_pools(self, dev, monkeypatch):
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
        """A process pool still alive at interpreter exit must neither
        deadlock nor print BrokenProcessPool noise: the atexit-registered
        shutdown_schedulers drains it before executor teardown."""
        code = """
import os
os.environ["REPRO_SCHEDULER"] = "processes"
os.environ["REPRO_PROCESS_WORKERS"] = "2"
import numpy as np
from repro import mem
from repro.acc.cpu import AccCpuOmp2Blocks
from repro.core.kernel import create_task_kernel
from repro.core.workdiv import WorkDivMembers
from repro.dev.manager import get_dev_by_idx
from repro.kernels.axpy import AxpyElementsKernel
from repro.queue import QueueBlocking

dev = get_dev_by_idx(AccCpuOmp2Blocks)
x = mem.alloc(dev, 1024, shm=True)
y = mem.alloc(dev, 1024, shm=True)
wd = WorkDivMembers.make(4, 1, 256)
task = create_task_kernel(AccCpuOmp2Blocks, wd, AxpyElementsKernel(),
                          1024, 2.0, x, y)
QueueBlocking(dev).enqueue(task)
print("LAUNCHED")
# exit without shutdown_schedulers(), without free(): atexit must cope
"""
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            cwd="/root/repo",
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "LAUNCHED" in proc.stdout
        assert "BrokenProcessPool" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "leaked shared_memory" not in proc.stderr


class TestUnguardedMain:
    def test_unguarded_script_degrades_instead_of_breaking(self, tmp_path):
        """A user script with no ``if __name__ == "__main__":`` guard is
        re-executed top-level by every spawn child during bootstrap.
        Process dispatch inside such a child must fall back to the
        thread pool (the ``_inheriting`` bootstrap marker) instead of
        recursively spawning grandchildren — which would abort the
        bootstrap and break the parent's pool.  The whole script must
        succeed, parent included, with correct results throughout."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os\n"
            'os.environ["REPRO_SCHEDULER"] = "processes"\n'
            'os.environ["REPRO_PROCESS_WORKERS"] = "2"\n'
            "import numpy as np\n"
            "from repro import mem\n"
            "from repro.acc.cpu import AccCpuOmp2Blocks\n"
            "from repro.core.kernel import create_task_kernel\n"
            "from repro.core.workdiv import WorkDivMembers\n"
            "from repro.dev.manager import get_dev_by_idx\n"
            "from repro.kernels.axpy import AxpyElementsKernel\n"
            "from repro.queue import QueueBlocking\n"
            "dev = get_dev_by_idx(AccCpuOmp2Blocks)\n"
            "x = mem.alloc(dev, 1024, shm=True)\n"
            "y = mem.alloc(dev, 1024, shm=True)\n"
            "x.as_numpy()[:] = np.arange(1024.0)\n"
            "y.as_numpy()[:] = 1.0\n"
            "wd = WorkDivMembers.make(4, 1, 256)\n"
            "task = create_task_kernel(AccCpuOmp2Blocks, wd,\n"
            "                          AxpyElementsKernel(), 1024, 2.0, x, y)\n"
            "QueueBlocking(dev).enqueue(task)\n"
            "assert np.array_equal(y.as_numpy(),\n"
            "                      2.0 * np.arange(1024.0) + 1.0)\n"
            "x.free()\n"
            "y.free()\n"
            'print("UNGUARDED-OK")\n'
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd="/root/repo",
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        # Parent run + one re-execution per bootstrapped worker, all OK.
        assert proc.stdout.count("UNGUARDED-OK") >= 2
        assert "BrokenProcessPool" not in proc.stderr
        assert "bootstrapping phase" not in proc.stderr
