"""Per-device schedulers: chunking, env-configured caps, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from repro import (
    AccCpuFibers,
    AccCpuOmp2Blocks,
    QueueBlocking,
    WorkDivMembers,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.core.vec import Vec
from repro.runtime.scheduler import (
    MAX_BLOCK_WORKERS,
    chunk_indices,
    resolve_max_block_workers,
    scheduler_for,
)


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
