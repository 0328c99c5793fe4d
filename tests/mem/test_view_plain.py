"""Plain views (alpaka's ``ViewPlainPtr``): a buffer over host memory
the caller keeps, on a host-addressable device."""

import numpy as np
import pytest

from repro import AccCpuSerial, AccGpuCudaSim, QueueBlocking, get_dev_by_idx, mem
from repro.core.errors import ExtentError, MemorySpaceError
from repro.core.vec import Vec
from repro.graph import classify_args, infer_edges


@pytest.fixture
def cpu():
    return get_dev_by_idx(AccCpuSerial, 0)


@pytest.fixture
def gpu():
    return get_dev_by_idx(AccGpuCudaSim, 0)


class TestViewPlain:
    def test_is_a_buffer_over_the_array_itself(self, cpu):
        host = np.arange(12.0).reshape(3, 4)
        view = mem.view_plain(cpu, host)
        assert isinstance(view, mem.Buffer)
        assert view.dev is cpu and view.extent == Vec(3, 4)
        assert view.dtype == host.dtype and view.pitch_elems == 4
        assert view.as_numpy() is host
        view.kernel_array(cpu)[1, 2] = -1.0
        assert host[1, 2] == -1.0

    def test_residency(self, cpu, gpu):
        host = np.zeros(8)
        with pytest.raises(MemorySpaceError, match="cannot address"):
            mem.view_plain(gpu, host)
        view = mem.view_plain(cpu, host)
        with pytest.raises(MemorySpaceError, match="resides on"):
            view.kernel_array(gpu)

    def test_reserves_and_releases_nothing(self, cpu):
        before = cpu.mem.allocated_bytes
        view = mem.view_plain(cpu, np.ones(1 << 16))
        assert cpu.mem.allocated_bytes == before
        view.free()
        view.free()
        assert cpu.mem.allocated_bytes == before
        assert view.freed
        with pytest.raises(MemorySpaceError, match="after free"):
            view.as_numpy()

    def test_free_leaves_the_memory_to_its_owner(self, cpu):
        host = np.arange(4.0)
        mem.view_plain(cpu, host).free()
        assert np.array_equal(host, np.arange(4.0))

    def test_negative_index_guard_still_fires(self, cpu):
        arr = mem.view_plain(cpu, np.arange(6.0)).kernel_array(cpu)
        with pytest.raises(ExtentError, match="negative index"):
            arr[-1]
        assert arr[:-1].shape == (5,)  # negative slice bounds stay legal

    def test_copy_to_and_from_a_view(self, cpu, gpu):
        queue = QueueBlocking(cpu)
        src = np.arange(10.0)
        dst = np.zeros(10)
        view = mem.view_plain(cpu, dst)
        mem.copy(queue, view, src)
        assert np.array_equal(dst, src)
        out = np.empty(10)
        mem.copy(queue, out, view)
        assert np.array_equal(out, src)
        staged = mem.alloc(gpu, 10)
        try:
            mem.copy(QueueBlocking(gpu), staged, view)
            back = mem.view_plain(cpu, np.zeros(10))
            mem.copy(QueueBlocking(gpu), back, staged)
            assert np.array_equal(back.as_numpy(), src)
        finally:
            staged.free()

    def test_views_of_distinct_arrays_get_distinct_buf_ids(self, cpu):
        ids = {mem.view_plain(cpu, np.zeros(4)).buf_id for _ in range(3)}
        staged = mem.alloc(cpu, 4)
        try:
            assert len(ids | {staged.buf_id}) == 4
        finally:
            staged.free()

    def test_views_of_one_array_share_its_buf_id(self, cpu):
        host = np.zeros((4, 4))
        a, b = mem.view_plain(cpu, host), mem.view_plain(cpu, host)
        assert a.buf_id == b.buf_id
        assert mem.view_plain(cpu, host[2:]).buf_id == a.buf_id
        assert mem.view_plain(cpu, host.reshape(16)).buf_id == a.buf_id
        assert a.base_buffer is a

    def test_a_dead_arrays_id_is_not_handed_out_again(self, cpu):
        first = mem.view_plain(cpu, np.zeros(4)).buf_id
        assert all(
            mem.view_plain(cpu, np.zeros(4)).buf_id != first for _ in range(8)
        )

    def test_graph_orders_two_views_of_one_array(self, cpu):
        host = np.zeros(4)
        writer, reader = mem.view_plain(cpu, host), mem.view_plain(cpu, host)
        _, writes = classify_args((writer,), writes=[writer])
        reads, _ = classify_args((reader,), reads=[reader])
        assert infer_edges([((), tuple(writes)), (tuple(reads), ())]) == [
            set(), {0},
        ]

    @pytest.mark.parametrize(
        "host",
        [
            np.arange(10.0)[::2],
            np.asfortranarray(np.ones((3, 4))),
            np.array(1.0),
            np.frombuffer(bytearray(17), dtype=np.uint8)[1:].view(np.float64),
        ],
        ids=["strided", "fortran", "0-d", "misaligned"],
    )
    def test_refuses_what_it_cannot_wrap(self, cpu, host):
        with pytest.raises(MemorySpaceError, match="aligned, C-contiguous"):
            mem.view_plain(cpu, host)
