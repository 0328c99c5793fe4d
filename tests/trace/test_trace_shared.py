"""Tracing of shared memory and block barriers (tiled-kernel support)."""

import numpy as np
import pytest

from repro.core import Block, Grid, Threads, fn_acc, get_idx
from repro.core.errors import TraceError
from repro.trace import trace_alpaka_kernel

SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]


@fn_acc
def mini_tiled(acc, n, alpha, x, y):
    i = get_idx(acc, Grid, Threads)[0]
    ti = get_idx(acc, Block, Threads)[0]
    tile = acc.shared_mem("tile", (16,))
    if i < n:
        tile[ti] = x[i]
        acc.sync_block_threads()
        y[i] = alpha * tile[ti] + y[i]


class TestSharedTracing:
    def test_shared_opcodes_present(self):
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        ops = ir.opcode_stream()
        assert "st.shared.f64" in ops
        assert "ld.shared.f64" in ops
        assert "bar.sync" in ops

    def test_barrier_between_store_and_load(self):
        """The trace preserves program order: store, barrier, load."""
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        ops = ir.opcode_stream()
        assert ops.index("st.shared.f64") < ops.index("bar.sync")
        assert ops.index("bar.sync") < ops.index("ld.shared.f64")

    def test_shared_address_reused(self):
        """tile[ti] store and load share one address computation."""
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        text = ir.to_text()
        st_line = next(l for l in text.splitlines() if "st.shared" in l)
        ld_line = next(l for l in text.splitlines() if "ld.shared" in l)
        addr_st = st_line.split("[")[1].split("]")[0]
        addr_ld = ld_line.split("[")[1].split("]")[0]
        assert addr_st == addr_ld

    def test_same_name_same_array(self):
        @fn_acc
        def k(acc, n, alpha, x, y):
            ti = get_idx(acc, Block, Threads)[0]
            acc.shared_mem("s", (8,))[ti] = x[ti]
            acc.sync_block_threads()
            y[ti] = acc.shared_mem("s", (8,))[ti]

        ir = trace_alpaka_kernel(k, SPECS)
        bases = [i for i in ir.instructions if i.op == "mov.u64"]
        assert [i.srcs for i in bases] == [("%s",)]  # one base, one array

    def test_value_flows_into_fma(self):
        ir = trace_alpaka_kernel(mini_tiled, SPECS)
        assert "fma.rn.f64" in ir.opcode_stream()

    def test_concrete_index_rejected(self):
        @fn_acc
        def k(acc, n, alpha, x, y):
            y[get_idx(acc, Grid, Threads)[0]] = acc.shared_mem("s", (8,))[0]

        with pytest.raises(TraceError, match="unsupported-op"):
            trace_alpaka_kernel(k, SPECS)

    @pytest.mark.parametrize("dtype,suffix,size,reg", [
        (np.float32, "f32", "4", "%f2"), (np.int32, "s32", "4", "%r"),
    ])
    def test_tile_dtype_selects_suffix_itemsize_and_class(
        self, dtype, suffix, size, reg
    ):
        """Regression: a tile printed ``.shared.f64`` and ``x 8``
        whatever dtype it was declared with, and its ``%fd`` value then
        fed a narrower global store."""

        @fn_acc
        def k(acc, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            ti = get_idx(acc, Block, Threads)[0]
            tile = acc.shared_mem("tile", (16,), dtype)
            tile[ti] = x[i]
            acc.sync_block_threads()
            y[i] = tile[ti]

        ir = trace_alpaka_kernel(
            k, [("array", "x", dtype), ("array", "y", dtype)]
        )
        ops = ir.opcode_stream()
        assert f"st.shared.{suffix}" in ops and f"ld.shared.{suffix}" in ops
        assert not [o for o in ops if o.endswith(".f64")]
        assert {i.srcs[-1] for i in ir.instructions
                if i.op == "mul.wide.s32"} == {size}
        ld = next(i for i in ir.instructions if i.op.startswith("ld.shared"))
        st = next(i for i in ir.instructions if i.op.startswith("st.global"))
        assert ld.dst.startswith(reg) and st.srcs[1] == ld.dst

    def test_replayable_trace_still_falls_back(self):
        """The block-level nodes are the printers' switch only: the
        replayer's trace stops at the same point, for the same reason."""
        from repro.compile import CompileFallback, trace_kernel
        from repro.trace.record import sample_work_div

        args = (4, 1.0, np.zeros(4), np.zeros(4))
        with pytest.raises(CompileFallback) as exc:
            trace_kernel(mini_tiled, sample_work_div(1), None, args)
        assert exc.value.reason == "shared-memory"
        trace = trace_kernel(mini_tiled, sample_work_div(1), None, args,
                             block_level=True)
        kinds = [type(n).__name__ for n in trace.order]
        assert kinds.index("SharedStore") < kinds.index("Barrier") \
            < kinds.index("SharedLoad")
