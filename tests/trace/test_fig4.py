"""Fig. 4 reproduction and the stream comparator."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import fig4_ptx_comparison
from repro.core import Block, Grid, Threads, fn_acc, get_idx, get_work_div
from repro.kernels import AxpyElementsKernel, AxpyKernel, axpy_cuda_native
from repro.trace import (
    IRBuilder,
    compare_streams,
    normalize,
    trace_alpaka_kernel,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
    trace_cuda_kernel,
)

REPO = Path(__file__).resolve().parents[2]

SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]
SPECS_NC = [("int", "n"), ("float", "alpha"), ("const_array", "x"), ("array", "y")]


class TestFig4:
    def test_paper_finding(self):
        """Identical up to register names and one nc cache modifier."""
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS_NC)
        r = compare_streams(a, b)
        assert r.identical_up_to_cache_modifiers
        assert len(r.notes) == 1
        assert not r.identical

    def test_identical_without_nc(self):
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS)
        r = compare_streams(a, b)
        assert r.identical
        assert r.summary() == "streams identical"

    def test_paper_instruction_shapes(self):
        """The traced stream contains exactly the paper's opcodes."""
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        ops = ir.opcode_stream()
        for expected in (
            "mov.u32", "mad.lo.s32", "setp.ge.s32", "bra",
            "cvta.to.global.u64", "mul.wide.s32", "add.s64",
            "ld.global.f64", "fma.rn.f64", "st.global.f64",
        ):
            assert expected in ops, expected
        # Exactly one FMA, two loads, one store (DAXPY's data flow).
        assert ops.count("fma.rn.f64") == 1
        assert ops.count("ld.global.f64") == 2
        assert ops.count("st.global.f64") == 1

    def test_strict_mode_reports_nc_as_difference(self):
        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_cuda_kernel(axpy_cuda_native, SPECS_NC)
        r = compare_streams(a, b, allow_cache_modifiers=False)
        assert not r.identical_up_to_cache_modifiers
        assert len(r.differences) == 1


def _section(report: str, heading: str) -> str:
    """The listing under ``=== heading... ===`` of a committed report."""
    body = report.split(f"=== {heading}", 1)[1].split("===\n", 1)[1]
    return body.split("\n\n===", 1)[0].rstrip("\n")


class TestCommittedFigure:
    """The figure in the tree is what the tree prints."""

    def test_ptx_listings_equal_committed_fig4(self):
        report = (REPO / "benchmarks/out/fig4.txt").read_text()
        data = fig4_ptx_comparison()
        assert data["alpaka_ptx"] == _section(report, "Alpaka PTX")
        assert data["native_ptx"] == _section(report, "Native CUDA PTX")
        assert f"verdict: {data['comparison'].summary()}\n" in report

    def test_cpu_listings_equal_committed_fig4_cpu(self):
        report = (REPO / "benchmarks/out/fig4_cpu.txt").read_text()
        scalar = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        packed = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        assert scalar.to_text() == _section(report, "scalar")
        assert packed.to_text() == _section(report, "packed")

    def test_native_index_is_arithmetic_not_a_shared_routine(self):
        """The verdict compares ``get_idx`` with hand-written
        ``blockDim.x * blockIdx.x + threadIdx.x``: spelled differently
        the native side reads its registers in another order, the
        alpaka side cannot."""

        def swapped(cu, n, alpha, x, y):
            i = cu.thread_idx_x() + cu.block_idx_x() * cu.block_dim_x()
            if i < n:
                y[i] = alpha * x[i] + y[i]

        native = trace_cuda_kernel(swapped, SPECS)
        assert [i.srcs[0] for i in native.instructions[:3]] == [
            "%tid.x", "%ctaid.x", "%ntid.x",
        ]
        assert native.instructions[3].op == "mad.lo.s32"
        assert not compare_streams(
            trace_alpaka_kernel(AxpyKernel(), SPECS), native
        ).identical_up_to_cache_modifiers


def test_import_repro_does_not_load_the_compiler():
    """``repro/__init__`` imports ``repro.trace`` eagerly; the printers
    reach the tracer on first use, so a process that never traces never
    pays for ``repro.compile``."""
    code = (
        "import repro, sys; "
        "print([m for m in sys.modules if m.startswith('repro.compile')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(REPO / "src")},
    )
    assert out.stdout.strip() == "[]"


class TestComparator:
    def test_register_renaming_is_invisible(self):
        """The same kernel traced twice with different registers in
        flight compares identical."""
        k = AxpyKernel()
        a = trace_alpaka_kernel(k, SPECS)
        b = trace_alpaka_kernel(k, SPECS)
        assert compare_streams(a, b).identical

    def test_different_kernels_differ(self):
        @fn_acc
        def saxpy_wrong(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = alpha * y[i] + x[i]  # operands swapped

        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_alpaka_kernel(saxpy_wrong, SPECS)
        r = compare_streams(a, b)
        assert not r.identical_up_to_cache_modifiers

    def test_length_mismatch_detected(self):
        @fn_acc
        def double_store(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                v = alpha * x[i] + y[i]
                y[i] = v
                y[i] = v  # one extra store

        a = trace_alpaka_kernel(AxpyKernel(), SPECS)
        b = trace_alpaka_kernel(double_store, SPECS)
        r = compare_streams(a, b)
        assert any("<absent>" in d for _, d, _ in []) or r.differences

    def test_f32_registers_are_canonicalised(self):
        """Regression: ``%f`` was no register class to ``normalize``,
        so float32 streams differing only in numbering 'differed'."""

        def stream(first):
            b = IRBuilder()
            b.emit("ld.global.f32", f"%f{first}", "%rd1")
            b.emit("ld.global.f64", f"%fd{first}", "%rd2")
            b.emit("add.f32", f"%f{first + 1}", f"%f{first}", f"%f{first}")
            b.emit("st.global.f32", None, "%rd1", f"%f{first + 1}")
            return b

        r = compare_streams(stream(1), stream(4))
        assert r.identical, r.summary()
        assert [i.dst for i in normalize(stream(4))[:3]] == ["%f1", "%fd1", "%f2"]

    def test_normalize_canonical_names(self):
        ir = trace_alpaka_kernel(AxpyKernel(), SPECS)
        normed = normalize(ir)
        regs = [i.dst for i in normed if i.dst and i.dst.startswith("%r")]
        # First integer register in canonical form is %r1.
        assert "%r1" in regs


class TestTraceAcc:
    def test_block_thread_queries(self):
        @fn_acc
        def k(acc, n, alpha, x, y):
            bi = get_idx(acc, Grid, Threads)[0]
            ti = get_idx(acc, Block, Threads)[0]
            bt = get_work_div(acc, Block, Threads)[0]
            if bi < n:
                y[ti + bt] = alpha * x[bi] + y[bi]

        ir = trace_alpaka_kernel(k, SPECS)
        ops = ir.opcode_stream()
        assert "mov.u32" in ops

    def test_sreg_caching(self):
        """Repeated index queries read the special registers once."""

        @fn_acc
        def k(acc, n, alpha, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            j = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[j] = alpha * x[i] + y[i]

        ir = trace_alpaka_kernel(k, SPECS)
        ops = ir.opcode_stream()
        assert ops.count("mov.u32") == 3  # ctaid, ntid, tid - once each
        assert ops.count("mad.lo.s32") == 1
