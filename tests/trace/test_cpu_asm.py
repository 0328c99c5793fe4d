"""CPU assembler tracing — paper Fig. 4's SSE2 discussion."""

import pytest

from repro.core import Grid, Threads, get_idx
from repro.core.element import grid_strided_spans
from repro.core.errors import TraceError
from repro.kernels import AxpyElementsKernel, AxpyKernel
from repro.trace import (
    classify_fp_instructions,
    trace_cpu_kernel_scalar,
    trace_cpu_kernel_spans,
)


class TestScalarPath:
    def test_all_scalar_instructions(self):
        """One element per thread -> movsd/mulsd/addsd only."""
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        counts = classify_fp_instructions(ctx)
        assert counts["packed"] == 0
        assert counts["scalar"] >= 5

    def test_guard_compiles_to_cmp_jge(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        m = ctx.mnemonics()
        assert "cmp" in m and "jge" in m

    def test_paper_scalar_mnemonics(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        m = ctx.mnemonics()
        for op in ("movsd", "mulsd", "addsd"):
            assert op in m, op


class TestVectorPath:
    def test_all_packed_instructions(self):
        """Element spans -> movupd/mulpd/addpd (the paper's packed
        SSE2), with only the alpha constant load remaining scalar."""
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        counts = classify_fp_instructions(ctx)
        assert counts["packed"] >= 10
        assert counts["scalar"] <= 1  # the hoisted alpha load

    def test_paper_packed_mnemonics(self):
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        m = ctx.mnemonics()
        for op in ("movupd", "mulpd", "addpd"):
            assert op in m, op

    def test_span_unrolls_by_lanes(self):
        """A 4-double span needs two packed registers per operand."""
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
        )
        m = ctx.mnemonics()
        # x load, y load, y store: 2 each.
        assert m.count("movupd") == 6
        assert m.count("mulpd") == 2
        assert m.count("addpd") == 2

    def test_broadcast_hoisted_once(self):
        ctx = trace_cpu_kernel_spans(
            AxpyElementsKernel(), ["x", "y"], 8, 2.0, span=8
        )
        assert ctx.mnemonics().count("movddup") == 1

    def test_misaligned_span_rejected(self):
        with pytest.raises(TraceError):
            trace_cpu_kernel_spans(
                AxpyElementsKernel(), ["x", "y"], 3, 2.0, span=3
            )


def copy_first_to_last(acc, n, *arrays):
    i = get_idx(acc, Grid, Threads)[0]
    if i < n:
        arrays[-1][i] = arrays[0][i]


class TestContext:
    def test_pointer_registers_follow_abi(self):
        ctx = trace_cpu_kernel_scalar(copy_first_to_last, ["a", "b"], "n")
        loads_stores = [i for i in ctx.instructions if i.startswith("movsd")]
        assert loads_stores == [
            "movsd (%rdi,%r11,8), %xmm0", "movsd %xmm0, (%rsi,%r11,8)",
        ]

    def test_pointer_exhaustion(self):
        six = trace_cpu_kernel_scalar(copy_first_to_last, list("abcdef"), "n")
        assert "movsd %xmm0, (%r9,%r11,8)" in six.instructions
        with pytest.raises(TraceError, match="pointer argument registers"):
            trace_cpu_kernel_scalar(copy_first_to_last, list("abcdefg"), "n")

    def test_text_rendering(self):
        ctx = trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        text = ctx.to_text()
        assert "(%rdi,%r11,8)" in text or "(%rdi," in text
        assert text.strip().endswith(":")  # exit label


class TestOneTracer:
    """What the compile tracer records decides what prints."""

    def test_le_guard_jumps_past_on_greater(self):
        def k(acc, n, x):
            i = get_idx(acc, Grid, Threads)[0]
            if i <= n:
                x[i] = x[i] - 1.5

        m = trace_cpu_kernel_scalar(k, ["x"], "n").mnemonics()
        assert "jg" in m and "subsd" in m

    def test_unmaskable_guard_carries_the_fallback_slug(self):
        def k(acc, n, x):
            i = get_idx(acc, Grid, Threads)[0]
            if i > n:
                x[i] = x[i]

        with pytest.raises(TraceError, match="divergent-control-flow"):
            trace_cpu_kernel_scalar(k, ["x"], "n")

    def test_scalar_minus_span_keeps_operand_order(self):
        """Only commutative operations copy the span and splat the
        scalar; ``alpha - x[span]`` splats first and subtracts the
        span from it."""

        def k(acc, n, alpha, x):
            for span in grid_strided_spans(acc, n):
                x[span] = alpha - x[span]

        ctx = trace_cpu_kernel_spans(k, ["x"], 2, 3.0, span=2)
        assert ctx.instructions == [
            "movsd $3.0, %xmm0",
            "movupd 0(%rdi), %xmm1",
            "movddup %xmm0, %xmm2",
            "movapd %xmm2, %xmm3",
            "subpd %xmm1, %xmm3",
            "movupd %xmm3, 0(%rdi)",
        ]

    def test_unsupported_ufunc_is_named(self):
        def k(acc, n, x):
            i = get_idx(acc, Grid, Threads)[0]
            x[i] = x[i] / 2.0

        with pytest.raises(TraceError, match="divide"):
            trace_cpu_kernel_scalar(k, ["x"], "n")


class TestPaperComparison:
    def test_element_level_is_the_difference(self):
        """The whole Fig. 4 CPU argument in one assertion: same
        algorithm, scalar source -> scalar code, span source -> packed
        code."""
        scalar = classify_fp_instructions(
            trace_cpu_kernel_scalar(AxpyKernel(), ["x", "y"], "n", 2.0)
        )
        packed = classify_fp_instructions(
            trace_cpu_kernel_spans(
                AxpyElementsKernel(), ["x", "y"], 4, 2.0, span=4
            )
        )
        assert scalar["packed"] == 0 and scalar["scalar"] > 0
        assert packed["packed"] > 0 and packed["scalar"] <= 1
