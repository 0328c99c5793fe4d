"""The PTX printer: register classes, FMA contraction, guards, arrays.

Every case drives a small kernel through the one tracer
(``trace_alpaka_kernel``) and reads the listing.
"""

import numpy as np
import pytest

from repro.core import Grid, Threads, get_idx
from repro.core.errors import TraceError
from repro.trace import IRBuilder, trace_alpaka_kernel

#: The DAXPY parameter list most cases reuse.
SPECS = [("int", "n"), ("float", "alpha"), ("array", "x"), ("array", "y")]


def listing(body, specs=SPECS):
    """The listing of ``body(i, *params)`` run by every thread ``i``."""

    def kernel(acc, *params):
        body(get_idx(acc, Grid, Threads)[0], *params)

    return trace_alpaka_kernel(kernel, specs)


def opcodes(body, specs=SPECS):
    return listing(body, specs).opcode_stream()


class TestIRBuilder:
    def test_register_classes(self):
        b = IRBuilder()
        assert b.new_reg("r") == "%r1"
        assert b.new_reg("r") == "%r2"
        assert b.new_reg("fd") == "%fd1"
        assert b.new_reg("rd") == "%rd1"
        assert b.new_reg("p") == "%p1"

    def test_unknown_class(self):
        with pytest.raises(TraceError):
            IRBuilder().new_reg("x")

    def test_text_rendering(self):
        b = IRBuilder()
        b.emit("mov.u32", "%r1", "%tid.x")
        b.emit("st.global.f64", None, "%rd1", "%fd1")
        b.emit("ld.global.f64", "%fd2", "%rd2")
        txt = b.to_text()
        assert "mov.u32 %r1, %tid.x;" in txt
        assert "st.global.f64 [%rd1], %fd1;" in txt
        assert "ld.global.f64 %fd2, [%rd2];" in txt

    def test_predicated_branch_rendering(self):
        b = IRBuilder()
        b.emit("bra", None, "BB1", predicate="%p1")
        assert "@%p1 bra BB1;" in b.to_text()


INT_SPECS = [("int", "a"), ("int", "b"), ("array", "out", np.int32)]


class TestIntOps:
    def test_mul_add_emit(self):
        """A product with two readers is a real ``mul.lo`` feeding
        plain adds."""

        def body(i, a, b, out):
            p = a * b
            out[i] = (p + a) + p

        ops = opcodes(body, INT_SPECS)
        assert ops.count("mul.lo.s32") == 1
        assert ops.count("add.s32") == 2
        assert "st.global.s32" in ops

    def test_mad(self):
        """A product only an add reads contracts to ``mad.lo.s32`` —
        hand-written index arithmetic prints as ``get_idx`` does."""

        def body(i, a, b, out):
            out[i] = a * b + i

        ops = opcodes(body, INT_SPECS)
        assert ops.count("mad.lo.s32") == 2  # the global index, and ours
        assert "mul.lo.s32" not in ops and "add.s32" not in ops

    def test_literal_coercion(self):
        def body(i, a, b, out):
            out[i] = (a + 7) - 3

        ir = listing(body, INT_SPECS)
        literals = [
            ins.srcs[0] for ins in ir.instructions
            if ins.op == "mov.u32" and not ins.srcs[0].startswith("%")
        ]
        assert literals == ["7", "3"]


class TestFmaContraction:
    def test_product_plus_value_is_fma(self):
        def body(i, n, alpha, x, y):
            y[i] = alpha * x[i] + y[i]

        ops = opcodes(body)
        assert "fma.rn.f64" in ops
        assert "mul.f64" not in ops  # contracted, not materialised

    def test_value_plus_product_is_fma(self):
        def body(i, n, alpha, x, y):
            y[i] = y[i] + alpha * x[i]

        ir = listing(body)
        ops = ir.opcode_stream()
        assert "fma.rn.f64" in ops and "mul.f64" not in ops
        fma = next(i for i in ir.instructions if i.op == "fma.rn.f64")
        assert fma.srcs[0] == ir.param_registers[1]  # alpha * x + y

    def test_lone_product_materialises(self):
        def body(i, n, alpha, x, y):
            y[i] = (alpha * x[i]) / y[i]

        assert "mul.f64" in opcodes(body)

    def test_product_plus_product(self):
        def body(i, n, alpha, x, y):
            y[i] = alpha * x[i] + alpha * y[i]

        ops = opcodes(body)
        # One product materialises, the other contracts.
        assert ops.count("mul.f64") == 1
        assert ops.count("fma.rn.f64") == 1

    def test_plain_add_sub_div(self):
        def body(i, n, alpha, x, y):
            y[i] = ((x[i] + alpha) - y[i]) / alpha

        ops = opcodes(body)
        assert "add.f64" in ops and "sub.f64" in ops and "div.rn.f64" in ops

    def test_float_literal_materialises_in_the_operation_class(self):
        def body(i, n, alpha, x, y):
            y[i] = x[i] - 2

        ir = listing(body)
        mov = next(i for i in ir.instructions if i.op == "mov.f64")
        assert mov.srcs == ("0d4000000000000000",)

    def test_unsupported_ufunc_is_named(self):
        def body(i, n, alpha, x, y):
            y[i] = np.sqrt(x[i])

        with pytest.raises(TraceError, match="sqrt"):
            listing(body)


class TestGuard:
    def test_if_emits_negated_setp_and_branch(self):
        def body(i, n, alpha, x, y):
            if i < n:
                y[i] = x[i]

        ops = opcodes(body)
        assert "setp.ge.s32" in ops  # negated lt
        assert ops.index("setp.ge.s32") + 1 == ops.index("bra")
        assert ops.index("bra") < ops.index("ld.global.f64")

    def test_exit_label_emitted_at_finish(self):
        def body(i, n, alpha, x, y):
            if i < n:
                y[i] = x[i]

        ir = listing(body)
        assert ir.instructions[-1].op == "label"
        bra = next(i for i in ir.instructions if i.op == "bra")
        assert bra.srcs == ir.instructions[-1].srcs

    @pytest.mark.parametrize(
        "cond,negated",
        [("__lt__", "setp.ge.s32"), ("__le__", "setp.gt.s32")],
    )
    def test_negation_table(self, cond, negated):
        def body(i, n, alpha, x, y):
            if getattr(i, cond)(n):
                y[i] = x[i]

        assert negated in opcodes(body)

    @pytest.mark.parametrize("cond", ["__gt__", "__ge__", "__eq__"])
    def test_unmaskable_guard_carries_the_fallback_slug(self, cond):
        """Soundness is the compile tracer's: a lane-dependent branch it
        cannot mask does not print as if it could."""

        def body(i, n, alpha, x, y):
            if getattr(i, cond)(n):
                y[i] = x[i]

        with pytest.raises(TraceError, match="divergent-control-flow"):
            listing(body)

    def test_data_dependent_range_carries_the_fallback_slug(self):
        def body(i, n, alpha, x, y):
            for k in range(i):
                y[k] = x[k]

        with pytest.raises(TraceError, match="divergent-control-flow"):
            listing(body)


class TestSymArray:
    def test_load_sequence(self):
        def body(i, n, alpha, x, y):
            y[i] = x[i]

        ops = opcodes(body)
        for op in ("cvta.to.global.u64", "mul.wide.s32", "add.s64", "ld.global.f64"):
            assert op in ops

    def test_const_array_uses_nc(self):
        def body(i, n, alpha, x, y):
            y[i] = x[i] + y[i]

        specs = [SPECS[0], SPECS[1], ("const_array", "x"), SPECS[3]]
        ops = opcodes(body, specs)
        # A property of the parameter, not of the trace: x only.
        assert ops.count("ld.global.nc.f64") == 1
        assert ops.count("ld.global.f64") == 1

    def test_offset_shared_between_arrays(self):
        """The index*8 offset is computed once (as nvcc does)."""

        def body(i, n, alpha, x, y):
            y[i] = x[i] + y[i]

        assert opcodes(body).count("mul.wide.s32") == 1

    def test_offset_not_shared_across_itemsizes(self):
        """Regression: two buffers of different dtypes indexed by the
        same register must scale by their own itemsize — the offset
        cache is keyed on (register, itemsize), never register alone."""

        def body(i, a, b):
            a[i] = b[i]

        ir = listing(body, [("array", "a", np.float64),
                            ("array", "b", np.float32)])
        muls = [ins for ins in ir.instructions if ins.op == "mul.wide.s32"]
        assert len(muls) == 2  # one widened product per itemsize
        # Distinct byte-offset registers, scaled by 8 and 4 respectively.
        assert len({m.dst for m in muls}) == 2
        assert {m.srcs[-1] for m in muls} == {"8", "4"}

    def test_dtype_selects_load_store_suffix(self):
        """A float32 buffer loads/stores through .f32, an int32 buffer
        through .s32 — never the hardcoded .f64 path."""

        def body(i, v, w, c, d):
            w[i] = v[i]
            d[i] = c[i]

        ir = listing(body, [
            ("array", "v", np.float32), ("array", "w", np.float32),
            ("array", "c", np.int32), ("array", "d", np.int32),
        ])
        ops = ir.opcode_stream()
        assert "ld.global.f32" in ops and "st.global.f32" in ops
        assert "ld.global.s32" in ops and "st.global.s32" in ops
        assert "ld.global.f64" not in ops and "st.global.f64" not in ops
        # The loaded value's register class follows the dtype too.
        text = ir.to_text()
        assert "ld.global.f32 %f1," in text and "ld.global.s32 %r" in text

    def test_mixed_widths_are_converted(self):
        """A float32 load meeting the float64 ``alpha`` is widened, and
        the result narrowed for the float32 store — no instruction
        reads a register of another class."""

        def body(i, n, alpha, x, y):
            y[i] = alpha * x[i]

        ops = opcodes(body, [SPECS[0], SPECS[1], ("array", "x", np.float32),
                             ("array", "y", np.float32)])
        assert "cvt.f64.f32" in ops and "cvt.rn.f32.f64" in ops
        assert ops.index("cvt.f64.f32") < ops.index("mul.f64")

    def test_address_reused_for_store(self):
        def body(i, n, alpha, x, y):
            y[i] = y[i] + alpha

        ops = opcodes(body)
        assert ops.count("add.s64") == 1  # same address register
        assert "st.global.f64" in ops

    def test_store_materialises_product(self):
        def body(i, n, alpha, x, y):
            y[i] = alpha * alpha

        assert "mul.f64" in opcodes(body)

    def test_constant_index_prints(self):
        """``x[3]`` records a load with a literal index."""

        def body(i, n, alpha, x, y):
            y[i] = x[3]

        ir = listing(body)
        text = ir.to_text()
        assert "mov.u32 %r6, 3;" in text
        assert "mul.wide.s32 %rd3, %r6, 8;" in text

    def test_unmapped_dtype_rejected(self):
        def body(i, a):
            a[i] = a[i]

        with pytest.raises(TraceError, match="no PTX mapping"):
            listing(body, [("array", "a", np.int8)])

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown arg spec"):
            listing(lambda i, a: None, [("pointer", "a")])
