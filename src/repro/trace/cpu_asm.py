"""CPU assembler tracing — the second half of paper Fig. 4.

Besides the PTX comparison, Sec. 4.1 inspects the *x86 assembler* of the
DAXPY kernels: the native C++ loop vectorises to packed SSE2
(``movupd``/``mulpd``/``addpd``) while a one-element-per-thread kernel
compiles to scalar instructions (``movsd``/``mulsd``/``addsd``); adding
the element level ("a primitive inner loop over a fixed number of
elements") lets the compiler emit the packed forms for the alpaka kernel
too.

This module reproduces that observation mechanically, as the x86
printer over the one kernel trace (:func:`repro.trace.record.record`).
What was recorded decides what is printed:

* **scalar** — :func:`trace_cpu_kernel_scalar` traces the
  one-element-per-thread kernel: its per-thread loads, multiplies and
  adds come out as ``movsd``/``mulsd``/``addsd``.
* **vector** — :func:`trace_cpu_kernel_spans` traces the element-span
  kernel: the tracer collapses its grid-strided loop into whole-span
  loads and stores, which come out as SSE2-packed
  ``movupd``/``mulpd``/``addpd``, two lanes per register, unrolled
  across the span — exactly what the auto-vectoriser produces for the
  "primitive inner loop".

Lane packing, the hoisted ``movddup`` broadcast and the ABI pointer
registers are decided here; the trace knows none of them.

The emitted dialect is deliberately small (AT&T-ish Intel mnemonics,
``%xmmN`` registers, ``%rdi/%rsi/...`` pointer registers): enough to
*count and classify* instructions, which is all the paper's argument
needs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.errors import TraceError
from ..core.workdiv import WorkDivMembers
from .record import Printer, is_const, record, sample_work_div

__all__ = [
    "CpuTraceContext",
    "trace_cpu_kernel_scalar",
    "trace_cpu_kernel_spans",
    "classify_fp_instructions",
]

#: SSE2 register width in doubles.
SSE2_LANES = 2

_PTR_REGS = ("%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9")

_JUMP_PAST = {"lt": "jge", "le": "jg"}


class CpuTraceContext:
    """Instruction list + register allocation for one CPU trace."""

    def __init__(self, name: str = "kernel"):
        self.name = name
        self.instructions: List[str] = []
        self._xmm = 0
        self._gp = 0
        self._ptrs = list(_PTR_REGS)
        self._labels = 0

    def new_xmm(self) -> str:
        reg = f"%xmm{self._xmm}"
        self._xmm = (self._xmm + 1) % 16
        return reg

    def new_gp(self) -> str:
        reg = f"%r1{self._gp}"
        self._gp = (self._gp + 1) % 6
        return reg

    def new_ptr(self) -> str:
        if not self._ptrs:
            raise TraceError("out of pointer argument registers")
        return self._ptrs.pop(0)

    def new_label(self) -> str:
        self._labels += 1
        return f".L{self._labels}"

    def emit(self, text: str) -> None:
        self.instructions.append(text)

    def to_text(self) -> str:
        return "\n".join(
            i if i.endswith(":") else "    " + i for i in self.instructions
        )

    def mnemonics(self) -> List[str]:
        return [
            i.split()[0] for i in self.instructions if not i.endswith(":")
        ]


class _X86Printer(Printer):
    """``regs`` maps a node to its register: a general-purpose one for
    an index, one ``%xmm`` for a double, a list of them for a span of
    doubles (two lanes each); ``params`` an argument position to the
    register the prologue gave it."""

    target = "x86"
    opcodes = {np.multiply: "mul", np.add: "add", np.subtract: "sub"}

    def __init__(self, ctx: CpuTraceContext, trace, args, params: dict):
        super().__init__(trace, args)
        self.ctx, self.params = ctx, params
        #: scalar register -> its ``movddup`` copy: splatted once per
        #: trace, like a compiler hoisting it out of the loop.
        self.splats: dict = {}

    def print(self) -> CpuTraceContext:
        self.walk()
        if self.exit_label is not None:
            self.ctx.emit(f"{self.exit_label}:")
        return self.ctx

    # -- operands -------------------------------------------------------

    def _operand(self, node, index: bool = False):
        """``node`` as an index register (``index``), else as a double
        (one ``%xmm``) or a span of them (a list)."""
        reg = self.regs.get(node)
        if reg is None and is_const(node):
            if index:
                reg = self.regs[node] = self.ctx.new_gp()
                self.ctx.emit(f"mov ${int(node.value)}, {reg}")
            else:
                reg = self.regs[node] = self.ctx.new_xmm()
                self.ctx.emit(f"movsd ${float(node.value)}, {reg}")
        if reg is None or isinstance(reg, str) and reg.startswith("%xmm") == index:
            raise TraceError(
                f"cannot use a recorded {type(node).__name__} as "
                f"{'an index' if index else 'a floating-point operand'}"
            )
        return reg

    def _splat(self, reg: str) -> str:
        dst = self.splats.get(reg)
        if dst is None:
            dst = self.splats[reg] = self.ctx.new_xmm()
            self.ctx.emit(f"movddup {reg}, {dst}")
        return dst

    def _lanes(self, extent) -> int:
        """How many doubles the collapsed span ``[0, extent)`` holds."""
        kind = type(extent).__name__
        if kind not in ("Arg", "Const"):
            raise TraceError("element-span extent is a computed value")
        count = int(self.args[extent.pos] if kind == "Arg" else extent.value)
        if count <= 0 or count % SSE2_LANES:
            raise TraceError(
                f"span of {count} doubles does not fill SSE2 lanes"
            )
        return count

    # -- values ---------------------------------------------------------

    def visit_Arg(self, node) -> None:
        if node.pos in self.params:
            self.regs[node] = self.params[node.pos]

    def visit_LaneIndex(self, node) -> None:
        reg = self.regs[node] = self.ctx.new_gp()
        name = "thread_linear" if node.kind == "grid_thread" else node.kind
        self.ctx.emit(f"mov <{name}>, {reg}")

    def arithmetic(self, node) -> None:
        op = self.opcodes[node.fn]
        a, b = (self._operand(x) for x in node.args)
        packed = isinstance(a, list) or isinstance(b, list)
        if packed:
            if not isinstance(a, list) and op != "sub":
                a, b = b, a  # commutative: copy the span, splat the scalar
            width = len(a) if isinstance(a, list) else len(b)
            a, b = (
                v if isinstance(v, list) else [self._splat(v)] * width
                for v in (a, b)
            )
            if len(a) != len(b):
                raise TraceError("span length mismatch in vector op")
        else:
            a, b = [a], [b]
        out = []
        for x, y in zip(a, b):
            out.append(self.ctx.new_xmm())
            self.ctx.emit(f"movapd {x}, {out[-1]}")
            self.ctx.emit(f"{op}{'pd' if packed else 'sd'} {y}, {out[-1]}")
        self.regs[node] = out if packed else out[0]

    # -- memory ---------------------------------------------------------

    def _element(self, node) -> str:
        if len(node.index) != 1:
            raise TraceError("CPU listings address flat buffers")
        idx = self._operand(node.index[0], index=True)
        return f"({self.params[node.pos]},{idx},8)"

    def visit_Load(self, node) -> None:
        dst = self.regs[node] = self.ctx.new_xmm()
        self.ctx.emit(f"movsd {self._element(node)}, {dst}")

    def visit_Store(self, node) -> None:
        value = self._operand(node.value)
        if isinstance(value, list):
            raise TraceError("span value stored through a scalar index")
        self.ctx.emit(f"movsd {value}, {self._element(node)}")

    def visit_SpanLoad(self, node) -> None:
        regs = self.regs[node] = []
        for lane0 in range(0, self._lanes(node.extent), SSE2_LANES):
            regs.append(self.ctx.new_xmm())
            self.ctx.emit(
                f"movupd {8 * lane0}({self.params[node.pos]}), {regs[-1]}"
            )

    def visit_SpanStore(self, node) -> None:
        value = self._operand(node.value)
        if not isinstance(value, list) or \
                len(value) * SSE2_LANES != self._lanes(node.extent):
            raise TraceError("span store needs a vector value of its length")
        for k, reg in enumerate(value):
            self.ctx.emit(
                f"movupd {reg}, {8 * k * SSE2_LANES}({self.params[node.pos]})"
            )

    # -- control --------------------------------------------------------

    def guard(self, op: str, lane, bound) -> None:
        if self.exit_label is None:
            self.exit_label = self.ctx.new_label()
        bound, lane = (self._operand(x, index=True) for x in (bound, lane))
        self.ctx.emit(f"cmp {bound}, {lane}")
        self.ctx.emit(f"{_JUMP_PAST[op]} {self.exit_label}")


def _print(kernel, array_names: Sequence[str], scalars, work_div, bound: bool):
    """Trace ``kernel(acc, *scalars, *arrays)`` and print the recording.

    The prologue hands out the parameter registers: the bound ``n`` (a
    named register when ``bound``, else only the traced extent), the
    remaining scalars as xmm constants, the arrays as ABI pointers.
    """
    ctx = CpuTraceContext(getattr(kernel, "__name__", "kernel"))
    threads = int(work_div.block_count) * int(work_div.block_thread_count)
    n = threads if bound else int(scalars[0])
    args: List[object] = [n, *(float(s) for s in scalars[1:])]
    args += [np.zeros(max(n, threads)) for _ in array_names]
    params = {}
    if bound:
        params[0] = ctx.new_gp()
        ctx.emit(f"mov <n>, {params[0]}")
    for pos in range(1, len(scalars)):
        params[pos] = ctx.new_xmm()
        ctx.emit(f"movsd ${args[pos]}, {params[pos]}")
    for pos in range(len(scalars), len(args)):
        params[pos] = ctx.new_ptr()
    return _X86Printer(ctx, record(kernel, work_div, args), args, params).print()


def trace_cpu_kernel_scalar(kernel, array_names: Sequence[str], *scalars):
    """Trace a one-element-per-thread kernel body on the CPU.

    ``scalars`` are the leading non-array kernel arguments after the
    accelerator (e.g. ``n, alpha`` for DAXPY); ``n`` is printed as the
    symbolic bound register whatever value is passed for it.
    """
    return _print(kernel, array_names, scalars, sample_work_div(1), True)


def trace_cpu_kernel_spans(kernel, array_names: Sequence[str], *scalars, span: int = 4):
    """Trace an element-span kernel over ``scalars[0]`` elements, one
    thread owning ``span`` of them.

    The span plays the paper's "primitive inner loop over a fixed
    number of elements": operations on it print as packed SSE2.
    """
    return _print(
        kernel, array_names, scalars, WorkDivMembers.make(1, 1, span), False
    )


def classify_fp_instructions(ctx: CpuTraceContext) -> dict:
    """Count packed vs scalar floating-point instructions — the metric
    the paper's Fig. 4 discussion turns on."""
    packed = scalar = 0
    for m in ctx.mnemonics():
        # movapd is a register copy used by both paths; it classifies
        # neither way.
        if m in ("movupd", "mulpd", "addpd", "subpd", "movddup"):
            packed += 1
        elif m in ("movsd", "mulsd", "addsd", "subsd"):
            scalar += 1
    return {"packed": packed, "scalar": scalar}
