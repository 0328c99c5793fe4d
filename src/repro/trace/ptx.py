"""The PTX printer: a recorded kernel trace as a PTX-like listing.

The same kernel object that executes on any back-end is traced once by
:func:`repro.trace.record.record`; this module walks the recording in
program order and emits the instruction stream nvcc would — the
reproduction's "generated code" for the kernel, comparable
instruction-by-instruction with a natively written CUDA kernel
(:mod:`repro.trace.native_cuda`) — paper Fig. 4.

Everything PTX-specific is decided here, from the node alone:

* register classes — indices and extents are ``%r``, a scalar parameter
  follows its :data:`ArgSpec`, a load the array's dtype, an operation
  the widest of its operands (narrower ones are converted, literals
  materialise directly in that class);
* ``ntid * ctaid + tid`` → ``mad.lo.s32`` and ``a * x + y`` →
  ``fma.rn.f64``: a product whose only reader is an add is contracted
  into it (as nvcc does, and the paper's Fig. 4 shows);
* the in-bounds guard ``if i < n:`` → negated ``setp`` + predicated
  branch to the exit label (the *taken* path is what was traced);
* addresses — ``mul.wide.s32 idx, itemsize`` shared between arrays of
  one item size, ``cvta.to.global`` once per array, the sum reused by
  the store; ``const_array`` parameters load through ``ld.global.nc``,
  the one-instruction difference the paper observes.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..core.errors import TraceError
from .ir import IRBuilder
from .record import Printer, is_const, record, sample_work_div

__all__ = ["ArgSpec", "trace_alpaka_kernel"]

#: ("int", name) | ("float", name) | ("array", name) | ("const_array", name),
#: each optionally with a third element: the element dtype of an array
#: parameter (default float64) — e.g. ("array", "counts", np.int32).
#: The dtype scales the byte-offset computation and selects the
#: ``ld.global``/``st.global`` type suffix.
ArgSpec = Union[Tuple[str, str], Tuple[str, str, object]]

_AXES = ("x", "y", "z")

#: Register classes, narrowest first, and their PTX type suffix.
_TYPE = {"r": "s32", "rd": "s64", "f": "f32", "fd": "f64"}
_RANK = list(_TYPE)
_FLOAT = ("f", "fd")

#: numpy dtype (kind + itemsize) -> (load/store suffix, register class).
_MEMORY_TYPE = {"f8": ("f64", "fd"), "f4": ("f32", "f"), "i4": ("s32", "r"),
                "i8": ("s64", "rd"), "u4": ("u32", "r"), "u8": ("u64", "rd")}

#: ufunc -> opcode stem for (integer, float) operands.
_OPCODES = {np.add: ("add", "add"), np.subtract: ("sub", "sub"),
            np.multiply: ("mul.lo", "mul"), np.true_divide: ("div", "div.rn")}
_CONTRACTED = ("mad.lo", "fma.rn")
_NEGATED = {"lt": "ge", "le": "gt"}

#: (node class, kind) -> special register.
_SREG = {("LaneIndex", "block"): "ctaid", ("LaneIndex", "thread"): "tid",
         ("Extent", "block"): "nctaid", ("Extent", "thread"): "ntid"}


def _immediate(value, cls: str) -> str:
    if cls == "fd":
        return f"0d{np.float64(value).view(np.uint64):016X}"
    if cls == "f":
        return f"0f{np.float32(value).view(np.uint32):08X}"
    return str(int(value))


class _PtxPrinter(Printer):
    """``regs`` maps a node — or the key of a shared subexpression,
    see :meth:`_once` — to (register, class)."""

    target = "PTX"
    opcodes = _OPCODES

    def __init__(self, trace, args, specs, dim: int, name: str):
        super().__init__(trace, args)
        self.b = IRBuilder(name)
        self.specs, self.dim = specs, dim
        self.params = [
            self.b.new_param({"int": "r", "float": "fd"}.get(s[0], "rd"))
            for s in specs
        ]
        #: node -> the recorded nodes and guards that read it.
        self.readers: dict = {}
        for entry in trace.order:
            if isinstance(entry, tuple):  # a bounds guard: (op, lane, bound)
                reads = entry[1:]
            else:
                reads = getattr(entry, "args", ()) + getattr(entry, "index", ())
                if type(entry).__name__.endswith("Store"):
                    reads += (entry.value,)
            for node in reads:
                self.readers.setdefault(node, []).append(entry)
        #: Products waiting to be contracted into the add that reads them.
        self.pending: set = set()

    def print(self) -> IRBuilder:
        self.walk()
        if self.exit_label is not None:
            self.b.emit_label(self.exit_label)
        return self.b

    # -- registers ------------------------------------------------------

    def _define(self, node, cls: str, op: str, *srcs: str) -> None:
        reg = self.b.new_reg(cls)
        self.b.emit(op, reg, *srcs)
        self.regs[node] = (reg, cls)

    def _once(self, key, cls: str, op: str, *srcs: str) -> str:
        """A special register, byte offset, base or address is read or
        computed once and shared, exactly as nvcc shares it."""
        if key not in self.regs:
            self._define(key, cls, op, *srcs)
        return self.regs[key][0]

    def _class(self, node) -> str:
        if is_const(node):
            return "fd" if isinstance(node.value, (float, np.floating)) else "r"
        if node in self.pending:
            return self._widest(node.args)
        return self._value(node)[1]

    def _widest(self, nodes) -> str:
        return max((self._class(n) for n in nodes), key=_RANK.index)

    def _value(self, node) -> Tuple[str, str]:
        try:
            return self.regs[node]
        except KeyError:
            raise TraceError(
                f"a recorded {type(node).__name__} is read as a value but "
                f"has no register (a comparison used as a number?)"
            ) from None

    def _reg(self, node, cls: str) -> str:
        """The register holding ``node`` as class ``cls``: a literal
        materialises in it, a narrower or wider value is converted."""
        if node in self.pending:
            self.arithmetic(node, contract=False)
        if is_const(node):
            mov = "mov.u32" if cls == "r" else f"mov.{_TYPE[cls]}"
            return self._once((node, cls), cls, mov, _immediate(node.value, cls))
        reg, have = self._value(node)
        if have == cls:
            return reg
        if cls in _FLOAT:
            rounding = "" if have == "f" else ".rn"
        else:
            rounding = ".rzi" if have in _FLOAT else ""
        out = self.b.new_reg(cls)
        self.b.emit(f"cvt{rounding}.{_TYPE[cls]}.{_TYPE[have]}", out, reg)
        return out

    # -- values ---------------------------------------------------------

    def visit_Arg(self, node) -> None:
        kind = self.specs[node.pos][0]
        self.regs[node] = (self.params[node.pos], "r" if kind == "int" else "fd")

    def _sreg(self, name: str) -> str:
        return self._once(name, "r", "mov.u32", name)

    def visit_LaneIndex(self, node) -> None:
        # Component 0 is the slowest dimension (library convention),
        # which is the *last* CUDA axis name.
        axis = _AXES[self.dim - 1 - node.axis]
        if node.kind == "grid_thread":
            ctaid, ntid, tid = (
                self._sreg(f"%{s}.{axis}") for s in ("ctaid", "ntid", "tid")
            )
            self._define(node, "r", "mad.lo.s32", ntid, ctaid, tid)
        else:
            sreg = _SREG[type(node).__name__, node.kind]
            self.regs[node] = (self._sreg(f"%{sreg}.{axis}"), "r")

    visit_Extent = visit_LaneIndex

    def arithmetic(self, node, contract: bool = True) -> None:
        readers = self.readers.get(node, ())
        if contract and node.fn is np.multiply and len(readers) == 1 \
                and getattr(readers[0], "fn", None) is np.add:
            self.pending.add(node)  # its add prints it, as mad or fma
            return
        self.pending.discard(node)
        srcs, stems = node.args, _OPCODES[node.fn]
        if node.fn is np.add:
            a, b = srcs if srcs[0] in self.pending else srcs[::-1]
            if a in self.pending:  # (a second pending product multiplies)
                self.pending.discard(a)
                srcs, stems = a.args + (b,), _CONTRACTED
        cls = self._widest(srcs)
        if node.fn is np.true_divide and cls not in _FLOAT:
            cls = "fd"  # true division of integers is a float
        self._define(node, cls, f"{stems[cls in _FLOAT]}.{_TYPE[cls]}",
                     *[self._reg(s, cls) for s in srcs])

    # -- memory ---------------------------------------------------------

    def _address(self, node) -> Tuple[str, str, str, str]:
        """(state space, type suffix, register class, address register)
        of the element a load or store node names."""
        shared = getattr(node, "shared", None)
        if shared is None:
            space, name, dtype = "global", node.pos, self.args[node.pos].dtype
        else:
            space, name, dtype = "shared", shared.name, shared.dtype
        try:
            suffix, cls = _MEMORY_TYPE[dtype.str[1:]]
        except KeyError:
            raise TraceError(
                f"array {name!r}: no PTX mapping for dtype {dtype}"
            ) from None
        if len(node.index) != 1:
            raise TraceError(
                f"array {name!r} subscripted with {len(node.index)} indices; "
                f"listings address flat buffers"
            )
        idx = self._reg(node.index[0], "r")
        off = self._once((idx, dtype.itemsize), "rd", "mul.wide.s32", idx,
                         str(dtype.itemsize))
        if shared is None:
            base = self._once((space, name), "rd", "cvta.to.global.u64",
                              self.params[name])
        else:
            base = self._once((space, name), "rd", "mov.u64", f"%{name}")
        addr = self._once((base, off), "rd", "add.s64", base, off)
        return space, suffix, cls, addr

    def visit_Load(self, node) -> None:
        space, suffix, cls, addr = self._address(node)
        if space == "global" and self.specs[node.pos][0] == "const_array":
            space += ".nc"
        self._define(node, cls, f"ld.{space}.{suffix}", addr)

    def visit_Store(self, node) -> None:
        space, suffix, cls, addr = self._address(node)
        self.b.emit(f"st.{space}.{suffix}", None, addr,
                    self._reg(node.value, cls))

    visit_SharedLoad, visit_SharedStore = visit_Load, visit_Store

    def visit_Barrier(self, node) -> None:
        self.b.emit("bar.sync", None, "0")

    # -- control --------------------------------------------------------

    def guard(self, op: str, lane, bound) -> None:
        """``if lane <op> bound:`` as nvcc compiles it: test the negated
        condition, branch to the exit, fall through into the body."""
        cls = self._widest((lane, bound))
        pred = self.b.new_reg("p")
        self.b.emit(f"setp.{_NEGATED[op]}.{_TYPE[cls]}", pred,
                    self._reg(lane, cls), self._reg(bound, cls))
        if self.exit_label is None:
            self.exit_label = self.b.new_label()
        self.b.emit("bra", None, self.exit_label, predicate=pred)


def trace_alpaka_kernel(
    kernel,
    arg_specs: Sequence[ArgSpec],
    *,
    dim: int = 1,
    name: str = "alpaka_kernel",
) -> IRBuilder:
    """Symbolically compile an alpaka kernel.

    ``arg_specs`` describes the kernel parameters after the accelerator,
    in order.  Returns the finished instruction stream.

    The tracer wants live arguments; they are synthesised from the
    specs over a small ``dim``-axis work division: integers are its
    thread count (so ``if i < n:`` samples true), floats 1.0, arrays
    1-d zeros of the spec's dtype.
    """
    work_div = sample_work_div(dim)
    threads = int(work_div.block_count) * int(work_div.block_thread_count)
    args = []
    for spec in arg_specs:
        kind = spec[0]
        if kind in ("int", "float"):
            args.append(threads if kind == "int" else 1.0)
        elif kind in ("array", "const_array"):
            args.append(np.zeros(
                threads, dtype=spec[2] if len(spec) > 2 else np.float64
            ))
        else:
            raise TraceError(f"unknown arg spec kind {kind!r} for {spec[1]!r}")
    trace = record(kernel, work_div, args)
    return _PtxPrinter(trace, args, list(arg_specs), dim, name).print()
