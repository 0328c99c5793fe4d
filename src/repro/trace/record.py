"""The one recording both Fig. 4 printers read, and how they walk it.

:mod:`repro.trace` never runs a kernel under symbolic operands itself:
:func:`record` hands it to the tracer of :mod:`repro.compile` — the one
every compiled launch goes through — and a :class:`Printer` walks what
that recorded (``TraceResult.order``: every node and bounds guard in
program order, dead values included).  What the tracer classifies as
unrepresentable is unprintable too, for the same reason.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import TraceError
from ..core.workdiv import WorkDivMembers

__all__ = ["record", "sample_work_div", "is_const", "Printer"]

_COMPARISONS = (np.less, np.less_equal, np.greater, np.greater_equal,
                np.equal, np.not_equal)


def sample_work_div(dim: int) -> WorkDivMembers:
    """A small ``dim``-axis work division to trace against: the listings
    read extents from special registers, never from this."""
    if not 1 <= dim <= 3:
        raise TraceError(f"listings support 1..3 dimensions, got {dim}")
    return WorkDivMembers.make(2, 2, 1, dim=dim)


def record(kernel, work_div, args):
    """Trace ``kernel`` block-level against sample ``args``; a
    classified fallback surfaces as :class:`TraceError` with its slug."""
    # Imported on first use: `import repro` imports this package, and
    # must not load the compiler for launches that never trace.
    from ..compile.tracer import CompileFallback, trace_kernel

    try:
        return trace_kernel(
            kernel, work_div, None, tuple(args), block_level=True
        )
    except CompileFallback as cf:
        raise TraceError(f"{cf.reason}: {cf.detail}") from cf


def is_const(node) -> bool:
    """Is ``node`` a recorded literal?  (By name: the node classes live
    in the compiler, which only :func:`record` imports.)"""
    return type(node).__name__ == "Const"


class Printer:
    """Walks one recording: ``visit_<NodeClass>(node)`` per recorded
    node, ``guard(op, lane, bound)`` per bounds guard, in program order.

    ``regs`` maps a node to wherever the target keeps its value;
    ``opcodes`` the binary ufuncs the target has an instruction for
    (:meth:`arithmetic` prints those).
    """

    target = ""
    opcodes: dict = {}

    def __init__(self, trace, args):
        self.trace, self.args = trace, args
        self.regs: dict = {}
        self.exit_label = None

    def walk(self) -> None:
        for entry in self.trace.order:
            if isinstance(entry, tuple):
                self.guard(*entry)
                continue
            visit = getattr(self, "visit_" + type(entry).__name__, None)
            if visit is None:
                # Prefixed with a fallback slug, like every
                # unprintable recording (e.g. a `SpanMatMul`).
                raise TraceError(
                    f"unsupported-op: no {self.target} for a recorded "
                    f"{type(entry).__name__}"
                )
            visit(entry)

    def visit_Const(self, node) -> None:
        """Literals materialise at their first use."""

    def visit_Ufunc(self, node) -> None:
        if node.fn in _COMPARISONS:
            return  # printed where it is branched on, by `guard`
        if node.fn not in self.opcodes or len(node.args) != 2:
            raise TraceError(
                f"no {self.target} instruction for ufunc "
                f"{getattr(node.fn, '__name__', node.fn)!r}"
            )
        self.arithmetic(node)
