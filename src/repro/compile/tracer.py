"""The tracer: run a kernel once with batched symbolic threads.

This is the only code that runs a kernel under symbolic operands.  A
:class:`CompileAcc` stands in for the accelerator while the kernel
executes a single time.  Index queries (the ``trace_get_idx`` hook of
:func:`repro.core.index.get_idx`) return :class:`SymValue` operands
carrying a :class:`~repro.compile.exprs.LaneIndex` expression instead of
a number; arithmetic, comparisons and numpy ufuncs on them grow a
dataflow graph; array accesses record :class:`Load`/:class:`Store`
nodes.  The recording (:class:`TraceResult`) has four consumers:
:mod:`~repro.compile.codegen` replays the *whole grid* as fused numpy
operations, :mod:`repro.trace` prints it as the PTX and x86 listings
of paper Fig. 4, and the guard set the lowering derives from it (which
arrays only slice-form keys reach) lets interpreted launches run on
plain views (:meth:`repro.runtime.plan.ArgsRecord.prove`).  The
printers ask for a *block-level* trace
(``trace_kernel(..., block_level=True)``): extents keep their
provenance, shared memory and barriers become nodes instead of
fallbacks.  Everything below is about the default, replayable trace.

What is representable, and what falls back:

* straight-line code — always;
* **thread-uniform branches** (``if alpha != 0:``): the predicate is
  evaluated concretely against the live arguments and recorded as a
  guard; replay re-checks it and re-traces on a flip;
* the **canonical bounds guard** ``if i < n:`` (a thread-derived
  integer strictly/weakly below a uniform bound) — lowered to a lane
  mask applied to every subsequent store.  Only this comparison shape
  is maskable; any other lane-dependent truth test (``min``/``max``
  idioms, inverted guards, data-dependent branches) raises
  :class:`CompileFallback` so the launch transparently falls back to
  interpretation;
* **grid-strided element spans** (:func:`repro.core.element.
  grid_strided_spans`): the per-thread clipped spans of all threads
  tile ``[0, extent)`` exactly once, so the whole loop collapses into
  one :class:`SpanLoad`/:class:`SpanStore` over the leading axis.  The
  span is ``x[span]`` of a 1-d array or the **row span** ``X[span, :]``
  (whole trailing axes) of an n-d one; a partial trailing subscript
  falls back.  ``span.start`` and ``span.stop`` are numbers only
  when the loop is a single chunk (``0 < extent <= L``, then ``0`` and
  the guarded extent); otherwise each chunk has its own bounds and
  reading them falls back.  The loop body runs once per chunk, and not
  in a thread without one, so every store in it must go through the
  span;
* **``@`` on a row span**: ``X[span, :] @ B`` with a 2-d row-span value
  on the left and a whole array argument on the right records one
  :class:`SpanMatMul` with the loop's chunk rows, since the interpreted
  loop multiplies chunk by chunk (the replay runs one whole product
  only where a layout's certificate shows the same bits).  The right
  operand is read whole, so no
  store may touch it (at trace time), nor may any written argument
  share its memory (per launch).  A span-domain, per-thread or scalar
  right operand, a 1-d span and a traced value on the right of ``@``
  fall back;
* **n-d element boxes** (:func:`repro.core.element.element_box`, and
  :func:`~repro.core.element.clip_box` for the interior): the boxes of
  all threads are disjoint and together cover the clipped extent, so a
  box traces as one symbolic :class:`~repro.compile.exprs.Tile`;
  subscripts built from its bounds plus a constant
  (``src[ir.start - 1 : ir.stop - 1, ic]``) become shifted whole-array
  slices.  ``box.start < box.stop`` traces the non-empty path — a
  thread with an empty box contributes nothing — and every later store
  must be indexed by that tile or a clip of it.  A shift that leaves
  the array, a bound used as a number (builtin ``max``/``min``,
  ``range``) and a store under a lane mask fall back;
* values of different index domains (per-lane, per-span-element,
  per-tile-element) never meet in one operation — there is no
  thread-to-element correspondence the replay could honour — and span
  values meet only with the same trailing shape (a 1-d span broadcast
  against row-span columns pairs different elements per chunk than
  over the whole span);
* barriers, atomics, shared memory, per-thread RNG, lane-dependent
  ``int()``/``range()``, loads that alias an earlier store under a
  different index and a store at a uniform subscript of a value loaded
  from the same array (``z[0] = z[0] + 1``: every thread updates one
  element) — classified fallbacks, never silent wrong answers.

:class:`CompileFallback` derives from ``BaseException`` on purpose: a
kernel's own ``except Exception`` must not swallow the classifier.
"""

from __future__ import annotations

import functools
import operator
from typing import List, Optional, Tuple

import numpy as np

from ..core.index import Origin, Unit, get_work_div
from ..math.ops import DEFAULT_MATH
from .exprs import (
    Arg,
    Barrier,
    Const,
    Expr,
    Extent,
    LaneIndex,
    Load,
    Shared,
    SharedLoad,
    SharedStore,
    SpanLoad,
    SpanMatMul,
    SpanStore,
    Store,
    Tile,
    TileLoad,
    TileStore,
    Ufunc,
)

__all__ = [
    "CompileFallback",
    "FALLBACK_REASONS",
    "CompileAcc",
    "SymValue",
    "TraceState",
    "trace_kernel",
    "TraceResult",
    "MAX_TRACE_NODES",
    "MAX_MASK_GUARDS",
]

#: Upper bound on expression nodes per trace; a kernel unrolling past
#: this (large concrete loops) falls back rather than compiling into a
#: graph slower to evaluate than interpretation.
MAX_TRACE_NODES = 20000

#: Upper bound on stacked bounds-guard masks; a symbolic ``while`` loop
#: re-testing its lane condition hits this cap instead of spinning.
MAX_MASK_GUARDS = 8


#: The closed set of slugs a :class:`CompileFallback` may carry (the
#: ``reason`` label of ``repro_compile_fallbacks_total``).  docs/MODEL.md
#: lists the same set; a test holds the two together.
FALLBACK_REASONS = frozenset({
    "atomics",
    "barrier",
    "divergent-control-flow",
    "load-after-store",
    "replay-error",
    "rng",
    "shared-memory",
    "span-shape",
    "trace-too-large",
    "unsupported-arg",
    "unsupported-op",
})


class CompileFallback(BaseException):
    """Trace abandoned for a classified reason.

    ``reason`` is a slug from :data:`FALLBACK_REASONS` (the
    metrics/flight label); ``detail`` the human explanation logged once
    per (kernel, reason).
    """

    def __init__(self, reason: str, detail: str = ""):
        if reason not in FALLBACK_REASONS:
            raise ValueError(
                f"unclassified compile-fallback reason {reason!r}; "
                f"known: {sorted(FALLBACK_REASONS)}"
            )
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail or reason


class TraceState:
    """Shared mutable state of one kernel trace."""

    def __init__(self, work_div, args: tuple):
        self.work_div = work_div
        self.args = args
        self.nodes = 0
        #: Every counted node and every bounds guard in creation order,
        #: dead values included: the program order a listing prints in.
        self.order: list = []
        #: Canonical bounds guards, in trace order: (op, lane, bound).
        self.masks: List[Tuple[str, Expr, Expr]] = []
        #: Uniform guards: (expr, expected concrete value).
        self.guards: List[Tuple[Expr, object]] = []
        #: Recorded stores, in program order.
        self.stores: list = []
        #: (pos, index-node ids) -> SymValue last stored there, for
        #: exact read-after-write forwarding.
        self.forwarded = {}
        #: Array positions written so far (alias analysis is identity
        #: of index expressions; anything else is a fallback).
        self.stored_positions = set()
        #: Tiles the taken path assumed non-empty, in trace order.
        self.nonempty_tiles: List[Tile] = []
        #: Array positions every chunk reads whole (right operands of
        #: ``@``): no store may target them.
        self.whole_reads = set()
        #: Open grid-strided span loops: their body runs once per chunk
        #: (and not at all in a thread without one), so only stores
        #: through the span replay as the whole loop.
        self.span_loops = 0

    def count(self, node):
        """Account for one recorded ``node`` and hand it back."""
        self.nodes += 1
        self.order.append(node)
        if self.nodes > MAX_TRACE_NODES:
            raise CompileFallback(
                "trace-too-large",
                f"trace exceeded {MAX_TRACE_NODES} expression nodes "
                f"(a concretely unrolled loop?)",
            )
        return node

    def add_mask(self, op: str, lane: Expr, bound: Expr) -> None:
        if len(self.masks) >= MAX_MASK_GUARDS:
            raise CompileFallback(
                "divergent-control-flow",
                f"more than {MAX_MASK_GUARDS} lane-dependent bounds "
                f"guards (symbolic loop condition?)",
            )
        mask = (op, lane, bound)
        self.masks.append(mask)
        self.order.append(mask)

    def add_uniform_guard(self, expr: Expr, expected) -> None:
        self.guards.append((expr, expected))

    def add_store(self, store) -> None:
        tile = store.tile if isinstance(store, TileStore) else None
        for cond in self.nonempty_tiles:
            # Only threads whose `cond` box is non-empty reach this
            # store; it is the whole grid's store only if every other
            # thread's share of it is empty too.
            if tile is None or tile.family is not cond.family \
                    or tile.halo < cond.halo:
                raise CompileFallback(
                    "divergent-control-flow",
                    "store under an element-box non-emptiness test that "
                    "is not indexed by that box or a clip of it",
                )
        if self.masks and not isinstance(store, Store):
            raise CompileFallback(
                "span-shape",
                "element span or box store under a lane mask",
            )
        self.stores.append(store)


def _sample(fn, values):
    """Concrete sample value of a uniform op, or None if unavailable."""
    if any(v is None for v in values):
        return None
    try:
        with np.errstate(all="ignore"):
            return fn(*values)
    except Exception:
        # Must stay broad: ``fn`` is whatever callable the kernel
        # applied; a sample that cannot be computed is just absent.
        return None


def _as_sym(st: TraceState, value, role: str) -> "SymValue":
    """``value`` as a traced operand: literals become :class:`Const`."""
    if isinstance(value, SymValue):
        return value
    if isinstance(value, (bool, int, float, np.bool_, np.integer,
                          np.floating)):
        return SymValue(st, st.count(Const(value)), value=value)
    raise CompileFallback(
        "unsupported-op",
        f"{role} has unsupported type {type(value).__name__!r}",
    )


def _reads_arg(expr: Expr, pos: int) -> bool:
    """Does ``expr`` load from array argument ``pos`` (in a value or an
    index)?"""
    stack, seen = [expr], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Load):
            if node.pos == pos:
                return True
            stack.extend(node.index)
        elif isinstance(node, Ufunc):
            stack.extend(node.args)
    return False


def _is_whole(item) -> bool:
    """Is ``item`` the whole-axis subscript ``:``?  (Compared field by
    field: ``==`` would compare a traced bound with ``None``.)"""
    return isinstance(item, slice) and item.start is None \
        and item.stop is None and item.step is None


#: Index domain of one-value-per-thread operands (the other domains
#: are the span's extent expression and the :class:`Tile` object).
LANE = "lane"


class SymValue:
    """A traced operand: one value per thread, span element or tile
    element of the grid.

    ``domain`` says which: ``None`` marks a *uniform* value (same in
    every thread); its ``value`` is the concrete sample computed from
    the live arguments, which is what uniform branches and ``int()``
    conversions consume.  :data:`LANE` is one value per thread, a
    span's extent expression one per element of that span, a
    :class:`Tile` one per element of that tile.  A span value also has
    a ``trail``: the shape of one element — ``()`` for ``x[span]``,
    ``(K,)`` for the row span of a ``(N, K)`` array.
    """

    __slots__ = ("st", "expr", "value", "domain", "cmp", "trail")

    def __init__(self, st: TraceState, expr: Expr, value=None,
                 domain=None, cmp: Optional[tuple] = None, trail=()):
        self.st = st
        self.expr = expr
        self.value = value
        self.domain = domain
        self.cmp = cmp
        self.trail = trail

    @property
    def lane(self) -> bool:
        """Does the value vary across the grid?"""
        return self.domain is not None

    # -- helpers --------------------------------------------------------

    def _apply(self, fn, *operands, cmp=None) -> "SymValue":
        name = getattr(fn, "__name__", fn)
        syms = [_as_sym(self.st, o, f"operand of {name}") for o in operands]
        expr = self.st.count(Ufunc(fn, tuple(s.expr for s in syms)))
        domain, trail = None, ()
        for s in syms:
            if s.domain is None:
                continue
            if s.domain is domain:
                if s.trail != trail:
                    raise CompileFallback(
                        "span-shape",
                        f"{name} combines span values of element shapes "
                        f"{trail} and {s.trail} (a chunk broadcasts them "
                        f"differently from the whole span)",
                    )
                continue
            if domain is not None:
                raise CompileFallback(
                    "unsupported-op",
                    f"{name} combines values of "
                    f"different index domains (per-thread, per-span "
                    f"element, per-box element)",
                )
            domain, trail = s.domain, s.trail
        value = (
            _sample(fn, [s.value for s in syms]) if domain is None else None
        )
        return SymValue(self.st, expr, value=value, domain=domain, cmp=cmp,
                        trail=trail)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return self._apply(np.add, self, other)

    def __radd__(self, other):
        return self._apply(np.add, other, self)

    def __sub__(self, other):
        return self._apply(np.subtract, self, other)

    def __rsub__(self, other):
        return self._apply(np.subtract, other, self)

    def __mul__(self, other):
        return self._apply(np.multiply, self, other)

    def __rmul__(self, other):
        return self._apply(np.multiply, other, self)

    def __truediv__(self, other):
        return self._apply(np.true_divide, self, other)

    def __rtruediv__(self, other):
        return self._apply(np.true_divide, other, self)

    def __floordiv__(self, other):
        return self._apply(np.floor_divide, self, other)

    def __rfloordiv__(self, other):
        return self._apply(np.floor_divide, other, self)

    def __mod__(self, other):
        return self._apply(np.mod, self, other)

    def __rmod__(self, other):
        return self._apply(np.mod, other, self)

    def __pow__(self, other):
        return self._apply(np.power, self, other)

    def __rpow__(self, other):
        return self._apply(np.power, other, self)

    def __neg__(self):
        return self._apply(np.negative, self)

    def __pos__(self):
        return self

    def __abs__(self):
        return self._apply(np.abs, self)

    # -- bitwise / logical ---------------------------------------------

    def __and__(self, other):
        return self._apply(np.bitwise_and, self, other)

    __rand__ = __and__

    def __or__(self, other):
        return self._apply(np.bitwise_or, self, other)

    __ror__ = __or__

    def __xor__(self, other):
        return self._apply(np.bitwise_xor, self, other)

    __rxor__ = __xor__

    def __invert__(self):
        return self._apply(np.invert, self)

    def __lshift__(self, other):
        return self._apply(np.left_shift, self, other)

    def __rshift__(self, other):
        return self._apply(np.right_shift, self, other)

    # -- matrix product -------------------------------------------------

    def __matmul__(self, other):
        return _span_matmul(self, other)

    def __rmatmul__(self, other):
        raise CompileFallback(
            "unsupported-op",
            "`@` with a traced value as its right operand (only "
            "`X[span, :] @ B` lowers)",
        )

    # -- comparisons ----------------------------------------------------

    def _compare(self, fn, op, other):
        o = _as_sym(self.st, other, f"operand of {fn.__name__}")
        return self._apply(fn, self, o, cmp=(op, self, o))

    def __lt__(self, other):
        return self._compare(np.less, "lt", other)

    def __le__(self, other):
        return self._compare(np.less_equal, "le", other)

    def __gt__(self, other):
        return self._compare(np.greater, "gt", other)

    def __ge__(self, other):
        return self._compare(np.greater_equal, "ge", other)

    def __eq__(self, other):  # noqa: D105
        return self._compare(np.equal, "eq", other)

    def __ne__(self, other):
        return self._compare(np.not_equal, "ne", other)

    __hash__ = object.__hash__

    # -- truthiness & conversions --------------------------------------

    def __bool__(self) -> bool:
        if not self.lane:
            # Thread-uniform branch: take the concrete path and guard
            # the predicate so a flipped argument re-traces.
            val = bool(self.value)
            self.st.add_uniform_guard(self.expr, val)
            return val
        cmp = self.cmp
        if cmp is not None:
            op, lhs, rhs = cmp
            if op in ("lt", "le") and lhs.domain is LANE and not rhs.lane:
                # The canonical bounds guard `if i < n:` — the taken
                # path is traced with the mask applied to every
                # subsequent store.  No other comparison shape is
                # maskable: builtin min()/max() evaluate the uniform
                # operand on the *left*, which lands here as
                # uniform-vs-lane and must divert, not mask.
                self.st.add_mask(op, lhs.expr, rhs.expr)
                return True
        raise CompileFallback(
            "divergent-control-flow",
            "lane-dependent branch is not the canonical `if i < n:` "
            "bounds guard",
        )

    def _concrete(self, kind):
        if self.lane:
            raise CompileFallback(
                "divergent-control-flow",
                f"lane-dependent value used as a concrete {kind} "
                f"(range()/len()/index arithmetic on thread indices?)",
            )
        if self.value is None:  # pragma: no cover - uniforms are sampled
            raise CompileFallback(
                "unsupported-op", f"uniform {kind} without a sample value"
            )
        return self.value

    def __index__(self) -> int:
        v = int(self._concrete("integer"))
        self.st.add_uniform_guard(self.expr, v)
        return v

    __int__ = __index__

    def __float__(self) -> float:
        v = float(self._concrete("float"))
        self.st.add_uniform_guard(self.expr, v)
        return v

    # -- numpy interception --------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__" and not kwargs \
                and len(inputs) == 2:
            if inputs[0] is not self:
                return self.__rmatmul__(inputs[0])
            return _span_matmul(self, inputs[1])
        if ufunc.signature is not None:
            # A generalised ufunc reduces or builds core axes: applied
            # chunk by chunk it is not the same as over the whole span.
            raise CompileFallback(
                "unsupported-op",
                f"generalised ufunc {ufunc.__name__} on traced values",
            )
        if (
            method != "__call__" or kwargs.get("out") is not None
            or ufunc.nout != 1
        ):
            raise CompileFallback(
                "unsupported-op",
                f"numpy ufunc method {ufunc.__name__}.{method} on traced "
                f"values (or a ufunc with several outputs)",
            )
        kwargs.pop("out", None)
        if kwargs:
            raise CompileFallback(
                "unsupported-op",
                f"numpy ufunc {ufunc.__name__} with keyword arguments on "
                f"traced values",
            )
        return self._apply(ufunc, *inputs)

    def __repr__(self):
        kind = "varying" if self.lane else f"uniform={self.value!r}"
        return f"SymValue({kind})"


class _SymSpan:
    """The collapsed grid-strided element span ``[0, extent)``.

    As a subscript it is the whole span (``x[span]``, ``X[span, :]``).
    Its bounds are numbers only when the loop is one chunk: the
    interpreter gives each chunk its own ``[k*L, min(k*L + L, n))``, so
    ``start``/``stop`` read while ``n > L`` (or ``n == 0``, where no
    chunk runs) fall back (``span-shape``).  For ``0 < n <= L`` they
    are ``0`` and the extent, read through ``SymValue.__index__`` so the
    trace is guarded on it.
    """

    __slots__ = ("extent",)

    def __init__(self, extent: SymValue):
        self.extent = extent

    def _bound(self, name: str) -> int:
        n = operator.index(self.extent)
        chunk = int(self.extent.st.work_div.thread_elem_extent[0])
        if not 0 < n <= chunk:
            raise CompileFallback(
                "span-shape",
                f"`span.{name}` read in a grid-strided loop over "
                f"[0, {n}) in chunks of {chunk} (each chunk has its own "
                f"bounds; the collapsed span has one)",
            )
        return n

    @property
    def start(self) -> int:
        self._bound("start")
        return 0

    @property
    def stop(self) -> int:
        return self._bound("stop")


def _span_matmul(left: SymValue, right) -> SymValue:
    """``left @ right`` for a row-span value ``left`` and a whole 2-d
    array argument ``right`` (see the module docstring)."""
    st = left.st
    if not isinstance(left.domain, Expr):
        raise CompileFallback(
            "unsupported-op",
            "`@` whose left operand is not a grid-strided row span "
            "(per-thread, per-box or uniform values do not lower)",
        )
    if not isinstance(right, SymArrayArg):
        raise CompileFallback(
            "unsupported-op",
            f"`@` whose right operand is {type(right).__name__!r}, not a "
            f"whole array argument (span, per-thread and scalar right "
            f"operands do not lower)",
        )
    if len(left.trail) != 1 or right.ndim != 2 \
            or right.shape[0] != left.trail[0]:
        raise CompileFallback(
            "span-shape",
            f"`@` of a span with element shape {left.trail} and an "
            f"array of shape {right.shape} (only a 2-d row span times a "
            f"(K, M) matrix lowers)",
        )
    if right.pos in st.stored_positions:
        raise CompileFallback(
            "load-after-store",
            f"`@` reads argument {right.pos} whole after a store to it",
        )
    st.whole_reads.add(right.pos)
    node = SpanMatMul(
        left.expr, right.pos, int(st.work_div.thread_elem_extent[0])
    )
    return SymValue(st, st.count(node), domain=left.domain,
                    trail=(right.shape[1],))


class _TileTest:
    """A comparison of element-box bounds.  Only ``start < stop`` and
    ``start >= stop`` of one axis (either way round) have a verdict;
    any other comparison diverts when branched on."""

    __slots__ = ("st", "tile", "truth")

    def __init__(self, st: TraceState, tile: Optional[Tile], truth: bool):
        self.st = st
        self.tile = tile
        self.truth = truth

    def __bool__(self) -> bool:
        if self.tile is None:
            raise CompileFallback(
                "divergent-control-flow",
                "branch on an element-box bound that is not its "
                "`start < stop` non-emptiness test (builtin min()/max() "
                "on a box bound?)",
            )
        # Trace the non-empty path: a thread whose box is empty
        # contributes nothing, and TraceState.add_store holds every
        # later store to that.
        if self.tile not in self.st.nonempty_tiles:
            self.st.nonempty_tiles.append(self.tile)
        return self.truth


_MIRRORED = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
             "eq": "eq", "ne": "ne"}


class _SymBound:
    """``axis.start + offset`` or ``axis.stop + offset`` of a tile axis."""

    __slots__ = ("axis", "is_stop", "offset")

    def __init__(self, axis: "_SymTileAxis", is_stop: bool, offset: int = 0):
        self.axis = axis
        self.is_stop = is_stop
        self.offset = offset

    def __add__(self, other):
        if not isinstance(other, (int, np.integer)):
            return NotImplemented
        return _SymBound(self.axis, self.is_stop, self.offset + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, np.integer)):
            return NotImplemented
        return _SymBound(self.axis, self.is_stop, self.offset - int(other))

    def _compare(self, op: str, other) -> _TileTest:
        tile = None
        if (
            isinstance(other, _SymBound)
            and other.axis is self.axis
            and self.offset == other.offset == 0
            and self.is_stop != other.is_stop
        ):
            if self.is_stop:  # read it with `start` on the left
                op = _MIRRORED[op]
            if op in ("lt", "ge"):
                tile = self.axis.tile
        return _TileTest(self.axis.st, tile, truth=(op == "lt"))

    def __lt__(self, other):
        return self._compare("lt", other)

    def __le__(self, other):
        return self._compare("le", other)

    def __gt__(self, other):
        return self._compare("gt", other)

    def __ge__(self, other):
        return self._compare("ge", other)

    def __eq__(self, other):  # noqa: D105
        return self._compare("eq", other)

    def __ne__(self, other):
        return self._compare("ne", other)

    __hash__ = object.__hash__

    def __index__(self):
        raise CompileFallback(
            "divergent-control-flow",
            "element-box bound used as a concrete integer "
            "(range()/len()/index arithmetic on a box bound?)",
        )

    __int__ = __index__


class _SymTileAxis:
    """One axis of a symbolic element box (stands in for a ``slice``)."""

    __slots__ = ("st", "tile", "axis", "start", "stop")

    def __init__(self, st: TraceState, tile: Tile, axis: int):
        self.st = st
        self.tile = tile
        self.axis = axis
        self.start = _SymBound(self, False)
        self.stop = _SymBound(self, True)


def _concrete_extent(extent) -> Tuple[int, ...]:
    """An element-box extent as ints; a symbolic component is
    concretised through ``SymValue.__index__``, which guards it."""
    if isinstance(extent, (int, np.integer, SymValue)):
        extent = (extent,)
    return tuple(operator.index(e) for e in extent)


class _SymBox(tuple):
    """What :func:`~repro.core.element.element_box` returns under the
    tracer: one :class:`_SymTileAxis` per axis, able to clip itself.
    ``clips`` maps halo -> box for every box clipped from the same
    ``element_box`` call, so equal clips are one tile."""

    def __new__(cls, st: TraceState, extent: Tuple[int, ...],
                grid_elems: Tuple[int, ...], halo: int, family: object,
                clips: dict):
        bounds = tuple(
            (halo, min(e, g, e - halo)) for e, g in zip(extent, grid_elems)
        )
        if any(hi <= lo for lo, hi in bounds):
            bounds = ((0, 0),) * len(bounds)
        tile = Tile(family, halo, bounds)
        box = super().__new__(
            cls, (_SymTileAxis(st, tile, a) for a in range(len(extent)))
        )
        box.st, box.extent, box.grid_elems = st, extent, grid_elems
        box.tile, box.clips = tile, clips
        clips[halo] = box
        return box

    def trace_clip(self, extent, halo) -> "_SymBox":
        """Hook consumed by :func:`repro.core.element.clip_box`."""
        halo = operator.index(halo)
        if _concrete_extent(extent) != self.extent or halo < self.tile.halo:
            raise CompileFallback(
                "unsupported-op",
                "clip_box with another extent than its box was made "
                "for, or a smaller halo",
            )
        return self.clips.get(halo) or _SymBox(
            self.st, self.extent, self.grid_elems, halo, self.tile.family,
            self.clips,
        )


class SymArrayArg:
    """A global-memory array argument during tracing.

    Metadata (`dtype`, `ndim`, `shape`) is concrete — the compile cache
    keys on it — while element accesses grow the dataflow.
    """

    __slots__ = ("st", "pos", "arr")

    def __init__(self, st: TraceState, pos: int, arr: np.ndarray):
        self.st = st
        self.pos = pos
        self.arr = arr

    @property
    def dtype(self):
        return self.arr.dtype

    @property
    def ndim(self):
        return self.arr.ndim

    @property
    def shape(self):
        return self.arr.shape

    def __len__(self):
        return len(self.arr)

    def _index_exprs(self, idx) -> Tuple[Tuple[Expr, ...], bool, tuple]:
        """(index exprs, any-lane?, concrete sample index or None)."""
        items = idx if isinstance(idx, tuple) else (idx,)
        exprs = []
        lane = False
        sample: Optional[list] = []
        for it in items:
            if isinstance(it, SymValue):
                if it.domain not in (None, LANE):
                    raise CompileFallback(
                        "unsupported-op",
                        "array indexed with a per-element value of an "
                        "element span or box",
                    )
                exprs.append(it.expr)
                lane = lane or it.lane
                if sample is not None and not it.lane:
                    sample.append(it.value)
                else:
                    sample = None
            elif isinstance(it, (int, np.integer)):
                exprs.append(self.st.count(Const(int(it))))
                if sample is not None:
                    sample.append(int(it))
            else:
                raise CompileFallback(
                    "unsupported-op",
                    f"array indexed with {type(it).__name__!r} while "
                    f"tracing (slices and boolean masks do not compile)",
                )
        return tuple(exprs), lane, (None if lane or sample is None
                                    else tuple(sample))

    def _tile_index(self, idx) -> Optional[Tuple[Tile, Tuple[int, ...]]]:
        """``(tile, shifts)`` when ``idx`` is built from the axes of one
        element box — each axis as it is or as
        ``axis.start + k : axis.stop + k`` — else ``None``."""
        items = idx if isinstance(idx, tuple) else (idx,)
        parsed = []
        for it in items:
            if isinstance(it, _SymTileAxis):
                parsed.append((it, 0))
            elif isinstance(it, slice) and (
                isinstance(it.start, _SymBound) or isinstance(it.stop, _SymBound)
            ):
                lo, hi = it.start, it.stop
                if not (
                    isinstance(lo, _SymBound) and isinstance(hi, _SymBound)
                    and lo.axis is hi.axis and not lo.is_stop and hi.is_stop
                    and lo.offset == hi.offset and it.step is None
                ):
                    raise CompileFallback(
                        "unsupported-op",
                        "slice of element-box bounds that is not the box "
                        "moved by a constant (start + k : stop + k)",
                    )
                parsed.append((lo.axis, lo.offset))
            else:
                parsed.append(None)
        if all(p is None for p in parsed):
            return None
        tile = next(p for p in parsed if p is not None)[0].tile
        if (
            len(parsed) != len(tile.bounds)
            or len(parsed) != self.arr.ndim
            or any(
                p is None or p[0].tile is not tile or p[0].axis != j
                for j, p in enumerate(parsed)
            )
        ):
            raise CompileFallback(
                "unsupported-op",
                "subscript is not the axes of one element box in order, "
                "one per array dimension",
            )
        shifts = tuple(k for _axis, k in parsed)
        if any(hi > lo for lo, hi in tile.bounds) and any(
            lo + k < 0 or hi + k > n
            for (lo, hi), k, n in zip(tile.bounds, shifts, self.arr.shape)
        ):
            raise CompileFallback(
                "unsupported-op",
                f"element box moved by {shifts} leaves argument "
                f"{self.pos} of shape {self.arr.shape} (the interpreter "
                f"would wrap or clip the slice per thread)",
            )
        return tile, shifts

    def _span(self, idx) -> Optional[_SymSpan]:
        """The span of ``x[span]`` or of a row span ``X[span, :]``
        (whole trailing axes), ``None`` when ``idx`` has no span."""
        if isinstance(idx, _SymSpan):
            return idx
        items = idx if isinstance(idx, tuple) else (idx,)
        if not any(isinstance(it, _SymSpan) for it in items):
            return None
        if not isinstance(items[0], _SymSpan) or len(items) > self.arr.ndim \
                or not all(_is_whole(it) for it in items[1:]):
            raise CompileFallback(
                "span-shape",
                f"span subscript of argument {self.pos} with shape "
                f"{self.arr.shape} is not the span over axis 0 with whole "
                f"trailing axes (`x[span]`, `X[span, :]`)",
            )
        return items[0]

    def _classify(self, idx):
        """``(forwarding key, index domain, detail)`` of a subscript;
        ``detail`` is the span's extent, ``(tile, shifts)`` or
        ``(index exprs, sample)``."""
        span = self._span(idx)
        if span is not None:
            extent = span.extent.expr
            return ("span", self.pos, extent), extent, extent
        tiled = self._tile_index(idx)
        if tiled is not None:
            return ("tile", self.pos) + tiled, tiled[0], tiled
        exprs, lane, sample = self._index_exprs(idx)
        return (self.pos,) + exprs, LANE if lane else None, (exprs, sample)

    def __getitem__(self, idx):
        key, domain, detail = self._classify(idx)
        fwd = self.st.forwarded.get(key)
        if fwd is not None:
            return fwd
        if self.pos in self.st.stored_positions:
            raise CompileFallback(
                "load-after-store",
                "load from an array already written under a different "
                "index (cannot prove the accesses disjoint)",
            )
        value, trail = None, ()
        if key[0] == "span":
            node = SpanLoad(self.pos, detail)
            trail = self.arr.shape[1:]
        elif key[0] == "tile":
            node = TileLoad(self.pos, *detail)
        else:
            exprs, sample = detail
            node = Load(self.pos, exprs)
            if sample is not None:
                try:
                    value = self.arr[
                        sample[0] if len(sample) == 1 else sample
                    ]
                except (IndexError, TypeError, ValueError):
                    # Out of range or not an index for this array: the
                    # load has no sample, it is not an error yet.
                    value = None
        return SymValue(self.st, self.st.count(node), value=value,
                        domain=domain, trail=trail)

    def __setitem__(self, idx, value) -> None:
        val = _as_sym(self.st, value, "stored value")
        key, domain, detail = self._classify(idx)
        if val.domain is not None and val.domain is not domain:
            raise CompileFallback(
                "unsupported-op",
                "stored value and subscript range over different index "
                "domains (per-thread, per-span element, per-box element)",
            )
        if self.pos in self.st.whole_reads:
            raise CompileFallback(
                "load-after-store",
                f"store to argument {self.pos}, which `@` reads whole "
                f"(every chunk would have to read it before any wrote)",
            )
        if self.st.span_loops and key[0] != "span":
            raise CompileFallback(
                "span-shape",
                f"store to argument {self.pos} inside a grid-strided span "
                f"loop not through the span (it runs once per chunk, and "
                f"not in threads without one)",
            )
        if key[0] == "span":
            if val.domain is not None and val.trail != self.arr.shape[1:]:
                raise CompileFallback(
                    "span-shape",
                    f"span value of element shape {val.trail} stored into "
                    f"the rows of an array of shape {self.arr.shape}",
                )
            store = SpanStore(self.pos, detail, val.expr, len(self.st.masks))
        elif key[0] == "tile":
            tile, shifts = detail
            if any(shifts):
                raise CompileFallback(
                    "unsupported-op", "store through a moved element box"
                )
            store = TileStore(self.pos, tile, val.expr)
        else:
            if domain is None and _reads_arg(val.expr, self.pos):
                raise CompileFallback(
                    "load-after-store",
                    f"every thread read-modify-writes one element of "
                    f"argument {self.pos} (uniform subscript, value loaded "
                    f"from the same array): interpreted threads see each "
                    f"other's stores, a replay's loads see none",
                )
            store = Store(self.pos, detail[0], val.expr, len(self.st.masks))
        self.st.add_store(self.st.count(store))
        self.st.stored_positions.add(self.pos)
        self.st.forwarded[key] = val

    def __repr__(self):
        return f"SymArrayArg(arg{self.pos}, {self.arr.dtype}, " \
               f"shape={self.arr.shape})"


class _CompileVec:
    """Vec look-alike over symbolic per-axis components."""

    def __init__(self, components):
        self._c = list(components)

    def __getitem__(self, i):
        return self._c[i]

    def __iter__(self):
        return iter(self._c)

    def __len__(self):
        return len(self._c)

    @property
    def dim(self):
        return len(self._c)


class _SymShared:
    """A block-shared array under a block-level trace."""

    __slots__ = ("st", "shared")

    def __init__(self, st: TraceState, shared: Shared):
        self.st = st
        self.shared = shared

    def _index(self, idx) -> Tuple[Expr]:
        if not isinstance(idx, SymValue):
            raise CompileFallback(
                "unsupported-op",
                f"shared array {self.shared.name!r} subscripted with "
                f"{type(idx).__name__!r}; only traced scalar indices record",
            )
        return (idx.expr,)

    def __getitem__(self, idx) -> SymValue:
        node = SharedLoad(self.shared, self._index(idx))
        return SymValue(self.st, self.st.count(node), domain=LANE)

    def __setitem__(self, idx, value) -> None:
        val = _as_sym(self.st, value, "stored value")
        self.st.count(SharedStore(
            self.shared, self._index(idx), val.expr, len(self.st.masks)
        ))


#: Which extents a block-level trace keeps symbolic, as the product of
#: which :class:`Extent` kinds.  Element-level extents are constants
#: of the kernel's instantiation on every target.
_EXTENT_KINDS = {
    (Origin.GRID, Unit.BLOCKS): ("block",),
    (Origin.BLOCK, Unit.THREADS): ("thread",),
    (Origin.GRID, Unit.THREADS): ("block", "thread"),
}


class CompileAcc:
    """The accelerator stand-in a kernel sees while being traced.

    Geometry queries answer *concretely* (the work division is part of
    the plan identity, so extents are compile-time constants); index
    queries answer symbolically.  Synchronisation, shared memory,
    atomics and RNG are classified fallbacks — per-thread interpretation
    remains their only sound execution.

    With ``block_level`` the trace is for a listing, not for replay:
    grid and block extents answer as :class:`Extent` operands, and
    ``shared_mem`` / ``sync_block_threads`` record nodes.
    """

    def __init__(self, st: TraceState, props, block_level: bool = False):
        self.st = st
        self.props = props
        self.block_level = block_level
        self.math = DEFAULT_MATH
        self._idx_cache = {}

    def _once(self, key, make):
        """What ``make()`` returned the first time ``key`` was asked
        for: a repeated query is the same operand, not a new node."""
        val = self._idx_cache.get(key)
        if val is None:
            val = self._idx_cache[key] = make()
        return val

    # -- geometry (concrete unless block_level) ------------------------

    @property
    def work_div(self):
        return self.st.work_div

    @property
    def warp_size(self) -> int:
        return self.props.warp_size

    def trace_get_work_div(self, origin: Origin, unit: Unit):
        kinds = _EXTENT_KINDS.get((origin, unit)) if self.block_level else None
        if kinds is None:
            return get_work_div(self.st.work_div, origin, unit)
        return self._once(("extent", origin, unit), lambda: _CompileVec(
            functools.reduce(
                operator.mul, (self.extent(kind, axis) for kind in kinds)
            )
            for axis in range(self.st.work_div.dim)
        ))

    def extent(self, kind: str, axis: int) -> SymValue:
        """How many blocks (``kind="block"``) or threads per block
        (``"thread"``) there are along ``axis``, as an operand."""
        wd = self.st.work_div
        of = wd.grid_block_extent if kind == "block" else wd.block_thread_extent
        return self._once(("extent", kind, axis), lambda: SymValue(
            self.st, self.st.count(Extent(kind, axis)), value=int(of[axis])
        ))

    # -- index queries (symbolic) --------------------------------------

    def trace_get_idx(self, origin: Origin, unit: Unit) -> _CompileVec:
        return self._once(
            (origin, unit), lambda: self._compute_idx(origin, unit)
        )

    def lane(self, kind: str, axis: int) -> SymValue:
        """The ``kind`` coordinate of every thread along ``axis``."""
        return self._once(("lane", kind, axis), lambda: SymValue(
            self.st, self.st.count(LaneIndex(kind, axis)), domain=LANE
        ))

    def _compute_idx(self, origin: Origin, unit: Unit) -> _CompileVec:
        wd = self.st.work_div
        dim = wd.dim
        comps = []
        for axis in range(dim):
            if origin is Origin.GRID and unit is Unit.BLOCKS:
                comps.append(self.lane("block", axis))
            elif origin is Origin.BLOCK and unit is Unit.THREADS:
                comps.append(self.lane("thread", axis))
            elif origin is Origin.GRID and unit is Unit.THREADS:
                comps.append(self.lane("grid_thread", axis))
            elif origin is Origin.GRID and unit is Unit.ELEMS:
                gt = self.lane("grid_thread", axis)
                comps.append(gt * int(wd.thread_elem_extent[axis]))
            elif origin is Origin.BLOCK and unit is Unit.ELEMS:
                t = self.lane("thread", axis)
                comps.append(t * int(wd.thread_elem_extent[axis]))
            else:
                raise CompileFallback(
                    "unsupported-op",
                    f"index query {origin}/{unit} while compile-tracing",
                )
        return _CompileVec(comps)

    # -- element spans --------------------------------------------------

    def trace_elem_spans(self, extent):
        """Hook consumed by :func:`repro.core.element.grid_strided_spans`:
        the per-thread clipped spans of the whole grid tile
        ``[0, extent)`` exactly once, so the loop collapses to a single
        symbolic span.  Only axis 0 strides: threads that differ along
        another axis would each run the same spans, which a single span
        cannot replay."""
        wd = self.st.work_div
        if any(
            int(b) * int(t) != 1 for b, t in zip(
                tuple(wd.grid_block_extent)[1:],
                tuple(wd.block_thread_extent)[1:],
            )
        ):
            raise CompileFallback(
                "span-shape",
                "grid-strided spans on a work division with more than one "
                "thread along an axis other than 0 (those threads repeat "
                "every span)",
            )
        if isinstance(extent, SymValue):
            if extent.lane:
                raise CompileFallback(
                    "divergent-control-flow",
                    "grid-strided span extent is lane-dependent",
                )
            ext = extent
        else:
            ext = SymValue(
                self.st, self.st.count(Const(int(extent))), value=int(extent)
            )
        self.st.span_loops += 1
        yield _SymSpan(ext)
        # Not reached when the kernel leaves the loop by `break` or
        # `return`: later stores then stay held to the span, which is
        # only ever stricter.
        self.st.span_loops -= 1

    def trace_elem_box(self, extent) -> _SymBox:
        """Hook consumed by :func:`repro.core.element.element_box`: the
        boxes of all threads are disjoint and together cover
        ``[0, min(extent, grid_elem_extent))`` per axis (the box does
        not stride, so a grid smaller than the extent leaves the rest
        alone) — one symbolic tile."""
        extent = _concrete_extent(extent)
        wd = self.st.work_div
        if len(extent) != wd.dim:
            raise CompileFallback(
                "unsupported-op",
                f"{len(extent)}-d element box on a {wd.dim}-d work division",
            )
        return self._once(("box", extent), lambda: _SymBox(
            self.st, extent, tuple(int(g) for g in wd.grid_elem_extent),
            0, object(), {},
        ))

    # -- block level: nodes for a listing, fallbacks for the replay ----

    def sync_block_threads(self) -> None:
        if not self.block_level:
            raise CompileFallback(
                "barrier", "kernel uses sync_block_threads (block barrier)"
            )
        self.st.count(Barrier())

    def shared_mem(self, name, shape, dtype=np.float64):
        if not self.block_level:
            raise CompileFallback(
                "shared-memory", f"kernel allocates shared memory {name!r}"
            )
        return self._once(("shared", name), lambda: _SymShared(
            self.st, Shared(name, tuple(shape), np.dtype(dtype))
        ))

    # -- classified fallbacks ------------------------------------------

    def shared_var(self, name, dtype=np.float64):
        raise CompileFallback(
            "shared-memory", f"kernel allocates shared variable {name!r}"
        )

    def shared_mem_dyn(self, dtype=np.float64):
        raise CompileFallback(
            "shared-memory", "kernel uses dynamic shared memory"
        )

    def rng(self, seed):
        raise CompileFallback(
            "rng", "kernel draws from a per-thread random stream"
        )

    def _atomic(self, name):
        raise CompileFallback(
            "atomics",
            f"kernel performs {name} (atomics may contend across threads)",
        )

    def atomic_add(self, arr, idx, value):
        self._atomic("atomic_add")

    def atomic_sub(self, arr, idx, value):
        self._atomic("atomic_sub")

    def atomic_min(self, arr, idx, value):
        self._atomic("atomic_min")

    def atomic_max(self, arr, idx, value):
        self._atomic("atomic_max")

    def atomic_exch(self, arr, idx, value):
        self._atomic("atomic_exch")

    def atomic_cas(self, arr, idx, compare, value):
        self._atomic("atomic_cas")

    def atomic_inc(self, arr, idx, limit):
        self._atomic("atomic_inc")

    def atomic_dec(self, arr, idx, limit):
        self._atomic("atomic_dec")

    def atomic_and(self, arr, idx, value):
        self._atomic("atomic_and")

    def atomic_or(self, arr, idx, value):
        self._atomic("atomic_or")

    def atomic_xor(self, arr, idx, value):
        self._atomic("atomic_xor")

    # Lane-dependent scalar queries: sound only per-thread.

    @property
    def block_thread_linear_idx(self):
        raise CompileFallback(
            "divergent-control-flow",
            "kernel reads the concrete in-block linear thread index",
        )

    @property
    def warp_idx(self):
        raise CompileFallback(
            "divergent-control-flow", "kernel reads its warp index"
        )

    @property
    def lane_idx(self):
        raise CompileFallback(
            "divergent-control-flow", "kernel reads its warp lane index"
        )


class TraceResult:
    """Outcome of one successful compile trace."""

    __slots__ = ("stores", "masks", "guards", "nodes", "order")

    def __init__(self, stores, masks, guards, nodes: int, order=()):
        self.stores = stores
        self.masks = masks
        self.guards = guards
        self.nodes = nodes
        #: Every recorded node and ``masks`` entry in creation order.
        self.order = order


def _make_sym_args(st: TraceState, args: tuple):
    sym = []
    for pos, a in enumerate(args):
        if isinstance(a, np.ndarray):
            sym.append(SymArrayArg(st, pos, a))
        elif isinstance(a, (bool, int, float, np.bool_, np.integer,
                            np.floating)):
            sym.append(SymValue(st, st.count(Arg(pos)), value=a))
        else:
            raise CompileFallback(
                "unsupported-arg",
                f"argument {pos} has uncompilable type "
                f"{type(a).__name__!r}",
            )
    return tuple(sym)


def trace_kernel(kernel, work_div, props, args: tuple,
                 block_level: bool = False) -> TraceResult:
    """Trace ``kernel`` once over batched thread coordinates.

    Raises :class:`CompileFallback` (classified) when the kernel is not
    representable; any *other* exception escaping the kernel body is
    classified as ``unsupported-op`` — the traced operand types simply
    do not support whatever the kernel attempted, and interpretation
    (where the same code runs on real numbers) remains authoritative.

    ``block_level`` is set by the consumers that print the trace
    (:mod:`repro.trace`) and by none that replays it: see
    :class:`CompileAcc`.
    """
    st = TraceState(work_div, args)
    sym_args = _make_sym_args(st, args)
    acc = CompileAcc(st, props, block_level)
    try:
        kernel(acc, *sym_args)
    except CompileFallback:
        raise
    except Exception as exc:
        # Must stay broad: the kernel body is arbitrary user code run
        # on operands it was not written for.
        raise CompileFallback(
            "unsupported-op",
            f"kernel body raised {type(exc).__name__} under the compile "
            f"tracer: {exc}",
        ) from exc
    return TraceResult(
        stores=tuple(st.stores),
        masks=tuple(st.masks),
        guards=tuple(st.guards),
        nodes=st.nodes,
        order=tuple(st.order),
    )
