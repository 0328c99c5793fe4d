"""Lower a recorded trace to one generated straight-line numpy function.

The paper's zero-overhead argument (Fig. 4) is that the abstraction is
resolved *before* the kernel runs.  This module is that step for the
compiled schedule: :func:`lower` turns a
:class:`~repro.compile.tracer.TraceResult` into Python source once, at
trace time, and ``compile()``/``exec`` it.  A warm launch then calls
``program(args)`` — no expression tree is walked, nothing is memoised,
no state survives the call (serve lanes replay one program
concurrently).

What the source looks like, for the element-level AXPY
(``y[span] = alpha * x[span] + y[span]``)::

    def program(args):
        a0 = args[0]
        a1 = args[1]
        a2 = args[2].view(K10)       # plain ndarray: only ever sliced
        a3 = args[3].view(K10)
        v0 = int(a0)
        if v0 < 0: v0 = 0
        v1 = a2[:v0]
        v3 = F2(a1, v1)              # np.multiply
        v4 = a3[:v0]
        v7 = a3[:v0]
        try:
            F5(v3, v4, out=v7)       # np.add: the store's last ufunc commits
        except Exception as exc:
            raise K8(K9) from exc    # KernelError: failed mid-commit

Rules the generator keeps:

* **Everything but names enters through the globals.**  Literals, ufunc
  objects, lane-geometry arrays and precomputed tile subscripts are
  bound as ``K<i>``/``F<i>``/``G<i>`` in the function's globals; the
  source text never contains a ``repr``.
* **Compute, then commit.**  Every value, destination view and shape
  check precedes the first assignment into an argument; the commit is
  plain assignments.  With more than one store, a stored value that is
  a *view* of an argument is copied first, so an earlier commit cannot
  change what a later one writes.
* **Scratch is reused only inside one call.**  ``out=`` names an array
  the program itself allocated (a ufunc or gather result), consumed
  exactly once, whose dtype and shape are proven equal to the natural
  result's: shapes by construction (two values share a shape token
  only if the replay signature makes their shapes equal), dtypes by
  probing the ufunc on zero-size arrays of the signature's dtypes —
  exact where Python scalars are weak (numpy >= 2); on older numpy,
  where a scalar's *value* can widen the result, an operation with a
  scalar operand keeps its own temporary.
* **The last ufunc of a single store is its commit.**  When a trace
  has one store, into a view, and the stored value is a ufunc result
  nobody else reads, of the destination's own shape and numeric dtype,
  the ufunc runs *in the commit phase* with ``out=`` the destination —
  one pass over memory less than "temporary, then copy", which is what
  an expert writes (``np.add(t, y, out=y)``).  The contract holds:
  every operand was computed before; an operand that views the
  destination at the same index is numpy's ordinary in-place case, at
  any other overlap numpy copies the input first (ufunc overlap
  semantics, numpy >= 1.13); shape and casting are settled before the
  loop starts.  What is left to fail is a floating-point trap under
  ``np.errstate(all="raise")``: numpy raises it *after* the loop has
  written, so here it surfaces as the commit phase's ``KernelError``
  (buffer state unspecified, the launch is not re-run) — the outcome
  interpretation has for the same trap — and never as a fallback onto
  half-updated arguments.  A trap in any earlier operation hits
  scratch only: the arguments are untouched and the launch falls back.
  Traces with several stores never write through.
* **Masks.**  The canonical ``if i < n:`` guard is decided here when
  its lane side is static geometry: the flat lane index itself against
  an integer bound becomes a prefix ``slice`` (loads and stores under
  it are views); anything else, including a lane side that depends on
  arguments, is emitted as code computing a boolean lane mask.
* A shape the generator cannot lower raises a classified
  :class:`~repro.compile.tracer.CompileFallback`; there is no second
  evaluator to fall back on, only the interpreter.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import KernelError
from .exprs import (
    Arg,
    Const,
    Expr,
    LaneGeometry,
    LaneIndex,
    Load,
    SpanLoad,
    SpanStore,
    TileLoad,
    TileStore,
    Ufunc,
)
from .tracer import CompileFallback, TraceResult

__all__ = ["lower", "lower_expr"]

#: Python scalars are weak (NEP 50): a ufunc's result dtype depends on
#: operand *types* only, so a dtype probed at generation time holds for
#: every later call with the same signature.
_WEAK_SCALARS = int(np.__version__.split(".")[0]) >= 2

_INT_TYPES = (bool, int, np.bool_, np.integer)


def _fits(target: tuple, value: tuple) -> None:
    """Raise unless a value of shape ``value`` assigns into ``target``."""
    if value != target and np.broadcast_shapes(target, value) != target:
        raise ValueError(f"cannot store shape {value} into shape {target}")


class _Val:
    """One value of the generated program.

    ``probe`` is a zero-size array (or zero scalar) of the value's
    type, ``None`` when unknown; ``shape`` a token equal for two values
    only if their shapes are equal on every call (``()`` for scalars,
    ``None`` when unknown); ``fresh`` marks an array this call
    allocated; ``view`` one that may share memory with an argument.
    """

    __slots__ = ("name", "probe", "shape", "fresh", "view", "uses")

    def __init__(self, name, probe=None, shape=None, fresh=False, view=False):
        self.name = name
        self.probe = probe
        self.shape = shape
        self.fresh = fresh
        self.view = view
        self.uses = 0

    @property
    def dtype(self):
        return getattr(self.probe, "dtype", None)


class _Sel:
    """The lane selection of one mask level."""

    __slots__ = ("kind", "name", "identity")

    def __init__(self, kind=None, name=None, identity=None):
        self.kind = kind  # None (all lanes) | "slice" | "mask"
        self.name = name
        #: The lane expression proven to be ``arange(lanes)``: loads and
        #: stores indexed by exactly this node are views under a slice.
        self.identity = identity


def _join(vals) -> Optional[tuple]:
    """Shape token of broadcasting ``vals`` together: scalars vanish,
    equal tokens stay, anything else is unknown."""
    shape = ()
    for v in vals:
        if v.shape is None or (shape != () and v.shape not in ((), shape)):
            return None
        if v.shape != ():
            shape = v.shape
    return shape


class _Lowering:
    """Statement list + naming for one generated function."""

    def __init__(self, trace: TraceResult, geom: LaneGeometry, sig: tuple,
                 env: Optional[dict] = None, counter=None):
        self.trace = trace
        self.geom = geom
        self.sig = sig
        self.env: Dict[str, object] = {} if env is None else env
        self.counter = itertools.count() if counter is None else counter
        #: (dest _Val or None, template, operand _Vals, ufunc?) in order.
        self.stmts: List[tuple] = []
        self.memo: Dict[tuple, _Val] = {}
        self.used_args: Dict[int, _Val] = {}
        self.levels: Dict[int, _Sel] = {0: _Sel()}
        self.extents: Dict[Expr, _Val] = {}
        #: Array positions subscripted with integers or index arrays:
        #: those keep the kernel-side guard (a negative index must fail
        #: as it does interpreted); slices never trip it, so every other
        #: array is read through a plain ``ndarray`` view, which spares
        #: each access and each ufunc the subclass round trip.
        self.guarded = set()

    # -- naming ---------------------------------------------------------

    def _bind(self, prefix: str, obj) -> str:
        name = f"{prefix}{next(self.counter)}"
        self.env[name] = obj
        return name

    def _new(self, template: str, operands=(), ufunc=None, **attrs) -> _Val:
        val = _Val(f"v{next(self.counter)}", **attrs)
        for o in operands:
            o.uses += 1
        self.stmts.append((val, template, tuple(operands), ufunc))
        return val

    def _check(self, template: str, operands=()) -> None:
        for o in operands:
            o.uses += 1
        self.stmts.append((None, template, tuple(operands), None))

    def sub(self) -> "_Lowering":
        """A lowering of another function over the same globals."""
        return _Lowering(self.trace, self.geom, self.sig, self.env, self.counter)

    # -- expressions ----------------------------------------------------

    def arg(self, pos: int) -> _Val:
        val = self.used_args.get(pos)
        if val is None:
            kind = self.sig[pos]
            if kind[0] == "nd":
                probe = np.empty((0,) * len(kind[2]), dtype=kind[1])
                val = _Val(f"a{pos}", probe, ("arg", pos), view=True)
            else:
                val = _Val(f"a{pos}", _zero(kind[1]), ())
            self.used_args[pos] = val
        return val

    def expr(self, node: Expr, level: int = 0) -> _Val:
        key = (node, level)
        val = self.memo.get(key)
        if val is None:
            val = self.memo[key] = self._emit(node, level)
        return val

    def _emit(self, node: Expr, level: int) -> _Val:
        if isinstance(node, Const):
            return _Val(self._bind("K", node.value), _zero(type(node.value)), ())
        if isinstance(node, Arg):
            return self.arg(node.pos)
        if isinstance(node, LaneIndex):
            full = _Val(
                self._bind("G", self.geom.axis_array(node.kind, node.axis)),
                np.empty(0, dtype=np.int64), ("lanes", 0),
            )
            sel = self.level(level)
            if sel.kind is None:
                return full
            return self._new(
                "{0}[" + sel.name + "]", (full,), probe=full.probe,
                shape=("lanes", level), fresh=sel.kind == "mask",
            )
        if isinstance(node, Ufunc):
            return self._ufunc(node, level)
        if isinstance(node, SpanLoad):
            n = self.extent(node.extent)
            arr = self.arg(node.pos)
            return self._new(
                "{0}[:" + n.name + "]", (arr,), probe=arr.probe,
                shape=("span", node.extent, self.sig[node.pos][2]), view=True,
            )
        if isinstance(node, TileLoad):
            arr = self.arg(node.pos)
            return self._new(
                "{0}[" + self._bind("K", node.tile.index(node.shifts)) + "]",
                (arr,), probe=arr.probe, shape=("tile", node.tile), view=True,
            )
        if isinstance(node, Load):
            return self._load(node, level)
        raise CompileFallback(  # pragma: no cover - tracer emits the above
            "unsupported-op", f"no lowering for {type(node).__name__}"
        )

    def _ufunc(self, node: Ufunc, level: int) -> _Val:
        ops = [self.expr(a, level) for a in node.args]
        shape = _join(ops)
        probe = None
        if all(o.probe is not None for o in ops):
            try:
                with np.errstate(all="ignore"):
                    probe = node.fn(*(o.probe for o in ops))
            except Exception:
                # Must stay broad: ``fn`` is the kernel's callable; one
                # that rejects empty probes just has no proven dtype.
                probe = None
        call = self._bind("F", node.fn) + "(" + ", ".join(
            "{%d}" % i for i in range(len(ops))
        )
        return self._new(
            call, ops, ufunc=True, probe=probe, shape=shape,
            fresh=shape != (),
        )

    def _load(self, node: Load, level: int) -> _Val:
        arr = self.arg(node.pos)
        sel = self.level(level)
        ndim = len(self.sig[node.pos][2])
        if (
            sel.kind == "slice"
            and len(node.index) == 1
            and node.index[0] is sel.identity
        ):
            # Identity index under a prefix mask: the gather is a view.
            return self._new(
                "{0}[" + sel.name + "]", (arr,), probe=arr.probe,
                shape=self._prefix_shape(level, node.pos), view=True,
            )
        self.guarded.add(node.pos)
        idx = [self.expr(i, level) for i in node.index]
        shape = _join(idx)
        full = len(idx) == ndim
        gathers = shape != ()
        probe = None
        if full:
            probe = arr.probe.dtype.type() if not gathers else np.empty(
                0, dtype=arr.probe.dtype
            )
        return self._new(
            "{0}[" + ", ".join("{%d}" % (i + 1) for i in range(len(idx))) + "]",
            [arr] + idx, probe=probe, shape=shape if full else None,
            fresh=gathers, view=not gathers and not full,
        )

    def _prefix_shape(self, level: int, pos: int):
        """Shape token of ``arg[pos][prefix slice of level]``: the slice
        stops at or before ``lanes``, so 1-d arrays at least that long
        all yield the selection's own length."""
        shape = self.sig[pos][2]
        if len(shape) == 1 and shape[0] >= self.geom.lanes:
            return ("lanes", level)
        return ("lanes", level) + shape

    def extent(self, node: Expr) -> _Val:
        """``max(int(extent), 0)`` of a grid-strided span, once."""
        n = self.extents.get(node)
        if n is None:
            n = self.extents[node] = self._new(
                "int({0})", (self.expr(node, 0),)
            )
            self._check("if " + n.name + " < 0: " + n.name + " = 0")
        return n

    # -- masks ----------------------------------------------------------

    def level(self, k: int) -> _Sel:
        sel = self.levels.get(k)
        if sel is None:
            sel = self.levels[k] = self._mask(k)
        return sel

    def _mask(self, k: int) -> _Sel:
        prev = self.level(k - 1)
        op, lane, bound = self.trace.masks[k - 1]
        b = self.expr(bound, 0)
        lanes = self._bind("K", self.geom.lanes)
        if (
            prev.kind is None
            and isinstance(b.probe, _INT_TYPES)
            and _is_static(lane)
            and self._is_lane_identity(lane)
        ):
            # `i < n` on the flat lane index: a contiguous prefix.
            stop = "int({0})" + (" + 1" if op == "le" else "")
            sel = self._new(
                "slice(0, max(0, min(" + lanes + ", " + stop + ")))", (b,)
            )
            return _Sel("slice", sel.name, lane)
        # (None of the values named below is a ufunc statement, so
        # scratch reuse never renames them under the embedded text.)
        cmp = self._bind("F", np.less if op == "lt" else np.less_equal)
        cond = self._new(cmp + "({0}, {1})", (self.expr(lane, 0), b))
        if prev.kind == "slice":
            head = self._new(
                self._bind("F", np.zeros) + "(" + lanes + ", "
                + self._bind("K", np.bool_) + ")"
            )
            self._check(head.name + "[" + prev.name + "] = True")
            cond = self._new("{0} & {1}", (head, cond))
        elif prev.kind == "mask":
            cond = self._new(prev.name + " & {0}", (cond,))
        return _Sel("mask", cond.name)

    def _is_lane_identity(self, lane: Expr) -> bool:
        """Is the static lane expression ``arange(lanes)``?  Decided by
        generating and running its code once — the one evaluator."""
        sub = self.sub()
        vals = sub.function("fold", "args", result=sub.expr(lane, 0))(())
        lanes = self.geom.lanes
        return (
            isinstance(vals, np.ndarray)
            and vals.shape == (lanes,)
            and bool(np.array_equal(vals, np.arange(lanes)))
        )

    # -- stores ---------------------------------------------------------

    def stores(self) -> None:
        """Emit compute, destination views and shape checks of every
        recorded store, then the commits."""
        commits = []
        many = len(self.trace.stores) > 1
        for store in self.trace.stores:
            arr = self.arg(store.pos)
            if isinstance(store, TileStore):
                value = self.expr(store.value, 0)
                zero = (0,) * len(store.tile.bounds)
                dest = self._new(
                    "{0}[" + self._bind("K", store.tile.index(zero)) + "]",
                    (arr,), shape=("tile", store.tile),
                )
            elif isinstance(store, SpanStore):
                value = self.expr(store.value, 0)
                n = self.extent(store.extent)
                dest = self._new(
                    "{0}[:" + n.name + "]", (arr,),
                    shape=("span", store.extent, self.sig[store.pos][2]),
                )
            else:
                level = store.mask_count
                sel = self.level(level)
                value = self.expr(store.value, level)
                if (
                    sel.kind == "slice"
                    and len(store.index) == 1
                    and store.index[0] is sel.identity
                ):
                    dest = self._new(
                        "{0}[" + sel.name + "]", (arr,),
                        shape=self._prefix_shape(level, store.pos),
                    )
                else:
                    dest = None
                    self.guarded.add(store.pos)
                    idx = [self.expr(i, level) for i in store.index]
            if many and value.view:
                # A later commit's value may view what an earlier commit
                # writes: materialise before the first byte changes.
                value = self._new("{0}.copy()", (value,), probe=value.probe,
                                  shape=value.shape, fresh=True)
            value.uses += 1
            if dest is not None:
                dest.uses += 1
                if value.shape != () and (
                    value.shape is None or value.shape != dest.shape
                ):
                    self._check(
                        self._bind("F", _fits) + "({0}.shape, "
                        + self._bind("F", np.shape) + "({1}))", (dest, value),
                    )
                final = None if many else self._final_ufunc(value, dest, arr)
                if final is not None:
                    # The one store's last ufunc *is* the commit.
                    self.stmts.remove(final)
                    _val, call, operands, _ufunc = final
                    commits.append((
                        call + ", out={%d})" % len(operands), operands + (dest,)
                    ))
                else:
                    commits.append(("{0}[...] = {1}", (dest, value)))
                continue
            for i in idx:
                i.uses += 1
            target = _join(idx)
            if value.shape != () and (
                value.shape is None or value.shape != target
            ):
                shape_of = self._bind("F", np.shape)
                self._check(
                    self._bind("F", _fits) + "("
                    + self._bind("F", np.broadcast_shapes) + "("
                    + ", ".join(shape_of + "({%d})" % (i + 1)
                                for i in range(len(idx)))
                    + "), " + shape_of + "({0}))", [value] + idx,
                )
            slots = ", ".join("{%d}" % (i + 2) for i in range(len(idx)))
            commits.append(("{0}[" + slots + "] = {1}", [arr, value] + idx))
        self.commits = commits

    # -- printing -------------------------------------------------------

    def body(self) -> List[str]:
        """Source lines of the statements, deciding scratch reuse now
        that every value's consumer count is final."""
        lines = []
        for dest, template, operands, ufunc in self.stmts:
            names = [o.name for o in operands]
            if dest is None:
                lines.append(template.format(*names))
                continue
            target = self._scratch(dest, operands) if ufunc else None
            if target is not None:
                lines.append(
                    template.format(*names) + ", out=" + target.name + ")"
                )
                dest.name = target.name
            else:
                lines.append(
                    dest.name + " = " + template.format(*names)
                    + (")" if ufunc else "")
                )
        return lines

    @staticmethod
    def _proven(result: _Val, operands) -> bool:
        """Are the shape and dtype of a ufunc's natural result known for
        every call under this signature?"""
        if result.shape in ((), None) or result.dtype is None:
            return False
        return _WEAK_SCALARS or not any(o.shape == () for o in operands)

    def _scratch(self, dest: _Val, operands) -> Optional[_Val]:
        """The operand whose array may hold ``dest`` (see module doc)."""
        if not self._proven(dest, operands):
            return None
        for o in operands:
            if (
                o.fresh and o.uses == 1
                and o.shape == dest.shape and o.dtype == dest.dtype
            ):
                return o
        return None

    def _final_ufunc(self, value: _Val, dest: _Val, arr: _Val):
        """The statement computing ``value`` if it may write straight
        into the destination view ``dest`` of ``arr`` (see module doc):
        a ufunc only this store consumes, whose natural result has the
        destination's very shape and numeric dtype."""
        for stmt in reversed(self.stmts):
            if stmt[0] is value:
                break
        else:
            return None
        if (
            stmt[3] and value.uses == 1 and self._proven(value, stmt[2])
            and value.shape == dest.shape
            and value.dtype == arr.dtype and value.dtype.kind in "biufc"
        ):
            return stmt
        return None

    def function(self, name: str, params: str, result: Optional[_Val] = None,
                 lines: Optional[List[str]] = None):
        """Compile ``def name(params)`` over the shared globals and
        return the function; its text is kept in :attr:`source`."""
        if result is not None:
            result.uses += 1
        body = self.body() if lines is None else lines
        head, plain = [], None
        for pos, val in sorted(self.used_args.items()):
            line = f"{val.name} = args[{pos}]"
            if val.shape != () and pos not in self.guarded:
                plain = plain or self._bind("K", np.ndarray)
                line += ".view(" + plain + ")"
            head.append(line)
        if result is not None:
            body = body + ["return " + result.name]
        text = f"def {name}({params}):\n" + "".join(
            "    " + line + "\n" for line in (head + body) or ["pass"]
        )
        self.source = text
        exec(compile(text, f"<repro.compile {name}>", "exec"), self.env)
        return self.env[name]


def _zero(kind: type):
    """A zero of scalar type ``kind`` (the dtype probe of a scalar)."""
    try:
        return kind()
    except (TypeError, ValueError):  # pragma: no cover - the tracer
        return None  # admits plain scalars only, which all have a zero


def _is_static(node: Expr) -> bool:
    """True when ``node`` depends only on geometry and literals (its
    value can never change between replays of the same plan)."""
    if isinstance(node, (Const, LaneIndex)):
        return True
    if isinstance(node, Ufunc):
        return all(_is_static(a) for a in node.args)
    return False


def _shifted_reads(trace: TraceResult) -> List[Tuple[int, int]]:
    """(written position, read position) pairs the replay must prove
    disjoint: a tile store's target against every argument some store
    value reads at a non-zero shift."""
    written = sorted({s.pos for s in trace.stores if isinstance(s, TileStore)})
    shifted = set()
    seen = set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, TileLoad) and any(node.shifts):
            shifted.add(node.pos)
        for child in getattr(node, "args", ()) or getattr(node, "index", ()):
            walk(child)

    for store in trace.stores:
        walk(store.value)
    return [(w, r) for w in written for r in sorted(shifted)]


def lower_expr(node: Expr, work_div, sig: tuple = (), masks: tuple = (),
               level: int = 0):
    """``f(args) -> value of node`` under the first ``level`` of
    ``masks``: the generator pointed at one expression (debugging and
    tests; the mask decision folds static lane expressions this way)."""
    gen = _Lowering(
        TraceResult(stores=(), masks=tuple(masks), guards=(), nodes=0),
        LaneGeometry(work_div), sig,
    )
    return gen.function("value", "args", result=gen.expr(node, level))


def lower(trace: TraceResult, work_div, sig: tuple):
    """Generate and compile the functions of ``trace`` for arguments of
    signature ``sig`` (see :func:`repro.compile.replay._signature`).

    Returns ``(program, guards, aliased, source)``: ``program(args)``
    replays the whole grid; ``guards(args)`` (or ``None``) says whether
    the live arguments still take the traced path; ``aliased(args)``
    (or ``None``) whether an argument written through a tile shares
    memory with one read at a non-zero shift; ``source`` is the text of
    all of them, for inspection."""
    geom = LaneGeometry(work_div)
    main = _Lowering(trace, geom, sig)
    main.stores()
    lines = main.body()
    if main.commits:
        # Nothing below re-evaluates; a failure here (which the shape
        # checks above make unreachable in practice) is not a fallback.
        lines.append("try:")
        lines += [
            "    " + t.format(*(o.name for o in ops)) for t, ops in main.commits
        ]
        lines += [
            "except Exception as exc:",
            "    raise " + main._bind("K", KernelError) + "("
            + main._bind("K", "compiled replay failed mid-commit; buffer "
                         "state may be partial") + ") from exc",
        ]
    program = main.function("program", "args", lines=lines)
    sources = [main.source]

    guards = None
    if trace.guards:
        g = main.sub()
        tests = []
        seen = set()
        for expr, expected in trace.guards:
            if (id(expr), expected) in seen:
                continue
            seen.add((id(expr), expected))
            val = g.expr(expr, 0)
            val.uses += 1
            want = g._bind("K", expected)
            tests.append(
                f"bool({val.name}) != {want}" if isinstance(expected, bool)
                else f"not ({val.name} == {want})"
            )
        body = ["    " + line for line in g.body()]
        body += [f"    if {t}: return False" for t in tests]
        guards = g.function("guards", "args", lines=(
            ["try:"] + body + ["except Exception:", "    return False",
                               "return True"]
        ))
        sources.append(g.source)

    aliased = None
    pairs = _shifted_reads(trace)
    if pairs:
        a = main.sub()
        shares = a._bind("F", np.may_share_memory)
        aliased = a.function("aliased", "args", lines=[
            "return " + " or ".join(
                f"{shares}(args[{w}], args[{r}])" for w, r in pairs
            )
        ])
        sources.append(a.source)
    return program, guards, aliased, "\n".join(sources)
