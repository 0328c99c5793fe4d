"""Compiled replay: a recorded trace as one generated numpy function.

One :class:`CompiledReplay` holds the program of one (kernel, work
division, argument-shape) configuration — lowered once, when the trace
was recorded (:mod:`repro.compile.codegen`) — and a warm launch is
"check the cached signature, call the program":

1. **signature** — the replay this argument tuple resolved to last time
   is kept on the launch's :class:`~repro.runtime.plan.ArgsRecord` (a
   re-enqueued task hands over the same tuple, a graph node keeps its
   own record); otherwise the (dtype, shape, scalar-type) signature is
   rebuilt and looked up on the plan;
2. **guards** — every thread-uniform predicate the trace branched on
   (and every extent it concretised) is re-checked by the generated
   ``guards(args)``; a flip means the kernel would take a different
   path now, so the caller re-traces (a cheap, counted event — never a
   wrong answer).  A trace that read element boxes at a constant shift
   also proves, per launch, that no argument it writes shares memory
   with one it reads shifted; if one does, this launch interprets;
3. **compute, then commit** — ``program(args)`` evaluates every store
   value, destination view and shape check before the first byte of
   global memory changes.  A replay that fails mid-compute (shape
   surprise, out-of-bounds gather, a floating-point trap under
   ``np.errstate(all="raise")``) leaves the arguments untouched and
   falls back to interpretation, where the same kernel produces the
   authoritative result or error.  The program keeps no state between
   calls: scratch arrays it reuses through ``out=`` are its own, of
   this call.

Replays are cached per argument signature on the plan
(``LaunchPlan._compiled``); negative results (classified fallbacks) are
cached too, so an uncompilable kernel pays the trace attempt once, not
per launch.  Each launch is counted once, when it ends
(:func:`repro.compile.metrics.note_launch`).
``REPRO_COMPILE_CROSSCHECK=1`` makes every compiled launch also run
interpreted and compares the store targets bit-for-bit.
:attr:`CompiledReplay.source` is the generated text, for inspection.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .. import knobs
from ..core.errors import CompileCrossCheckError, KernelError
from ..core.kernel import kernel_name
from . import metrics
from .codegen import lower
from .tracer import CompileFallback, TraceResult, trace_kernel

__all__ = [
    "CompiledReplay",
    "execute_compiled",
    "replay_for",
    "crosscheck_active",
    "CROSSCHECK_ENV",
]

#: Environment variable: a true value makes every compiled launch also
#: run interpreted and assert bit-identity of all store targets.
CROSSCHECK_ENV = knobs.COMPILE_CROSSCHECK

def crosscheck_active() -> bool:
    """Is compiled-vs-interpreted cross-checking requested?"""
    return knobs.get(CROSSCHECK_ENV)


def _signature(args: tuple) -> tuple:
    """Hashable shape of an argument tuple.

    Arrays key on (dtype, shape): the trace embeds concrete metadata
    wherever the kernel observed it.  Scalars key on their exact type —
    a ``np.float32`` argument promotes ufunc results differently from a
    Python float, and bit-identity is the contract.
    """
    sig = []
    for a in args:
        if isinstance(a, np.ndarray):
            sig.append(("nd", a.dtype.str, a.shape))
        else:
            sig.append(("s", type(a)))
    return tuple(sig)


class CompiledReplay:
    """One compiled (kernel, work division, arg-shape) configuration."""

    def __init__(self, plan, trace: TraceResult, sig: tuple):
        self.plan = plan
        self.trace = trace
        self.sig = sig
        self.store_positions = tuple(sorted(
            {s.pos for s in trace.stores}
        ))
        #: ``source`` is the generated Python text (program, guards,
        #: alias check); the functions hold no state between calls.
        self._program, self._guards, self._aliased, self.source = lower(
            trace, plan.work_div, sig
        )
        self.counts = metrics.counts_for(kernel_name(plan.kernel))

    def guards_hold(self, args: tuple) -> bool:
        """Do the live arguments still take the traced path?"""
        return self._guards is None or self._guards(args)

    def run(self, args: tuple) -> None:
        """Replay the whole grid onto ``args`` (compute, then commit).

        Raises :class:`~repro.compile.tracer.CompileFallback` — with
        the arguments untouched — when evaluation fails; raises
        :class:`~repro.core.errors.KernelError` only for a failure
        *after* mutation began (which the pre-commit shape checks make
        unreachable in practice).
        """
        try:
            self._program(args)
        except (CompileFallback, KernelError):
            raise
        except Exception as exc:
            # Must stay broad: the generated program runs the kernel's
            # ufuncs on live data; whatever they raise before the
            # commit, the arguments are untouched and the launch
            # interprets.
            raise CompileFallback(
                "replay-error",
                f"compiled replay failed during evaluation "
                f"({type(exc).__name__}: {exc}); interpretation is "
                f"authoritative",
            ) from exc


# ---------------------------------------------------------------------------
# Plan-level cache + execution
# ---------------------------------------------------------------------------


def replay_for(plan, args: tuple) -> Tuple[object, bool]:
    """The cached-or-traced entry for ``args``' shape on ``plan``.

    Returns ``(entry, fresh)``: the entry is a :class:`CompiledReplay`
    or a cached ``("fallback", reason, detail)`` verdict (an uncompilable
    shape pays the trace attempt once; later launches pay a dict
    lookup).  ``fresh`` means the trace was just recorded against these
    very arguments, so its guards hold by construction.
    """
    cache: Dict = plan._compiled
    sig = _signature(args)
    entry = cache.get(sig)
    if entry is not None:
        return entry, False
    metrics.note_trace(kernel_name(plan.kernel))
    try:
        entry = CompiledReplay(
            plan,
            trace_kernel(plan.kernel, plan.work_div, plan.props, args),
            sig,
        )
    except CompileFallback as cf:
        entry = ("fallback", cf.reason, cf.detail)
    except Exception as exc:
        # Must stay broad: the generator met a trace it cannot
        # lower (it probes the kernel's ufuncs while generating);
        # the verdict is cached and the launch interprets.
        entry = (
            "fallback", "unsupported-op",
            f"lowering the trace failed ({type(exc).__name__}: {exc})",
        )
    cache[sig] = entry
    return entry, True


def _usable(entry) -> CompiledReplay:
    """``entry`` as a replay, or its verdict raised."""
    if isinstance(entry, tuple):
        raise CompileFallback(entry[1], entry[2])
    return entry


def execute_compiled(plan, grid, task, interpret=None) -> None:
    """Run one launch through the compiled path.

    ``grid`` is the launch's :class:`~repro.runtime.plan.ArgsRecord`: a
    record that resolved before holds its entry, and the signature is
    not rebuilt.  ``interpret`` (passed when cross-checking) is a
    zero-argument callable that dispatches the same launch through the
    interpreting scheduler.  Raises :class:`CompileFallback` when the
    launch must fall back — always *before* any argument byte changed.
    """
    args = grid.args
    entry, fresh = grid.replay, False
    if entry is None:
        entry, fresh = replay_for(plan, args)
        grid.replay = entry
    replay = _usable(entry)
    compiled = False
    try:
        if not fresh and replay._guards is not None and not replay._guards(args):
            # A uniform predicate flipped (e.g. alpha became 0): the
            # traced path is stale for these arguments.  Re-trace
            # against them.
            metrics.note_retrace(replay.counts.kernel)
            plan._compiled.pop(replay.sig, None)
            entry, _fresh = replay_for(plan, args)
            grid.replay = entry
            replay = _usable(entry)
        if replay._aliased is not None and replay._aliased(args):
            # A property of these arguments, not of their signature:
            # the verdict is not cached.
            raise CompileFallback(
                "load-after-store",
                "an argument written through an element box shares "
                "memory with one read at a shifted box (every thread "
                "would have to read before any wrote)",
            )
        try:
            if interpret is not None:
                _run_crosschecked(replay, args, interpret)
            else:
                replay.run(args)
        except CompileFallback as cf:
            # Cache the verdict so warm launches skip straight to
            # interpretation instead of re-failing the replay.
            grid.replay = plan._compiled[replay.sig] = (
                "fallback", cf.reason, cf.detail,
            )
            raise
        compiled = True
    finally:
        metrics.note_launch(replay.counts, not fresh, compiled)


def _run_crosschecked(replay: CompiledReplay, args: tuple, interpret) -> None:
    """Run compiled AND interpreted; assert store targets bit-identical.

    The compiled replay runs first (two-phase, so a fallback leaves the
    arguments clean); its results are snapshotted, the inputs restored,
    and the interpreting scheduler re-runs the launch for real.  The
    buffers end up holding the interpreted result — which the check
    just proved identical.
    """
    kname = replay.counts.kernel
    positions = replay.store_positions
    before = {p: np.array(args[p], copy=True) for p in positions}
    replay.run(args)
    compiled = {p: np.array(args[p], copy=True) for p in positions}
    for p in positions:
        args[p][...] = before[p]
    interpret()
    for p in positions:
        got = np.asarray(args[p])
        want = compiled[p]
        if got.tobytes() != want.tobytes():
            diff = int(np.count_nonzero(
                got.view(np.uint8) != want.view(np.uint8)
            )) if got.shape == want.shape else -1
            raise CompileCrossCheckError(
                f"compiled and interpreted execution of {kname!r} "
                f"disagree on argument {p} "
                f"({'shape mismatch' if diff < 0 else f'{diff} differing bytes'})"
            )
    metrics.note_crosscheck(kname)
