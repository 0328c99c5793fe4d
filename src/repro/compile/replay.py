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
   wrong answer).  A trace that read element boxes at a constant shift,
   or a whole array through ``@``, also proves, per launch, that no
   argument it writes shares memory with one it reads that way; if one
   does, this launch interprets;
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

The default schedule tiers (ROADMAP item 13): on a pool-capable
back-end planned at its default ``pooled``, a record whose guard
verdict is ``"proven"`` holds the entry its proof traced
(:meth:`repro.runtime.plan.ArgsRecord.prove`), and the entry decides by
the host clock whether those records run this replay or the
interpreter (:meth:`CompiledReplay.note_trial`).  ``compiled`` is the
same replay forced: every launch, no trial, no proof.
``REPRO_COMPILE_CROSSCHECK=1`` makes every compiled launch also run
interpreted and compares the store targets bit-for-bit.
:attr:`CompiledReplay.source` is the generated text, for inspection.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
    "guard_verdict",
    "crosscheck_active",
    "TIER_TRIALS",
    "CROSSCHECK_ENV",
]

#: Environment variable: a true value makes every compiled launch also
#: run interpreted and assert bit-identity of all store targets.
CROSSCHECK_ENV = knobs.COMPILE_CROSSCHECK

#: Timed dispatches each side of a tier decision takes before the entry
#: keeps the faster one (see :meth:`CompiledReplay.note_trial`).
TIER_TRIALS = 2

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
        lowered = lower(trace, plan.work_div, sig)
        #: ``source`` is the generated Python text (program, guards,
        #: alias check); the functions hold no state between calls.
        self._program, self._guards, self._aliased, self.source = lowered[:4]
        #: Array positions an interpreted launch must keep guarded
        #: (:attr:`~repro.compile.codegen.Lowered.guarded`).
        self.guarded = lowered.guarded
        #: ``(kept positions or None for all, verdict)`` for an
        #: interpreted record whose arguments take this trace's path
        #: (see :func:`guard_verdict`).
        if lowered.guards_read_memory:
            self.verdict = (None, "kept: guard-reads-memory")
        elif self.guarded:
            self.verdict = (
                self.guarded,
                f"kept: integer-subscript {tuple(sorted(self.guarded))}",
            )
        else:
            self.verdict = (self.guarded, "proven")
        self.counts = metrics.counts_for(kernel_name(plan.kernel))
        #: What the proven records of a tiering plan run: ``None`` while
        #: undecided, then ``"compiled"`` (this replay) or ``"pooled"``
        #: (the interpreter) for the life of the entry.
        self.tier: Optional[str] = None
        #: schedule -> the wall seconds of its timed trial dispatches.
        self.trials: Dict[str, list] = {"pooled": [], "compiled": []}

    def next_trial(self) -> str:
        """The schedule an undecided launch is timed under: the
        interpreter and the replay alternate, the interpreter first."""
        trials = self.trials
        if len(trials["compiled"]) < len(trials["pooled"]):
            return "compiled"
        return "pooled"

    def note_trial(self, schedule: str, seconds: float) -> None:
        """One timed trial dispatch ended.  Once each side has
        :data:`TIER_TRIALS`, the side with the smaller minimum is the
        tier — measured, not modelled: which one wins depends on the
        kernel, the division and the host's cores."""
        if self.tier is not None:
            return  # settled meanwhile: the replay fell back
        trials = self.trials
        trials[schedule].append(seconds)
        if min(map(len, trials.values())) >= TIER_TRIALS:
            self.settle(
                "compiled"
                if min(trials["compiled"]) < min(trials["pooled"])
                else "pooled"
            )

    def settle(self, tier: str) -> None:
        """Decide the tier (counted per kernel, ``compile_stats()["tier"]``)."""
        self.tier = tier
        metrics.note_tier(self.counts, tier)

    def tier_state(self) -> str:
        """``"<tier or undecided> (compiled <min>, pooled <min>)"``."""
        mins = ", ".join(
            f"{side} {min(times) * 1e3:.3f} ms" if times else f"{side} -"
            for side, times in sorted(self.trials.items())
        )
        return f"{self.tier or 'undecided'} ({mins})"

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


def _retrace(plan, replay: CompiledReplay, args: tuple):
    """A uniform predicate flipped (e.g. alpha became 0): the traced
    path is stale for ``args``.  Re-trace against them."""
    metrics.note_retrace(replay.counts.kernel)
    plan._compiled.pop(replay.sig, None)
    return replay_for(plan, args)[0]


def guard_verdict(plan, args: tuple) -> Tuple[object, Optional[frozenset], str]:
    """Which of ``args`` an interpreted launch on ``plan`` must keep
    guarded: ``(entry, positions, verdict)``, ``positions`` ``None``
    for all, ``entry`` the replay (or fallback verdict) of ``args``.

    The proof is the compile trace of ``args``' signature — the same
    entry (``plan._compiled``) the compiled schedule replays.  A
    fallback verdict proves nothing; a trace whose uniform guards read
    an array element proves nothing either (the path can change with
    memory contents).  Guards over scalars and extents are checked once
    against ``args`` — the caller holds this very tuple for the life of
    its record — and a flip re-traces, as a compiled launch does.
    Counted per kernel (``compile_stats()["guard"]``).
    """
    entry, fresh = replay_for(plan, args)
    if not (fresh or isinstance(entry, tuple) or entry.guards_hold(args)):
        entry = _retrace(plan, entry, args)
    if isinstance(entry, tuple):
        kept, verdict = None, "kept: " + entry[1]
    else:
        kept, verdict = entry.verdict
    metrics.note_guard(kernel_name(plan.kernel), verdict)
    return entry, kept, verdict


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
        if not fresh and not replay.guards_hold(args):
            entry = grid.replay = _retrace(plan, replay, args)
            replay = _usable(entry)
        if replay._aliased is not None and replay._aliased(args):
            # A property of these arguments, not of their signature:
            # the verdict is not cached.
            raise CompileFallback(
                "load-after-store",
                "an argument this launch writes shares memory with one "
                "it reads at a shifted element box or whole through `@` "
                "(every thread would have to read before any wrote)",
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
        metrics.note_launch(
            replay.counts, not fresh, compiled, grid.tier is not None
        )


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
