"""repro.compile — the one kernel tracer, and the vectorizer built on it.

The paper's central claim is zero-overhead abstraction: an alpaka
kernel compiles to the same machine code a native kernel would
(Fig. 4).  This reproduction's interpreter runs every thread of every
block in Python bytecode — faithful, observable, and orders of
magnitude from that claim.  :mod:`repro.compile` closes part of the
gap without leaving pure numpy:

* :mod:`~repro.compile.tracer` runs the kernel **once** per
  (kernel, work-division, argument-shape) configuration with batched
  symbolic thread coordinates and records a dataflow — per lane, per
  grid-strided span (row spans and their ``@`` included), or per n-d
  element box (a *tile*, whose constant-offset neighbour reads become
  shifted slices).  It is the
  only tracer: the Fig. 4 listings of :mod:`repro.trace` are printed
  from the same recording (asked for with ``block_level=True``);
* :mod:`~repro.compile.exprs` is that dataflow's IR;
* :mod:`~repro.compile.codegen` lowers it, still at trace time, to one
  generated straight-line numpy function — AXPY becomes
  ``y[:n] = a * x[:n] + y[:n]``, a Jacobi sweep six slice expressions,
  the OpenMP-style DGEMM one batched ``np.matmul`` over its row chunks;
* :mod:`~repro.compile.replay` caches that program on the
  :class:`~repro.runtime.plan.LaunchPlan`; a warm launch checks the
  cached signature and calls it (``CompiledReplay.source`` is the
  generated text);
* kernels the vectorizer cannot soundly represent (divergent control
  flow, barriers, atomics, shared memory, per-thread RNG) fall back to
  interpretation transparently, with the reason classified, logged
  once, counted (:mod:`~repro.compile.metrics`) and flight-recorded.

Select it like any other block schedule: ``REPRO_SCHEDULER=compiled``,
``tune_schedule=True``, or evolve's schedule genome.  Set
``REPRO_COMPILE_CROSSCHECK=1`` to make every compiled launch also run
interpreted and assert bit-identity.
"""

from __future__ import annotations

from .exprs import describe_expr
from .metrics import compile_stats, reset_compile_stats
from .replay import (
    CROSSCHECK_ENV,
    CompiledReplay,
    crosscheck_active,
    execute_compiled,
    replay_for,
)
from .tracer import FALLBACK_REASONS, CompileAcc, CompileFallback, trace_kernel

__all__ = [
    "CompileAcc",
    "CompileFallback",
    "FALLBACK_REASONS",
    "CompiledReplay",
    "trace_kernel",
    "replay_for",
    "execute_compiled",
    "crosscheck_active",
    "CROSSCHECK_ENV",
    "compile_stats",
    "reset_compile_stats",
    "describe_expr",
]
