"""Timing: the shared warmup/repeat measurement loop and the
modeled-time hook for kernel execution.

:func:`measure` is the *one* warmup-then-repeat timing loop of the
library.  The benchmark harness (:func:`repro.bench.measure_wall`) and
the work-division autotuner (:mod:`repro.tuning.measure`) both delegate
here, so "how we time things" — warmup first, best-of-N, monotonic
clock — is defined exactly once.

:func:`modeled_seconds` is the simulated-clock hook (and
:func:`advance_modeled_time` applies it to a device): the
reproduction runs every kernel *functionally* on the host, and for the
performance figures it additionally advances the device's simulated
clock by the time the launch would have taken on the modeled machine —
but only when the kernel opts in by describing itself: a kernel class
may implement::

    def characteristics(self, work_div, *args) -> KernelCharacteristics

Kernels without the method cost no simulated time (their correctness is
still fully exercised).  This is the documented substitution for the
paper's wall-clock measurements on K20/K80/Xeon/Opteron hardware; see
DESIGN.md.

The ``characteristics`` contract: the result is a pure function of the
work division, the argument tuple and the kernel's construction-time
attributes.  It may read scalar arguments and array shapes, never array
contents or state the kernel changes after construction, because the
runtime memoises it per argument tuple: every launch of one task (one
host-args tuple) under one plan asks the kernel once
(:class:`repro.runtime.plan.ArgsRecord` keeps the modeled seconds).
"""

from __future__ import annotations

import time
from typing import Callable

from ..core.errors import ModelError
from ..dev.device import Device
from ..perfmodel.roofline import predict_time

__all__ = ["measure", "modeled_seconds", "advance_modeled_time"]

#: Upper bound on the distinct predictions one memo (one launch plan)
#: remembers.
MODEL_MEMO_MAX = 64


def measure(
    fn: Callable[[], None],
    *,
    warmup: int = 1,
    repeat: int = 3,
) -> float:
    """Best-of-``repeat`` wall seconds of ``fn`` after ``warmup`` calls.

    Minimum (not mean) is the right statistic for timing comparisons:
    noise is strictly additive, so the fastest observation is the
    closest to the true cost.  ``warmup`` calls run first and are not
    timed (plan caches fill, pools spin up, branch predictors settle).
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def modeled_seconds(
    task, device: Device, backend_kind: str, work_div=None, memo=None
) -> float:
    """The modeled seconds of one launch of ``task`` on ``device`` (0.0
    when the kernel does not describe itself).

    ``work_div`` overrides ``task.work_div`` — the runtime passes the
    plan's *resolved* division so tasks carrying a deferred
    :class:`~repro.core.workdiv.AutoWorkDiv` are modeled with the
    concrete division they actually executed under.

    The prediction is a pure function of ``(spec, kind, work division,
    characteristics, scope)``: with ``memo`` — a dict the caller owns,
    the launch plan's ``_modeled`` — the seconds of each distinct tuple
    are predicted once, so tasks built afresh per launch (a server's
    requests) share predictions.  The memo never holds more than
    :data:`MODEL_MEMO_MAX` entries (a full memo starts over).
    """
    describe = getattr(task.kernel, "characteristics", None)
    if describe is None:
        return 0.0
    wd = work_div if work_div is not None else task.work_div
    chars = describe(wd, *task.args)
    if chars is None:
        return 0.0
    scope = getattr(task.acc_type, "parallel_scope", "none")
    key = (device.spec, backend_kind, wd, chars, scope)
    seconds = memo.get(key) if memo is not None else None
    if seconds is None:
        seconds = predict_time(*key).seconds
        if seconds < 0:
            raise ModelError(f"negative modeled time from {task.kernel!r}")
        if memo is not None:
            if len(memo) >= MODEL_MEMO_MAX:
                memo.clear()  # one atomic step; launches may race here
            memo[key] = seconds
    return seconds


def advance_modeled_time(
    task, device: Device, backend_kind: str, work_div=None, memo=None
) -> float:
    """Advance ``device``'s simulated clock by :func:`modeled_seconds`
    of ``task``; returns the seconds."""
    seconds = modeled_seconds(task, device, backend_kind, work_div, memo)
    device.advance_sim_time(seconds)
    return seconds
