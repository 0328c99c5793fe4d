"""Sanitized launch execution: the instrumented Task→Plan→Execute path.

:func:`sanitized_launch` is what :func:`repro.runtime.launch` delegates
to when the sanitizer is active (``REPRO_SANITIZE=1`` or
:func:`repro.sanitize.enabled`): same plan resolution, same observer
notifications and modeled-time accounting, but kernel arguments are
wrapped in shadow arrays, a :class:`SanitizeMonitor` rides on the grid
context, blocks run sequentially in the caller's thread, and every
finding lands in a :class:`~repro.sanitize.report.LaunchRecord`.

:func:`sanitize_task` is the programmatic front door: run one task
under the sanitizer — optionally across several seeded fuzz schedules
with argument snapshot/restore between them — and get the report back
directly.

A thread that trips the bounds checker unwinds with
:class:`SanitizedAccessError`; its block is abandoned (and excluded
from divergence analysis) while the remaining blocks still execute, so
one bad access does not mask findings elsewhere in the grid.  Any
other kernel exception is re-raised exactly as an uninstrumented
launch would raise it.
"""

from __future__ import annotations

import inspect
import random
from typing import Optional, Tuple

import numpy as np

from ..core.index import linearize
from . import _state
from .fuzz import make_fuzzed_runner
from .monitor import SanitizeMonitor
from .recorder import AccessRecorder
from .report import LaunchRecord, SanitizerReport
from .shadow import SanitizedAccessError, ShadowArray

__all__ = ["sanitized_launch", "sanitize_task", "run_with_sanitizer"]


def _kernel_name(kernel) -> str:
    return getattr(kernel, "__name__", type(kernel).__name__)


def _arg_names(kernel, n: int) -> Tuple[str, ...]:
    """Best-effort kernel parameter names for report attribution."""
    names: Tuple[str, ...] = ()
    try:
        params = list(inspect.signature(kernel).parameters)
        if params and params[0] in ("acc", "self"):
            params = params[1:]
        if params and params[0] == "acc":
            params = params[1:]
        names = tuple(params)
    except (TypeError, ValueError):
        pass
    if len(names) < n:
        names = names + tuple(f"arg{i}" for i in range(len(names), n))
    return names[:n]


def _should_fuzz(plan) -> bool:
    return (
        plan.work_div.block_thread_count > 1
        and getattr(plan.acc_type, "supports_block_sync", False)
    )


def _sanitized_cause(exc) -> Optional[SanitizedAccessError]:
    seen = 0
    while exc is not None and seen < 20:
        if isinstance(exc, SanitizedAccessError):
            return exc
        exc = exc.__cause__
        seen += 1
    return None


def run_with_sanitizer(
    task, device, plan, seed: Optional[int] = None
) -> LaunchRecord:
    """Execute one sanitized launch; the shared core of both entry
    points.  Handles observer notification, accounting, shadow
    wrapping, sequential block dispatch, and divergence finalisation.
    """
    from ..acc.base import GridContext
    from ..acc.engine import unwrap_args
    from ..acc.timing import advance_modeled_time
    from ..runtime.instrument import (
        notify_launch_begin,
        notify_launch_end,
        notify_sanitizer_report,
    )

    recorder = AccessRecorder(plan.work_div)
    rng = random.Random(seed) if seed is not None else None
    monitor = SanitizeMonitor(recorder, fuzz_rng=rng)
    recorder.monitor = monitor

    raw = unwrap_args(task.args, device)
    names = _arg_names(task.kernel, len(raw))
    shadow_args = tuple(
        ShadowArray.wrap_root(a, recorder.track(name, a, "global"))
        if isinstance(a, np.ndarray)
        else a
        for name, a in zip(names, raw)
    )
    grid = GridContext(
        device,
        plan.work_div,
        plan.props,
        shadow_args,
        shared_mem_bytes=plan.shared_mem_bytes,
        monitor=monitor,
    )
    runner = plan.block_runner
    if rng is not None and _should_fuzz(plan):
        runner = make_fuzzed_runner(rng)

    record = LaunchRecord(
        kernel=_kernel_name(task.kernel),
        backend=plan.acc_type.name,
        device=getattr(device, "name", repr(device)),
        work_div=str(plan.work_div),
        seed=seed,
    )
    from ..telemetry.spans import span

    device.note_kernel_launch()
    plan.launches += 1
    notify_launch_begin(plan, task, device)
    error = None
    try:
        with span(
            "sanitize.launch",
            cat="sanitize",
            device=device,
            kernel=record.kernel,
        ):
            for bidx in plan.block_indices:
                try:
                    runner(grid, bidx, task.kernel, grid.args)
                except BaseException as exc:  # noqa: BLE001 - triaged below
                    monitor.skip_block(
                        linearize(bidx, plan.work_div.grid_block_extent)
                    )
                    if _sanitized_cause(exc) is not None:
                        continue  # already recorded as a finding
                    error = exc
                    break
            advance_modeled_time(
                task, device, plan.acc_type.kind, plan.work_div, plan._modeled
            )
    finally:
        record.findings.extend(recorder.findings)
        record.findings.extend(monitor.divergence_findings(seed=seed))
        if seed is not None:
            for f in record.findings:
                if f.seed is None:
                    f.seed = seed
        _state.add_record(record)
        notify_sanitizer_report(plan, record)
        notify_launch_end(plan, task, device)
    if error is not None:
        raise error
    return record


def sanitized_launch(task, device):
    """Environment-activated path: called from
    :func:`repro.runtime.launch` instead of normal dispatch.  Returns
    the :class:`~repro.runtime.plan.LaunchPlan` like a normal launch;
    the record lands in the session report and active collectors."""
    from ..runtime.plan import get_plan

    plan = get_plan(task, device)
    run_with_sanitizer(task, device, plan, seed=_state.env_seed())
    return plan


def sanitize_task(
    task,
    device=None,
    *,
    seed: Optional[int] = None,
    schedules: int = 1,
) -> SanitizerReport:
    """Run ``task`` under the sanitizer and return its report.

    With ``schedules > 1`` the launch is repeated under that many
    seeded fuzz schedules (seeds ``seed, seed+1, ...``; ``seed``
    defaults to 0), restoring array arguments between runs so every
    schedule starts from identical data.  ``report.failing_seeds``
    lists any seed whose schedule produced findings — re-run with
    ``seed=<failing>`` (or ``REPRO_SANITIZE_SEED``) for a
    deterministic replay.
    """
    from ..acc.engine import unwrap_args
    from ..dev.manager import get_dev_by_idx
    from ..runtime.plan import get_plan

    if device is None:
        device = get_dev_by_idx(task.acc_type, 0)
    plan = get_plan(task, device)
    report = SanitizerReport(label=_kernel_name(task.kernel))

    if schedules <= 1:
        report.launches.append(run_with_sanitizer(task, device, plan, seed))
        return report

    base_seed = 0 if seed is None else seed
    raw = unwrap_args(task.args, device)
    snapshots = [
        (a, a.copy()) for a in raw if isinstance(a, np.ndarray)
    ]
    for k in range(schedules):
        if k > 0:
            for arr, snap in snapshots:
                arr[...] = snap
        report.launches.append(
            run_with_sanitizer(task, device, plan, base_seed + k)
        )
    return report
