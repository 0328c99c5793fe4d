"""Sanitized launch execution: the instrumented Task→Plan→Execute path.

:func:`sanitized_launch` is what :func:`repro.runtime.launch` delegates
to when the sanitizer is active (``REPRO_SANITIZE=1`` or
:func:`repro.sanitize.enabled`): same plan resolution and the same
Execute stage (:func:`repro.runtime.execute_plan` — observer
notifications, launch accounting, modeled time, crash handling), handed
a grid context whose kernel arguments are wrapped in shadow arrays and
which carries a :class:`SanitizeMonitor`, and a scheduler that runs the
blocks sequentially in the caller's thread and lands every finding in a
:class:`~repro.sanitize.report.LaunchRecord`.

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
from ..core.kernel import kernel_name
from ..runtime.scheduler import Scheduler
from . import _state
from .fuzz import make_fuzzed_runner
from .monitor import SanitizeMonitor
from .recorder import AccessRecorder
from .report import LaunchRecord, SanitizerReport
from .shadow import SanitizedAccessError, ShadowArray

__all__ = ["sanitized_launch", "sanitize_task", "run_with_sanitizer"]


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


class _TriageScheduler(Scheduler):
    """The sanitizer's block schedule for one launch: blocks run in the
    caller's thread, and every block failure is triaged.

    A block that trips the bounds checker is abandoned (excluded from
    divergence analysis) and the rest of the grid still runs; any other
    exception stops the launch and propagates.  Either way the findings
    are finalised into ``record`` before dispatch returns, and their
    count is set on the launch span (``sanitize_findings``) before it
    closes.  Handed to
    :func:`repro.runtime.execute_plan` per launch; not a
    ``REPRO_SCHEDULER`` choice.
    """

    def __init__(self, device, runner, record):
        super().__init__(device)
        self.runner = runner
        self.record = record

    def dispatch(self, plan, grid, block_indices, task) -> None:
        runner, monitor, record = self.runner, grid.monitor, self.record
        try:
            for bidx in block_indices:
                try:
                    runner(grid, bidx, task.kernel, grid.args)
                except BaseException as exc:  # noqa: BLE001 - kernel code; a finding is kept, anything else re-raised
                    monitor.skip_block(
                        linearize(bidx, plan.work_div.grid_block_extent)
                    )
                    if _sanitized_cause(exc) is None:
                        raise  # not a finding: the launch's own error
        finally:
            seed = record.seed
            record.findings.extend(monitor.recorder.findings)
            record.findings.extend(monitor.divergence_findings(seed=seed))
            if seed is not None:
                for f in record.findings:
                    if f.seed is None:
                        f.seed = seed
            _state.add_record(record)
            if monitor.span_attrs is not None:
                monitor.span_attrs["sanitize_findings"] = len(record.findings)


def run_with_sanitizer(
    task, device, plan, seed: Optional[int] = None
) -> LaunchRecord:
    """Execute one sanitized launch; the shared core of both entry
    points.  Builds the recorder, monitor, shadow arguments and launch
    record, then runs the runtime's Execute stage with a shadow grid and
    the triage scheduler — accounting, observers and the failure path
    are the normal launch's.
    """
    from ..acc.engine import unwrap_args
    from ..runtime import execute_plan
    from ..telemetry.spans import span

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
    runner = plan.block_runner
    if rng is not None and _should_fuzz(plan):
        runner = make_fuzzed_runner(rng)

    record = LaunchRecord(
        kernel=kernel_name(task.kernel),
        backend=plan.acc_type.name,
        device=getattr(device, "name", repr(device)),
        work_div=str(plan.work_div),
        seed=seed,
    )
    with span(
        "sanitize.launch", cat="sanitize", device=device, kernel=record.kernel
    ):
        execute_plan(
            plan,
            task,
            device,
            grid=plan.grid_for(task, shadow_args, monitor),
            scheduler=_TriageScheduler(device, runner, record),
        )
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
    report = SanitizerReport(label=kernel_name(task.kernel))

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
