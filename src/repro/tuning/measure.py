"""Measuring one work division: warmup + repeated launches through the
Task→Plan→Execute runtime.

A measurement must cost what a *real* launch costs, so candidates are
executed through the same pipeline the application uses — the plan
cache, the schedulers, the :class:`~repro.runtime.ExecutionObserver`
hooks all fire (the bench's ``launch_stats`` counters therefore count
tuning launches too, which is how the warm-cache acceptance check
"zero measurement launches" observes the tuner).

Two clocks, chosen automatically per kernel:

* **modeled** — kernels that describe themselves (``characteristics``)
  advance the device's simulated clock deterministically on every
  launch; the per-launch modeled seconds are the measurement.  This is
  the clock the paper-figure kernels use, and it makes tuning results
  reproducible run to run.
* **wall** — kernels without a model fall back to the shared
  warmup/repeat wall-clock loop (:func:`repro.acc.timing.measure`),
  best-of-``repeat`` after ``warmup`` launches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .. import knobs
from ..acc.timing import measure
from ..core.kernel import KernelTask
from ..core.workdiv import WorkDivMembers
from ..telemetry.spans import sim_interval, span

__all__ = ["MeasuredTime", "measure_division", "measure_task"]


@dataclass(frozen=True)
class MeasuredTime:
    """Outcome of measuring one division."""

    seconds: float
    #: "modeled" (simulated clock) or "wall" (host clock).
    source: str
    #: How many kernel launches the measurement spent.
    launches: int


def measure_task(
    task,
    device,
    *,
    queue=None,
    warmup: int = 1,
    repeat: int = 3,
    clock: str = "auto",
) -> MeasuredTime:
    """Measure one bound task on ``device`` (see module docstring).

    ``queue`` defaults to a fresh blocking queue on ``device``; pass
    one to order measurements into existing device work.  ``clock``:
    ``"auto"`` prefers the modeled clock when the kernel advances it,
    ``"wall"`` forces the host clock — the modeled clock derives from
    the work division alone, so comparing *block schedulers* (whose
    difference is purely host parallelism) must measure wall time.
    """
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if clock not in ("auto", "wall"):
        raise ValueError(f"clock must be 'auto' or 'wall', got {clock!r}")
    if queue is None:
        from ..queue import QueueBlocking

        queue = QueueBlocking(device)

    with span("tuning.measure", cat="tuning", device=device):
        # Warmup: fills the plan cache and, for self-describing kernels,
        # reveals the modeled per-launch cost on the simulated clock.
        # The shared telemetry helper reads the exact femtosecond
        # counter: identical launches must measure identical seconds no
        # matter how large the device clock has grown.
        with sim_interval(device) as elapsed:
            for _ in range(warmup):
                queue.enqueue(task)
        modeled = elapsed[0] / warmup

        if modeled > 0.0 and clock == "auto":
            # Deterministic clock: the warmup launches already *are*
            # the measurement; repeating would add identical samples.
            return MeasuredTime(
                seconds=modeled, source="modeled", launches=warmup
            )

        seconds = measure(lambda: queue.enqueue(task), warmup=0, repeat=repeat)
        return MeasuredTime(
            seconds=seconds, source="wall", launches=warmup + repeat
        )


def measure_division(
    kernel,
    acc_type,
    device,
    work_div: WorkDivMembers,
    args: Tuple = (),
    *,
    shared_mem_bytes: int = 0,
    queue=None,
    warmup: int = 1,
    repeat: int = 3,
    schedule: Optional[str] = None,
    clock: str = "auto",
) -> MeasuredTime:
    """Bind ``kernel`` to ``work_div`` and measure it — the autotuner's
    objective function.

    ``schedule`` pins the block-scheduling strategy for this measurement
    (``"sequential"`` / ``"pooled"`` / ``"compiled"``); the schedule
    leg of the autotuner sweeps it with ``clock="wall"``.
    """
    if schedule is not None:
        # Same names (and aliases) ``REPRO_SCHEDULER`` accepts.
        schedule = knobs.parse(knobs.SCHEDULER, schedule)
    task = KernelTask(
        acc_type, work_div, kernel, tuple(args),
        shared_mem_bytes=shared_mem_bytes, schedule=schedule,
    )
    return measure_task(
        task, device, queue=queue, warmup=warmup, repeat=repeat, clock=clock
    )
