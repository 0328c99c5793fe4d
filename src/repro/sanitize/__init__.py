"""repro.sanitize — a dynamic kernel sanitizer for every back-end.

Because every back-end executes through the reproduction's own engine
and memory objects, a sanitizer can watch *every* access and *every*
barrier with zero kernel changes.  This package runs task-kernels in an
instrumented mode and reports:

* **data races** on block-shared and global memory (phase/epoch
  happens-before model — :mod:`repro.sanitize.recorder`),
* **out-of-bounds and negative-index** accesses on buffers and views,
* **barrier divergence** (threads syncing while siblings exited),
* latent schedule-dependent bugs via **seeded schedule fuzzing**
  (:mod:`repro.sanitize.fuzz`), with failing seeds replayable.

Entry points::

    # zero code changes: sanitize every launch of a process
    REPRO_SANITIZE=1 python my_script.py
    REPRO_SANITIZE=1 REPRO_SANITIZE_SEED=7 python my_script.py

    # programmatic: one task, optionally many fuzz schedules
    from repro.sanitize import sanitize_task
    report = sanitize_task(task, seed=0, schedules=20)
    report.raise_if_findings()

    # collect whatever launches happen inside a block
    from repro.sanitize import enabled
    with enabled() as report:
        enqueue(queue, task)

    # CLI: demos, shipped kernels, examples, compiled cross-check
    python -m repro.sanitize demos
    python -m repro.sanitize examples
    python -m repro.sanitize crosscheck

This module keeps imports light (the runtime consults
:func:`sanitize_active` on every launch); detector machinery loads on
first attribute access.
"""

from __future__ import annotations

from ._state import (
    SANITIZE_ENV,
    SANITIZE_SEED_ENV,
    active as sanitize_active,
    enabled,
    env_seed,
)
from .report import AccessSite, Finding, LaunchRecord, SanitizerReport

__all__ = [
    "SANITIZE_ENV",
    "SANITIZE_SEED_ENV",
    "sanitize_active",
    "enabled",
    "env_seed",
    "AccessSite",
    "Finding",
    "LaunchRecord",
    "SanitizerReport",
    # lazy (PEP 562):
    "sanitize_task",
    "sanitized_launch",
    "run_with_sanitizer",
    "ShadowArray",
    "SanitizedAccessError",
    "AccessRecorder",
    "SanitizeMonitor",
    "FuzzFiberScheduler",
    "make_fuzzed_runner",
    "sweep_crosscheck",
    "CrossCheckReport",
]

_LAZY = {
    "sanitize_task": "runner",
    "sanitized_launch": "runner",
    "run_with_sanitizer": "runner",
    "ShadowArray": "shadow",
    "SanitizedAccessError": "shadow",
    "AccessRecorder": "recorder",
    "SanitizeMonitor": "monitor",
    "FuzzFiberScheduler": "fuzz",
    "make_fuzzed_runner": "fuzz",
    "sweep_crosscheck": "crosscheck",
    "CrossCheckReport": "crosscheck",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
