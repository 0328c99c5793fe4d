"""Process-wide sanitizer activation and report collection.

Deliberately import-light: :func:`active` is consulted by
:func:`repro.runtime.launch` on every kernel launch, so this module
must not pull in numpy-heavy detector machinery.  Only the report
dataclasses are imported.

Activation has two sources, either of which routes launches through the
instrumented path:

* the ``REPRO_SANITIZE`` environment variable (a boolean knob, see
  :mod:`repro.knobs`) — the zero-code-change entry for scripts and CI;
* the :func:`enabled` context manager — the programmatic opt-in
  ``testing.run_on_all_backends(sanitize=True)`` and the test-suite
  use.

``REPRO_SANITIZE_SEED`` selects a fuzzed (seeded, cooperative)
schedule for environment-activated launches; without it launches run
their back-end's declared deterministic runner.
"""

from __future__ import annotations

import atexit
import sys
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .. import knobs
from .report import LaunchRecord, SanitizerReport

__all__ = [
    "SANITIZE_ENV",
    "SANITIZE_SEED_ENV",
    "active",
    "env_seed",
    "pinned_seed",
    "enabled",
    "add_record",
]

#: Environment variable: a true value sanitizes every launch.
SANITIZE_ENV = knobs.SANITIZE
#: Environment variable: integer seed for fuzzed schedules (implies a
#: seeded cooperative scheduler on sync-capable launches).
SANITIZE_SEED_ENV = knobs.SANITIZE_SEED

_lock = threading.Lock()
_forced = 0
_collectors: List[SanitizerReport] = []
#: ``REPRO_SANITIZE`` launches that found something, for the exit
#: summary (clean launches are not kept: a long sanitized process must
#: not grow without bound).
_env_session = SanitizerReport(label=f"{SANITIZE_ENV} session")
_atexit_armed = False


def active() -> bool:
    """Should the runtime route launches through the sanitizer?"""
    return _forced > 0 or knobs.get(SANITIZE_ENV)


def env_seed() -> Optional[int]:
    return knobs.get(SANITIZE_SEED_ENV)


def pinned_seed(seed: Optional[int]):
    """Pin ``REPRO_SANITIZE_SEED`` for a whole-process CLI sweep
    (context manager; ``None`` leaves the environment alone)."""
    return knobs.pinned(**({} if seed is None else {SANITIZE_SEED_ENV: seed}))


def _print_session_at_exit() -> None:  # pragma: no cover - process teardown
    if not _env_session.clean:
        print(_env_session.render(), file=sys.stderr)


def add_record(rec: LaunchRecord) -> None:
    """File one sanitized launch with the active collectors."""
    global _atexit_armed
    with _lock:
        for collector in _collectors:
            collector.launches.append(rec)
        if rec.findings and knobs.get(SANITIZE_ENV):
            # Environment-driven runs have no caller holding a report;
            # keep their findings and summarise on interpreter exit so
            # they cannot vanish.
            _env_session.launches.append(rec)
            if not _atexit_armed:
                atexit.register(_print_session_at_exit)
                _atexit_armed = True


@contextmanager
def enabled(label: str = "") -> Iterator[SanitizerReport]:
    """Force-sanitize every launch inside the ``with`` block and collect
    their records into the yielded :class:`SanitizerReport`."""
    global _forced
    report = SanitizerReport(label=label)
    with _lock:
        _forced += 1
        _collectors.append(report)
    try:
        yield report
    finally:
        with _lock:
            _forced -= 1
            _collectors.remove(report)
