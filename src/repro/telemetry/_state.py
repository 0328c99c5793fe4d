"""Process-wide telemetry activation.

Activation has three front doors, all landing on the same collector
machinery:

* **environment** — ``REPRO_TELEMETRY`` (a boolean knob, see
  :mod:`repro.knobs`) installs a session collector at import time
  (zero code changes) and prints the report and the effective
  configuration at interpreter exit; ``REPRO_TELEMETRY_EXPORT``
  additionally writes an export file at exit (``*.json`` → Chrome
  trace, ``*.prom`` / ``*.txt`` → Prometheus text);
* **programmatic** — :func:`repro.telemetry.collect` scopes a private
  collector to a ``with`` block;
* **CLI** — ``python -m repro.telemetry`` (see
  :mod:`repro.telemetry.cli`).

Deliberately import-light, mirroring :mod:`repro.sanitize._state`: the
only work at import is one environment check; the collector and its
numpy-free dependencies load only when telemetry is actually on.
"""

from __future__ import annotations

import atexit
import sys
import threading
from typing import Optional

from .. import knobs

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_EXPORT_ENV",
    "enabled",
    "activate",
    "deactivate",
    "session_collector",
    "maybe_activate_from_env",
]

#: Environment variable: a true value collects telemetry for the whole
#: process and renders the report at exit.
TELEMETRY_ENV = knobs.TELEMETRY

#: Environment variable: path written at interpreter exit — ``*.json``
#: exports the Chrome trace, ``*.prom`` / ``*.txt`` the Prometheus text.
TELEMETRY_EXPORT_ENV = knobs.TELEMETRY_EXPORT

_lock = threading.Lock()
_session = None  # type: Optional[object]
_atexit_armed = False


def enabled() -> bool:
    """Is environment-driven telemetry requested?"""
    return knobs.get(TELEMETRY_ENV)


def session_collector():
    """The process-wide collector, or None while not activated."""
    return _session


def activate(label: str = "session", export_path: Optional[str] = None):
    """Install (or return) the process-wide collector.

    Registers a :class:`~repro.telemetry.collector.TelemetryCollector`
    recording into the global metrics registry, arms the span log, and
    arms the atexit report.  Idempotent: repeated calls return the same
    collector.
    """
    global _session, _atexit_armed
    with _lock:
        if _session is not None:
            return _session
        from ..runtime.instrument import register_observer
        from . import spanlog
        from .collector import TelemetryCollector
        from .metrics import registry

        _session = TelemetryCollector(label=label, registry=registry())
        spanlog.arm(window=True)
        register_observer(_session)
        if not _atexit_armed:
            atexit.register(_report_at_exit, export_path)
            _atexit_armed = True
        return _session


def deactivate() -> None:
    """Unregister and drop the session collector (tests)."""
    global _session
    with _lock:
        if _session is None:
            return
        from ..runtime.instrument import unregister_observer
        from . import spanlog

        unregister_observer(_session)
        _session.close()
        spanlog.disarm(window=True)
        _session = None


def maybe_activate_from_env():
    """Called from ``repro/__init__``: activate iff ``REPRO_TELEMETRY``
    is set.  Returns the collector or None."""
    if not enabled():
        return None
    return activate(
        label=f"{TELEMETRY_ENV} session",
        export_path=knobs.get(TELEMETRY_EXPORT_ENV),
    )


def export_to(collector, path: str) -> str:
    """Write ``collector`` to ``path``, format chosen by suffix
    (``.json`` → Chrome trace, anything else → Prometheus text)."""
    if path.endswith(".json"):
        from .export import write_chrome_trace

        return write_chrome_trace(collector, path)
    from .export import to_prometheus

    with open(path, "w") as fh:
        fh.write(to_prometheus(collector.registry))
    return path


def _report_at_exit(export_path: Optional[str]) -> None:  # pragma: no cover
    collector = _session
    if collector is None:
        return
    try:
        print(collector.render(), file=sys.stderr)
        print(knobs.describe(), file=sys.stderr)
        if export_path:
            written = export_to(collector, export_path)
            print(f"telemetry export written to {written}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - an at-exit report must never turn a clean exit into a traceback
        print(f"telemetry report failed: {exc!r}", file=sys.stderr)
