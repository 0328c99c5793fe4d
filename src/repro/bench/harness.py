"""Benchmark harness utilities.

Shared plumbing for the ``benchmarks/`` suite: wall-clock measurement
for the host-measured comparisons, simulated-clock capture for the
modeled comparisons, runtime instrumentation capture (via the real
:mod:`repro.runtime.instrument` hooks, not callable wrapping), and
output capture so each bench writes the table it regenerates next to
printing it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

from .. import knobs
from ..acc.timing import measure
from ..telemetry.spans import sim_interval, span

__all__ = [
    "measure_wall",
    "sim_time_of",
    "launch_stats",
    "write_report",
    "write_bench_json",
    "host_fingerprint",
    "REPORT_DIR_ENV",
]

#: Environment variable overriding where bench reports are written.
REPORT_DIR_ENV = knobs.BENCH_REPORT_DIR


def measure_wall(fn: Callable[[], None], repeat: int = 3, warmup: int = 1) -> float:
    """Best-of-``repeat`` wall time of ``fn`` after ``warmup`` calls.

    Thin alias of the library's shared timing loop
    (:func:`repro.acc.timing.measure`) kept under the bench-facing name;
    the autotuner uses the same loop, so benchmarks and tuning measure
    identically.  The whole warmup+repeat run is one ``bench.measure``
    telemetry span.
    """
    with span("bench.measure", cat="bench"):
        return measure(fn, warmup=warmup, repeat=repeat)


@contextmanager
def sim_time_of(device) -> Iterator[List[float]]:
    """Capture the simulated seconds a block of launches accrues::

        with sim_time_of(dev) as t:
            enqueue(...)
        elapsed = t[0]

    Delegates to :func:`repro.telemetry.spans.sim_interval` — the one
    simulated-clock snapshot shared with the autotuner's measurement
    loop (exact femtosecond interval, immune to clock magnitude).
    """
    with sim_interval(device) as out:
        yield out


@contextmanager
def launch_stats() -> Iterator["CountingObserver"]:
    """Count runtime events (launches, blocks, copies, plan-cache hits)
    over a ``with`` block through the execution-observer hooks::

        with launch_stats() as stats:
            enqueue(queue, task)
        print(stats.plan_cache_hit_rate)
    """
    from ..runtime import CountingObserver, observe

    with observe(CountingObserver()) as obs:
        yield obs


def _report_dir() -> str:
    base = knobs.get(REPORT_DIR_ENV)
    if base is None:
        base = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
            "benchmarks", "out")
    os.makedirs(base, exist_ok=True)
    return base


def write_report(name: str, text: str) -> str:
    """Write a bench's regenerated table under ``benchmarks/out/`` (or
    ``$REPRO_BENCH_REPORT_DIR``) and return the path."""
    path = os.path.join(_report_dir(), name)
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    return path


def host_fingerprint() -> Dict[str, object]:
    """Where a bench number came from: enough machine identity to
    refuse apples-to-oranges comparisons between runs."""
    import platform
    import socket

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def write_bench_json(name: str, metrics: Dict[str, object]) -> str:
    """Write a bench's headline numbers as ``BENCH_<name>.json`` next
    to its text report, and return the path.

    ``metrics`` maps metric name to either a bare value or a
    ``(value, unit)`` pair::

        write_bench_json("launch_overhead", {
            "serial_warm_launch": (4.2e-6, "s"),
            "cache_hit_rate": 0.99,
        })

    The payload is machine-readable history: one record per metric with
    name/value/unit, stamped with the UTC timestamp and a host
    fingerprint so trend tooling can group comparable runs.  CI uploads
    these files as artifacts.
    """
    import datetime

    entries = []
    for metric in sorted(metrics):
        value = metrics[metric]
        unit = ""
        if isinstance(value, tuple):
            value, unit = value
        entries.append({"name": metric, "value": value, "unit": unit})
    payload = {
        "bench": name,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "host": host_fingerprint(),
        "metrics": entries,
    }
    path = os.path.join(_report_dir(), f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
