"""Order statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


P95_SEGMENTS = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def summarize_ops(
    op_seconds: List[float], twin_seconds: List[float],
    attempted: int, failed: int, wall: float,
) -> Dict[str, object]:
    """What every workload reports from its untraced loop.

    ``op_seconds[i]`` and ``twin_seconds[i]`` are a verified-correct op
    and the numpy twin that ran right after it.  The bounded metrics
    are ratios of the two: this host slows by tens of percent for
    minutes at a time and the twin slows with the op, so the ratio of
    each pair holds still where milliseconds do not.  The raw numbers
    are reported beside them, without a bound.  p95 is the highest
    percentile with ten samples beyond it once 200 ops completed.
    """
    ratios = [o / t for o, t in zip(op_seconds, twin_seconds)]
    twin_p50 = median(twin_seconds)
    done = len(op_seconds)
    # The tail of one 200-op sample of a process that flips between two
    # regimes does not repeat (spread 0.28-0.34 over 20 runs on
    # launch_interp); the median of ten consecutive segments' p95 does
    # better there (0.12 on recorded series) at some cost elsewhere.
    # Ten samples lie beyond p95 in the pooled sample only.
    size = max(1, done // P95_SEGMENTS)
    segment_p95 = [
        percentile(ratios[i : i + size], 0.95)
        for i in range(0, size * min(P95_SEGMENTS, done), size)
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "p95_samples_beyond": done - math.ceil(0.95 * done),
        "metrics": {
            "overhead_x": median(ratios),
            "op_p95_x": median(segment_p95),
            "wall_x": wall / done / twin_p50 if done else 0.0,
        },
        "raw": {
            "op.p50_ms": median(op_seconds) * 1e3,
            "op.p95_ms": percentile(op_seconds, 0.95) * 1e3,
            "op.ops_per_s": done / wall if wall > 0 else 0.0,
            "floor.op_p50_us": twin_p50 * 1e6,
        },
    }


def hit_rate(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of hits between two ``plan_cache_info()`` snapshots."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / max(1, hits + misses)


def read_peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` of a process, in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
