"""Process-wide metrics: counters, gauges and histograms with labels.

The registry is the numeric half of :mod:`repro.telemetry` (spans are
the temporal half).  Three instrument kinds cover everything the
runtime needs to report:

* :class:`Counter` — monotonically increasing event counts (launches,
  blocks, cache hits);
* :class:`Gauge` — a value that goes up and down (occupancy, pending
  queue depth);
* :class:`Histogram` — a distribution with two complementary views of
  the same observations: **fixed buckets** (cumulative counts at known
  bounds, the Prometheus histogram contract) and a **reservoir** (a
  bounded uniform sample the percentile queries — p50/p95/p99 — read).

Instruments are keyed by ``(name, label set)``; the canonical label
axes are ``kernel`` × ``backend`` × ``device``, matching how the paper
reports its measurements (one number per kernel per back-end per
machine).  Everything is thread-safe: scheduler worker threads record
block latencies concurrently with the host thread recording launches.
"""

from __future__ import annotations

import math
import random
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "registry",
    "reset_registry",
]

#: Default histogram bounds (seconds): 1 µs .. 10 s in decade-and-half
#: steps — wide enough for both a microsecond block and a slow launch.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 10.0,
)

#: Bounded uniform sample size per histogram (reservoir sampling).
RESERVOIR_SIZE = 1024

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> Labels:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the count with one kept elsewhere (a registry
        source, see :meth:`MetricsRegistry.add_source`)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {dict(self.labels)!r}, {self.value})"


class Gauge:
    """A value that can rise and fall; remembers the last set value."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {dict(self.labels)!r}, {self.value})"


class Histogram:
    """Fixed-bucket counts plus a uniform reservoir sample.

    The buckets satisfy the Prometheus exposition contract (cumulative
    counts at each upper bound, ``+Inf`` implicit via ``count``); the
    reservoir answers percentile queries exactly over a bounded uniform
    sample of the observations.  Sampling uses a deterministic
    per-instance PRNG so two identical runs report identical
    percentiles.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
        reservoir_size: int = RESERVOIR_SIZE,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._bucket_counts = [0] * len(self.bounds)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(0x5EED ^ hash(name) & 0xFFFF)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            i = bisect_left(self.bounds, value)
            if i < len(self.bounds) and value <= self.bounds[i]:  # NaN: no bucket
                self._bucket_counts[i] += 1
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                # One C call per observation (``randrange`` is several
                # Python-level ones): observed on every served request.
                j = int(self._rng.random() * self._count)
                if j < self._reservoir_size:
                    self._reservoir[j] = value

    # -- queries --------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100) over the reservoir,
        linearly interpolated; 0.0 before any observation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            sample = sorted(self._reservoir)
        if not sample:
            return 0.0
        if len(sample) == 1:
            return sample[0]
        pos = q / 100.0 * (len(sample) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(sample) - 1)
        frac = pos - lo
        return sample[lo] * (1.0 - frac) + sample[hi] * frac

    def quantiles(self) -> Dict[str, float]:
        """The report's standard trio: ``{"p50": .., "p95": .., "p99": ..}``."""
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out = []
        running = 0
        with self._lock:
            for bound, c in zip(self.bounds, self._bucket_counts):
                running += c
                out.append((bound, running))
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, {dict(self.labels)!r}, "
            f"count={self.count}, mean={self.mean:.3g})"
        )


class MetricsRegistry:
    """Get-or-create instrument store keyed ``(name, labels)``.

    A name is bound to one instrument kind on first use; asking for the
    same name as a different kind raises (a counter silently shadowing
    a histogram of the same name would corrupt the export).

    Counts a hot path keeps for itself are not announced here event by
    event: their owner registers a *source* (:meth:`add_source`) that
    copies them in whenever the registry is read.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Labels], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._sources: List[Callable[["MetricsRegistry"], None]] = []
        #: ``(kind, name, *labels as passed)`` -> instrument: a call site
        #: asking again (every served request does) takes no lock and
        #: sorts no labels.
        self._handles: Dict[tuple, object] = {}

    def add_source(self, fill: Callable[["MetricsRegistry"], None]) -> None:
        """Run ``fill(self)`` before every read of the registry
        (:meth:`instruments`, :meth:`export_snapshot`); it writes counts
        kept elsewhere into instruments (``Counter.set_total``).  Sources
        carry over to the registry :func:`reset_registry` swaps in."""
        self._sources.append(fill)

    def remove_source(self, fill: Callable[["MetricsRegistry"], None]) -> None:
        """Stop running ``fill`` (no-op when it is not a source)."""
        if fill in self._sources:
            self._sources.remove(fill)

    def _pull(self) -> None:
        for fill in self._sources:
            fill(self)

    def _get(self, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        handle = (cls, name, *labels.items())
        inst = self._handles.get(handle)
        if inst is not None:
            return inst
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is not None:
                if inst.kind == cls.kind:
                    self._handles[handle] = inst
                return inst
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}, "
                    f"requested as a {cls.kind}"
                )
            inst = cls(name, key[1], **kwargs)
            self._instruments[key] = self._handles[handle] = inst
            self._kinds[name] = cls.kind
            if help:
                self._help[name] = help
            return inst

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- introspection --------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._kinds)

    def kind_of(self, name: str) -> Optional[str]:
        with self._lock:
            return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        with self._lock:
            return self._help.get(name, "")

    def instruments(self, name: Optional[str] = None) -> List[object]:
        """All instruments, or all label variants of one metric name,
        sorted by label set for deterministic export order.

        Returns a materialized list snapshotted under the registry
        lock *at call time* — a lazy generator here would take its
        snapshot at first ``next()`` and silently interleave with
        concurrent registration."""
        self._pull()
        with self._lock:
            items = sorted(self._instruments.items())
        return [
            inst for (n, _), inst in items if name is None or n == name
        ]

    def export_snapshot(self) -> List[Tuple[str, str, str, List[object]]]:
        """One consistent view for exporters: sorted ``(name, kind,
        help, instruments)`` tuples captured under a single lock
        acquisition, so a scrape racing registration never sees a name
        without its kind (or vice versa)."""
        self._pull()
        with self._lock:
            items = sorted(self._instruments.items())
            kinds = dict(self._kinds)
            helps = dict(self._help)
        by_name: Dict[str, List[object]] = {}
        for (n, _), inst in items:
            by_name.setdefault(n, []).append(inst)
        return [
            (n, kinds.get(n, ""), helps.get(n, ""), by_name[n])
            for n in sorted(by_name)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._handles.clear()
            self._kinds.clear()
            self._help.clear()


_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide registry every collector records into."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh registry (tests); returns the new one."""
    global _registry
    with _registry_lock:
        fresh = MetricsRegistry()
        fresh._sources = list(_registry._sources)
        _registry = fresh
    return _registry
