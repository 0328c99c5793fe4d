"""Fleet coordination: one measurement per tuning key, fleet-wide.

The coordinator sits between :func:`repro.tuning.autotune` and the
persistent :class:`~repro.tuning.cache.TuningCache` and answers two
questions for a worker about to tune a key:

1. *Did a sibling already tune this?* — :meth:`~FleetCoordinator.fetch`
   re-reads the shared cache file, not just the in-memory copy.
2. *Do I measure, adopt, or give up?* — :meth:`~FleetCoordinator.acquire`
   polls the key's lease and the shared cache until it either holds the
   lease (measure, publish, then close it), finds a usable entry (adopt
   it), or ``wait_timeout`` passes (the caller proceeds with the Table 2
   heuristic and picks the winner up later through the
   tuning-generation bump).

A lease is an exclusive ``flock`` on a sidecar file next to the shared
cache (:func:`lease_path`, through :func:`repro.tuning.cache.flock`),
held by an open file for as long as the measurement runs.  The kernel
releases it when the holder closes the file *or dies*, so there is no
timeout to outlive and no heartbeat; a publish is the cache's
merge-on-write :meth:`~repro.tuning.cache.TuningCache.save`, done
before the lease is closed, so whoever takes the lease next sees the
entry.  Every op runs in a ``fleet.<op>`` span (free when nothing
observes), stamped with the calling worker's trace ids; the flight
recorder keeps each closed one as a ``fleet.<op>`` ring event.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from typing import BinaryIO, Callable, Optional, Tuple

from ...telemetry.spans import span
from .. import cache as tuning_cache
from ..cache import CachedResult, TuningCache
from . import metrics
from .config import FleetConfig, FleetConfigError, fleet_config_from_env

__all__ = [
    "FleetCoordinator",
    "lease_path",
    "maybe_coordinator",
    "reset_coordinator",
]


def lease_path(cache_path: str, key: str) -> str:
    """Sidecar lease-file path for one tuning key."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
    return f"{cache_path}.{digest}.lease"


class FleetCoordinator:
    """Per-key ``flock`` leases plus cache re-reads over one shared cache."""

    #: Label of the fleet metrics (``REPRO_TUNING_FLEET=lock``).
    mode = "lock"

    def __init__(self, cache: TuningCache, config: FleetConfig):
        if tuning_cache.fcntl is None:
            raise FleetConfigError(
                "REPRO_TUNING_FLEET=lock needs flock (fcntl); this host "
                "has none, so the fleet cannot coordinate"
            )
        self.cache = cache
        self.config = config

    def fetch(self, key: str) -> Optional[CachedResult]:
        """Freshest known result for ``key`` (never measures)."""
        with span("fleet.get", cat="fleet", key=key):
            # reload() adopts anything siblings saved since our last look.
            self.cache.reload()
            entry = self.cache.get_key(key)
        metrics.record_op(self.mode, "get", "hit" if entry else "miss")
        return entry

    def _look(
        self, key: str, usable: Callable[[CachedResult], bool]
    ) -> Tuple[Optional[CachedResult], Optional[BinaryIO]]:
        """One poll: try the lease, then read the cache.  A won lease
        is given back when the cache already answers — its previous
        holder published before closing it, so measuring again would
        waste the fleet's time."""
        lease = tuning_cache.flock(lease_path(self.cache.path, key), wait=False)
        with contextlib.ExitStack() as give_back:
            if lease is not None:
                give_back.enter_context(lease)
            self.cache.reload()
            entry = self.cache.get_key(key)
            if entry is not None and usable(entry):
                return entry, None
            give_back.pop_all()  # kept: the caller closes it
        return None, lease

    def acquire(
        self, key: str, usable: Callable[[CachedResult], bool]
    ) -> Tuple[Optional[CachedResult], Optional[BinaryIO]]:
        """Hold ``key``'s lease or adopt a sibling's entry.

        Returns ``(entry, None)`` for a cached entry ``usable`` accepts,
        ``(None, lease)`` when this worker holds the lease — measure,
        :meth:`publish`, then close the lease (a ``with`` block) — and
        ``(None, None)`` when ``wait_timeout`` passed first.  An entry
        ``usable`` rejects (a schedule-less one for a ``tune_schedule``
        caller) counts as no entry: its caller takes the lease and
        measures.
        """
        started = time.monotonic()
        with span("fleet.lease", cat="fleet", key=key):
            entry, lease = self._look(key, usable)
        if entry is None and lease is None:
            deadline = started + self.config.wait_timeout
            with span("fleet.wait", cat="fleet", key=key):
                while (
                    entry is None and lease is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(self.config.poll_interval)
                    entry, lease = self._look(key, usable)
            if entry is None and lease is None:
                outcome = "timeout"
            else:
                outcome = "resolved" if entry is not None else "leased"
                metrics.record_lease_wait(time.monotonic() - started)
            metrics.record_op(self.mode, "wait", outcome)
        metrics.record_op(
            self.mode, "lease", "denied" if lease is None else "granted"
        )
        return entry, lease

    def publish(self, key: str, result: CachedResult) -> None:
        """Make ``result`` visible fleet-wide (call it while holding the
        lease, so the next holder finds the entry)."""
        with span("fleet.put", cat="fleet", key=key):
            self.cache.put_key(key, result)
            self.cache.save()
        metrics.record_op(self.mode, "put", "ok")


_coordinator: Optional[FleetCoordinator] = None
_coordinator_sig = None
_coordinator_lock = threading.Lock()


def maybe_coordinator(
    cache: TuningCache, config: Optional[FleetConfig] = None
) -> Optional[FleetCoordinator]:
    """The process-wide coordinator for ``cache``, or ``None`` when the
    fleet is off (``REPRO_TUNING_FLEET`` unset)."""
    global _coordinator, _coordinator_sig
    cfg = config if config is not None else fleet_config_from_env()
    if cfg.mode == "off":
        return None
    sig = (cfg, cache.path, id(cache))
    with _coordinator_lock:
        if _coordinator is None or _coordinator_sig != sig:
            _coordinator = FleetCoordinator(cache, cfg)
            _coordinator_sig = sig
        return _coordinator


def reset_coordinator() -> None:
    """Drop the process-wide coordinator (tests switching modes or
    cache files mid-process call this)."""
    global _coordinator, _coordinator_sig
    with _coordinator_lock:
        _coordinator = None
        _coordinator_sig = None
