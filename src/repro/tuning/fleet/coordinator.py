"""Fleet coordination: one measurement per tuning key, fleet-wide.

The coordinator sits between :func:`repro.tuning.autotune` and the
persistent :class:`~repro.tuning.cache.TuningCache` and answers three
questions for a worker about to tune a key:

1. *Did a sibling already tune this?* — :meth:`~FleetCoordinator.fetch`
   re-reads the shared cache file, not just the in-memory copy.
2. *May I run the measurement?* — :meth:`~FleetCoordinator.try_lease`
   grants the fleet-wide measurement lease to exactly one worker.
3. *If not, what did the winner find?* —
   :meth:`~FleetCoordinator.wait_for` polls the cache file for up to the
   configured ``wait_timeout``; a worker that times out proceeds with
   the Table 2 heuristic and picks the winner up later through the
   tuning-generation bump.

The fleet needs no infrastructure: a lease is a sidecar file next to
the shared cache (:mod:`.lock`), a publish is the cache's merge-on-write
:meth:`~repro.tuning.cache.TuningCache.save`.  Every op runs in a
``fleet.<op>`` span (free when nothing observes), and the lease, put,
release and wait ops leave a ``fleet_<op>`` event in the flight
recorder's ring — both stamped with the calling worker's trace ids.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ...telemetry import flight
from ...telemetry.spans import span
from ..cache import CachedResult, TuningCache
from . import metrics
from .config import FleetConfig, fleet_config_from_env
from .lock import Lease, LeaseFile

__all__ = ["FleetCoordinator", "maybe_coordinator", "reset_coordinator"]


class FleetCoordinator:
    """Lease sidecar files plus cache re-reads over one shared cache."""

    #: Label of the fleet metrics (``REPRO_TUNING_FLEET=lock``).
    mode = "lock"

    def __init__(self, cache: TuningCache, config: FleetConfig):
        self.cache = cache
        self.config = config
        self._leases = LeaseFile(cache.path, timeout=config.lease_timeout)

    def fetch(self, key: str) -> Optional[CachedResult]:
        """Freshest known result for ``key`` (never measures)."""
        with span("fleet.get", cat="fleet", key=key):
            # reload() adopts anything siblings saved since our last look.
            self.cache.reload()
            entry = self.cache.get_key(key)
        metrics.record_op(self.mode, "get", "hit" if entry else "miss")
        return entry

    def try_lease(self, key: str) -> Optional[Lease]:
        """The lease when this worker wins the measurement race, else
        ``None``."""
        with span("fleet.lease", cat="fleet", key=key):
            flight.maybe_record("fleet_lease", key=key)
            lease = self._leases.try_acquire(key)
            if lease is not None:
                # Post-acquire re-check: the previous holder may have
                # published and released between our fetch and this
                # acquire, in which case measuring again wastes the
                # fleet's time.
                self.cache.reload()
                if self.cache.get_key(key) is not None:
                    self._leases.release(lease)
                    lease = None
        metrics.record_op(self.mode, "lease", "granted" if lease else "denied")
        return lease

    def release(self, key: str, token: Optional[Lease]) -> None:
        """Give up a lease without publishing (the measurement failed)."""
        if token is None:
            return
        with span("fleet.release", cat="fleet", key=key):
            flight.maybe_record("fleet_release", key=key)
            self._leases.release(token)

    def refresh(self, key: str, token: Optional[Lease]) -> None:
        """Heartbeat a held lease so a measurement that outlasts
        ``lease_timeout`` is not broken mid-run."""
        if token is None:
            return
        with span("fleet.renew", cat="fleet", key=key):
            self._leases.touch(token)

    def publish(
        self, key: str, result: CachedResult, token: Optional[Lease] = None
    ) -> None:
        """Make ``result`` visible fleet-wide and release ``token``.  A
        ``None`` token is an uncoordinated put (a schedule-gap
        re-measure): it leaves an active holder's lease alone."""
        with span("fleet.put", cat="fleet", key=key):
            flight.maybe_record("fleet_put", key=key)
            self.cache.put_key(key, result)
            self.cache.save()
        metrics.record_op(self.mode, "put", "ok")
        self.release(key, token)

    def wait_for(
        self, key: str, timeout: Optional[float] = None
    ) -> Optional[CachedResult]:
        """Block until a sibling publishes ``key`` (the entry lands in
        the local cache), its lease is abandoned, or ``timeout``
        elapses (``None`` for the last two)."""
        started = time.monotonic()
        limit = self.config.wait_timeout if timeout is None else timeout
        with span("fleet.wait", cat="fleet", key=key):
            flight.maybe_record("fleet_wait", key=key)
            while True:
                self.cache.reload()
                entry = self.cache.get_key(key)
                if entry is not None:
                    outcome = "resolved"
                    metrics.record_lease_wait(time.monotonic() - started)
                    break
                if not self._leases.holder_alive(key):
                    # The winner died (or released without publishing);
                    # no point waiting out the full timeout.
                    outcome = "abandoned"
                    break
                if time.monotonic() - started >= limit:
                    outcome = "timeout"
                    break
                time.sleep(self.config.poll_interval)
        metrics.record_op(self.mode, "wait", outcome)
        return entry


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
