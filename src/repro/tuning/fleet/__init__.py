"""repro.tuning.fleet — tune once per fleet, adapt while serving.

PR 2's :func:`repro.tuning.autotune` pays the measurement cost in every
process; this package scales it to a fleet of workers and to live
traffic, in three pieces:

* **Shared convergence** — :func:`~.coordinator.maybe_coordinator`
  turns the per-process :class:`~repro.tuning.cache.TuningCache` into a
  fleet-wide one.  ``REPRO_TUNING_FLEET=lock`` coordinates through
  ``flock`` leases on sidecar files and merge-on-write cache saves (zero
  infrastructure): N workers sharing one cache file and tuning the same
  (kernel, back-end, device, extent-bucket) run **one** measurement:
  the lease holder measures and publishes, the others briefly wait or
  proceed with the Table 2 heuristic and adopt the winner through the
  tuning-generation bump.  A holder that dies frees its lease at once.
* **Evolutionary search** — ``autotune(strategy="evolve")``
  (:mod:`~.evolve`): population search over the joint division space,
  seeded from Table 2 + the performance model, with a persisted
  per-generation hall of fame (``python -m repro.tuning.fleet hof``).
* **Online re-tuning** — :class:`~.drift.DriftMonitor`: EWMA +
  percentile drift tests on gateway latencies, budgeted background
  re-tunes, hot-swap through the plan cache's generation key.  The
  serving side lives in :mod:`repro.serve.online`.
"""

from __future__ import annotations

from .config import (
    FLEET_ENV,
    FLEET_MODES,
    HOF_ENV,
    FleetConfig,
    FleetConfigError,
    fleet_config_from_env,
)
from .coordinator import (
    FleetCoordinator,
    lease_path,
    maybe_coordinator,
    reset_coordinator,
)
from .drift import DriftMonitor, WorkloadStats
from .evolve import (
    DEFAULT_HOF_FILENAME,
    default_hof_path,
    evolve_search,
    load_hall_of_fame,
)

__all__ = [
    # config
    "FleetConfig",
    "FleetConfigError",
    "fleet_config_from_env",
    "FLEET_ENV",
    "HOF_ENV",
    "FLEET_MODES",
    # coordination
    "FleetCoordinator",
    "maybe_coordinator",
    "reset_coordinator",
    "lease_path",
    # evolutionary search
    "evolve_search",
    "default_hof_path",
    "load_hall_of_fame",
    "DEFAULT_HOF_FILENAME",
    # online tuning
    "DriftMonitor",
    "WorkloadStats",
]
