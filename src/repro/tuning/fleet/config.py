"""Fleet-tuning configuration and its ``REPRO_TUNING_FLEET`` knob.

One immutable record configures all three fleet features:

* **sharing** — ``REPRO_TUNING_FLEET`` selects whether worker processes
  coordinate: ``off`` (per-process tuning, the pre-fleet behaviour) or
  ``lock`` (``flock`` leases on sidecar files next to the JSON cache).
* **waiting** — how long a worker that lost the lease race waits for
  the winner before proceeding with the Table 2 heuristic, and how
  often it looks.
* **drift** — the ``drift_*`` fields tuning the online re-tuner: EWMA
  smoothing, drift threshold ratio, sample window, cooldown between
  re-tunes and the measurement budget of a background re-tune.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ... import knobs
from ...core.errors import TuningFleetError

__all__ = [
    "FleetConfig",
    "FleetConfigError",
    "fleet_config_from_env",
    "parse_fleet_mode",
    "FLEET_ENV",
    "HOF_ENV",
    "FLEET_MODES",
]

FLEET_ENV = knobs.TUNING_FLEET
#: Hall-of-fame file of the evolutionary search (see fleet.evolve).
HOF_ENV = knobs.TUNING_HOF

FLEET_MODES = ("off", "lock")


class FleetConfigError(TuningFleetError, ValueError):
    """A fleet configuration value is malformed."""


def parse_fleet_mode(raw: Optional[str]) -> str:
    """Map a ``REPRO_TUNING_FLEET`` value to a mode name.

    Unset / empty / ``0`` / ``off`` → ``off``; ``1`` / ``lock`` /
    ``file`` → ``lock``.
    """
    if raw is None or not raw.strip():
        return "off"
    return knobs.parse(FLEET_ENV, raw, FleetConfigError)


@dataclass(frozen=True)
class FleetConfig:
    """Everything the fleet layer needs to know, in one record."""

    #: Coordination mode: ``off`` / ``lock``.
    mode: str = "off"

    #: Seconds a lease loser waits for the winner's result before
    #: proceeding with the Table 2 heuristic (it adopts the winner later
    #: through the generation bump).
    wait_timeout: float = 60.0
    #: Seconds between looks at the lease and the cache file while
    #: waiting on a sibling.
    poll_interval: float = 0.05

    #: Observed-latency EWMA must exceed ``drift_threshold`` × the tuned
    #: baseline (or the window p95 must exceed it vs. the baseline p95)
    #: to count as drift.
    drift_threshold: float = 1.5
    #: Samples kept per workload window (and needed before the first
    #: drift verdict).
    drift_window: int = 64
    #: EWMA smoothing factor (weight of the newest sample).
    drift_ewma_alpha: float = 0.2
    #: Seconds between background re-tunes of one workload key.
    drift_cooldown: float = 30.0
    #: Measurement budget of one background re-tune.
    drift_budget: int = 8

    def __post_init__(self):
        if self.mode not in FLEET_MODES:
            raise FleetConfigError(
                f"mode must be one of {FLEET_MODES}, got {self.mode!r}"
            )
        for name in ("wait_timeout", "poll_interval"):
            if getattr(self, name) <= 0:
                raise FleetConfigError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.drift_threshold <= 1.0:
            raise FleetConfigError(
                f"drift_threshold must be > 1 (a ratio vs. the baseline), "
                f"got {self.drift_threshold}"
            )
        if self.drift_window < 4:
            raise FleetConfigError(
                f"drift_window must be >= 4, got {self.drift_window}"
            )
        if not 0.0 < self.drift_ewma_alpha <= 1.0:
            raise FleetConfigError(
                f"drift_ewma_alpha must be in (0, 1], got {self.drift_ewma_alpha}"
            )
        if self.drift_cooldown < 0:
            raise FleetConfigError(
                f"drift_cooldown must be >= 0, got {self.drift_cooldown}"
            )
        if self.drift_budget < 1:
            raise FleetConfigError(
                f"drift_budget must be >= 1, got {self.drift_budget}"
            )

    def with_overrides(self, **kwargs) -> "FleetConfig":
        try:
            return replace(self, **kwargs)
        except TypeError as exc:
            raise FleetConfigError(str(exc)) from None


def fleet_config_from_env(base: Optional[FleetConfig] = None) -> FleetConfig:
    """A :class:`FleetConfig` with ``REPRO_TUNING_FLEET``, when set,
    applied on top of ``base``."""
    cfg = base or FleetConfig()
    mode = knobs.get(FLEET_ENV, cfg.mode, FleetConfigError)
    return cfg.with_overrides(mode=mode)
