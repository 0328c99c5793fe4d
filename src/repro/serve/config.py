"""Gateway configuration: :class:`ServeConfig` and its environment knobs.

Every setting is a :class:`ServeConfig` field (and a
``python -m repro.serve`` flag).  The deployment settings — bind
address and tenant weights — are also
environment knobs of :mod:`repro.knobs`, applied by
:func:`config_from_env` in priority order field < environment variable
< keyword override::

    REPRO_SERVE_PORT=7411 REPRO_SERVE_TENANT_WEIGHTS=gold:4,free:1 \
        python -m repro.serve --batch-window 0.002
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .. import knobs
from ..core.errors import ServeError

__all__ = [
    "ServeConfig",
    "ServeConfigError",
    "config_from_env",
    "parse_tenant_weights",
    "parse_lanes",
    "HOST_ENV",
    "PORT_ENV",
    "TENANT_WEIGHTS_ENV",
    "DEFAULT_BACKEND",
]

HOST_ENV = knobs.SERVE_HOST
PORT_ENV = knobs.SERVE_PORT
TENANT_WEIGHTS_ENV = knobs.SERVE_TENANT_WEIGHTS

#: Back-end a request (and the default lane set) falls back to when it
#: does not name one.  Serial keeps the smallest per-launch footprint,
#: which is what a gateway multiplexing many tiny launches wants.
DEFAULT_BACKEND = "AccCpuSerial"


class ServeConfigError(ServeError, ValueError):
    """A gateway configuration value is malformed."""


def parse_tenant_weights(spec: str) -> Dict[str, float]:
    """``"gold:4,free:1"`` → ``{"gold": 4.0, "free": 1.0}``.

    Weights are relative fair-share ratios; unknown tenants default to
    weight 1.0 at admission time, so the map only needs the exceptions.
    """
    return knobs.parse(TENANT_WEIGHTS_ENV, spec, ServeConfigError)


def parse_lanes(spec: str) -> List[Tuple[str, int]]:
    """``"AccCpuSerial:0,AccGpuCudaSim:1"`` → ``[(backend, device_idx)...]``.

    A bare back-end name means device 0.
    """
    lanes: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, idx = part.partition(":")
        if not name:
            raise ServeConfigError(f"lane entry {part!r} has no back-end name")
        if sep and idx:
            try:
                lanes.append((name, int(idx)))
            except ValueError:
                raise ServeConfigError(
                    f"lane device index for {name!r} is not an integer: {idx!r}"
                ) from None
        else:
            lanes.append((name, 0))
    return lanes


@dataclass(frozen=True)
class ServeConfig:
    """Everything the gateway needs to know, in one immutable record."""

    #: TCP bind address of ``python -m repro.serve`` (in-process
    #: gateways ignore it).
    host: str = "127.0.0.1"
    port: int = 7411

    #: Batching coalescer window in seconds — an upper bound, paid only
    #: by keys with observed company: a batch waits this long for
    #: compatible launches to join it when a request of its key met
    #: another one in the gateway (still running unheld on a lane, or in
    #: an open batch it joined in time), now or since the key's previous
    #: batch opened; a lone request launches at the pump step that
    #: admitted it (see :mod:`repro.serve.batcher`).  ``0`` keeps
    #: admission order but still merges whatever is ready at the same
    #: pump step; batching is disabled with ``enable_batching``.
    batch_window: float = 0.002
    #: Hard cap on requests merged into one batched grid.
    batch_max: int = 64
    enable_batching: bool = True

    #: Per-tenant admission queue bound — beyond it the gateway pushes
    #: back with :class:`~repro.serve.types.RetryAfter` instead of
    #: buffering unboundedly.
    queue_bound: int = 256
    #: Per-tenant in-flight cap (requests admitted to a device lane but
    #: not yet completed).  Stops one tenant occupying every lane.
    tenant_inflight: int = 8
    #: Fair-share weights (deficit round-robin quanta) by tenant name;
    #: tenants not listed weigh 1.0.
    tenant_weights: Dict[str, float] = field(default_factory=dict)

    #: Device lanes as ``(backend_name, device_idx)`` pairs.  Empty
    #: means: every device of :data:`DEFAULT_BACKEND`'s platform.
    lanes: Tuple[Tuple[str, int], ...] = ()

    #: Seconds a graceful shutdown waits for in-flight work to drain
    #: before abandoning (and failing) the stragglers.
    drain_timeout: float = 30.0

    def __post_init__(self):
        if self.port < 0 or self.port > 65535:
            raise ServeConfigError(f"port out of range: {self.port}")
        if self.batch_window < 0:
            raise ServeConfigError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.batch_max < 1:
            raise ServeConfigError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.queue_bound < 1:
            raise ServeConfigError(
                f"queue_bound must be >= 1, got {self.queue_bound}"
            )
        if self.tenant_inflight < 1:
            raise ServeConfigError(
                f"tenant_inflight must be >= 1, got {self.tenant_inflight}"
            )
        for name, w in self.tenant_weights.items():
            if w <= 0:
                raise ServeConfigError(
                    f"tenant weight for {name!r} must be positive, got {w}"
                )

    def weight_of(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, 1.0)

    def with_overrides(self, **kwargs) -> "ServeConfig":
        try:
            return replace(self, **kwargs)
        except TypeError as exc:
            raise ServeConfigError(str(exc)) from None


def config_from_env(base: Optional[ServeConfig] = None) -> ServeConfig:
    """A :class:`ServeConfig` with the ``REPRO_SERVE_*`` knobs that are
    set applied on top of ``base`` (default-constructed when omitted)."""
    cfg = base or ServeConfig()

    def env(name, field):
        return knobs.get(name, getattr(cfg, field), ServeConfigError)

    return cfg.with_overrides(
        host=env(HOST_ENV, "host"),
        port=env(PORT_ENV, "port"),
        tenant_weights=env(TENANT_WEIGHTS_ENV, "tenant_weights"),
    )
