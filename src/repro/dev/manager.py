"""Device manager: ``DevMan<Acc>::getDevByIdx`` (paper Listing 5).

Ties accelerator types to their platforms so host code can select a
device knowing only the accelerator type — the one line that changes
when retargeting an application.
"""

from __future__ import annotations

from typing import Type

from ..core.errors import DeviceError
from .device import Device
from .platform import Platform

__all__ = [
    "get_dev_by_idx",
    "get_dev_count",
    "platform_of",
    "device_workers",
    "shutdown_device_workers",
]


def platform_of(acc_type) -> Platform:
    """The platform an accelerator type executes on.

    Accelerator types expose a ``platform()`` classmethod; this wrapper
    exists so host code (and tests) do not depend on that classmethod
    directly.
    """
    plat = getattr(acc_type, "platform", None)
    if plat is None:
        raise DeviceError(f"{acc_type!r} is not an accelerator type")
    return plat()


def get_dev_by_idx(acc_type, idx: int = 0) -> Device:
    """Select the ``idx``-th device the accelerator can run on."""
    return platform_of(acc_type).get_dev_by_idx(idx)


def get_dev_count(acc_type) -> int:
    return platform_of(acc_type).device_count


# ---------------------------------------------------------------------------
# Block-worker lifecycle
# ---------------------------------------------------------------------------
#
# Worker pools belong to devices — one pool per device — but live in
# the runtime layer.  These wrappers give host code a device-centric
# view of that lifecycle without importing runtime internals.


def device_workers() -> dict:
    """Live block-worker pools: ``{(device_uid, schedule): workers}``.

    Reflects pools already created by launches; a device that has only
    run sequentially (or not at all) has no entry.
    """
    from ..runtime.scheduler import _schedulers

    return {key: sched.worker_count for key, sched in _schedulers.items()}


def shutdown_device_workers() -> None:
    """Tear down every device's block-worker pool.  Safe to call at any
    time — the next launch lazily recreates what it needs — and implied
    at interpreter exit."""
    from ..runtime.scheduler import shutdown_schedulers

    shutdown_schedulers()
