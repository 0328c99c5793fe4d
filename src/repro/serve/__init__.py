"""repro.serve: async kernel-launch gateway over the repro runtime.

The serving layer turns the library's synchronous ``launch()`` world
into a multi-tenant service:

* :class:`Gateway` — the in-process engine: weighted fair-share
  admission, batching of compatible small launches (a window of at
  most ``batch_window``, paid only by keys with concurrent requests),
  and sharding across device lanes, with graceful draining shutdown.
* :class:`ServeHandle` — the awaitable per-request handle (sync
  ``result()`` and ``await handle`` both work).
* ``python -m repro.serve`` — a TCP server (binary frames) exposing the
  gateway to remote clients; :class:`ServeClient` is the matching
  asyncio client.
* Workloads are named server-side recipes (:func:`register_workload`)
  so clients ship arrays and parameters, never code.

Quick start::

    from repro.serve import Gateway

    with Gateway(batch_window=0.002) as gw:
        h = gw.launch("axpy", params={"alpha": 2.0},
                      arrays={"x": x, "y": y}, tenant="alice")
        result = h.result()          # or: await h.async_result()
        y_out = result.arrays["y"]
"""

from .admission import FairShareAdmission, TenantState
from .batcher import Batch, Batcher
from .config import (
    DEFAULT_BACKEND,
    ServeConfig,
    ServeConfigError,
    config_from_env,
    parse_lanes,
    parse_tenant_weights,
)
from .gateway import Gateway
from .router import DeviceLane, ShardRouter
from .types import (
    DEFAULT_TENANT,
    GatewayClosed,
    GraphRequest,
    LaunchRequest,
    RetryAfter,
    ServeHandle,
    ServeResult,
)
from .workloads import (
    Workload,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "Gateway",
    "ServeConfig",
    "ServeConfigError",
    "config_from_env",
    "parse_tenant_weights",
    "parse_lanes",
    "DEFAULT_BACKEND",
    "DEFAULT_TENANT",
    "LaunchRequest",
    "GraphRequest",
    "ServeHandle",
    "ServeResult",
    "RetryAfter",
    "GatewayClosed",
    "FairShareAdmission",
    "TenantState",
    "Batch",
    "Batcher",
    "DeviceLane",
    "ShardRouter",
    "Workload",
    "register_workload",
    "get_workload",
    "workload_names",
]


def __getattr__(name):
    # The network layer imports lazily: plain in-process Gateway use
    # must not pull asyncio/server modules in.
    if name == "ServeClient":
        from .client import ServeClient

        return ServeClient
    if name in ("serve_forever", "ServeServer"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
