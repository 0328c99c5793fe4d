"""Request, result and handle types the gateway trades in.

A client submits a :class:`LaunchRequest` (one named-workload kernel
launch) or a :class:`GraphRequest` (a named multi-node dataflow graph —
graphs are a first-class unit of admission: the whole graph is admitted,
scheduled and completed as one request).  Both come back as a
:class:`ServeHandle`, a future the caller can block on synchronously
(``handle.result()``) or await from asyncio code
(``await handle.async_result()``).

Backpressure is an exception, not a queue: when a tenant's admission
queue is full the gateway raises :class:`RetryAfter` *at submit time*
with a suggested delay, instead of buffering unboundedly.  The TCP
protocol maps it to a ``retry_after`` response; the bundled client
retries with backoff.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..core.errors import ServeError

__all__ = [
    "LaunchRequest",
    "GraphRequest",
    "ServeResult",
    "ServeHandle",
    "RetryAfter",
    "GatewayClosed",
    "DEFAULT_TENANT",
]

#: Tenant requests fall under when they do not name one.
DEFAULT_TENANT = "default"

_request_ids = itertools.count(1)
_id_lock = threading.Lock()


def _next_request_id() -> int:
    with _id_lock:
        return next(_request_ids)


class RetryAfter(ServeError):
    """Admission backpressure: the tenant's queue is full.

    ``delay`` is the gateway's estimate (seconds) of when capacity will
    be available — derived from the queue depth and the tenant's recent
    service rate, clamped to a sane range.
    """

    def __init__(self, tenant: str, delay: float, depth: int):
        self.tenant = tenant
        self.delay = float(delay)
        self.depth = int(depth)
        super().__init__(
            f"tenant {tenant!r} admission queue full "
            f"({depth} queued); retry after {self.delay:.3f}s"
        )


class GatewayClosed(ServeError):
    """Submit after shutdown began: new admissions are rejected while
    in-flight work drains."""


@dataclass
class LaunchRequest:
    """One kernel launch, described by workload name + payload.

    ``workload`` names a server-side :class:`~repro.serve.workloads.Workload`
    (``"axpy"``, ``"scale"``, ``"gemm"``, ...); ``params`` are its scalar
    arguments, ``arrays`` its input arrays.  ``backend`` pins a back-end
    (empty string = the gateway default); requests for different
    back-ends never share a batch.

    ``owns_arrays`` says ``arrays`` belong to this request alone (the
    TCP server decodes them from the request's own frame): a workload
    may then compute in them and reply from them.  An in-process
    caller's arrays (the default, False) are never written; an output
    the kernel updates is copied once first.
    """

    workload: str
    tenant: str = DEFAULT_TENANT
    backend: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    owns_arrays: bool = False
    #: Filled at admission: monotonic timestamps for the latency report.
    request_id: int = field(default_factory=_next_request_id)
    submitted_at: float = 0.0
    admitted_at: float = 0.0
    #: Distributed-tracing identity
    #: (:class:`repro.telemetry.tracing.TraceContext`): set by the TCP
    #: server from the wire's ``trace`` field, or captured from the
    #: ambient context at submit; None = untraced.
    trace: Optional[Any] = None

    kind = "launch"

    def __post_init__(self):
        if not self.workload:
            raise ServeError("LaunchRequest needs a workload name")
        self.arrays = {
            k: np.asarray(v) for k, v in self.arrays.items()
        }


@dataclass
class GraphRequest:
    """A whole dataflow graph as one unit of admission.

    ``workload`` names a registered graph builder (``"heat_equation"``);
    the gateway records the graph against the lane's device at execution
    time and submits it through :class:`repro.graph.Graph` — node
    dependencies, copy/compute overlap and replay caching all apply.
    Graphs never join launch batches.
    """

    workload: str
    tenant: str = DEFAULT_TENANT
    backend: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    request_id: int = field(default_factory=_next_request_id)
    submitted_at: float = 0.0
    admitted_at: float = 0.0
    #: See :attr:`LaunchRequest.trace`.
    trace: Optional[Any] = None

    kind = "graph"

    def __post_init__(self):
        if not self.workload:
            raise ServeError("GraphRequest needs a workload name")
        self.arrays = {
            k: np.asarray(v) for k, v in self.arrays.items()
        }


@dataclass(frozen=True)
class ServeResult:
    """What a completed request resolves to."""

    request_id: int
    tenant: str
    workload: str
    #: Output arrays by name (already sliced back to this request's
    #: extent when the launch was batched).
    arrays: Dict[str, np.ndarray]
    #: Wall seconds from submit to completion.
    latency: float
    #: Size of the merged launch this request rode in (1 = unbatched).
    batch_size: int = 1
    #: Lane that executed it, as ``"backend/device_idx"``.
    lane: str = ""


class ServeHandle:
    """Awaitable completion handle for one admitted request.

    Wraps a :class:`concurrent.futures.Future` so the same handle works
    from threads (``result(timeout)``) and from asyncio
    (``await handle.async_result()`` or ``await handle`` directly).
    """

    __slots__ = ("request", "future")

    def __init__(self, request):
        self.request = request
        self.future: Future = Future()

    # -- completion (gateway side) ---------------------------------------

    def _resolve(self, result: ServeResult) -> None:
        if not self.future.done():
            self.future.set_result(result)

    def _fail(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)

    # -- consumption (client side) ---------------------------------------

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()

    async def async_result(self) -> ServeResult:
        """The result, awaited on the running loop: a completion on the
        loop's own thread wakes the waiter directly, one on any other
        thread through ``call_soon_threadsafe``."""
        if not self.future.done():
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            here = threading.get_ident()

            def wake(_):
                if threading.get_ident() != here:
                    loop.call_soon_threadsafe(wake, _)
                elif not waiter.done():  # not cancelled meanwhile
                    waiter.set_result(None)

            self.future.add_done_callback(wake)
            await waiter
        return self.future.result()

    def __await__(self):
        return self.async_result().__await__()

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "pending"
        return (
            f"<ServeHandle #{self.request.request_id} "
            f"{self.request.workload} ({state})>"
        )
