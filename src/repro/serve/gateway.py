"""The gateway: admission → batching → device placement, one object.

:class:`Gateway` is the in-process serving engine.  Clients (threads,
the asyncio TCP server, the benchmark's simulated fleet) call
:meth:`submit` and get a :class:`~repro.serve.types.ServeHandle` back;
callbacks on one asyncio **loop** drive the pipeline — the TCP server's
own loop when the server owns the gateway, else one loop thread the
gateway starts::

    submit() ──> FairShareAdmission ──> Batcher ──> ShardRouter.submit
      (offer;        (weighted DRR        (coalesce;   (first lane of the
       RetryAfter     + in-flight cap)     window for   back-end; the batch
       when full)                          keys with    runs on the loop
       │                                   company)     thread)
       └── lone: the same three stages, stepped in the submit call

A *step* releases what admission allows into the batcher and hands
every due batch to the router, which runs it right there and reports
it.  A step runs once per loop iteration after an offer, at the
earliest batch deadline (``call_at``) and after a completion frees an
in-flight slot.  So every batch runs on the loop thread, one at a time,
and the batcher, admission's release side and every handle's
resolution are only ever touched there.  A lone request
(``submit(request, lone=True)`` on the loop thread: its sender has
nothing else unanswered and nothing else waits for the loop) that finds
no queued work and an unheld batch of its own is stepped through in
the submit call itself, so the handle comes back resolved.  Shutdown is
graceful by default: new admissions are rejected, queued and parked
work drains, the gateway's own loop thread (if any) stops, and (on
request) the per-device worker pools are released.
"""

from __future__ import annotations

import asyncio
import atexit
import threading
import time
from typing import Dict, Optional

from ..runtime.instrument import observers
from ..telemetry import flight, spanlog, tracing
from ..telemetry import http as ops_http
from ..telemetry.spans import closed_span
from .admission import FairShareAdmission
from .batcher import Batcher
from .config import ServeConfig, config_from_env
from .metrics import record_completions, record_retry_delay
from .router import ShardRouter
from .types import (
    GatewayClosed,
    GraphRequest,
    LaunchRequest,
    RetryAfter,
    ServeHandle,
    ServeResult,
)
from .workloads import get_workload

__all__ = ["Gateway"]


class Gateway:
    """Async kernel-launch gateway over the repro runtime.

    ``config`` defaults to :func:`config_from_env`; keyword overrides
    win over both (``Gateway(batch_window=0.0)``).  ``loop`` is the
    running asyncio loop to step on, and the gateway must then be built
    on that loop's thread (the TCP server passes its own); without it
    the gateway starts a loop thread of its own.  The gateway is ready
    for :meth:`submit` on return.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *, loop=None, **overrides):
        if config is None:
            config = config_from_env()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.admission = FairShareAdmission(config)
        self.batcher = Batcher(
            config.batch_window, config.batch_max, config.enable_batching
        )
        self._handles: Dict[int, ServeHandle] = {}
        self._handles_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._idle = threading.Condition()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._lone = 0
        #: A step is scheduled on the loop and has not started yet.
        self._step_due = False
        #: Deadline of the earliest batch-deadline step scheduled.
        self._timer_at = float("inf")
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_id = threading.get_ident()
        if loop is None:
            loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=loop.run_forever, name="serve-loop", daemon=True
            )
            self._loop_thread.start()
            self._loop_id = self._loop_thread.ident
        self._loop = loop
        self.router = ShardRouter(config)
        self._atexit = atexit.register(self._atexit_shutdown)
        # Live ops endpoints (REPRO_TELEMETRY_HTTP=host:port): the
        # gateway publishes its readiness; the listener is shared by
        # every gateway of the process.
        ops_http.maybe_start_from_env()
        ops_http.register_health("gateway", self._health)

    def _health(self):
        """Readiness probe for ``/healthz``: up = accepting submissions
        with a loop that is not closed."""
        alive = not self._loop.is_closed()
        return not self.closed and alive, {
            "pending": self.pending(),
            "lanes": len(self.router.lanes),
            "batcher": self.batcher.stats(),
            "loop_alive": alive,
            "draining": self._draining.is_set(),
        }

    # -- submission -------------------------------------------------------

    def submit(self, request, lone: bool = False) -> ServeHandle:
        """Admit ``request`` (a :class:`LaunchRequest` or
        :class:`GraphRequest`); returns its handle.

        Raises :class:`RetryAfter` when the tenant's queue is full and
        :class:`GatewayClosed` after shutdown began — both *before* any
        state is kept, so a rejected request costs nothing.

        ``lone`` says the caller has no other request of its own
        unanswered and nothing else waits for its thread (the TCP
        server passes it per frame); it counts only on the loop thread.
        A lone request that finds no queued work and an unheld batch of
        its own runs to completion in this call, and the handle comes
        back resolved; every other request is left to the next step.
        """
        if self._stopped.is_set() or self._draining.is_set():
            raise GatewayClosed("gateway is shutting down")
        # Validate before admission: malformed payloads must not burn
        # fair-share credit or surface as opaque lane errors.
        get_workload(request.workload).validate(request)
        if request.backend:
            self.router._candidates(request.backend)  # raises if unknown
        # Trace identity: a wire-provided context wins; otherwise adopt
        # the submitting thread's ambient one; otherwise mint a root —
        # but only while something observes (untraced, unobserved
        # submission stays allocation-free).
        if request.trace is None:
            ctx = tracing.current()
            if ctx is None and observers():
                ctx = tracing.new_trace()
            request.trace = ctx
        if flight.active():
            flight.maybe_record(
                "serve_submit",
                request_id=request.request_id,
                workload=request.workload,
                tenant=request.tenant,
                **(request.trace.ids() if request.trace is not None else {}),
            )
        handle = ServeHandle(request)
        with self._handles_lock:
            self._handles[request.request_id] = handle
        try:
            if lone and threading.get_ident() == self._loop_id:
                batch = self._admit_lone(request)
            else:
                batch = None
                self.admission.offer(request)
        except BaseException as exc:  # noqa: BLE001 - a refused offer leaves no handle; re-raised
            with self._handles_lock:
                self._handles.pop(request.request_id, None)
            if isinstance(exc, RetryAfter):
                record_retry_delay(exc.delay)
            raise
        with self._handles_lock:
            self._submitted += 1
            self._lone += batch is not None
        if batch is None:
            self._wake()
        else:
            self.router.submit(batch, self._on_batch_done)
        return handle

    def _admit_lone(self, request):
        """Offer ``request``; when it runs alone, also step it through
        admission and the batcher as a step would, and return its batch
        (else ``None``: the next step has it)."""
        keyed = self.batcher.keyed(request)
        if not self.admission.offer(request, release=self.batcher.runs_alone(keyed[1])):
            return None
        now = time.perf_counter()
        self.batcher.add(request, now, keyed)
        mine = None
        for batch in self.batcher.pop_ready(now):
            if batch.requests[0] is request:
                mine = batch
            else:  # another key's batch came due meanwhile
                self.router.submit(batch, self._on_batch_done)
        return mine

    def launch(
        self,
        workload: str,
        *,
        tenant: str = "default",
        backend: str = "",
        params: Optional[dict] = None,
        arrays: Optional[dict] = None,
    ) -> ServeHandle:
        """Convenience: build and submit a :class:`LaunchRequest`."""
        return self.submit(
            LaunchRequest(
                workload=workload,
                tenant=tenant,
                backend=backend,
                params=params or {},
                arrays=arrays or {},
            )
        )

    def submit_graph(
        self,
        workload: str,
        *,
        tenant: str = "default",
        backend: str = "",
        params: Optional[dict] = None,
        arrays: Optional[dict] = None,
    ) -> ServeHandle:
        """Convenience: build and submit a :class:`GraphRequest` — the
        whole graph is one unit of admission and fair-share accounting."""
        return self.submit(
            GraphRequest(
                workload=workload,
                tenant=tenant,
                backend=backend,
                params=params or {},
                arrays=arrays or {},
            )
        )

    # -- the loop ---------------------------------------------------------

    def _wake(self) -> None:
        """Schedule one step (at most one waits on the loop)."""
        if self._step_due:
            return
        self._step_due = True
        if threading.get_ident() == self._loop_id:
            self._loop.call_soon(self._step)
        else:
            self._loop.call_soon_threadsafe(self._step)

    def _step(self) -> None:
        """Admit, batch and launch what is due; on the loop thread."""
        self._step_due = False
        if self._stopped.is_set():
            return
        self.admission.ready.clear()
        while True:
            req = self.admission.next_ready()
            if req is None:
                break
            self.batcher.add(req, time.perf_counter())
        now = time.perf_counter()
        if self._draining.is_set():
            ready = self.batcher.flush_all(now)
        else:
            ready = self.batcher.pop_ready(now)
        for batch in ready:
            self.router.submit(batch, self._on_batch_done)
        # A superseded timer still fires; its step finds nothing due.
        deadline = self.batcher.next_deadline()
        if deadline is not None and deadline < self._timer_at:
            self._timer_at = deadline
            when = self._loop.time() + deadline - time.perf_counter()
            self._loop.call_at(when, self._on_deadline)

    def _on_deadline(self) -> None:
        self._timer_at = float("inf")
        self._step()

    def _on_batch_done(self, batch, outputs, error, lane) -> None:
        """Batch completion callback, on the loop thread: the batcher
        hears of it before any reply goes out, so a request sent after a
        reply finds its predecessor gone (else a solo closed-loop client
        would look concurrent); then every member is accounted for and
        resolved."""
        self.batcher.note_done(batch)
        now = time.perf_counter()
        requests = batch.requests
        batch_size = len(requests)
        ok = error is None
        self.admission.tasks_finished(
            [(r.tenant, max(0.0, now - r.admitted_at)) for r in requests], ok
        )
        if self.admission.ready.is_set():  # a freed slot releases queued work
            self._wake()
        with self._handles_lock:
            handles = [self._handles.pop(r.request_id, None) for r in requests]
            if ok:
                self._completed += batch_size
            else:
                self._failed += batch_size
        # A request's own span is announced after the fact (the gateway
        # only learns the endpoints here) — free when nothing observes
        # and no ops listener keeps the traced and the failed requests.
        # Spans and metrics are in before any handle resolves.
        observed, listening = observers(), spanlog.listening()
        latencies = [max(0.0, now - r.submitted_at) for r in requests]
        by_tenant: Dict[str, list] = {}
        for request, latency in zip(requests, latencies):
            by_tenant.setdefault(request.tenant, []).append(latency)
            if observed or (listening and (request.trace is not None or not ok)):
                failure = None if ok else f"{type(error).__name__}: {error}"
                # Added to the batcher at admission, so this is add -> flush.
                batch_wait = round(max(0.0, batch.flushed_at - request.admitted_at), 6)
                spanlog.announce(
                    closed_span(
                        "serve.request", now - latency, now, "serve", request.trace,
                        failure, None,
                        {
                            "workload": request.workload,
                            "tenant": request.tenant,
                            "lane": lane.label,
                            "batch_size": batch_size,
                            "batch_wait_s": batch_wait,
                            "held": batch.held,
                            "request_id": request.request_id,
                            "latency_s": round(latency, 6),
                        },
                    )
                )
        for tenant, values in by_tenant.items():
            record_completions(tenant, values, ok)
        for i, handle in enumerate(handles):
            if handle is None:
                continue
            if not ok:
                handle._fail(error)
                continue
            request = requests[i]
            handle._resolve(
                ServeResult(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    workload=request.workload,
                    arrays=outputs[i],
                    latency=latencies[i],
                    batch_size=batch_size,
                    lane=lane.label,
                )
            )
        if self._draining.is_set():
            with self._idle:
                self._idle.notify_all()

    # -- introspection ----------------------------------------------------

    def pending(self) -> int:
        with self._handles_lock:
            return len(self._handles)

    def stats(self) -> dict:
        with self._handles_lock:
            counts = {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "lone": self._lone,
                "pending": len(self._handles),
            }
        return {
            "requests": counts,
            "tenants": self.admission.stats(),
            "batcher": self.batcher.stats(),
            "lanes": self.router.stats(),
            "queued": self.admission.queued(),
            "closed": self.closed,
            "process_cpu_s": time.process_time(),
        }

    @property
    def closed(self) -> bool:
        return self._draining.is_set() or self._stopped.is_set()

    # -- shutdown ---------------------------------------------------------

    def shutdown(
        self,
        drain: bool = True,
        timeout: Optional[float] = None,
        release_pools: bool = True,
    ) -> bool:
        """Stop the gateway.

        ``drain=True``: reject new admissions and let queued and parked
        work finish (bounded by ``timeout``, default
        ``config.drain_timeout``).  ``drain=False`` fails queued work
        immediately and only waits for the batches already parked in
        the batcher.  Returns True when everything completed in time;
        stragglers' handles are failed with :class:`ServeError` either
        way.  Idempotent.
        """
        if self._stopped.is_set():
            return True
        ops_http.unregister_health("gateway")
        if timeout is None:
            timeout = self.config.drain_timeout
        self._draining.set()
        stranded = self.admission.close(drain=drain)
        self._wake()  # a draining step flushes every parked batch
        # Aborted work never reaches a lane: fail it now rather than
        # wait for it to complete.
        with self._handles_lock:
            stranded_handles = [self._handles.pop(r.request_id) for r in stranded]
        for handle in stranded_handles:
            handle._fail(GatewayClosed("gateway aborted before this request ran"))

        drained = not stranded
        deadline = time.perf_counter() + timeout
        with self._idle:
            while self.pending():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    drained = False
                    break
                self._idle.wait(min(0.05, remaining))

        self._stopped.set()
        if self._loop_thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5)
            if not self._loop_thread.is_alive():
                self._loop.close()

        # Anything still unresolved (stragglers on timeout) fails
        # explicitly — a drained gateway leaves no dangling futures.
        with self._handles_lock:
            leftovers = list(self._handles.values())
            self._handles.clear()
        for handle in leftovers:
            handle._fail(
                GatewayClosed(
                    "gateway shut down before this request completed"
                )
            )
        if release_pools:
            from ..dev.manager import shutdown_device_workers

            shutdown_device_workers()
        atexit.unregister(self._atexit_shutdown)
        return drained

    def _atexit_shutdown(self) -> None:
        # Interpreter exit: drain briefly, never hang the process.
        try:
            self.shutdown(drain=True, timeout=5.0)
        except Exception:  # noqa: BLE001 - an exit hook must not raise over interpreter shutdown
            pass

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"<Gateway {state} lanes={len(self.router.lanes)} "
            f"pending={self.pending()}>"
        )
