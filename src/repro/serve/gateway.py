"""The gateway: admission → batching → device sharding, one object.

:class:`Gateway` is the in-process serving engine.  Clients (threads,
the asyncio TCP server, the benchmark's simulated fleet) call
:meth:`submit` and get a :class:`~repro.serve.types.ServeHandle` back;
a single **pump** thread drives the pipeline::

    submit() ──> FairShareAdmission ──> Batcher ──> ShardRouter ──> lanes
      (offer;        (weighted DRR        (coalesce;   (least-loaded
       RetryAfter     + in-flight cap)     window for   QueueNonBlocking)
       when full)                          keys with
       │                                   company)
       └── lone: the same three stages, stepped in the caller ──> lane
           (path "inline")                                    closures

Completion flows back through each lane queue's ``enqueue_callback``
into the request's future; the finished batch itself is queued for the
pump, which tells the batcher (its hold rule counts a key's unheld
requests still on a lane).  The inline path is for a *lone* request
(``submit(request, lone=True)``: its sender has nothing else
unanswered and nothing else waits for the submitting thread) that
finds no queued work, an unheld batch of its own and an idle lane: the
caller steps it through admission and the batcher under the pump's
lock and runs the lane's own closures, so the handle comes back
resolved.  A lane runs one batch at a time either way.  Shutdown is
graceful by default: new admissions are rejected, queued and parked
work drains, lanes close, and (on request) the per-device worker pools
are released.
"""

from __future__ import annotations

import atexit
import threading
import time
from collections import deque
from typing import Dict, Optional

from ..runtime.instrument import observers
from ..telemetry import flight, tracing
from ..telemetry import http as ops_http
from ..telemetry.spans import record_span
from ..telemetry.tracing import trace_store
from .admission import FairShareAdmission
from .batcher import Batcher
from .config import ServeConfig, config_from_env
from .metrics import record_completion, record_retry_delay
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

#: Longest the idle pump sleeps.  The pump is event-driven — offers,
#: completions and shutdown set ``admission.ready``, and an open batch
#: bounds the sleep by its deadline — so this is a safety net, not a
#: term in any request's latency.
PUMP_TICK = 0.001


class Gateway:
    """Async kernel-launch gateway over the repro runtime.

    ``config`` defaults to :func:`config_from_env`; keyword overrides
    win over both (``Gateway(batch_window=0.0)``).  The gateway starts
    its pump immediately and is ready for :meth:`submit` on return.
    """

    def __init__(self, config: Optional[ServeConfig] = None, **overrides):
        if config is None:
            config = config_from_env()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        # Online drift-driven re-tuning (see repro.serve.online): fed
        # from the completion callback, re-tunes off the hot path.
        self.online = None
        if config.online_tuning:
            from .online import OnlineTuner

            self.online = OnlineTuner()
        self.admission = FairShareAdmission(config)
        self.batcher = Batcher(
            config.batch_window, config.batch_max, config.enable_batching
        )
        # Finished batches, appended by lane threads and drained into
        # ``batcher.note_done`` under the pump's lock (the only lock the
        # batcher is touched under).
        self._batches_done: deque = deque()
        self.router = ShardRouter(config, self._batches_done.append)
        #: Held for each pump step, and while a lone request is stepped
        #: through admission and the batcher on its submitting thread.
        self._pump_lock = threading.Lock()
        self._handles: Dict[int, ServeHandle] = {}
        self._handles_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._idle = threading.Condition()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._inline = 0
        self._pump = threading.Thread(
            target=self._pump_loop, name="serve-pump", daemon=True
        )
        self._pump.start()
        self._atexit = atexit.register(self._atexit_shutdown)
        # Live ops endpoints (REPRO_TELEMETRY_HTTP=host:port): the
        # gateway publishes its readiness; the listener is shared by
        # every gateway of the process.
        ops_http.maybe_start_from_env()
        ops_http.register_health("gateway", self._health)

    def _health(self):
        """Readiness probe for ``/healthz``: up = accepting submissions
        with a live pump."""
        ok = not self.closed and self._pump.is_alive()
        return ok, {
            "pending": self.pending(),
            "lanes": len(self.router.lanes),
            "batcher": self.batcher.stats(),
            "pump_alive": self._pump.is_alive(),
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
        server passes it per frame).  A lone
        request that finds no queued work, an unheld batch of its own
        and an idle lane runs to completion in this call, and the
        handle comes back resolved; every other request is left to the
        pump and the lanes.
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
            if lone:
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
        if batch is not None:
            self.router.submit(batch, self._on_request_done, inline=True)
        return handle

    def _admit_lone(self, request):
        """Offer ``request``; when it runs alone on an idle lane, also
        step it through admission and the batcher as the pump would,
        and return its batch (else ``None``: the pump has it)."""
        with self._pump_lock:
            self._note_batches_done()
            alone = self.batcher.runs_alone(request) and (
                self.router.pick_lane(request.backend).inflight == 0
            )
            if not self.admission.offer(request, release=alone):
                return None
            now = time.perf_counter()
            self.batcher.add(request, now)
            mine = None
            for batch in self.batcher.pop_ready(now):
                if batch.requests[0] is request:
                    mine = batch
                else:  # another key's batch came due meanwhile
                    self.router.submit(batch, self._on_request_done)
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

    # -- pump -------------------------------------------------------------

    def _pump_loop(self) -> None:
        while not self._stopped.is_set():
            self.admission.ready.clear()
            with self._pump_lock:
                moved = self._pump_step()
                deadline = self.batcher.next_deadline()
            if self._draining.is_set() and self._quiescent():
                with self._idle:
                    self._idle.notify_all()
            if moved:
                continue
            timeout = PUMP_TICK
            if deadline is not None:
                timeout = max(
                    0.0, min(PUMP_TICK, deadline - time.perf_counter())
                )
            self.admission.ready.wait(timeout)

    def _pump_step(self) -> bool:
        """One pump iteration; True when any request moved a stage."""
        moved = False
        while True:
            req = self.admission.next_ready()
            self._note_batches_done()
            if req is None:
                break
            self.batcher.add(req, time.perf_counter())
            moved = True
        now = time.perf_counter()
        if self._draining.is_set():
            ready = self.batcher.flush_all(now)
        else:
            ready = self.batcher.pop_ready(now)
        for batch in ready:
            self.router.submit(batch, self._on_request_done)
            moved = True
        return moved

    def _note_batches_done(self) -> None:
        # Completions before every add: the lane queues a batch here
        # before it replies, so a request sent after a reply finds its
        # predecessor gone — or a solo closed-loop client would look
        # concurrent.
        done = self._batches_done
        while done:
            self.batcher.note_done(done.popleft())

    def _on_request_done(self, request, outputs, error, lane, batch) -> None:
        """Lane completion callback (runs in the lane queue's worker, or
        in the submitting thread for an inline batch)."""
        now = time.perf_counter()
        latency = max(0.0, now - request.submitted_at)
        service = max(0.0, now - request.admitted_at)
        batch_size, held = batch.size, batch.held
        # Added to the batcher at admission, so this is add -> flush.
        batch_wait = round(max(0.0, batch.flushed_at - request.admitted_at), 6)
        ok = error is None
        self.admission.task_finished(request.tenant, service, ok)
        record_completion(request.tenant, latency, ok)
        trace = request.trace
        # The request's own span, announced after the fact (the gateway
        # only learns the endpoints here) — free when unobserved.
        record_span(
            "serve.request",
            now - latency,
            now,
            cat="serve",
            trace=trace,
            error=type(error).__name__ if error is not None else None,
            workload=request.workload,
            tenant=request.tenant,
            lane=lane.label,
            batch_size=batch_size,
            batch_wait_s=batch_wait,
            held=held,
            path=batch.path,
        )
        if trace is not None or error is not None:
            trace_store().add(
                {
                    "trace_id": trace.trace_id if trace is not None else "",
                    "request_id": request.request_id,
                    "workload": request.workload,
                    "tenant": request.tenant,
                    "lane": lane.label,
                    "batch_size": batch_size,
                    "batch_wait_s": batch_wait,
                    "held": held,
                    "latency_s": round(latency, 6),
                    "error": (
                        f"{type(error).__name__}: {error}"
                        if error is not None
                        else None
                    ),
                    "ts": time.time(),
                }
            )
        if ok and self.online is not None:
            # The kernel's own time, not admitted->done: the hold in the
            # batcher varies per key and is not drift.
            self.online.observe(request, batch.execute_seconds, lane)
        with self._handles_lock:
            handle = self._handles.pop(request.request_id, None)
            if ok:
                self._completed += 1
            else:
                self._failed += 1
            if batch.path == "inline":
                self._inline += 1
        if handle is None:
            return
        if ok:
            handle._resolve(
                ServeResult(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    workload=request.workload,
                    arrays=outputs,
                    latency=latency,
                    batch_size=batch_size,
                    lane=lane.label,
                )
            )
        else:
            handle._fail(error)
        with self._idle:
            self._idle.notify_all()

    # -- introspection ----------------------------------------------------

    def _quiescent(self) -> bool:
        with self._handles_lock:
            return not self._handles

    def pending(self) -> int:
        with self._handles_lock:
            return len(self._handles)

    def stats(self) -> dict:
        with self._handles_lock:
            counts = {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "inline": self._inline,
                "pending": len(self._handles),
            }
        stats = {
            "requests": counts,
            "tenants": self.admission.stats(),
            "batcher": self.batcher.stats(),
            "lanes": self.router.stats(),
            "queued": self.admission.queued(),
            "inflight": self.router.inflight(),
            "closed": self.closed,
        }
        if self.online is not None:
            stats["online_tuning"] = self.online.stats()
        return stats

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

        ``drain=True``: reject new admissions, let queued/parked/running
        work finish (bounded by ``timeout``, default
        ``config.drain_timeout``), then close the lanes.  ``drain=False``
        fails queued work immediately and only waits for what is already
        on a lane.  Returns True when everything completed in time;
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
        self.admission.ready.set()
        # Aborted work never reaches a lane: fail it now rather than
        # wait for it to complete.
        with self._handles_lock:
            stranded_handles = [self._handles.pop(r.request_id) for r in stranded]
        for handle in stranded_handles:
            handle._fail(GatewayClosed("gateway aborted before this request ran"))

        drained = not stranded
        deadline = time.perf_counter() + timeout
        with self._idle:
            while not self._quiescent():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    drained = False
                    break
                self._idle.wait(min(0.05, remaining))

        self._stopped.set()
        self.admission.ready.set()
        self._pump.join(timeout=5)
        if self.online is not None:
            self.online.close()

        # Lanes: wait for whatever already reached a queue, then close.
        self.router.drain(timeout=max(0.0, deadline - time.perf_counter()))
        self.router.close()

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
