"""Device sharding: spread admitted batches across device lanes.

A **lane** is one (back-end, device) pair wearing a non-blocking
:class:`~repro.queue.queue.QueueNonBlocking` — the same in-order queue
primitive every other part of the library uses.  The router enqueues a
batch's execution closure on the least-loaded compatible lane and
chains the completion bookkeeping with ``Queue.enqueue_callback``, so
result delivery rides the queue's ordering guarantees instead of a
bespoke thread handoff; a ``call_soon`` hook (the gateway's event loop)
moves that completion to another thread, once per batch.  Graphs
submitted through a lane use the graph executor's own ``enqueue_after``
event gating internally — the router treats them as opaque units.  An
``inline`` submission runs the same two closures in the calling thread
instead, when the lane's ``running`` lock is free — the lock that keeps
a lane to one batch at a time; the gateway submits every batch so, and
a lane thread only runs a batch that found its lane busy.

Execution failures resolve the affected requests' futures with the
error and never propagate into the lane's drain thread (a poisoned lane
would wedge every later tenant — see the enqueue_callback robustness
contract in :mod:`repro.queue.queue`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..acc.registry import accelerator
from ..core.errors import ServeError
from ..dev.manager import get_dev_by_idx, get_dev_count
from ..queue.queue import QueueNonBlocking
from ..telemetry import tracing
from .batcher import Batch
from .config import DEFAULT_BACKEND, ServeConfig
from .metrics import record_batch, record_inflight

__all__ = ["DeviceLane", "ShardRouter"]


class DeviceLane:
    """One (back-end, device) execution lane with its own queue."""

    def __init__(self, backend: str, device_idx: int):
        self.backend = backend
        self.device_idx = device_idx
        self.acc_type = accelerator(backend)
        self.device = get_dev_by_idx(self.acc_type, device_idx)
        self.queue = QueueNonBlocking(self.device)
        #: Held while a batch executes, on the queue's thread or inline
        #: on a submitting one: a lane runs one batch at a time.
        self.running = threading.Lock()
        self._lock = threading.Lock()
        self._inflight = 0
        self.launched_batches = 0
        self.launched_requests = 0

    @property
    def label(self) -> str:
        return f"{self.backend}/{self.device_idx}"

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _note_start(self, n: int) -> None:
        with self._lock:
            self._inflight += n
        record_inflight(self.label, n)

    def _note_done(self, n: int) -> None:
        with self._lock:
            self._inflight -= n
            self.launched_batches += 1
            self.launched_requests += n
        record_inflight(self.label, -n)

    def drain(self) -> None:
        self.queue.wait()

    def close(self) -> None:
        self.queue.destroy()

    def __repr__(self) -> str:
        return f"<DeviceLane {self.label} inflight={self.inflight}>"


class ShardRouter:
    """Least-loaded dispatch of batches over the configured lanes."""

    def __init__(
        self,
        config: ServeConfig,
        on_batch_done: Optional[Callable[[Batch], None]] = None,
        call_soon: Optional[Callable[[Callable[[], None]], None]] = None,
    ):
        #: Told about every finished batch before any of its requests is
        #: reported — so whatever a reply causes is ordered after it
        #: (the batcher's company rule needs that).
        self._on_batch_done = on_batch_done
        #: Given the completion of each batch that ran on a lane thread,
        #: to run it elsewhere; by default it runs on the lane thread.
        self._call_soon = call_soon or (lambda complete: complete())
        lanes = config.lanes
        if not lanes:
            acc = accelerator(DEFAULT_BACKEND)
            lanes = tuple(
                (DEFAULT_BACKEND, i) for i in range(get_dev_count(acc))
            )
        self.lanes: List[DeviceLane] = [
            DeviceLane(backend, idx) for backend, idx in lanes
        ]
        if not self.lanes:
            raise ServeError("router needs at least one device lane")
        self._by_backend: Dict[str, List[DeviceLane]] = {}
        for lane in self.lanes:
            self._by_backend.setdefault(lane.backend, []).append(lane)

    # -- placement --------------------------------------------------------

    def _candidates(self, backend: str) -> List[DeviceLane]:
        if not backend:
            return self.lanes
        lanes = self._by_backend.get(backend)
        if not lanes:
            raise ServeError(
                f"no lane serves back-end {backend!r}; configured: "
                f"{sorted(self._by_backend)}"
            )
        return lanes

    def pick_lane(self, backend: str) -> DeviceLane:
        """The least-loaded lane compatible with ``backend`` (empty
        string = any)."""
        lanes = self._candidates(backend)
        return min(lanes, key=lambda lane: lane.inflight)

    # -- dispatch ---------------------------------------------------------

    def submit(
        self,
        batch: Batch,
        on_request_done: Callable,
        inline: bool = False,
    ) -> DeviceLane:
        """Enqueue ``batch`` on a lane; completion (or failure) of each
        member request is reported through ``on_request_done(request,
        result_dict_or_None, error_or_None, lane, batch)``.

        The closure runs in the lane queue's worker (its completion
        there too, or wherever ``call_soon`` sends it); errors are caught
        there and delivered per request, so one failing batch neither
        poisons the lane nor starves sibling tenants.  With ``inline``
        the same closures run in the calling thread instead — when the
        lane's :attr:`~DeviceLane.running` lock is free at once; if it
        is not, the batch is enqueued after all.  ``batch.path`` says
        which way it went.
        """
        lane = self.pick_lane(batch.backend)
        requests = list(batch.requests)
        workload = batch.workload
        lane._note_start(len(requests))

        state: Dict[str, Optional[object]] = {"outputs": None, "error": None}
        # The merged launch executes under the batch leader's trace
        # context (a coalesced batch is one launch; its kernel spans
        # parent to the request that opened the batch).
        trace = getattr(requests[0], "trace", None)

        def _execute() -> None:
            try:
                with tracing.use(trace):
                    state["outputs"] = workload.execute(
                        requests, lane.acc_type, lane.device
                    )
            except BaseException as exc:  # noqa: BLE001 - lane or inline: each request's future gets it below
                state["error"] = exc

        def _run() -> None:
            with lane.running:
                _execute()

        def _complete() -> None:
            outputs, error = state["outputs"], state["error"]
            record_batch(
                len(requests), lane.label, batch.flushed_at - batch.opened_at
            )
            lane._note_done(len(requests))
            if self._on_batch_done is not None:
                self._on_batch_done(batch)
            if error is None and (
                outputs is None or len(outputs) != len(requests)
            ):
                error = ServeError(
                    f"workload {workload.name!r} returned "
                    f"{0 if outputs is None else len(outputs)} results "
                    f"for {len(requests)} requests"
                )
            for i, req in enumerate(requests):
                out = outputs[i] if error is None else None
                on_request_done(req, out, error, lane, batch)

        if inline and lane.running.acquire(blocking=False):
            try:
                _execute()
            finally:
                lane.running.release()
            batch.path = "inline"
            _complete()
            return lane
        lane.queue.enqueue(_run)
        lane.queue.enqueue_callback(lambda: self._call_soon(_complete))
        return lane

    # -- lifecycle --------------------------------------------------------

    def inflight(self) -> int:
        return sum(lane.inflight for lane in self.lanes)

    def drain(self) -> None:
        """Wait until every lane queue has run what reached it (a
        completion handed to ``call_soon`` may still be pending)."""
        for lane in self.lanes:
            lane.drain()

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            lane.label: {
                "inflight": lane.inflight,
                "batches": lane.launched_batches,
                "requests": lane.launched_requests,
            }
            for lane in self.lanes
        }
