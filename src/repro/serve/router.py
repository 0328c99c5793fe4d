"""Device placement: which lane an admitted batch runs on, and running it.

A **lane** is a placement record — one (back-end, device) pair with
its accelerator type, its device and two counters.  It owns no queue
and no thread: :meth:`ShardRouter.submit` runs a batch in the calling
thread (the gateway's loop thread), then reports it once, with every
member's outputs.  So lanes never run at the same time, and a batch
picks the first lane of its back-end: a second lane of one back-end
gets no work.

An execution error resolves the batch's requests with the error and
never propagates into the caller: one failing batch fails only its own
members, and the lane stays usable.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..acc.registry import accelerator
from ..core.errors import ServeError
from ..dev.manager import get_dev_by_idx, get_dev_count
from ..telemetry import tracing
from .batcher import Batch
from .config import DEFAULT_BACKEND, ServeConfig
from .metrics import record_batch

__all__ = ["DeviceLane", "ShardRouter"]


class DeviceLane:
    """One (back-end, device) placement, with the batches and requests
    it has run."""

    def __init__(self, backend: str, device_idx: int):
        self.backend = backend
        self.device_idx = device_idx
        self.acc_type = accelerator(backend)
        self.device = get_dev_by_idx(self.acc_type, device_idx)
        self.batches = 0
        self.requests = 0
        self.label = f"{backend}/{device_idx}"

    def __repr__(self) -> str:
        return f"<DeviceLane {self.label} batches={self.batches}>"


class ShardRouter:
    """Placement of batches on the configured lanes, and their runs."""

    def __init__(self, config: ServeConfig):
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
        """The first lane of ``backend`` (empty string = any back-end)."""
        return self._candidates(backend)[0]

    # -- dispatch ---------------------------------------------------------

    def submit(self, batch: Batch, on_done: Callable) -> DeviceLane:
        """Run ``batch`` on its lane in the calling thread, then report
        it once: ``on_done(batch, outputs, error, lane)``, ``outputs``
        one result dict per member request (``None`` with an error).

        An error is caught and reported for the batch, so one failing
        batch fails only its own requests.
        """
        lane = self.pick_lane(batch.backend)
        requests = batch.requests
        workload = batch.workload
        outputs = error = None
        try:
            # The merged launch executes under the batch leader's trace
            # context (a coalesced batch is one launch; its kernel spans
            # parent to the request that opened the batch).
            with tracing.use(getattr(requests[0], "trace", None)):
                outputs = workload.execute(requests, lane.acc_type, lane.device)
        except Exception as exc:  # noqa: BLE001 - the batch's requests fail with it below
            error = exc
        record_batch(len(requests), lane.label, batch.flushed_at - batch.opened_at)
        lane.batches += 1
        lane.requests += len(requests)
        if error is None and (outputs is None or len(outputs) != len(requests)):
            error = ServeError(
                f"workload {workload.name!r} returned "
                f"{0 if outputs is None else len(outputs)} results "
                f"for {len(requests)} requests"
            )
        on_done(batch, None if error is not None else outputs, error, lane)
        return lane

    # -- lifecycle --------------------------------------------------------

    def drain(self) -> None:
        """Nothing to wait for: every batch finished inside its submit."""

    def close(self) -> None:
        """Nothing to release: a lane holds no thread or queue."""

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            lane.label: {"batches": lane.batches, "requests": lane.requests}
            for lane in self.lanes
        }
