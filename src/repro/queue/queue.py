"""Work queues (paper Sec. 3.4.5, "Streams").

A queue is the in-order work list of one device: *"No operation in a
stream will begin before all previously issued operations in the stream
have completed."*  Two flavours exist, as in the paper:

* **blocking** (synchronous): enqueue executes the task in the calling
  thread and returns when it is done;
* **non-blocking** (asynchronous): enqueue hands the task to a worker
  thread and returns immediately; the host resumes computing while the
  device works.

Both preserve in-order semantics.  ``wait(queue)`` blocks the host until
the queue has drained; ``wait(event)`` until an event recorded into a
queue has fired.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional, Protocol, Union

from ..core.errors import KernelError, QueueError
from ..dev.device import Device
from ..telemetry.spans import record_span, span

__all__ = ["Queue", "QueueBlocking", "QueueNonBlocking", "enqueue", "wait"]


class _Task(Protocol):  # pragma: no cover - typing helper
    def execute(self, device: Device) -> None: ...


class Queue:
    """Base in-order queue bound to a device.

    Subclasses implement :meth:`_submit`.  Plain callables of zero
    arguments may be enqueued as well as task objects; they run on the
    queue like tasks (useful for callbacks and tests).
    """

    blocking: bool = True

    def __init__(self, dev: Device):
        self.dev = dev
        self._destroyed = False

    # -- public API -----------------------------------------------------

    def enqueue(self, task: Union[_Task, Callable[[], None]]) -> None:
        if self._destroyed:
            raise QueueError("enqueue on a destroyed queue")
        runnable = self._as_runnable(task)
        self._submit(runnable)

    def enqueue_after(self, event) -> None:
        """Defer all later-enqueued tasks until ``event`` has fired.

        The cross-queue dependency primitive: queue B continues only
        after queue A reaches the event, with no host-side ``wait()``
        barrier.  On a blocking queue this degenerates to blocking the
        host (the caller *is* the worker).
        """
        if self._destroyed:
            raise QueueError("enqueue_after on a destroyed queue")
        self._submit(lambda: event.wait())

    def enqueue_callback(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` on the queue, in stream order, once every
        previously enqueued task has completed.

        The completion-callback hook of the dataflow-graph executor
        (CUDA's ``cudaLaunchHostFunc``): the callback executes in the
        queue's worker context, so it must be short and must not block
        on the same queue.

        Robustness contract: a callback that raises must neither kill
        the drain thread nor poison the queue — later tasks (and later
        callbacks) still run, and the error is re-raised from the next
        :meth:`wait`.  Callbacks also run when the queue *is* poisoned
        by an earlier task failure: completion hooks observe outcomes,
        they do not depend on them, and skipping them would wedge any
        caller awaiting a completion (the serving gateway's device
        lanes rely on this).
        """
        if self._destroyed:
            raise QueueError("enqueue_callback on a destroyed queue")
        if not callable(fn):
            raise QueueError(f"enqueue_callback needs a callable, got {fn!r}")
        self._submit_callback(fn)

    def wait(self) -> None:
        """Block the host until all enqueued work has completed."""

    def destroy(self) -> None:
        """Drain and invalidate the queue (idempotent)."""
        if not self._destroyed:
            self.wait()
            self._destroyed = True

    def __enter__(self) -> "Queue":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()

    # -- helpers ----------------------------------------------------------

    def _as_runnable(self, task) -> Callable[[], None]:
        execute = getattr(task, "execute", None)
        if execute is not None:
            return lambda: execute(self.dev)
        if callable(task):
            return task
        raise QueueError(f"cannot enqueue {task!r}: no execute() and not callable")

    def _submit(self, runnable: Callable[[], None]) -> None:
        raise NotImplementedError

    def _submit_callback(self, fn: Callable[[], None]) -> None:
        # Blocking queues run the callback inline: the caller *is* the
        # worker context, so a raising callback surfaces right here and
        # there is no drain thread to protect.
        self._submit(fn)

    def __repr__(self) -> str:
        kind = "blocking" if self.blocking else "non-blocking"
        return f"<Queue {kind} on {self.dev.name}>"


class QueueBlocking(Queue):
    """Synchronous queue: enqueue = execute now, in the caller's thread."""

    blocking = True

    def enqueue(self, task: Union[_Task, Callable[[], None]]) -> None:
        # The caller is the worker: a task runs here, with no runnable
        # wrapped around it.
        execute = getattr(task, "execute", None)
        if execute is None or self._destroyed:
            super().enqueue(task)
            return
        execute(self.dev)
        # A blocking queue drains at every task.
        record_span("queue.drain", cat="queue", device=self.dev)

    def _submit(self, runnable: Callable[[], None]) -> None:
        runnable()
        record_span("queue.drain", cat="queue", device=self.dev)

    def wait(self) -> None:
        # Everything already ran at enqueue time.
        return


class _WaitGate:
    """An in-queue dependency marker: later tasks run only once the
    gated event's record (at gate creation time) has fired.

    The queue worker does not block an OS thread on the event — it goes
    back to sleeping on the queue's condition variable and is woken by
    the event's fire callback, so deep multi-queue pipelines cost no
    parked threads.
    """

    __slots__ = ("event", "target")

    def __init__(self, event):
        self.event = event
        # A never-recorded event is complete by definition (CUDA
        # semantics); otherwise wait for the record current at gate
        # creation, not any later re-record.
        self.target = event.record_count

    def is_open(self) -> bool:
        return self.event.fired_count >= self.target

    def arm(self, notify: Callable[[], None]) -> None:
        # Registration is deduplicated by the event; fire callbacks are
        # one-shot, so re-arming on every worker wakeup is cheap.
        self.event.add_fire_callback(notify)


class _Callback:
    """Marks an enqueued completion callback: runs even on a poisoned
    queue, and its own failure never poisons the queue (captured and
    re-raised from ``wait()`` instead)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn


class QueueNonBlocking(Queue):
    """Asynchronous queue: a worker thread drains tasks in order.

    The first enqueued task that raises poisons the queue: the exception
    is re-raised (chained) from the next :meth:`wait` or
    :meth:`enqueue`, mirroring how CUDA reports asynchronous errors on
    the next API call.  Completion callbacks are exempt from both sides
    of that rule — see :meth:`Queue.enqueue_callback`.
    """

    blocking = False

    def __init__(self, dev: Device):
        super().__init__(dev)
        self._tasks: deque = deque()
        self._cv = threading.Condition()
        self._pending = 0
        self._error: Optional[BaseException] = None
        self._callback_errors: list = []
        self._shutdown = False
        self._worker = threading.Thread(
            target=self._run, name=f"queue-{dev.uid}", daemon=True
        )
        self._worker.start()

    def _next_runnable(self) -> Optional[Callable[[], None]]:
        """Worker-side: the next task to run, or None on shutdown.

        Blocks (on the condition variable) while the queue is empty or
        the head is a closed :class:`_WaitGate`.
        """
        with self._cv:
            while True:
                if self._tasks:
                    head = self._tasks[0]
                    if isinstance(head, _WaitGate):
                        if head.is_open():
                            self._tasks.popleft()
                            self._pending -= 1
                            if self._pending == 0:
                                self._cv.notify_all()
                            continue
                        head.arm(self._notify_worker)
                        # Re-check: the fire may have raced the arm —
                        # callbacks registered after a fire never run.
                        if head.is_open():
                            continue
                        self._cv.wait()
                        continue
                    return self._tasks.popleft()
                if self._shutdown:
                    return None
                self._cv.wait()

    def _notify_worker(self) -> None:
        with self._cv:
            self._cv.notify_all()

    def _run(self) -> None:
        while True:
            runnable = self._next_runnable()
            if runnable is None:
                return
            if isinstance(runnable, _Callback):
                # Callbacks run regardless of poison state, and their
                # failures are quarantined from it: captured here,
                # re-raised from wait(), never blocking the drain.
                try:
                    runnable.fn()
                except BaseException as exc:  # noqa: BLE001 - a user callback; quarantined and re-raised from wait()
                    with self._cv:
                        self._callback_errors.append(exc)
                with self._cv:
                    self._pending -= 1
                    drained = self._pending == 0
                    self._cv.notify_all()
                if drained:
                    record_span("queue.drain", cat="queue", device=self.dev)
                continue
            try:
                # Poison check under the lock: without it a task could
                # observe a stale None and start after a sibling already
                # failed, breaking the in-order error contract.
                with self._cv:
                    poisoned = self._error is not None
                if not poisoned:
                    runnable()
            except BaseException as exc:  # noqa: BLE001 - task code; poisons the queue and is re-raised from wait()
                with self._cv:
                    self._error = exc
                # Flight recorder: a poisoned queue is exactly the
                # failure whose prior-seconds context matters.  One
                # boolean read when off; never raises on this thread.
                from ..telemetry import flight

                if flight.active():
                    flight.on_queue_poisoned(self, exc)
            finally:
                with self._cv:
                    self._pending -= 1
                    drained = self._pending == 0
                    self._cv.notify_all()
                if drained:
                    record_span("queue.drain", cat="queue", device=self.dev)

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            err, self._error = self._error, None
            raise KernelError(
                "an asynchronously enqueued task failed"
            ) from err

    def _raise_callback_errors(self) -> None:
        if self._callback_errors:
            errors, self._callback_errors = self._callback_errors, []
            raise QueueError(
                f"{len(errors)} enqueued callback(s) raised; first error "
                "chained below"
            ) from errors[0]

    def _submit(self, runnable: Callable[[], None]) -> None:
        with self._cv:
            self._raise_pending_error()
            self._pending += 1
            self._tasks.append(runnable)
            self._cv.notify_all()

    def _submit_callback(self, fn: Callable[[], None]) -> None:
        # No poison check: a completion callback must reach the worker
        # even after an earlier task failed, or its awaiter hangs.
        with self._cv:
            self._pending += 1
            self._tasks.append(_Callback(fn))
            self._cv.notify_all()

    def enqueue_after(self, event) -> None:
        """Non-blocking cross-queue dependency: tasks enqueued after
        this call wait for ``event`` without occupying the worker in a
        host-side ``wait()``."""
        if self._destroyed:
            raise QueueError("enqueue_after on a destroyed queue")
        self._submit_gate(_WaitGate(event))

    def _submit_gate(self, gate: _WaitGate) -> None:
        with self._cv:
            self._raise_pending_error()
            self._pending += 1
            self._tasks.append(gate)
            self._cv.notify_all()

    def wait(self) -> None:
        # The span captures host blocking time on device work — the
        # quantity a pipeline architect wants per queue.
        with span("queue.wait", cat="queue", device=self.dev):
            with self._cv:
                while self._pending > 0:
                    self._cv.wait()
                self._raise_pending_error()
                self._raise_callback_errors()

    def destroy(self) -> None:
        if self._destroyed:
            return
        try:
            self.wait()
        finally:
            with self._cv:
                self._shutdown = True
                self._cv.notify_all()
            self._worker.join(timeout=5)
            self._destroyed = True


def enqueue(queue: Queue, task) -> None:
    """Free-function spelling of paper Listing 5's
    ``stream::enqueue(stream, exec)``."""
    queue.enqueue(task)


def wait(waitable) -> None:
    """Block the host on a queue or an event (``alpaka::wait::wait``)."""
    waitable.wait()
