"""Graph compilation and execution over the queue/event runtime.

Two execution modes, chosen per submission:

* **inline replay** — every node lives on one device, the sanitizer is
  off and ``REPRO_GRAPH_REPLAY`` is not ``0``: nodes run in topological
  order in the calling thread, kernel nodes through
  :func:`repro.runtime.execute_plan` with the grid context and scheduler
  snapshotted in the shared :class:`~repro.runtime.plan.GraphPlan`.  A
  warm resubmission therefore pays one graph-cache hit for the whole
  pipeline instead of one plan lookup + grid construction per node — the
  mechanism behind the bench_graph.py replay bound.
* **queued** — nodes span devices (or the sanitizer is active): one
  non-blocking queue per device, nodes enqueued in topological order,
  cross-queue edges realised as ``Event.record`` on the producer queue
  plus ``enqueue_after`` on the consumer queue.  Kernel tasks go through
  the queues' normal ``task.execute`` path, i.e. through
  :func:`repro.runtime.launch` — the sanitizer detour and all observers
  fire exactly as for hand-written queue code.

Every edge recorded by :class:`~repro.graph.graph.Graph` points at an
earlier node (inference walks history; ``after()`` rejects forward
references), so creation order *is* a topological order and cycles are
impossible by construction.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from .. import knobs
from ..core.errors import GraphError
from ..mem.buf import Buffer
from ..mem.view import ViewSubView
from ..runtime import execute_plan, resolve_scheduler_override, scheduler_for
from ..runtime.instrument import observers
from ..runtime.plan import GraphPlan, get_graph_plan, get_plan
from ..telemetry import tracing
from ..telemetry.spans import record_span
from ..tuning.cache import tuning_generation

#: Bound on first run() — importing repro.sanitize eagerly here would
#: drag the whole sanitizer machinery into every graph import.
_sanitize_state = None

__all__ = ["GraphExec", "GraphRunStats", "REPLAY_ENV"]

#: Set to ``0`` to force the queued path even for single-device graphs
#: (A/B-testing the replay fast path, or debugging with full queue
#: semantics).
REPLAY_ENV = knobs.GRAPH_REPLAY

_graph_ids = itertools.count(1)

#: Shared pre-set event: inline submissions complete synchronously, so
#: finished nodes can all point at one fired event instead of paying an
#: ``Event.set`` (lock + notify) per node per replay.
_DONE = threading.Event()
_DONE.set()


@dataclass
class GraphRunStats:
    """Timing and scheduling accounting for one graph submission."""

    graph_id: int
    mode: str  # "inline" | "queued"
    node_count: int
    device_count: int
    #: Host wall seconds from first dispatch to last completion.
    wall_seconds: float
    #: Sum of individual node wall durations.
    node_seconds: float
    #: Longest dependency-chain duration — the theoretical floor for
    #: ``wall_seconds`` under perfect overlap.
    critical_path_seconds: float
    #: Whether this submission replayed a cached :class:`GraphPlan`.
    replayed: bool
    #: Raw per-node tuples ``(index, label, kind, device_name, start,
    #: duration)``; use :attr:`nodes` for the dict view.
    node_info: Tuple[tuple, ...] = ()

    @property
    def nodes(self) -> Tuple[dict, ...]:
        """Per-node records as dicts (built on demand — the warm replay
        path must not pay for telemetry nobody reads)."""
        return tuple(
            {
                "index": i,
                "label": label,
                "kind": kind,
                "device": device,
                "start": start,
                "duration": duration,
            }
            for i, label, kind, device, start, duration in self.node_info
        )

    @property
    def overlap_ratio(self) -> float:
        """``node_seconds / wall_seconds`` — 1.0 is fully serial, above
        1.0 means copies/compute genuinely overlapped across queues."""
        return self.node_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """How close the run came to its critical-path floor (1.0 =
        wall time equalled the longest chain)."""
        return (
            self.critical_path_seconds / self.wall_seconds
            if self.wall_seconds
            else 0.0
        )


class GraphExec:
    """A compiled graph: resolved edges + the shared :class:`GraphPlan`.

    Built by :meth:`Graph.submit` (and cached on the graph instance);
    one ``GraphExec`` survives any number of ``run()`` calls while the
    graph is unmodified.
    """

    def __init__(self, graph, deps: Tuple[Tuple[int, ...], ...]):
        self.graph = graph
        self.nodes = tuple(graph.nodes)
        self.deps = deps
        self.node_count = len(self.nodes)
        self.graph_id = next(_graph_ids)
        # Every edge points backward (see module docstring), so the
        # recording order is already topological.
        self.order = tuple(range(self.node_count))
        for i, d in enumerate(deps):
            if any(j >= i for j in d):
                raise GraphError(f"forward edge {d} on node #{i}")
        self.plan = None  # GraphPlan, bound at first run
        #: (mode, wall, replayed) of the last finished run, and the
        #: stats built from it — on the first read of ``last_stats``,
        #: unless an observer needed them at once.
        self._last_run: Optional[tuple] = None
        self._last_stats: Optional[GraphRunStats] = None
        self.failed = False
        self.error: Optional[BaseException] = None
        self._fail_lock = threading.Lock()
        self._done = threading.Event()
        self._done.set()
        self._queues: List = []
        self._t0 = 0.0
        seen: Dict[int, object] = {}
        for n in self.nodes:
            seen.setdefault(n.device.uid, n.device)
        self.devices = tuple(seen.values())
        # (tuning generation, scheduler override) -> structure key; the
        # node signatures only change with those, so warm submissions
        # skip rebuilding the key.
        self._key_ctx: Optional[tuple] = None
        self._key: Optional[tuple] = None

    def still_valid(self) -> bool:
        return len(self.graph.nodes) == self.node_count

    # -- structural identity ---------------------------------------------

    @staticmethod
    def _arg_sig(a) -> tuple:
        if isinstance(a, Buffer):
            return ("b", a.buf_id)
        if isinstance(a, ViewSubView):
            return ("v", a.buf_id, a.access_box())
        try:
            hash(a)
        except TypeError:
            return ("u", id(a))
        return ("s", a)

    def _node_sig(self, node) -> tuple:
        t = node.task
        if node.kind == "kernel":
            return (
                "k",
                t.acc_type,
                id(t.kernel),
                t.work_div,
                t.shared_mem_bytes,
                tuple(self._arg_sig(a) for a in t.args),
            )
        if node.kind == "copy":
            return ("c", self._arg_sig(t.dst), self._arg_sig(t.src),
                    tuple(t.extent))
        if node.kind == "memset":
            return ("m", self._arg_sig(t.dst), t.value, tuple(t.extent))
        return ("f", id(t))

    def structure_key(self) -> tuple:
        """The graph-cache key: node signatures + edges + devices, plus
        the same volatile context the per-launch key folds in (tuning
        generation, scheduler override) so a tuning run or an env flip
        misses instead of replaying a stale snapshot.  The node part is
        derived once per frozen graph and again only when that context
        moves; a warm submit pays the context read alone."""
        ctx = (tuning_generation(), resolve_scheduler_override())
        if ctx != self._key_ctx:
            self._key = (
                tuple(self._node_sig(n) for n in self.nodes),
                tuple(n.device.uid for n in self.nodes),
                self.deps,
            ) + ctx
            self._key_ctx = ctx
        return self._key

    def _build_plan(self, key):
        return GraphPlan(
            key=key,
            order=self.order,
            deps=self.deps,
            device_uids=tuple(n.device.uid for n in self.nodes),
        )

    # -- execution --------------------------------------------------------

    def run(self, wait: bool = True) -> "GraphExec":
        global _sanitize_state
        if _sanitize_state is None:  # lazy: sanitize is a heavy import
            from ..sanitize import _state as _sanitize_state

        key = self.structure_key()
        self.plan = get_graph_plan(key, lambda: self._build_plan(key))
        replayed = self.plan.served_from_cache and bool(self.plan.replays)

        self.failed = False
        self.error = None
        inline_ok = (
            len(self.devices) == 1
            and not _sanitize_state.active()
            and knobs.get(REPLAY_ENV)
        )
        if inline_ok:
            self._run_inline(replayed)
        else:
            self._run_queued(wait=wait, replayed=replayed)
        self.plan.replays += 1
        return self

    def _finish(self, mode: str, wall: float, replayed: bool) -> None:
        """Close a run.  Unobserved, that is three stores: the stats
        (durations, critical path, the record itself) are built when
        somebody reads :attr:`last_stats` — the free-when-unobserved
        rule of the launch path."""
        self._last_run = (mode, wall, replayed)
        self._last_stats = None
        observed = bool(observers())
        if observed:
            self._last_stats = self._build_stats(with_node_info=True)
        self._done.set()
        if observed:
            ctx = tracing.current()
            record_span(
                "graph.run", self._t0, self._t0 + wall, cat="graph",
                trace=ctx and ctx.child(), stats=self._last_stats,
            )

    @property
    def last_stats(self) -> Optional[GraphRunStats]:
        """The :class:`GraphRunStats` of the last finished run (``None``
        before the first)."""
        if self._last_stats is None and self._last_run is not None:
            # Nobody was listening when the run finished: totals only,
            # no per-node records.
            self._last_stats = self._build_stats(with_node_info=False)
        return self._last_stats

    def _build_stats(self, with_node_info: bool) -> GraphRunStats:
        mode, wall, replayed = self._last_run
        nodes = self.nodes
        deps = self.deps
        durs = [n.duration or 0.0 for n in nodes]
        cp: List[float] = [0.0] * self.node_count
        for i in self.order:
            d = deps[i]
            cp[i] = durs[i] + (max(cp[j] for j in d) if d else 0.0)
        node_info: Tuple[tuple, ...] = ()
        if with_node_info:
            t0 = self._t0
            node_info = tuple(
                (
                    n.index,
                    n.label,
                    n.kind,
                    n.device.name,
                    (n.started_at - t0) if n.started_at is not None else 0.0,
                    n.duration or 0.0,
                )
                for n in nodes
            )
        return GraphRunStats(
            graph_id=self.graph_id,
            mode=mode,
            node_count=self.node_count,
            device_count=len(self.devices),
            wall_seconds=wall,
            node_seconds=sum(durs),
            critical_path_seconds=max(cp, default=0.0),
            replayed=replayed,
            node_info=node_info,
        )

    # -- inline replay path ----------------------------------------------

    @staticmethod
    def _build_op(node):
        """Resolve ``node`` once and return its zero-argument replay
        callable.  A kernel node's is the runtime's one Execute stage
        bound to the node's plan, its own argument record (grid context,
        modeled seconds, compiled replay) and scheduler, so the warm loop
        pays neither plan lookup nor grid construction nor a kernel
        ``characteristics`` call."""
        if node.kind == "call":
            return node.task
        task, device = node.task, node.device
        if node.kind == "kernel":
            lp = get_plan(task, device)
            return partial(
                execute_plan,
                lp,
                task,
                device,
                lp.grid_for(task),
                scheduler_for(device, lp.schedule),
            )
        return lambda: task.execute(device)  # copy / memset

    def _run_inline(self, replayed: bool) -> None:
        plan = self.plan
        self._done.clear()
        perf = time.perf_counter
        nodes = self.nodes
        ops = plan.node_ops
        self._t0 = perf()
        try:
            for i in self.order:
                node = nodes[i]
                op = ops.get(i)
                if op is None:
                    op = ops[i] = self._build_op(node)
                start = perf()
                node.started_at = start
                op()
                node.duration = perf() - start
                # Synchronous path: point at the shared fired event
                # rather than paying a per-node Event.set each replay.
                node._done_event = _DONE
        except BaseException as e:  # noqa: BLE001 - recorded for waiters, re-raised below
            self.failed = True
            self.error = e
            for n in self.nodes:  # unblock any waiter
                n._done_event = _DONE
            self._finish("inline", perf() - self._t0, replayed)
            raise
        self._finish("inline", perf() - self._t0, replayed)

    # -- queued (multi-device / sanitized) path ---------------------------

    def _run_queued(self, wait: bool, replayed: bool) -> None:
        from ..queue.event import Event
        from ..queue.queue import QueueNonBlocking

        perf = time.perf_counter
        queue_of: Dict[int, QueueNonBlocking] = {}
        for dev in self.devices:
            queue_of[dev.uid] = QueueNonBlocking(dev)
        self._queues = list(queue_of.values())
        for n in self.nodes:
            ev = n._done_event
            if ev is None or ev is _DONE:  # never clear the shared sentinel
                n._done_event = threading.Event()
            else:
                ev.clear()
        self._done.clear()
        self._t0 = perf()

        # Nodes whose completion a *different* queue must observe get an
        # Event recorded right after them on their producer queue.
        cross = set()
        for i in self.order:
            qi = queue_of[self.nodes[i].device.uid]
            for j in self.deps[i]:
                if queue_of[self.nodes[j].device.uid] is not qi:
                    cross.add(j)

        events: Dict[int, Event] = {}
        pending = {"n": len(self._queues)}
        pending_lock = threading.Lock()

        # Distributed tracing: queue worker threads are not the
        # submitting thread, so hand them the submitter's ambient
        # context — node launches then stamp trace ids and the queued
        # run stitches under the request that submitted the graph.
        trace_ctx = tracing.current()

        def _make_runner(node):
            # Errors are harvested at the graph level rather than left
            # to poison the queue: a poisoned queue skips its remaining
            # items, which would leave cross-queue events unfired and
            # sibling queues gated forever.  The first failure stops
            # later nodes from *executing*, but every node still
            # completes (done event set, events fire, queues drain).
            def _run():
                start = perf()
                node.started_at = start
                if trace_ctx is not None:
                    prev_ctx = tracing.set_current(trace_ctx)
                try:
                    if not self.failed:
                        if node.kind == "call":
                            node.task()
                        else:
                            node.task.execute(node.device)
                except BaseException as e:  # noqa: BLE001 - re-raised in wait
                    with self._fail_lock:
                        if self.error is None:
                            self.error = e
                            self.failed = True
                finally:
                    if trace_ctx is not None:
                        tracing.set_current(prev_ctx)
                    node.duration = perf() - start
                    node._done_event.set()

            return _run

        def _queue_done():
            with pending_lock:
                pending["n"] -= 1
                last = pending["n"] == 0
            if last:
                self._finish("queued", perf() - self._t0, replayed)

        for i in self.order:
            node = self.nodes[i]
            q = queue_of[node.device.uid]
            for j in sorted(self.deps[i]):
                if queue_of[self.nodes[j].device.uid] is not q:
                    q.enqueue_after(events[j])
            q.enqueue(_make_runner(node))
            if i in cross:
                ev = Event(node.device)
                ev.record(q)
                events[i] = ev

        for q in self._queues:
            q.enqueue_callback(_queue_done)

        if wait:
            self.wait()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the submission completed; drains and destroys the
        queued path's queues and re-raises the first node error."""
        if not self._done.wait(timeout=timeout):
            return False
        queues, self._queues = self._queues, []
        for q in queues:
            q.destroy()  # drains (everything already completed)
        if self.error is not None:
            raise self.error
        return True

    def __repr__(self) -> str:
        return (
            f"<GraphExec #{self.graph_id} {self.node_count} nodes on "
            f"{len(self.devices)} device(s)>"
        )
