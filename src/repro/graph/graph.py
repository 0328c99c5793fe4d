"""Record-then-submit dataflow graphs over the existing queue runtime.

A :class:`Graph` collects kernel launches, copies, memsets and host
callbacks as inert :class:`~repro.graph.node.Node` handles::

    g = Graph()
    a = g.launch(Acc, wd, sweep, h, w, c, src, dst)
    h = g.copy(halo_dst, halo_src)           # depends on `a` automatically
    g.submit()                               # schedule, run, wait

Dependencies come from three sources, merged per node:

* **inferred** — buffer arguments produce reader-after-writer and
  writer-after-any edges (:mod:`repro.graph.infer`);
* **explicit** — ``node_b.after(node_a)``;
* **program order fallback** — none: independent nodes genuinely run
  concurrently, that is the point.

``submit()`` compiles the node list into a
:class:`~repro.graph.executor.GraphExec` (cached on the graph instance
and, via :func:`repro.runtime.plan.get_graph_plan`, across structurally
identical graphs) and executes it; a warm resubmission replays every
node's cached :class:`~repro.runtime.plan.LaunchPlan` and grid context
without touching the per-launch plan cache at all.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import GraphError
from ..core.kernel import create_task_kernel, kernel_name
from ..core.vec import as_vec
from ..mem.copy import TaskCopy, TaskMemset
from ..mem.copy import _validate as _validate_copy
from ..mem.buf import Buffer
from ..mem.view import ViewSubView
from .infer import Access, access_of, classify_args, infer_edges
from .node import Node

__all__ = ["Graph"]


def _endpoint_device(ep):
    return ep.dev if isinstance(ep, (Buffer, ViewSubView)) else None


class Graph:
    """A recorded DAG of device work, submit-many capable.

    ``default_device`` seats nodes that reference no device memory (a
    host callback, a kernel over host numpy arrays); nodes touching
    buffers always run where their buffers live.
    """

    def __init__(self, default_device=None):
        self.default_device = default_device
        self.nodes: List[Node] = []
        self._exec = None  # cached GraphExec, built lazily at submit
        self._lock = threading.Lock()
        self._submitting = False

    # -- recording --------------------------------------------------------

    def launch(
        self,
        acc_type,
        work_div,
        kernel,
        *args,
        device=None,
        shared_mem_bytes: int = 0,
        reads: Optional[Sequence] = None,
        writes: Optional[Sequence] = None,
        label: Optional[str] = None,
    ) -> Node:
        """Record a kernel launch; returns its future-like :class:`Node`.

        Mirrors ``create_task_kernel(acc_type, work_div, kernel, *args)``
        — the task is built here, validated at first submit.  Buffer
        arguments default to read-write; narrow with ``reads=`` /
        ``writes=`` to unlock more overlap (see
        :func:`repro.graph.infer.classify_args`).
        """
        task = create_task_kernel(
            acc_type, work_div, kernel, *args,
            shared_mem_bytes=shared_mem_bytes,
        )
        dev = device
        for a in args:
            d = _endpoint_device(a)
            if d is None:
                continue
            if dev is None:
                dev = d
            elif dev is not d:
                raise GraphError(
                    f"kernel {label or kernel!r} mixes buffers of "
                    f"{dev!r} and {d!r}; one launch runs on one device — "
                    "stage data with g.copy() first"
                )
        r, w = classify_args(args, reads=reads, writes=writes)
        name = label or kernel_name(kernel)
        return self._record("kernel", task, dev, name, r, w)

    def copy(self, dst, src, extent=None, label: Optional[str] = None) -> Node:
        """Record a deep copy (``mem.copy`` semantics, no queue arg).

        Depends on earlier writers of ``src`` and earlier touchers of
        ``dst``; runs on the device-side endpoint's device (``dst`` when
        both are device memory).
        """
        ext = _validate_copy(
            dst, src, as_vec(extent) if extent is not None else None
        )
        task = TaskCopy(dst=dst, src=src, extent=ext)
        dev = _endpoint_device(dst) or _endpoint_device(src)
        reads = tuple(a for a in (access_of(src),) if a is not None)
        writes = tuple(a for a in (access_of(dst),) if a is not None)
        return self._record("copy", task, dev, label or "copy", reads, writes)

    def memset(self, dst, value, extent=None, label: Optional[str] = None) -> Node:
        """Record a scalar fill of ``dst`` (``mem.memset`` semantics)."""
        ext = as_vec(extent, dst.dim) if extent is not None else dst.extent
        dst.check_extent_fits(ext, "memset")
        task = TaskMemset(dst=dst, value=value, extent=ext)
        return self._record(
            "memset", task, _endpoint_device(dst), label or "memset",
            (), (access_of(dst),),
        )

    def call(
        self,
        fn,
        *,
        device=None,
        reads: Sequence = (),
        writes: Sequence = (),
        label: Optional[str] = None,
    ) -> Node:
        """Record a zero-argument host callback as a graph node.

        The graph cannot see what ``fn`` touches, so declare it: pass
        the buffers/arrays it reads and writes, or chain with
        ``.after()``.  Runs in the owning queue's context (keep it
        short, CUDA host-func rules apply).
        """
        if not callable(fn):
            raise GraphError(f"call() needs a callable, got {fn!r}")
        r = tuple(a if isinstance(a, Access) else access_of(a) for a in reads)
        w = tuple(a if isinstance(a, Access) else access_of(a) for a in writes)
        if any(a is None for a in r + w):
            raise GraphError("call() reads/writes entries must be memory endpoints")
        dev = device
        for ep in tuple(reads) + tuple(writes):
            d = _endpoint_device(ep)
            if dev is None and d is not None:
                dev = d
        name = label or getattr(fn, "__name__", "call")
        return self._record("call", fn, dev, name, r, w)

    def _record(self, kind, task, dev, label, reads, writes) -> Node:
        with self._lock:
            if self._submitting:
                raise GraphError(
                    "graph mutated mid-submit; record nodes before submit()"
                )
            dev = dev or self.default_device
            if dev is None:
                raise GraphError(
                    f"cannot place node {label!r}: no buffer argument "
                    "carries a device and the graph has no default_device"
                )
            node = Node(
                self, len(self.nodes), kind, task, dev, label,
                tuple(reads), tuple(writes),
            )
            self.nodes.append(node)
            self._exec = None
            return node

    def _invalidate(self) -> None:
        self._exec = None

    # -- inspection -------------------------------------------------------

    def dependencies(self) -> Dict[int, Tuple[int, ...]]:
        """``{node_index: (dep_indices...)}`` as the executor will see it
        — inferred buffer edges merged with explicit ``after()`` edges.
        Builds (or reuses) the compiled executor without running it.
        """
        return {n.index: tuple(n.deps) for n in self._compile().nodes}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # -- submission -------------------------------------------------------

    def _compile(self):
        from .executor import GraphExec

        exec_ = self._exec
        if exec_ is not None and exec_.still_valid():
            return exec_
        deps = infer_edges([(n.reads, n.writes) for n in self.nodes])
        for n in self.nodes:
            deps[n.index].update(n.explicit_deps)
        self._exec = GraphExec(self, tuple(
            tuple(sorted(d)) for d in deps
        ))
        return self._exec

    def submit(self, devices=None, wait: bool = True):
        """Schedule and run the whole graph; returns the
        :class:`~repro.graph.executor.GraphExec` (also exposed as
        ``g.last_exec`` via the instance cache).

        ``devices`` optionally pins the allowed device set: submission
        fails fast if a node resolved to a device outside it (catching
        e.g. a buffer allocated on the wrong die).  ``wait=False``
        returns after enqueuing; use ``g.wait()`` or ``node.wait()``.
        Only the queued (multi-device-capable) path supports
        ``wait=False`` — single-device graphs replay inline and are
        complete on return either way.
        """
        if not self.nodes:
            raise GraphError("submit() on an empty graph")
        exec_ = self._compile()
        if devices is not None:
            allowed = {id(d) for d in devices}
            for n in self.nodes:
                if id(n.device) not in allowed:
                    raise GraphError(
                        f"node #{n.index} {n.label!r} resolved to "
                        f"{n.device!r}, outside submit(devices=...)"
                    )
        with self._lock:
            if self._submitting:
                raise GraphError("graph is already mid-submit")
            self._submitting = True
        try:
            exec_.run(wait=wait)
        except BaseException:  # noqa: BLE001 - unlocks the graph, re-raised
            with self._lock:
                self._submitting = False
            raise
        if wait:
            with self._lock:
                self._submitting = False
        return exec_

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the last ``submit(wait=False)`` finished."""
        exec_ = self._exec
        if exec_ is None:
            raise GraphError("wait() before any submit()")
        try:
            done = exec_.wait(timeout=timeout)
        finally:
            if exec_._done.is_set():
                with self._lock:
                    self._submitting = False
        return done

    @property
    def last_stats(self):
        """The :class:`~repro.graph.executor.GraphRunStats` of the last
        completed submission (None before the first)."""
        exec_ = self._exec
        return exec_.last_stats if exec_ is not None else None

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<Graph {len(self.nodes)} nodes>"
