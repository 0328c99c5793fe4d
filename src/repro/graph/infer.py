"""Automatic buffer-dependency inference for dataflow graphs.

The graph layer derives execution-order edges from each node's buffer
arguments instead of making users hand-wire ``Event``/``enqueue_after``
chains.  The rules are the classic hazard pairs:

* **reader-after-writer (RAW)** — a node reading a region depends on
  every earlier node that wrote an overlapping region;
* **writer-after-any (WAR + WAW)** — a node writing a region depends on
  every earlier node that read *or* wrote an overlapping region.

Accesses key on :attr:`repro.mem.buf.Buffer.buf_id` — the stable
allocation id both buffers and their views expose — plus the
``access_box()`` region, so two disjoint windows of one buffer (the
halo-exchange pattern) do not serialise.  Argument classification:
``Buffer`` and ``ViewSubView`` arguments are memory, host ``numpy``
arrays are memory of the host, everything else is a value.

Kernels do not declare argument intent, so a kernel's buffer arguments
default to **read-write** (conservative, always correct); callers may
narrow with ``reads=``/``writes=`` for more overlap.  Copies and
memsets have known intent (source read, destination write).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..mem.buf import Buffer
from ..mem.view import ViewSubView

__all__ = [
    "Access",
    "access_of",
    "classify_args",
    "accesses_overlap",
    "infer_edges",
]

#: A region box: ``((offset, extent), ...)`` per dimension, or ``None``
#: for "the whole allocation".
Box = Optional[Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class Access:
    """One node's touch of one memory region."""

    #: Stable identity of the allocation (``("buf", buf_id)`` for
    #: buffers/views, ``("np", id)`` for host numpy endpoints).
    key: tuple
    #: Region within the allocation (None = whole).
    box: Box = None

    def __repr__(self) -> str:
        region = "whole" if self.box is None else str(self.box)
        return f"<Access {self.key} {region}>"


def access_of(obj) -> Optional[Access]:
    """The :class:`Access` ``obj`` represents, or None for plain values.

    Buffers and views resolve to their base allocation's stable id with
    their region box; host numpy arrays key on object identity (they
    stay alive while the graph holds the node's task).
    """
    if isinstance(obj, Buffer):
        return Access(("buf", obj.buf_id), None)
    if isinstance(obj, ViewSubView):
        return Access(("buf", obj.buf_id), obj.access_box())
    if isinstance(obj, np.ndarray):
        return Access(("np", id(obj)), None)
    return None


def _as_accesses(objs: Iterable) -> List[Access]:
    out = []
    for o in objs:
        a = o if isinstance(o, Access) else access_of(o)
        if a is None:
            raise TypeError(
                f"{o!r} is not a memory endpoint (Buffer, ViewSubView or "
                "numpy array); reads=/writes= entries must be"
            )
        out.append(a)
    return out


def classify_args(
    args: Sequence,
    reads: Optional[Iterable] = None,
    writes: Optional[Iterable] = None,
) -> Tuple[Tuple[Access, ...], Tuple[Access, ...]]:
    """``(reads, writes)`` access tuples for a kernel's argument list.

    Without annotations every buffer argument is read-write.  With
    ``reads=`` and/or ``writes=`` (buffers, views or prebuilt
    :class:`Access` objects), listed endpoints get exactly the declared
    intent and *unlisted* buffer arguments stay read-write — narrowing
    is opt-in per endpoint, never implied for the rest.
    """
    declared_r = _as_accesses(reads or ())
    declared_w = _as_accesses(writes or ())
    declared_keys = {a.key for a in declared_r} | {a.key for a in declared_w}
    r: List[Access] = list(declared_r)
    w: List[Access] = list(declared_w)
    for a in args:
        acc = access_of(a)
        if acc is None or acc.key in declared_keys:
            continue
        r.append(acc)
        w.append(acc)
    return tuple(r), tuple(w)


def _spans_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] < b[0] + b[1] and b[0] < a[0] + a[1]


def accesses_overlap(a: Access, b: Access) -> bool:
    """True when the two accesses may touch common memory."""
    if a.key != b.key:
        return False
    if a.box is None or b.box is None:
        return True
    if len(a.box) != len(b.box):  # dim confusion: stay conservative
        return True
    return all(_spans_overlap(sa, sb) for sa, sb in zip(a.box, b.box))


def infer_edges(
    node_accesses: Sequence[Tuple[Sequence[Access], Sequence[Access]]],
) -> List[set]:
    """Dependency edges for nodes given ``[(reads, writes), ...]`` in
    program (creation) order.

    Returns one set of earlier-node indices per node.  History per
    allocation is pruned at whole-allocation writes: later nodes that
    would conflict with anything older necessarily conflict with that
    write, and transitivity carries the ordering — keeping long
    same-buffer pipelines linear instead of quadratic.
    """
    history: Dict[tuple, List[Tuple[int, Access, bool]]] = {}
    deps: List[set] = []
    for i, (reads, writes) in enumerate(node_accesses):
        mine: set = set()
        for acc in reads:
            for j, prior, was_write in history.get(acc.key, ()):
                if was_write and accesses_overlap(acc, prior):
                    mine.add(j)
        for acc in writes:
            for j, prior, _w in history.get(acc.key, ()):
                if accesses_overlap(acc, prior):
                    mine.add(j)
        deps.append(mine)
        write_keys = {a.key for a in writes}
        for acc in reads:
            if acc.key not in write_keys:
                history.setdefault(acc.key, []).append((i, acc, False))
        for acc in writes:
            entries = history.setdefault(acc.key, [])
            if acc.box is None:
                entries.clear()
            entries.append((i, acc, True))
    return deps
