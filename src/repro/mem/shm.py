"""Shared-memory buffer backing: zero-copy device arrays across processes.

The process-pool block scheduler (:mod:`repro.runtime.procpool`) runs
blocks in spawned worker processes.  Shipping a buffer's numpy array to
a worker by pickle would copy the payload on every launch — the exact
overhead the paper's zero-overhead claim forbids — so a buffer may opt
into a ``multiprocessing.shared_memory`` backing instead: the parent
allocates one named segment per buffer, workers attach to the segment
*by name* and build their numpy view over the same physical pages.
Kernel writes in a worker are immediately visible to the host; nothing
is serialised but the segment's name and geometry
(:class:`ShmArraySpec`, a few dozen bytes).

Opt in per allocation (``mem.alloc(dev, n, shm=True)``) or process-wide
with ``REPRO_SHM_BUFFERS=1`` (how the kernel sweep runs under
``REPRO_SCHEDULER=processes`` without touching call sites).

Lifetime discipline: every live segment is tracked in a module registry;
``Buffer.free()`` closes *and unlinks* its segment, and an ``atexit``
hook unlinks anything still live so a crashed or lazy caller never
orphans ``/dev/shm`` entries (the CI leak check asserts the registry and
``/dev/shm`` are clean after the suite).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import knobs

__all__ = [
    "SHM_BUFFERS_ENV",
    "SHM_NAME_PREFIX",
    "ShmArraySpec",
    "ShmBacking",
    "shm_buffers_default",
    "active_segment_names",
    "attach_array",
    "release_worker_attachments",
    "cleanup_all_segments",
]

#: Any non-empty value makes :func:`repro.mem.alloc` back every buffer
#: with shared memory by default (per-call ``shm=`` still wins).
SHM_BUFFERS_ENV = knobs.SHM_BUFFERS

#: Segment names start with this prefix + pid, so a leak check can tell
#: this process's segments apart from unrelated ``/dev/shm`` entries.
SHM_NAME_PREFIX = "repro_shm"

_seq = itertools.count()
_registry_lock = threading.Lock()
#: name -> ShmBacking, every segment this process created and not yet
#: released.  The atexit sweep drains it.
_live: Dict[str, "ShmBacking"] = {}


def shm_buffers_default() -> bool:
    """Whether buffers default to shared-memory backing
    (``REPRO_SHM_BUFFERS``)."""
    return knobs.get(SHM_BUFFERS_ENV)


@dataclass(frozen=True)
class ShmArraySpec:
    """Everything a worker process needs to rebuild a buffer's array.

    Picklable and tiny — this is the only thing the process scheduler
    ever serialises for an shm-backed kernel argument.  ``shape`` is the
    *padded* backing shape; ``logical_last`` is the unpadded extent of
    the last axis (workers slice exactly like
    :meth:`repro.mem.buf.Buffer._logical` does).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    logical_last: int
    #: Sub-view window as ``(offset, extent)`` per dim, or None for the
    #: whole logical array.
    box: Optional[Tuple[Tuple[int, int], ...]] = None


class ShmBacking:
    """One owned shared-memory segment holding a buffer's padded array.

    Created by the parent process only; workers attach via
    :func:`attach_array` and never own segments.
    """

    def __init__(self, shape: Tuple[int, ...], dtype: np.dtype):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        name = f"{SHM_NAME_PREFIX}_{os.getpid()}_{next(_seq)}"
        # SharedMemory rejects size 0; a degenerate (empty-extent) buffer
        # still needs a mappable segment.
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes), name=name
        )
        self.name = self._shm.name
        self._released = False
        arr = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        arr[...] = 0  # match np.zeros semantics of the private backing
        self.array = arr
        with _registry_lock:
            _live[self.name] = self

    def spec(self, logical_last: int) -> ShmArraySpec:
        return ShmArraySpec(
            name=self.name,
            shape=self.shape,
            dtype=self.dtype.str,
            logical_last=int(logical_last),
        )

    def release(self) -> None:
        """Close and unlink the segment (idempotent).

        The numpy view dies with it; callers must drop their references
        first (Buffer.free() swaps its array out before calling here).
        """
        if self._released:
            return
        self._released = True
        with _registry_lock:
            _live.pop(self.name, None)
        # The exported buffer must be released before close(); drop the
        # array view first.
        self.array = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            # A surviving numpy view keeps the mapping alive; the unlink
            # below still removes the /dev/shm name, and the pages are
            # reclaimed when the last view is garbage collected.
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):
            pass

    @property
    def released(self) -> bool:
        return self._released

    def __repr__(self) -> str:
        state = "released" if self._released else "live"
        return f"<ShmBacking {self.name} {self.dtype}{self.shape} {state}>"


def active_segment_names() -> List[str]:
    """Names of segments this process created and has not yet released —
    the quantity the leak check asserts is empty."""
    with _registry_lock:
        return sorted(_live)


def cleanup_all_segments() -> int:
    """Release every live segment; returns how many were swept.

    Runs automatically at interpreter exit so un-freed buffers cannot
    orphan ``/dev/shm`` entries (and cannot trigger the multiprocessing
    resource tracker's "leaked shared_memory" stderr noise).
    """
    with _registry_lock:
        leaked = list(_live.values())
    for backing in leaked:
        backing.release()
    return len(leaked)


atexit.register(cleanup_all_segments)


# ---------------------------------------------------------------------------
# Worker-side attachment
# ---------------------------------------------------------------------------

#: name -> (SharedMemory, padded ndarray); one attachment per segment
#: per worker process, reused across launches and chunks.
_attached: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_attached_lock = threading.Lock()


def attach_array(spec: ShmArraySpec) -> np.ndarray:
    """The logical array behind ``spec``, mapped from shared memory.

    Used by process-pool workers; attachments are cached per segment so
    repeated launches over the same buffers map each segment once per
    worker.  The returned array aliases the parent's buffer memory.
    """
    with _attached_lock:
        entry = _attached.get(spec.name)
        if entry is None:
            seg = shared_memory.SharedMemory(name=spec.name)
            padded = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf
            )
            entry = (seg, padded)
            _attached[spec.name] = entry
    padded = entry[1]
    logical = (
        padded
        if (not spec.shape or spec.logical_last == spec.shape[-1])
        else padded[..., : spec.logical_last]
    )
    if spec.box is not None:
        logical = logical[tuple(slice(o, o + e) for o, e in spec.box)]
    return logical


def release_worker_attachments() -> int:
    """Drop every cached attachment (worker exit / tests); returns the
    count released.  Never unlinks — workers do not own segments."""
    with _attached_lock:
        entries = list(_attached.values())
        _attached.clear()
    count = len(entries)
    while entries:
        seg, arr = entries.pop()
        del arr  # the mapping cannot close while a view is exported
        try:
            seg.close()
        except (OSError, BufferError):
            pass
    return count
