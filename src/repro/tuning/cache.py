"""Persistent autotuning results: tuned once, fast everywhere after.

The cache maps ``kernel id | accelerator | device fingerprint |
bucketed extent`` to the winning :class:`~repro.core.workdiv.WorkDivMembers`
and its measured seconds.  It is a small JSON file — human-readable,
diffable, shippable with an application — whose location defaults to
``.repro-tuning-cache.json`` in the working directory and is overridden
by the ``REPRO_TUNING_CACHE`` environment variable.

Keys are deliberately coarse on the extent axis: extents bucket to the
next power of two per dimension, because the best division is a
property of the *shape class* of a problem, not of each individual
size (Matthes et al. 2017 tune per architecture, then reuse).  Keys are
deliberately precise on the device axis: the fingerprint folds in the
machine model's identity, core geometry and clock, so a cache produced
on one modeled machine never misleads another.

Corrupt or unreadable cache files warn once and are treated as empty (a
tuner must never fail because a cache rotted); writes are atomic
(write-temp-then-rename) and **merge-on-write** under an advisory file
lock, so a crash mid-save cannot destroy earlier results and concurrent
writer processes storing different kernels cannot silently drop each
other's entries (the pre-fleet read-modify-write was last-writer-wins).
Conflicting keys resolve to the entry with the newest ``measured_at``
stamp, so a fresh re-tune is never reverted by a process still holding
the superseded result in memory.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterator, Optional, Sequence, Union

try:  # advisory locking is POSIX-only; elsewhere saves stay best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from .. import knobs
from ..core.vec import Vec, as_vec
from ..core.workdiv import WorkDivMembers

__all__ = [
    "TUNING_CACHE_ENV",
    "DEFAULT_CACHE_FILENAME",
    "CACHE_FORMAT_VERSION",
    "CachedResult",
    "TuningCache",
    "default_cache",
    "reset_default_cache",
    "default_cache_path",
    "device_fingerprint",
    "kernel_id",
    "bucket_extent",
    "tuning_generation",
    "bump_tuning_generation",
    "file_lock",
    "flock",
]

#: Environment variable overriding where the tuning cache lives.
TUNING_CACHE_ENV = knobs.TUNING_CACHE

#: Default cache file, created in the current working directory.
DEFAULT_CACHE_FILENAME = ".repro-tuning-cache.json"

#: Bumped when the on-disk schema changes; mismatching files are
#: treated as empty rather than misread.
CACHE_FORMAT_VERSION = 1


_generation = 0
_generation_lock = threading.Lock()


def tuning_generation() -> int:
    """Monotonic counter bumped whenever any :class:`TuningCache` stores
    or drops entries in this process.

    The launch-plan cache folds it into its key for AUTO tasks, so plans
    resolved before a tuning run cannot outlive the run and keep serving
    the pre-tuning heuristic division.
    """
    return _generation


def _bump_generation() -> None:
    global _generation
    with _generation_lock:
        _generation += 1


def bump_tuning_generation() -> None:
    """Invalidate every AUTO launch plan resolved so far.

    For a tuning result adopted from outside :meth:`TuningCache.put`
    (a file re-read does this itself): plans resolved against the
    pre-adoption state must not survive it."""
    _bump_generation()


def flock(path: str, *, wait: bool = True) -> Optional[BinaryIO]:
    """``path`` opened (created if missing) under an exclusive ``flock``.

    The returned file holds the lock until it is closed or its process
    exits — the kernel frees it either way, so a holder that dies never
    blocks anyone.  With ``wait=False`` a lock held through another open
    file (in this process or any other) returns ``None`` at once instead
    of blocking.  The file is never unlinked: a waiter could lock the
    orphaned inode while a third process locks a new file at the path.
    POSIX only (:mod:`fcntl`).
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fh = open(path, "ab")
    held = None
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
        held = fh
    except BlockingIOError:
        pass
    finally:
        if held is None:
            fh.close()
    return held


@contextlib.contextmanager
def file_lock(path: str) -> Iterator[None]:
    """Advisory inter-process lock on ``path`` (a sidecar ``.lock`` file).

    Serialises cache writers across *processes* — the merge-on-write in
    :meth:`TuningCache.save` takes it.  Reentrant use within one process
    is the caller's responsibility; on platforms without :mod:`fcntl`
    the lock degrades to a no-op (single-process semantics are still
    covered by the in-object mutex).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX hosts
        yield
        return
    with flock(path + ".lock"):
        yield


def default_cache_path() -> str:
    """The resolved cache location: ``$REPRO_TUNING_CACHE`` when set,
    else :data:`DEFAULT_CACHE_FILENAME` in the working directory."""
    return knobs.get(TUNING_CACHE_ENV) or os.path.join(
        os.getcwd(), DEFAULT_CACHE_FILENAME
    )


def kernel_id(kernel) -> str:
    """A stable string identity for a kernel callable.

    Functions key by qualified name; kernel *instances* key by their
    class (two ``GemmTilingKernel()`` objects share tuning results —
    the division depends on the algorithm, not the instance).  Lambdas
    and nested functions all share qualnames like ``module.<lambda>`` /
    ``outer.<locals>.inner``, so they additionally key by definition
    site (file and first line) — distinct kernels must never serve each
    other's tuned divisions.
    """
    if not callable(kernel):
        raise TypeError(f"kernel must be callable, got {kernel!r}")
    target = kernel if hasattr(kernel, "__qualname__") else type(kernel)
    module = getattr(target, "__module__", "?")
    qualname = getattr(target, "__qualname__", target.__name__)
    ident = f"{module}.{qualname}"
    if "<lambda>" in qualname or "<locals>" in qualname:
        code = getattr(target, "__code__", None)
        if code is not None:
            ident += f"@{code.co_filename}:{code.co_firstlineno}"
    return ident


def device_fingerprint(device) -> str:
    """Identity of the hardware a measurement is valid for.

    Folds the machine model's key, geometry and clock — enough that a
    cache tuned against one modeled machine (or one host core count)
    never serves another.
    """
    spec = device.spec
    return (
        f"{spec.key}:{spec.kind}:{spec.device_count}x{spec.cores_per_device}"
        f"@{spec.clock_ghz:g}GHz"
    )


def bucket_extent(extent: Union[int, Sequence[int], Vec]) -> str:
    """Round each extent component up to the next power of two.

    The bucket is the cache's extent granularity: a division tuned for
    a 1000-wide problem serves the whole (512, 1024] class.
    """
    ext = as_vec(extent)
    comps = []
    for c in ext:
        p = 1
        while p < c:
            p *= 2
        comps.append(str(p))
    return "x".join(comps)


@dataclass(frozen=True)
class CachedResult:
    """One persisted tuning outcome."""

    work_div: WorkDivMembers
    seconds: float
    #: Search strategy that produced the entry ("exhaustive", ...).
    strategy: str
    #: "modeled" (simulated clock) or "wall" (host clock).
    source: str
    #: Winning block-scheduling strategy ("sequential" / "pooled" /
    #: "compiled") when the tuning run compared schedulers
    #: (``autotune(tune_schedule=True)``); None means "back-end
    #: default" and keeps old cache files readable.
    schedule: Optional[str] = None
    #: Wall-clock ``time.time()`` when the measurement finished; 0.0 for
    #: entries from pre-timestamp cache files.  Arbitrates merge
    #: conflicts: the *newest* measurement wins on :meth:`TuningCache.save`
    #: and :meth:`TuningCache.reload`, so a forced re-tune cannot
    #: be silently reverted by a sibling process whose in-memory cache
    #: still holds the superseded entry.
    measured_at: float = 0.0


def _entry_to_dict(entry: CachedResult) -> dict:
    wd = entry.work_div
    data = {
        "grid": list(wd.grid_block_extent),
        "block": list(wd.block_thread_extent),
        "elems": list(wd.thread_elem_extent),
        "seconds": entry.seconds,
        "strategy": entry.strategy,
        "source": entry.source,
    }
    if entry.schedule is not None:
        data["schedule"] = entry.schedule
    if entry.measured_at:
        data["measured_at"] = entry.measured_at
    return data


def _entry_from_dict(data: dict) -> CachedResult:
    wd = WorkDivMembers(
        Vec(*data["grid"]), Vec(*data["block"]), Vec(*data["elems"])
    )
    return CachedResult(
        work_div=wd,
        seconds=float(data["seconds"]),
        strategy=str(data.get("strategy", "?")),
        source=str(data.get("source", "?")),
        schedule=_schedule_from(data.get("schedule")),
        measured_at=float(data.get("measured_at", 0.0)),
    )


def _schedule_from(raw) -> Optional[str]:
    """A stored schedule name, canonicalised the way ``REPRO_SCHEDULER``
    parses it.  A name no live schedule answers to — a retired one in a
    file an older version wrote — decodes as None (the back-end
    default), so an AUTO launch never plans a schedule that cannot run."""
    if raw is None:
        return None
    try:
        return knobs.parse(knobs.SCHEDULER, str(raw))
    except knobs.KnobError:
        return None


class TuningCache:
    """JSON-backed map from tuning keys to winning work divisions.

    Thread-safe; loads lazily on first access and tolerates a missing,
    empty or corrupt file.  ``path=None`` resolves through
    :func:`default_cache_path` *at each load/save*, so tests and users
    can retarget via ``REPRO_TUNING_CACHE`` without rebuilding the
    object.
    """

    def __init__(self, path: Optional[str] = None):
        self._path = path
        self._entries: Dict[str, CachedResult] = {}
        self._loaded = False
        self._lock = threading.Lock()
        # A clear() is an explicit drop: the next save must NOT merge the
        # dropped entries back in from disk.
        self._cleared = False

    @property
    def path(self) -> str:
        return self._path if self._path is not None else default_cache_path()

    # -- keys ----------------------------------------------------------

    @staticmethod
    def key(kernel, acc_type, device, extent) -> str:
        return "|".join(
            (
                kernel_id(kernel),
                acc_type.name,
                device_fingerprint(device),
                bucket_extent(extent),
            )
        )

    # -- persistence ---------------------------------------------------

    @staticmethod
    def _read_entries(path: str, *, warn: bool) -> Optional[Dict[str, CachedResult]]:
        """Parse the on-disk entry map, or ``None`` when nothing usable
        is there.  A *present but rotten* file warns (``warn=True``) —
        starting fresh silently hides operational problems like a disk
        filling up mid-write — while a missing file stays silent."""
        try:
            with open(path) as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            if warn:
                warnings.warn(
                    f"tuning cache {path!r} is unreadable ({exc}); "
                    "starting fresh",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        try:
            data = json.loads(raw)
        except ValueError as exc:
            if warn:
                warnings.warn(
                    f"tuning cache {path!r} is corrupt or truncated "
                    f"({exc}); starting fresh",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_FORMAT_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            if warn and data != {} and raw.strip():
                warnings.warn(
                    f"tuning cache {path!r} has an unrecognised schema "
                    f"(expected version {CACHE_FORMAT_VERSION}); "
                    "starting fresh",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        out: Dict[str, CachedResult] = {}
        for key, raw_entry in data["entries"].items():
            try:
                out[key] = _entry_from_dict(raw_entry)
            except (KeyError, TypeError, ValueError):
                continue  # skip individually rotten entries
        return out

    def _load_locked(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        entries = self._read_entries(self.path, warn=True)
        if entries:
            self._entries.update(entries)

    def save(self) -> str:
        """Write the cache atomically; returns the path written.

        The write **merges on-disk entries** it does not know about (and
        does so under an advisory file lock), so two processes that each
        tuned a different kernel both keep their results no matter the
        save order.  Conflicting keys are arbitrated by ``measured_at``:
        the newer measurement wins, ties keep the in-memory entry — so a
        sibling whose in-memory cache lags a fleet re-tune cannot write
        the superseded entry back over the fresh one.  After an explicit
        :meth:`clear` the next save skips the merge once: a clear must
        actually drop entries, not resurrect them from disk.
        """
        with self._lock:
            self._load_locked()
            path = self.path
            skip_merge = self._cleared
        adopted = 0
        with file_lock(path):
            with self._lock:
                if not skip_merge:
                    disk = self._read_entries(path, warn=False) or {}
                    for key, entry in disk.items():
                        mine = self._entries.get(key)
                        if mine is None or (
                            entry != mine
                            and entry.measured_at > mine.measured_at
                        ):
                            self._entries[key] = entry
                            adopted += 1
                self._cleared = False
                payload = {
                    "version": CACHE_FORMAT_VERSION,
                    "entries": {
                        k: _entry_to_dict(v)
                        for k, v in sorted(self._entries.items())
                    },
                }
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".repro-tuning-", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:  # noqa: BLE001 - drop the temp file, then re-raise
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        if adopted:
            # Entries adopted from a sibling process change what AUTO
            # launches resolve to; invalidate pre-merge plans.
            _bump_generation()
        return path

    def reload(self) -> int:
        """Re-read the file and adopt entries this process has not seen,
        plus strictly *newer* measurements of keys it has (same
        ``measured_at`` arbitration as :meth:`save`); returns how many
        were adopted.  An in-memory entry at least as new as the disk's
        is never dropped — a concurrent writer's file may lag this
        process's put()s.

        The fleet coordinator polls this in file-lock mode so workers
        that lost a tuning race pick the winner up from disk."""
        with self._lock:
            self._loaded = True
            disk = self._read_entries(self.path, warn=False) or {}
            adopted = 0
            for key, entry in disk.items():
                mine = self._entries.get(key)
                if mine is None or (
                    entry != mine and entry.measured_at > mine.measured_at
                ):
                    self._entries[key] = entry
                    adopted += 1
        if adopted:
            _bump_generation()
        return adopted

    # -- access --------------------------------------------------------

    def get(self, kernel, acc_type, device, extent) -> Optional[CachedResult]:
        key = self.key(kernel, acc_type, device, extent)
        with self._lock:
            self._load_locked()
            return self._entries.get(key)

    def put(
        self,
        kernel,
        acc_type,
        device,
        extent,
        result: CachedResult,
    ) -> str:
        """Store ``result``; returns the key written (not yet saved —
        call :meth:`save` to persist)."""
        key = self.key(kernel, acc_type, device, extent)
        with self._lock:
            self._load_locked()
            self._entries[key] = result
        _bump_generation()
        return key

    def get_key(self, key: str) -> Optional[CachedResult]:
        """Entry under a pre-computed cache ``key`` (the fleet
        coordinator works with raw keys — it has no kernel object)."""
        with self._lock:
            self._load_locked()
            return self._entries.get(key)

    def put_key(self, key: str, result: CachedResult) -> str:
        """Store ``result`` under a pre-computed cache ``key`` (not yet
        saved — call :meth:`save` to persist)."""
        with self._lock:
            self._load_locked()
            self._entries[key] = result
        _bump_generation()
        return key

    def entries_snapshot(self) -> Dict[str, CachedResult]:
        """A point-in-time copy of every entry, keyed by cache key."""
        with self._lock:
            self._load_locked()
            return dict(self._entries)

    def clear(self) -> None:
        """Drop the in-memory entries (the file is untouched until
        :meth:`save`, which then drops them on disk too instead of
        merging them back)."""
        with self._lock:
            self._entries.clear()
            self._loaded = True
            self._cleared = True
        _bump_generation()

    def __len__(self) -> int:
        with self._lock:
            self._load_locked()
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._load_locked()
            return key in self._entries


_default_cache: Optional[TuningCache] = None
_default_cache_lock = threading.Lock()


def default_cache() -> TuningCache:
    """The process-wide cache instance backed by the default path."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = TuningCache()
        return _default_cache


def reset_default_cache() -> None:
    """Forget the process-wide instance (tests switching
    ``REPRO_TUNING_CACHE`` call this to re-resolve the path)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = None
    _bump_generation()
