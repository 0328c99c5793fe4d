"""Cross-process tuning leases: the fleet's one coordination mechanism.

A *lease* is the right to run the one fleet-wide measurement for a
tuning key.  The lease is a sidecar file next to the shared
JSON cache — ``<cache>.<sha1(key)[:12]>.lease`` — created with
``O_CREAT | O_EXCL`` so exactly one process of a fleet wins, holding a
tiny JSON body (pid, key, acquire time) purely for diagnostics.

Liveness is time-based, not pid-based: a worker that crashed while
holding a lease stops blocking its siblings once the lease is older
than the configured ``lease_timeout``; a *live* holder whose
measurement outlasts the timeout stays alive by :meth:`LeaseFile.touch`
heartbeats (``autotune`` refreshes its lease while the search runs).
Breaking a stale lease happens under the cache's advisory
:func:`~repro.tuning.cache.file_lock` so two breakers cannot both
conclude they won.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from ..cache import file_lock

__all__ = ["Lease", "LeaseFile", "lease_path"]


def lease_path(cache_path: str, key: str) -> str:
    """Sidecar lease-file path for one tuning key."""
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
    return f"{cache_path}.{digest}.lease"


@dataclass(frozen=True)
class Lease:
    """A held lease; release through the :class:`LeaseFile` that made it."""

    key: str
    path: str
    acquired_at: float


class LeaseFile:
    """Acquire/release tuning leases as exclusive-create sidecar files."""

    def __init__(self, cache_path: str, *, timeout: float = 120.0):
        self.cache_path = cache_path
        #: Seconds after which a lease counts as abandoned.
        self.timeout = timeout

    # -- internals -----------------------------------------------------

    def _age(self, path: str) -> Optional[float]:
        try:
            return time.time() - os.stat(path).st_mtime
        except OSError:
            return None

    def _try_create(self, key: str, path: str) -> Optional[Lease]:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        now = time.time()
        with os.fdopen(fd, "w") as fh:
            json.dump({"pid": os.getpid(), "key": key, "time": now}, fh)
        return Lease(key=key, path=path, acquired_at=now)

    # -- public API ----------------------------------------------------

    def try_acquire(self, key: str) -> Optional[Lease]:
        """The lease for ``key``, or ``None`` if a live sibling holds it.

        A lease older than :attr:`timeout` is broken (its holder is
        presumed dead) and re-acquired in the same call.
        """
        path = lease_path(self.cache_path, key)
        lease = self._try_create(key, path)
        if lease is not None:
            return lease
        age = self._age(path)
        if age is None:
            # Holder released between our create attempt and the stat;
            # contend for the now-free lease.
            return self._try_create(key, path)
        if age <= self.timeout:
            return None
        # Stale: break it under the cache file lock so only one breaker
        # unlinks + recreates.
        with file_lock(self.cache_path):
            age = self._age(path)
            if age is not None and age > self.timeout:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return self._try_create(key, path)

    def touch(self, lease: Lease) -> bool:
        """Refresh the lease file's mtime so a live holder mid-way
        through a long measurement is not mistaken for a dead one and
        broken by its siblings; False when the file is gone (the lease
        was broken already)."""
        try:
            os.utime(lease.path, None)
            return True
        except OSError:
            return False

    def release(self, lease: Lease) -> None:
        """Give the lease up (idempotent; tolerates a broken lease)."""
        try:
            os.unlink(lease.path)
        except OSError:
            pass

    def holder_alive(self, key: str) -> bool:
        """Whether ``key``'s lease exists and is younger than the
        timeout — i.e. whether waiting for its holder makes sense."""
        age = self._age(lease_path(self.cache_path, key))
        return age is not None and age <= self.timeout
