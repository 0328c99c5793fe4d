"""The lease primitive: an exclusive ``flock`` on a sidecar file next
to the cache, held by an open file (``repro.tuning.cache.flock``)."""

import os
import threading

from repro.tuning.cache import flock, lease_path

KEY = "kernel|AccCpuSerial|machine:cpu:1x4@3GHz|1024"


def _try(tmp_path, key=KEY):
    return flock(lease_path(str(tmp_path / "cache.json"), key), wait=False)


class TestAcquire:
    def test_first_acquire_wins(self, tmp_path):
        lease = _try(tmp_path)
        assert lease is not None
        assert os.path.exists(lease.name)
        lease.close()

    def test_second_acquire_denied_while_held(self, tmp_path):
        """Two open files contend even inside one process — a lease is
        per open file, not per process."""
        lease = _try(tmp_path)
        assert _try(tmp_path) is None
        lease.close()

    def test_release_frees_the_lease(self, tmp_path):
        lease = _try(tmp_path)
        lease.close()
        assert os.path.exists(lease.name)  # the file stays, the lock goes
        again = _try(tmp_path)
        assert again is not None
        again.close()

    def test_release_is_idempotent(self, tmp_path):
        lease = _try(tmp_path)
        lease.close()
        lease.close()  # must not raise

    def test_distinct_keys_do_not_contend(self, tmp_path):
        a, b = _try(tmp_path, "key-a"), _try(tmp_path, "key-b")
        assert a is not None and b is not None
        a.close()
        b.close()

    def test_blocking_lock_waits_for_the_holder(self, tmp_path):
        """The cache's ``<cache>.lock`` takes the same primitive with
        ``wait=True``: it returns once the holder lets go."""
        path = str(tmp_path / "cache.json.lock")
        held = flock(path)
        got = []
        t = threading.Thread(target=lambda: got.append(flock(path)))
        t.start()
        t.join(timeout=0.1)
        assert t.is_alive() and got == []
        held.close()
        t.join(timeout=5.0)
        assert got and got[0] is not None
        got[0].close()


class TestLeasePath:
    def test_stable_per_key(self):
        assert lease_path("/x/c.json", KEY) == lease_path("/x/c.json", KEY)

    def test_distinct_per_key(self):
        assert lease_path("/x/c.json", "a") != lease_path("/x/c.json", "b")

    def test_sits_next_to_the_cache(self, tmp_path):
        p = lease_path(str(tmp_path / "c.json"), KEY)
        assert p.startswith(str(tmp_path / "c.json"))
        assert p.endswith(".lease")
