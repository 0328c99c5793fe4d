"""The shared cache's lease: ``TuningCache.acquire`` over flock leases
and the cache file, plus the ``autotune()`` path that takes it."""

import glob
import os
import subprocess
import sys
import threading
import time

import pytest

import repro.tuning.cache as cache_mod
from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.tuning import TuningCache
from repro.tuning.cache import CachedResult, flock, lease_path

KEY = "k|AccCpuSerial|m:cpu:1x4@3GHz|1024"
ENTRY = CachedResult(
    work_div=WorkDivMembers(Vec(8), Vec(1), Vec(4)),
    seconds=2e-6,
    strategy="random",
    source="modeled",
)


@pytest.fixture(autouse=True)
def _short_polls(monkeypatch):
    monkeypatch.setattr(cache_mod, "LEASE_WAIT_SECONDS", 5.0)
    monkeypatch.setattr(cache_mod, "LEASE_POLL_SECONDS", 0.01)


def _wait_seconds(monkeypatch, seconds):
    monkeypatch.setattr(cache_mod, "LEASE_WAIT_SECONDS", seconds)


def _pair(tmp_path):
    """Two caches over the same file = two worker processes."""
    path = str(tmp_path / "cache.json")
    return TuningCache(path), TuningCache(path)


def _publish(cache, key, entry):
    cache.put_key(key, entry)
    cache.save()


def _any(entry):
    return True


def _acquire_in_thread(cache, monkeypatch):
    """Run ``cache.acquire(KEY)`` on a thread; returns (thread, results)
    once the thread has lost the lease race (its first file read)."""
    looked = threading.Event()
    reload = cache.reload

    def watched_reload():
        looked.set()
        return reload()

    monkeypatch.setattr(cache, "reload", watched_reload)
    got = []
    t = threading.Thread(target=lambda: got.append(cache.acquire(KEY, _any)))
    t.start()
    assert looked.wait(timeout=5.0)
    return t, got


class TestLease:
    def test_fetch_miss_then_published_hit(self, tmp_path):
        a, b = _pair(tmp_path)
        assert b.get_key(KEY) is None
        entry, lease = a.acquire(KEY, _any)
        assert entry is None and lease is not None
        with lease:
            _publish(a, KEY, ENTRY)
        # B has its own TuningCache object: only a *fresh* read sees it.
        assert b.get_key(KEY) is None
        assert b.reload() == 1
        assert b.get_key(KEY) == ENTRY

    def test_only_one_lease_granted(self, tmp_path, monkeypatch):
        _wait_seconds(monkeypatch, 0.05)
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            assert b.acquire(KEY, _any) == (None, None)

    def test_closed_lease_is_free_and_its_file_stays(self, tmp_path):
        """Closing frees the lease; the sidecar stays, as ``<cache>.lock``
        does — unlinking a locked path would let a waiter lock the
        orphaned inode while a third worker locks a new file."""
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        lease.close()
        entry, again = b.acquire(KEY, _any)
        assert entry is None and again is not None
        again.close()
        assert glob.glob(str(tmp_path / "*.lease")) == [lease_path(a.path, KEY)]

    def test_lease_after_publish_is_denied(self, tmp_path):
        """The re-check under the lease: a worker whose cache view
        predates the holder's save must not win the now-free lease and
        re-measure."""
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            _publish(a, KEY, ENTRY)
        assert b.acquire(KEY, _any) == (ENTRY, None)
        assert b.get_key(KEY) == ENTRY  # the re-check adopted it

    def test_unusable_entry_means_take_the_lease(self, tmp_path):
        """An entry the caller cannot use (no schedule for a
        tune_schedule caller) is no answer: the caller measures under
        the lease, it does not wait on it."""
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            _publish(a, KEY, ENTRY)
        entry, lease = b.acquire(KEY, lambda e: e.schedule is not None)
        assert entry is None and lease is not None
        lease.close()

    def test_waiter_adopts_on_publish(self, tmp_path, monkeypatch):
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        t, got = _acquire_in_thread(b, monkeypatch)
        with lease:
            _publish(a, KEY, ENTRY)
        t.join(timeout=5.0)
        assert got == [(ENTRY, None)]
        assert b.get_key(KEY) == ENTRY

    def test_released_lease_passes_to_the_waiter(self, tmp_path, monkeypatch):
        """A holder that gives up without saving hands the lease on at
        once: no 30 s wait ridden out, no heuristic answer."""
        _wait_seconds(monkeypatch, 30.0)
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        t, got = _acquire_in_thread(b, monkeypatch)
        started = time.monotonic()
        lease.close()
        t.join(timeout=5.0)
        assert time.monotonic() - started < 5.0
        (entry, again), = got
        assert entry is None and again is not None
        again.close()

    def test_wait_times_out_while_the_holder_lives(self, tmp_path, monkeypatch):
        _wait_seconds(monkeypatch, 0.2)
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            started = time.monotonic()
            assert b.acquire(KEY, _any) == (None, None)
            assert time.monotonic() - started >= 0.2


class _StubLease:
    closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True


class _StubCache(TuningCache):
    """A cache whose ``acquire`` is scripted: it hands out ``adopted``
    when the caller can use it, else ``lease``; each save records
    whether the lease was still held."""

    def __init__(self, path, lease=None, adopted=None):
        super().__init__(path)
        self.lease = lease
        self.adopted = adopted
        self.saved_under_lease = []

    def acquire(self, key, usable):
        if self.adopted is not None and usable(self.adopted):
            return self.adopted, None
        return None, self.lease

    def save(self):
        self.saved_under_lease.append(not self.lease.closed)
        return super().save()


class _Kern:
    @fn_acc
    def __call__(self, acc, n, out):
        from repro.core.element import independent_elements

        for i in independent_elements(acc, n):
            out[i[0]] = i[0] * 2.0


def _tune_args(n=256):
    from repro import mem
    from repro.mem import memset

    dev = get_dev_by_idx(AccCpuSerial)
    out = mem.alloc(dev, n)
    memset(QueueBlocking(dev), out, 0)
    return dev, (n, out)


def _tune(dev, args, **kwargs):
    return autotune(
        _Kern(), AccCpuSerial, 256, args, device=dev,
        strategy="random", budget=2, max_block_threads=8, **kwargs,
    )


def _key(dev):
    return TuningCache.key(_Kern(), AccCpuSerial, dev, 256)


class TestAutotuneLease:
    def test_loser_adopts_the_winners_result(self, tmp_path):
        dev, args = _tune_args()
        adopted = CachedResult(
            work_div=WorkDivMembers(Vec(32), Vec(1), Vec(8)),
            seconds=3e-6,
            strategy="random",
            source="modeled",
        )
        stub = _StubCache(str(tmp_path / "c.json"), adopted=adopted)
        res = autotune(_Kern(), AccCpuSerial, 256, args, device=dev, cache=stub)
        assert res.strategy == "cache"
        assert res.from_cache
        assert res.measurements == 0
        assert res.launches == 0
        assert res.work_div.block_thread_extent == adopted.work_div.block_thread_extent
        assert res.work_div.thread_elem_extent == adopted.work_div.thread_elem_extent

    def test_waited_out_loser_gets_the_heuristic(self, tmp_path, monkeypatch):
        from repro import divide_work

        _wait_seconds(monkeypatch, 0.1)
        dev, args = _tune_args()
        path = str(tmp_path / "c.json")
        holder = TuningCache(path)
        _, lease = holder.acquire(_key(dev), _any)
        with lease:
            res = _tune(dev, args, cache=TuningCache(path))
        assert res.strategy == "heuristic"
        assert res.measurements == 0
        assert res.launches == 0
        props = AccCpuSerial.get_acc_dev_props(dev).for_dim(1)
        assert res.work_div == divide_work(
            256, props, AccCpuSerial.mapping_strategy
        )

    def test_winner_saves_under_the_lease(self, tmp_path):
        dev, args = _tune_args()
        stub = _StubCache(str(tmp_path / "c.json"), lease=_StubLease())
        res = _tune(dev, args, cache=stub)
        assert not res.from_cache
        assert stub.saved_under_lease == [True]  # saved under the lease...
        assert stub.lease.closed  # ...which the with block then closed
        entry = TuningCache(stub.path).get_key(res.cache_key)
        assert entry.work_div == res.work_div
        # Fresh measurements are stamped so merge conflicts resolve to
        # the newest entry across processes.
        assert entry.measured_at > 0

    def test_failed_search_releases_the_lease(self, tmp_path):
        dev, args = _tune_args()
        path = str(tmp_path / "c.json")
        with pytest.raises(ValueError):
            autotune(
                _Kern(), AccCpuSerial, 256, args, device=dev, strategy="nope",
                cache=TuningCache(path),
            )
        lease = flock(lease_path(path, _key(dev)), wait=False)
        assert lease is not None
        lease.close()
        assert not os.path.exists(path)  # nothing saved

    def test_tune_schedule_gap_measures_instead_of_starving(self, tmp_path):
        """Regression: a schedule-less shared entry used to starve
        tune_schedule callers on the heuristic forever; such an entry is
        no answer, so they take the lease and measure."""
        dev, args = _tune_args()
        schedule_less = CachedResult(
            work_div=WorkDivMembers(Vec(32), Vec(1), Vec(8)),
            seconds=3e-6,
            strategy="random",
            source="modeled",
        )
        stub = _StubCache(
            str(tmp_path / "c.json"), lease=_StubLease(), adopted=schedule_less
        )
        res = _tune(dev, args, tune_schedule=True, cache=stub)
        assert res.strategy != "heuristic"
        assert not res.from_cache
        assert res.measurements >= 1
        # The re-measured entry is saved back under the lease.
        assert stub.saved_under_lease == [True]
        assert stub.get_key(res.cache_key).work_div == res.work_div

    def test_single_process_miss_frees_the_lease_and_never_waits(
        self, isolated_cache
    ):
        from repro import telemetry

        dev, args = _tune_args()
        with telemetry.collect() as t:
            res = _tune(dev, args)
        assert not res.from_cache
        assert res.measurements >= 1
        assert isolated_cache.exists()  # saved under the lease
        names = {
            e["name"]
            for e in telemetry.to_chrome_trace(t)["traceEvents"]
            if e.get("cat") == "tuning"
        }
        assert "tuning.lease" in names and "tuning.wait" not in names
        # The lease is free once the entry is saved, and a sibling adopts.
        lease = flock(lease_path(str(isolated_cache), res.cache_key), wait=False)
        assert lease is not None
        lease.close()
        sibling = TuningCache(str(isolated_cache))
        assert sibling.acquire(res.cache_key, _any) == (
            sibling.get_key(res.cache_key), None
        )

    def test_without_flock_autotune_measures_and_saves(
        self, monkeypatch, isolated_cache
    ):
        """A host without fcntl has no lease: the call measures and
        saves unleased, as the cache's file lock degrades."""
        monkeypatch.setattr(cache_mod, "fcntl", None)
        dev, args = _tune_args()
        res = _tune(dev, args)
        assert not res.from_cache
        assert res.measurements >= 1
        assert TuningCache(str(isolated_cache)).get_key(res.cache_key) is not None
        assert glob.glob(str(isolated_cache) + ".*.lease") == []


# The holder runs autotune on a library kernel, so its key is the one
# the test process computes; its search never returns.
HOLDER = """\
import sys
import threading

import repro.tuning as tuning
from repro import AccCpuSerial, autotune, get_dev_by_idx, mem
from repro.kernels import AxpyKernel


def hold(*args, **kwargs):
    print("holding", flush=True)
    threading.Event().wait()


tuning.run_search = hold
dev = get_dev_by_idx(AccCpuSerial)
n = int(sys.argv[1])
autotune(AxpyKernel(), AccCpuSerial, n, (n, 2.0, mem.alloc(dev, n), mem.alloc(dev, n)),
         device=dev, strategy="random", budget=2)
"""


class TestDeadHolder:
    """ROADMAP aim 3's "a lease holder that dies": the kernel frees a
    dead holder's lease, so a sibling measures at once instead of
    waiting the holder out and answering with the heuristic."""

    def test_killed_holder_frees_the_lease_at_once(
        self, monkeypatch, tmp_path, isolated_cache
    ):
        from repro import mem
        from repro.kernels import AxpyKernel

        _wait_seconds(monkeypatch, 30.0)
        script = tmp_path / "holder.py"
        script.write_text(HOLDER)
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
        )
        n = 256
        holder = subprocess.Popen(
            [sys.executable, str(script), str(n)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = holder.stdout.readline().strip()
        finally:
            holder.kill()
            _, err = holder.communicate(timeout=30)
        assert line == "holding", err
        killed = time.monotonic()

        dev = get_dev_by_idx(AccCpuSerial)
        x, y = mem.alloc(dev, n), mem.alloc(dev, n)
        res = autotune(
            AxpyKernel(), AccCpuSerial, n, (n, 2.0, x, y), device=dev,
            cache=TuningCache(str(isolated_cache)), strategy="random", budget=2,
        )
        assert res.strategy != "heuristic"
        assert res.measurements > 0
        assert time.monotonic() - killed < 2.0


class TestTwoWorkers:
    """Two in-process workers with their own views of one file: the one
    that wins the lease measures, the other waits and adopts its entry
    as a cache hit."""

    def test_winner_measures_and_loser_adopts(self, monkeypatch, isolated_cache):
        import repro.tuning as tuning
        from repro import ExecutionObserver, observe

        # Hold the winner inside its search, lease held, until the loser
        # has lost the lease race and waits for the winner's save.
        searching, waiting, finish = (threading.Event() for _ in range(3))
        search = tuning.run_search

        def held_search(*a, **kw):
            searching.set()
            assert finish.wait(timeout=10.0)
            return search(*a, **kw)

        class LoserLeases(ExecutionObserver):
            # The loser's lease attempt closing means it lost the race:
            # its next step is the wait.
            def on_span_end(self, span):
                if span.name == "tuning.lease" and (
                    threading.current_thread().name == "loser"
                ):
                    waiting.set()

        monkeypatch.setattr(tuning, "run_search", held_search)
        dev, args = _tune_args()
        results = {}

        def worker(role):
            # Each worker has its own view of the shared file, as two
            # processes would.
            results[role] = _tune(dev, args, cache=TuningCache(str(isolated_cache)))

        with observe(LoserLeases()):
            winner = threading.Thread(target=worker, args=("winner",))
            winner.start()
            assert searching.wait(timeout=10.0)
            loser = threading.Thread(target=worker, args=("loser",), name="loser")
            loser.start()
            assert waiting.wait(timeout=10.0)
            finish.set()
            winner.join(timeout=10.0)
            loser.join(timeout=10.0)
        assert results["winner"].strategy == "random"
        assert results["winner"].measurements >= 1
        loser = results["loser"]
        assert (loser.strategy, loser.from_cache, loser.measurements) == ("cache", True, 0)
        assert loser.work_div == results["winner"].work_div


class TestLeaseObservability:
    """Lease ops are spans and flight-recorder events in the calling
    worker, stamped with its trace ids; wait time lands in the report's
    span table."""

    def test_autotune_records_spans_and_ring_events(self, monkeypatch, tmp_path):
        from repro import telemetry
        from repro.telemetry import flight, tracing

        _wait_seconds(monkeypatch, 0.1)
        dev, args = _tune_args()
        path = str(tmp_path / "c.json")
        _, held = TuningCache(path).acquire(_key(dev), _any)
        rec = flight.activate(str(tmp_path / "flight"))
        root = tracing.new_trace()
        try:
            with held, telemetry.collect() as t, tracing.use(root):
                # The lease is held elsewhere: this call waits it out.
                _tune(dev, args, cache=TuningCache(path))
            ring = rec.events()
        finally:
            flight.deactivate()
        spans = {
            e["name"]: e["args"]
            for e in telemetry.to_chrome_trace(t)["traceEvents"]
            if e.get("cat") == "tuning"
        }
        assert set(spans) == {"tuning.lease", "tuning.wait"}
        kinds = {e["kind"]: e for e in ring if e.get("cat") == "tuning"}
        assert set(kinds) == {"tuning.lease", "tuning.wait"}
        for kind in kinds:
            assert spans[kind]["trace_id"] == root.trace_id
            assert kinds[kind]["trace_id"] == root.trace_id
            assert kinds[kind]["key"] == _key(dev)
        assert "tuning/tuning.wait" in telemetry.render(t)
