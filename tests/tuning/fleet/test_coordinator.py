"""Coordinator contract: fetch / acquire / publish over flock leases and
the shared cache, plus the autotune() integration seams."""

import glob
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.telemetry.metrics import registry, reset_registry
from repro.tuning import TuningCache
from repro.tuning.cache import CachedResult
from repro.tuning.fleet.config import FLEET_ENV, FleetConfig, FleetConfigError
from repro.tuning.fleet.coordinator import (
    FleetCoordinator,
    lease_path,
    maybe_coordinator,
    reset_coordinator,
)

KEY = "k|AccCpuSerial|m:cpu:1x4@3GHz|1024"
ENTRY = CachedResult(
    work_div=WorkDivMembers(Vec(8), Vec(1), Vec(4)),
    seconds=2e-6,
    strategy="random",
    source="modeled",
)


def _cfg(**kwargs):
    defaults = dict(mode="lock", wait_timeout=5.0, poll_interval=0.01)
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def _pair(tmp_path, config=None):
    """Two coordinators over the same file = two worker processes."""
    cfg = config or _cfg()
    path = str(tmp_path / "cache.json")
    a = FleetCoordinator(TuningCache(path), cfg)
    b = FleetCoordinator(TuningCache(path), cfg)
    return a, b


def _any(entry):
    return True


def _count(name, **labels):
    """Sum of the process registry's ``name`` counters matching labels."""
    want = set(labels.items())
    return sum(
        c.value for c in registry().instruments(name) if want <= set(c.labels)
    )


def _acquire_in_thread(coord, monkeypatch):
    """Run ``coord.acquire(KEY)`` on a thread; returns (thread, results)
    once the thread has lost the lease race (its first cache read)."""
    looked = threading.Event()
    reload = coord.cache.reload

    def watched_reload():
        looked.set()
        return reload()

    monkeypatch.setattr(coord.cache, "reload", watched_reload)
    got = []
    t = threading.Thread(target=lambda: got.append(coord.acquire(KEY, _any)))
    t.start()
    assert looked.wait(timeout=5.0)
    return t, got


class TestFileLock:
    def test_fetch_miss_then_published_hit(self, tmp_path):
        a, b = _pair(tmp_path)
        assert b.fetch(KEY) is None
        entry, lease = a.acquire(KEY, _any)
        assert entry is None and lease is not None
        with lease:
            a.publish(KEY, ENTRY)
        # B has its own TuningCache object: only a *fresh* read sees it.
        assert b.fetch(KEY) == ENTRY

    def test_only_one_lease_granted(self, tmp_path):
        a, b = _pair(tmp_path, _cfg(wait_timeout=0.05))
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
        assert glob.glob(str(tmp_path / "*.lease")) == [
            lease_path(a.cache.path, KEY)
        ]

    def test_lease_after_publish_is_denied(self, tmp_path):
        """The re-check under the lease: a worker whose cache view
        predates the holder's publish must not win the now-free lease
        and re-measure."""
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            a.publish(KEY, ENTRY)
        assert b.acquire(KEY, _any) == (ENTRY, None)
        assert b.cache.get_key(KEY) == ENTRY  # the re-check adopted it

    def test_unusable_entry_means_take_the_lease(self, tmp_path):
        """An entry the caller cannot use (no schedule for a
        tune_schedule caller) is no answer: the caller measures under
        the lease, it does not wait on it."""
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        with lease:
            a.publish(KEY, ENTRY)
        entry, lease = b.acquire(KEY, lambda e: e.schedule is not None)
        assert entry is None and lease is not None
        lease.close()

    def test_waiter_adopts_on_publish(self, tmp_path, monkeypatch):
        a, b = _pair(tmp_path)
        _, lease = a.acquire(KEY, _any)
        t, got = _acquire_in_thread(b, monkeypatch)
        with lease:
            a.publish(KEY, ENTRY)
        t.join(timeout=5.0)
        assert got == [(ENTRY, None)]
        assert b.cache.get_key(KEY) == ENTRY

    def test_released_lease_passes_to_the_waiter(self, tmp_path, monkeypatch):
        """A holder that gives up without publishing hands the lease
        on at once: no 30 s wait ridden out, no heuristic answer."""
        a, b = _pair(tmp_path, _cfg(wait_timeout=30.0))
        _, lease = a.acquire(KEY, _any)
        t, got = _acquire_in_thread(b, monkeypatch)
        started = time.monotonic()
        lease.close()
        t.join(timeout=5.0)
        assert time.monotonic() - started < 5.0
        (entry, again), = got
        assert entry is None and again is not None
        again.close()

    def test_wait_times_out_while_the_holder_lives(self, tmp_path):
        a, b = _pair(tmp_path, _cfg(wait_timeout=0.2))
        _, lease = a.acquire(KEY, _any)
        with lease:
            started = time.monotonic()
            assert b.acquire(KEY, _any) == (None, None)
            assert time.monotonic() - started >= 0.2

    def test_lock_mode_needs_flock(self, tmp_path, monkeypatch):
        """Without fcntl the fleet refuses to run rather than silently
        coordinating nothing."""
        import repro.tuning.cache as cache_mod

        monkeypatch.setattr(cache_mod, "fcntl", None)
        with pytest.raises(FleetConfigError, match="flock"):
            FleetCoordinator(TuningCache(str(tmp_path / "c.json")), _cfg())


class TestMaybeCoordinator:
    def test_off_by_default(self, tmp_path):
        # conftest clears REPRO_TUNING_FLEET for every test.
        assert maybe_coordinator(TuningCache(str(tmp_path / "c.json"))) is None

    def test_lock_mode_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLEET_ENV, "lock")
        cache = TuningCache(str(tmp_path / "c.json"))
        coord = maybe_coordinator(cache)
        assert isinstance(coord, FleetCoordinator)
        # Process-wide singleton for the same cache.
        assert maybe_coordinator(cache) is coord
        reset_coordinator()
        assert maybe_coordinator(cache) is not coord


class _StubLease:
    closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True


class _StubFleet:
    """Scripted coordinator for driving autotune()'s fleet paths: hands
    out ``adopted`` when the caller can use it, else ``lease``."""

    mode = "stub"

    def __init__(self, lease=None, adopted=None):
        self.lease = lease
        self.adopted = adopted
        self.published = []

    def fetch(self, key):
        return None

    def acquire(self, key, usable):
        if self.adopted is not None and usable(self.adopted):
            return self.adopted, None
        return None, self.lease

    def publish(self, key, result):
        # Recorded with whether the lease was still held at the put.
        self.published.append((key, result, not self.lease.closed))


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


class TestAutotuneIntegration:
    def _patch(self, monkeypatch, stub):
        import repro.tuning.fleet.coordinator as coord_mod

        monkeypatch.setattr(
            coord_mod, "maybe_coordinator", lambda cache, config=None: stub
        )

    def test_loser_adopts_the_winners_result(self, monkeypatch):
        dev, args = _tune_args()
        adopted = CachedResult(
            work_div=WorkDivMembers(Vec(32), Vec(1), Vec(8)),
            seconds=3e-6,
            strategy="random",
            source="modeled",
        )
        stub = _StubFleet(adopted=adopted)
        self._patch(monkeypatch, stub)
        res = autotune(_Kern(), AccCpuSerial, 256, args, device=dev)
        assert res.strategy == "fleet"
        assert res.from_cache
        assert res.measurements == 0
        assert res.launches == 0
        assert res.work_div.block_thread_extent == adopted.work_div.block_thread_extent
        assert res.work_div.thread_elem_extent == adopted.work_div.thread_elem_extent

    def test_waited_out_loser_gets_the_heuristic(self, monkeypatch):
        from repro import divide_work

        dev, args = _tune_args()
        stub = _StubFleet()
        self._patch(monkeypatch, stub)
        res = autotune(_Kern(), AccCpuSerial, 256, args, device=dev)
        assert res.strategy == "fleet-heuristic"
        assert res.measurements == 0
        assert res.launches == 0
        props = AccCpuSerial.get_acc_dev_props(dev).for_dim(1)
        assert res.work_div == divide_work(
            256, props, AccCpuSerial.mapping_strategy
        )

    def test_winner_publishes_through_the_fleet(self, monkeypatch):
        dev, args = _tune_args()
        stub = _StubFleet(lease=_StubLease())
        self._patch(monkeypatch, stub)
        res = _tune(dev, args)
        assert not res.from_cache
        assert len(stub.published) == 1
        key, entry, held = stub.published[0]
        assert key == res.cache_key
        assert held  # published under the lease...
        assert stub.lease.closed  # ...which the with block then closed
        assert entry.work_div == res.work_div
        # Fresh measurements are stamped so merge conflicts resolve to
        # the newest entry fleet-wide.
        assert entry.measured_at > 0

    def test_failed_search_releases_the_lease(self, monkeypatch):
        dev, args = _tune_args()
        stub = _StubFleet(lease=_StubLease())
        self._patch(monkeypatch, stub)
        with pytest.raises(ValueError):
            autotune(
                _Kern(), AccCpuSerial, 256, args, device=dev, strategy="nope"
            )
        assert stub.lease.closed
        assert stub.published == []

    def test_tune_schedule_gap_measures_instead_of_starving(self, monkeypatch):
        """Regression: a schedule-less fleet entry used to starve
        tune_schedule callers on the fleet-heuristic forever; such an
        entry is no answer, so they take the lease and measure."""
        dev, args = _tune_args()
        schedule_less = CachedResult(
            work_div=WorkDivMembers(Vec(32), Vec(1), Vec(8)),
            seconds=3e-6,
            strategy="random",
            source="modeled",
        )
        stub = _StubFleet(lease=_StubLease(), adopted=schedule_less)
        self._patch(monkeypatch, stub)
        res = _tune(dev, args, tune_schedule=True)
        assert res.strategy != "fleet-heuristic"
        assert not res.from_cache
        assert res.measurements >= 1
        # The re-measured entry is published back under the lease.
        assert len(stub.published) == 1
        _, entry, held = stub.published[0]
        assert held
        assert entry.work_div == res.work_div

    def test_lock_mode_end_to_end_single_process(self, monkeypatch, tmp_path, isolated_cache):
        monkeypatch.setenv(FLEET_ENV, "lock")
        dev, args = _tune_args()
        res = _tune(dev, args)
        assert not res.from_cache
        assert res.measurements >= 1
        assert isolated_cache.exists()  # publish() persisted
        # The lease is free once the measurement is published.
        lease = lease_path(str(isolated_cache), res.cache_key)
        sibling = FleetCoordinator(TuningCache(str(isolated_cache)), _cfg())
        entry, again = sibling.acquire(res.cache_key, _any)
        assert again is None and entry is not None  # a sibling adopts it
        assert os.path.exists(lease)


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
    waiting ``wait_timeout`` out and answering with the heuristic."""

    def test_killed_holder_frees_the_lease_at_once(
        self, monkeypatch, tmp_path, isolated_cache
    ):
        import repro.tuning.fleet.coordinator as coord_mod
        from repro import mem
        from repro.kernels import AxpyKernel

        monkeypatch.setenv(FLEET_ENV, "lock")
        script = tmp_path / "holder.py"
        script.write_text(HOLDER)
        repo = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        )
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

        cache = TuningCache(str(isolated_cache))
        fleet = FleetCoordinator(cache, _cfg(wait_timeout=30.0))
        monkeypatch.setattr(
            coord_mod, "maybe_coordinator", lambda cache, config=None: fleet
        )
        dev = get_dev_by_idx(AccCpuSerial)
        x, y = mem.alloc(dev, n), mem.alloc(dev, n)
        res = autotune(
            AxpyKernel(), AccCpuSerial, n, (n, 2.0, x, y), device=dev,
            cache=cache, strategy="random", budget=2,
        )
        assert res.strategy != "fleet-heuristic"
        assert res.measurements > 0
        assert time.monotonic() - killed < 2.0


class TestFleetCounters:
    """The fleet table's ``measured`` and ``adopted`` columns count: a
    fleet autotune that runs the search is one measurement, one that
    answers ``strategy="fleet"`` is one adoption."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        reset_registry()
        yield
        reset_registry()

    def test_winner_measures_and_loser_adopts(self, monkeypatch, isolated_cache):
        import repro.tuning as tuning
        import repro.tuning.fleet.coordinator as coord_mod
        from repro import telemetry

        monkeypatch.setenv(FLEET_ENV, "lock")
        # Hold the winner inside its search, lease held, until the loser
        # has lost the lease race and waits for the winner's publish.
        searching, waiting, finish = (threading.Event() for _ in range(3))
        search, record = tuning.run_search, coord_mod.flight.maybe_record

        def held_search(*a, **kw):
            searching.set()
            assert finish.wait(timeout=10.0)
            return search(*a, **kw)

        def watched_record(kind, **fields):
            if kind == "fleet_wait":
                waiting.set()
            record(kind, **fields)

        monkeypatch.setattr(tuning, "run_search", held_search)
        monkeypatch.setattr(coord_mod.flight, "maybe_record", watched_record)
        dev, args = _tune_args()
        results = {}

        def worker(role):
            # Each worker has its own view of the shared file, as two
            # processes would.
            results[role] = _tune(dev, args, cache=TuningCache(str(isolated_cache)))

        winner = threading.Thread(target=worker, args=("winner",))
        winner.start()
        assert searching.wait(timeout=10.0)
        loser = threading.Thread(target=worker, args=("loser",))
        loser.start()
        assert waiting.wait(timeout=10.0)
        finish.set()
        winner.join(timeout=10.0)
        loser.join(timeout=10.0)
        assert results["winner"].strategy == "random"
        assert results["loser"].strategy == "fleet"
        assert _count("repro_tuning_fleet_measurements_total", mode="lock") == 1
        assert _count("repro_tuning_fleet_adopted_total", mode="lock") == 1

        # The report's fleet table renders both numbers.
        with telemetry.collect(registry=registry()) as t:
            pass
        lines = telemetry.render(t).split("Tuning fleet")[1].splitlines()
        header = [c.strip() for c in lines[1].split("|")]
        row = dict(zip(header, (c.strip() for c in lines[3].split("|"))))
        assert (row["mode"], row["measured"], row["adopted"]) == ("lock", "1", "1")
        assert (row["leases won"], row["leases lost"]) == ("1", "1")


class TestFleetObservability:
    """Fleet ops are spans and flight-recorder events in the calling
    worker, stamped with its trace ids."""

    def test_lock_autotune_records_spans_and_ring_events(
        self, monkeypatch, tmp_path
    ):
        from repro import telemetry
        from repro.telemetry import flight, tracing

        monkeypatch.setenv(FLEET_ENV, "lock")
        rec = flight.activate(str(tmp_path / "flight"))
        root = tracing.new_trace()
        dev, args = _tune_args()
        try:
            with telemetry.collect() as t, tracing.use(root):
                _tune(dev, args)
            ring = rec.events()
        finally:
            flight.deactivate()
        spans = {e.name: e for e in t.events if e.cat == "fleet"}
        assert {"fleet.get", "fleet.lease", "fleet.put"} <= set(spans)
        assert spans["fleet.lease"].args["trace_id"] == root.trace_id
        kinds = {e["kind"]: e for e in ring if e["kind"].startswith("fleet_")}
        assert {"fleet_lease", "fleet_put"} <= set(kinds)
        for kind in ("fleet_lease", "fleet_put"):
            assert kinds[kind]["trace_id"] == root.trace_id
            assert kinds[kind]["key"] == spans["fleet.lease"].args["key"]
