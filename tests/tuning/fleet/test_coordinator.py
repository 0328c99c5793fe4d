"""Coordinator contract: fetch / lease / publish / wait over lease files
and the shared cache, plus the autotune() integration seams."""

import glob
import threading
import time

import pytest

from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.telemetry.metrics import registry, reset_registry
from repro.tuning import TuningCache
from repro.tuning.cache import CachedResult
from repro.tuning.fleet.config import FLEET_ENV, FleetConfig
from repro.tuning.fleet.coordinator import (
    FleetCoordinator,
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


def _count(name, **labels):
    """Sum of the process registry's ``name`` counters matching labels."""
    want = set(labels.items())
    return sum(
        c.value for c in registry().instruments(name) if want <= set(c.labels)
    )


class TestFileLock:
    def test_fetch_miss_then_published_hit(self, tmp_path):
        a, b = _pair(tmp_path)
        assert b.fetch(KEY) is None
        token = a.try_lease(KEY)
        assert token is not None
        a.publish(KEY, ENTRY, token=token)
        # B has its own TuningCache object: only a *fresh* read sees it.
        assert b.fetch(KEY) == ENTRY

    def test_only_one_lease_granted(self, tmp_path):
        a, b = _pair(tmp_path)
        assert a.try_lease(KEY) is not None
        assert b.try_lease(KEY) is None

    def test_publish_releases_the_lease(self, tmp_path):
        a, b = _pair(tmp_path)
        token = a.try_lease(KEY)
        a.publish(KEY, ENTRY, token=token)
        assert glob.glob(str(tmp_path / "*.lease")) == []

    def test_lease_after_publish_is_denied(self, tmp_path):
        """The post-acquire re-check: a worker whose cache view predates
        the winner's publish must not win the now-free lease and
        re-measure."""
        a, b = _pair(tmp_path)
        token = a.try_lease(KEY)
        a.publish(KEY, ENTRY, token=token)
        assert b.try_lease(KEY) is None
        assert b.cache.get_key(KEY) == ENTRY  # the re-check adopted it

    def test_wait_for_resolves_on_publish(self, tmp_path, monkeypatch):
        a, b = _pair(tmp_path)
        token = a.try_lease(KEY)
        polling = threading.Event()
        reload = b.cache.reload

        def watched_reload():
            polling.set()
            return reload()

        monkeypatch.setattr(b.cache, "reload", watched_reload)
        got = []
        t = threading.Thread(target=lambda: got.append(b.wait_for(KEY, 5.0)))
        t.start()
        assert polling.wait(timeout=5.0)  # b is inside wait_for
        a.publish(KEY, ENTRY, token=token)
        t.join(timeout=5.0)
        assert got == [ENTRY]
        assert b.cache.get_key(KEY) == ENTRY

    def test_wait_for_abandoned_returns_early(self, tmp_path):
        a, b = _pair(tmp_path, _cfg(wait_timeout=30.0))
        token = a.try_lease(KEY)
        a.release(KEY, token)  # gave up without publishing
        started = time.monotonic()
        assert b.wait_for(KEY) is None
        assert time.monotonic() - started < 5.0  # no 30 s timeout ridden out

    def test_wait_for_times_out_while_holder_lives(self, tmp_path):
        a, b = _pair(tmp_path)
        a.try_lease(KEY)  # held, never published
        started = time.monotonic()
        assert b.wait_for(KEY, timeout=0.2) is None
        assert time.monotonic() - started >= 0.2

    def test_release_without_token_is_noop(self, tmp_path):
        a, _ = _pair(tmp_path)
        a.release(KEY, None)  # must not raise

    def test_uncoordinated_put_leaves_the_holder_alone(self, tmp_path):
        """A token-less publish (a schedule-gap re-measure) stores the
        entry but does not cancel a sibling still measuring."""
        a, b = _pair(tmp_path)
        token = a.try_lease(KEY)
        b.publish(KEY, ENTRY)
        assert a.fetch(KEY) == ENTRY
        assert glob.glob(str(tmp_path / "*.lease")) == [token.path]


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


class _StubFleet:
    """Scripted coordinator for driving autotune()'s fallback paths."""

    mode = "stub"

    def __init__(self, lease_results, wait_result=None):
        self.lease_results = list(lease_results)
        self.wait_result = wait_result
        self.released = []
        self.published = []

    def fetch(self, key):
        return None

    def try_lease(self, key):
        return self.lease_results.pop(0) if self.lease_results else None

    def wait_for(self, key, timeout=None):
        return self.wait_result

    def release(self, key, token):
        self.released.append((key, token))

    def publish(self, key, result, token=None):
        self.published.append((key, result, token))


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
        stub = _StubFleet(lease_results=[None], wait_result=adopted)
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
        stub = _StubFleet(lease_results=[None, None], wait_result=None)
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
        stub = _StubFleet(lease_results=["tok-1"])
        self._patch(monkeypatch, stub)
        res = _tune(dev, args)
        assert not res.from_cache
        assert len(stub.published) == 1
        key, entry, token = stub.published[0]
        assert key == res.cache_key
        assert token == "tok-1"
        assert entry.work_div == res.work_div
        # Fresh measurements are stamped so merge conflicts resolve to
        # the newest entry fleet-wide.
        assert entry.measured_at > 0

    def test_failed_search_releases_the_lease(self, monkeypatch):
        dev, args = _tune_args()
        stub = _StubFleet(lease_results=["tok-1"])
        self._patch(monkeypatch, stub)
        with pytest.raises(ValueError):
            autotune(
                _Kern(), AccCpuSerial, 256, args, device=dev, strategy="nope"
            )
        assert stub.released == [(TuningCache.key(_Kern(), AccCpuSerial, get_dev_by_idx(AccCpuSerial), 256), "tok-1")]
        assert stub.published == []

    def test_tune_schedule_gap_measures_instead_of_starving(self, monkeypatch):
        """Regression: a schedule-less fleet entry plus the lease denial
        on an already-cached key used to starve tune_schedule callers on
        the fleet-heuristic forever; they must measure locally."""
        dev, args = _tune_args()
        schedule_less = CachedResult(
            work_div=WorkDivMembers(Vec(32), Vec(1), Vec(8)),
            seconds=3e-6,
            strategy="random",
            source="modeled",
        )
        stub = _StubFleet(lease_results=[None], wait_result=schedule_less)
        self._patch(monkeypatch, stub)
        res = _tune(dev, args, tune_schedule=True)
        assert res.strategy != "fleet-heuristic"
        assert not res.from_cache
        assert res.measurements >= 1
        # The re-measured entry is published back, uncoordinated
        # (token=None) — stored without touching any holder's lease.
        assert len(stub.published) == 1
        _, entry, token = stub.published[0]
        assert token is None
        assert entry.work_div == res.work_div

    def test_lock_mode_end_to_end_single_process(self, monkeypatch, tmp_path, isolated_cache):
        monkeypatch.setenv(FLEET_ENV, "lock")
        dev, args = _tune_args()
        res = _tune(dev, args)
        assert not res.from_cache
        assert res.measurements >= 1
        assert isolated_cache.exists()  # publish() persisted
        # No lease litter once the measurement is published.
        assert glob.glob(str(isolated_cache) + ".*.lease") == []
        # A "sibling process" (fresh cache object) sees the entry.
        sibling = TuningCache(str(isolated_cache))
        assert sibling.get_key(res.cache_key) is not None


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
        from repro import telemetry

        monkeypatch.setenv(FLEET_ENV, "lock")
        # Hold the winner inside its search, lease held, until the loser
        # has lost the lease race and waits for the winner's publish.
        searching, waiting, finish = (threading.Event() for _ in range(3))
        search, wait_for = tuning.run_search, FleetCoordinator.wait_for

        def held_search(*a, **kw):
            searching.set()
            assert finish.wait(timeout=10.0)
            return search(*a, **kw)

        def watched_wait_for(*a, **kw):
            waiting.set()
            return wait_for(*a, **kw)

        monkeypatch.setattr(tuning, "run_search", held_search)
        monkeypatch.setattr(FleetCoordinator, "wait_for", watched_wait_for)
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


class _Beats:
    """Stub fleet whose refresh sets an event (and optionally fails)."""

    config = _cfg(mode="lock", lease_timeout=0.3)

    def __init__(self, error=None):
        self.error = error
        self.refreshed = []
        self.beat = threading.Event()

    def refresh(self, key, token):
        self.refreshed.append((key, token))
        self.beat.set()
        if self.error is not None:
            raise self.error


def _heartbeat_threads():
    return [t for t in threading.enumerate() if t.name == "tuning-lease-heartbeat"]


class TestLeaseHeartbeat:
    """A held lease is refreshed while the measurement runs, so tuning
    runs longer than lease_timeout are not broken mid-measurement."""

    def test_heartbeat_refreshes_while_measuring(self):
        from repro.tuning import _lease_heartbeat

        fleet = _Beats()
        with _lease_heartbeat(fleet, "key", "tok"):
            assert fleet.beat.wait(timeout=5.0)
        assert ("key", "tok") in fleet.refreshed
        # Stopped with the context: the beat thread is gone.
        assert _heartbeat_threads() == []

    def test_refresh_failure_ends_the_heartbeat_quietly(self):
        from repro.tuning import _lease_heartbeat

        fleet = _Beats(error=OSError("lease directory gone"))
        with _lease_heartbeat(fleet, "key", "tok"):
            assert fleet.beat.wait(timeout=5.0)
            # The beat thread swallows the error and ends on its own,
            # while the context is still open.
            for thread in _heartbeat_threads():
                thread.join(timeout=5.0)
            assert _heartbeat_threads() == []
        assert fleet.refreshed == [("key", "tok")]

    def test_no_heartbeat_without_a_lease(self):
        from repro.tuning import _lease_heartbeat

        with _lease_heartbeat(None, "key", None):
            assert _heartbeat_threads() == []
