"""Coordinator contract: fetch / lease / publish / wait across both
transports, plus the autotune() integration seams."""

import glob
import threading
import time

import pytest

from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx
from repro.core.errors import TuningFleetError
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.tuning import TuningCache
from repro.tuning.cache import CachedResult
from repro.tuning.fleet.config import FLEET_ENV, FleetConfig
from repro.tuning.fleet.coordinator import (
    DaemonCoordinator,
    FileLockCoordinator,
    maybe_coordinator,
    reset_coordinator,
)
from repro.tuning.fleet.daemon import FleetDaemon

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
    a = FileLockCoordinator(TuningCache(path), cfg)
    b = FileLockCoordinator(TuningCache(path), cfg)
    return a, b


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

    def test_wait_for_resolves_on_publish(self, tmp_path):
        a, b = _pair(tmp_path)
        token = a.try_lease(KEY)
        got = []

        def waiter():
            got.append(b.wait_for(KEY, timeout=5.0))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
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


class TestDaemonTransport:
    @pytest.fixture()
    def daemon(self, tmp_path):
        d = FleetDaemon(
            _cfg(mode="daemon"),
            cache_path=str(tmp_path / "daemon-cache.json"),
            host="127.0.0.1",
            port=0,
        )
        host, port = d.start()
        yield d, _cfg(mode="daemon", host=host, port=port)
        d.shutdown()

    def _coord(self, tmp_path, cfg, name):
        return DaemonCoordinator(TuningCache(str(tmp_path / name)), cfg)

    def test_lease_publish_fetch_roundtrip(self, tmp_path, daemon):
        _, cfg = daemon
        a = self._coord(tmp_path, cfg, "worker-a.json")
        b = self._coord(tmp_path, cfg, "worker-b.json")
        try:
            assert b.fetch(KEY) is None
            token = a.try_lease(KEY)
            assert token is not None
            assert b.try_lease(KEY) is None
            a.publish(KEY, ENTRY, token=token)
            assert b.fetch(KEY) == ENTRY
            # fetch() adopts: the launch path reads locally, no socket.
            assert b.cache.get_key(KEY) == ENTRY
        finally:
            a.close()
            b.close()

    def test_wait_for_is_push_not_poll(self, tmp_path, daemon):
        _, cfg = daemon
        a = self._coord(tmp_path, cfg, "worker-a.json")
        b = self._coord(tmp_path, cfg, "worker-b.json")
        try:
            token = a.try_lease(KEY)
            got = []
            t = threading.Thread(
                target=lambda: got.append(b.wait_for(KEY, timeout=10.0))
            )
            t.start()
            deadline = time.monotonic() + 5.0
            while a._client.stats()["waiting"] != 1:  # b is parked
                assert time.monotonic() < deadline, "the wait never parked"
                time.sleep(0.005)
            started = time.monotonic()
            a.publish(KEY, ENTRY, token=token)
            t.join(timeout=5.0)
            assert got == [ENTRY]
            # The waiter unblocked on the publish, not on a timeout.
            assert time.monotonic() - started < 5.0
        finally:
            a.close()
            b.close()


class TestMaybeCoordinator:
    def test_off_by_default(self, tmp_path):
        # conftest clears REPRO_TUNING_FLEET for every test.
        assert maybe_coordinator(TuningCache(str(tmp_path / "c.json"))) is None

    def test_lock_mode_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FLEET_ENV, "lock")
        cache = TuningCache(str(tmp_path / "c.json"))
        coord = maybe_coordinator(cache)
        assert isinstance(coord, FileLockCoordinator)
        # Process-wide singleton for the same cache.
        assert maybe_coordinator(cache) is coord
        reset_coordinator()
        assert maybe_coordinator(cache) is not coord

    def test_unreachable_daemon_degrades_to_none(self, tmp_path):
        cfg = _cfg(mode="daemon", host="127.0.0.1", port=1, io_timeout=0.5)
        assert maybe_coordinator(TuningCache(str(tmp_path / "c.json")), cfg) is None


class _StubFleet:
    """Scripted coordinator for driving autotune()'s fallback paths."""

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


class _DyingFleet(_StubFleet):
    """A coordinator whose transport died after construction: the named
    ops raise TuningFleetError mid-conversation."""

    def __init__(self, dies_on, **kwargs):
        super().__init__(**kwargs)
        self.dies_on = set(dies_on)

    def _maybe_die(self, op):
        if op in self.dies_on:
            raise TuningFleetError(f"daemon gone ({op})")

    def fetch(self, key):
        self._maybe_die("fetch")
        return super().fetch(key)

    def try_lease(self, key):
        self._maybe_die("try_lease")
        return super().try_lease(key)

    def wait_for(self, key, timeout=None):
        self._maybe_die("wait_for")
        return super().wait_for(key, timeout)

    def publish(self, key, result, token=None):
        self._maybe_die("publish")
        return super().publish(key, result, token)


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
        res = autotune(
            _Kern(), AccCpuSerial, 256, args, device=dev,
            strategy="random", budget=2, max_block_threads=8,
        )
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
        """Regression: a schedule-less fleet entry plus the daemon's
        'cached' lease denial used to starve tune_schedule callers on
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
        res = autotune(
            _Kern(), AccCpuSerial, 256, args, device=dev,
            strategy="random", budget=2, max_block_threads=8,
            tune_schedule=True,
        )
        assert res.strategy != "fleet-heuristic"
        assert not res.from_cache
        assert res.measurements >= 1
        # The re-measured entry is published back, uncoordinated
        # (token=None) — the daemon stores it without touching leases.
        assert len(stub.published) == 1
        _, entry, token = stub.published[0]
        assert token is None
        assert entry.work_div == res.work_div

    def test_lock_mode_end_to_end_single_process(self, monkeypatch, tmp_path, isolated_cache):
        monkeypatch.setenv(FLEET_ENV, "lock")
        dev, args = _tune_args()
        res = autotune(
            _Kern(), AccCpuSerial, 256, args, device=dev,
            strategy="random", budget=2, max_block_threads=8,
        )
        assert not res.from_cache
        assert res.measurements >= 1
        assert isolated_cache.exists()  # publish() persisted
        # No lease litter once the measurement is published.
        assert glob.glob(str(isolated_cache) + ".*.lease") == []
        # A "sibling process" (fresh cache object) sees the entry.
        sibling = TuningCache(str(isolated_cache))
        assert sibling.get_key(res.cache_key) is not None


class TestFleetTransportDeath:
    """Regression (high severity): a daemon dying *after* the
    coordinator connected used to raise TuningFleetError out of
    autotune(); it must degrade that call to standalone tuning."""

    def _patch(self, monkeypatch, stub):
        import repro.tuning.fleet.coordinator as coord_mod

        monkeypatch.setattr(
            coord_mod, "maybe_coordinator", lambda cache, config=None: stub
        )

    @pytest.mark.parametrize(
        "op", ["fetch", "try_lease", "wait_for", "publish"]
    )
    def test_dead_transport_degrades_to_standalone(self, monkeypatch, op):
        from repro.tuning import default_cache

        dev, args = _tune_args()
        lease_results = ["tok-1"] if op == "publish" else [None, None]
        stub = _DyingFleet(dies_on=[op], lease_results=lease_results)
        self._patch(monkeypatch, stub)
        res = autotune(
            _Kern(), AccCpuSerial, 256, args, device=dev,
            strategy="random", budget=2, max_block_threads=8,
        )
        assert not res.from_cache
        assert res.measurements >= 1  # measured standalone, no error
        # The result still landed in the local cache.
        assert default_cache().get_key(res.cache_key) is not None

    def test_daemon_death_midsession_degrades(
        self, monkeypatch, tmp_path, isolated_cache
    ):
        """End to end over the real transport: tune once through a live
        daemon, kill it, tune again on the same (still connected)
        coordinator."""
        from repro.tuning.fleet.config import FLEET_ADDR_ENV

        daemon = FleetDaemon(
            _cfg(mode="daemon"),
            cache_path=str(tmp_path / "daemon-cache.json"),
            host="127.0.0.1",
            port=0,
        )
        host, port = daemon.start()
        monkeypatch.setenv(FLEET_ENV, "daemon")
        monkeypatch.setenv(FLEET_ADDR_ENV, f"{host}:{port}")
        reset_coordinator()
        dev, args = _tune_args()
        try:
            res = autotune(
                _Kern(), AccCpuSerial, 256, args, device=dev,
                strategy="random", budget=2, max_block_threads=8,
            )
            assert not res.from_cache
        finally:
            daemon.shutdown()
        # The daemon is gone but the coordinator is still wired up; the
        # next tuning call must complete standalone, not raise.
        dev2, args2 = _tune_args(512)
        res2 = autotune(
            _Kern(), AccCpuSerial, 512, args2, device=dev2,
            strategy="random", budget=2, max_block_threads=8,
        )
        assert res2.measurements >= 1


class TestLeaseHeartbeat:
    """A held lease is refreshed while the measurement runs, so tuning
    runs longer than lease_timeout are not broken mid-measurement."""

    def test_heartbeat_refreshes_while_measuring(self):
        from repro.tuning import _lease_heartbeat

        class _Recorder:
            config = _cfg(mode="lock", lease_timeout=0.3)

            def __init__(self):
                self.refreshed = []

            def refresh(self, key, token):
                self.refreshed.append((key, token))

        fleet = _Recorder()
        with _lease_heartbeat(fleet, "key", "tok"):
            time.sleep(0.35)  # > lease_timeout / 3
        beats = list(fleet.refreshed)
        assert ("key", "tok") in beats
        time.sleep(0.15)
        assert fleet.refreshed == beats  # stopped with the context

    def test_refresh_failure_ends_the_heartbeat_quietly(self):
        from repro.tuning import _lease_heartbeat

        class _Dying:
            config = _cfg(mode="lock", lease_timeout=0.3)

            def refresh(self, key, token):
                raise TuningFleetError("daemon gone")

        with _lease_heartbeat(_Dying(), "key", "tok"):
            time.sleep(0.25)  # the beat thread must swallow the error

    def test_no_heartbeat_without_a_lease(self):
        from repro.tuning import _lease_heartbeat

        with _lease_heartbeat(None, "key", None):
            pass
