"""Tuning cache: keys, persistence, tolerance of rot, concurrency."""

import json
import os
import subprocess
import sys
import warnings

import pytest

from repro import AccCpuSerial, AccGpuCudaSim, get_dev_by_idx
from repro.core.workdiv import WorkDivMembers
from repro.tuning import (
    CachedResult,
    TuningCache,
    TUNING_CACHE_ENV,
    default_cache,
    default_cache_path,
    reset_default_cache,
)
from repro.tuning.cache import bucket_extent, device_fingerprint, kernel_id


def _kernel_a(acc):
    pass


def _kernel_b(acc):
    pass


class _KernelCls:
    def __call__(self, acc):
        pass


WD = WorkDivMembers.make(4, 1, 8)
ENTRY = CachedResult(work_div=WD, seconds=1.5e-6, strategy="exhaustive", source="modeled")


class TestKeys:
    def test_kernel_id_functions_differ(self):
        assert kernel_id(_kernel_a) != kernel_id(_kernel_b)

    def test_kernel_id_instances_share_class_identity(self):
        assert kernel_id(_KernelCls()) == kernel_id(_KernelCls())
        assert kernel_id(_KernelCls()) == kernel_id(_KernelCls)

    def test_kernel_id_lambdas_differ(self):
        k1 = lambda acc: None  # noqa: E731
        k2 = lambda acc: None  # noqa: E731
        assert kernel_id(k1) != kernel_id(k2)

    def test_kernel_id_nested_functions_differ(self):
        def first():
            def kern(acc):
                pass

            return kern

        def second():
            def kern(acc):
                pass

            return kern

        assert kernel_id(first()) != kernel_id(second())
        # The same definition site keeps a stable identity.
        assert kernel_id(first()) == kernel_id(first())

    def test_kernel_id_rejects_non_callable(self):
        with pytest.raises(TypeError):
            kernel_id(42)

    def test_bucket_extent_next_pow2(self):
        assert bucket_extent(1000) == "1024"
        assert bucket_extent(1024) == "1024"
        assert bucket_extent((3, 100)) == "4x128"
        assert bucket_extent(1) == "1"

    def test_same_bucket_same_key(self):
        dev = get_dev_by_idx(AccCpuSerial)
        k1 = TuningCache.key(_kernel_a, AccCpuSerial, dev, 513)
        k2 = TuningCache.key(_kernel_a, AccCpuSerial, dev, 1024)
        k3 = TuningCache.key(_kernel_a, AccCpuSerial, dev, 512)
        assert k1 == k2
        assert k1 != k3

    def test_fingerprint_distinguishes_devices(self):
        cpu = get_dev_by_idx(AccCpuSerial)
        gpu = get_dev_by_idx(AccGpuCudaSim)
        assert device_fingerprint(cpu) != device_fingerprint(gpu)

    def test_key_distinguishes_backends(self):
        cpu = get_dev_by_idx(AccCpuSerial)
        gpu = get_dev_by_idx(AccGpuCudaSim)
        assert TuningCache.key(_kernel_a, AccCpuSerial, cpu, 64) != TuningCache.key(
            _kernel_a, AccGpuCudaSim, gpu, 64
        )


class TestPersistence:
    def test_serialize_reload_hit(self, tmp_path):
        path = str(tmp_path / "c.json")
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(path)
        cache.put(_kernel_a, AccCpuSerial, dev, 1000, ENTRY)
        cache.save()

        reloaded = TuningCache(path)
        hit = reloaded.get(_kernel_a, AccCpuSerial, dev, 700)  # same bucket
        assert hit is not None
        assert hit.work_div == WD
        assert hit.seconds == ENTRY.seconds
        assert hit.strategy == "exhaustive"
        assert hit.source == "modeled"

    def test_miss_on_other_kernel_and_extent(self, tmp_path):
        path = str(tmp_path / "c.json")
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(path)
        cache.put(_kernel_a, AccCpuSerial, dev, 1000, ENTRY)
        assert cache.get(_kernel_b, AccCpuSerial, dev, 1000) is None
        assert cache.get(_kernel_a, AccCpuSerial, dev, 4096) is None

    def test_missing_file_is_empty_and_silent(self, tmp_path):
        cache = TuningCache(str(tmp_path / "absent.json"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert len(cache) == 0

    def test_corrupt_file_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{ not json !!!")
        cache = TuningCache(str(path))
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert len(cache) == 0

    def test_wrong_version_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 999, "entries": {"k": {}}}))
        with pytest.warns(RuntimeWarning, match="unrecognised schema"):
            assert len(TuningCache(str(path))) == 0

    def test_corrupt_file_is_usable_and_save_repairs_it(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("]]] total rot")
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(str(path))
        with pytest.warns(RuntimeWarning):
            cache.put(_kernel_a, AccCpuSerial, dev, 64, ENTRY)
        cache.save()
        data = json.loads(path.read_text())
        assert data["version"] >= 1
        assert len(data["entries"]) == 1

    def test_rotten_entry_skipped_others_kept(self, tmp_path):
        path = str(tmp_path / "c.json")
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(path)
        cache.put(_kernel_a, AccCpuSerial, dev, 64, ENTRY)
        cache.save()
        data = json.loads(open(path).read())
        data["entries"]["bad|key"] = {"grid": "nonsense"}
        open(path, "w").write(json.dumps(data))
        reloaded = TuningCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(_kernel_a, AccCpuSerial, dev, 64) is not None

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "c.json")
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(path)
        cache.put(_kernel_a, AccCpuSerial, dev, 64, ENTRY)
        cache.save()
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []
        assert json.loads(open(path).read())["version"] >= 1

    def test_clear_forgets_entries(self, tmp_path):
        dev = get_dev_by_idx(AccCpuSerial)
        cache = TuningCache(str(tmp_path / "c.json"))
        cache.put(_kernel_a, AccCpuSerial, dev, 64, ENTRY)
        cache.clear()
        assert cache.get(_kernel_a, AccCpuSerial, dev, 64) is None


class TestRawKeyAPI:
    def test_put_key_get_key_roundtrip(self, tmp_path):
        cache = TuningCache(str(tmp_path / "c.json"))
        cache.put_key("raw|key", ENTRY)
        assert cache.get_key("raw|key") == ENTRY
        assert "raw|key" in cache

    def test_put_key_bumps_the_tuning_generation(self, tmp_path):
        from repro.tuning.cache import tuning_generation

        cache = TuningCache(str(tmp_path / "c.json"))
        before = tuning_generation()
        cache.put_key("a", ENTRY)
        assert tuning_generation() > before


class TestMergeOnWrite:
    """Regression: the old save was read-modify-write from memory
    only — two processes tuning different kernels silently dropped each
    other's entries (last writer wins)."""

    def _entry(self, blocks):
        return CachedResult(
            work_div=WorkDivMembers.make(blocks, 1, 8),
            seconds=1e-6,
            strategy="exhaustive",
            source="modeled",
        )

    def test_two_writers_keep_both_entries(self, tmp_path):
        path = str(tmp_path / "c.json")
        # Both "processes" load the (empty) file before either saves.
        a, b = TuningCache(path), TuningCache(path)
        len(a), len(b)
        a.put_key("kernel-a", self._entry(2))
        a.save()
        b.put_key("kernel-b", self._entry(4))
        b.save()  # must merge kernel-a back in, not clobber it
        final = TuningCache(path)
        assert final.get_key("kernel-a") is not None
        assert final.get_key("kernel-b") is not None

    def test_conflicting_key_favours_the_writers_own_entry(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        len(a), len(b)
        a.put_key("k", self._entry(2))
        a.save()
        b.put_key("k", self._entry(4))
        b.save()
        # B measured most recently from its own point of view.
        assert TuningCache(path).get_key("k").work_div.grid_block_extent[0] == 4

    def test_clear_then_save_does_not_resurrect_disk_entries(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = TuningCache(path)
        cache.put_key("k", self._entry(2))
        cache.save()
        cache.clear()
        cache.save()
        assert len(TuningCache(path)) == 0

    def test_reload_adopts_sibling_entries(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        len(b)  # load before the sibling writes
        a.put_key("k", self._entry(2))
        a.save()
        assert b.get_key("k") is None  # stale in-memory view
        assert b.reload() == 1
        assert b.get_key("k") is not None

    def test_reload_never_drops_unsaved_local_entries(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        b.put_key("local", self._entry(2))  # not yet saved
        a.put_key("remote", self._entry(4))
        a.save()
        b.reload()
        assert b.get_key("local") is not None
        assert b.get_key("remote") is not None

    def test_concurrent_writer_processes_lose_nothing(self, tmp_path):
        """Four real processes save distinct keys into one file at the
        same time; the advisory file lock must keep all four."""
        path = str(tmp_path / "c.json")
        script = tmp_path / "writer.py"
        script.write_text(
            "import sys\n"
            "from repro.core.workdiv import WorkDivMembers\n"
            "from repro.tuning import CachedResult, TuningCache\n"
            "idx = int(sys.argv[1])\n"
            "cache = TuningCache(sys.argv[2])\n"
            "entry = CachedResult(\n"
            "    work_div=WorkDivMembers.make(idx + 1, 1, 8),\n"
            "    seconds=1e-6, strategy='exhaustive', source='modeled')\n"
            "for round in range(5):\n"
            "    cache.put_key(f'kernel-{idx}-{round}', entry)\n"
            "    cache.save()\n"
        )
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (os.path.join(repo, "src"), env.get("PYTHONPATH"))
            if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(i), path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for i in range(4)
        ]
        for p in procs:
            _, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
        final = TuningCache(path)
        assert len(final) == 20  # 4 writers x 5 rounds, nothing dropped


class TestMeasuredAtArbitration:
    """Regression: merge-on-write used to let the in-memory entry win
    every conflict, so a sibling process whose cache lagged a drift
    re-tune wrote the stale entry back over the fresh one on its next
    save(); reload() conversely clobbered newer unsaved local entries.
    ``measured_at`` now arbitrates both ways: the newest measurement
    wins, ties keep the in-memory entry."""

    def _entry(self, blocks, measured_at=0.0):
        return CachedResult(
            work_div=WorkDivMembers.make(blocks, 1, 8),
            seconds=1e-6,
            strategy="exhaustive",
            source="modeled",
            measured_at=measured_at,
        )

    def _grid(self, cache, key):
        return cache.get_key(key).work_div.grid_block_extent[0]

    def test_measured_at_roundtrips_through_the_file(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = TuningCache(path)
        cache.put_key("k", self._entry(2, measured_at=123.25))
        cache.save()
        assert TuningCache(path).get_key("k").measured_at == 123.25

    def test_legacy_entries_read_as_unstamped(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = TuningCache(path)
        cache.put_key("k", self._entry(2))  # measured_at=0.0 not written
        cache.save()
        assert "measured_at" not in json.loads(open(path).read())["entries"]["k"]
        assert TuningCache(path).get_key("k").measured_at == 0.0

    def test_save_does_not_resurrect_a_stale_entry_over_a_retune(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        a.put_key("k", self._entry(2, measured_at=100.0))
        a.save()
        b.reload()  # the sibling adopted the original tune
        a.put_key("k", self._entry(8, measured_at=200.0))  # forced re-tune
        a.save()
        b.save()  # the sibling's stale in-memory entry must NOT win
        assert self._grid(TuningCache(path), "k") == 8
        assert self._grid(b, "k") == 8  # ...and b itself adopted the re-tune

    def test_save_keeps_the_writers_newer_measurement(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        len(a), len(b)
        a.put_key("k", self._entry(2, measured_at=100.0))
        a.save()
        b.put_key("k", self._entry(4, measured_at=200.0))
        b.save()
        assert self._grid(TuningCache(path), "k") == 4

    def test_reload_does_not_clobber_a_newer_inmemory_entry(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        a.put_key("k", self._entry(2, measured_at=100.0))
        a.save()
        b.put_key("k", self._entry(8, measured_at=200.0))  # fresher, unsaved
        b.reload()
        assert self._grid(b, "k") == 8

    def test_reload_adopts_a_newer_disk_entry(self, tmp_path):
        path = str(tmp_path / "c.json")
        a, b = TuningCache(path), TuningCache(path)
        b.put_key("k", self._entry(2, measured_at=100.0))
        a.put_key("k", self._entry(8, measured_at=200.0))
        a.save()
        assert b.reload() == 1
        assert self._grid(b, "k") == 8


class TestEnvOverride:
    def test_env_var_moves_default_path(self, monkeypatch, tmp_path):
        target = str(tmp_path / "elsewhere" / "cache.json")
        monkeypatch.setenv(TUNING_CACHE_ENV, target)
        reset_default_cache()
        assert default_cache_path() == target
        assert default_cache().path == target

    def test_default_path_in_cwd_without_env(self, monkeypatch):
        monkeypatch.delenv(TUNING_CACHE_ENV, raising=False)
        assert default_cache_path() == os.path.join(
            os.getcwd(), ".repro-tuning-cache.json"
        )

    def test_default_cache_is_singleton(self):
        assert default_cache() is default_cache()
        reset_default_cache()
        # A new instance after reset, still pointing at the env path.
        assert default_cache() is default_cache()
