"""End-to-end convergence: 4 real worker processes sharing one cache
file autotune the same (kernel, back-end, device, extent) and must
produce exactly ONE measurement run, with every worker ending on the
winner's division, coordinated through lease files next to the cache."""

import json
import os
import subprocess
import sys

from repro.tuning import TuningCache

N_WORKERS = 4

# Every worker runs this same script, so the kernel's identity
# (module + qualname) is identical in every worker.
WORKER = """\
import json

from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx, mem
from repro.mem import memset


class FleetKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        from repro.core.element import independent_elements

        for i in independent_elements(acc, n):
            out[i[0]] = i[0] * 2.0


def main():
    acc = AccCpuSerial
    dev = get_dev_by_idx(acc)
    n = 256
    out = mem.alloc(dev, n)
    memset(QueueBlocking(dev), out, 0)
    res = autotune(
        FleetKernel(), acc, n, (n, out), device=dev,
        strategy="random", budget=3, max_block_threads=8,
    )
    print(json.dumps({
        "strategy": res.strategy,
        "measurements": res.measurements,
        "from_cache": res.from_cache,
        "block": list(res.work_div.block_thread_extent),
        "elems": list(res.work_div.thread_elem_extent),
        "key": res.cache_key,
    }))


main()
"""


def _spawn_workers(tmp_path):
    script = tmp_path / "worker.py"
    script.write_text(WORKER)
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_TUNING_CACHE"] = str(tmp_path / "shared-cache.json")
    procs = [
        subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(tmp_path),
            text=True,
        )
        for _ in range(N_WORKERS)
    ]
    results = []
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, f"worker failed:\n{err}\n{out}"
        results.append(json.loads(out.strip().splitlines()[-1]))
    return results


def _assert_converged(results, cache_path):
    # Exactly one measurement run happened across the four workers; the
    # other three adopted its entry as a cache hit.
    measured = [r for r in results if r["measurements"] > 0]
    adopted = [r for r in results if r["from_cache"] and r["measurements"] == 0]
    assert (len(measured), len(adopted)) == (1, 3), results
    winner = measured[0]
    assert winner["strategy"] == "random"
    # Nobody fell back to the heuristic (the winner was fast enough),
    # and everyone ended on the winner's tuned division.
    for r in results:
        assert r["strategy"] in ("random", "cache"), results
        assert r["key"] == winner["key"]
        assert r["block"] == winner["block"]
        assert r["elems"] == winner["elems"]
    # The shared cache holds the single winning entry.
    cache = TuningCache(cache_path)
    entry = cache.get_key(winner["key"])
    assert entry is not None
    assert list(entry.work_div.block_thread_extent) == winner["block"]


class TestConvergence:
    def test_four_workers_measure_once(self, tmp_path):
        results = _spawn_workers(tmp_path)
        _assert_converged(results, str(tmp_path / "shared-cache.json"))
