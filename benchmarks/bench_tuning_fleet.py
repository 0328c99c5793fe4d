"""Extension: tuning across processes — shared measurements and
evolutionary search.

Two gates:

* **Four workers vs. solo** — four worker processes autotuning the same
  (kernel, back-end, device, extent) through one shared cache file must
  finish in under 1.5x the wall time of a single worker, with exactly
  ONE measurement run among them (the other three adopt the winner's
  saved division).  The per-key lease next to the cache file is the
  default path of ``autotune``: no setting turns it on.  Without it
  every worker would redundantly pay the full search.
* **Evolve vs. exhaustive** — the evolutionary search with a fixed
  measurement budget must land within 5% of the exhaustive optimum on
  the hierarchically tiled DGEMM candidate space while spending strictly
  fewer measurements (population zero is seeded from Table 2 plus the
  performance model's ranking, so the budget is spent refining, not
  rediscovering).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro import QueueBlocking, autotune, get_dev_by_idx, mem
from repro.acc import AccCpuSerial
from repro.bench import write_bench_json, write_report
from repro.comparison import render_table
from repro.kernels.gemm import GemmTilingKernel
from repro.tuning import TuningCache

N_WORKERS = 4
FLEET_WALL_FACTOR = 1.5
EVOLVE_TOLERANCE = 1.05
GEMM_N = 16
MAX_BLOCK_THREADS = 64
EVOLVE_BUDGET = 12

# Heavy enough that the measurement work, not process start-up,
# dominates the wall time the fleet gate compares.
WORKER = """\
import json

from repro import AccCpuSerial, QueueBlocking, autotune, fn_acc, get_dev_by_idx, mem
from repro.mem import memset


class FleetBenchKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        from repro.core.element import independent_elements

        for i in independent_elements(acc, n):
            out[i[0]] = i[0] * 2.0


def main():
    acc = AccCpuSerial
    dev = get_dev_by_idx(acc)
    n = 32768
    out = mem.alloc(dev, n)
    memset(QueueBlocking(dev), out, 0)
    res = autotune(
        FleetBenchKernel(), acc, n, (n, out), device=dev,
        strategy="random", budget=6, repeat=4, max_block_threads=8,
    )
    print(json.dumps({
        "strategy": res.strategy,
        "measurements": res.measurements,
        "block": list(res.work_div.block_thread_extent),
        "elems": list(res.work_div.thread_elem_extent),
    }))


main()
"""


def _run_workers(workdir, count):
    script = workdir / "worker.py"
    script.write_text(WORKER)
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_TUNING_CACHE"] = str(workdir / "cache.json")
    env["REPRO_TUNING_HOF"] = str(workdir / "hof.json")
    started = time.monotonic()
    procs = [
        subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(workdir),
            text=True,
        )
        for _ in range(count)
    ]
    results = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, f"worker failed:\n{err}"
        results.append(json.loads(out.strip().splitlines()[-1]))
    return time.monotonic() - started, results


def test_fleet_of_four_vs_solo(benchmark, tmp_path):
    solo_dir = tmp_path / "solo"
    fleet_dir = tmp_path / "fleet"
    solo_dir.mkdir()
    fleet_dir.mkdir()

    timings = {}

    def run():
        timings["solo"], solo_results = _run_workers(solo_dir, 1)
        timings["fleet"], fleet_results = _run_workers(fleet_dir, N_WORKERS)
        timings["solo_results"] = solo_results
        timings["fleet_results"] = fleet_results

    benchmark.pedantic(run, rounds=1, iterations=1)

    solo_wall = timings["solo"]
    fleet_wall = timings["fleet"]
    fleet_results = timings["fleet_results"]
    measured = [r for r in fleet_results if r["measurements"] > 0]

    rows = [
        {
            "configuration": "solo",
            "workers": 1,
            "wall [s]": f"{solo_wall:6.2f}",
            "measurement runs": 1,
        },
        {
            "configuration": "4 workers, one shared cache",
            "workers": N_WORKERS,
            "wall [s]": f"{fleet_wall:6.2f}",
            "measurement runs": len(measured),
        },
    ]
    text = render_table(
        rows,
        "Extension: shared tuning cache — 4 workers vs. 1 solo "
        f"(gate: 4-worker wall < {FLEET_WALL_FACTOR}x solo)",
    )
    print("\n" + text)
    write_report("tuning_fleet_vs_solo.txt", text)
    write_bench_json("tuning_fleet_vs_solo", {
        "solo_wall": (solo_wall, "s"),
        "fleet_wall": (fleet_wall, "s"),
        "fleet_workers": N_WORKERS,
        "fleet_measurement_runs": len(measured),
    })

    # Exactly one measurement run among the workers; everyone else adopted.
    assert len(measured) == 1, fleet_results
    winner = measured[0]
    for r in fleet_results:
        assert r["block"] == winner["block"], fleet_results
        assert r["elems"] == winner["elems"], fleet_results
    # The four workers finish in bounded time: coordination overhead
    # (leases, waits, adoption) must not eat the sharing win.
    assert fleet_wall < FLEET_WALL_FACTOR * solo_wall, (fleet_wall, solo_wall)


def test_evolve_within_5pct_of_exhaustive(benchmark, tmp_path):
    acc = AccCpuSerial
    dev = get_dev_by_idx(acc, 0)
    rng = np.random.default_rng(7)
    n = GEMM_N
    queue = QueueBlocking(dev)
    hosts = (rng.random((n, n)), rng.random((n, n)), rng.random((n, n)))
    bufs = []
    for h in hosts:
        b = mem.alloc(dev, (n, n))
        mem.copy(queue, b, h)
        bufs.append(b)
    args = (n, 1.0, bufs[0], bufs[1], 0.0, bufs[2])

    os.environ.setdefault("REPRO_TUNING_HOF", str(tmp_path / "hof.json"))
    outcome = {}

    def run():
        outcome["exhaustive"] = autotune(
            GemmTilingKernel(), acc, (n, n), args, device=dev,
            strategy="exhaustive", max_block_threads=MAX_BLOCK_THREADS,
            cache=TuningCache(str(tmp_path / "ex.json")), save=False,
        )
        outcome["evolve"] = autotune(
            GemmTilingKernel(), acc, (n, n), args, device=dev,
            strategy="evolve", budget=EVOLVE_BUDGET,
            max_block_threads=MAX_BLOCK_THREADS,
            cache=TuningCache(str(tmp_path / "ev.json")), save=False,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    ex, ev = outcome["exhaustive"], outcome["evolve"]
    rows = [
        {
            "strategy": name,
            "best [us]": f"{res.seconds * 1e6:8.3f}",
            "measurements": res.measurements,
            "pruned": res.pruned,
            "division": str(res.work_div),
        }
        for name, res in (("exhaustive", ex), ("evolve", ev))
    ]
    text = render_table(
        rows,
        f"Extension: evolutionary search vs. exhaustive on tiled DGEMM "
        f"n={GEMM_N} (gate: within {(EVOLVE_TOLERANCE - 1) * 100:.0f}% "
        f"with budget {EVOLVE_BUDGET})",
    )
    print("\n" + text)
    write_report("tuning_fleet_evolve_vs_exhaustive.txt", text)
    write_bench_json("tuning_fleet_evolve_vs_exhaustive", {
        "exhaustive_best": (ex.seconds, "s"),
        "evolve_best": (ev.seconds, "s"),
        "exhaustive_measurements": ex.measurements,
        "evolve_measurements": ev.measurements,
    })

    assert ev.seconds <= EVOLVE_TOLERANCE * ex.seconds, (ev.seconds, ex.seconds)
    assert ev.measurements < ex.measurements, (ev.measurements, ex.measurements)
