"""Budget-by-strategy table: the tiled-DGEMM division each search
strategy picks under a measurement budget, against the pick of the full
(unbudgeted) exhaustive search.

    PYTHONPATH=src python benchmarks/tuning_budget_table.py \\
        --clock modeled --n 16 32 64 --budgets 4 6 8 12
    PYTHONPATH=src python benchmarks/tuning_budget_table.py \\
        --clock wall --n 32 --budgets 4 8 12 --rounds 15

``--clock modeled``: the searches measure on the performance model
(``GemmTilingKernel`` describes itself), and a pick's ratio is its
modeled seconds over the full search's best, exactly.

``--clock wall``: every measurement of the searches is taken on the
host clock, with the model still ordering the candidates.  Then each
distinct pick and the full search's pick are re-timed interleaved: one
launch each per round, in an order that rotates every round.  A ratio
is the pick's median over ``--rounds`` rounds divided by the full
pick's median.  One process is one sample of this noise; run it several
times to see the spread.

``--strategies`` defaults to every name in ``SEARCH_STRATEGIES``; any
name ``run_search`` accepts in the checkout on ``PYTHONPATH`` works.
``--json PATH`` also writes the rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import tempfile

import numpy as np

import repro.tuning as tuning
from repro import QueueBlocking, autotune, get_dev_by_idx, mem
from repro.acc import AccCpuSerial
from repro.comparison import render_table
from repro.kernels.gemm import GemmTilingKernel
from repro.tuning import SEARCH_STRATEGIES, TuningCache, measure_division

MAX_BLOCK_THREADS = 64


def _gemm_args(dev, n, seed=7):
    rng = np.random.default_rng(seed)
    queue = QueueBlocking(dev)
    bufs = []
    for _ in range(3):
        buf = mem.alloc(dev, (n, n))
        mem.copy(queue, buf, rng.random((n, n)))
        bufs.append(buf)
    return (n, 1.0, bufs[0], bufs[1], 0.0, bufs[2])


@contextlib.contextmanager
def _searches_on(clock):
    """Inside, every measurement ``autotune`` takes reads ``clock``
    (``"modeled"`` changes nothing: the kernel describes itself)."""
    if clock == "modeled":
        yield
        return

    def on_the_wall(*args, **kwargs):
        return measure_division(*args, **{**kwargs, "clock": "wall"})

    tuning.measure_division = on_the_wall
    try:
        yield
    finally:
        tuning.measure_division = measure_division


def _tune(dev, n, args, clock, strategy, budget, workdir):
    with _searches_on(clock):
        return autotune(
            GemmTilingKernel(), AccCpuSerial, (n, n), args, device=dev,
            strategy=strategy, budget=budget,
            max_block_threads=MAX_BLOCK_THREADS,
            cache=TuningCache(f"{workdir}/{strategy}-{budget}.json"),
            save=False,
        )


def _retime(dev, args, divisions, rounds):
    """Median wall seconds of one launch per division, interleaved."""
    samples = {wd: [] for wd in divisions}
    order = list(divisions)
    for r in range(rounds):
        k = r % len(order)
        for wd in order[k:] + order[:k]:
            mt = measure_division(
                GemmTilingKernel(), AccCpuSerial, dev, wd, args,
                warmup=1, repeat=1, clock="wall",
            )
            samples[wd].append(mt.seconds)
    return {wd: statistics.median(s) for wd, s in samples.items()}


def table(clock, sizes, budgets, strategies, rounds):
    dev = get_dev_by_idx(AccCpuSerial, 0)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in sizes:
            args = _gemm_args(dev, n)
            full = _tune(dev, n, args, clock, "exhaustive", None, workdir)
            for budget in budgets:
                picks = {
                    s: _tune(dev, n, args, clock, s, budget, workdir)
                    for s in strategies
                }
                if clock == "wall":
                    divisions = {full.work_div}
                    divisions.update(p.work_div for p in picks.values())
                    seconds = _retime(dev, args, divisions, rounds)
                else:
                    seconds = {p.work_div: p.seconds for p in picks.values()}
                    seconds[full.work_div] = full.seconds
                for s, p in picks.items():
                    rows.append({
                        "clock": clock,
                        "n": n,
                        "budget": budget,
                        "strategy": s,
                        "measurements": p.measurements,
                        "full measurements": full.measurements,
                        "same pick": p.work_div == full.work_div,
                        "x full best": round(
                            seconds[p.work_div] / seconds[full.work_div], 3
                        ),
                        "block": list(p.work_div.block_thread_extent),
                        "elems": list(p.work_div.thread_elem_extent),
                    })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clock", choices=("modeled", "wall"), default="modeled")
    parser.add_argument("--n", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--budgets", type=int, nargs="+", default=[4, 6, 8, 12])
    parser.add_argument("--strategies", nargs="+", default=sorted(SEARCH_STRATEGIES))
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--json")
    opts = parser.parse_args(argv)
    rows = table(opts.clock, opts.n, opts.budgets, opts.strategies, opts.rounds)
    print(render_table(
        rows, f"tiled DGEMM on AccCpuSerial, {opts.clock} clock: "
        "budgeted picks against the full exhaustive search",
    ))
    if opts.json:
        with open(opts.json, "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
