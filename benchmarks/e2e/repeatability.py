"""Run-to-run spread of every end-to-end metric, as the acceptance
check of the benchmark itself measures it.

For each workload the ``BENCHMARK.json`` command is run ``--runs``
times, each with another seed; a metric's spread is the distance
between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.
``--sets 2`` repeats the whole thing and also reports how far each
metric's second median is from its first, in the metric's worse
direction.  Results go to ``benchmarks/e2e/out/repeatability.json``.

    python3 benchmarks/e2e/repeatability.py --runs 10 --sets 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run as bench

OUT = os.path.join(bench.OUT_DIR, "repeatability.json")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_set(spec: dict, seeds) -> dict:
    """``{workload: {metric: [value per seed]}}`` plus op counts."""
    values, failed, attempted = {}, {}, {}
    for wl in spec["workloads"]:
        name = wl["name"]
        values[name] = {m["name"]: [] for m in spec["end_to_end"]}
        failed[name] = attempted[name] = 0
        for seed in seeds:
            argv = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(
                argv, cwd=bench.ROOT, capture_output=True, text=True, check=True
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed[name] += result["failed"]
            attempted[name] += result["attempted"]
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(
                f"{name} seed {seed}: {time.perf_counter() - started:.1f} s wall, "
                f"{result['attempted']} ops, {result['failed']} failed",
                file=sys.stderr,
            )
    return {
        "seeds": list(seeds), "values": values,
        "failed_ops": failed, "attempted_ops": attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=OUT)
    args = parser.parse_args()
    spec = bench.load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = [
        one_set(spec, range(s * args.runs, (s + 1) * args.runs))
        for s in range(args.sets)
    ]
    rows, ok = [], True
    for wl in spec["workloads"]:
        for metric, meta in bounds.items():
            per_set = [s["values"][wl["name"]][metric] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            row = {
                "workload": wl["name"], "metric": metric, "bound": meta["bound"],
                "medians": medians, "spreads": [spread(v) for v in per_set],
            }
            if len(medians) > 1:
                shift = (medians[1] - medians[0]) / medians[0]
                row["second_median_worse_by"] = (
                    shift if meta["better"] == "lower" else -shift
                )
            steady = all(s <= meta["bound"] for s in row["spreads"])
            # setup_s is held to its median only, not to its spread.
            row["within_bound"] = (
                (steady or metric == "setup_s")
                and row.get("second_median_worse_by", 0.0) <= meta["bound"]
            )
            ok = ok and row["within_bound"]
            rows.append(row)
            print(
                f"{wl['name']:<16} {metric:<12} median {medians[0]:>12.5g}  spread "
                + " ".join(f"{s:6.3f}" for s in row["spreads"])
                + f"  bound {meta['bound']:.2f}"
                + ("" if row["within_bound"] else "  <-- outside")
            )
    payload = {
        "commit": bench._git_commit(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "all_within_bounds": ok,
        "rows": rows,
        "sets": sets,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(args.out)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
