"""Compare two benchmark result files: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  Either file is a
``BENCH_e2e.json`` (one value per workload and metric) or a
``repeatability.json`` (several runs each; all sets are pooled).  One
row per (workload, end-to-end metric): both medians, the ratio B/A, the
metric's bound and direction from ``BENCHMARK.json``, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than the bound;
* ``same``       the medians differ by no more than the bound;
* ``unresolved`` A's own run-to-run spread (interquartile distance over
  the median) is wider than the bound, unless every run of B reads
  better than every run of A.  Needs at least four runs of A.

The raw times (``op.p50_ms`` ...) follow without a verdict: they carry
no bound, because this host moves them more than any bound allows.

Exit code 1 on any ``worse`` row or a higher share of failed ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import run as bench

#: Unbounded raw times ``run.py`` stores beside the bounded metrics.
RAW = ("op.p50_ms", "op.p95_ms", "op.ops_per_s", "floor.op_p50_us")
Values = Dict[Tuple[str, str], List[float]]


def load(path: str, workloads: List[str]) -> Tuple[Values, Dict[str, float]]:
    """``({(workload, metric): values}, {workload: fail share})``."""
    with open(path) as fh:
        doc = json.load(fh)
    values: Values = {}
    fail: Dict[str, float] = {}
    if "sets" in doc:
        for one in doc["sets"]:
            for wl, metrics in one["values"].items():
                for metric, vals in metrics.items():
                    values.setdefault((wl, metric), []).extend(vals)
        for wl in workloads:
            fail[wl] = sum(s["failed_ops"][wl] for s in doc["sets"]) / max(
                1, sum(s["attempted_ops"][wl] for s in doc["sets"])
            )
        return values, fail
    flat = {m["name"]: m["value"] for m in doc["metrics"]}
    for name, value in flat.items():
        wl, _, metric = name.partition(".")
        if wl in workloads and not isinstance(value, (str, bool)):
            values[(wl, metric)] = [value]
    for wl in workloads:
        fail[wl] = flat.get(f"{wl}.end_to_end.ops_failed", 0) / max(
            1, flat.get(f"{wl}.end_to_end.ops_attempted", 1)
        )
    return values, fail


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if len(a) >= 4:
        q1, _, q3 = statistics.quantiles(a, n=4)
        if (q3 - q1) / statistics.median(a) > bound:
            # In sign space lower is better whatever the metric's direction.
            all_better = max(sign * v for v in b) < min(sign * v for v in a)
            return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = bench.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    a_values, a_fail = load(argv[1], workloads)
    b_values, b_fail = load(argv[2], workloads)

    bad = False
    print(
        f"{'workload':<16} {'metric':<16} {'A (base)':>12} {'B':>12} "
        f"{'B/A':>7} {'bound':>6} {'better':>6}  verdict"
    )
    for wl in workloads:
        for meta in spec["end_to_end"]:
            key = (wl, meta["name"])
            if key not in a_values or key not in b_values:
                print(f"{wl:<16} {meta['name']:<16} missing from one file")
                bad = True
                continue
            a, b = a_values[key], b_values[key]
            med_a, med_b = statistics.median(a), statistics.median(b)
            word = verdict(a, b, meta["better"], meta["bound"])
            bad = bad or word == "worse"
            print(
                f"{wl:<16} {meta['name']:<16} {med_a:>12.5g} {med_b:>12.5g} "
                f"{med_b / med_a:>7.3f} {meta['bound']:>6.2f} {meta['better']:>6}  {word}"
            )
        for raw in RAW:
            key = (wl, "end_to_end." + raw)
            if key in a_values and key in b_values:
                med_a, med_b = a_values[key][0], b_values[key][0]
                print(
                    f"{wl:<16} {raw:<16} {med_a:>12.5g} {med_b:>12.5g} "
                    f"{med_b / med_a:>7.3f} {'-':>6} {'':>6}  raw"
                )
        if b_fail[wl] > a_fail[wl]:
            print(f"{wl:<16} fail_share rose: {a_fail[wl]:g} -> {b_fail[wl]:g}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
