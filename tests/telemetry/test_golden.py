"""Golden observed output: what ``heat_equation`` looks like to telemetry.

The example's workload (a recorded 52-node graph submitted twice) runs
under ``telemetry.collect()`` in a fresh interpreter, and the test pins
what an engineer sees of it: the Chrome trace's event count per
``(ph, cat)``, the ``tier`` argument of every launch event, and the set
of Prometheus families.  A fresh process keeps the global registry (and
the compile counters its source copies in) free of other tests' runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PROBE = """
import collections, json, runpy, sys

from repro import telemetry
from repro.telemetry import registry, to_chrome_trace, to_prometheus

sys.argv = ["heat_equation.py"]
with telemetry.collect(registry=registry()) as t:
    runpy.run_path(sys.argv_path, run_name="__main__")
events = to_chrome_trace(t)["traceEvents"]
counts = collections.Counter(f"{e['ph']} {e.get('cat', '')}".strip() for e in events)
print(json.dumps({
    "counts": counts,
    "tiers": [e["args"].get("tier") for e in events if e.get("cat") == "launch"],
    "families": [
        line.split()[2]
        for line in to_prometheus(t.registry).splitlines()
        if line.startswith("# TYPE")
    ],
}))
"""

FAMILIES = [
    "repro_block_seconds",
    "repro_compile_cache_hits_total",
    "repro_compile_crosschecks_total",
    "repro_compile_launches_total",
    "repro_compile_retraces_total",
    "repro_compile_tier_decisions_total",
    "repro_compile_tiered_launches_total",
    "repro_compile_traces_total",
    "repro_copies_total",
    "repro_graph_critical_path_seconds",
    "repro_graph_nodes_total",
    "repro_graph_overlap_ratio",
    "repro_graph_submits_total",
    "repro_graph_wall_seconds_total",
    "repro_launch_modeled_seconds_total",
    "repro_launch_seconds",
    "repro_launch_wall_seconds_total",
    "repro_launches_total",
    "repro_occupancy_ratio",
    "repro_plan_cache_total",
    "repro_span_seconds",
]


def _observe_heat_equation(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_TUNING_CACHE"] = str(tmp_path / "tuning.json")
    code = PROBE.replace(
        "sys.argv_path",
        repr(os.path.join(REPO, "examples", "heat_equation.py")),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_heat_equation_observed_output(tmp_path):
    seen = _observe_heat_equation(tmp_path)

    # Two metadata events (the process and the graph's track), one
    # slice per launch, per graph run plus one per node, per copy, and
    # the one plan build that is not a launch's.
    assert seen["counts"] == {
        "M": 1,
        "M graph": 1,
        "X graph": 106,
        "X launch": 100,
        "X mem": 4,
        "X runtime": 1,
    }
    assert sum(seen["counts"].values()) == 213

    # The plan's first launch is untiered; its proven record then times
    # each side twice and settles on one for good.
    tiers = seen["tiers"]
    assert len(tiers) == 100
    assert tiers[0] is None
    assert sorted(tiers[1:5]) == [
        "trial:compiled", "trial:compiled", "trial:pooled", "trial:pooled",
    ]
    assert len(set(tiers[5:])) == 1 and tiers[5] in ("compiled", "pooled")

    assert seen["families"] == FAMILIES
