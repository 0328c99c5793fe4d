"""End-to-end benchmark: five workloads from ``ServeClient`` down to
the numpy floor, with a per-layer traced run.

Two ways to run it, both from the repository root::

    python3 benchmarks/e2e/run.py --workload serve_small --seed 0 \\
        --seconds 15 --trace 0          # one workload, one pass
    python3 benchmarks/e2e/run.py --seed 0 [--quick]   # everything

The first form is what ``BENCHMARK.json``'s ``command`` is run with; its
last stdout line is one JSON object ``{correct, attempted, failed,
metrics}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  The second runs every workload
untraced, then traced for half as long, prints each metric by name with
its unit and writes ``benchmarks/e2e/out/BENCH_e2e.json``.

This process only orchestrates: every workload runs in a fresh child
(``worker.py``), and set-up is timed from the child's start to its
``ready`` line, several times per run, reporting the median.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: Extra set-ups per untraced run; with the measured run's own set-up
#: the reported ``setup_s`` is a median of this many plus one.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0
FULL = {"min_ops": 200, "traced_min_ops": 20, "probe_reps": 50}
QUICK = {"min_ops": 5, "traced_min_ops": 3, "probe_reps": 5, "seconds": 0.5}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env(workload: str) -> Dict[str, str]:
    """The program's defaults: inherited ``REPRO_*`` knobs are dropped;
    only ``launch_compiled`` sets one, the schedule it is about."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    if workload == "launch_compiled":
        env["REPRO_SCHEDULER"] = "compiled"
    return env


def run_worker(
    workload: str, seed: int, seconds: float, min_ops: int, probe_reps: int, trace: int
) -> Tuple[float, dict]:
    """One fresh child; returns ``(setup seconds, its result)``.

    The child leads its own process group, so the server process it
    starts dies with it on every exit path of this function.
    """
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--min-ops", str(min_ops), "--probe-reps", str(probe_reps),
        "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=_child_env(workload), start_new_session=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s: Optional[float] = None
    result: Optional[dict] = None
    try:
        for line in proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if message.get("event") == "ready":
                setup_s = time.perf_counter() - started
            elif message.get("event") == "result":
                result = message
        code = proc.wait()
    finally:
        watchdog.cancel()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise RuntimeError(f"{workload}: worker exited with code {code} and no result")
    return setup_s, result


def measure(
    workload: str, seed: int, seconds: float, trace: int, sizes: dict, spec: dict,
    setup_probes: int,
) -> dict:
    """One pass of one workload in the result form of the contract."""
    if trace:
        _, result = run_worker(
            workload, seed, seconds, sizes["traced_min_ops"], sizes["probe_reps"], 1
        )
        # A layer the workload never enters did no work in it.
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = set(result["metrics"]) - set(metrics)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics.update(result["metrics"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups = [
            run_worker(workload, seed, 0.0, 0, 0, 0)[0] for _ in range(setup_probes)
        ]
        setup_s, result = run_worker(
            workload, seed, seconds, sizes["min_ops"], sizes["probe_reps"], 0
        )
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median(setups + [setup_s])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(metrics) != set(units):
            raise RuntimeError(
                f"end-to-end metrics {sorted(metrics)} differ from BENCHMARK.json"
            )
    for problem in result.get("problems", []):
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
        # Host-dependent times of the same loop: reported, never bounded.
        "raw": result.get("raw", {}),
        "p95_samples_beyond": result.get("p95_samples_beyond"),
        "trace_file": result.get("trace_file"),
    }


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _print_rows(workload: str, kind: str, res: dict, raw_units: Dict[str, str]) -> None:
    print(
        f"\n{workload} [{kind}]  ops_attempted={res['attempted']} "
        f"ops_failed={res['failed']} fail_share={res['failed'] / max(1, res['attempted']):.4f}"
        + (
            f" p95_samples_beyond={res['p95_samples_beyond']}"
            if res.get("p95_samples_beyond") is not None else ""
        )
    )
    for name, entry in res["metrics"].items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in res["raw"].items():
        print(f"  {name:<40} {value:>16.6g} {raw_units[name]}  (raw, no bound)")
    if res.get("trace_file"):
        print(f"  chrome trace: {res['trace_file']}")


def run_all(seed: int, quick: bool, spec: dict) -> int:
    sizes = QUICK if quick else FULL
    seconds = QUICK["seconds"] if quick else float(spec["run_seconds"])
    flat: Dict[str, object] = {}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        passes = (
            ("end_to_end", measure(name, seed, seconds, 0, sizes, spec, 0 if quick else 2)),
            ("per_layer", measure(name, seed, seconds / 2, 1, sizes, spec, 0)),
        )
        for kind, res in passes:
            _print_rows(name, kind, res, units)
            failed += res["failed"]
            for metric, value in res["raw"].items():
                flat[f"{name}.{kind}.{metric}"] = (value, units[metric])
            for metric, entry in res["metrics"].items():
                flat[f"{name}.{metric}"] = (entry["value"], entry["unit"])
            flat[f"{name}.{kind}.ops_attempted"] = (res["attempted"], "count")
            flat[f"{name}.{kind}.ops_failed"] = (res["failed"], "count")
    flat["meta.seed"] = seed
    flat["meta.nproc"] = os.cpu_count()
    flat["meta.commit"] = _git_commit()
    flat["meta.run_seconds"] = (seconds, "s")
    flat["meta.quick"] = quick

    sys.path.insert(0, SRC)
    from repro.bench import write_bench_json
    from repro.bench.harness import REPORT_DIR_ENV

    os.environ[REPORT_DIR_ENV] = OUT_DIR
    path = write_bench_json("e2e_quick" if quick else "e2e", flat)
    print(f"\nwrote {os.path.relpath(path)}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (one pass)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds of the pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="all workloads in <= 20 s")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    # SIGTERM must unwind through run_worker's cleanup, not skip it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload is None:
        return run_all(args.seed, args.quick, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    res = measure(args.workload, args.seed, seconds, args.trace, FULL, spec, SETUP_PROBES)
    if res.get("p95_samples_beyond") is not None:
        print(
            f"{args.workload}: {res['attempted']} ops, "
            f"{res['p95_samples_beyond']} samples beyond p95; raw {res['raw']}",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
