"""One workload in a fresh process; started by ``run.py`` only.

Prints two JSON lines on stdout: ``{"event": "ready"}`` when set-up
(imports, server start, first op of every shape) is done — the
orchestrator times set-up from process start to this line — and
``{"event": "result", ...}`` after measurement and teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--probe-reps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if args.workload.startswith("serve_"):
        import serve_load as load
    else:
        import launch_load as load
    out = load.run(
        args.workload, args.seed, args.seconds, args.min_ops, args.probe_reps,
        bool(args.trace), lambda: _emit("ready"),
    )

    from repro.dev.manager import device_workers
    from repro.mem.shm import active_segment_names

    problems = out.pop("problems", [])
    if active_segment_names():
        problems.append(f"leaked shm segments {active_segment_names()}")
    if device_workers():
        problems.append(f"device workers left {list(device_workers())}")
    # Anything left behind counts as a failed op.
    out["failed"] += len(problems)
    out["problems"] = problems

    rec = out.pop("recorder", None)
    if rec is not None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace_{args.workload}.json")
        rec.write_chrome_trace(path, args.workload)
        out["trace_file"] = os.path.relpath(path)
    _emit("result", **out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
