"""``python -m repro.telemetry`` — run, report, export.

Three subcommands:

* ``run <script.py> [args...]`` — execute a Python script under a
  telemetry collector, print the report when it finishes, optionally
  export (``--trace``, ``--prom``);
* ``report`` — run the built-in demo workload (the single-source tiled
  GEMM on every registered back-end, the paper's Fig. 7 kernel) and
  print the report — the quickest way to see the telemetry layer work;
* ``export`` — run the demo workload and write the Chrome trace and/or
  Prometheus files without the human report (CI's entry point).

The demo workload deliberately exercises every signal class: staged
copies, launches on each back-end, plan-cache hits from repeated
launches, and modeled time on the self-describing GEMM kernels.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from typing import List, Optional

from . import collect
from .collector import TelemetryCollector
from .export import to_prometheus, write_chrome_trace
from .report import render

__all__ = ["main", "demo_workload"]


def demo_workload(
    backends: Optional[List[str]] = None, n: int = 64, repeats: int = 3
) -> None:
    """Run the tiled GEMM on every (or the named) back-ends.

    Repeated launches per back-end make the plan cache observable; the
    GEMM kernels describe themselves, so modeled time shows up too.
    """
    import numpy as np

    from ..acc import accelerator, accelerator_names
    from ..core.kernel import create_task_kernel
    from ..dev.manager import get_dev_by_idx
    from ..kernels.gemm import GemmTilingKernel, gemm_workdiv_tiling
    from ..mem import alloc, copy
    from ..queue import QueueBlocking

    rng = np.random.default_rng(7)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    C = np.zeros((n, n))
    kernel = GemmTilingKernel()

    for name in backends if backends else accelerator_names():
        acc = accelerator(name)
        # Square multi-thread blocks need block sync; the others take
        # the whole tile at the element level.
        bt, v = (2, 4) if acc.supports_block_sync else (1, 8)
        wd = gemm_workdiv_tiling(n, bt, v)
        dev = get_dev_by_idx(acc, 0)
        q = QueueBlocking(dev)
        bufs = []
        for host in (A, B, C):
            buf = alloc(dev, (n, n))
            copy(q, buf, host)
            bufs.append(buf)
        task = create_task_kernel(
            acc, wd, kernel, n, 1.0, bufs[0], bufs[1], 0.0, bufs[2]
        )
        for _ in range(repeats):
            q.enqueue(task)
        out = np.empty((n, n))
        copy(q, out, bufs[2])


def _export(collector: TelemetryCollector, trace: Optional[str],
            prom: Optional[str]) -> List[str]:
    written = []
    if trace:
        written.append(write_chrome_trace(collector, trace))
    if prom:
        with open(prom, "w") as fh:
            fh.write(to_prometheus(collector.registry))
        written.append(prom)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Collect and export runtime telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run a script under telemetry and print the report"
    )
    p_run.add_argument("script", help="Python script to execute")
    p_run.add_argument(
        "script_args", nargs=argparse.REMAINDER,
        help="arguments passed to the script",
    )
    p_run.add_argument("--trace", help="write Chrome trace JSON here")
    p_run.add_argument("--prom", help="write Prometheus text here")
    p_run.add_argument(
        "--blocks", action="store_true",
        help="record per-block trace events (large!)",
    )

    for name, help_text in (
        ("report", "run the GEMM demo workload and print the report"),
        ("export", "run the GEMM demo workload and write export files"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--backend", action="append", dest="backends", default=None,
            help="restrict to this back-end (repeatable; default: all)",
        )
        p.add_argument(
            "--size", type=int, default=64, help="GEMM problem size n"
        )
        p.add_argument("--trace", help="write Chrome trace JSON here")
        p.add_argument("--prom", help="write Prometheus text here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with collect(
        label=args.command,
        record_blocks=bool(getattr(args, "blocks", False)),
    ) as collector:
        if args.command == "run":
            script_argv = [args.script] + list(args.script_args)
            old_argv = sys.argv
            sys.argv = script_argv
            try:
                runpy.run_path(args.script, run_name="__main__")
            finally:
                sys.argv = old_argv
        else:
            demo_workload(backends=args.backends, n=args.size)

    if args.command != "export":
        print(render(collector))
    written = _export(collector, args.trace, args.prom)
    for path in written:
        print(f"wrote {path}")
    if args.command == "export" and not written:
        print(
            "export: nothing to write (pass --trace and/or --prom)",
            file=sys.stderr,
        )
        return 2
    return 0
