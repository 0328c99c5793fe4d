"""``python -m repro.sanitize`` — the sanitizer command line.

Subcommands::

    demos       run the seeded-buggy demos; exit 0 iff every demo is FLAGGED
    kernels     sanitize every shipped kernel; exit 1 on any finding
    examples    run example scripts under the sanitizer; exit 1 on findings
    run         sanitize an arbitrary script (``--seed`` replays a schedule)
    crosscheck  replay the kernel sweep compiled vs interpreted; exit 1 on
                any bit-level mismatch or unclassified compile crash

``demos`` inverts the usual polarity: the demos contain known bugs, so
a *clean* report is the failure (exit 2) — that is the CI check that
the detector keeps detecting.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from typing import List, Optional

from ._state import enabled, pinned_seed
from .report import SanitizerReport


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="dynamic kernel sanitizer: races, bounds, divergence",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demos", help="run the seeded-buggy demo kernels")
    d.add_argument("names", nargs="*", help="demo names (default: all)")
    d.add_argument("--backend", help="back-end name (default: per demo)")
    d.add_argument("--seed", type=int, help="schedule seed (fuzzing back-ends)")
    d.add_argument(
        "--schedules", type=int, default=1,
        help="fuzz schedules per demo (default 1)",
    )

    k = sub.add_parser("kernels", help="sanitize every shipped kernel (must be clean)")
    k.add_argument(
        "--backend", action="append", dest="backends", metavar="NAME",
        help="back-end to sweep (repeatable; default: serial+threads+cuda-sim)",
    )
    k.add_argument("--seed", type=int, help="schedule seed for fuzzing back-ends")
    k.add_argument(
        "--only", action="append", metavar="KERNEL",
        help="restrict to one kernel family (repeatable)",
    )

    e = sub.add_parser("examples", help="run example scripts under the sanitizer")
    e.add_argument(
        "scripts", nargs="*",
        help="example paths (default: every examples/*.py)",
    )
    e.add_argument("--seed", type=int, help="schedule seed for fuzzing back-ends")

    c = sub.add_parser(
        "crosscheck",
        help="replay the kernel sweep compiled vs interpreted (bit-identity)",
    )
    c.add_argument(
        "--backend", action="append", dest="backends", metavar="NAME",
        help="pooled back-end to sweep (repeatable; default: omp2-blocks)",
    )
    c.add_argument(
        "--only", action="append", metavar="KERNEL",
        help="restrict to one kernel family (repeatable)",
    )

    r = sub.add_parser("run", help="sanitize an arbitrary python script")
    r.add_argument("script", help="path to the script")
    r.add_argument("args", nargs=argparse.REMAINDER, help="script argv")
    r.add_argument("--seed", type=int, help="schedule seed (replay a failing seed)")
    return p


def _finish(report: SanitizerReport, *, expect_findings: bool) -> int:
    out = report.render()
    if out:
        print(out)
    if expect_findings:
        return 0 if not report.clean else 2
    return 0 if report.clean else 1


def _cmd_demos(ns) -> int:
    from .demos import DEMOS, run_demo

    names = ns.names or sorted(DEMOS)
    combined = SanitizerReport(label="demos")
    missed: List[str] = []
    for name in names:
        rep = run_demo(
            name, ns.backend, seed=ns.seed, schedules=ns.schedules
        )
        combined.launches.extend(rep.launches)
        expected = DEMOS[name][1]
        got = rep.counts_by_kind()
        missing = [k for k in expected if not got.get(k)]
        if missing:
            missed.append(f"{name} (missing {', '.join(missing)})")
    print(combined.render())
    if missed:
        print(f"NOT FLAGGED: {'; '.join(missed)}", file=sys.stderr)
        return 2
    n = len(combined.findings)
    print(f"all {len(names)} demo(s) flagged as intended ({n} finding(s))")
    return 0


def _cmd_kernels(ns) -> int:
    from .sweep import sweep_kernels

    report = sweep_kernels(ns.backends, seed=ns.seed, only=ns.only)
    rc = _finish(report, expect_findings=False)
    if rc == 0:
        print(f"kernel sweep clean ({len(report.launches)} sanitized launches)")
    return rc


def _default_examples() -> List[str]:
    import os

    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    ex_dir = os.path.join(here, "examples")
    if not os.path.isdir(ex_dir):
        return []
    return sorted(
        os.path.join(ex_dir, f)
        for f in os.listdir(ex_dir)
        if f.endswith(".py")
    )


def _run_script(
    path: str, report: SanitizerReport, argv: Optional[List[str]] = None
) -> None:
    saved = sys.argv
    sys.argv = [path] + list(argv or [])
    try:
        with enabled(label=path) as rep:
            try:
                runpy.run_path(path, run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise
    finally:
        sys.argv = saved
    report.launches.extend(rep.launches)


#: Shrunken argv per example so the instrumented run stays fast (the
#: shadow layer records every element access in Python); detection
#: coverage is identical — the kernels are the same, just fewer steps.
_FAST_EXAMPLE_ARGV = {
    "heat_equation.py": ["AccCpuOmp2Blocks", "3"],
    "matmul_tiling.py": ["16"],
    "multi_gpu_halo.py": ["3"],
}


def _cmd_examples(ns) -> int:
    import os

    scripts = ns.scripts or _default_examples()
    if not scripts:
        print("no example scripts found", file=sys.stderr)
        return 1
    report = SanitizerReport(label="examples")
    with pinned_seed(ns.seed):
        for path in scripts:
            print(f"[sanitize] {path}", file=sys.stderr)
            argv = _FAST_EXAMPLE_ARGV.get(os.path.basename(path))
            _run_script(path, report, argv)
    rc = _finish(report, expect_findings=False)
    if rc == 0:
        print(
            f"examples clean ({len(scripts)} script(s), "
            f"{len(report.launches)} sanitized launches)"
        )
    return rc


def _cmd_crosscheck(ns) -> int:
    from .crosscheck import sweep_crosscheck

    report = sweep_crosscheck(ns.backends, only=ns.only)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_run(ns) -> int:
    report = SanitizerReport(label=ns.script)
    with pinned_seed(ns.seed):
        _run_script(ns.script, report, ns.args)
    return _finish(report, expect_findings=False)


def main(argv: Optional[List[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    return {
        "demos": _cmd_demos,
        "kernels": _cmd_kernels,
        "examples": _cmd_examples,
        "crosscheck": _cmd_crosscheck,
        "run": _cmd_run,
    }[ns.command](ns)


if __name__ == "__main__":
    sys.exit(main())
