"""CLI entry point: ``python -m repro.tuning``.

One subcommand, ``hof``: render the persisted evolutionary hall of
fame, latest generation first per run.
"""

from __future__ import annotations

import argparse
import sys

from ..comparison.render import render_table
from .evolve import default_hof_path, load_hall_of_fame


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="Tuning reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hof = sub.add_parser("hof", help="show the evolutionary hall of fame")
    hof.add_argument(
        "--path",
        help="hall-of-fame file "
        "(default: $REPRO_TUNING_HOF or ./.repro-tuning-hof.json)",
    )
    hof.add_argument(
        "--runs", type=int, default=3, help="how many recent runs to show"
    )
    return parser


def _fmt_div(payload: dict) -> str:
    return (
        f"grid={tuple(payload['grid'])} "
        f"block={tuple(payload['block'])} "
        f"elems={tuple(payload['elems'])}"
    )


def cmd_hof(args) -> int:
    path = args.path or default_hof_path()
    doc = load_hall_of_fame(path)
    runs = doc.get("runs", [])
    if not runs:
        print(f"no evolve runs recorded in {path}")
        return 0
    print(f"hall of fame: {path} ({len(runs)} run(s))")
    for run in runs[-max(args.runs, 1):][::-1]:
        best = run.get("best", {})
        header = (
            f"\nrun {run.get('label', '?')} — "
            f"{run.get('measurements', '?')} measurements over "
            f"{len(run.get('generations', []))} generation(s), "
            f"space {run.get('space', '?')}, "
            f"best {best.get('seconds', float('nan')):.3e}s"
        )
        print(header)
        rows = []
        # Latest generation first — the freshest champions on top.
        for gen in reversed(run.get("generations", [])):
            for rank, member in enumerate(gen.get("hall_of_fame", []), 1):
                rows.append(
                    {
                        "gen": gen.get("generation"),
                        "rank": rank,
                        "seconds": f"{member.get('seconds', float('nan')):.3e}",
                        "division": _fmt_div(member.get("work_div", {})),
                    }
                )
        if rows:
            print(render_table(rows))
    return 0


def main(argv=None) -> int:
    return cmd_hof(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
