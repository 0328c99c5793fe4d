"""CLI entry point: ``python -m repro.serve``.

Flags override the ``REPRO_SERVE_*`` knobs of :mod:`repro.knobs`, which
override the built-in defaults (see :mod:`repro.serve.config`).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib

from .config import config_from_env, parse_lanes, parse_tenant_weights
from .server import serve_forever


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async kernel-launch gateway (TCP, binary frames).",
    )
    parser.add_argument("--host", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, help="TCP port (default 7411)")
    parser.add_argument(
        "--batch-window",
        type=float,
        help="longest a batch waits for compatible launches, in seconds; "
        "paid only by keys seen with concurrent requests (default 0.002)",
    )
    parser.add_argument(
        "--batch-max", type=int, help="max requests per merged batch"
    )
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help="disable coalescing; every request launches alone",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        help="per-tenant queue depth before RetryAfter",
    )
    parser.add_argument(
        "--inflight", type=int, help="per-tenant in-flight request cap"
    )
    parser.add_argument(
        "--weights",
        help='tenant weights, e.g. "gold:4,free:1" (default weight 1)',
    )
    parser.add_argument(
        "--lanes",
        help='device lanes, e.g. "AccCpuSerial:0,AccCpuOmp2Blocks:0"',
    )
    parser.add_argument(
        "--online-tuning",
        action="store_true",
        help="re-tune drifted workloads in the background "
        "(FleetConfig drift_* fields set the thresholds)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.batch_window is not None:
        overrides["batch_window"] = args.batch_window
    if args.batch_max is not None:
        overrides["batch_max"] = args.batch_max
    if args.no_batching:
        overrides["enable_batching"] = False
    if args.queue_bound is not None:
        overrides["queue_bound"] = args.queue_bound
    if args.inflight is not None:
        overrides["tenant_inflight"] = args.inflight
    if args.weights is not None:
        overrides["tenant_weights"] = parse_tenant_weights(args.weights)
    if args.lanes is not None:
        overrides["lanes"] = parse_lanes(args.lanes)
    if args.online_tuning:
        overrides["online_tuning"] = True
    config = config_from_env().with_overrides(**overrides)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve_forever(config))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
