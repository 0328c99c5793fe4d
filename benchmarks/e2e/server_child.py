"""The server process of the ``serve_*`` workloads.

Starts ``ServeServer(ServeConfig(port=0))`` — every knob at its
default — prints the bound port as one JSON line, and serves until its
stdin yields a line or closes.  Closing is what happens when the load
generator dies, so the server cannot outlive it.  After a graceful stop
it prints what the process still holds (the leak check) and exits.
"""

from __future__ import annotations

import asyncio
import json
import sys


async def _serve() -> None:
    from repro.serve import ServeConfig
    from repro.serve.server import ServeServer

    server = ServeServer(ServeConfig(port=0))
    await server.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    finally:
        await server.stop()


def main() -> int:
    asyncio.run(_serve())
    from repro.dev.manager import device_workers
    from repro.mem.shm import active_segment_names

    print(
        json.dumps(
            {
                "segments": active_segment_names(),
                "workers": [str(key) for key in device_workers()],
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
