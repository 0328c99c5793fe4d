"""End-to-end distributed trace: ``ServeClient`` requests travel over
TCP to a ``ServeServer`` in a child process, and every span of both
processes lands in ONE trace.

The trace spans exactly two processes, client and server.  Blocks run
on in-process worker threads, so no third process exists to carry a
span: the server's launches appear on the server's own track.  The
server child exports its trace at exit (``REPRO_TELEMETRY=1`` +
``REPRO_TELEMETRY_EXPORT``); the client side is collected in-process;
``stitch_traces`` joins the two on their trace ids.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys

import numpy as np

from repro import knobs, telemetry
from repro.serve.client import ServeClient
from repro.telemetry import tracing
from repro.telemetry.export import stitch_traces, to_chrome_trace, validate_trace

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src")

#: The server process: every knob at its default but the telemetry
#: pair, bound to an ephemeral port, serving until stdin yields a line.
SERVER_CHILD = """
import asyncio, json, sys
from repro.serve import ServeConfig
from repro.serve.server import ServeServer

async def serve():
    server = ServeServer(ServeConfig(port=0))
    await server.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    finally:
        await server.stop()

asyncio.run(serve())
"""

REQUESTS = 3


async def _drive(port, x, y):
    async with ServeClient(port=port) as client:
        for _ in range(REQUESTS):
            result = await client.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            )
            assert np.allclose(result.arrays["y"], 2.0 * x + y)


def test_single_trace_spans_client_and_server_processes(tmp_path):
    export = tmp_path / "server-trace.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith(knobs.PREFIX)}
    env.update(
        PYTHONPATH=os.path.abspath(SRC),
        REPRO_TELEMETRY="1",
        REPRO_TELEMETRY_EXPORT=str(export),
    )
    server = subprocess.Popen(
        [sys.executable, "-c", SERVER_CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    x, y = np.arange(256.0), np.ones(256)
    root = tracing.new_trace()
    try:
        port = json.loads(server.stdout.readline())["port"]
        with telemetry.collect() as t:
            with tracing.use(root):
                asyncio.run(_drive(port, x, y))
        _, stderr = server.communicate("stop\n", timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    assert server.returncode == 0, stderr

    client_trace = to_chrome_trace(t)
    server_trace = json.loads(export.read_text())
    stitched = validate_trace(stitch_traces([client_trace, server_trace]))

    # -- one trace across exactly two real processes ---------------------
    traced = [
        ev
        for ev in stitched["traceEvents"]
        if ev.get("ph") == "X" and "trace_id" in ev.get("args", {})
    ]
    assert {ev["args"]["trace_id"] for ev in traced} == {root.trace_id}
    assert {ev["pid"] for ev in traced} == {os.getpid(), server.pid}

    # -- every server request hangs under a client wire span -------------
    wire = {
        ev["args"]["span_id"]
        for ev in traced
        if ev["name"] == "serve.client.wire" and ev["pid"] == os.getpid()
    }
    requests = [
        ev
        for ev in traced
        if ev["name"] == "serve.request" and ev["pid"] == server.pid
    ]
    assert len(wire) == REQUESTS
    assert len(requests) == REQUESTS
    assert {ev["args"]["parent_id"] for ev in requests} == wire
    # Each of those parent links crosses processes: one flow arrow each.
    assert stitched["otherData"]["flow_edges"] >= REQUESTS
