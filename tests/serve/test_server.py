"""TCP server + async client: the full remote path over localhost."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import knobs
from repro.core.errors import ServeError
from repro.serve import Gateway, ServeConfig
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def server_config():
    # port=0: bind an ephemeral port so parallel test runs never clash.
    return ServeConfig(port=0, batch_window=0.002, drain_timeout=30.0)


async def _with_server(config, fn):
    gateway = Gateway(config)
    try:
        async with ServeServer(config, gateway=gateway) as server:
            async with ServeClient(port=server.port) as client:
                return await fn(server, client)
    finally:
        gateway.shutdown(release_pools=False)


class TestServer:
    def test_ping(self, server_config):
        async def check(server, client):
            assert await client.ping()

        run(_with_server(server_config, check))

    def test_launch_roundtrip(self, server_config, rng):
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)

        async def check(server, client):
            result = await client.launch(
                "axpy", params={"alpha": 2.5}, arrays={"x": x, "y": y}
            )
            assert np.array_equal(result.arrays["y"], 2.5 * x + y)

        run(_with_server(server_config, check))

    def test_concurrent_clients_batch(self, server_config, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)

        async def check(server, client):
            results = await asyncio.gather(
                *(
                    client.launch(
                        "axpy",
                        params={"alpha": 2.0},
                        arrays={"x": x, "y": y},
                        tenant=f"t{i % 3}",
                    )
                    for i in range(12)
                )
            )
            assert all(
                np.array_equal(r.arrays["y"], 2.0 * x + y) for r in results
            )
            return max(r.batch_size for r in results)

        max_batch = run(_with_server(server_config, check))
        assert max_batch > 1

    def test_graph_over_wire(self, server_config):
        plate = np.zeros((12, 12))
        plate[0, :] = 10.0

        async def check(server, client):
            result = await client.submit_graph(
                "heat_equation",
                params={"steps": 2, "c": 0.1},
                arrays={"plate": plate},
            )
            assert result.arrays["plate"].shape == (12, 12)

        run(_with_server(server_config, check))

    def test_stats_op(self, server_config, rng):
        async def check(server, client):
            await client.launch(
                "axpy",
                params={"alpha": 1.0},
                arrays={
                    "x": rng.standard_normal(8),
                    "y": rng.standard_normal(8),
                },
            )
            stats = await client.stats()
            assert stats["requests"]["completed"] >= 1
            assert "lanes" in stats
            assert stats["config"] == json.loads(json.dumps(knobs.effective()))

        run(_with_server(server_config, check))

    def test_remote_validation_error(self, server_config):
        async def check(server, client):
            with pytest.raises(ServeError):
                await client.launch("axpy", params={"alpha": 1.0})

        run(_with_server(server_config, check))

    def test_unknown_op_is_an_error_reply(self, server_config):
        async def check(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(json.dumps({"op": "frobnicate", "id": 1}).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            reply = json.loads(line)
            assert reply["ok"] is False
            assert "unknown op" in reply["message"]

        run(_with_server(server_config, check))

    def test_malformed_line_is_an_error_reply(self, server_config):
        async def check(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            reply = json.loads(line)
            assert reply["ok"] is False

        run(_with_server(server_config, check))

    def test_large_payload_roundtrip(self, server_config, rng):
        """Lines beyond asyncio's 64 KiB default stream limit must
        survive — server and client raise the limit to the protocol's
        frame bound (regression: big arrays severed the connection)."""
        x = rng.standard_normal(40000)  # ~427 KiB base64-encoded
        y = rng.standard_normal(40000)

        async def check(server, client):
            result = await client.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            )
            assert np.array_equal(result.arrays["y"], 2.0 * x + y)

        run(_with_server(server_config, check))

    def test_results_bit_identical_over_wire(self, server_config, rng):
        """Base64 framing must not perturb a single bit."""
        x = rng.standard_normal(333)
        y = rng.standard_normal(333)

        async def check(server, client):
            remote = await client.launch(
                "axpy", params={"alpha": 1.7}, arrays={"x": x, "y": y}
            )
            return remote.arrays["y"]

        remote_y = run(_with_server(server_config, check))
        with Gateway(
            ServeConfig(enable_batching=False, batch_window=0.0)
        ) as gw:
            local = gw.launch(
                "axpy", params={"alpha": 1.7}, arrays={"x": x, "y": y}
            ).result(timeout=30)
            gw.shutdown(release_pools=False)
        assert np.array_equal(remote_y, local.arrays["y"])
