"""TCP server + async client: the full remote path over localhost."""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import knobs, telemetry
from repro.core.errors import ServeError
from repro.runtime.instrument import observers
from repro.serve import Gateway, ServeConfig, register_workload
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_arrays,
    encode_message,
)
from repro.serve.server import ServeServer
from repro.serve.workloads import AxpyWorkload
from repro.telemetry import tracing

from . import Slow
from .frames import MAGIC, PREFIX, raw_frame, read_frame


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def server_config():
    # port=0: bind an ephemeral port so parallel test runs never clash.
    return ServeConfig(port=0, batch_window=0.002, drain_timeout=30.0)


async def _with_server(config, fn):
    # The gateway steps on the server's loop, as one the server builds
    # does; the test keeps it to shut it down without releasing pools.
    loop = asyncio.get_running_loop()
    gateway = Gateway(config, loop=loop)
    try:
        async with ServeServer(config, gateway=gateway) as server:
            async with ServeClient(port=server.port) as client:
                return await fn(server, client)
    finally:
        await loop.run_in_executor(
            None, lambda: gateway.shutdown(release_pools=False)
        )


class RawConnection:
    """A socket that speaks frames by hand, for sending wrong ones."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, data: bytes, *, eof: bool = False):
        self.writer.write(data)
        await self.writer.drain()
        if eof:
            self.writer.write_eof()

    async def reply(self):
        """The next reply, or None once the server hung up."""
        try:
            frame = await asyncio.wait_for(read_frame(self.reader), 10)
        except ConnectionError:  # hung up with our bytes still unread
            return None
        return None if frame is None else decode_message(frame)

    async def ask(self, message: dict):
        await self.send(encode_message(message))
        return await self.reply()

    def close(self):
        self.writer.close()


def launch_frame(entry: dict, payload: bytes) -> bytes:
    """An axpy launch whose ``x`` entry is whatever the test says."""
    y = {"dtype": "float64", "shape": [2], "offset": 0, "nbytes": 16}
    message = {"op": "launch", "id": 5, "workload": "axpy",
               "params": {"alpha": 1.0}, "arrays": {"x": entry, "y": y}}
    return raw_frame(json.dumps(message).encode(), payload)


def handler_tasks(kind: str):
    """Live server tasks of one kind ('connection' or 'frame'); the
    handlers are the shared skeleton's, FrameServer's."""
    name = f"FrameServer._handle_{kind}"
    return [
        t for t in asyncio.all_tasks()
        if getattr(t.get_coro(), "__qualname__", "") == name
    ]


async def no_handler_left():
    """True once the only server task alive is the reader of the one
    connection ``_with_server`` keeps open (its ServeClient)."""
    for _ in range(200):
        if not handler_tasks("frame") and len(handler_tasks("connection")) == 1:
            return True
        await asyncio.sleep(0.01)
    return False


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

    def test_stats_count_lone_requests_and_process_cpu(self, server_config, rng):
        """``cpu_us_per_op`` is one division away over the wire: the
        reply carries the server's process CPU seconds and its request
        counts, lone admissions among them."""
        arrays = {"x": rng.standard_normal(8), "y": rng.standard_normal(8)}

        async def check(server, client):
            first = await client.stats()
            for _ in range(3):
                await client.launch("axpy", params={"alpha": 1.0}, arrays=arrays)
            return first, await client.stats()

        first, after = run(_with_server(server_config, check))
        counts = after["requests"]
        assert counts["lone"] == counts["completed"] == 3
        assert 0 < first["process_cpu_s"] <= after["process_cpu_s"]

    def test_remote_validation_error(self, server_config):
        async def check(server, client):
            with pytest.raises(ServeError):
                await client.launch("axpy", params={"alpha": 1.0})

        run(_with_server(server_config, check))

    def test_unknown_op_is_an_error_reply(self, server_config):
        async def check(server, client):
            raw = await RawConnection.open(server.port)
            reply = await raw.ask({"op": "frobnicate", "id": 1})
            assert reply["ok"] is False and reply["id"] == 1
            assert reply["error"] == "ServeError"
            assert "unknown op" in reply["message"]
            # A refused request leaves the connection in step.
            assert (await raw.ask({"op": "ping", "id": 2}))["pong"] is True
            raw.close()

        run(_with_server(server_config, check))

    def test_malformed_line_is_an_error_reply(self, server_config):
        """A JSON line (the retired framing) or any other non-frame
        gets one classified reply, then the connection is dropped."""

        async def check(server, client):
            raw = await RawConnection.open(server.port)
            await raw.send(b'{"op": "ping", "id": 1}\n')
            reply = await raw.reply()
            assert reply["ok"] is False and reply["id"] is None
            assert reply["error"] == "ServeError"
            assert "not a protocol frame" in reply["message"]
            assert await raw.reply() is None
            raw.close()

        run(_with_server(server_config, check))

    def test_large_payload_roundtrip(self, server_config, rng):
        """Frames beyond asyncio's 64 KiB default stream limit must
        survive (regression: big arrays severed the connection)."""
        x = rng.standard_normal(40000)  # 312 KiB each way
        y = rng.standard_normal(40000)

        async def check(server, client):
            result = await client.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            )
            assert np.array_equal(result.arrays["y"], 2.0 * x + y)

        run(_with_server(server_config, check))

    def test_results_bit_identical_over_wire(self, server_config, rng):
        """The wire must not perturb a single bit."""
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


def _serve_stats(server):
    return server.gateway.stats()["requests"]


class TestLoneRequests:
    """A lone frame (nothing else of its connection unanswered, nothing
    read behind it) runs inside its own ``submit`` when nothing waits
    ahead of it (``requests.lone``); every other request waits for the
    loop's next step."""

    def test_lone_means_nothing_else_waits(self, server_config):
        """Lone: no other frame of the connection unanswered, and no
        frame of any connection read behind it before its handler ran."""

        async def check(server, client):
            seen = []

            async def record(message, trace, lone):
                seen.append((message["id"], lone))
                return {"id": message["id"], "ok": True, "pong": True}

            server._dispatch = record
            a = await RawConnection.open(server.port)
            b = await RawConnection.open(server.port)
            await a.ask({"op": "ping", "id": 1})
            # Three frames on one connection, then one on each of two
            # connections, each group readable at the same loop turn.
            a.writer.write(b"".join(
                encode_message({"op": "ping", "id": i}) for i in (2, 3, 4)
            ))
            await a.writer.drain()
            for _ in range(3):
                await a.reply()
            a.writer.write(encode_message({"op": "ping", "id": 5}))
            b.writer.write(encode_message({"op": "ping", "id": 6}))
            await asyncio.gather(a.writer.drain(), b.writer.drain())
            await asyncio.gather(a.reply(), b.reply())
            a.close()
            b.close()
            return seen

        seen = run(_with_server(server_config, check))
        assert seen == [
            (1, True), (2, False), (3, False), (4, False), (5, False), (6, True)
        ]

    def test_solo_client_runs_inline_bit_identically(self, server_config, rng):
        pairs = [
            (rng.standard_normal(257), rng.standard_normal(257))
            for _ in range(12)
        ]

        async def check(server, client):
            replies = []
            for x, y in pairs:
                result = await client.launch(
                    "axpy", params={"alpha": 1.3}, arrays={"x": x, "y": y}
                )
                replies.append(result.arrays["y"])
            return replies, _serve_stats(server)

        remote, counts = run(_with_server(server_config, check))
        assert counts["lone"] == counts["completed"] == len(pairs)
        with Gateway(ServeConfig(enable_batching=False)) as gw:
            for (x, y), got in zip(pairs, remote):
                local = gw.launch(
                    "axpy", params={"alpha": 1.3}, arrays={"x": x, "y": y}
                ).result(timeout=30)
                assert np.array_equal(got, local.arrays["y"])
            assert gw.stats()["requests"]["lone"] == 0
            gw.shutdown(release_pools=False)

    def test_pipelined_connection_still_coalesces(self, server_config, rng):
        """16 requests in flight on one connection with a shared alpha:
        only a frame read while the connection has nothing else
        unanswered is lone, so the rest still meet in the batcher."""
        x, y = rng.standard_normal(64), rng.standard_normal(64)

        async def check(server, client):
            window = asyncio.Semaphore(16)

            async def one():
                async with window:
                    return await client.launch(
                        "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
                    )

            results = await asyncio.gather(*(one() for _ in range(160)))
            assert all(
                np.array_equal(r.arrays["y"], 2.0 * x + y) for r in results
            )
            return max(r.batch_size for r in results), _serve_stats(server)

        max_batch, counts = run(_with_server(server_config, check))
        assert max_batch > 1
        assert counts["lone"] < counts["completed"] == 160

    def test_inline_and_queued_runs_never_overlap_on_a_lane(self, rng):
        """A TCP solo client (lone) and an in-process submitter (loop
        steps) share one lane: the lane runs one batch at a time."""
        config = ServeConfig(
            port=0, batch_window=0.0, lanes=(("AccCpuSerial", 0),),
            drain_timeout=30.0,
        )
        Slow.most = 0
        stop = threading.Event()

        def in_process(gateway):
            # Paced, so nothing is queued part of the time and the TCP
            # client's lone requests get to run inside submit.
            while not stop.wait(0.002):
                gateway.launch("test_slow_overlap").result(timeout=30)

        async def check(server, client):
            loop = asyncio.get_running_loop()
            side = loop.run_in_executor(None, in_process, server.gateway)
            try:
                for _ in range(60):
                    await client.launch("test_slow_overlap")
            finally:
                stop.set()
            await side
            return _serve_stats(server)

        counts = run(_with_server(config, check))
        assert Slow.most == 1
        assert 0 < counts["lone"] < counts["completed"]

    def test_failing_inline_run_fails_only_its_request(self, server_config):
        async def check(server, client):
            await client.launch("test_slow_overlap")
            with pytest.raises(ServeError, match="inline boom"):
                await client.launch("test_slow_overlap", params={"fail": 1})
            after = await client.launch("test_slow_overlap")
            return after.arrays["n"], _serve_stats(server)

        n, counts = run(_with_server(server_config, check))
        assert list(n) == [1]
        assert counts["failed"] == 1 and counts["completed"] == 2
        assert counts["lone"] == 3  # the lane stayed usable inline


class _WhereAxpy(AxpyWorkload):
    """axpy under a key of its own, recording the thread and size of
    every merged launch."""

    name = "test_axpy_where"
    runs: list = []

    def batch_key(self, req):
        return (self.name,) + super().batch_key(req)[1:]

    def execute(self, requests, acc_type, device):
        type(self).runs.append((threading.get_ident(), len(requests)))
        return super().execute(requests, acc_type, device)


try:
    register_workload(_WhereAxpy())
except ServeError:
    pass  # registered by an earlier import


async def _park_held_batch(gateway, launch):
    """Three ``launch()`` calls on the loop thread, the last parked in a
    held batch, the way real traffic gets one: the first two are offered
    before one step, so they join one open batch, which gives their key
    company, and the key's next batch opens held.  Returns the pair's
    handles and the held one."""
    pair = [launch(), launch()]
    await asyncio.sleep(0)  # one loop turn: the step ran the pair's batch
    assert [(await h).batch_size for h in pair] == [2, 2]
    held = launch()
    await asyncio.sleep(0)
    assert gateway.stats()["batcher"]["held"] == 1
    return pair, held


def _one_lane(**fields):
    return ServeConfig(
        port=0, lanes=(("AccCpuSerial", 0),), drain_timeout=30.0, **fields
    )


class TestBatchesOnTheLoop:
    """A gateway the server builds steps on the server's own loop and
    starts no thread: every due batch runs on the loop thread, one after
    another; a parked batch flushes at its deadline, or at stop."""

    def test_pipelined_burst_runs_on_the_loop_thread(self, server_config, rng):
        pairs = [
            (rng.standard_normal(64), rng.standard_normal(64)) for _ in range(96)
        ]
        _WhereAxpy.runs.clear()

        async def check():
            async with ServeServer(server_config) as server:
                async with ServeClient(port=server.port) as client:
                    window = asyncio.Semaphore(16)

                    async def one(x, y):
                        async with window:
                            return await client.launch(
                                "test_axpy_where", params={"alpha": 1.5},
                                arrays={"x": x, "y": y},
                            )

                    results = await asyncio.gather(*(one(x, y) for x, y in pairs))
                    counts = server.gateway.stats()["requests"]
            return threading.get_ident(), results, counts

        loop_thread, results, counts = run(check())
        assert {thread for thread, _ in _WhereAxpy.runs} == {loop_thread}
        assert max(size for _, size in _WhereAxpy.runs) > 1
        assert counts["completed"] == len(pairs)
        with Gateway(ServeConfig(enable_batching=False)) as gw:
            for (x, y), got in zip(pairs, results):
                solo = gw.launch(
                    "axpy", params={"alpha": 1.5}, arrays={"x": x, "y": y}
                ).result(timeout=30)
                assert np.array_equal(got.arrays["y"], solo.arrays["y"])
            gw.shutdown(release_pools=False)

    def test_held_batch_flushes_at_its_deadline(self, rng):
        window = 0.05
        args = {"params": {"alpha": 2.0},
                "arrays": {"x": rng.standard_normal(32), "y": rng.standard_normal(32)}}

        async def check():
            before = set(threading.enumerate())
            async with ServeServer(_one_lane(batch_window=window)) as server:
                gateway = server.gateway
                _, held = await _park_held_batch(
                    gateway, lambda: gateway.launch("axpy", **args)
                )
                # Nothing arrives after it: only the deadline flushes it.
                result = await held
                spawned = set(threading.enumerate()) - before
            return gateway, result, spawned

        gateway, result, spawned = run(check())
        assert gateway._loop_thread is None
        # No thread at all: no gateway loop thread and no lane thread.
        assert not spawned, sorted(t.name for t in spawned)
        assert result.batch_size == 1 and result.latency >= 0.9 * window
        assert np.array_equal(
            result.arrays["y"], 2.0 * args["arrays"]["x"] + args["arrays"]["y"]
        )

    def test_one_lane_runs_its_batches_in_turn_on_the_loop(self):
        """A batch offered while another occupies the loop thread waits
        for the next step: the two never overlap on their lane."""
        Slow.most = 0
        Slow.threads.clear()
        Slow.started.clear()
        Slow.gate.clear()
        with Gateway(_one_lane(batch_window=0.0)) as gw:
            first = gw.launch("test_slow_overlap", params={"gate": 1})
            try:
                assert Slow.started.wait(timeout=30)  # on the loop thread
                second = gw.launch("test_slow_overlap")
            finally:
                Slow.gate.set()
            assert list(second.result(timeout=30).arrays["n"]) == [1]
            first.result(timeout=30)
            loop_thread = gw._loop_thread.ident
            gw.shutdown(release_pools=False)
        assert Slow.most == 1
        assert Slow.threads == [loop_thread, loop_thread]

    def test_stop_drains_a_parked_batch_and_leaves_no_thread(self, rng):
        window = 30.0
        args = {"params": {"alpha": 2.0},
                "arrays": {"x": rng.standard_normal(32), "y": rng.standard_normal(32)}}

        async def check():
            before = set(threading.enumerate())
            server = ServeServer(_one_lane(batch_window=window))
            await server.start()
            gateway = server.gateway
            _, held = await _park_held_batch(
                gateway, lambda: gateway.launch("axpy", **args)
            )
            assert not held.done()
            await server.stop()
            left = [
                t.name for t in set(threading.enumerate()) - before
                if not t.name.startswith("asyncio_")  # the executor stop() used
            ]
            return await held, left

        result, left = run(check())
        assert left == []
        assert result.latency < window and result.batch_size == 1


class TestWireFailures:
    """Every way a peer can get the framing or a frame wrong ends in a
    classified reply or a closed connection — and a server that still
    answers the next connection, with no handler task left behind."""

    @staticmethod
    def check_survives(server_config, misbehave):
        async def check(server, client):
            raw = await RawConnection.open(server.port)
            try:
                await misbehave(raw)
            finally:
                raw.close()
            assert await client.ping()
            fresh = await RawConnection.open(server.port)
            assert (await fresh.ask({"op": "ping", "id": 1}))["pong"] is True
            fresh.close()
            assert await no_handler_left()

        run(_with_server(server_config, check))

    # -- the framing is lost: one reply, then the server hangs up -------

    def test_truncated_prefix(self, server_config):
        async def misbehave(raw):
            await raw.send(encode_message({"op": "ping", "id": 1})[:7], eof=True)
            reply = await raw.reply()
            assert reply["error"] == "ServeError" and reply["id"] is None
            assert "truncated frame: 7 of 12 prefix" in reply["message"]
            assert await raw.reply() is None

        self.check_survives(server_config, misbehave)

    def test_disconnect_mid_body(self, server_config):
        frame = encode_message(
            {"op": "launch", "id": 1, "workload": "axpy",
             "arrays": encode_arrays({"x": np.arange(512.0), "y": np.arange(512.0)})}
        )

        async def misbehave(raw):
            await raw.send(frame[: len(frame) // 2], eof=True)
            reply = await raw.reply()
            assert reply["error"] == "ServeError"
            assert "truncated frame" in reply["message"]
            assert await raw.reply() is None

        self.check_survives(server_config, misbehave)

    def test_abrupt_disconnect_mid_body(self, server_config):
        async def misbehave(raw):
            await raw.send(PREFIX.pack(MAGIC, 64, 1 << 20) + b"{")
            raw.writer.transport.abort()  # RST, no half-close courtesy

        self.check_survives(server_config, misbehave)

    def test_oversize_refused_without_its_body(self, server_config):
        async def misbehave(raw):
            # Only the prefix is ever sent: a server that tried to
            # buffer the announced body would never answer.
            await raw.send(PREFIX.pack(MAGIC, 64, MAX_FRAME_BYTES))
            reply = await raw.reply()
            assert reply["error"] == "ServeError" and reply["id"] is None
            assert "exceeds" in reply["message"]
            assert await raw.reply() is None

        self.check_survives(server_config, misbehave)

    # -- the frame is whole, its content is wrong: reply, carry on ------

    @pytest.mark.parametrize(
        "header, needle",
        [
            (b'{"op": "ping", "id": "\xff\xfe"}', "malformed frame header"),
            (b'{"op": "ping"', "malformed frame header"),
            (b'["ping", 1]', "JSON object"),
        ],
    )
    def test_bad_header(self, server_config, header, needle):
        async def misbehave(raw):
            await raw.send(raw_frame(header))
            reply = await raw.reply()
            assert reply["error"] == "ServeError" and reply["id"] is None
            assert needle in reply["message"]
            assert (await raw.ask({"op": "ping", "id": 2}))["pong"] is True

        self.check_survives(server_config, misbehave)

    @pytest.mark.parametrize(
        "entry, needle",
        [
            ({"dtype": "float64", "shape": [2], "offset": 8, "nbytes": 16},
             "outside the payload"),
            ({"dtype": "float64", "shape": [2], "offset": 0, "nbytes": 1 << 30},
             "outside the payload"),
            ({"dtype": "float64", "shape": [3], "offset": 0, "nbytes": 16},
             "size mismatch"),
            ({"dtype": "float64", "shape": [-2], "offset": 0, "nbytes": 16},
             "negative extent"),
            ({"dtype": "O", "shape": [2], "offset": 0, "nbytes": 16},
             "refusing dtype"),
        ],
    )
    def test_bad_array_entry(self, server_config, entry, needle):
        async def misbehave(raw):
            await raw.send(launch_frame(entry, bytes(16)))
            reply = await raw.reply()
            assert reply["ok"] is False and reply["error"] == "ServeError"
            assert needle in reply["message"]
            if "outside" not in needle:  # the header was readable
                assert reply["id"] == 5
            assert (await raw.ask({"op": "ping", "id": 6}))["pong"] is True

        self.check_survives(server_config, misbehave)

    def test_cancelled_handler_is_not_turned_into_a_reply(self, server_config):
        """Cancellation propagates: the handler ends cancelled instead
        of writing an error frame to a closing writer."""

        async def check(server, client):
            release = asyncio.Event()

            async def parked(message, trace, lone):
                await release.wait()

            server._dispatch = parked
            raw = await RawConnection.open(server.port)
            await raw.send(encode_message({"op": "ping", "id": 1}))
            for _ in range(200):
                if handler_tasks("frame"):
                    break
                await asyncio.sleep(0.01)
            (task,) = handler_tasks("frame")
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert task.cancelled()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(read_frame(raw.reader), 0.2)
            raw.close()
            assert await no_handler_left()

        run(_with_server(server_config, check))


class TestWireSpans:
    def test_codec_spans_join_the_request_trace(self, server_config, rng):
        """A traced request shows its decode and encode time as children
        of its own serve.request span, sized in bytes."""
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)

        async def check(server, client):
            await client.launch("axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y})

        root = tracing.new_trace()
        with telemetry.collect() as t:
            with tracing.use(root):
                run(_with_server(server_config, check))

        by_name = {}
        for ev in telemetry.to_chrome_trace(t)["traceEvents"]:
            by_name.setdefault(ev["name"], []).append(ev["args"])
        (request,) = by_name["serve.request"]
        (decode,) = by_name["serve.wire.decode"]
        (encode,) = by_name["serve.wire.encode"]
        for span in (decode, encode):
            assert span["trace_id"] == root.trace_id
            assert span["parent_id"] == request["span_id"]
        sent, received = decode["bytes"], encode["bytes"]
        assert x.nbytes + y.nbytes < sent < 1.05 * (x.nbytes + y.nbytes)
        assert y.nbytes < received < 1.05 * y.nbytes

    def test_untraced_requests_record_nothing_when_unobserved(
        self, server_config, rng, monkeypatch
    ):
        from repro.serve import server as server_module

        seen = []
        monkeypatch.setattr(
            server_module, "record_span",
            lambda *a, **k: seen.append(k.get("trace")),
        )

        async def check(server, client):
            await client.launch(
                "axpy", params={"alpha": 1.0},
                arrays={"x": rng.standard_normal(8), "y": rng.standard_normal(8)},
            )

        run(_with_server(server_config, check))
        assert seen == [None, None]  # no context minted for an untraced request


class TestTracesEndpoint:
    """``/traces`` under load: the ops listener reads the span log's last
    ``serve.request`` records, whether or not a collector runs."""

    REQUESTS = 64

    def _drive(self, server_config, rng, collect):
        import contextlib
        import urllib.request

        from repro.telemetry.http import OpsServer

        x, y = rng.standard_normal(256), rng.standard_normal(256)
        seen = set()

        async def check(server, client):
            for i in range(self.REQUESTS + 1):
                seen.update(observers())
                if i == self.REQUESTS - 4:
                    with pytest.raises(ServeError, match="inline boom"):
                        await client.launch(
                            "test_slow_overlap", params={"fail": 1}
                        )
                else:
                    await client.launch(
                        "axpy", params={"alpha": 2.0},
                        arrays={"x": x, "y": y},
                    )

        root = tracing.new_trace()
        scope = telemetry.collect() if collect else contextlib.nullcontext()
        seq = telemetry.spanlog.log().seq
        with OpsServer() as ops, scope, tracing.use(root):
            run(_with_server(server_config, check))
            host, port = ops.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/traces?limit=10", timeout=10
            ) as resp:
                traces = json.loads(resp.read())["traces"]
        kinds = {r["kind"] for r in telemetry.spanlog.log().since(seq)[0]}
        return root, traces, seen, kinds

    @pytest.mark.parametrize("collect", [True, False], ids=["collect", "ops-only"])
    def test_last_requests_with_their_summary_fields(
        self, server_config, rng, collect
    ):
        from repro.telemetry.http import TRACE_FIELDS

        root, traces, _, _ = self._drive(server_config, rng, collect)
        assert len(traces) == 10
        assert len(TRACE_FIELDS) == 11
        assert all(set(tr) == set(TRACE_FIELDS) for tr in traces)
        assert {tr["trace_id"] for tr in traces} == {root.trace_id}
        failed = [tr for tr in traces if tr["error"]]
        assert [tr["workload"] for tr in failed] == ["test_slow_overlap"]
        assert failed[0]["error"] == "RuntimeError: inline boom"
        ok = [tr for tr in traces if not tr["error"]]
        assert {tr["workload"] for tr in ok} == {"axpy"}
        assert all(tr["latency_s"] > 0 and tr["batch_size"] == 1 for tr in ok)
        ids = [tr["request_id"] for tr in traces]
        assert ids == sorted(ids) and len(set(ids)) == 10

    def test_listener_alone_leaves_the_launch_path_unobserved(
        self, server_config, rng
    ):
        """With only the ops listener running nothing observes the
        runtime: no observer is registered while requests run, and the
        log gains the requests' records and nothing else."""
        _, traces, seen, kinds = self._drive(server_config, rng, False)
        assert len(traces) == 10
        assert seen == set()
        assert kinds == {"serve.request"}
