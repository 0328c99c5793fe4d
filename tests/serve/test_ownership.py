"""Writes go only to memory a request owns: an in-process caller's
arrays come back bit-unchanged on every kind of lane, a request decoded
from its own frame is computed in place, and the wire changes no bit of
a result, solo or batched."""

from __future__ import annotations

import asyncio
import socket

import numpy as np
import pytest

from repro import accelerator, get_dev_by_idx
from repro.serve import Gateway, LaunchRequest, ServeConfig, get_workload
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    FrameConnection,
    decode_arrays,
    decode_message,
    encode_arrays,
    encode_message,
)
from repro.serve.server import ServeServer

LANES = ["AccCpuSerial", "AccCpuOmp2Blocks", "AccGpuCudaSim"]


def _payloads(rng):
    """(workload, params, arrays) for each built-in launch workload."""
    return [
        ("axpy", {"alpha": 1.7}, {
            "x": rng.standard_normal(300),
            "y": rng.standard_normal(300),
        }),
        ("scale", {"factor": 0.25}, {"x": rng.standard_normal(257)}),
        ("gemm", {"alpha": 1.0, "beta": 0.5}, {
            "A": rng.standard_normal((16, 16)),
            "B": rng.standard_normal((16, 16)),
            "C": rng.standard_normal((16, 16)),
        }),
    ]


def _config(backend: str, **fields) -> ServeConfig:
    return ServeConfig(lanes=((backend, 0),), drain_timeout=30.0, **fields)


class TestInProcessCallersKeepTheirArrays:
    @pytest.mark.parametrize("backend", LANES)
    def test_solo_launches_leave_inputs_bit_unchanged(self, rng, backend):
        payloads = _payloads(rng)
        before = [{k: v.copy() for k, v in arrays.items()} for _, _, arrays in payloads]
        with Gateway(_config(backend, batch_window=0.0)) as gw:
            results = [
                gw.launch(name, params=params, arrays=arrays).result(timeout=60)
                for name, params, arrays in payloads
            ]
            gw.shutdown(release_pools=False)
        for (name, _, arrays), kept, result in zip(payloads, before, results):
            for key, arr in arrays.items():
                assert arr.tobytes() == kept[key].tobytes(), (name, key)
            for out in result.arrays.values():
                for arr in arrays.values():
                    assert not np.shares_memory(out, arr), name
        x, y = before[0]["x"], before[0]["y"]
        np.testing.assert_array_equal(results[0].arrays["y"], 1.7 * x + y)

    @pytest.mark.parametrize("backend", LANES)
    def test_batched_launches_of_shared_arrays_leave_them_unchanged(self, rng, backend):
        """Many requests over the very same arrays, coalesced."""
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        x0, y0 = x.copy(), y.copy()
        with Gateway(_config(backend, batch_window=0.02)) as gw:
            handles = [
                gw.launch("axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y})
                for _ in range(16)
            ]
            results = [h.result(timeout=60) for h in handles]
            gw.shutdown(release_pools=False)
        assert max(r.batch_size for r in results) > 1
        assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
        for r in results:
            np.testing.assert_array_equal(r.arrays["y"], 2.0 * x0 + y0)


class TestOwnedRequestsComputeInPlace:
    """A request that owns its arrays (a decoded frame) gets its reply in
    its own memory: computed there on a host-addressable lane, copied
    back there from device memory on a device lane."""

    @staticmethod
    def _decoded(arrays):
        frame = bytearray(encode_message({"arrays": encode_arrays(arrays)}))
        return decode_arrays(decode_message(frame)["arrays"])

    @pytest.mark.parametrize("backend", LANES)
    def test_updated_outputs_reply_from_the_request_memory(self, rng, backend):
        acc = accelerator(backend)
        device = get_dev_by_idx(acc, 0)
        for name, params, arrays in _payloads(rng):
            out = {"axpy": "y", "gemm": "C"}.get(name)
            if out is None:
                continue  # scale writes a fresh output
            decoded = self._decoded(arrays)
            request = LaunchRequest(
                workload=name, params=params, arrays=decoded, owns_arrays=True
            )
            reference = LaunchRequest(workload=name, params=params, arrays=arrays)
            wl = get_workload(name)
            got = wl.execute([request], acc, device)[0][out]
            want = wl.execute([reference], acc, device)[0][out]
            assert got.tobytes() == want.tobytes(), name
            assert np.shares_memory(got, decoded[out]), (name, backend)

    @pytest.mark.parametrize("backend", ["AccCpuSerial", "AccCpuOmp2Blocks"])
    def test_host_lanes_allocate_and_copy_nothing(self, rng, backend, monkeypatch):
        from repro import mem

        called = []
        for fn in ("alloc", "copy"):
            real = getattr(mem, fn)
            monkeypatch.setattr(
                mem, fn,
                lambda *a, _real=real, _fn=fn, **k: called.append(_fn) or _real(*a, **k),
            )
        acc = accelerator(backend)
        device = get_dev_by_idx(acc, 0)
        for name, params, arrays in _payloads(rng):
            request = LaunchRequest(
                workload=name, params=params, arrays=self._decoded(arrays),
                owns_arrays=True,
            )
            get_workload(name).execute([request], acc, device)
        assert called == []


class TestWireChangesNoBit:
    def test_tcp_replies_equal_in_process_results_solo_and_batched(self, rng):
        payloads = _payloads(rng)
        xs = [rng.standard_normal(200) for _ in range(12)]
        ys = [rng.standard_normal(200) for _ in range(12)]

        async def remote():
            config = ServeConfig(
                port=0, batch_window=0.02, drain_timeout=30.0,
                lanes=(("AccCpuSerial", 0),),
            )
            async with ServeServer(config) as server:
                async with ServeClient(port=server.port) as client:
                    solo = [
                        await client.launch(name, params=params, arrays=arrays)
                        for name, params, arrays in payloads
                    ]
                    batched = await asyncio.gather(*(
                        client.launch("axpy", params={"alpha": 0.5}, arrays={"x": x, "y": y})
                        for x, y in zip(xs, ys)
                    ))
            return solo, batched

        solo, batched = asyncio.run(remote())
        assert max(r.batch_size for r in batched) > 1, "the burst never batched"
        unbatched = _config("AccCpuSerial", enable_batching=False, batch_window=0.0)
        with Gateway(unbatched) as gw:
            local_solo = [
                gw.launch(name, params=params, arrays=arrays).result(timeout=60)
                for name, params, arrays in payloads
            ]
            local_batched = [
                gw.launch("axpy", params={"alpha": 0.5}, arrays={"x": x, "y": y})
                .result(timeout=60)
                for x, y in zip(xs, ys)
            ]
            gw.shutdown(release_pools=False)
        for got, want in zip(solo + list(batched), local_solo + local_batched):
            assert set(got.arrays) == set(want.arrays)
            for key in want.arrays:
                assert got.arrays[key].dtype == want.arrays[key].dtype
                assert got.arrays[key].tobytes() == want.arrays[key].tobytes(), key


class TestCancelledCallSendsWhatItWasGiven:
    def test_arrays_changed_after_a_cancelled_launch_do_not_reach_the_server(
        self, monkeypatch
    ):
        """A launch cancelled while its frame still waits in the client's
        transport, whose caller then overwrites its array: the server
        reads the values the call was given.  The frame the client hands
        its connection holds no caller memory, so this holds whether the
        transport copies unsent bytes or keeps views of them."""
        handed = []
        write_frame = FrameConnection.write_frame

        def recording(conn, parts):
            handed.extend(parts)
            write_frame(conn, parts)

        monkeypatch.setattr(FrameConnection, "write_frame", recording)
        x = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
        given = x.copy()

        async def scenario():
            loop = asyncio.get_running_loop()
            frames, conns = [], []

            def accept():
                conns.append(FrameConnection(frames.append))
                return conns[-1]

            server = await loop.create_server(accept, "127.0.0.1", 0)
            # Small socket buffers, so the frame backs up into the
            # client's transport while the server does not read.
            server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 14)
            client = ServeClient(port=server.sockets[0].getsockname()[1], max_retries=0)
            await client.connect()
            try:
                client._conn.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 14
                )
                while not conns or conns[0].transport is None:
                    await asyncio.sleep(0.001)
                conns[0].transport.pause_reading()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        client.launch("scale", params={"factor": 2.0}, arrays={"x": x}),
                        0.05,
                    )
                assert client._conn.transport.get_write_buffer_size() > 0
                x[:] = -1.0
                conns[0].transport.resume_reading()
                for _ in range(2000):
                    if frames:
                        break
                    await asyncio.sleep(0.005)
                return frames
            finally:
                await client.close()
                for conn in conns:
                    conn.close()
                server.close()
                await server.wait_closed()

        frames = asyncio.run(scenario())
        assert len(frames) == 1, "the server never read the whole frame"
        got = decode_arrays(decode_message(frames[0])["arrays"])["x"]
        assert got.tobytes() == given.tobytes()
        assert not any(
            np.shares_memory(np.frombuffer(part, dtype=np.uint8), x)
            for part in handed
        )
