"""Wire codec: frame layout, round-trips, the frame reader, and every
way a frame can be wrong."""

from __future__ import annotations

import asyncio
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import ServeError
from repro.serve.protocol import (
    JOIN_LIMIT,
    MAX_FRAME_BYTES,
    STAGING_BYTES,
    FrameConnection,
    decode_array,
    decode_arrays,
    decode_message,
    dtype_name,
    encode_array,
    encode_arrays,
    encode_frame,
    encode_message,
    error_payload,
    result_payload,
)
from repro.serve.types import LaunchRequest, RetryAfter, ServeResult

from .frames import MAGIC, PREFIX, raw_frame


def frame_with_array_entry(entry: dict, payload: bytes) -> bytes:
    header = json.dumps({"op": "launch", "id": 1, "arrays": {"x": entry}})
    return raw_frame(header.encode(), payload)


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(10, dtype=np.float64),
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array([], dtype=np.int64),
            np.arange(24, dtype=np.int32).reshape(2, 3, 4),
            np.array(2.5),
            np.arange(6, dtype=">f8").reshape(2, 3),
            np.zeros((0, 3), dtype=np.complex128),
        ],
    )
    def test_roundtrip_bit_exact(self, arr):
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_non_contiguous_input(self):
        arr = np.arange(20, dtype=np.float64)[::2]
        back = decode_array(encode_array(arr))
        assert np.array_equal(back, arr)

    def test_decoded_array_is_writable(self):
        back = decode_array(encode_array(np.arange(4.0)))
        back[0] = 99.0  # frombuffer gives read-only memory; we copy
        assert back.flags.owndata

    def test_size_mismatch_rejected(self):
        payload = encode_array(np.arange(10.0))
        payload["shape"] = [11]
        with pytest.raises(ServeError, match="size mismatch"):
            decode_array(payload)

    def test_garbage_payload_rejected(self):
        with pytest.raises(ServeError):
            decode_array({"dtype": "float64"})
        with pytest.raises(ServeError):
            decode_array({"dtype": "nope", "shape": [1], "data": b""})
        with pytest.raises(ServeError):  # np.dtype(None) would be float64
            decode_array({"dtype": None, "shape": [1], "data": bytes(8)})
        with pytest.raises(ServeError):
            decode_array({"dtype": "float64", "shape": [1], "data": "text"})

    def test_object_dtype_rejected_both_ways(self):
        with pytest.raises(ServeError, match="object"):
            encode_array(np.array([{}, []], dtype=object))
        with pytest.raises(ServeError, match="dtype"):
            decode_array({"dtype": "object", "shape": [1], "data": bytes(8)})

    def test_negative_extent_rejected(self):
        with pytest.raises(ServeError, match="negative"):
            decode_array({"dtype": "float64", "shape": [-1, -1], "data": bytes(8)})

    def test_arrays_dict_roundtrip(self):
        arrays = {"x": np.arange(4.0), "y": np.ones((2, 2))}
        back = decode_arrays(encode_arrays(arrays))
        assert set(back) == {"x", "y"}
        assert np.array_equal(back["y"], arrays["y"])

    def test_arrays_must_be_object(self):
        with pytest.raises(ServeError):
            decode_arrays([1, 2, 3])


# One strategy over what a client may send: every fixed-size dtype in
# both byte orders, 0-d / empty / multi-dimensional shapes, and views
# that are not C-contiguous.
wire_dtypes = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
    hnp.datetime64_dtypes(endianness="?"),
    hnp.byte_string_dtypes(),
    hnp.unicode_string_dtypes(endianness="?"),
)
wire_arrays = wire_dtypes.flatmap(
    lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)
    )
)
views = st.sampled_from(
    [
        lambda a: a,
        lambda a: a.T,
        lambda a: a[::2] if a.ndim else a,
        lambda a: a[..., ::-1] if a.ndim else a,
        np.asfortranarray,
    ]
)


class TestRoundtripProperty:
    @given(arr=wire_arrays, view=views)
    @settings(max_examples=200, deadline=None)
    def test_bytes_out_equal_bytes_in(self, arr, view):
        arr = view(arr)
        frame = encode_message({"id": 1, "arrays": encode_arrays({"a": arr})})
        back = decode_arrays(decode_message(frame)["arrays"])["a"]
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        assert back.flags.owndata and back.flags.writeable
        # The payload is the bytes and nothing else.
        assert frame.endswith(arr.tobytes())


class TestMessageFraming:
    def test_roundtrip(self):
        msg = {"op": "launch", "id": 7, "params": {"alpha": 2.0}}
        frame = encode_message(msg)
        magic, header_len, payload_len = PREFIX.unpack_from(frame)
        assert (magic, payload_len) == (MAGIC, 0)
        assert len(frame) == PREFIX.size + header_len
        assert json.loads(frame[PREFIX.size :]) == msg
        assert decode_message(frame) == msg

    def test_arrays_travel_verbatim_after_the_header(self):
        x = np.arange(1024, dtype=np.float64)
        y = np.arange(6, dtype=np.int16).reshape(2, 3)
        msg = {"op": "launch", "id": 3, "arrays": encode_arrays({"x": x, "y": y})}
        frame = encode_message(msg)
        _, header_len, payload_len = PREFIX.unpack_from(frame)
        assert payload_len == x.nbytes + y.nbytes
        assert frame[PREFIX.size + header_len :] == x.tobytes() + y.tobytes()
        header = json.loads(frame[PREFIX.size : PREFIX.size + header_len])
        assert header["arrays"]["y"] == {
            "dtype": "int16", "shape": [2, 3],
            "offset": x.nbytes, "nbytes": y.nbytes,
        }
        assert len(frame) / (x.nbytes + y.nbytes) < 1.03
        assert msg["arrays"]["x"]["data"].nbytes == x.nbytes  # input untouched
        back = decode_arrays(decode_message(frame)["arrays"])
        assert np.array_equal(back["x"], x) and np.array_equal(back["y"], y)

    def test_malformed_json_rejected(self):
        with pytest.raises(ServeError, match="malformed frame header"):
            decode_message(raw_frame(b"{nope"))

    def test_non_utf8_header_rejected(self):
        with pytest.raises(ServeError, match="malformed frame header"):
            decode_message(raw_frame(b'{"op": "\xff\xfe"}'))

    def test_non_object_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            decode_message(raw_frame(b"[1,2]"))

    def test_foreign_magic_rejected(self):
        with pytest.raises(ServeError, match="not a protocol frame"):
            decode_message(raw_frame(b"{}", magic=b"HTTP"))
        with pytest.raises(ServeError, match="not a protocol frame"):
            decode_message(b'{"op":"ping","id":1}\n')  # a JSON line

    def test_truncated_prefix_rejected(self):
        with pytest.raises(ServeError, match="truncated"):
            decode_message(encode_message({"id": 1})[:7])

    def test_length_mismatch_rejected(self):
        frame = encode_message({"id": 1})
        with pytest.raises(ServeError, match="length mismatch"):
            decode_message(frame[:-1])
        with pytest.raises(ServeError, match="length mismatch"):
            decode_message(frame + b"x")

    def test_oversize_rejected_from_the_prefix_alone(self):
        prefix = PREFIX.pack(MAGIC, 2, MAX_FRAME_BYTES)
        with pytest.raises(ServeError, match="exceeds"):
            decode_message(prefix)

    def test_oversize_message_refused_at_encode(self):
        class Big:
            """Stands in for MAX_FRAME_BYTES of data without allocating."""

            def __len__(self):
                return MAX_FRAME_BYTES

        spec = {"dtype": "uint8", "shape": [MAX_FRAME_BYTES], "data": Big()}
        with pytest.raises(ServeError, match="exceeds"):
            encode_message({"id": 1, "arrays": {"x": spec}})

    @pytest.mark.parametrize(
        "entry",
        [
            {"dtype": "float64", "shape": [2], "offset": 8, "nbytes": 16},
            {"dtype": "float64", "shape": [2], "offset": 0, "nbytes": 17},
            {"dtype": "float64", "shape": [2], "offset": -8, "nbytes": 16},
            {"dtype": "float64", "shape": [2], "offset": 16, "nbytes": -16},
            {"dtype": "float64", "shape": [2], "offset": 1 << 40, "nbytes": 16},
        ],
    )
    def test_array_outside_the_payload_rejected(self, entry):
        with pytest.raises(ServeError, match="outside the payload"):
            decode_message(frame_with_array_entry(entry, bytes(16)))

    @pytest.mark.parametrize(
        "entry",
        [
            {"dtype": "float64", "shape": [2]},
            {"dtype": "float64", "shape": [2], "offset": "0", "nbytes": 16},
            {"dtype": "float64", "shape": [2], "offset": 0.0, "nbytes": 16},
            "AAAA",
            None,
        ],
    )
    def test_malformed_array_entry_rejected(self, entry):
        with pytest.raises(ServeError, match="malformed array entry"):
            decode_message(frame_with_array_entry(entry, bytes(16)))

    def test_nbytes_must_be_shape_times_itemsize(self):
        entry = {"dtype": "float64", "shape": [3], "offset": 0, "nbytes": 16}
        message = decode_message(frame_with_array_entry(entry, bytes(16)))
        with pytest.raises(ServeError, match="size mismatch"):
            decode_arrays(message["arrays"])

    def test_object_dtype_on_the_wire_rejected(self):
        entry = {"dtype": "O", "shape": [2], "offset": 0, "nbytes": 16}
        message = decode_message(frame_with_array_entry(entry, bytes(16)))
        with pytest.raises(ServeError, match="dtype"):
            decode_arrays(message["arrays"])


class _Transport(asyncio.Transport):
    """What the reader sees of a socket: writes are recorded."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def pause_reading(self):
        pass


def _feed(conn: FrameConnection, data: bytes) -> None:
    """``data`` as the transport would deliver it: one ``recv_into``
    the buffer ``get_buffer`` returns at a time."""
    view = memoryview(data)
    while view:
        buf = conn.get_buffer(-1)
        if not len(buf):  # asyncio's transports fail the connection too
            raise RuntimeError("get_buffer() returned an empty buffer")
        n = min(len(buf), len(view))
        buf[:n] = view[:n]
        conn.buffer_updated(n)
        view = view[n:]


class TestReaders:
    """The reader returns whole frames and refuses the same streams
    whether the bytes arrive at once, a few at a time, or split across
    the edge of its staging buffer."""

    @staticmethod
    def read_all(data: bytes, eof: bool = True, chunk: int = 0):
        """Frames (as bytes) the reader delivers from ``data``, fed
        whole or ``chunk`` bytes per transport read; raises the error
        that ended the stream, if any."""
        step = chunk or len(data) or 1

        async def go():
            frames = []
            conn = FrameConnection(lambda frame: frames.append(bytes(frame)))
            conn.connection_made(_Transport())
            for i in range(0, len(data), step):
                _feed(conn, data[i : i + step])
            if eof:
                conn.eof_received()
            assert conn.ended.done(), "the reader is waiting for more bytes"
            if conn.ended.result() is not None:
                raise conn.ended.result()
            return frames

        return asyncio.run(go())

    @pytest.fixture(params=["asyncio", "trickled", "staging-edge"])
    def read(self, request):
        # asyncio: all bytes in one transport read; trickled: 7 bytes
        # per read; staging-edge: reads that end 5 bytes short of the
        # staging buffer's size.
        chunk = {"asyncio": 0, "trickled": 7, "staging-edge": STAGING_BYTES - 5}
        return lambda data: self.read_all(data, chunk=chunk[request.param])

    def test_back_to_back_frames_then_clean_eof(self, read):
        a = encode_message({"id": 1})
        b = encode_message({"id": 2, "arrays": encode_arrays({"x": np.arange(5.0)})})
        big = encode_message(
            {"id": 3, "arrays": encode_arrays({"x": np.arange(3 * STAGING_BYTES // 8.0)})}
        )
        assert read(a + b) == [a, b]
        assert read(a + big + b + big) == [a, big, b, big]
        assert read(b"") == []

    @pytest.mark.parametrize("lead", [-100, -1, 0, 1, 5, 11, 12])
    def test_large_frame_split_across_the_staging_edge(self, lead):
        """A large frame starting ``12 - lead`` bytes before the end of
        the staging buffer (its prefix split when 0 < lead < 12, some
        body bytes in staging when lead < 0) is handed over to a buffer
        of its own without losing or repeating a byte."""
        big = encode_message(
            {"id": 2, "arrays": encode_arrays({"x": np.arange(20000.0)})}
        )
        first = encode_message({"id": 1, "pad": "p" * (STAGING_BYTES - 600)})
        cut = STAGING_BYTES - 12 + lead - len(first)
        head = raw_frame(b"{" + b" " * (cut - PREFIX.size - 2) + b"}")
        stream = head + first + big + first
        for chunk in (STAGING_BYTES, STAGING_BYTES - 5, 4096):
            frames = self.read_all(stream, chunk=chunk)
            assert frames == [head, first, big, first]

    def test_truncated_prefix(self, read):
        with pytest.raises(ServeError, match="truncated frame: 5 of 12 prefix"):
            read(encode_message({"id": 1})[:5])

    def test_disconnect_mid_body(self, read):
        frame = encode_message({"id": 1, "arrays": encode_arrays({"x": np.arange(64.0)})})
        with pytest.raises(ServeError, match="truncated frame: .* body bytes"):
            read(frame[:-100])
        big = encode_message(
            {"id": 1, "arrays": encode_arrays({"x": np.arange(STAGING_BYTES / 4)})}
        )
        with pytest.raises(ServeError, match="truncated frame: .* body bytes"):
            read(big[:-100])

    def test_foreign_magic(self, read):
        with pytest.raises(ServeError, match="not a protocol frame"):
            read(b"GET / HTTP/1.1\r\n\r\n")

    def test_oversize_refused_without_reading_the_body(self):
        """No EOF is fed and no body exists: a reader that waited for
        the announced bytes would still be waiting — and none allocates
        a buffer of the announced size."""
        prefix = PREFIX.pack(MAGIC, 16, MAX_FRAME_BYTES)
        tracemalloc.start()
        try:
            with pytest.raises(ServeError, match="exceeds"):
                self.read_all(prefix, eof=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MAX_FRAME_BYTES // 16, peak

    def test_largest_frame_is_accepted(self):
        header_len = 2
        prefix = PREFIX.pack(
            MAGIC, header_len, MAX_FRAME_BYTES - PREFIX.size - header_len
        )
        with pytest.raises(ServeError, match="truncated"):  # not "exceeds"
            self.read_all(prefix + b"{}")

    def test_frames_are_private_and_writable(self):
        """Each frame is a buffer of its own, so decoded arrays are
        writable views that alias no other frame."""
        small = encode_message({"id": 1, "arrays": encode_arrays({"x": np.arange(4.0)})})
        big = encode_message(
            {"id": 2, "arrays": encode_arrays({"x": np.arange(STAGING_BYTES / 4)})}
        )
        frames = []

        async def go():
            conn = FrameConnection(frames.append)
            conn.connection_made(_Transport())
            _feed(conn, small + big + small)

        asyncio.run(go())
        xs = [decode_arrays(decode_message(f)["arrays"])["x"] for f in frames]
        for x in xs:
            assert x.flags.writeable and x.flags.aligned and not x.flags.owndata
        xs[0][:] = -1.0
        assert np.array_equal(xs[2], np.arange(4.0))
        assert not np.shares_memory(xs[0], xs[2])


class TestWriter:
    def test_large_payload_goes_out_part_by_part(self):
        """A payload of JOIN_LIMIT bytes or more is written without a
        join: the array's own memory reaches the transport."""
        x = np.arange(JOIN_LIMIT / 8)

        async def go():
            conn = FrameConnection(lambda frame: None)
            transport = _Transport()
            conn.connection_made(transport)
            conn.write_frame(encode_frame({"id": 1, "arrays": encode_arrays({"x": x})}))
            conn.write_frame(encode_frame({"id": 2, "arrays": encode_arrays({"x": x[:4]})}))
            return transport.writes

        writes = asyncio.run(go())
        assert len(writes) == 3  # header, array; then one joined frame
        assert writes[1] == x.tobytes()
        assert b"".join(writes[:2]) == encode_message(
            {"id": 1, "arrays": encode_arrays({"x": x})}
        )

    def test_header_and_offsets_are_aligned(self):
        arrays = {"a": np.arange(3, dtype=np.int8), "b": np.arange(5.0),
                  "c": np.arange(2, dtype=np.int16), "d": np.arange(3.0)}
        frame = encode_message({"id": 1, "arrays": encode_arrays(arrays)})
        _, header_len, _ = PREFIX.unpack_from(frame)
        assert (PREFIX.size + header_len) % 8 == 0
        header = json.loads(frame[PREFIX.size : PREFIX.size + header_len])
        assert all(e["offset"] % 8 == 0 for e in header["arrays"].values())
        back = decode_arrays(decode_message(bytearray(frame))["arrays"])
        for name, arr in arrays.items():
            assert np.array_equal(back[name], arr)
            assert back[name].flags.aligned and not back[name].flags.owndata


class TestPayloads:
    def test_result_payload(self):
        res = ServeResult(
            request_id=3,
            tenant="a",
            workload="axpy",
            arrays={"y": np.arange(3.0)},
            latency=0.01,
            batch_size=4,
            lane="AccCpuSerial/0",
        )
        payload = result_payload(9, res)
        assert payload["ok"] is True
        assert payload["id"] == 9
        assert payload["batch_size"] == 4
        assert np.array_equal(
            decode_arrays(payload["arrays"])["y"], np.arange(3.0)
        )
        back = decode_message(encode_message(payload))
        assert np.array_equal(decode_arrays(back["arrays"])["y"], np.arange(3.0))

    def test_error_payload_plain(self):
        payload = error_payload(5, ValueError("nope"))
        assert payload == {
            "id": 5,
            "ok": False,
            "error": "ValueError",
            "message": "nope",
        }

    def test_error_payload_retry_after(self):
        payload = error_payload(5, RetryAfter("a", 0.25, 10))
        assert payload["error"] == "RetryAfter"
        assert payload["retry_after"] == 0.25


class TestRequestDefaults:
    def test_request_ids_unique(self):
        a = LaunchRequest(workload="axpy")
        b = LaunchRequest(workload="axpy")
        assert a.request_id != b.request_id

    def test_arrays_coerced_to_ndarray(self):
        r = LaunchRequest(workload="axpy", arrays={"x": [1.0, 2.0]})
        assert isinstance(r.arrays["x"], np.ndarray)


@pytest.mark.parametrize(
    "dtype", ["float64", "float32", "int64", ">f8", "complex128", "M8[s]", "M8[ms]"]
)
def test_a_memoised_dtype_name_is_str_of_the_dtype(dtype):
    dt = np.dtype(dtype)
    for _ in range(2):  # computed, then memoised
        assert dtype_name(dt) == str(dt)
        assert encode_array(np.zeros(2, dtype=dt))["dtype"] == str(dt)
