"""The fleet daemon and its framed client, exercised in-process."""

import json
import socket
import threading
import time

import pytest

from repro import knobs
from repro.core.errors import TuningFleetError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    read_frame_blocking,
)
from repro.core.vec import Vec
from repro.core.workdiv import WorkDivMembers
from repro.tuning import TuningCache
from repro.tuning.cache import CachedResult
from repro.tuning.fleet.client import FleetClient
from repro.tuning.fleet.config import FleetConfig
from repro.tuning.fleet.daemon import FleetDaemon

from ...serve.frames import MAGIC, PREFIX, raw_frame

KEY = "k|AccCpuSerial|m:cpu:1x4@3GHz|512"
ENTRY = CachedResult(
    work_div=WorkDivMembers(Vec(4), Vec(2), Vec(8)),
    seconds=1.25e-6,
    strategy="exhaustive",
    source="modeled",
    schedule="pooled",
)


@pytest.fixture()
def daemon(tmp_path):
    d = FleetDaemon(
        FleetConfig(mode="daemon", lease_timeout=30.0, wait_timeout=10.0),
        cache_path=str(tmp_path / "daemon-cache.json"),
        host="127.0.0.1",
        port=0,
    )
    d.start()
    yield d
    d.shutdown()


@pytest.fixture()
def client(daemon):
    cfg = FleetConfig(
        mode="daemon", host=daemon.host, port=daemon.port, io_timeout=5.0
    )
    c = FleetClient(cfg)
    yield c
    c.close()


def _second_client(daemon):
    return FleetClient(
        FleetConfig(
            mode="daemon", host=daemon.host, port=daemon.port, io_timeout=5.0
        )
    )


def _until(observer, field, value, timeout=5.0):
    """Poll the daemon's ``stats`` (through ``observer``, a client not
    parked in an op) until ``field`` reads ``value``."""
    deadline = time.monotonic() + timeout
    while observer.stats()[field] != value:
        if time.monotonic() > deadline:
            pytest.fail(f"daemon stats {field!r} never read {value!r}")
        time.sleep(0.005)


class TestOps:
    def test_ping(self, client):
        assert client.ping()

    def test_get_miss(self, client):
        assert client.get(KEY) is None

    def test_put_then_get_roundtrips_the_entry(self, client):
        client.put(KEY, ENTRY)
        got = client.get(KEY)
        assert got == ENTRY  # work div, seconds, strategy, schedule intact

    def test_put_persists_atomically(self, daemon, client):
        client.put(KEY, ENTRY)
        # A cold cache object reading the daemon's file sees the entry.
        fresh = TuningCache(daemon.cache.path)
        assert fresh.get_key(KEY) == ENTRY

    def test_stats_shape(self, client):
        client.put(KEY, ENTRY)
        stats = client.stats()
        assert stats["entries"] == 1
        assert stats["leases"] == 0
        assert stats["waiting"] == 0
        assert stats["connections"] == 1
        assert stats["ops"]["put"] == 1
        assert stats["uptime"] >= 0
        assert stats["cache_path"]
        assert stats["config"] == json.loads(json.dumps(knobs.effective()))

    def test_unknown_op_rejected_but_connection_survives(self, client):
        with pytest.raises(TuningFleetError, match="unknown op"):
            client._roundtrip({"op": "explode"})
        assert client.ping()  # same socket still serves


class TestLeases:
    def test_exactly_one_winner(self, daemon, client):
        other = _second_client(daemon)
        try:
            token = client.lease(KEY)
            assert token
            assert other.lease(KEY) is None
        finally:
            other.close()

    def test_lease_on_cached_key_is_denied(self, client):
        client.put(KEY, ENTRY)
        assert client.lease(KEY) is None  # nothing left to measure

    def test_release_reopens_the_race(self, client):
        token = client.lease(KEY)
        client.release(KEY, token)
        assert client.lease(KEY)

    def test_put_with_token_clears_the_lease(self, daemon, client):
        token = client.lease(KEY)
        client.put(KEY, ENTRY, token=token)
        assert client.stats()["leases"] == 0

    def test_put_without_token_leaves_the_active_lease_alone(self, daemon, client):
        """Regression: an uncoordinated publish (token=None, e.g. a
        tune_schedule re-measure) used to cancel the measuring holder's
        lease."""
        holder = _second_client(daemon)
        try:
            token = holder.lease(KEY)
            assert token
            client.put(KEY, ENTRY)  # no token: not the holder's publish
            assert client.stats()["leases"] == 1  # holder keeps measuring
            holder.put(KEY, ENTRY, token=token)  # its own publish clears
            assert client.stats()["leases"] == 0
        finally:
            holder.close()

    def test_renew_extends_a_held_lease(self, tmp_path):
        d = FleetDaemon(
            FleetConfig(mode="daemon", lease_timeout=0.4),
            cache_path=str(tmp_path / "c.json"),
            host="127.0.0.1",
            port=0,
        )
        d.start()
        cfg = FleetConfig(
            mode="daemon", host=d.host, port=d.port, io_timeout=5.0
        )
        holder, other = FleetClient(cfg), FleetClient(cfg)
        try:
            token = holder.lease(KEY)
            assert token
            # Heartbeat well past the original 0.4 s deadline...
            for _ in range(4):
                time.sleep(0.15)
                assert holder.renew(KEY, token)
            # ...and the lease is still held, not expired and re-granted.
            assert other.lease(KEY) is None
        finally:
            holder.close()
            other.close()
            d.shutdown()

    def test_renew_with_wrong_token_is_refused(self, client):
        token = client.lease(KEY)
        assert token
        assert not client.renew(KEY, "not-the-token")
        assert not client.renew("never|leased|key", token)

    def test_expired_lease_stops_blocking(self, tmp_path):
        d = FleetDaemon(
            FleetConfig(mode="daemon", lease_timeout=0.2),
            cache_path=str(tmp_path / "c.json"),
            host="127.0.0.1",
            port=0,
        )
        d.start()
        c = FleetClient(
            FleetConfig(mode="daemon", host=d.host, port=d.port, io_timeout=5.0)
        )
        try:
            assert c.lease(KEY)
            time.sleep(0.3)
            assert c.lease(KEY)  # the dead worker's lease expired
        finally:
            c.close()
            d.shutdown()


class TestWait:
    def test_wait_resolves_on_publish(self, daemon, client):
        publisher = _second_client(daemon)
        token = publisher.lease(KEY)
        got = []
        t = threading.Thread(target=lambda: got.append(client.wait(KEY, 10.0)))
        t.start()
        try:
            _until(publisher, "waiting", 1)
            publisher.put(KEY, ENTRY, token=token)
            t.join(timeout=5.0)
            assert got == [ENTRY]
        finally:
            publisher.close()

    def test_wait_returns_early_when_lease_abandoned(self, daemon, client):
        holder = _second_client(daemon)
        token = holder.lease(KEY)
        got = []
        t = threading.Thread(target=lambda: got.append(client.wait(KEY, 30.0)))
        t.start()
        try:
            _until(holder, "waiting", 1)
            started = time.monotonic()
            holder.release(KEY, token)
            t.join(timeout=5.0)
            assert got == [None]
            assert time.monotonic() - started < 5.0  # not the 30 s timeout
        finally:
            holder.close()

    def test_wait_without_any_lease_returns_immediately(self, client):
        started = time.monotonic()
        assert client.wait(KEY, 30.0) is None
        assert time.monotonic() - started < 5.0

    def test_wait_times_out_under_a_live_lease(self, daemon, client):
        holder = _second_client(daemon)
        holder.lease(KEY)
        try:
            started = time.monotonic()
            assert client.wait(KEY, 0.3) is None
            assert time.monotonic() - started >= 0.3
        finally:
            holder.close()


class TestClientFailureModes:
    def test_unreachable_daemon_raises_at_construction(self):
        cfg = FleetConfig(
            mode="daemon", host="127.0.0.1", port=1, io_timeout=0.5
        )
        with pytest.raises(TuningFleetError, match="unreachable"):
            FleetClient(cfg)

    def test_daemon_shutdown_surfaces_as_fleet_error(self, daemon):
        c = _second_client(daemon)
        daemon.shutdown()
        with pytest.raises(TuningFleetError):
            c.ping()
        # And the client stays closed rather than half-alive.
        with pytest.raises(TuningFleetError, match="closed"):
            c.ping()

    def test_shutdown_ends_a_parked_wait(self, daemon, client):
        holder = _second_client(daemon)
        errors = []

        def park():
            try:
                client.wait(KEY, 30.0)
            except TuningFleetError as exc:
                errors.append(exc)

        t = threading.Thread(target=park)
        try:
            assert holder.lease(KEY)
            t.start()
            _until(holder, "waiting", 1)
            started = time.monotonic()
            daemon.shutdown()
            assert time.monotonic() - started < 2.0
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert len(errors) == 1  # the waiter learns, it does not hang
        finally:
            holder.close()


class TestOneLoopThread:
    def test_eight_connections_add_at_most_one_thread(self, daemon):
        """Connections are served on the daemon's event-loop thread; the
        one thread a put may add is the cache-file writer."""
        idle = threading.active_count()
        clients = [_second_client(daemon) for _ in range(8)]
        try:
            for c in clients:
                assert c.ping()
                assert c.get(KEY) is None
            clients[0].put(KEY, ENTRY)
            assert clients[0].stats()["connections"] == 8
            assert threading.active_count() <= idle + 1
        finally:
            for c in clients:
                c.close()



class TestMalformedFrames:
    """The protocol's two rejection kinds, as the gateway's server
    applies them: a peer that loses the framing is told why and dropped,
    a whole frame with bad content is refused and the connection carries
    on; the daemon keeps serving everyone else."""

    @staticmethod
    def exchange(daemon, data: bytes, *, half_close: bool = False):
        """Send raw bytes; the daemon's replies until it hangs up."""
        with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as rfile:
                replies = []
                while True:
                    frame = read_frame_blocking(rfile)
                    if frame is None:
                        return replies
                    replies.append(decode_message(frame))

    @staticmethod
    def others_unaffected(daemon, client):
        assert client.ping()  # an established client is unaffected
        fresh = _second_client(daemon)
        try:
            assert fresh.ping()  # and so is the next one
        finally:
            fresh.close()
        _until(client, "connections", 1)  # the bad peer is gone

    @pytest.mark.parametrize(
        "data, half_close, needle",
        [
            (b'{"op": "ping", "id": 1}\n', False, "not a protocol frame"),
            (encode_message({"op": "ping", "id": 1})[:5], True, "truncated frame"),
            (encode_message({"op": "ping", "id": 1})[:-3], True, "truncated frame"),
            (PREFIX.pack(MAGIC, 8, MAX_FRAME_BYTES), False, "exceeds"),
        ],
    )
    def test_one_error_reply_then_hangup(self, daemon, client, data, half_close, needle):
        (reply,) = self.exchange(daemon, data, half_close=half_close)
        assert reply["ok"] is False and reply["id"] is None
        assert needle in reply["message"]
        self.others_unaffected(daemon, client)

    @pytest.mark.parametrize(
        "header, needle",
        [
            (b"[1,2]", "JSON object"),
            (b"\xff\xfe{}", "malformed frame header"),
        ],
    )
    def test_bad_header(self, daemon, client, header, needle):
        with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
            with sock.makefile("rb") as rfile:
                sock.sendall(raw_frame(header))
                reply = decode_message(read_frame_blocking(rfile))
                assert reply["ok"] is False and reply["id"] is None
                assert needle in reply["message"]
                sock.sendall(encode_message({"op": "ping", "id": 2}))
                assert decode_message(read_frame_blocking(rfile))["pong"] is True
        self.others_unaffected(daemon, client)

    def test_garbage_reply_surfaces_as_fleet_error(self):
        """The client side of the same contract: a peer that answers
        with something other than a frame fails the op, classified."""
        server = socket.create_server(("127.0.0.1", 0))

        def answer_with_a_json_line():
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as rfile:
                read_frame_blocking(rfile)
                conn.sendall(b'{"id": 1, "ok": true, "pong": true}\n')

        t = threading.Thread(target=answer_with_a_json_line, daemon=True)
        t.start()
        c = FleetClient(
            FleetConfig(
                mode="daemon", host="127.0.0.1",
                port=server.getsockname()[1], io_timeout=5.0,
            )
        )
        try:
            with pytest.raises(TuningFleetError, match="not a protocol frame"):
                c.ping()
            with pytest.raises(TuningFleetError, match="closed"):
                c.ping()
        finally:
            c.close()
            t.join(timeout=5.0)
            server.close()
