"""Batching coalescer: windows, keys, size caps, flush semantics, and
the rule that only a key with company is held for the window.

Explicit timestamps only — the batcher has no clock."""

from __future__ import annotations

import numpy as np

from repro.serve import Batcher, GraphRequest, LaunchRequest
from repro.serve.batcher import MAX_REMEMBERED_KEYS


def _axpy(alpha=2.0, n=16, tenant="t"):
    return LaunchRequest(
        workload="axpy",
        tenant=tenant,
        params={"alpha": alpha},
        arrays={"x": np.zeros(n), "y": np.zeros(n)},
    )


def _run(b, now):
    """Flush what is due at ``now`` and report it complete."""
    batches = b.pop_ready(now)
    for batch in batches:
        b.note_done(batch)
    return batches


def _give_company(b, alpha=2.0, now=-1.0):
    """Two requests of the key merged in one unheld batch: the second
    brought company, so the key's next batch opens held."""
    b.add(_axpy(alpha), now)
    b.add(_axpy(alpha), now)
    (batch,) = _run(b, now)
    assert batch.size == 2 and not batch.held


class TestCoalescing:
    def test_same_key_merges(self):
        b = Batcher(window=0.01, batch_max=8)
        _give_company(b)
        b.add(_axpy(), now=0.0)
        b.add(_axpy(), now=0.001)
        assert b.pop_ready(now=0.005) == []  # window still open
        batches = b.pop_ready(now=0.02)
        assert len(batches) == 1
        assert batches[0].size == 2

    def test_different_alpha_does_not_merge(self):
        b = Batcher(window=0.01, batch_max=8)
        b.add(_axpy(alpha=1.0), now=0.0)
        b.add(_axpy(alpha=2.0), now=0.0)
        batches = b.pop_ready(now=1.0)
        assert len(batches) == 2
        assert all(batch.size == 1 for batch in batches)

    def test_different_dtype_does_not_merge(self):
        b = Batcher(window=0.01, batch_max=8)
        r32 = LaunchRequest(
            workload="axpy",
            params={"alpha": 2.0},
            arrays={
                "x": np.zeros(4, np.float32),
                "y": np.zeros(4, np.float32),
            },
        )
        b.add(_axpy(), now=0.0)
        b.add(r32, now=0.0)
        assert len(b.pop_ready(now=1.0)) == 2

    def test_different_backend_does_not_merge(self):
        b = Batcher(window=0.01, batch_max=8)
        r = _axpy()
        r.backend = "AccCpuSerial"
        b.add(_axpy(), now=0.0)
        b.add(r, now=0.0)
        assert len(b.pop_ready(now=1.0)) == 2

    def test_batch_max_flushes_immediately(self):
        b = Batcher(window=10.0, batch_max=3)
        for _ in range(3):
            b.add(_axpy(), now=0.0)
        batches = b.pop_ready(now=0.0)  # before the window would expire
        assert len(batches) == 1
        assert batches[0].size == 3

    def test_overflow_opens_new_batch(self):
        b = Batcher(window=10.0, batch_max=2)
        for _ in range(5):
            b.add(_axpy(), now=0.0)
        full = b.pop_ready(now=0.0)
        assert [batch.size for batch in full] == [2, 2]
        assert b.parked == 1


class TestPassThrough:
    def test_graph_requests_never_batch(self):
        b = Batcher(window=10.0, batch_max=8)
        g = GraphRequest(workload="heat_equation", params={"steps": 1})
        b.add(g, now=0.0)
        batches = b.pop_ready(now=0.0)
        assert len(batches) == 1
        assert batches[0].requests == [g]

    def test_batching_disabled_passes_through(self):
        b = Batcher(window=10.0, batch_max=8, enabled=False)
        b.add(_axpy(), now=0.0)
        b.add(_axpy(), now=0.0)
        batches = b.pop_ready(now=0.0)
        assert [batch.size for batch in batches] == [1, 1]


class TestFlush:
    def test_window_expiry_is_per_batch(self):
        b = Batcher(window=0.01, batch_max=8)
        _give_company(b, alpha=1.0)
        _give_company(b, alpha=2.0)
        b.add(_axpy(alpha=1.0), now=0.0)
        b.add(_axpy(alpha=2.0), now=0.008)
        first = b.pop_ready(now=0.012)
        assert len(first) == 1
        assert first[0].requests[0].params["alpha"] == 1.0
        second = b.pop_ready(now=0.020)
        assert len(second) == 1

    def test_flush_all_drains_open_batches(self):
        b = Batcher(window=100.0, batch_max=8)
        b.add(_axpy(), now=0.0)
        b.add(_axpy(), now=0.0)
        batches = b.flush_all()
        assert len(batches) == 1
        assert batches[0].size == 2
        assert b.parked == 0

    def test_next_deadline_tracks_earliest(self):
        b = Batcher(window=0.5, batch_max=8)
        _give_company(b, alpha=1.0)
        _give_company(b, alpha=2.0)
        assert b.next_deadline() is None
        b.add(_axpy(alpha=1.0), now=1.0)
        b.add(_axpy(alpha=2.0), now=2.0)
        assert b.next_deadline() == 1.5


class TestHoldOnlyWithCompany:
    """The window is an upper bound paid by keys with observed company:
    a request that a hold captures and no hold would miss."""

    def test_never_seen_key_is_not_held(self):  # (a)
        b = Batcher(window=10.0, batch_max=8)
        b.add(_axpy(), now=1.0)
        assert b.next_deadline() == 1.0
        (batch,) = b.pop_ready(now=1.0)
        assert batch.size == 1 and not batch.held
        assert batch.opened_at == batch.flushed_at == 1.0

    def test_same_step_arrivals_still_merge_unheld(self):
        b = Batcher(window=10.0, batch_max=8)
        b.add(_axpy(), now=1.0)
        b.add(_axpy(), now=1.0)
        (batch,) = b.pop_ready(now=1.0)
        assert batch.size == 2 and not batch.held

    def test_company_via_open_batch_holds_the_next(self):  # (b)
        b = Batcher(window=0.01, batch_max=8)
        _give_company(b, now=0.0)
        b.add(_axpy(), now=1.0)
        assert b.next_deadline() == 1.01
        assert b.pop_ready(now=1.005) == []
        b.add(_axpy(), now=1.006)  # joins; does not move the deadline
        (batch,) = _run(b, now=1.01)
        assert batch.size == 2 and batch.held
        assert (batch.opened_at, batch.flushed_at) == (1.0, 1.01)
        # The window collected a request, so the next batch is held too.
        b.add(_axpy(), now=2.0)
        assert b.next_deadline() == 2.01

    def test_company_via_running_batch_holds_at_once(self):  # (b)
        b = Batcher(window=0.01, batch_max=8)
        b.add(_axpy(), now=0.0)
        (running,) = b.pop_ready(now=0.0)  # on a lane, not yet done
        assert not running.held
        b.add(_axpy(), now=0.001)
        assert b.next_deadline() == 0.011
        b.note_done(running)
        (held,) = _run(b, now=0.011)
        assert held.held and held.size == 1
        # Its window collected nothing, so the hold ends with it.
        b.add(_axpy(), now=1.0)
        assert b.next_deadline() == 1.0

    def test_closed_loop_solo_key_is_never_held(self):  # (c)
        b = Batcher(window=10.0, batch_max=8)
        for i in range(50):
            # Back to back: the next request right after the reply.
            b.add(_axpy(), now=float(i))
            (batch,) = _run(b, now=float(i))
            assert not batch.held
        assert b.stats() == {"held": 0, "immediate": 50, "tracked_keys": 0}

    def test_key_that_stops_being_concurrent_wastes_one_window(self):
        b = Batcher(window=0.01, batch_max=8)
        _give_company(b, now=0.0)
        b.add(_axpy(), now=1.0)
        assert _run(b, now=1.0) == []  # held: the one wasted window
        (wasted,) = _run(b, now=1.01)
        assert wasted.held and wasted.size == 1
        b.add(_axpy(), now=2.0)
        (batch,) = _run(b, now=2.0)  # ran alone last time: no hold
        assert not batch.held
        assert b.stats()["tracked_keys"] == 0

    def test_hold_does_not_manufacture_its_own_company(self):
        # A client paced at about one window per request, delayed once.
        b = Batcher(window=0.01, batch_max=8)
        b.add(_axpy(), now=0.0)
        (delayed,) = b.pop_ready(now=0.0)
        b.add(_axpy(), now=0.011)  # finds the delayed one on its lane
        b.note_done(delayed)
        assert b.pop_ready(now=0.012) == []  # held
        b.add(_axpy(), now=0.022)  # past the deadline: a late step's catch
        (late,) = b.pop_ready(now=0.023)
        assert late.held and late.size == 2
        b.add(_axpy(), now=0.033)  # that batch is inside only for its hold
        (batch,) = b.pop_ready(now=0.033)
        assert not batch.held
        assert b.stats()["held"] == 1

    def test_zero_window_holds_nothing(self):  # (d)
        b = Batcher(window=0.0, batch_max=8)
        _give_company(b, now=0.0)
        b.add(_axpy(), now=1.0)
        b.add(_axpy(), now=1.0)
        (batch,) = b.pop_ready(now=1.0)
        assert batch.size == 2 and not batch.held

    def test_pass_through_requests_keep_no_state(self):  # (d)
        graph = GraphRequest(workload="heat_equation", params={"steps": 1})
        for b, request in (
            (Batcher(window=10.0, batch_max=8), graph),
            (Batcher(window=10.0, batch_max=8, enabled=False), _axpy()),
        ):
            for _ in range(3):
                b.add(request, now=0.0)
            batches = b.pop_ready(now=0.0)
            assert [batch.size for batch in batches] == [1, 1, 1]
            assert not any(batch.held for batch in batches)
            for batch in batches:
                b.note_done(batch)
            assert b.stats() == {
                "held": 0, "immediate": 3, "tracked_keys": 0,
            }

    def test_flush_all_drains_held_batches(self):
        b = Batcher(window=100.0, batch_max=8)
        _give_company(b, now=0.0)
        b.add(_axpy(), now=1.0)
        assert b.pop_ready(now=2.0) == []
        (batch,) = b.flush_all(now=2.0)
        assert batch.held and batch.flushed_at == 2.0
        assert b.parked == 0


class TestBoundedMemory:
    def test_distinct_solo_keys_leave_nothing_behind(self):
        b = Batcher(window=0.01, batch_max=8)
        for i in range(10_000):
            b.add(_axpy(alpha=float(i), n=1), now=float(i))
            (batch,) = b.pop_ready(now=float(i))
            assert b.stats()["tracked_keys"] == 1
            b.note_done(batch)
        assert b.stats()["tracked_keys"] == 0

    def test_idle_keys_with_company_are_capped(self):
        b = Batcher(window=0.01, batch_max=8)
        for i in range(MAX_REMEMBERED_KEYS + 500):
            _give_company(b, alpha=float(i), now=float(i))
        assert b.stats()["tracked_keys"] == MAX_REMEMBERED_KEYS
        # The oldest were evicted (their next batch opens unheld); the
        # newest is still remembered.
        b.add(_axpy(alpha=0.0), now=1e6)
        assert b.next_deadline() == 1e6
        b.add(_axpy(alpha=float(MAX_REMEMBERED_KEYS + 499)), now=1e6)
        assert sorted(x.held for x in b.flush_all()) == [False, True]



class TestKeyedOnce:
    def test_a_lone_request_is_keyed_once(self, monkeypatch):
        from repro.serve.workloads import AxpyWorkload

        keyed = []
        real = AxpyWorkload.batch_key

        def counting(self, req):
            keyed.append(req)
            return real(self, req)

        monkeypatch.setattr(AxpyWorkload, "batch_key", counting)
        b = Batcher(window=10.0, batch_max=8)
        first = _axpy()
        pair = b.keyed(first)
        assert b.runs_alone(pair[1])
        b.add(first, now=0.0, keyed=pair)
        assert keyed == [first]
        # A request the step adds, never asked about, is keyed by add.
        second = _axpy()
        assert not b.runs_alone(b.keyed(second)[1])
        b.add(second, now=0.0)
        assert keyed == [first, second, second]
        (batch,) = b.pop_ready(now=0.0)
        assert batch.requests == [first, second]
