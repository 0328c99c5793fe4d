"""Fair-share admission: weighted DRR, caps, backpressure, shutdown."""

from __future__ import annotations

import pytest

from repro.serve import (
    FairShareAdmission,
    GatewayClosed,
    LaunchRequest,
    RetryAfter,
    ServeConfig,
)


def _config(**kw):
    defaults = dict(queue_bound=8, tenant_inflight=100)
    defaults.update(kw)
    return ServeConfig(**defaults)


def _req(tenant: str) -> LaunchRequest:
    return LaunchRequest(workload="axpy", tenant=tenant)


def _drain(adm, limit=10_000):
    out = []
    for _ in range(limit):
        req = adm.next_ready()
        if req is None:
            break
        out.append(req)
    return out


class TestOfferAndRelease:
    def test_fifo_within_tenant(self):
        adm = FairShareAdmission(_config())
        reqs = [_req("a") for _ in range(5)]
        for r in reqs:
            adm.offer(r)
        released = _drain(adm)
        assert [r.request_id for r in released] == [
            r.request_id for r in reqs
        ]

    def test_empty_returns_none(self):
        adm = FairShareAdmission(_config())
        assert adm.next_ready() is None

    def test_release_sets_admitted_timestamp(self):
        adm = FairShareAdmission(_config())
        adm.offer(_req("a"))
        req = adm.next_ready()
        assert req.admitted_at >= req.submitted_at

    def test_ready_event_set_on_offer(self):
        adm = FairShareAdmission(_config())
        adm.ready.clear()
        adm.offer(_req("a"))
        assert adm.ready.is_set()


class TestWeightedFairness:
    def test_equal_weights_interleave(self):
        adm = FairShareAdmission(_config(queue_bound=100))
        for _ in range(10):
            adm.offer(_req("a"))
            adm.offer(_req("b"))
        released = _drain(adm)
        firsts = [r.tenant for r in released[:10]]
        # Round-robin: neither tenant gets more than a 1-release lead.
        assert firsts.count("a") == 5
        assert firsts.count("b") == 5

    def test_weight_ratio_respected(self):
        adm = FairShareAdmission(
            _config(queue_bound=300, tenant_weights={"gold": 3.0, "free": 1.0})
        )
        for _ in range(200):
            adm.offer(_req("gold"))
            adm.offer(_req("free"))
        released = _drain(adm, limit=100)
        gold = sum(1 for r in released if r.tenant == "gold")
        free = sum(1 for r in released if r.tenant == "free")
        assert free > 0
        # 3:1 within rounding slack over a 100-release window.
        assert 2.0 <= gold / free <= 4.0

    def test_fractional_weight_accumulates(self):
        adm = FairShareAdmission(
            _config(queue_bound=100, tenant_weights={"slow": 0.5, "fast": 1.0})
        )
        for _ in range(40):
            adm.offer(_req("slow"))
            adm.offer(_req("fast"))
        released = _drain(adm, limit=30)
        slow = sum(1 for r in released if r.tenant == "slow")
        fast = sum(1 for r in released if r.tenant == "fast")
        assert slow > 0, "a 0.5-weight tenant must still be served"
        assert fast > slow

    def test_idle_tenant_loses_credit(self):
        # DRR rule: a tenant with an empty queue must not bank deficit
        # and burst later.
        adm = FairShareAdmission(_config(queue_bound=100))
        adm.offer(_req("a"))
        _drain(adm)  # several empty-queue visits for both tenants
        for _ in range(6):
            adm.offer(_req("a"))
            adm.offer(_req("b"))
        released = _drain(adm)
        firsts = [r.tenant for r in released[:6]]
        assert firsts.count("a") == 3
        assert firsts.count("b") == 3


class TestInflightCap:
    def test_cap_blocks_release(self):
        adm = FairShareAdmission(_config(tenant_inflight=2))
        for _ in range(5):
            adm.offer(_req("a"))
        assert len(_drain(adm)) == 2
        assert adm.next_ready() is None

    def test_completion_frees_slot(self):
        adm = FairShareAdmission(_config(tenant_inflight=1))
        adm.offer(_req("a"))
        adm.offer(_req("a"))
        assert adm.next_ready() is not None
        assert adm.next_ready() is None
        adm.task_finished("a", 0.001, ok=True)
        assert adm.next_ready() is not None

    def test_capped_tenant_does_not_block_others(self):
        adm = FairShareAdmission(_config(tenant_inflight=1))
        adm.offer(_req("a"))
        adm.offer(_req("a"))
        adm.offer(_req("b"))
        released = _drain(adm)
        assert {r.tenant for r in released} == {"a", "b"}


class TestBackpressure:
    def test_retry_after_on_full_queue(self):
        adm = FairShareAdmission(_config(queue_bound=3))
        for _ in range(3):
            adm.offer(_req("a"))
        with pytest.raises(RetryAfter) as exc_info:
            adm.offer(_req("a"))
        exc = exc_info.value
        assert exc.tenant == "a"
        assert exc.depth == 3
        assert 0.001 <= exc.delay <= 5.0

    def test_full_queue_is_per_tenant(self):
        adm = FairShareAdmission(_config(queue_bound=2))
        adm.offer(_req("a"))
        adm.offer(_req("a"))
        adm.offer(_req("b"))  # b's queue is its own

    def test_delay_scales_with_service_time(self):
        adm = FairShareAdmission(_config(queue_bound=4))
        for _ in range(4):
            adm.offer(_req("a"))
        for _ in range(8):  # raise the EWMA: ~0.5 s per request
            adm.task_finished("a", 0.5, ok=True)
        with pytest.raises(RetryAfter) as exc_info:
            adm.offer(_req("a"))
        assert exc_info.value.delay > 0.5

    def test_rejected_counted(self):
        adm = FairShareAdmission(_config(queue_bound=1))
        adm.offer(_req("a"))
        with pytest.raises(RetryAfter):
            adm.offer(_req("a"))
        assert adm.stats()["a"]["rejected"] == 1


class TestClose:
    def test_closed_rejects_offers(self):
        adm = FairShareAdmission(_config())
        adm.close()
        with pytest.raises(GatewayClosed):
            adm.offer(_req("a"))

    def test_graceful_close_keeps_queue(self):
        adm = FairShareAdmission(_config())
        adm.offer(_req("a"))
        stranded = adm.close(drain=True)
        assert stranded == []
        assert adm.next_ready() is not None

    def test_abort_close_returns_stranded(self):
        adm = FairShareAdmission(_config())
        a, b = _req("a"), _req("b")
        adm.offer(a)
        adm.offer(b)
        stranded = adm.close(drain=False)
        assert {r.request_id for r in stranded} == {
            a.request_id,
            b.request_id,
        }
        assert adm.next_ready() is None


class _ReferenceAdmission(FairShareAdmission):
    """``next_ready`` as the full ``8n + 1``-visit loop, without the
    early exit: the replay below holds the real one to it."""

    def next_ready(self):
        from repro.serve.admission import QUANTUM

        with self._lock:
            n = len(self._order)
            if n == 0:
                return None
            for _ in range(8 * n + 1):
                if self._cursor >= n:
                    self._cursor = 0
                st = self._tenants[self._order[self._cursor]]
                if not st.queue or st.inflight >= self.config.tenant_inflight:
                    st.deficit = 0.0
                    self._advance(n)
                    continue
                if not self._visit_topped:
                    st.deficit += QUANTUM * st.weight
                    self._visit_topped = True
                if st.deficit >= 1.0:
                    st.deficit -= 1.0
                    req = st.queue.popleft()
                    st.inflight += 1
                    return req
                self._advance(n)
            return None


def _drr_state(adm):
    return (
        adm._cursor,
        adm._visit_topped,
        {name: st.deficit for name, st in adm._tenants.items()},
    )


class TestNextReadyStopsAfterAnIdleRound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_matches_the_full_loop(self, seed):
        """A seeded trace of offers, releases and finishes over three
        weighted tenants releases the same sequence, and leaves the
        cursor, the visit flag and every deficit where the full loop
        leaves them — after every call, including the ``None`` ones."""
        import random

        config = ServeConfig(
            queue_bound=6,
            tenant_inflight=2,
            tenant_weights={"a": 4.0, "b": 1.0, "c": 0.5},
        )
        real, ref = FairShareAdmission(config), _ReferenceAdmission(config)
        rnd = random.Random(seed)
        released = {id(real): [], id(ref): []}
        live = {"a": 0, "b": 0, "c": 0}
        nones = 0
        for _ in range(3000):
            op = rnd.random()
            tenant = rnd.choice("abc")
            if op < 0.35:
                for adm in (real, ref):
                    try:
                        adm.offer(_req(tenant))
                    except RetryAfter:
                        pass
            elif op < 0.55 and live[tenant]:
                live[tenant] -= 1
                for adm in (real, ref):
                    adm.task_finished(tenant, 0.001, ok=True)
            else:
                got = [adm.next_ready() for adm in (real, ref)]
                assert [r is None for r in got] == [got[0] is None] * 2
                if got[0] is None:
                    nones += 1
                else:
                    assert got[0].tenant == got[1].tenant
                    live[got[0].tenant] += 1
                    for adm, req in zip((real, ref), got):
                        released[id(adm)].append(req.tenant)
            assert _drr_state(real) == _drr_state(ref)
        assert released[id(real)] == released[id(ref)]
        assert len(released[id(real)]) > 500 and nones > 100

    def test_an_idle_round_stops_early(self, monkeypatch):
        adm = FairShareAdmission(_config(tenant_inflight=1))
        for tenant in "abc":
            adm.offer(_req(tenant))
        assert len(_drain(adm)) == 3
        adm.offer(_req("a"))  # queued, but its tenant is at the cap
        visits = []
        advance = adm._advance
        monkeypatch.setattr(
            adm, "_advance", lambda n: (visits.append(n), advance(n))
        )
        assert adm.next_ready() is None
        assert len(visits) == 3  # one round, not 8 * 3 + 1 visits


class TestOfferWithRelease:
    def test_releases_when_nothing_waits(self):
        adm = FairShareAdmission(_config())
        adm.ready.clear()
        req = _req("a")
        assert adm.offer(req, release=True) is True
        assert not adm.ready.is_set()  # no step was asked for
        assert adm.inflight() == 1 and adm.queued() == 0
        assert req.admitted_at >= req.submitted_at
        assert adm.next_ready() is None

    def test_queues_behind_other_work(self):
        adm = FairShareAdmission(_config())
        adm.offer(_req("b"))
        adm.ready.clear()
        assert adm.offer(_req("a"), release=True) is False
        assert adm.ready.is_set() and adm.queued() == 2

    def test_queues_at_the_inflight_cap(self):
        adm = FairShareAdmission(_config(tenant_inflight=1))
        assert adm.offer(_req("a"), release=True) is True
        assert adm.offer(_req("a"), release=True) is False
        assert adm.queued() == 1

    def test_fractional_weight_short_of_a_unit_stays_queued(self):
        adm = FairShareAdmission(
            ServeConfig(tenant_weights={"slow": 0.1}, tenant_inflight=4)
        )
        assert adm.offer(_req("slow"), release=True) is False
        assert adm.queued() == 1
