"""The live ops surface: /metrics, /healthz, /traces over stdlib HTTP."""

import json
import urllib.error
import urllib.request

import pytest

from repro.telemetry import http as ops_http
from repro.telemetry import tracing
from repro.telemetry.http import (
    TELEMETRY_HTTP_ENV,
    OpsServer,
    health_snapshot,
    register_health,
    unregister_health,
)
from repro.telemetry.metrics import registry


@pytest.fixture()
def server():
    with OpsServer() as srv:
        yield srv


def _get(srv, path):
    host, port = srv.address
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=10
    ) as resp:
        return resp.status, resp.read()


def _get_json(srv, path, expect_error=False):
    try:
        status, body = _get(srv, path)
    except urllib.error.HTTPError as err:
        if not expect_error:
            raise
        status, body = err.code, err.read()
    return status, json.loads(body)


def test_metrics_endpoint_serves_prometheus(server):
    registry().counter(
        "repro_test_http_total", "counter visible over /metrics"
    ).inc(3)
    status, body = _get(server, "/metrics")
    assert status == 200
    text = body.decode()
    assert "# TYPE repro_test_http_total counter" in text
    assert "repro_test_http_total 3" in text


def test_healthz_aggregates_components(server, monkeypatch):
    register_health("up_component", lambda: (True, {"detail": 1}))
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    monkeypatch.setenv("REPRO_SCHEDULAR", "compiled")
    try:
        status, payload = _get_json(server, "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["components"]["up_component"]["ok"] is True
        # The process's effective configuration rides along.
        config = payload["config"]
        assert config["knobs"]["REPRO_SCHEDULER"] == {
            "value": "compiled", "raw": "compiled", "source": "env",
        }
        assert config["knobs"]["REPRO_SANITIZE"]["source"] == "default"
        assert "REPRO_SCHEDULAR" in config["unrecognised"]

        register_health("down_component", lambda: (False, {"why": "broken"}))
        try:
            status, payload = _get_json(
                server, "/healthz", expect_error=True
            )
            assert status == 503
            assert payload["ok"] is False
            assert payload["components"]["down_component"]["ok"] is False
        finally:
            unregister_health("down_component")
    finally:
        unregister_health("up_component")


def test_health_provider_exception_counts_as_down():
    def boom():
        raise RuntimeError("probe crashed")

    register_health("crashy", boom)
    try:
        ok, components = health_snapshot()
        assert ok is False
        assert components["crashy"]["ok"] is False
    finally:
        unregister_health("crashy")


def test_traces_endpoint_tails_store(server):
    store = tracing.trace_store()
    store.clear()
    for i in range(5):
        store.add({"trace_id": f"t{i}", "workload": "axpy"})
    status, payload = _get_json(server, "/traces?limit=2")
    assert status == 200
    assert [t["trace_id"] for t in payload["traces"]] == ["t3", "t4"]
    assert payload["stats"]["seen"] == 5
    store.clear()


def test_unknown_route_404(server):
    status, payload = _get_json(server, "/nope", expect_error=True)
    assert status == 404


def test_maybe_start_from_env(monkeypatch):
    ops_http.shutdown_shared_server()
    monkeypatch.delenv(TELEMETRY_HTTP_ENV, raising=False)
    assert ops_http.maybe_start_from_env() is None

    monkeypatch.setenv(TELEMETRY_HTTP_ENV, "127.0.0.1:0")
    srv = ops_http.maybe_start_from_env()
    try:
        assert srv is not None
        # Idempotent: the second call returns the same server.
        assert ops_http.maybe_start_from_env() is srv
        assert ops_http.shared_server() is srv
        status, _ = _get(srv, "/metrics")
        assert status == 200
    finally:
        ops_http.shutdown_shared_server()
    assert ops_http.shared_server() is None


def test_maybe_start_from_env_bad_bind_does_not_raise(monkeypatch, capsys):
    ops_http.shutdown_shared_server()
    monkeypatch.setenv(TELEMETRY_HTTP_ENV, "256.256.256.256:99999")
    assert ops_http.maybe_start_from_env() is None
    ops_http.shutdown_shared_server()
