"""ServeConfig construction, env overrides and the parse helpers."""

from __future__ import annotations

import pytest

from repro import knobs
from repro.serve import (
    ServeConfig,
    ServeConfigError,
    config_from_env,
    parse_lanes,
    parse_tenant_weights,
)
from repro.serve.config import (
    HOST_ENV,
    PORT_ENV,
    TENANT_WEIGHTS_ENV,
)

#: Retired in favour of the ServeConfig field / ``python -m repro.serve``
#: flag of the same meaning.
RETIRED = {
    "REPRO_SERVE_BATCH_WINDOW": ("--batch-window", "0.01", "batch_window", 0.01),
    "REPRO_SERVE_BATCH_MAX": ("--batch-max", "32", "batch_max", 32),
    "REPRO_SERVE_QUEUE_BOUND": ("--queue-bound", "77", "queue_bound", 77),
    "REPRO_SERVE_INFLIGHT": ("--inflight", "3", "tenant_inflight", 3),
    "REPRO_SERVE_LANES": (
        "--lanes", "AccCpuSerial:0", "lanes", [("AccCpuSerial", 0)]
    ),
}


class TestDefaults:
    def test_defaults_sane(self):
        cfg = ServeConfig()
        assert cfg.port == 7411
        assert cfg.batch_window > 0
        assert cfg.batch_max > 1
        assert cfg.queue_bound > 0
        assert cfg.tenant_inflight > 0
        assert cfg.enable_batching

    def test_weight_of_defaults_to_one(self):
        cfg = ServeConfig(tenant_weights={"gold": 4.0})
        assert cfg.weight_of("gold") == 4.0
        assert cfg.weight_of("anyone_else") == 1.0

    def test_with_overrides(self):
        cfg = ServeConfig().with_overrides(batch_max=7, port=9000)
        assert cfg.batch_max == 7
        assert cfg.port == 9000
        assert cfg.batch_window == ServeConfig().batch_window

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ServeConfigError):
            ServeConfig().with_overrides(no_such_field=1)

    def test_validation(self):
        with pytest.raises(ServeConfigError):
            ServeConfig(batch_max=0)
        with pytest.raises(ServeConfigError):
            ServeConfig(queue_bound=-1)
        with pytest.raises(ServeConfigError):
            ServeConfig(batch_window=-0.1)


class TestParsers:
    def test_parse_tenant_weights(self):
        assert parse_tenant_weights("gold:4,free:1") == {
            "gold": 4.0,
            "free": 1.0,
        }

    def test_parse_tenant_weights_empty(self):
        assert parse_tenant_weights("") == {}

    def test_parse_tenant_weights_malformed(self):
        with pytest.raises(ServeConfigError):
            parse_tenant_weights("gold=4")
        with pytest.raises(ServeConfigError):
            parse_tenant_weights("gold:heavy")
        with pytest.raises(ServeConfigError):
            parse_tenant_weights("gold:-2")

    def test_parse_lanes(self):
        assert parse_lanes("AccCpuSerial:0,AccCpuOmp2Blocks:0") == [
            ("AccCpuSerial", 0),
            ("AccCpuOmp2Blocks", 0),
        ]

    def test_parse_lanes_default_device(self):
        assert parse_lanes("AccCpuSerial") == [("AccCpuSerial", 0)]

    def test_parse_lanes_malformed(self):
        with pytest.raises(ServeConfigError):
            parse_lanes("AccCpuSerial:zero")


class TestEnv:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(HOST_ENV, "0.0.0.0")
        monkeypatch.setenv(PORT_ENV, "8123")
        monkeypatch.setenv(TENANT_WEIGHTS_ENV, "gold:2")
        cfg = config_from_env()
        assert cfg.host == "0.0.0.0"
        assert cfg.port == 8123
        assert cfg.tenant_weights == {"gold": 2.0}

    def test_env_bad_value_raises(self, monkeypatch):
        for var, value in (
            (PORT_ENV, "not_a_port"),
            (PORT_ENV, "99999"),
            (TENANT_WEIGHTS_ENV, "gold=4"),
        ):
            with monkeypatch.context() as m:
                m.setenv(var, value)
                with pytest.raises(ServeConfigError):
                    config_from_env()

    def test_env_untouched_uses_defaults(self, monkeypatch):
        for var in (HOST_ENV, PORT_ENV, TENANT_WEIGHTS_ENV):
            monkeypatch.delenv(var, raising=False)
        assert config_from_env() == ServeConfig()

    def test_base_survives_where_env_is_silent(self, monkeypatch):
        monkeypatch.delenv(PORT_ENV, raising=False)
        monkeypatch.setenv(HOST_ENV, "")  # blank counts as unset
        base = ServeConfig(host="10.0.0.1", port=9000, batch_max=7)
        assert config_from_env(base) == base

    def test_retired_variables_are_inert_flags_still_work(self, monkeypatch):
        from repro.serve import __main__ as cli

        argv = []
        for var, (flag, value, _, _) in RETIRED.items():
            monkeypatch.setenv(var, value)
            argv += [flag, value]
        assert config_from_env() == ServeConfig()
        assert set(RETIRED) <= set(knobs.effective()["unrecognised"])

        seen = {}
        monkeypatch.setattr(
            cli, "serve_forever", lambda config: seen.setdefault("cfg", config)
        )
        monkeypatch.setattr(cli.asyncio, "run", lambda _: None)
        assert cli.main(argv) == 0
        for _, _, field, want in RETIRED.values():
            assert getattr(seen["cfg"], field) == want

    def test_retired_online_tuning_variables_are_inert(self, monkeypatch):
        retired = ["REPRO_SERVE_ONLINE_TUNING"] + [
            f"REPRO_TUNING_DRIFT_{suffix}"
            for suffix in ("THRESHOLD", "WINDOW", "COOLDOWN", "BUDGET", "EWMA")
        ]
        for var in retired:
            monkeypatch.setenv(var, "1")
        assert config_from_env() == ServeConfig()
        assert set(retired) <= set(knobs.effective()["unrecognised"])
        with pytest.raises(ServeConfigError):
            ServeConfig().with_overrides(online_tuning=True)
