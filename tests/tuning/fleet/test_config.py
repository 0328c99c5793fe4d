"""Fleet configuration: mode/address parsing and the env surface."""

import pytest

from repro import knobs
from repro.core.errors import TuningFleetError
from repro.tuning.fleet.config import (
    DEFAULT_DAEMON_PORT,
    FLEET_ADDR_ENV,
    FLEET_ENV,
    FleetConfig,
    FleetConfigError,
    fleet_config_from_env,
    parse_addr,
    parse_fleet_mode,
)


class TestParseMode:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (None, "off"),
            ("", "off"),
            ("0", "off"),
            ("off", "off"),
            ("no", "off"),
            ("1", "lock"),
            ("lock", "lock"),
            ("file", "lock"),
            ("FLOCK", "lock"),
            ("daemon", "daemon"),
            ("socket", "daemon"),
            ("  Serve  ", "daemon"),
        ],
    )
    def test_aliases(self, raw, expected):
        assert parse_fleet_mode(raw) == expected

    def test_garbage_raises(self):
        with pytest.raises(FleetConfigError, match="off|lock|daemon"):
            parse_fleet_mode("cluster")


class TestParseAddr:
    def test_host_and_port(self):
        assert parse_addr("10.0.0.3:9000") == ("10.0.0.3", 9000)

    def test_bare_host_gets_default_port(self):
        assert parse_addr("tuner.local") == ("tuner.local", DEFAULT_DAEMON_PORT)

    def test_bare_port_gets_loopback(self):
        assert parse_addr(":9001") == ("127.0.0.1", 9001)

    def test_non_integer_port_raises(self):
        with pytest.raises(FleetConfigError, match="not an integer"):
            parse_addr("host:http")

    def test_out_of_range_port_raises(self):
        with pytest.raises(FleetConfigError, match="out of range"):
            parse_addr("host:70000")


class TestFleetConfig:
    def test_defaults_are_off(self):
        cfg = FleetConfig()
        assert cfg.mode == "off"
        assert cfg.addr == ("127.0.0.1", DEFAULT_DAEMON_PORT)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "cluster"},
            {"port": -1},
            {"lease_timeout": 0},
            {"wait_timeout": -1.0},
            {"io_timeout": 0},
            {"poll_interval": 0},
            {"drift_threshold": 1.0},
            {"drift_window": 3},
            {"drift_ewma_alpha": 0.0},
            {"drift_ewma_alpha": 1.5},
            {"drift_cooldown": -1},
            {"drift_budget": 0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(FleetConfigError):
            FleetConfig(**kwargs)

    def test_error_type_is_catchable_both_ways(self):
        with pytest.raises(TuningFleetError):
            FleetConfig(mode="cluster")
        with pytest.raises(ValueError):
            FleetConfig(mode="cluster")

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(FleetConfigError):
            FleetConfig().with_overrides(banana=1)


class TestFromEnv:
    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENV, raising=False)
        assert fleet_config_from_env().mode == "off"

    def test_mode_and_addr(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "daemon")
        monkeypatch.setenv(FLEET_ADDR_ENV, "127.0.0.1:7777")
        cfg = fleet_config_from_env()
        assert cfg.mode == "daemon"
        assert cfg.addr == ("127.0.0.1", 7777)

    def test_retired_drift_variables_are_inert_fields_still_work(
        self, monkeypatch
    ):
        fields = {
            "drift_threshold": 2.5,
            "drift_window": 16,
            "drift_cooldown": 5.0,
            "drift_budget": 4,
            "drift_ewma_alpha": 0.5,
        }
        retired = [
            f"REPRO_TUNING_DRIFT_{suffix}"
            for suffix in ("THRESHOLD", "WINDOW", "COOLDOWN", "BUDGET", "EWMA")
        ]
        for var in retired:
            monkeypatch.setenv(var, "7")
        assert fleet_config_from_env() == FleetConfig()
        assert set(retired) <= set(knobs.effective()["unrecognised"])
        cfg = fleet_config_from_env(FleetConfig(**fields))
        for name, want in fields.items():
            assert getattr(cfg, name) == want

    def test_base_survives_where_env_is_silent(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENV, raising=False)
        base = FleetConfig(mode="lock", wait_timeout=7.0)
        cfg = fleet_config_from_env(base)
        assert cfg.mode == "lock"  # env unset leaves the base mode alone
        assert cfg.wait_timeout == 7.0

    def test_bad_number_raises(self, monkeypatch):
        monkeypatch.setenv(FLEET_ADDR_ENV, "host:many")
        with pytest.raises(FleetConfigError, match=FLEET_ADDR_ENV):
            fleet_config_from_env()

    def test_bad_mode_raises(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "cluster")
        with pytest.raises(FleetConfigError, match=FLEET_ENV):
            fleet_config_from_env()
