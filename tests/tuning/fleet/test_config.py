"""Fleet configuration: mode parsing and the env surface."""

import dataclasses

import pytest

from repro import knobs
from repro.core.errors import TuningFleetError
from repro.serve.config import ServeConfig, ServeConfigError
from repro.serve.config import config_from_env as serve_config_from_env
from repro.tuning.fleet.config import (
    FLEET_ENV,
    FleetConfig,
    FleetConfigError,
    fleet_config_from_env,
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
        ],
    )
    def test_aliases(self, raw, expected):
        assert parse_fleet_mode(raw) == expected

    def test_garbage_raises(self):
        with pytest.raises(FleetConfigError, match="off|lock"):
            parse_fleet_mode("cluster")

    @pytest.mark.parametrize("raw", ["daemon", "socket", "Serve"])
    def test_retired_daemon_mode_is_rejected(self, raw):
        """Lease files are the only transport: the daemon's names are
        malformed values, and the error lists what the knob accepts."""
        with pytest.raises(FleetConfigError, match=FLEET_ENV) as err:
            parse_fleet_mode(raw)
        assert "'flock', 'lock', 'no', 'off'" in str(err.value)


class TestFleetConfig:
    def test_defaults_are_off(self):
        cfg = FleetConfig()
        assert cfg.mode == "off"
        assert len(dataclasses.fields(cfg)) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "cluster"},
            {"mode": "daemon"},
            {"poll_interval": -0.5},
            {"wait_timeout": -1.0},
            {"wait_timeout": 0},
            {"poll_interval": 0},
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

    def test_lock_mode(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "lock")
        assert fleet_config_from_env().mode == "lock"

    def test_retired_online_tuning_variables_are_inert(self, monkeypatch):
        retired = ["REPRO_SERVE_ONLINE_TUNING"] + [
            f"REPRO_TUNING_DRIFT_{suffix}"
            for suffix in ("THRESHOLD", "WINDOW", "COOLDOWN", "BUDGET", "EWMA")
        ]
        for var in retired:
            monkeypatch.setenv(var, "1")
        assert fleet_config_from_env() == FleetConfig()
        assert serve_config_from_env() == ServeConfig()
        assert set(retired) <= set(knobs.effective()["unrecognised"])
        with pytest.raises(TypeError):
            FleetConfig(drift_budget=4)
        with pytest.raises(FleetConfigError):
            FleetConfig().with_overrides(drift_budget=4)
        with pytest.raises(ServeConfigError):
            ServeConfig().with_overrides(online_tuning=True)

    def test_base_survives_where_env_is_silent(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENV, raising=False)
        base = FleetConfig(mode="lock", wait_timeout=7.0)
        cfg = fleet_config_from_env(base)
        assert cfg.mode == "lock"  # env unset leaves the base mode alone
        assert cfg.wait_timeout == 7.0

    def test_bad_mode_raises(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "cluster")
        with pytest.raises(FleetConfigError, match=FLEET_ENV):
            fleet_config_from_env()
