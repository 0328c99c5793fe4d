"""The knob registry: the one reader of the ``REPRO_*`` environment."""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro import knobs

#: env -> (a valid raw value, what it parses to, a malformed raw value
#: or None when every string is valid).
CASES = {
    knobs.TUNING_CACHE: ("/tmp/cache.json", "/tmp/cache.json", None),
    knobs.MAX_BLOCK_WORKERS: ("3", 3, "lots"),
    knobs.SCHEDULER: (" Pooled ", "pooled", "gpu"),
    knobs.COMPILE_CROSSCHECK: ("yes", True, "2"),
    knobs.GRAPH_REPLAY: ("0", False, "sometimes"),
    knobs.SANITIZE: ("on", True, "ture"),
    knobs.SANITIZE_SEED: ("-4", -4, "seed"),
    knobs.UNGUARDED_KERNEL_ARRAYS: ("TRUE", True, "raw"),
    knobs.TELEMETRY: ("1", True, "/tmp/out"),
    knobs.TELEMETRY_EXPORT: ("t.json", "t.json", None),
    knobs.TRACEPARENT: ("00-" + "a" * 32 + "-" + "b" * 16 + "-01",) * 2
    + (None,),
    knobs.TELEMETRY_HTTP: (":0", ("127.0.0.1", 0), "localhost"),
    knobs.FLIGHT_RECORDER_DIR: ("/tmp/flight", "/tmp/flight", None),
    knobs.SERVE_HOST: ("0.0.0.0", "0.0.0.0", None),
    knobs.SERVE_PORT: ("8123", 8123, "http"),
    knobs.SERVE_TENANT_WEIGHTS: ("gold:4, free:1", {"gold": 4.0, "free": 1.0}, "gold=4"),
    knobs.BENCH_REPORT_DIR: ("/tmp/out", "/tmp/out", None),
}

BOOL_KNOBS = [env for env, k in knobs.KNOBS.items() if isinstance(k.default, bool)]


@pytest.fixture(autouse=True)
def _bare_env(monkeypatch):
    for name in knobs.export_env():
        monkeypatch.delenv(name)


def test_exactly_the_declared_surface():
    assert set(CASES) == set(knobs.KNOBS)
    assert len(knobs.KNOBS) == 17
    assert all(env.startswith(knobs.PREFIX) for env in knobs.KNOBS)


@pytest.mark.parametrize("env", list(knobs.KNOBS))
def test_parse_matrix(env, monkeypatch, caplog):
    knob = knobs.KNOBS[env]
    valid, expected, malformed = CASES[env]
    assert knobs.get(env) == knob.default  # unset
    for blank in ("", "   "):
        monkeypatch.setenv(env, blank)
        assert knobs.get(env) == knob.default
        assert knobs.get(env, "fallback") == "fallback"
    monkeypatch.setenv(env, valid)
    assert knobs.get(env) == expected
    assert knobs.get(env, "fallback") == expected
    if malformed is None:
        return
    monkeypatch.setenv(env, malformed)
    if knob.strict:
        with pytest.raises(knobs.KnobError, match=env):
            knobs.get(env)
    else:
        with caplog.at_level(logging.WARNING, logger="repro.knobs"):
            assert knobs.get(env) == knob.default
            assert knobs.get(env) == knob.default
        warnings = [r for r in caplog.records if env in r.getMessage()]
        assert len(warnings) == 1  # once per (variable, value)


@pytest.mark.parametrize("raw", ["processes", "process", "threads", " Threads "])
def test_retired_schedule_is_rejected(raw, monkeypatch):
    """The process-pool schedule is gone, and the thread pool has one
    name (``pooled``): the old names are malformed values, and the
    error lists what the knob accepts."""
    monkeypatch.setenv(knobs.SCHEDULER, raw)
    accepted = "['compile', 'compiled', 'pooled', 'sequential']"
    with pytest.raises(knobs.KnobError, match=knobs.SCHEDULER) as err:
        knobs.get(knobs.SCHEDULER)
    assert accepted in str(err.value)


@pytest.mark.parametrize("env", BOOL_KNOBS)
@pytest.mark.parametrize(
    "raw,expected",
    [(r, False) for r in ("0", "false", "No", "OFF")]
    + [(r, True) for r in ("1", "true", "Yes", " on ")],
)
def test_boolean_table(env, raw, expected, monkeypatch):
    monkeypatch.setenv(env, raw)
    assert knobs.get(env) is expected


def test_zero_switches_the_feature_off(monkeypatch):
    """``=0`` used to switch these three features ON (non-empty test)."""
    from repro.mem.guard import GuardedArray, guard
    from repro.sanitize import _state as sanitize_state
    from repro.telemetry import _state as telemetry_state

    for env in (knobs.SANITIZE, knobs.TELEMETRY, knobs.UNGUARDED_KERNEL_ARRAYS):
        monkeypatch.setenv(env, "0")
    assert not sanitize_state.active()
    assert not telemetry_state.enabled()
    assert telemetry_state.maybe_activate_from_env() is None
    assert isinstance(guard(np.zeros(2)), GuardedArray)


def test_get_reads_the_live_environment(monkeypatch):
    from repro.runtime import resolve_scheduler_override

    assert resolve_scheduler_override() is None
    monkeypatch.setenv(knobs.SCHEDULER, "compiled")
    assert resolve_scheduler_override() == "compiled"
    monkeypatch.delenv(knobs.SCHEDULER)
    assert resolve_scheduler_override() is None


def _counting_parse(monkeypatch):
    calls = []
    real = knobs.parse

    def parse(env, raw, error=knobs.KnobError):
        calls.append((env, raw))
        return real(env, raw, error)

    monkeypatch.setattr(knobs, "parse", parse)
    return calls


def test_parse_is_memoised_on_the_raw_value(monkeypatch):
    """A value is parsed once while the environment holds it; a write
    is seen on the next read, also when it writes the same string."""
    calls = _counting_parse(monkeypatch)
    monkeypatch.setenv(knobs.SANITIZE_SEED, "12")
    assert [knobs.get(knobs.SANITIZE_SEED) for _ in range(5)] == [12] * 5
    assert calls == [(knobs.SANITIZE_SEED, "12")]
    monkeypatch.setenv(knobs.SANITIZE_SEED, "12")  # rewritten, same string
    assert knobs.get(knobs.SANITIZE_SEED) == 12
    monkeypatch.setenv(knobs.SANITIZE_SEED, "13")
    assert knobs.get(knobs.SANITIZE_SEED) == 13
    monkeypatch.setenv(knobs.SANITIZE_SEED, "   ")
    assert knobs.get(knobs.SANITIZE_SEED) is None
    assert knobs.get(knobs.SANITIZE_SEED, 7) == 7
    monkeypatch.delenv(knobs.SANITIZE_SEED)
    assert knobs.get(knobs.SANITIZE_SEED, 8) == 8
    assert calls[-1] == (knobs.SANITIZE_SEED, "13")


def test_malformed_strict_knob_raises_on_every_read(monkeypatch):
    calls = _counting_parse(monkeypatch)
    monkeypatch.setenv(knobs.SCHEDULER, "gpu")
    for _ in range(2):
        with pytest.raises(knobs.KnobError, match=knobs.SCHEDULER):
            knobs.get(knobs.SCHEDULER)
    assert len(calls) == 2
    monkeypatch.setenv(knobs.SCHEDULER, "compiled")
    assert knobs.get(knobs.SCHEDULER) == "compiled"


def test_pinned_nests_and_restores_on_exception(monkeypatch):
    monkeypatch.setenv(knobs.SCHEDULER, "sequential")
    with pytest.raises(RuntimeError):
        with knobs.pinned(**{knobs.SCHEDULER: "compiled", knobs.SANITIZE_SEED: 5}):
            assert knobs.get(knobs.SCHEDULER) == "compiled"
            assert knobs.get(knobs.SANITIZE_SEED) == 5
            with knobs.pinned(**{knobs.SCHEDULER: None}):
                assert knobs.get(knobs.SCHEDULER) is None
                assert knobs.get(knobs.SANITIZE_SEED) == 5
            assert knobs.get(knobs.SCHEDULER) == "compiled"
            raise RuntimeError("boom")
    assert os.environ[knobs.SCHEDULER] == "sequential"
    assert knobs.SANITIZE_SEED not in os.environ


def test_pinned_rejects_undeclared_names():
    with pytest.raises(KeyError, match="REPRO_SCHEDULAR"):
        with knobs.pinned(REPRO_SCHEDULAR="compiled"):
            pass
    assert "REPRO_SCHEDULAR" not in os.environ


def test_effective_reports_sources_and_unrecognised(monkeypatch):
    monkeypatch.setenv(knobs.SCHEDULER, "compiled")
    monkeypatch.setenv(knobs.SERVE_PORT, "http")  # malformed, strict
    monkeypatch.setenv(knobs.TUNING_CACHE, "")  # blank = unset
    monkeypatch.setenv("REPRO_SCHEDULAR", "compiled")
    config = knobs.effective()
    assert len(config["knobs"]) == 17
    assert config["unrecognised"] == ["REPRO_SCHEDULAR"]
    assert config["knobs"][knobs.SCHEDULER] == {
        "value": "compiled", "raw": "compiled", "source": "env",
    }
    bad = config["knobs"][knobs.SERVE_PORT]
    assert bad["source"] == "env" and bad["value"] == 7411
    assert "not an integer" in bad["error"]
    others = set(knobs.KNOBS) - {knobs.SCHEDULER, knobs.SERVE_PORT}
    assert all(config["knobs"][e]["source"] == "default" for e in others)
    text = knobs.describe()
    assert "REPRO_SCHEDULER=compiled -> 'compiled'" in text
    assert "unrecognised: REPRO_SCHEDULAR" in text


def test_readme_table_is_current(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    assert knobs.main(["--check", readme]) == 0
    stale = tmp_path / "README.md"
    stale.write_text(
        f"{knobs.TABLE_BEGIN}\n| Variable | Effect |\n{knobs.TABLE_END}\n"
    )
    assert knobs.main(["--check", str(stale)]) == 1
    assert knobs.main([]) == 0
    assert capsys.readouterr().out.strip() == knobs.readme_table()
