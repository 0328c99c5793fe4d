"""Tuning-suite fixtures: every test runs against an isolated cache."""

from __future__ import annotations

import pytest

from repro import knobs
from repro.runtime import clear_plan_cache
from repro.tuning import TUNING_CACHE_ENV, reset_default_cache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default tuning cache (and the evolve hall of fame) at
    per-test temp files so tests never read or write a developer's real
    state, and keep the plan cache cold so launch counting starts from
    zero."""
    path = tmp_path / "tuning-cache.json"
    monkeypatch.setenv(TUNING_CACHE_ENV, str(path))
    monkeypatch.setenv(knobs.TUNING_HOF, str(tmp_path / "tuning-hof.json"))
    reset_default_cache()
    clear_plan_cache()
    yield path
    reset_default_cache()
    clear_plan_cache()
