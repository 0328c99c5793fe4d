"""Evolutionary search: convergence, determinism, budget, hall of fame."""

import json

import pytest

from repro.core.workdiv import WorkDivMembers
from repro.tuning import SEARCH_STRATEGIES, run_search
from repro.knobs import TUNING_HOF
from repro.tuning.evolve import (
    default_hof_path,
    evolve_search,
    load_hall_of_fame,
)


def _grid():
    """2-knob space: blocks fixed, (threads, elems) in a 5x5 grid."""
    out = []
    for b in (1, 2, 4, 8, 16):
        for v in (1, 2, 4, 8, 16):
            out.append(WorkDivMembers.make(4, b, v))
    return out


def _separable(wd):
    b = wd.block_thread_extent[0]
    v = wd.thread_elem_extent[0]
    return (b - 8) ** 2 + (v - 2) ** 2 + 1.0


class TestSearch:
    def test_finds_separable_minimum(self, tmp_path):
        res = evolve_search(
            _grid(), _separable, seed=1, hof_path=str(tmp_path / "hof.json")
        )
        assert res.best.work_div.block_thread_extent[0] == 8
        assert res.best.work_div.thread_elem_extent[0] == 2
        assert res.strategy == "evolve"

    def test_deterministic_for_seed(self, tmp_path):
        hof = str(tmp_path / "hof.json")
        r1 = evolve_search(_grid(), _separable, seed=7, budget=12, hof_path=hof)
        r2 = evolve_search(_grid(), _separable, seed=7, budget=12, hof_path=hof)
        assert [t.work_div for t in r1.trials] == [t.work_div for t in r2.trials]

    def test_budget_caps_distinct_measurements(self, tmp_path):
        res = evolve_search(
            _grid(), _separable, budget=6, hof_path=str(tmp_path / "hof.json")
        )
        assert res.measurements <= 6
        # Memoisation: no division measured twice.
        seen = [t.work_div for t in res.trials]
        assert len(seen) == len(set(seen))

    def test_crossover_children_stay_in_candidate_space(self, tmp_path):
        cands = _grid()
        valid = set(cands)
        measured = []

        def obj(wd):
            measured.append(wd)
            return _separable(wd)

        evolve_search(cands, obj, seed=3, hof_path=str(tmp_path / "hof.json"))
        assert all(wd in valid for wd in measured)

    def test_single_candidate_space(self, tmp_path):
        cands = [WorkDivMembers.make(4, 2, 2)]
        res = evolve_search(
            cands, lambda wd: 1.0, hof_path=str(tmp_path / "hof.json")
        )
        assert res.best.work_div == cands[0]
        assert res.measurements == 1

    def test_empty_candidate_space_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            evolve_search([], _separable, hof_path=str(tmp_path / "hof.json"))

    def test_model_ranking_seeds_generation_zero(self, tmp_path):
        """With a perfect performance model, generation 0 must already
        measure the model's favourite."""
        cands = _grid()
        predicted = {wd: _separable(wd) for wd in cands}
        res = evolve_search(
            cands,
            _separable,
            budget=4,
            predicted=predicted,
            population=4,
            hof_path=str(tmp_path / "hof.json"),
        )
        assert res.best.seconds == 1.0  # the global minimum, found in gen 0


class TestHallOfFame:
    def test_run_is_persisted(self, tmp_path):
        hof = str(tmp_path / "hof.json")
        res = evolve_search(
            _grid(), _separable, seed=1, hof_label="axpy|cpu", hof_path=hof
        )
        doc = load_hall_of_fame(hof)
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["label"] == "axpy|cpu"
        assert run["strategy"] == "evolve"
        assert run["measurements"] == res.measurements
        assert run["best"]["seconds"] == res.best.seconds
        assert run["generations"]
        gen0 = run["generations"][0]
        assert gen0["generation"] == 0
        assert gen0["hall_of_fame"]

    def test_runs_accumulate(self, tmp_path):
        hof = str(tmp_path / "hof.json")
        evolve_search(_grid(), _separable, seed=1, hof_path=hof)
        evolve_search(_grid(), _separable, seed=2, hof_path=hof)
        assert len(load_hall_of_fame(hof)["runs"]) == 2

    def test_generation_bests_never_worsen(self, tmp_path):
        hof = str(tmp_path / "hof.json")
        evolve_search(_grid(), _separable, seed=5, hof_path=hof)
        gens = load_hall_of_fame(hof)["runs"][0]["generations"]
        bests = [g["best_seconds"] for g in gens if g["best_seconds"]]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_missing_file_loads_empty_skeleton(self, tmp_path):
        doc = load_hall_of_fame(str(tmp_path / "absent.json"))
        assert doc == {"version": 1, "runs": []}

    def test_rotten_file_loads_empty_and_is_overwritten(self, tmp_path):
        hof = tmp_path / "hof.json"
        hof.write_text("{ rot !!!")
        assert load_hall_of_fame(str(hof))["runs"] == []
        evolve_search(_grid(), _separable, hof_path=str(hof))
        assert len(load_hall_of_fame(str(hof))["runs"]) == 1
        json.loads(hof.read_text())  # valid JSON again

    def test_default_path_honours_env(self, monkeypatch, tmp_path):
        target = str(tmp_path / "elsewhere.json")
        monkeypatch.setenv(TUNING_HOF, target)
        assert default_hof_path() == target


class TestRegistration:
    def test_importing_evolve_registers_it(self):
        assert SEARCH_STRATEGIES["evolve"] is evolve_search

    def test_run_search_routes_hof_kwargs(self, tmp_path):
        hof = str(tmp_path / "hof.json")
        res = run_search(
            "evolve",
            _grid(),
            _separable,
            budget=8,
            hof_path=hof,
            hof_label="via-dispatch",
        )
        assert res.strategy == "evolve"
        assert load_hall_of_fame(hof)["runs"][0]["label"] == "via-dispatch"


class TestScheduleGenome:
    """The joint (division, schedule) genome behind tune_schedule +
    strategy='evolve' — how `compiled` competes inside one run."""

    def obj_div_only(self, wd):
        raise AssertionError(
            "plain objective must not run when every individual "
            "carries a schedule"
        )

    def test_best_schedule_and_trials(self, tmp_path):
        def sched_obj(wd, sched):
            # 'compiled' wins everywhere; within it the separable
            # landscape picks the usual minimum.
            base = _separable(wd)
            return base * (0.1 if sched == "compiled" else 1.0)

        res = evolve_search(
            _grid(),
            self.obj_div_only,
            seed=2,
            hof_path=str(tmp_path / "hof.json"),
            schedules=("sequential", "pooled", "compiled"),
            schedule_objective=sched_obj,
        )
        assert res.best_schedule == "compiled"
        assert set(res.schedule_trials) <= {"sequential", "pooled", "compiled"}
        assert "compiled" in res.schedule_trials
        assert res.schedule_trials["compiled"] == min(
            res.schedule_trials.values()
        )
        assert res.best.work_div.block_thread_extent[0] == 8
        assert res.best.work_div.thread_elem_extent[0] == 2

    def test_without_schedules_best_schedule_is_none(self, tmp_path):
        res = evolve_search(
            _grid(), _separable, seed=1, hof_path=str(tmp_path / "hof.json")
        )
        assert res.best_schedule is None
        assert res.schedule_trials == {}

    def test_deterministic_for_seed_with_schedules(self, tmp_path):
        def sched_obj(wd, sched):
            return _separable(wd) + (0.5 if sched == "pooled" else 0.0)

        hof = str(tmp_path / "hof.json")
        kw = dict(
            schedules=("sequential", "pooled"),
            schedule_objective=sched_obj,
            seed=9,
            budget=15,
            hof_path=hof,
        )
        r1 = evolve_search(_grid(), self.obj_div_only, **kw)
        r2 = evolve_search(_grid(), self.obj_div_only, **kw)
        assert [t.work_div for t in r1.trials] == [
            t.work_div for t in r2.trials
        ]
        assert r1.best_schedule == r2.best_schedule

    def test_generation_zero_covers_every_schedule(self, tmp_path):
        seen = set()

        def sched_obj(wd, sched):
            seen.add(sched)
            return _separable(wd)

        evolve_search(
            _grid(),
            self.obj_div_only,
            seed=0,
            budget=8,
            population=8,
            hof_path=str(tmp_path / "hof.json"),
            schedules=("sequential", "pooled", "compiled"),
            schedule_objective=sched_obj,
        )
        assert seen == {"sequential", "pooled", "compiled"}

    def test_hof_records_schedule(self, tmp_path):
        hof = str(tmp_path / "hof.json")

        def sched_obj(wd, sched):
            return _separable(wd) * (0.5 if sched == "compiled" else 1.0)

        evolve_search(
            _grid(),
            self.obj_div_only,
            seed=4,
            hof_path=hof,
            schedules=("sequential", "compiled"),
            schedule_objective=sched_obj,
        )
        run = load_hall_of_fame(hof)["runs"][0]
        assert run["best"]["schedule"] == "compiled"
        fame = run["generations"][0]["hall_of_fame"]
        assert all("schedule" in entry for entry in fame)
