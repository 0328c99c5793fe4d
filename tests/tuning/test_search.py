"""Search strategies, driven by synthetic objectives (no kernels)."""

import pytest

from repro.core.workdiv import WorkDivMembers
from repro.tuning import SEARCH_STRATEGIES, run_search
from repro.tuning.search import (
    coordinate_descent_search,
    exhaustive_search,
    random_search,
)


def _divisions(n):
    """n distinct 1-d divisions: blocks i+1, 1 thread, 1 elem."""
    return [WorkDivMembers.make(i + 1, 1, 1) for i in range(n)]


def _objective_min_at(target):
    def obj(wd):
        return abs(wd.grid_block_extent[0] - target) + 1.0

    return obj


class TestExhaustive:
    def test_finds_global_minimum(self):
        cands = _divisions(20)
        res = exhaustive_search(cands, _objective_min_at(13))
        assert res.best.work_div.grid_block_extent[0] == 13
        assert res.measurements == 20
        assert res.strategy == "exhaustive"

    def test_budget_caps_measurements(self):
        cands = _divisions(20)
        res = exhaustive_search(cands, _objective_min_at(3), budget=5)
        assert res.measurements == 5

    def test_inf_candidates_skipped_for_best(self):
        cands = _divisions(5)

        def obj(wd):
            return float("inf") if wd.grid_block_extent[0] != 2 else 1.0

        res = exhaustive_search(cands, obj)
        assert res.best.work_div.grid_block_extent[0] == 2

    def test_all_inf_raises(self):
        with pytest.raises(RuntimeError):
            exhaustive_search(_divisions(3), lambda wd: float("inf"))


class TestRandom:
    def test_deterministic_for_seed(self):
        cands = _divisions(50)
        r1 = random_search(cands, _objective_min_at(7), budget=10, seed=42)
        r2 = random_search(cands, _objective_min_at(7), budget=10, seed=42)
        assert [t.work_div for t in r1.trials] == [t.work_div for t in r2.trials]

    def test_different_seeds_differ(self):
        cands = _divisions(50)
        r1 = random_search(cands, _objective_min_at(7), budget=10, seed=1)
        r2 = random_search(cands, _objective_min_at(7), budget=10, seed=2)
        assert [t.work_div for t in r1.trials] != [t.work_div for t in r2.trials]

    def test_seeds_always_measured(self):
        cands = _divisions(50)
        res = random_search(cands, _objective_min_at(30), seeds=3, budget=5)
        measured = [t.work_div for t in res.trials]
        assert cands[0] in measured
        assert cands[1] in measured
        assert cands[2] in measured
        assert res.measurements == 5

    def test_no_budget_measures_everything(self):
        cands = _divisions(12)
        res = random_search(cands, _objective_min_at(5))
        assert res.measurements == 12
        assert res.best.work_div.grid_block_extent[0] == 5


class TestCoordinateDescent:
    def _grid(self):
        """2-knob space: blocks fixed, (threads, elems) in a grid."""
        out = []
        for b in (1, 2, 4, 8, 16):
            for v in (1, 2, 4, 8, 16):
                out.append(WorkDivMembers.make(4, b, v))
        return out

    def test_converges_to_separable_minimum(self):
        cands = self._grid()

        def obj(wd):
            b = wd.block_thread_extent[0]
            v = wd.thread_elem_extent[0]
            return (b - 8) ** 2 + (v - 2) ** 2 + 1.0

        res = coordinate_descent_search(cands, obj, seeds=1)
        assert res.best.work_div.block_thread_extent[0] == 8
        assert res.best.work_div.thread_elem_extent[0] == 2
        # Descent must beat exhaustive cost on a separable landscape.
        assert res.measurements < len(cands)

    def test_budget_respected(self):
        cands = self._grid()
        res = coordinate_descent_search(
            cands, lambda wd: float(wd.block_thread_count), budget=6
        )
        assert res.measurements <= 6


class TestPruning:
    def test_predicted_slow_candidates_pruned(self):
        cands = _divisions(10)
        predicted = {wd: 1.0 for wd in cands[:5]}
        for wd in cands[5:]:
            predicted[wd] = 1e6  # hopeless per the model
        measured = []

        def obj(wd):
            measured.append(wd)
            return 1.0

        res = exhaustive_search(cands, obj, predicted=predicted)
        assert res.pruned == 5
        assert len(measured) == 5

    def test_seeds_exempt_from_pruning(self):
        cands = _divisions(10)
        predicted = {wd: 1e9 for wd in cands}
        predicted[cands[5]] = 1.0
        res = exhaustive_search(
            cands, lambda wd: 1.0, seeds=2, predicted=predicted
        )
        measured = [t.work_div for t in res.trials]
        assert cands[0] in measured and cands[1] in measured

    def test_unpredicted_candidates_survive(self):
        cands = _divisions(10)
        predicted = {cands[3]: 1.0}
        res = exhaustive_search(cands, lambda wd: 1.0, predicted=predicted)
        assert res.pruned == 0
        assert res.measurements == 10

    def test_unpredicted_candidates_measure_after_predicted(self):
        """A budgeted search must spend its measurements on the
        model-ranked candidates first, not on unpredicted ones."""
        cands = _divisions(10)
        predicted = {cands[7]: 1.0, cands[8]: 2.0}
        measured = []

        def obj(wd):
            measured.append(wd)
            return 1.0

        exhaustive_search(cands, obj, budget=2, predicted=predicted)
        assert measured == [cands[7], cands[8]]


class TestDispatch:
    def test_known_strategies(self):
        # "evolve" registers lazily when repro.tuning.evolve is imported
        # (run_search loads it on first demand), so it may or may not be
        # present depending on what ran before this test.
        assert {"exhaustive", "random", "coordinate"} <= set(SEARCH_STRATEGIES)
        assert set(SEARCH_STRATEGIES) <= {
            "exhaustive", "random", "coordinate", "evolve",
        }

    def test_evolve_registers_on_demand(self):
        res = run_search(
            "evolve",
            _divisions(6),
            _objective_min_at(3),
            budget=6,
            hof_path=None,
        )
        assert res.strategy == "evolve"
        assert "evolve" in SEARCH_STRATEGIES

    def test_run_search_dispatches(self):
        res = run_search("exhaustive", _divisions(4), _objective_min_at(2))
        assert res.strategy == "exhaustive"

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            run_search("genetic", _divisions(2), _objective_min_at(1))
