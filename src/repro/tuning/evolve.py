"""Evolutionary work-division search (``strategy="evolve"``).

A population-based alternative to exhaustive/coordinate search over the
*joint* candidate space.  A genome is one pre-validated candidate
division, addressed by its (block-thread extent, thread-element extent)
coordinate — crossover recombines the block axis of one parent with the
element axis of the other, mutation steps to an axis neighbour, and any
child that leaves the valid-candidate set snaps back to a parent, so
evolution can never propose a division the accelerator would reject.

Population zero is not random: it is the Table 2 seed divisions plus
the performance model's top-ranked candidates (the ``_prune`` ordering
exhaustive search uses), so generation 0 already ties the heuristic and
the model's best guess, and evolution only spends its budget improving
on them.

Each generation's fittest individuals are appended to a persisted
**hall of fame** (JSON, ``$REPRO_TUNING_HOF`` or
``.repro-tuning-hof.json``), latest generation first in the
``python -m repro.tuning hof`` report — the generations view of
the juno genetic optimizer is the exemplar.
"""

from __future__ import annotations

import json
import os
import random as _random
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .. import knobs
from ..core.workdiv import WorkDivMembers
from .cache import file_lock
from .search import (
    PRUNE_RATIO,
    SEARCH_STRATEGIES,
    SearchResult,
    Trial,
    _best,
    _prune,
)

__all__ = [
    "evolve_search",
    "default_hof_path",
    "load_hall_of_fame",
    "DEFAULT_HOF_FILENAME",
    "HOF_FORMAT_VERSION",
]

#: Default hall-of-fame file, created in the current working directory.
DEFAULT_HOF_FILENAME = ".repro-tuning-hof.json"

HOF_FORMAT_VERSION = 1


def default_hof_path() -> str:
    return knobs.get(knobs.TUNING_HOF) or os.path.join(
        os.getcwd(), DEFAULT_HOF_FILENAME
    )


def _wd_payload(wd: WorkDivMembers) -> dict:
    return {
        "grid": list(wd.grid_block_extent),
        "block": list(wd.block_thread_extent),
        "elems": list(wd.thread_elem_extent),
    }


def load_hall_of_fame(path: Optional[str] = None) -> dict:
    """The persisted hall-of-fame document (empty skeleton when the
    file is missing or rotten — a report tool must not crash on it)."""
    path = path or default_hof_path()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {"version": HOF_FORMAT_VERSION, "runs": []}
    if (
        not isinstance(data, dict)
        or data.get("version") != HOF_FORMAT_VERSION
        or not isinstance(data.get("runs"), list)
    ):
        return {"version": HOF_FORMAT_VERSION, "runs": []}
    return data


def _append_run(path: str, run: dict) -> None:
    """Append one run record, read-merge-write atomically under the
    advisory lock (processes sharing the file may finish evolve runs
    concurrently)."""
    with file_lock(path):
        doc = load_hall_of_fame(path)
        doc["runs"].append(run)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=".repro-hof-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:  # noqa: BLE001 - interrupted or not, leave no temp file; re-raised
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _coord(wd: WorkDivMembers) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return (tuple(wd.block_thread_extent), tuple(wd.thread_elem_extent))


def evolve_search(
    candidates: Sequence[WorkDivMembers],
    objective,
    *,
    seeds: int = 0,
    budget: Optional[int] = None,
    seed: int = 0,
    predicted: Optional[Dict[WorkDivMembers, float]] = None,
    prune_ratio: float = PRUNE_RATIO,
    population: int = 8,
    max_generations: int = 16,
    elite: int = 2,
    tournament: int = 3,
    mutation_rate: float = 0.35,
    stale_after: int = 3,
    hof_size: int = 3,
    hof_path: Optional[str] = None,
    hof_label: str = "evolve",
    schedules: Sequence[str] = (),
    schedule_objective=None,
) -> SearchResult:
    """Tournament-selected, crossover/mutation search over the candidate
    space; persists a per-generation hall of fame.

    Deterministic for a given ``seed``.  ``budget`` caps *total distinct
    measurements* (memoised — re-evaluating a surviving individual is
    free); evolution also stops after ``stale_after`` generations
    without improvement or after ``max_generations``.

    With ``schedules`` (and a ``schedule_objective(wd, schedule) ->
    seconds``), the genome grows a third axis: each individual is a
    (division, block-schedule) pair, crossover may take its schedule
    from either parent, and mutation can step the schedule instead of a
    division axis.  The winner's schedule lands in
    :attr:`SearchResult.best_schedule` — this is how ``compiled`` (the
    trace-vectorized replay) competes against ``sequential`` / pooled /
    process dispatch inside one evolutionary run instead of a separate
    post-search sweep.
    """
    order, pruned = _prune(candidates, seeds, predicted, prune_ratio)
    if not order:
        raise ValueError("empty candidate space")
    rng = _random.Random(seed)

    sched_axis: List[Optional[str]] = (
        list(schedules) if schedules and schedule_objective else [None]
    )

    # Valid-coordinate index: (block, elems, schedule) -> individual.
    # Axis value lists are sorted so mutation's "neighbour" is the
    # next/previous extent along that axis.
    valid: Dict[tuple, tuple] = {}
    for wd in order:
        c = _coord(wd)
        for sched in sched_axis:
            valid.setdefault(c + (sched,), (wd, sched))
    block_axis = sorted({c[0] for c in valid})
    elem_axis = sorted({c[1] for c in valid})

    measured: Dict[tuple, float] = {}
    trials: List[Trial] = []

    def coord(ind: tuple) -> tuple:
        return _coord(ind[0]) + (ind[1],)

    def spend(ind: tuple) -> Optional[float]:
        """Memoised measurement; None once the budget is gone."""
        if ind in measured:
            return measured[ind]
        if budget is not None and len(trials) >= budget:
            return None
        wd, sched = ind
        secs = objective(wd) if sched is None else schedule_objective(wd, sched)
        measured[ind] = secs
        trials.append(Trial(wd, secs))
        return secs

    def fitness(ind: tuple) -> float:
        return measured.get(ind, float("inf"))

    def crossover(a: tuple, b: tuple) -> tuple:
        ca, cb = coord(a), coord(b)
        scheds = [ca[2], cb[2]]
        rng.shuffle(scheds)
        for combo in (
            (ca[0], cb[1], scheds[0]),
            (cb[0], ca[1], scheds[1]),
        ):
            child = valid.get(combo)
            if child is not None:
                return child
        return a if fitness(a) <= fitness(b) else b

    def mutate(ind: tuple) -> tuple:
        block, elems, sched = coord(ind)
        genes = ["block", "elems"] + (
            ["sched"] if len(sched_axis) > 1 else []
        )
        gene = rng.choice(genes)
        if gene == "sched":
            # Step the schedule axis: any other legal schedule.
            others = [s for s in sched_axis if s != sched]
            rng.shuffle(others)
            for s in others:
                child = valid.get((block, elems, s))
                if child is not None:
                    return child
            return ind
        if gene == "block":
            axis, make = block_axis, lambda v: (v, elems, sched)
            at = axis.index(block)
        else:
            axis, make = elem_axis, lambda v: (block, v, sched)
            at = axis.index(elems)
        steps = list(range(1, len(axis)))
        rng.shuffle(steps)
        for step in steps:
            for direction in (1, -1):
                idx = at + direction * step
                if 0 <= idx < len(axis):
                    child = valid.get(make(axis[idx]))
                    if child is not None:
                        return child
        return ind

    def pick(pool: List[tuple]) -> tuple:
        k = min(tournament, len(pool))
        return min(rng.sample(pool, k), key=fitness)

    # -- generation 0: Table 2 seeds + model-ranked head ---------------
    # With a schedule axis, the head divisions cycle through the legal
    # schedules so every schedule is measured early.
    pop_size = max(2, min(population, len(order) * len(sched_axis)))
    head = list(dict.fromkeys(order))
    pop = [
        (head[i % len(head)], sched_axis[i % len(sched_axis)])
        for i in range(pop_size)
    ]
    pop = list(dict.fromkeys(pop))

    generations: List[dict] = []
    best_so_far = float("inf")
    stale = 0
    out_of_budget = False

    for gen in range(max_generations):
        for ind in pop:
            if spend(ind) is None:
                out_of_budget = True
                break

        ranked = sorted(
            (ind for ind in dict.fromkeys(pop) if ind in measured),
            key=fitness,
        )
        if ranked:
            gen_best = fitness(ranked[0])
            generations.append(
                {
                    "generation": gen,
                    "hall_of_fame": [
                        {
                            "work_div": _wd_payload(ind[0]),
                            **(
                                {"schedule": ind[1]}
                                if ind[1] is not None
                                else {}
                            ),
                            "seconds": measured[ind],
                        }
                        for ind in ranked[:hof_size]
                        if measured[ind] != float("inf")
                    ],
                    "best_seconds": (
                        gen_best if gen_best != float("inf") else None
                    ),
                    "measurements": len(trials),
                }
            )
            if gen_best < best_so_far:
                best_so_far = gen_best
                stale = 0
            else:
                stale += 1

        if out_of_budget or stale >= stale_after:
            break
        if len(measured) >= len(valid):
            break  # the whole space is measured; nothing left to evolve

        survivors = ranked or pop
        elite_n = min(elite, len(survivors))
        next_pop = list(survivors[:elite_n])
        while len(next_pop) < pop_size:
            child = crossover(pick(survivors), pick(survivors))
            if rng.random() < mutation_rate:
                child = mutate(child)
            next_pop.append(child)
        # Duplicates are free (memoised) but diversity is not: replace
        # repeats with unmeasured candidates while any remain.
        seen: List[tuple] = []
        unmeasured = [ind for ind in valid.values() if ind not in measured]
        rng.shuffle(unmeasured)
        for ind in next_pop:
            if ind in seen and unmeasured:
                seen.append(unmeasured.pop())
            else:
                seen.append(ind)
        pop = seen

    best_ind: Optional[tuple] = None
    finite = {ind: s for ind, s in measured.items() if s != float("inf")}
    if finite:
        best_ind = min(finite, key=finite.get)
    schedule_trials: Dict[str, float] = {}
    for (wd, sched), secs in measured.items():
        if sched is not None and secs != float("inf"):
            schedule_trials[sched] = min(
                schedule_trials.get(sched, float("inf")), secs
            )
    result = SearchResult(
        best=_best(trials),
        trials=trials,
        pruned=pruned,
        strategy="evolve",
        best_schedule=best_ind[1] if best_ind is not None else None,
        schedule_trials=schedule_trials,
    )

    path = hof_path or default_hof_path()
    try:
        _append_run(
            path,
            {
                "label": hof_label,
                "strategy": "evolve",
                "time": time.time(),
                "seed": seed,
                "budget": budget,
                "population": pop_size,
                "measurements": len(trials),
                "space": len(valid),
                "best": {
                    "work_div": _wd_payload(result.best.work_div),
                    **(
                        {"schedule": result.best_schedule}
                        if result.best_schedule is not None
                        else {}
                    ),
                    "seconds": result.best.seconds,
                },
                "generations": generations,
            },
        )
    except OSError:
        pass  # the hall of fame is a report, never worth failing a tune

    return result


SEARCH_STRATEGIES.setdefault("evolve", evolve_search)
