"""Search strategies over the candidate space.

Three strategies, one contract: given an ordered candidate list and an
``objective`` callable (division → seconds, ``inf`` for a division the
kernel cannot execute), return the fastest division found within an
optional measurement ``budget``.

* **exhaustive** — measure everything (after pruning); ground truth.
* **random** — measure the seeds plus a budgeted uniform sample of the
  rest; the cheap strategy CI smoke jobs use.
* **coordinate** — coordinate descent over the two knobs of a division
  (block-thread count, thread-element count): alternately hold one
  fixed and sweep the other, restarting from the best point, until a
  full cycle brings no improvement.  Matthes et al. 2017 observe the
  work-division landscape is close to separable in exactly these two
  axes, which is why descent converges in a handful of sweeps.

All strategies share **early pruning seeded by the performance model**:
when the caller supplies predicted seconds per candidate, candidates
predicted slower than ``prune_ratio`` x the best prediction are skipped
without measurement.  The ratio is deliberately generous — the model's
job is shape fidelity, not microseconds — and seeds are never pruned.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.workdiv import WorkDivMembers

__all__ = [
    "Trial",
    "SearchResult",
    "SEARCH_STRATEGIES",
    "run_search",
    "PRUNE_RATIO",
]

#: Candidates predicted slower than this multiple of the best predicted
#: time are skipped without measurement.
PRUNE_RATIO = 16.0

Objective = Callable[[WorkDivMembers], float]


@dataclass(frozen=True)
class Trial:
    """One measured candidate."""

    work_div: WorkDivMembers
    seconds: float


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best: Trial
    trials: List[Trial] = field(default_factory=list)
    #: Candidates skipped on the strength of the performance model.
    pruned: int = 0
    strategy: str = "?"
    #: Winning block schedule when the strategy searched the joint
    #: (division, schedule) space (evolve with ``schedules=...``);
    #: ``None`` when the schedule axis was not part of the genome.
    best_schedule: Optional[str] = None
    #: Best seconds observed per schedule over the joint search.
    schedule_trials: Dict[str, float] = field(default_factory=dict)

    @property
    def measurements(self) -> int:
        return len(self.trials)


def _prune(
    candidates: Sequence[WorkDivMembers],
    seeds: int,
    predicted: Optional[Dict[WorkDivMembers, float]],
    prune_ratio: float,
) -> Tuple[List[WorkDivMembers], int]:
    """Drop candidates the model confidently rules out; never seeds.

    The surviving tail is ordered fastest-predicted-first so budgeted
    strategies spend their measurements where the model expects the
    winners to be.
    """
    head = list(candidates[:seeds])
    tail = list(candidates[seeds:])
    if not predicted:
        return head + tail, 0
    known = [predicted[wd] for wd in candidates if wd in predicted]
    if not known:
        return head + tail, 0
    cutoff = min(known) * prune_ratio
    kept = [wd for wd in tail if predicted.get(wd, 0.0) <= cutoff]
    pruned = len(tail) - len(kept)
    # Unpredicted candidates are never pruned, but sort after every
    # model-ranked one — budgeted strategies should spend measurements
    # where the model expects winners first.
    kept.sort(key=lambda wd: predicted.get(wd, float("inf")))
    return head + kept, pruned


def _measure_all(
    order: Sequence[WorkDivMembers], objective: Objective
) -> List[Trial]:
    trials = []
    for wd in order:
        trials.append(Trial(wd, objective(wd)))
    return trials


def _best(trials: Sequence[Trial]) -> Trial:
    finite = [t for t in trials if t.seconds != float("inf")]
    if not finite:
        raise RuntimeError(
            "every candidate division failed to execute; the kernel is "
            "incompatible with the enumerated space"
        )
    return min(finite, key=lambda t: t.seconds)


def exhaustive_search(
    candidates: Sequence[WorkDivMembers],
    objective: Objective,
    *,
    seeds: int = 0,
    budget: Optional[int] = None,
    seed: int = 0,
    predicted: Optional[Dict[WorkDivMembers, float]] = None,
    prune_ratio: float = PRUNE_RATIO,
) -> SearchResult:
    """Measure every unpruned candidate (``budget`` caps the count)."""
    order, pruned = _prune(candidates, seeds, predicted, prune_ratio)
    if budget is not None:
        order = order[: max(budget, min(seeds, len(order)))]
    trials = _measure_all(order, objective)
    return SearchResult(
        best=_best(trials), trials=trials, pruned=pruned,
        strategy="exhaustive",
    )


def random_search(
    candidates: Sequence[WorkDivMembers],
    objective: Objective,
    *,
    seeds: int = 0,
    budget: Optional[int] = None,
    seed: int = 0,
    predicted: Optional[Dict[WorkDivMembers, float]] = None,
    prune_ratio: float = PRUNE_RATIO,
) -> SearchResult:
    """Measure the seeds plus a uniform sample of the remaining space.

    Deterministic for a given ``seed``.  ``budget`` counts *total*
    measurements including the seeds; ``None`` degenerates to
    exhaustive order.
    """
    order, pruned = _prune(candidates, seeds, predicted, prune_ratio)
    head = order[:seeds]
    tail = order[seeds:]
    if budget is None:
        sample = tail
    else:
        n = max(0, budget - len(head))
        if n >= len(tail):
            sample = tail
        else:
            rng = _random.Random(seed)
            sample = rng.sample(tail, n)
    trials = _measure_all(head + list(sample), objective)
    return SearchResult(
        best=_best(trials), trials=trials, pruned=pruned, strategy="random"
    )


def coordinate_descent_search(
    candidates: Sequence[WorkDivMembers],
    objective: Objective,
    *,
    seeds: int = 0,
    budget: Optional[int] = None,
    seed: int = 0,
    predicted: Optional[Dict[WorkDivMembers, float]] = None,
    prune_ratio: float = PRUNE_RATIO,
    max_sweeps: int = 8,
) -> SearchResult:
    """Alternating one-knob sweeps from the best seed.

    The two coordinates of a division are its block-thread count and
    its thread-element count; a sweep measures every candidate sharing
    the current value of the *other* coordinate, then jumps to the best
    point found.  Stops when a full block+element cycle improves
    nothing, the ``budget`` is exhausted, or ``max_sweeps`` cycles ran.
    """
    order, pruned = _prune(candidates, seeds, predicted, prune_ratio)
    if not order:
        raise ValueError("empty candidate space")

    measured: Dict[WorkDivMembers, float] = {}
    trials: List[Trial] = []

    def spend(wd: WorkDivMembers) -> float:
        if wd not in measured:
            if budget is not None and len(trials) >= budget:
                return float("inf")
            measured[wd] = objective(wd)
            trials.append(Trial(wd, measured[wd]))
        return measured[wd]

    # Start at the best of the seeds (or the first candidate).
    start_pool = order[: max(seeds, 1)]
    current = min(start_pool, key=spend)

    def block_key(wd: WorkDivMembers):
        return wd.block_thread_extent

    def elem_key(wd: WorkDivMembers):
        return wd.thread_elem_extent

    for _ in range(max_sweeps):
        improved = False
        for fixed_key, swept in (
            (elem_key, "block"),
            (block_key, "elems"),
        ):
            anchor = fixed_key(current)
            line = [wd for wd in order if fixed_key(wd) == anchor]
            for wd in line:
                spend(wd)
            feasible = [wd for wd in line if measured.get(wd, float("inf")) != float("inf")]
            if not feasible:
                continue
            best_on_line = min(feasible, key=lambda wd: measured[wd])
            if measured[best_on_line] < measured.get(current, float("inf")):
                current = best_on_line
                improved = True
            if budget is not None and len(trials) >= budget:
                improved = False
                break
        if not improved:
            break

    return SearchResult(
        best=_best(trials), trials=trials, pruned=pruned,
        strategy="coordinate",
    )


SEARCH_STRATEGIES: Dict[str, Callable[..., SearchResult]] = {
    "exhaustive": exhaustive_search,
    "random": random_search,
    "coordinate": coordinate_descent_search,
}


def run_search(
    strategy: str,
    candidates: Sequence[WorkDivMembers],
    objective: Objective,
    **kwargs,
) -> SearchResult:
    """Dispatch to a named strategy (see :data:`SEARCH_STRATEGIES`)."""
    if strategy == "evolve" and strategy not in SEARCH_STRATEGIES:
        # The evolutionary strategy registers itself on import; load it
        # on first demand so this module stays import-light.
        from . import evolve  # noqa: F401
    try:
        fn = SEARCH_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {strategy!r}; "
            f"known: {sorted(SEARCH_STRATEGIES)}"
        ) from None
    return fn(candidates, objective, **kwargs)
