"""Battery models: the device's energy budget, and batteries of trials.

The paper's motivation is battery life: "continuous processing of streams
... can cause commercial smartphone batteries to be depleted in a few hours".
:class:`Battery` converts accumulated acquisition energy into remaining
charge and an estimated lifetime, so examples can report scheduler quality
in user-facing terms (hours of battery) rather than abstract cost units.

The second half of the module runs *batteries of trials* — the repeated
independent executions every empirical cost estimate is averaged from:

* :func:`run_battery` evaluates ``n_trials`` executions of one schedule on
  the :class:`~repro.engine.vectorized.VectorizedExecutor` (one drawn
  outcome matrix, evaluated column by column). ``workers`` composes with
  :func:`repro.parallel.pmap` for process-level fan-out on top of the
  in-process vectorization.
* :func:`estimate_schedule_cost` is the experiment drivers' uniform entry
  point: ``engine="analytic"`` returns the closed-form expected cost,
  ``engine="vectorized"`` a trial-battery mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.schedule import validate_schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import StreamError

__all__ = [
    "Battery",
    "TrialBatteryResult",
    "run_battery",
    "estimate_schedule_cost",
]


@dataclass(slots=True)
class Battery:
    """Energy budget with draw accounting.

    Parameters
    ----------
    capacity_joules:
        Full-charge energy. (A typical smartphone battery is ~10 Wh = 36 kJ;
        only a share of it is available to sensing.)
    """

    capacity_joules: float
    drained_joules: float = 0.0

    def __post_init__(self) -> None:
        if not self.capacity_joules > 0.0:
            raise StreamError(f"capacity must be > 0, got {self.capacity_joules}")

    def drain(self, joules: float) -> None:
        if joules < 0.0:
            raise StreamError(f"cannot drain a negative amount ({joules})")
        self.drained_joules += joules

    @property
    def remaining_joules(self) -> float:
        return max(0.0, self.capacity_joules - self.drained_joules)

    @property
    def fraction_remaining(self) -> float:
        return self.remaining_joules / self.capacity_joules

    @property
    def depleted(self) -> bool:
        return self.drained_joules >= self.capacity_joules

    def rounds_until_empty(self, joules_per_round: float) -> float:
        """Projected further rounds at the given per-round draw (inf if free)."""
        if joules_per_round <= 0.0:
            return math.inf
        return self.remaining_joules / joules_per_round


# ---------------------------------------------------------------------------
# Batteries of trials
# ---------------------------------------------------------------------------

_TreeLike = Union[AndTree, DnfTree, QueryTree]


@dataclass(frozen=True)
class TrialBatteryResult:
    """Aggregate of ``n_trials`` independent executions of one schedule."""

    n_trials: int
    costs: np.ndarray
    values: np.ndarray

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())

    @property
    def std_error(self) -> float:
        if self.n_trials < 2:
            return 0.0
        return float(self.costs.std(ddof=1) / math.sqrt(self.n_trials))

    @property
    def true_rate(self) -> float:
        return float(self.values.mean())

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.std_error
        return (self.mean_cost - half, self.mean_cost + half)


def _run_battery_chunk(
    args: tuple[_TreeLike, tuple[int, ...], int, np.random.SeedSequence]
) -> tuple[np.ndarray, np.ndarray]:
    """One worker's share of a battery (top-level for pickling)."""
    tree, schedule, n_trials, seed_seq = args
    result = run_battery(tree, schedule, n_trials, rng=np.random.default_rng(seed_seq))
    return result.costs, result.values


def run_battery(
    tree: _TreeLike,
    schedule: Sequence[int],
    n_trials: int,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> TrialBatteryResult:
    """Run ``n_trials`` independent executions of ``schedule`` on ``tree``.

    Every trial starts from an empty item cache (the independent-trials
    model of the analytic evaluators), draws its leaf outcomes from the
    tree's probabilities, and pays the cache-aware short-circuited cost.
    The outcomes are one ``rng.random((n, L))`` matrix drawn by
    :meth:`VectorizedExecutor.run_batch`, so ``seed`` fully determines the
    result.

    ``workers > 1`` splits the battery into per-worker chunks (seeded
    independently via :func:`repro.parallel.spawn_seeds`) and fans out with
    :func:`repro.parallel.pmap`; results are deterministic for a fixed
    worker count. ``rng`` cannot be combined with ``workers`` — give a
    ``seed`` instead so chunks can be seeded independently.
    """
    from repro.engine.vectorized import VectorizedExecutor
    from repro.parallel import pmap, spawn_seeds

    if n_trials < 1:
        raise StreamError(f"need n_trials >= 1, got {n_trials}")
    schedule = validate_schedule(tree, schedule)

    if workers is not None and workers > 1 and n_trials > 1:
        if rng is not None:
            raise StreamError("run_battery(workers=...) needs a seed, not a live rng")
        chunks = min(workers, n_trials)
        per_chunk = [n_trials // chunks] * chunks
        for i in range(n_trials % chunks):
            per_chunk[i] += 1
        seeds = spawn_seeds(seed, chunks)
        parts = pmap(
            _run_battery_chunk,
            [(tree, schedule, per_chunk[i], seeds[i]) for i in range(chunks)],
            workers=workers,
        )
        return TrialBatteryResult(
            n_trials=n_trials,
            costs=np.concatenate([costs for costs, _ in parts]),
            values=np.concatenate([values for _, values in parts]),
        )

    batch = VectorizedExecutor(tree).run_batch(schedule, n_trials, rng=rng, seed=seed)
    return TrialBatteryResult(n_trials=n_trials, costs=batch.costs, values=batch.values)


def estimate_schedule_cost(
    tree: _TreeLike,
    schedule: Sequence[int],
    *,
    engine: str = "analytic",
    n_trials: int = 4000,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> float:
    """Expected cost of ``schedule`` by the chosen engine.

    ``"analytic"`` dispatches to the closed-form evaluators
    (:func:`repro.core.cost.schedule_cost`); ``"vectorized"`` averages a
    :func:`run_battery` of simulated trials.
    """
    if engine == "analytic":
        from repro.core.cost import schedule_cost

        return schedule_cost(tree, schedule, validate=False)
    if engine != "vectorized":
        raise StreamError(
            f"unknown cost engine {engine!r}; expected 'analytic' or 'vectorized'"
        )
    return run_battery(tree, schedule, n_trials, rng=rng, seed=seed).mean_cost
