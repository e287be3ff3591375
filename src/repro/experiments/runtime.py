"""Runtime-scaling experiment (paper §IV-D, closing claim).

The paper reports that the best heuristic "runs in less than 5 seconds on a
1.86 GHz core when processing a tree with 10 AND nodes with each 20 leaves".
This module times the heuristics across a (N, m) grid and checks that claim
on the reproduction hardware. :func:`execution_throughput` extends the grid
to *execution* time — trials per second of the vectorized trial engine and
of a :class:`~repro.engine.executor.ScheduleExecutor` walk per trial over
the same outcomes, the number the vectorized engine is judged by.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.heuristics.base import Scheduler, get_scheduler
from repro.generators.random_trees import random_dnf_tree

__all__ = [
    "RuntimePoint",
    "ThroughputPoint",
    "runtime_grid",
    "paper_runtime_claim",
    "execution_throughput",
]


@dataclass(frozen=True, slots=True)
class RuntimePoint:
    """Mean scheduling wall time for one (heuristic, N, m) cell."""

    heuristic: str
    n_ands: int
    leaves_per_and: int
    seconds: float
    repeats: int


def _time_heuristic(scheduler: Scheduler, trees, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for tree in trees:
            scheduler.schedule(tree)
    elapsed = time.perf_counter() - start
    return elapsed / (repeats * len(trees))


def runtime_grid(
    *,
    heuristics: Sequence[str] = ("and-inc-c-over-p-dynamic", "and-inc-c-over-p-static", "stream-ordered"),
    n_ands_values: Sequence[int] = (2, 4, 6, 8, 10),
    leaves_per_and_values: Sequence[int] = (5, 10, 20),
    rho: float = 2.0,
    trees_per_cell: int = 3,
    repeats: int = 3,
    seed: int | None = 0,
) -> list[RuntimePoint]:
    """Mean per-tree scheduling time over the grid."""
    rng = np.random.default_rng(seed)
    points: list[RuntimePoint] = []
    for name in heuristics:
        scheduler = get_scheduler(name, seed=0) if name == "leaf-random" else get_scheduler(name)
        for n in n_ands_values:
            for m in leaves_per_and_values:
                trees = [
                    random_dnf_tree(rng, n, m, rho) for _ in range(trees_per_cell)
                ]
                seconds = _time_heuristic(scheduler, trees, repeats)
                points.append(
                    RuntimePoint(
                        heuristic=name,
                        n_ands=n,
                        leaves_per_and=m,
                        seconds=seconds,
                        repeats=repeats,
                    )
                )
    return points


@dataclass(frozen=True, slots=True)
class ThroughputPoint:
    """Trial-execution throughput of one engine on one (N, m) cell."""

    engine: str
    n_ands: int
    leaves_per_and: int
    n_trials: int
    seconds: float

    @property
    def trials_per_second(self) -> float:
        return self.n_trials / self.seconds if self.seconds > 0 else float("inf")


def execution_throughput(
    *,
    n_ands_values: Sequence[int] = (2, 6, 10),
    leaves_per_and_values: Sequence[int] = (5, 20),
    rho: float = 2.0,
    n_trials: int = 10_000,
    scheduler: str = "and-inc-c-over-p-dynamic",
    seed: int | None = 0,
) -> list[ThroughputPoint]:
    """Trials/second of the vectorized engine and of the scalar reference.

    Each cell times one :meth:`VectorizedExecutor.run_batch` of ``n_trials``
    executions of the reference heuristic's schedule (the ``"vectorized"``
    row), then one :class:`~repro.engine.executor.ScheduleExecutor` run per
    trial replaying the same outcome matrix (the ``"scalar"`` row), so the
    comparison measures pure execution machinery.
    """
    from repro.engine.executor import PrecomputedOracle, ScheduleExecutor
    from repro.engine.vectorized import VectorizedExecutor
    from repro.streams.cache import CountingCache

    rng = np.random.default_rng(seed)
    chosen = get_scheduler(scheduler)
    points: list[ThroughputPoint] = []
    for n in n_ands_values:
        for m in leaves_per_and_values:
            tree = random_dnf_tree(rng, n, m, rho)
            schedule = chosen.schedule(tree)
            start = time.perf_counter()
            batch = VectorizedExecutor(tree).run_batch(schedule, n_trials, seed=seed)
            vectorized = time.perf_counter() - start

            cache = CountingCache(tree.costs)
            oracle = PrecomputedOracle(batch.outcomes[0])
            executor = ScheduleExecutor(tree, cache, oracle)
            start = time.perf_counter()
            for row in batch.outcomes:
                cache.clear()
                oracle.outcomes = row
                executor.run(schedule)
            scalar = time.perf_counter() - start

            for engine, seconds in (("scalar", scalar), ("vectorized", vectorized)):
                points.append(
                    ThroughputPoint(
                        engine=engine,
                        n_ands=n,
                        leaves_per_and=m,
                        n_trials=n_trials,
                        seconds=seconds,
                    )
                )
    return points


def paper_runtime_claim(*, seed: int | None = 0, repeats: int = 3) -> RuntimePoint:
    """Time the best heuristic on the paper's N=10, m=20 benchmark point."""
    rng = np.random.default_rng(seed)
    scheduler = get_scheduler("and-inc-c-over-p-dynamic")
    trees = [random_dnf_tree(rng, 10, 20, 2.0) for _ in range(3)]
    seconds = _time_heuristic(scheduler, trees, repeats)
    return RuntimePoint(
        heuristic="and-inc-c-over-p-dynamic",
        n_ands=10,
        leaves_per_and=20,
        seconds=seconds,
        repeats=repeats,
    )
