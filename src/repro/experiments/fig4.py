"""Figure 4: read-once greedy vs Algorithm 1 on shared AND-trees.

Paper setup (§III-B): for every m = 2..20 and sharing ratio
rho in {1, 5/4, 4/3, 3/2, 2, 3, 4, 5, 10} with rho <= m, generate 1,000
random AND-trees (157 valid cells -> 157,000 instances); for each, compare
the cost of the read-once-optimal order (sort by ``d c / q``) with the cost
of Algorithm 1's order.

Paper's reported statistics, which :meth:`Fig4Result.summary` reproduces:

* the read-once algorithm is up to **1.86x** worse than optimal;
* more than 10% worse on **19.54%** of instances;
* more than 1% worse on **60.20%** of instances;
* exactly equal on **11.29%** of instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.andtree_optimal import algorithm1_order, read_once_order
from repro.core.cost import and_tree_cost
from repro.generators.configs import FIG4_LEAF_COUNTS, FIG4_SHARING_RATIOS, AndTreeConfig, fig4_configs
from repro.generators.random_trees import sample_and_tree
from repro.parallel import pmap, spawn_seeds

__all__ = ["Fig4Summary", "Fig4Result", "run_fig4"]


@dataclass(frozen=True, slots=True)
class Fig4Summary:
    """The in-text statistics of Figure 4."""

    n_instances: int
    max_ratio: float
    pct_over_10pct: float
    pct_over_1pct: float
    pct_equal: float
    mean_ratio: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("instances", float(self.n_instances)),
            ("max ratio read-once/optimal", self.max_ratio),
            ("% instances >10% worse", self.pct_over_10pct),
            ("% instances >1% worse", self.pct_over_1pct),
            ("% instances equal", self.pct_equal),
            ("mean ratio", self.mean_ratio),
        ]


@dataclass(frozen=True)
class Fig4Result:
    """Per-instance costs of both algorithms over the sweep."""

    optimal_costs: np.ndarray
    read_once_costs: np.ndarray
    leaf_counts: np.ndarray
    rhos: np.ndarray

    @property
    def n_instances(self) -> int:
        return int(self.optimal_costs.size)

    def ratios(self) -> np.ndarray:
        """Per-instance read-once / optimal cost ratio (1.0 where optimal is 0)."""
        out = np.ones_like(self.optimal_costs)
        positive = self.optimal_costs > 0
        out[positive] = self.read_once_costs[positive] / self.optimal_costs[positive]
        return out

    def summary(self) -> Fig4Summary:
        ratios = self.ratios()
        return Fig4Summary(
            n_instances=self.n_instances,
            max_ratio=float(ratios.max()),
            pct_over_10pct=float((ratios > 1.10).mean() * 100.0),
            pct_over_1pct=float((ratios > 1.01).mean() * 100.0),
            pct_equal=float(np.isclose(ratios, 1.0, rtol=1e-12, atol=1e-12).mean() * 100.0),
            mean_ratio=float(ratios.mean()),
        )

    def sorted_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Both cost arrays sorted by increasing optimal cost (the figure's x axis)."""
        order = np.argsort(self.optimal_costs, kind="stable")
        return self.optimal_costs[order], self.read_once_costs[order]

    def by_rho(self) -> dict[float, Fig4Summary]:
        """Summary per sharing ratio (read-once case rho=1 must show ratio 1)."""
        out: dict[float, Fig4Summary] = {}
        for rho in np.unique(self.rhos):
            mask = self.rhos == rho
            sub = Fig4Result(
                optimal_costs=self.optimal_costs[mask],
                read_once_costs=self.read_once_costs[mask],
                leaf_counts=self.leaf_counts[mask],
                rhos=self.rhos[mask],
            )
            out[float(rho)] = sub.summary()
        return out


def _run_cell(
    args: tuple[AndTreeConfig, int, np.random.SeedSequence, str, int]
) -> tuple[list[float], list[float]]:
    """One (m, rho) cell: generate trees, evaluate both algorithms. (Top-level
    for pickling by the process pool.)"""
    config, n_trees, seed_seq, engine, trials = args
    rng = np.random.default_rng(seed_seq)
    # Trial batteries draw from a spawned child stream so the tree sequence
    # is identical to the analytic run with the same seed.
    trial_rng = None if engine == "analytic" else np.random.default_rng(seed_seq.spawn(1)[0])
    if engine != "analytic":
        # Lazy import (engine builds on core/experiments' level, not the reverse).
        from repro.engine.battery import estimate_schedule_cost
    optimal: list[float] = []
    read_once: list[float] = []
    for _ in range(n_trees):
        tree = sample_and_tree(rng, config)
        if engine == "analytic":
            optimal.append(and_tree_cost(tree, algorithm1_order(tree), validate=False))
            read_once.append(and_tree_cost(tree, read_once_order(tree), validate=False))
        else:
            optimal.append(
                estimate_schedule_cost(
                    tree, algorithm1_order(tree), engine=engine, n_trials=trials, rng=trial_rng
                )
            )
            read_once.append(
                estimate_schedule_cost(
                    tree, read_once_order(tree), engine=engine, n_trials=trials, rng=trial_rng
                )
            )
    return optimal, read_once


def run_fig4(
    *,
    trees_per_config: int = 1000,
    leaf_counts: Sequence[int] = FIG4_LEAF_COUNTS,
    rhos: Sequence[float] = FIG4_SHARING_RATIOS,
    seed: int | None = 0,
    workers: int | None = None,
    engine: str = "analytic",
    trials_per_instance: int = 2000,
) -> Fig4Result:
    """Run the Figure 4 sweep (paper scale: ``trees_per_config=1000``).

    ``engine`` selects the cost evaluator: ``"analytic"`` (the closed form,
    default) or ``"vectorized"``, the trial engine, which estimates every
    schedule's cost from ``trials_per_instance`` simulated executions — an
    end-to-end empirical reproduction of the figure. Trial batteries
    compose with ``workers`` (process fan-out per grid cell).
    """
    configs = list(fig4_configs(leaf_counts, rhos))
    seeds = spawn_seeds(seed, len(configs))
    cells = pmap(
        _run_cell,
        [
            (config, trees_per_config, seeds[i], engine, trials_per_instance)
            for i, config in enumerate(configs)
        ],
        workers=workers,
    )
    optimal: list[float] = []
    read_once: list[float] = []
    leaf_counts_out: list[int] = []
    rhos_out: list[float] = []
    for config, (opt, ro) in zip(configs, cells):
        optimal.extend(opt)
        read_once.extend(ro)
        leaf_counts_out.extend([config.m] * len(opt))
        rhos_out.extend([config.rho] * len(opt))
    return Fig4Result(
        optimal_costs=np.asarray(optimal),
        read_once_costs=np.asarray(read_once),
        leaf_counts=np.asarray(leaf_counts_out),
        rhos=np.asarray(rhos_out),
    )
