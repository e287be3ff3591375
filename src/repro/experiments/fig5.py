"""Figure 5: heuristics vs exhaustive optimum on "small" DNF trees.

Paper setup (§IV-D): 21,600 small instances (N = 2..9 ANDs, at most 20
leaves, at most 8 per AND, all sharing ratios), optimal schedules computed by
exhaustive search over depth-first schedules (sound by Theorem 2), and each
of the 10 heuristics scored by its ratio to optimal. Findings the harness
checks for:

* AND-ordered heuristics (except decreasing p) dominate;
* increasing C/p dynamic is best (best-or-tied on 83.8% of instances in the
  paper), increasing C second;
* the stream-ordered heuristic [4] is worse than the best leaf-ordered
  heuristic; leaf-ordered random is worst.

The exhaustive search is exponential: the default grid below trims the paper
grid to exhaustive-feasible sizes (the full grid remains available through
``configs=list(fig5_configs())``); ratios, rankings and profile shapes are
unaffected by the trim (same generators, smaller N and per-AND caps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.dnf_optimal import optimal_depth_first
from repro.core.heuristics.base import make_paper_heuristics
from repro.errors import BudgetExceededError
from repro.experiments.profiles import PerformanceProfile, best_fractions, performance_profile
from repro.generators.configs import DnfConfig, fig5_configs
from repro.generators.random_trees import sample_dnf_tree
from repro.parallel import pmap, spawn_seeds

__all__ = ["Fig5Result", "run_fig5", "default_small_configs"]


def default_small_configs() -> list[DnfConfig]:
    """Exhaustive-search-feasible trim of the paper's small grid."""
    return list(
        fig5_configs(
            n_ands=(2, 3, 4),
            caps=(2, 3),
            rhos=(1.0, 1.5, 2.0, 3.0, 5.0),
            max_leaves=12,
        )
    )


@dataclass(frozen=True)
class Fig5Result:
    """Costs per heuristic plus the exhaustive optimum, per instance."""

    heuristic_costs: Mapping[str, np.ndarray]
    optimal_costs: np.ndarray
    skipped_budget: int

    @property
    def n_instances(self) -> int:
        return int(self.optimal_costs.size)

    def ratios(self, name: str) -> np.ndarray:
        """Heuristic-to-optimal cost ratios (1.0 where the optimum is 0)."""
        costs = self.heuristic_costs[name]
        out = np.ones_like(costs)
        positive = self.optimal_costs > 0
        out[positive] = costs[positive] / self.optimal_costs[positive]
        return out

    def profiles(self) -> dict[str, PerformanceProfile]:
        return {
            name: performance_profile(name, self.ratios(name)) for name in self.heuristic_costs
        }

    def best_fractions(self) -> dict[str, float]:
        """Fraction of instances where each heuristic matches the best heuristic."""
        return best_fractions(self.heuristic_costs)

    def optimal_fractions(self, rel_tol: float = 1e-9) -> dict[str, float]:
        """Fraction of instances where each heuristic actually attains the optimum."""
        out: dict[str, float] = {}
        for name, costs in self.heuristic_costs.items():
            hits = costs <= self.optimal_costs * (1.0 + rel_tol) + 1e-15
            out[name] = float(np.mean(hits))
        return out

    def summary_rows(self) -> list[tuple[object, ...]]:
        """One row per heuristic: profile landmarks + win rates (sorted, best first)."""
        profiles = self.profiles()
        wins = self.best_fractions()
        optimal_hits = self.optimal_fractions()
        rows = []
        for name, profile in profiles.items():
            rows.append(
                (
                    name,
                    profile.fraction_within(1.0 + 1e-9) * 100.0,
                    profile.fraction_within(1.1) * 100.0,
                    profile.fraction_within(2.0) * 100.0,
                    profile.max_ratio,
                    wins[name] * 100.0,
                    optimal_hits[name] * 100.0,
                )
            )
        rows.sort(key=lambda row: (-row[2], row[4]))
        return rows

    @staticmethod
    def summary_headers() -> tuple[str, ...]:
        return ("heuristic", "%<=1.0", "%<=1.1", "%<=2.0", "max ratio", "%best", "%optimal")


def _run_cell(
    args: tuple[DnfConfig, int, np.random.SeedSequence, int, str, int]
) -> tuple[dict[str, list[float]], list[float], int]:
    """One grid cell (top-level for pickling)."""
    config, n_instances, seed_seq, node_budget, engine, trials = args
    rng = np.random.default_rng(seed_seq)
    trial_rng = None if engine == "analytic" else np.random.default_rng(seed_seq.spawn(1)[0])
    if engine != "analytic":
        # Lazy import (engine builds on core/experiments' level, not the reverse).
        from repro.engine.battery import estimate_schedule_cost
    heuristics = make_paper_heuristics(seed=int(rng.integers(0, 2**31)))
    per_heuristic: dict[str, list[float]] = {name: [] for name in heuristics}
    optima: list[float] = []
    skipped = 0
    for _ in range(n_instances):
        tree = sample_dnf_tree(rng, config)
        try:
            optimum = optimal_depth_first(tree, node_budget=node_budget)
        except BudgetExceededError:
            skipped += 1
            continue
        optima.append(optimum.cost)
        for name, heuristic in heuristics.items():
            if engine == "analytic":
                per_heuristic[name].append(heuristic.cost(tree))
            else:
                per_heuristic[name].append(
                    estimate_schedule_cost(
                        tree,
                        heuristic.schedule(tree),
                        engine=engine,
                        n_trials=trials,
                        rng=trial_rng,
                    )
                )
    return per_heuristic, optima, skipped


def run_fig5(
    *,
    instances_per_config: int = 20,
    configs: Sequence[DnfConfig] | None = None,
    seed: int | None = 0,
    node_budget: int = 2_000_000,
    workers: int | None = None,
    engine: str = "analytic",
    trials_per_instance: int = 2000,
) -> Fig5Result:
    """Run the Figure 5 sweep.

    Paper scale: ``instances_per_config=100, configs=list(fig5_configs())``
    (expect hours — the optimum search is exponential); the default trimmed
    grid finishes in minutes on one core. ``engine="vectorized"`` scores
    each *heuristic* schedule by a simulated trial battery of
    ``trials_per_instance`` executions instead of the closed form
    (``"analytic"``, the default); the exhaustive optimum is analytic by
    definition either way.
    """
    if configs is None:
        configs = default_small_configs()
    seeds = spawn_seeds(seed, len(configs))
    cells = pmap(
        _run_cell,
        [
            (config, instances_per_config, seeds[i], node_budget, engine, trials_per_instance)
            for i, config in enumerate(configs)
        ],
        workers=workers,
    )
    merged: dict[str, list[float]] = {}
    optima: list[float] = []
    skipped = 0
    for per_heuristic, cell_optima, cell_skipped in cells:
        skipped += cell_skipped
        optima.extend(cell_optima)
        for name, costs in per_heuristic.items():
            merged.setdefault(name, []).extend(costs)
    return Fig5Result(
        heuristic_costs={name: np.asarray(costs) for name, costs in merged.items()},
        optimal_costs=np.asarray(optima),
        skipped_budget=skipped,
    )
