"""Figure 6: heuristics on "large" DNF trees, relative to the best heuristic.

Paper setup (§IV-D): 32,400 large instances (N = 2..10 ANDs, m in
{5, 10, 15, 20} leaves per AND, all sharing ratios, 100 per cell). Optima
are intractable here, so every heuristic is scored by its cost ratio to the
**AND-ordered increasing C/p dynamic** heuristic (the best on small
instances). Paper finding: that reference is the best heuristic on 94.5% of
the large instances, and the small-instance ranking carries over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.heuristics.base import make_paper_heuristics
from repro.experiments.profiles import PerformanceProfile, best_fractions, performance_profile
from repro.generators.configs import DnfConfig, fig6_configs
from repro.generators.random_trees import sample_dnf_tree
from repro.parallel import pmap, spawn_seeds

__all__ = ["Fig6Result", "run_fig6", "default_large_configs", "REFERENCE_HEURISTIC"]

#: The reference everything is normalized to (best heuristic of Figure 5).
REFERENCE_HEURISTIC = "and-inc-c-over-p-dynamic"


def default_large_configs() -> list[DnfConfig]:
    """A laptop-scale trim of the paper's large grid (same generators)."""
    return list(
        fig6_configs(
            n_ands=(2, 4, 6, 8, 10),
            leaves_per_and=(5, 10),
            rhos=(1.0, 1.5, 2.0, 3.0, 5.0, 10.0),
        )
    )


@dataclass(frozen=True)
class Fig6Result:
    """Costs per heuristic (including the reference), per instance."""

    heuristic_costs: Mapping[str, np.ndarray]

    @property
    def n_instances(self) -> int:
        return int(next(iter(self.heuristic_costs.values())).size)

    def ratios(self, name: str) -> np.ndarray:
        """Cost ratio of ``name`` to the reference heuristic (1.0 on 0/0)."""
        reference = self.heuristic_costs[REFERENCE_HEURISTIC]
        costs = self.heuristic_costs[name]
        out = np.ones_like(costs)
        positive = reference > 0
        out[positive] = costs[positive] / reference[positive]
        return out

    def profiles(self) -> dict[str, PerformanceProfile]:
        return {
            name: performance_profile(name, self.ratios(name))
            for name in self.heuristic_costs
            if name != REFERENCE_HEURISTIC
        }

    def best_fractions(self) -> dict[str, float]:
        """Fraction of instances where each heuristic is (tied-)best overall."""
        return best_fractions(self.heuristic_costs)

    def summary_rows(self) -> list[tuple[object, ...]]:
        profiles = self.profiles()
        wins = self.best_fractions()
        rows = [
            (
                REFERENCE_HEURISTIC + " (ref)",
                100.0,
                100.0,
                100.0,
                1.0,
                wins[REFERENCE_HEURISTIC] * 100.0,
            )
        ]
        for name, profile in profiles.items():
            rows.append(
                (
                    name,
                    profile.fraction_within(1.0 + 1e-9) * 100.0,
                    profile.fraction_within(1.1) * 100.0,
                    profile.fraction_within(2.0) * 100.0,
                    profile.max_ratio,
                    wins[name] * 100.0,
                )
            )
        rows[1:] = sorted(rows[1:], key=lambda row: (-row[2], row[4]))
        return rows

    @staticmethod
    def summary_headers() -> tuple[str, ...]:
        return ("heuristic", "%<=1.0", "%<=1.1", "%<=2.0", "max ratio", "%best")


def _run_cell(
    args: tuple[DnfConfig, int, np.random.SeedSequence, str, int]
) -> dict[str, list[float]]:
    """One grid cell (top-level for pickling)."""
    config, n_instances, seed_seq, engine, trials = args
    rng = np.random.default_rng(seed_seq)
    trial_rng = None if engine == "analytic" else np.random.default_rng(seed_seq.spawn(1)[0])
    if engine != "analytic":
        # Lazy import (engine builds on core/experiments' level, not the reverse).
        from repro.engine.battery import estimate_schedule_cost
    heuristics = make_paper_heuristics(seed=int(rng.integers(0, 2**31)))
    per_heuristic: dict[str, list[float]] = {name: [] for name in heuristics}
    for _ in range(n_instances):
        tree = sample_dnf_tree(rng, config)
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
    return per_heuristic


def run_fig6(
    *,
    instances_per_config: int = 10,
    configs: Sequence[DnfConfig] | None = None,
    seed: int | None = 0,
    workers: int | None = None,
    engine: str = "analytic",
    trials_per_instance: int = 2000,
) -> Fig6Result:
    """Run the Figure 6 sweep (paper scale: 100 per cell on the full grid).

    ``engine="vectorized"`` replaces the Proposition-2 closed form
    (``"analytic"``, the default) with a ``trials_per_instance``-trial
    simulated battery per heuristic schedule (composing with ``workers``
    for process fan-out).
    """
    if configs is None:
        configs = default_large_configs()
    seeds = spawn_seeds(seed, len(configs))
    cells = pmap(
        _run_cell,
        [
            (config, instances_per_config, seeds[i], engine, trials_per_instance)
            for i, config in enumerate(configs)
        ],
        workers=workers,
    )
    merged: dict[str, list[float]] = {}
    for per_heuristic in cells:
        for name, costs in per_heuristic.items():
            merged.setdefault(name, []).extend(costs)
    return Fig6Result(
        heuristic_costs={name: np.asarray(costs) for name, costs in merged.items()}
    )
