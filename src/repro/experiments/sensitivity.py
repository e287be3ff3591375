"""Sensitivity of the schedulers to probability-estimation error.

The paper assumes leaf success probabilities are *known* ("estimated based
on historical traces"); in a deployment they are noisy. This experiment
quantifies the regret: perturb every leaf probability by truncated-Gaussian
noise of scale ``epsilon``, let the scheduler plan on the perturbed tree,
then evaluate its schedule on the *true* tree and compare to planning with
exact probabilities.

Findings we assert in the bench: regret grows with epsilon, and the ranking
of heuristics is stable under realistic noise (the paper's conclusions do
not hinge on perfect estimates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics.base import Scheduler, get_scheduler
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.generators.random_trees import random_dnf_tree

__all__ = ["SensitivityPoint", "perturb_probabilities", "probability_sensitivity"]


@dataclass(frozen=True, slots=True)
class SensitivityPoint:
    """Mean regret of one scheduler at one noise scale."""

    heuristic: str
    epsilon: float
    mean_regret: float      # mean (noisy-plan cost / exact-plan cost) - 1
    worst_regret: float
    n_instances: int


def perturb_probabilities(
    tree: DnfTree, epsilon: float, rng: np.random.Generator
) -> DnfTree:
    """Each leaf's probability +- Gaussian(0, epsilon), clipped to [0.001, 0.999].

    Clipping stays strictly inside (0, 1) so ratio-based schedulers remain
    well defined under noise.
    """
    groups: list[list[Leaf]] = []
    for group in tree.ands:
        new_group = []
        for leaf in group:
            noisy = float(np.clip(leaf.prob + rng.normal(0.0, epsilon), 0.001, 0.999))
            new_group.append(leaf.with_prob(noisy))
        groups.append(new_group)
    return DnfTree(groups, tree.costs)


def probability_sensitivity(
    *,
    heuristics: Sequence[str] = (
        "and-inc-c-over-p-dynamic",
        "and-inc-c-over-p-static",
        "leaf-inc-c",
        "stream-ordered",
    ),
    epsilons: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
    n_instances: int = 100,
    n_ands: tuple[int, int] = (2, 6),
    leaves_per_and: tuple[int, int] = (2, 6),
    rho_choices: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
    seed: int | None = 0,
    engine: str = "analytic",
    trials_per_instance: int = 2000,
) -> list[SensitivityPoint]:
    """Regret of planning with noisy probabilities, per heuristic and noise scale.

    ``engine="vectorized"`` evaluates every schedule's cost on the *true*
    tree by a simulated trial battery instead of the Proposition-2 closed
    form (``"analytic"``, the default); regrets then carry Monte-Carlo
    noise on top of the estimation noise being studied.
    """
    rng = np.random.default_rng(seed)

    def evaluate(tree: DnfTree, schedule, cost_rng: np.random.Generator) -> float:
        if engine == "analytic":
            return dnf_schedule_cost(tree, schedule, validate=False)
        from repro.engine.battery import estimate_schedule_cost

        return estimate_schedule_cost(
            tree, schedule, engine=engine, n_trials=trials_per_instance, rng=cost_rng
        )

    trees = [
        random_dnf_tree(
            rng,
            int(rng.integers(n_ands[0], n_ands[1] + 1)),
            int(rng.integers(leaves_per_and[0], leaves_per_and[1] + 1)),
            float(rng.choice(list(rho_choices))),
        )
        for _ in range(n_instances)
    ]
    schedulers: dict[str, Scheduler] = {
        name: (get_scheduler(name, seed=0) if name == "leaf-random" else get_scheduler(name))
        for name in heuristics
    }
    points: list[SensitivityPoint] = []
    for name, scheduler in schedulers.items():
        cost_rng = np.random.default_rng((seed or 0) + 99_991)
        exact_costs = np.array(
            [evaluate(tree, scheduler.schedule(tree), cost_rng) for tree in trees]
        )
        for epsilon in epsilons:
            noise_rng = np.random.default_rng((seed or 0) + int(epsilon * 1e6) + 1)
            # Separate stream for simulated cost evaluation, so the noisy
            # trees are the same ones the analytic engine sees.
            eval_rng = np.random.default_rng((seed or 0) + int(epsilon * 1e6) + 2)
            regrets = []
            for tree, exact_cost in zip(trees, exact_costs):
                noisy_tree = perturb_probabilities(tree, epsilon, noise_rng)
                noisy_schedule = scheduler.schedule(noisy_tree)
                # plan on noisy, pay on true
                true_cost = evaluate(tree, noisy_schedule, eval_rng)
                if exact_cost > 0:
                    regrets.append(true_cost / exact_cost - 1.0)
                else:
                    regrets.append(0.0)
            regrets_arr = np.asarray(regrets)
            points.append(
                SensitivityPoint(
                    heuristic=name,
                    epsilon=float(epsilon),
                    mean_regret=float(regrets_arr.mean()),
                    worst_regret=float(regrets_arr.max()),
                    n_instances=len(trees),
                )
            )
    return points
