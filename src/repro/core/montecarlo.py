"""Monte-Carlo estimation of schedule costs.

An independent line of validation for the analytic evaluators: sample leaf
outcomes, *simulate* the short-circuited execution with the shared item
cache, and average the incurred acquisition costs. The simulation is one
:func:`repro.engine.battery.run_battery` of independent trials on the
vectorized trial engine, so a seed fully determines the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.tree import AndTree, DnfTree, QueryTree

__all__ = ["MonteCarloResult", "monte_carlo_cost"]


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    """Summary statistics of a Monte-Carlo cost estimation run."""

    mean: float
    std_error: float
    n_samples: int

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the expected cost."""
        half = 1.96 * self.std_error
        return (self.mean - half, self.mean + half)

    def compatible_with(self, expected: float, *, z: float = 4.0) -> bool:
        """True when ``expected`` lies within ``z`` standard errors of the mean."""
        if self.std_error == 0.0:
            return math.isclose(self.mean, expected, rel_tol=1e-9, abs_tol=1e-9)
        return abs(self.mean - expected) <= z * self.std_error


def monte_carlo_cost(
    tree: Union[QueryTree, AndTree, DnfTree],
    schedule: Sequence[int],
    *,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> MonteCarloResult:
    """Estimate the expected cost of ``schedule`` by simulated execution."""
    # Lazy import: the engine layer builds on core, not the reverse.
    from repro.engine.battery import run_battery

    battery = run_battery(tree, schedule, n_samples, rng=rng, seed=seed)
    return MonteCarloResult(
        mean=battery.mean_cost, std_error=battery.std_error, n_samples=n_samples
    )
