"""Adaptivity knobs and the re-plan audit record.

:class:`AdaptivePolicy` is the value object users hand to
``QueryServer(adaptive=...)``; it is pure configuration (no state), so one
policy can parameterize many servers. :class:`ReplanEvent` records one
re-planning decision — enough to audit *why* the server changed a plan and
*what* it changed it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schedule import Schedule
from repro.errors import StreamError

__all__ = ["AdaptivePolicy", "ReplanEvent"]


@dataclass(frozen=True)
class AdaptivePolicy:
    """Configuration of the adaptive serving loop.

    Parameters
    ----------
    window:
        Sliding-window size of the per-leaf posteriors; the drift detector
        compares this window's posterior mean against the probability the
        current plan assumed.
    threshold:
        Absolute divergence that counts as drift (e.g. ``0.15`` — the leaf's
        observed selectivity moved more than 15 points away from the plan's
        assumption).
    min_samples:
        Minimum window observations of a leaf before it may be declared
        drifted (guards against noise triggering re-plans).
    cooldown:
        Minimum rounds between two re-plans of the same canonical query
        shape (plan stability / thrash guard).
    prior:
        Beta prior of the posteriors; the default Laplace prior keeps
        estimates strictly inside (0, 1).
    min_saving:
        Re-plan hysteresis: a drift-triggered re-plan is *suppressed* when
        its :attr:`ReplanEvent.expected_saving` (per-round expected cost the
        new schedule saves under the new probabilities) falls below this
        threshold — the drifted probabilities are adopted as the new belief
        baseline, but the schedule swap is skipped as not worth the churn.
        ``0.0`` (default) disables hysteresis; forced re-plans always apply.
    """

    window: int = 128
    threshold: float = 0.15
    min_samples: int = 24
    cooldown: int = 16
    prior: tuple[float, float] = (1.0, 1.0)
    min_saving: float = 0.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise StreamError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.threshold < 1.0:
            raise StreamError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.min_samples < 1:
            raise StreamError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.min_samples > self.window:
            raise StreamError(
                f"min_samples ({self.min_samples}) cannot exceed the window "
                f"({self.window}); the window would never hold enough evidence"
            )
        if self.cooldown < 0:
            raise StreamError(f"cooldown must be >= 0, got {self.cooldown}")
        alpha, beta = self.prior
        if alpha <= 0.0 or beta <= 0.0:
            raise StreamError(f"Beta prior must be positive, got {self.prior}")
        if self.min_saving < 0.0:
            raise StreamError(f"min_saving must be >= 0, got {self.min_saving}")


@dataclass(frozen=True)
class ReplanEvent:
    """One re-planning decision taken by the serving layer."""

    round_index: int
    canonical_key: str
    #: Canonical leaf indices whose posterior diverged past the threshold
    #: (empty for forced/oracle re-plans).
    drifted_leaves: tuple[int, ...]
    #: Probabilities the outgoing plan assumed, per canonical leaf.
    old_probs: tuple[float, ...]
    #: Probabilities the new plan was computed with, per canonical leaf.
    new_probs: tuple[float, ...]
    old_schedule: Schedule
    new_schedule: Schedule
    #: Expected cost of the outgoing schedule *under the new probabilities*.
    old_cost: float
    #: Expected cost of the new schedule under the new probabilities.
    new_cost: float
    #: Plan-cache entries dropped by the re-plan.
    invalidated: int
    #: Registered queries whose expanded schedule was rebuilt.
    queries: tuple[str, ...] = field(default_factory=tuple)
    #: "drift" for detector-triggered re-plans, "forced" for explicit ones.
    reason: str = "drift"

    @property
    def schedule_changed(self) -> bool:
        return self.old_schedule != self.new_schedule

    @property
    def expected_saving(self) -> float:
        """Per-round expected cost the new schedule saves, under new probs."""
        return self.old_cost - self.new_cost

    def describe(self) -> str:
        moved = ", ".join(
            f"leaf {g}: {self.old_probs[g]:.3f}->{self.new_probs[g]:.3f}"
            for g in self.drifted_leaves
        )
        return (
            f"round {self.round_index}: replan {self.canonical_key[:12]} "
            f"({self.reason}; {moved or 'forced'}) "
            f"cost {self.old_cost:.4g} -> {self.new_cost:.4g} "
            f"across {len(self.queries)} queries"
        )
