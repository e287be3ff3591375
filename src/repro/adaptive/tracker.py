"""Online per-leaf selectivity estimation from observed probe outcomes.

Every probe the execution engine actually evaluates is a Bernoulli sample of
its leaf's *current* success probability. :class:`LeafPosterior` maintains a
Beta posterior over those samples twice: once over the leaf's lifetime (the
long-run estimate) and once over a bounded sliding window (the drift
detector's view — old evidence ages out, so a regime change shows up within
one window instead of being averaged away by history).

:class:`SelectivityTracker` is a keyed collection of posteriors. The serving
layer keys it by ``(canonical key, canonical leaf index)`` so observations
pool across every isomorphic registered query — the more users share a query
shape, the faster its drift is detected ("pay one, get hundreds" applied to
evidence instead of data items).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator

from repro.errors import StreamError
from repro.streams.traces import estimate_probability

__all__ = ["LeafPosterior", "SelectivityTracker"]


class LeafPosterior:
    """Beta-posterior selectivity estimate with a sliding drift window.

    Parameters
    ----------
    window:
        Number of most recent outcomes the drift detector considers.
    prior:
        Beta prior ``(alpha, beta)``; the default Laplace prior keeps
        estimates strictly inside (0, 1), as the ratio schedulers require.
    """

    __slots__ = ("window", "prior", "_recent", "_recent_successes", "trials", "successes")

    def __init__(self, window: int = 256, prior: tuple[float, float] = (1.0, 1.0)) -> None:
        if window < 1:
            raise StreamError(f"posterior window must be >= 1, got {window}")
        alpha, beta = prior
        if alpha <= 0.0 or beta <= 0.0:
            raise StreamError(f"Beta prior must be positive, got {prior}")
        self.window = int(window)
        self.prior = (float(alpha), float(beta))
        self._recent: deque[bool] = deque(maxlen=self.window)
        self._recent_successes = 0
        self.trials = 0
        self.successes = 0

    def observe(self, outcome: bool) -> None:
        """Fold one probe outcome into both the lifetime and window counts."""
        outcome = bool(outcome)
        if len(self._recent) == self.window:
            if self._recent[0]:
                self._recent_successes -= 1
        self._recent.append(outcome)
        if outcome:
            self._recent_successes += 1
            self.successes += 1
        self.trials += 1

    @property
    def window_trials(self) -> int:
        return len(self._recent)

    @property
    def window_successes(self) -> int:
        return self._recent_successes

    @property
    def mean(self) -> float:
        """Lifetime Beta-posterior mean."""
        return estimate_probability(self.successes, self.trials, prior=self.prior)

    @property
    def window_mean(self) -> float:
        """Posterior mean over the sliding window only (the drift signal)."""
        return estimate_probability(
            self._recent_successes, len(self._recent), prior=self.prior
        )

    def divergence(self, reference: float) -> float:
        """Absolute gap between the window estimate and ``reference``."""
        return abs(self.window_mean - float(reference))

    def reset_window(self) -> None:
        """Drop the sliding window (lifetime counts are retained).

        Called after a re-plan so drift is measured against the *new* plan's
        probabilities from fresh evidence, not against evidence that already
        triggered a re-plan.
        """
        self._recent.clear()
        self._recent_successes = 0

    def clone(self) -> "LeafPosterior":
        """An independent copy (same evidence, separately mutable).

        Shard migration transplants posteriors between servers; a clone keeps
        the source and destination trackers from sharing mutable state when
        isomorphs of the same shape stay behind.
        """
        copy = LeafPosterior(window=self.window, prior=self.prior)
        copy._recent.extend(self._recent)
        copy._recent_successes = self._recent_successes
        copy.trials = self.trials
        copy.successes = self.successes
        return copy

    def __repr__(self) -> str:
        return (
            f"LeafPosterior(mean={self.mean:.3f}, window_mean={self.window_mean:.3f}, "
            f"trials={self.trials}, window={self.window_trials}/{self.window})"
        )


class SelectivityTracker:
    """Keyed collection of :class:`LeafPosterior` estimators."""

    def __init__(self, window: int = 256, prior: tuple[float, float] = (1.0, 1.0)) -> None:
        self.window = window
        self.prior = prior
        self._posteriors: dict[Hashable, LeafPosterior] = {}

    def __len__(self) -> int:
        return len(self._posteriors)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._posteriors

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._posteriors)

    def posterior(self, key: Hashable) -> LeafPosterior:
        """The (auto-created) posterior for ``key``."""
        posterior = self._posteriors.get(key)
        if posterior is None:
            posterior = LeafPosterior(window=self.window, prior=self.prior)
            self._posteriors[key] = posterior
        return posterior

    def get(self, key: Hashable) -> LeafPosterior | None:
        return self._posteriors.get(key)

    def observe(self, key: Hashable, outcome: bool) -> None:
        self.posterior(key).observe(outcome)

    def estimate(self, key: Hashable, default: float) -> float:
        """Window-posterior estimate for ``key``; ``default`` when unobserved."""
        posterior = self._posteriors.get(key)
        if posterior is None or posterior.window_trials == 0:
            return float(default)
        return posterior.window_mean

    def drop(self, key: Hashable) -> None:
        self._posteriors.pop(key, None)

    def adopt(self, key: Hashable, posterior: LeafPosterior) -> None:
        """Install a transplanted posterior for ``key`` (no-op if tracked).

        An existing posterior wins: it already pools the local isomorphs'
        evidence, which a migrated copy would clobber.
        """
        if key not in self._posteriors:
            self._posteriors[key] = posterior

    def snapshot(self) -> dict[Hashable, tuple[float, int]]:
        """``key -> (window_mean, window_trials)`` for metrics export."""
        return {
            key: (posterior.window_mean, posterior.window_trials)
            for key, posterior in self._posteriors.items()
        }
