"""The adaptive serving state machine consulted by :class:`QueryServer`.

One :class:`AdaptiveController` instance serves one server. It tracks, per
*canonical* query shape:

* the baseline probabilities the current plan was computed with (admission
  estimates at first, the re-planned estimates afterwards);
* a pooled :class:`~repro.adaptive.tracker.SelectivityTracker` posterior per
  canonical leaf, fed by every registered isomorph's probe outcomes;
* re-plan bookkeeping (cooldown clock, audit log).

Folded duplicate leaves (a canonical leaf covering ``k`` identical original
leaves, with probability ``p**k``) are handled at the *base* level: the
tracker pools the original leaves' outcomes to estimate ``p``, and the
controller folds the estimate back to ``p**k`` when proposing plan
probabilities — consistent with how
:func:`~repro.service.canonical.canonicalize` built the pseudo-leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.adaptive.policy import AdaptivePolicy, ReplanEvent
from repro.adaptive.tracker import LeafPosterior, SelectivityTracker
from repro.errors import StreamError

__all__ = ["AdaptiveController", "ShapeBelief", "fold_base_probs"]

#: Clip proposed plan probabilities into the open interval the ratio
#: schedulers require (they divide by both ``p`` and ``1 - p``).
_PROB_FLOOR = 1e-6


def _clip(prob: float) -> float:
    return min(max(prob, _PROB_FLOOR), 1.0 - _PROB_FLOOR)


def fold_base_probs(
    base_probs: Sequence[float], fold_sizes: Sequence[int]
) -> tuple[float, ...]:
    """Fold per-copy probabilities to canonical-leaf probabilities (``p**k``).

    Mirrors duplicate-leaf folding in
    :func:`~repro.service.canonical.canonicalize`; results are clipped
    strictly inside (0, 1) for the ratio schedulers.
    """
    if len(base_probs) != len(fold_sizes):
        raise StreamError(
            f"got {len(base_probs)} probabilities for {len(fold_sizes)} canonical leaves"
        )
    return tuple(_clip(float(p) ** int(k)) for p, k in zip(base_probs, fold_sizes))


@dataclass(frozen=True)
class ShapeBelief:
    """One canonical shape's adaptive state, lifted out for transplant.

    What a query migration must carry so the destination server keeps
    serving the shape on the belief the source built up: the baseline
    probabilities the current plan assumed, the duplicate-fold sizes, the
    re-plan cooldown clock and an independent copy of every per-leaf
    posterior. Produced by :meth:`AdaptiveController.export_shape`, consumed
    by :meth:`AdaptiveController.import_shape`.
    """

    baseline: tuple[float, ...]
    fold_sizes: tuple[int, ...]
    last_replan: int | None
    posteriors: tuple[LeafPosterior | None, ...]


class AdaptiveController:
    """Per-canonical-shape drift detection and re-plan proposals."""

    def __init__(self, policy: AdaptivePolicy | None = None) -> None:
        self.policy = policy if policy is not None else AdaptivePolicy()
        self.tracker = SelectivityTracker(
            window=self.policy.window, prior=self.policy.prior
        )
        #: canonical key -> per-canonical-leaf *base* probability the current
        #: plan assumed (for a folded leaf, the per-copy probability).
        self._baseline: dict[str, tuple[float, ...]] = {}
        #: canonical key -> duplicate-fold multiplicity per canonical leaf.
        self._fold: dict[str, tuple[int, ...]] = {}
        self._last_replan: dict[str, int] = {}
        self.events: list[ReplanEvent] = []

    # -- population lifecycle -------------------------------------------

    def admit(
        self, key: str, base_probs: Sequence[float], fold_sizes: Sequence[int]
    ) -> None:
        """Register a canonical shape's plan assumptions (idempotent per key)."""
        if key in self._baseline:
            return
        base_probs = tuple(float(p) for p in base_probs)
        fold_sizes = tuple(int(k) for k in fold_sizes)
        if len(base_probs) != len(fold_sizes):
            raise StreamError(
                f"baseline covers {len(base_probs)} leaves but fold sizes cover "
                f"{len(fold_sizes)}"
            )
        self._baseline[key] = base_probs
        self._fold[key] = fold_sizes

    def retire(self, key: str) -> None:
        """Forget a canonical shape (last isomorph deregistered)."""
        baseline = self._baseline.pop(key, None)
        self._fold.pop(key, None)
        self._last_replan.pop(key, None)
        if baseline is not None:
            for gindex in range(len(baseline)):
                self.tracker.drop((key, gindex))

    def tracked_keys(self) -> tuple[str, ...]:
        return tuple(self._baseline)

    def export_shape(self, key: str) -> ShapeBelief | None:
        """Snapshot ``key``'s belief for migration (``None`` when untracked).

        The posteriors are cloned, so exporting does not entangle the source
        tracker with the destination when isomorphs of the shape remain
        registered here.
        """
        baseline = self._baseline.get(key)
        if baseline is None:
            return None
        return ShapeBelief(
            baseline=baseline,
            fold_sizes=self._fold[key],
            last_replan=self._last_replan.get(key),
            posteriors=tuple(
                posterior.clone() if posterior is not None else None
                for posterior in (
                    self.tracker.get((key, gindex)) for gindex in range(len(baseline))
                )
            ),
        )

    def import_shape(self, key: str, belief: ShapeBelief) -> bool:
        """Adopt a migrated shape's belief; returns False when already tracked.

        A shape this controller already tracks keeps its own state — the
        resident isomorphs' pooled evidence outranks a transplanted copy.
        """
        if key in self._baseline:
            return False
        self._baseline[key] = tuple(float(p) for p in belief.baseline)
        self._fold[key] = tuple(int(k) for k in belief.fold_sizes)
        if belief.last_replan is not None:
            self._last_replan[key] = belief.last_replan
        for gindex, posterior in enumerate(belief.posteriors):
            if posterior is not None:
                self.tracker.adopt((key, gindex), posterior)
        return True

    def baseline(self, key: str) -> tuple[float, ...]:
        try:
            return self._baseline[key]
        except KeyError:
            raise StreamError(f"canonical key {key!r} was never admitted") from None

    # -- observation -----------------------------------------------------

    def observe(self, key: str, canonical_gindex: int, outcome: bool) -> None:
        """Fold one evaluated probe's outcome into the shape's posterior."""
        self.tracker.observe((key, canonical_gindex), outcome)

    # -- drift detection -------------------------------------------------

    def in_cooldown(self, key: str, round_index: int) -> bool:
        last = self._last_replan.get(key)
        return last is not None and round_index - last < self.policy.cooldown

    def drifted_leaves(self, key: str) -> tuple[int, ...]:
        """Canonical leaves whose windowed posterior left the plan's assumption.

        A leaf counts as drifted only with at least ``min_samples`` window
        observations *and* a divergence beyond ``threshold``.
        """
        baseline = self.baseline(key)
        drifted: list[int] = []
        for gindex, assumed in enumerate(baseline):
            posterior = self.tracker.get((key, gindex))
            if posterior is None or posterior.window_trials < self.policy.min_samples:
                continue
            if posterior.divergence(assumed) > self.policy.threshold:
                drifted.append(gindex)
        return tuple(drifted)

    def should_replan(self, key: str, round_index: int) -> tuple[int, ...]:
        """Drifted leaves of ``key`` if a re-plan is due now, else ``()``."""
        if self.in_cooldown(key, round_index):
            return ()
        return self.drifted_leaves(key)

    # -- re-plan proposals -----------------------------------------------

    def proposed_base_probs(self, key: str) -> tuple[float, ...]:
        """Updated per-copy probability per canonical leaf.

        Observed leaves take their windowed posterior mean; unobserved leaves
        keep the plan's assumption. Estimates are clipped strictly inside
        (0, 1) for the ratio schedulers.
        """
        return tuple(
            _clip(self.tracker.estimate((key, gindex), default=assumed))
            for gindex, assumed in enumerate(self.baseline(key))
        )

    def fold_probs(self, key: str, base_probs: Sequence[float]) -> tuple[float, ...]:
        """Fold per-copy probabilities of ``key`` to canonical-leaf probabilities."""
        return fold_base_probs(base_probs, self._fold[key])

    def rebase(
        self, key: str, round_index: int, new_base_probs: Sequence[float]
    ) -> None:
        """Adopt a new plan's probabilities as the drift baseline.

        Resets the shape's posterior windows so the next drift decision is
        made from evidence gathered *under the new plan*, and starts the
        cooldown clock.
        """
        baseline = self.baseline(key)
        new_base_probs = tuple(float(p) for p in new_base_probs)
        if len(new_base_probs) != len(baseline):
            raise StreamError(
                f"rebase covers {len(new_base_probs)} leaves, baseline has "
                f"{len(baseline)}"
            )
        self._baseline[key] = new_base_probs
        self._last_replan[key] = round_index
        for gindex in range(len(new_base_probs)):
            posterior = self.tracker.get((key, gindex))
            if posterior is not None:
                posterior.reset_window()

    def record_event(self, event: ReplanEvent) -> None:
        self.events.append(event)

    @property
    def replans(self) -> int:
        return len(self.events)
