"""Time-varying leaf selectivities: drift schedules and drifting sources.

The paper treats each leaf's success probability ``p_j`` as a static number
"estimated based on historical traces". A production server sees the
opposite: selectivities *drift* — a heart-rate predicate that almost never
fired during sleep fires constantly during a workout. This module provides
the ground-truth side of that story:

* :class:`DriftSchedule` — a piecewise trajectory of per-leaf success
  probabilities over device rounds, built from :class:`StepDrift` (an abrupt
  regime change at a round) and :class:`RampDrift` (a linear glide between
  two rounds) changes;
* :class:`DriftingSource` — a 0/1-valued :class:`~repro.streams.sources.Source`
  whose emission probability follows a single-probability drift trajectory
  (for data-path scenarios where predicates threshold real values).

The engine-side consumer is
:class:`~repro.engine.executor.DriftingBernoulliOracle`, which draws leaf
outcomes from ``schedule.probs_at(round)`` instead of the (stale) admission
probabilities, and the serving-layer consumer is ``repro.adaptive``, which
estimates the drifted probabilities back from observed outcomes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import StreamError
from repro.streams.sources import Source

__all__ = ["StepDrift", "RampDrift", "DriftSchedule", "DriftingSource"]


def _validated_targets(targets: Mapping[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for gindex, prob in targets.items():
        gindex = int(gindex)
        prob = float(prob)
        if gindex < 0:
            raise StreamError(f"drift target leaf index must be >= 0, got {gindex}")
        if not 0.0 <= prob <= 1.0:
            raise StreamError(f"drift target probability must be in [0, 1], got {prob}")
        out[gindex] = prob
    if not out:
        raise StreamError("a drift change needs at least one target leaf")
    return out


@dataclass(frozen=True)
class StepDrift:
    """An abrupt regime change: targeted leaves jump to new probabilities.

    From round ``at`` (inclusive) onward, leaf ``g`` succeeds with probability
    ``targets[g]``; untargeted leaves are untouched.
    """

    at: int
    targets: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise StreamError(f"step round must be >= 0, got {self.at}")
        object.__setattr__(self, "targets", _validated_targets(self.targets))

    @property
    def start(self) -> int:
        return self.at

    def apply(self, probs: np.ndarray, round_index: int) -> np.ndarray:
        if round_index < self.at:
            return probs
        out = probs.copy()
        for gindex, prob in self.targets.items():
            out[gindex] = prob
        return out


@dataclass(frozen=True)
class RampDrift:
    """A linear glide: targeted leaves move to new probabilities over a window.

    Between rounds ``start`` (exclusive) and ``end`` (inclusive) each targeted
    leaf interpolates linearly from its incoming probability to ``targets[g]``;
    from ``end`` onward it sits at the target.
    """

    start: int
    end: int
    targets: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise StreamError(f"ramp start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise StreamError(
                f"ramp must end after it starts, got [{self.start}, {self.end}]"
            )
        object.__setattr__(self, "targets", _validated_targets(self.targets))

    def apply(self, probs: np.ndarray, round_index: int) -> np.ndarray:
        if round_index <= self.start:
            return probs
        fraction = min(1.0, (round_index - self.start) / (self.end - self.start))
        out = probs.copy()
        for gindex, prob in self.targets.items():
            out[gindex] = probs[gindex] + fraction * (prob - probs[gindex])
        return out


DriftChange = Union[StepDrift, RampDrift]


@dataclass(frozen=True)
class DriftSchedule:
    """Per-leaf success probabilities as a function of the device round.

    Parameters
    ----------
    base:
        Round-0 probability per global leaf index (usually the admission-time
        estimates, so round 0 matches what the scheduler planned for).
    changes:
        Step/ramp changes, applied in sequence: each change sees the
        probabilities produced by the previous ones, so a ramp scheduled
        after a step glides away from the stepped value.
    """

    base: tuple[float, ...]
    changes: tuple[DriftChange, ...] = field(default_factory=tuple)

    def __init__(
        self, base: Sequence[float], changes: Sequence[DriftChange] = ()
    ) -> None:
        base = tuple(float(p) for p in base)
        if not base:
            raise StreamError("a drift schedule needs at least one leaf")
        for prob in base:
            if not 0.0 <= prob <= 1.0:
                raise StreamError(f"base probability must be in [0, 1], got {prob}")
        changes = tuple(changes)
        for change in changes:
            if not isinstance(change, (StepDrift, RampDrift)):
                raise StreamError(
                    f"drift changes must be StepDrift or RampDrift, got {type(change).__name__}"
                )
            if max(change.targets) >= len(base):
                raise StreamError(
                    f"drift change targets leaf {max(change.targets)}, but the "
                    f"schedule covers only {len(base)} leaves"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "changes", changes)

    @property
    def n_leaves(self) -> int:
        return len(self.base)

    @property
    def is_static(self) -> bool:
        return not self.changes

    def probs_at(self, round_index: int) -> np.ndarray:
        """The true per-leaf success probabilities at ``round_index``."""
        if round_index < 0:
            raise StreamError(f"round index must be >= 0, got {round_index}")
        probs = np.asarray(self.base, dtype=float)
        for change in self.changes:
            probs = change.apply(probs, round_index)
        return probs

    def settled_after(self) -> int:
        """First round from which the trajectory no longer changes."""
        latest = 0
        for change in self.changes:
            latest = max(latest, change.end if isinstance(change, RampDrift) else change.at)
        return latest


class DriftingSource(Source):
    """A 0/1 tape whose success probability follows a drift trajectory.

    Item ``tau`` is 1 with probability ``schedule.probs_at(tau)[0]`` — the
    schedule must cover exactly one "leaf", which here plays the role of the
    emission probability. Useful with threshold predicates (``LAST >= 1``)
    to exercise the full data path under drifting selectivity.
    """

    def __init__(self, schedule: DriftSchedule, seed: int | None = None) -> None:
        if schedule.n_leaves != 1:
            raise StreamError(
                f"a drifting source needs a single-probability schedule, "
                f"got {schedule.n_leaves} leaves"
            )
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self._values: list[float] = []
        self._extend_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Same contract as _SequentialSource: the lock is process-local, the
        # RNG + memoized prefix are the tape and travel intact.
        state = self.__dict__.copy()
        del state["_extend_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._extend_lock = threading.Lock()

    def window(self, end_tau: int, count: int) -> np.ndarray:
        """Extend once under the lock and slice (see ``Source.window``)."""
        start = end_tau - count + 1
        if start < 0:
            raise StreamError(
                f"window of {count} items ending at tau={end_tau} precedes the tape start"
            )
        if end_tau >= len(self._values):
            self.value_at(end_tau)
        return np.array(self._values[start : end_tau + 1])

    def value_at(self, tau: int) -> float:
        if tau < 0:
            raise StreamError(f"production index must be >= 0, got {tau}")
        # Locked like _SequentialSource: one drifting tape may back several
        # caches read from concurrent cluster shards, and each item must be
        # drawn with its *own* production index's probability.
        if tau >= len(self._values):
            with self._extend_lock:
                while len(self._values) <= tau:
                    produced = len(self._values)
                    prob = float(self.schedule.probs_at(produced)[0])
                    self._values.append(float(self._rng.random() < prob))
        return self._values[tau]
