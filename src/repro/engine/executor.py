"""Pull-model schedule execution.

:class:`ScheduleExecutor` runs a linear schedule against a cache, with the
paper's semantics: evaluate leaves in order, skip any leaf whose AND (or any
ancestor) is already resolved, stop when the root resolves, and charge only
for data items not already cached.

Leaf truth values come from a :class:`LeafOracle`:

* :class:`BernoulliOracle` — draw each outcome from the leaf's probability
  (pure simulation; measured mean cost converges to the analytic expected
  cost, which the test-suite verifies);
* :class:`PredicateOracle` — evaluate a real
  :class:`~repro.predicates.predicate.Predicate` on the fetched window
  values (the full data path; probabilities are emergent from the data);
* :class:`PrecomputedOracle` — replay a fixed outcome per leaf (one row of
  a drawn outcome matrix). This is the scalar reference point of the
  vectorized engine's equivalence guarantee: a
  :class:`~repro.engine.vectorized.VectorizedExecutor` batch equals N
  scalar runs, each replaying one row of the same matrix.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from repro.core.leaf import Leaf
from repro.core.resolution import TreeIndex
from repro.core.schedule import validate_schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import StreamError
from repro.predicates.predicate import Predicate
from repro.streams.cache import CountingCache, DataItemCache
from repro.streams.drift import DriftSchedule

__all__ = [
    "ExecutionResult",
    "LeafOracle",
    "BernoulliOracle",
    "DriftingBernoulliOracle",
    "PredicateOracle",
    "PrecomputedOracle",
    "ScheduleExecutor",
]


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of one query execution."""

    value: bool
    cost: float
    evaluated: tuple[int, ...]
    skipped: tuple[int, ...]
    outcomes: Mapping[int, bool] = field(default_factory=dict)

    @property
    def n_evaluated(self) -> int:
        return len(self.evaluated)


class LeafOracle(abc.ABC):
    """Supplies the truth value of an evaluated leaf."""

    @abc.abstractmethod
    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        """Truth value of leaf ``gindex``; ``values`` is its fetched window (may be None)."""


class BernoulliOracle(LeafOracle):
    """Independent draws from each leaf's success probability."""

    def __init__(self, rng: np.random.Generator | None = None, seed: int | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        return bool(self.rng.random() < leaf.prob)


class DriftingBernoulliOracle(LeafOracle):
    """Draws from a :class:`~repro.streams.drift.DriftSchedule` instead of leaf probs.

    The ground truth of an adaptivity scenario: the leaf's *declared*
    probability (what the scheduler planned for) stays at its admission
    value, while the outcomes this oracle produces follow
    ``schedule.probs_at(round)`` — so a plan goes stale exactly the way a
    production plan would.

    The oracle draws one full row of outcomes per round (lazily, at the first
    ``outcome`` call of the round) and the per-round clock advances only via
    :meth:`advance`, which the serving layer calls after every executed
    round. Drawing whole rows makes the random-stream consumption
    independent of which leaves a plan probes: round ``r`` always reads row
    ``r`` of one ``rng.random((rounds, n_leaves))`` tape, so any plan (and
    any placement of the query) sees bit-identical outcomes per seed.

    Leaf outcomes are keyed by *global leaf index in one query's tree*, so a
    drifting oracle is per-query: sharing one instance between queries means
    sharing outcome rows (perfectly correlated queries).
    """

    def __init__(
        self,
        schedule: DriftSchedule,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> None:
        self.schedule = schedule
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._round = 0
        self._row: np.ndarray | None = None
        self._n_leaves = schedule.n_leaves
        # A static schedule's probabilities are the same every round.
        self._static_probs: np.ndarray | None = None
        if schedule.is_static:
            self._static_probs = schedule.probs_at(0)
            self._static_probs.flags.writeable = False

    @property
    def round_index(self) -> int:
        """The round the next ``outcome`` call draws for."""
        return self._round

    def current_probs(self) -> np.ndarray:
        """True per-leaf success probabilities at the current round."""
        return self.schedule.probs_at(self._round)

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        if gindex >= self._n_leaves:
            raise StreamError(
                f"drift schedule covers {self._n_leaves} leaves; "
                f"leaf {gindex} was probed"
            )
        if self._row is None:
            probs = self._static_probs
            if probs is None:
                probs = self.current_probs()
            self._row = self.rng.random(self._n_leaves) < probs
        return bool(self._row[gindex])

    def advance(self, rounds: int = 1) -> None:
        """Move the drift clock forward; the next round re-draws its outcome row.

        Rounds whose row was never drawn (no leaf probed) still consume their
        slice of the generator, keeping the random tape aligned one row per
        round regardless of how many probes each round needed.
        """
        if rounds < 0:
            raise StreamError(f"cannot advance by {rounds} rounds")
        for _ in range(rounds):
            if self._row is None:
                self.rng.random(self._n_leaves)
            self._row = None
            self._round += 1


class PredicateOracle(LeafOracle):
    """Evaluate real predicates on the fetched window values."""

    def __init__(self, predicates: Mapping[int, Predicate]) -> None:
        self.predicates = dict(predicates)

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        predicate = self.predicates.get(gindex)
        if predicate is None:
            raise StreamError(f"no predicate bound to leaf {gindex}")
        if values is None:
            raise StreamError(
                "PredicateOracle needs data values; use a DataItemCache, not a CountingCache"
            )
        return predicate.evaluate(values)


class PrecomputedOracle(LeafOracle):
    """Replay fixed truth values, one per global leaf index.

    ``outcomes`` may be any indexable of booleans keyed by ``gindex`` — a
    dict, a list, or one row of an ``(n_trials, n_leaves)`` outcome matrix.
    Unlike :class:`BernoulliOracle` it consumes no randomness, so the same
    row always reproduces the same execution.
    """

    def __init__(self, outcomes) -> None:
        self.outcomes = outcomes

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        return bool(self.outcomes[gindex])


class ScheduleExecutor:
    """Executes linear schedules on a tree with short-circuiting and caching."""

    def __init__(
        self,
        tree: Union[QueryTree, AndTree, DnfTree],
        cache: Union[DataItemCache, CountingCache],
        oracle: LeafOracle,
    ) -> None:
        self.tree = tree
        self.cache = cache
        self.oracle = oracle
        self._index = TreeIndex(tree)
        self._leaves = self._index.tree.leaves

    def run(self, schedule) -> ExecutionResult:
        """Execute one query evaluation along ``schedule``."""
        schedule = validate_schedule(self.tree, schedule)
        state = self._index.new_state()
        cost = 0.0
        evaluated: list[int] = []
        skipped: list[int] = []
        outcomes: dict[int, bool] = {}
        for g in schedule:
            if state.root_value is not None or state.is_skipped(g):
                skipped.append(g)
                continue
            leaf = self._leaves[g]
            fetch = self.cache.fetch_window(leaf.stream, leaf.items)
            cost += fetch.cost
            outcome = self.oracle.outcome(g, leaf, fetch.values)
            outcomes[g] = outcome
            evaluated.append(g)
            state.set_leaf(g, outcome)
        value = state.root_value
        assert value is not None, "a full schedule always resolves the root"
        return ExecutionResult(
            value=value,
            cost=cost,
            evaluated=tuple(evaluated),
            skipped=tuple(skipped),
            outcomes=outcomes,
        )
