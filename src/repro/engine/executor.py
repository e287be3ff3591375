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

    #: Whether :meth:`outcome` reads ``values``. A round skips reading the
    #: window for an oracle that does not, and passes ``None``.
    reads_window = True

    @abc.abstractmethod
    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        """Truth value of leaf ``gindex``; ``values`` is its fetched window (may be None)."""

    def tape_width(self) -> int | None:
        """How many leaves :meth:`tape` covers, or ``None`` without a tape.

        An oracle whose outcomes depend only on the leaf and its own round
        clock (``round_index``) can hand them over as an outcome *tape*, and
        a round then reads them in bulk instead of calling :meth:`outcome`
        per probe. Such an oracle's clock moves by :meth:`advance`, and a
        round program may keep it in an array of its own
        (:meth:`bind_clock`), where it ticks with every other resident's.
        """
        return None

    def tape(self) -> tuple[bytes, int, int, int]:
        """The outcomes of the current round onward, as ``(bits, first, end, stride)``.

        ``bits`` holds one byte per leaf and round (1 = TRUE) for rounds
        ``first`` to ``end`` (exclusive), ``stride`` bytes per round: leaf
        ``g`` at round ``r`` is ``bits[(r - first) * stride + g]``. It moves
        the oracle exactly as an :meth:`outcome` call in the current round
        would.
        """
        raise NotImplementedError(f"{type(self).__name__} has no outcome tape")

    def advance(self, rounds: int = 1) -> None:
        """Move a tape oracle's round clock forward by ``rounds`` rounds."""
        raise NotImplementedError(f"{type(self).__name__} has no round clock")

    @property
    def clock_bound(self) -> bool:
        """Whether the oracle's round lives in a bound clock array."""
        return False

    def bind_clock(self, clock: np.ndarray | None, slot: int = 0) -> None:
        """Keep a tape oracle's round in ``clock[slot]`` from now on.

        The current round is written there first, and whoever ticks
        ``clock`` moves this oracle's round. ``None`` moves the round back
        into the oracle.
        """
        raise NotImplementedError(f"{type(self).__name__} has no round clock")


class BernoulliOracle(LeafOracle):
    """Independent draws from each leaf's success probability."""

    reads_window = False

    def __init__(self, rng: np.random.Generator | None = None, seed: int | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        return bool(self.rng.random() < leaf.prob)


#: Rounds of outcome tape a :class:`DriftingBernoulliOracle` draws at once.
_TAPE_BLOCK = 16


class DriftingBernoulliOracle(LeafOracle):
    """Draws from a :class:`~repro.streams.drift.DriftSchedule` instead of leaf probs.

    The ground truth of an adaptivity scenario: the leaf's *declared*
    probability (what the scheduler planned for) stays at its admission
    value, while the outcomes this oracle produces follow
    ``schedule.probs_at(round)`` — so a plan goes stale exactly the way a
    production plan would.

    Round ``r`` reads row ``r`` of one ``rng.random((rounds, n_leaves))``
    tape, so the random-stream consumption is independent of which leaves a
    plan probes: any plan (and any placement of the query) sees
    bit-identical outcomes per seed. The oracle reads the tape a block of
    rounds at a time, which draws the same doubles as one-row draws, and
    compares the block once with the probabilities of the rounds it covers
    (row ``r`` with ``schedule.probs_at(r)``).

    The round clock (``round_index``) moves only forward: by
    :meth:`advance`, or, while a round program has bound it
    (:meth:`bind_clock`), by the program's tick of its whole clock array,
    which the serving layer runs after every executed round. The tape, its
    position and the round pickle with the oracle (a copy is unbound), so a
    migrated query continues the same outcomes.

    Leaf outcomes are keyed by *global leaf index in one query's tree*, and
    each oracle owns its generator, seeded by ``seed``: a drifting oracle is
    per-query, and sharing one instance between queries means sharing
    outcome rows (perfectly correlated queries).
    """

    reads_window = False

    def __init__(self, schedule: DriftSchedule, seed: int | None = None) -> None:
        self.schedule = schedule
        self.rng = np.random.default_rng(seed)
        self._n_leaves = schedule.n_leaves
        self._static = schedule.is_static
        # The round: in _round, or in _clock[_slot] while a clock is bound.
        self._round = 0
        self._clock: np.ndarray | None = None
        self._slot = 0
        # Rows [_start, _end) of the tape are drawn, as bytes (1 = TRUE).
        self._start = 0
        self._end = 0
        self._block: bytes | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.update(_round=self.round_index, _clock=None, _slot=0)
        return state

    @property
    def round_index(self) -> int:
        """The round the next ``outcome`` call draws for."""
        clock = self._clock
        return self._round if clock is None else int(clock[self._slot])

    @property
    def clock_bound(self) -> bool:
        return self._clock is not None

    def bind_clock(self, clock: np.ndarray | None, slot: int = 0) -> None:
        round_index = self.round_index
        if clock is None:
            self._round = round_index
        else:
            clock[slot] = round_index
        self._clock, self._slot = clock, slot

    @property
    def _bits(self) -> bytes | None:
        """The drawn block, or ``None`` once the clock has left it."""
        return self._block if self.round_index < self._end else None

    @property
    def _offset(self) -> int:
        """Where the current round's outcomes start in the block."""
        return (self.round_index - self._start) * self._n_leaves

    def current_probs(self) -> np.ndarray:
        """True per-leaf success probabilities at the current round."""
        return self.schedule.probs_at(self.round_index)

    def outcome(self, gindex: int, leaf: Leaf, values: np.ndarray | None) -> bool:
        if not 0 <= gindex < self._n_leaves:
            raise StreamError(
                f"drift schedule covers {self._n_leaves} leaves; "
                f"leaf {gindex} was probed"
            )
        now = self.round_index
        bits = self._block if now < self._end else self._read(now)
        return bits[(now - self._start) * self._n_leaves + gindex] == 1

    def tape_width(self) -> int:
        return self._n_leaves

    def tape(self) -> tuple[bytes, int, int, int]:
        now = self.round_index
        bits = self._block if now < self._end else self._read(now)
        # The block's outcomes, one row per round until the block ends.
        return bits, self._start, self._end, self._n_leaves

    def _read(self, now: int) -> bytes:
        """Draw the tape block that starts at round ``now``; its outcomes."""
        n = self._n_leaves
        # Rounds between the last block and this one that no probe read
        # still consume their rows of the generator.
        skipped = now - self._end
        while skipped:
            rows = min(skipped, _TAPE_BLOCK)
            self.rng.random((rows, n))
            skipped -= rows
        block = self.rng.random((_TAPE_BLOCK, n))
        self._start = now
        self._end = now + _TAPE_BLOCK
        if self._static:
            probs = self.schedule.probs_at(0)
        else:
            probs = np.array([self.schedule.probs_at(r) for r in range(now, self._end)])
        bits = self._block = (block < probs).tobytes()
        return bits

    def advance(self, rounds: int = 1) -> None:
        """Move the drift clock forward by ``rounds`` rounds.

        The next ``outcome`` call reads the new round's row of the tape.
        Rounds no probe read still consume their rows of the generator, so
        the tape stays aligned one row per round however many probes each
        round needed.
        """
        if rounds < 0:
            raise StreamError(f"cannot advance by {rounds} rounds")
        if self._clock is None:
            self._round += rounds
        else:
            self._clock[self._slot] += rounds


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

    reads_window = False

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
