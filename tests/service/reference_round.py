"""The original per-probe object walk of one serving round, kept as a test oracle.

Every probe re-checks its query's ``ResolutionState``, fetches its window
through ``cache.fetch_window`` and accounts itself through
:func:`record_probe`. The round kernel
:class:`repro.service.shared_plan.RoundProgram` must do exactly what this
does — the same ``ExecutionResult``s, the same ``RoundStats`` and the same
cache and oracle state afterwards.

The walk takes its probe order as ``(name, gindex)`` pairs: registration
order (every schedule back to back), a random :func:`interleave` that keeps
each query's own order, or the :func:`column_order` the kernel calls its
oracles in. Only a :class:`~repro.engine.executor.BernoulliOracle` shared by
several queries draws by call order, so for such a population the reference
is :func:`execute_drawn_round`: the outcomes are drawn in column order, then
charged in registration order. :func:`reference_rounds` serves whole
:class:`~repro.service.QueryServer` batches on this walk, so server-level
tests can compare the kernel's reports, ledger and telemetry against it.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import random
from typing import Iterator, Mapping, Sequence, Union
from unittest import mock

from repro.core.resolution import TreeIndex
from repro.core.schedule import Schedule
from repro.core.tree import DnfTree
from repro.engine.executor import (
    BernoulliOracle,
    DriftingBernoulliOracle,
    ExecutionResult,
    LeafOracle,
    PrecomputedOracle,
)
from repro.service.shared_plan import RoundStats
from repro.streams.cache import CountingCache, DataItemCache

#: One probe of a round: the query's name and a global leaf index of its tree.
ProbeOrder = Sequence[tuple[str, int]]


def record_probe(
    stats: RoundStats, slot: int, window_items: int, cost: float, fetched_items: int
) -> None:
    """Account one executed probe of the query in ``slot``, aggregate and per query."""
    stats.probes += 1
    stats.items_fetched += fetched_items
    stats.items_saved += window_items - fetched_items
    stats.query_cost[slot] += cost
    stats.query_probes[slot] += 1
    if fetched_items == 0:
        stats.free_probes += 1


def new_stats(n_queries: int) -> RoundStats:
    """An empty round record for ``n_queries`` residents."""
    return RoundStats(query_cost=[0.0] * n_queries, query_probes=[0] * n_queries)


def execute_round(
    order: ProbeOrder,
    indexes: Mapping[str, TreeIndex],
    cache: Union[DataItemCache, CountingCache],
    oracles: Mapping[str, LeafOracle],
) -> tuple[dict[str, ExecutionResult], RoundStats]:
    """Run one round of ``order`` with per-query early termination.

    Walks the probe order once; a probe is skipped for free when its
    query's root is already resolved (early termination) or the leaf's AND/OR
    ancestors short-circuited it away. Returns per-query
    :class:`~repro.engine.executor.ExecutionResult` (identical semantics to
    running each query through :class:`~repro.engine.executor.ScheduleExecutor`)
    plus the round's record, per query in ``indexes`` order.
    """
    slots = {name: slot for slot, name in enumerate(indexes)}
    states = {name: index.new_state() for name, index in indexes.items()}
    evaluated: dict[str, list[int]] = {name: [] for name in indexes}
    skipped: dict[str, list[int]] = {name: [] for name in indexes}
    outcomes: dict[str, dict[int, bool]] = {name: {} for name in indexes}
    stats = new_stats(len(indexes))
    for name, gindex in order:
        state = states[name]
        if state.root_value is not None or state.is_skipped(gindex):
            skipped[name].append(gindex)
            continue
        leaf = indexes[name].tree.leaves[gindex]
        fetch = cache.fetch_window(leaf.stream, leaf.items)
        outcome = oracles[name].outcome(gindex, leaf, fetch.values)
        outcomes[name][gindex] = outcome
        evaluated[name].append(gindex)
        state.set_leaf(gindex, outcome)
        record_probe(stats, slots[name], leaf.items, fetch.cost, fetch.fetched_items)
    results: dict[str, ExecutionResult] = {}
    for name, state in states.items():
        value = state.root_value
        assert value is not None, "a full schedule always resolves the root"
        results[name] = ExecutionResult(
            value=value,
            cost=stats.query_cost[slots[name]],
            evaluated=tuple(evaluated[name]),
            skipped=tuple(skipped[name]),
            outcomes=outcomes[name],
        )
    return results, stats


def column_order(schedules: Mapping[str, Sequence[int]]) -> ProbeOrder:
    """Step k of every schedule, in registration order, then step k + 1."""
    longest = max(map(len, schedules.values()), default=0)
    return [
        (name, schedule[k])
        for k in range(longest)
        for name, schedule in schedules.items()
        if k < len(schedule)
    ]


def scratch_copy(
    cache: Union[DataItemCache, CountingCache],
) -> Union[DataItemCache, CountingCache]:
    """A copy of ``cache`` whose fetches leave the original untouched."""
    clone = copy.copy(cache)
    clone.fetch_counts = dict(cache.fetch_counts)
    if isinstance(cache, DataItemCache):
        clone._store = {stream: dict(held) for stream, held in cache._store.items()}
        clone._low = dict(cache._low)
    else:
        clone._held = dict(cache._held)
    return clone


def execute_drawn_round(
    schedules: Mapping[str, Sequence[int]],
    indexes: Mapping[str, TreeIndex],
    cache: Union[DataItemCache, CountingCache],
    oracles: Mapping[str, LeafOracle],
) -> tuple[dict[str, ExecutionResult], RoundStats]:
    """One round whose oracles are called in :func:`column_order`.

    The first pass draws every outcome in column order on a scratch copy of
    the cache; the second replays them through ``PrecomputedOracle``s in
    registration order on ``cache``, which charges the fetches. Both passes
    evaluate the same probes, since which probes a round evaluates does not
    depend on the order.
    """
    drawn, _ = execute_round(
        column_order(schedules), indexes, scratch_copy(cache), oracles
    )
    replay = {name: PrecomputedOracle(result.outcomes) for name, result in drawn.items()}
    order = [(name, g) for name, schedule in schedules.items() for g in schedule]
    return execute_round(order, indexes, cache, replay)


def shares_a_bernoulli_oracle(oracles: Mapping[str, LeafOracle]) -> bool:
    """Whether two queries draw from one ``BernoulliOracle``."""
    shared = [id(o) for o in oracles.values() if isinstance(o, BernoulliOracle)]
    return len(set(shared)) < len(shared)


def interleave(schedules: Mapping[str, Sequence[int]], rng: random.Random) -> ProbeOrder:
    """A uniformly random interleave of the schedules that keeps each one's order."""
    turns = [name for name, schedule in schedules.items() for _ in schedule]
    rng.shuffle(turns)
    positions = dict.fromkeys(schedules, 0)
    order = []
    for name in turns:
        order.append((name, schedules[name][positions[name]]))
        positions[name] += 1
    return order


class ReferenceProgram:
    """:class:`~repro.service.shared_plan.RoundProgram`'s interface over the walk.

    Keeps the population as name-keyed dicts in registration order (each
    resident's tree as its :class:`~repro.core.resolution.TreeIndex`) and
    serves each round through :func:`execute_round` in registration order
    (:func:`execute_drawn_round` when queries share a ``BernoulliOracle``),
    or, given ``rng``, over a fresh random interleave every round.
    """

    def __init__(self, *, rng: random.Random | None = None) -> None:
        self._rng = rng
        self._indexes: dict[str, TreeIndex] = {}
        self._schedules: dict[str, Schedule] = {}
        self._oracles: dict[str, LeafOracle] = {}
        self._results: dict[str, ExecutionResult] = {}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    def append(
        self, name: str, tree: DnfTree, schedule: Schedule, oracle: LeafOracle
    ) -> None:
        self._indexes[name] = TreeIndex(tree)
        self._schedules[name] = tuple(schedule)
        self._oracles[name] = oracle

    def remove(self, name: str) -> None:
        del self._indexes[name], self._schedules[name], self._oracles[name]

    def reorder(self, names: Sequence[str]) -> None:
        for table in (self._indexes, self._schedules, self._oracles):
            ordered = {name: table[name] for name in names}
            table.clear()
            table.update(ordered)

    def reschedule(self, name: str, schedule: Schedule) -> None:
        self._schedules[name] = tuple(schedule)

    def prepare(self) -> None:
        pass

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        if self._rng is not None:
            order = interleave(self._schedules, self._rng)
        elif shares_a_bernoulli_oracle(self._oracles):
            self._results, stats = execute_drawn_round(
                self._schedules, self._indexes, cache, self._oracles
            )
            return stats
        else:
            order = [(name, g) for name, s in self._schedules.items() for g in s]
        self._results, stats = execute_round(order, self._indexes, cache, self._oracles)
        return stats

    def tick(self) -> None:
        """Advance every distinct resident drifting oracle one round."""
        for oracle in {id(o): o for o in self._oracles.values()}.values():
            if isinstance(oracle, DriftingBernoulliOracle):
                oracle.advance(1)

    def values(self) -> list[bool]:
        return [result.value for result in self._results.values()]

    def results(self) -> dict[str, ExecutionResult]:
        return self._results

    def evaluated(self) -> tuple[list[int], list[int], list[bool]]:
        probes = [
            (position, g, outcome)
            for position, result in enumerate(self._results.values())
            for g, outcome in result.outcomes.items()
        ]
        return (
            [position for position, _, _ in probes],
            [g for _, g, _ in probes],
            [bool(outcome) for _, _, outcome in probes],
        )


@contextlib.contextmanager
def reference_rounds(rng: random.Random | None = None) -> Iterator[None]:
    """Every ``QueryServer`` built inside the block serves its rounds on the
    reference walk, for its whole life.

    With ``rng``, each round serves a random interleave drawn from it.
    """
    program = functools.partial(ReferenceProgram, rng=rng)
    with mock.patch("repro.service.server.RoundProgram", program):
        yield
