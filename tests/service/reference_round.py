"""The original per-probe object walk of one serving round, kept as a test oracle.

Every probe re-checks its query's ``ResolutionState``, fetches its window
through ``cache.fetch_window`` and accounts itself through
:func:`record_probe`. A compiled
:class:`repro.service.shared_plan.RoundProgram` must do exactly what this
does — the same ``ExecutionResult``s, the same ``RoundStats`` and the same
cache and oracle state afterwards.

The walk takes its probe order as ``(name, gindex)`` pairs: the program's
order (every schedule back to back, in registration order) or a random
:func:`interleave` that keeps each query's own order.
:func:`reference_rounds` serves whole :class:`~repro.service.QueryServer`
batches on this walk, so server-level tests can compare the compiled
kernel's reports, ledger and telemetry against it.
"""

from __future__ import annotations

import contextlib
import functools
import random
from typing import Iterator, Mapping, Sequence, Union
from unittest import mock

from repro.core.resolution import TreeIndex
from repro.engine.executor import ExecutionResult, LeafOracle
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

    Serves the schedules back to back in the order of ``indexes``, as the
    program does, or, given ``rng``, a fresh random interleave of them every
    round.
    """

    def __init__(
        self,
        indexes: Mapping[str, TreeIndex],
        schedules: Mapping[str, Sequence[int]],
        oracles: Mapping[str, LeafOracle],
        *,
        rng: random.Random | None = None,
    ) -> None:
        self.names = tuple(indexes)
        self._schedules = {name: tuple(schedules[name]) for name in self.names}
        self._order = [(name, g) for name in self.names for g in self._schedules[name]]
        self._rng = rng
        self._indexes = dict(indexes)
        self._oracles = dict(oracles)
        self._results: dict[str, ExecutionResult] = {}

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        order = self._order
        if self._rng is not None:
            order = interleave(self._schedules, self._rng)
        self._results, stats = execute_round(order, self._indexes, cache, self._oracles)
        return stats

    def values(self) -> list[bool]:
        return [result.value for result in self._results.values()]

    def results(self) -> dict[str, ExecutionResult]:
        return self._results


@contextlib.contextmanager
def reference_rounds(rng: random.Random | None = None) -> Iterator[None]:
    """Every ``QueryServer`` round inside the block runs on the reference walk.

    With ``rng``, each round serves a random interleave drawn from it.
    """
    program = functools.partial(ReferenceProgram, rng=rng)
    with mock.patch("repro.service.server.RoundProgram", program):
        yield
