"""The original per-probe object walk of one shared-plan round, kept as a test oracle.

Every probe re-checks its query's ``ResolutionState``, fetches its window
through ``cache.fetch_window`` and accounts itself through
:func:`record_probe`. A compiled
:class:`repro.service.shared_plan.RoundProgram` must do exactly what this
does — the same ``ExecutionResult``s, the same ``RoundStats`` and the same
cache and oracle state afterwards.

:func:`reference_rounds` serves whole :class:`~repro.service.QueryServer`
batches on this walk, so server-level tests can compare the compiled
kernel's reports, ledger and telemetry against it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Mapping, Union
from unittest import mock

from repro.core.resolution import TreeIndex
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.service.shared_plan import RoundStats, SharedPlan
from repro.streams.cache import CountingCache, DataItemCache


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
    plan: SharedPlan,
    indexes: Mapping[str, TreeIndex],
    cache: Union[DataItemCache, CountingCache],
    oracles: Mapping[str, LeafOracle],
) -> tuple[dict[str, ExecutionResult], RoundStats]:
    """Run one round of the shared plan with per-query early termination.

    Walks the global probe order once; a probe is skipped for free when its
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
    for probe in plan.probes:
        state = states[probe.query]
        if state.root_value is not None or state.is_skipped(probe.gindex):
            skipped[probe.query].append(probe.gindex)
            continue
        leaf = indexes[probe.query].tree.leaves[probe.gindex]
        fetch = cache.fetch_window(leaf.stream, leaf.items)
        outcome = oracles[probe.query].outcome(probe.gindex, leaf, fetch.values)
        outcomes[probe.query][probe.gindex] = outcome
        evaluated[probe.query].append(probe.gindex)
        state.set_leaf(probe.gindex, outcome)
        record_probe(
            stats, slots[probe.query], leaf.items, fetch.cost, fetch.fetched_items
        )
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


class ReferenceProgram:
    """:class:`~repro.service.shared_plan.RoundProgram`'s interface over the walk."""

    def __init__(
        self,
        plan: SharedPlan,
        indexes: Mapping[str, TreeIndex],
        oracles: Mapping[str, LeafOracle],
    ) -> None:
        self.plan = plan
        self.names = tuple(indexes)
        self._indexes = dict(indexes)
        self._oracles = dict(oracles)
        self._results: dict[str, ExecutionResult] = {}

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        self._results, stats = execute_round(
            self.plan, self._indexes, cache, self._oracles
        )
        return stats

    def values(self) -> list[bool]:
        return [result.value for result in self._results.values()]

    def results(self) -> dict[str, ExecutionResult]:
        return self._results


@contextlib.contextmanager
def reference_rounds() -> Iterator[None]:
    """Every ``QueryServer`` round inside the block runs on the reference walk."""
    with mock.patch("repro.service.server.RoundProgram", ReferenceProgram):
        yield
