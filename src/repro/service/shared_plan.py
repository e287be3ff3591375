"""Cross-query global schedules: one interleaved probe order for a population.

Running each registered query's schedule back-to-back already shares the
item cache, but the *order* is still per-query greedy: an expensive stream
window fetched late by query 1 is paid early by query 7. The shared plan
merges all per-query schedules into one global probe order chosen by
marginal cost-effectiveness across the whole population:

* each query's leaves stay in its own schedule order (so per-query execution
  semantics — short-circuiting, Proposition 2 costs — are preserved);
* among the queries' *next* leaves, the globally cheapest-per-unit-of-
  resolution probe goes first. The marginal cost of a probe counts only the
  items not already planned for fetching by an earlier probe of *any* query —
  so once one query pays for a window, every other query's probes on that
  stream become free and float to the front ("pay one, get hundreds").

:func:`merge_schedules` builds the plan; :func:`execute_round` runs one
round of it against a shared cache with per-query early termination.

Every next-up leaf on one stream shares that stream's planned window and
remaining demand, so the merge keeps its candidates per stream: a pick
re-keys only the stream it planned and the stream its query moves on to.
Merging P probes costs O(P log P) plus one re-score of a stream's waiting
leaves each time its planned window grows, instead of a rescan of every
query per pick.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.core.leaf import Leaf
from repro.core.resolution import TreeIndex
from repro.core.schedule import Schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import StreamError
from repro.streams.cache import CountingCache, DataItemCache

__all__ = ["Probe", "SharedPlan", "merge_schedules", "execute_round", "RoundStats"]

_EPSILON = 1e-9


@dataclass(frozen=True, slots=True)
class Probe:
    """One planned leaf evaluation: query name + global leaf index in its tree."""

    query: str
    gindex: int


@dataclass(frozen=True)
class SharedPlan:
    """An interleaved probe order over a query population."""

    probes: tuple[Probe, ...]
    planned_items: Mapping[str, int]

    @property
    def size(self) -> int:
        return len(self.probes)

    def per_query(self) -> dict[str, tuple[int, ...]]:
        """Recover each query's leaf order as embedded in the global plan."""
        out: dict[str, list[int]] = {}
        for probe in self.probes:
            out.setdefault(probe.query, []).append(probe.gindex)
        return {name: tuple(order) for name, order in out.items()}

    def interleaving_degree(self) -> float:
        """Fraction of adjacent probe pairs that switch query (0 = fully blocked)."""
        if len(self.probes) < 2:
            return 0.0
        switches = sum(
            1
            for first, second in zip(self.probes, self.probes[1:])
            if first.query != second.query
        )
        return switches / (len(self.probes) - 1)


def merge_schedules(
    trees: Mapping[str, Union[AndTree, DnfTree, QueryTree]],
    schedules: Mapping[str, Schedule],
    costs: Mapping[str, float],
) -> SharedPlan:
    """Merge per-query schedules into one cost-effectiveness-ordered plan.

    Parameters
    ----------
    trees:
        Query name -> tree (anything with ``.leaves``).
    schedules:
        Query name -> that tree's schedule (same key set as ``trees``).
    costs:
        Global per-item stream costs (the registry's table); a stream
        missing from it costs 1.0 per item.

    Greedy merge: repeatedly pick, among the queries' next-up leaves
    ("heads"), the one minimizing ``marginal_cost / (failure_prob + eps)`` —
    i.e. cheapest expected spend per unit of short-circuiting power. Ties
    break toward the stream with the most remaining demand across the
    population, so widely shared windows are paid earliest, and then toward
    the earlier registered query (the iteration order of ``trees``).

    Every head on one stream shares that stream's planned window, remaining
    demand and item cost, so a pick changes the keys of only two streams:
    its own, and the one its query's next head joins. Each stream keeps its
    heads in two heaps — *covered* heads (window already planned, score
    exactly 0.0) by registration index, and *paying* heads by ``(score,
    index)``, re-scored only when the stream's planned window grows — and
    one global heap holds each stream's best ``(score, -demand, index)``,
    version-stamped so superseded entries are skipped. Scores *improve* as
    windows get planned, so a stale key is not a safe bound; re-keying the
    touched streams on every pick keeps the global heap exact. Cost:
    O(P log P) for P probes, plus O(heads on s) each time stream s's planned
    window grows (at most once per distinct window size on s).
    """
    if set(trees) != set(schedules):
        raise StreamError(
            f"trees and schedules disagree: {sorted(trees)} vs {sorted(schedules)}"
        )
    names = list(trees)
    orders = [schedules[name] for name in names]
    leaves = [trees[name].leaves for name in names]
    pointers = [0] * len(names)
    # Remaining population-wide demand per stream (for tie-breaking).
    demand: dict[str, int] = {}
    for order, tree_leaves in zip(orders, leaves):
        for g in order:
            stream = tree_leaves[g].stream
            demand[stream] = demand.get(stream, 0) + 1
    cost = {stream: costs.get(stream, 1.0) for stream in demand}
    planned: dict[str, int] = {}
    covered: dict[str, list[int]] = {stream: [] for stream in demand}
    paying: dict[str, list[tuple[float, int]]] = {stream: [] for stream in demand}
    version = dict.fromkeys(demand, 0)
    best: list[tuple[float, int, int, str, int]] = []

    def head(i: int) -> Leaf:
        return leaves[i][orders[i][pointers[i]]]

    def score(leaf: Leaf, have: int) -> float:
        return (leaf.items - have) * cost[leaf.stream] / (leaf.fail + _EPSILON)

    def push_head(i: int) -> str:
        leaf = head(i)
        have = planned.get(leaf.stream, 0)
        if leaf.items <= have:
            heapq.heappush(covered[leaf.stream], i)
        else:
            heapq.heappush(paying[leaf.stream], (score(leaf, have), i))
        return leaf.stream

    def rekey(stream: str) -> None:
        version[stream] += 1
        top: tuple[float, int] | None = None
        if covered[stream]:
            top = (0.0, covered[stream][0])
        if paying[stream] and (top is None or paying[stream][0] < top):
            top = paying[stream][0]
        if top is not None:
            heapq.heappush(
                best, (top[0], -demand[stream], top[1], stream, version[stream])
            )

    for i, order in enumerate(orders):
        if order:
            push_head(i)
    for stream in demand:
        rekey(stream)
    probes: list[Probe] = []
    while best:
        _, _, i, stream, stamp = heapq.heappop(best)
        if stamp != version[stream]:
            continue
        if covered[stream] and covered[stream][0] == i:
            heapq.heappop(covered[stream])
        else:
            heapq.heappop(paying[stream])
        items = head(i).items
        probes.append(Probe(names[i], orders[i][pointers[i]]))
        demand[stream] -= 1
        have = planned.get(stream, 0)
        planned[stream] = max(have, items)
        if items > have:
            # The planned window grew: every paying head on this stream
            # needs fewer missing items now, and some became covered.
            still_paying: list[tuple[float, int]] = []
            for _, j in paying[stream]:
                leaf = head(j)
                if leaf.items <= items:
                    heapq.heappush(covered[stream], j)
                else:
                    still_paying.append((score(leaf, items), j))
            heapq.heapify(still_paying)
            paying[stream] = still_paying
        pointers[i] += 1
        if pointers[i] < len(orders[i]):
            joined = push_head(i)
            if joined != stream:
                rekey(joined)
        rekey(stream)
    return SharedPlan(probes=tuple(probes), planned_items=planned)


@dataclass
class RoundStats:
    """The one per-round record: aggregate and per-query accounting.

    Both round loops (:func:`execute_round` and the server's vectorized
    replay) account every executed probe through :meth:`record_probe`, and
    the server's ledger, batch report and telemetry read the round from
    here. A query none of whose probes ran has no per-query entry.
    """

    cost: float = 0.0
    probes: int = 0
    free_probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0
    query_cost: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    query_probes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    query_items_fetched: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    query_items_saved: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record_probe(
        self, query: str, window_items: int, cost: float, fetched_items: int
    ) -> None:
        """Account one executed probe (shared by every round-loop engine,
        so scalar and vectorized metrics cannot drift apart)."""
        self.cost += cost
        self.probes += 1
        self.items_fetched += fetched_items
        saved = window_items - fetched_items
        self.items_saved += saved
        self.query_cost[query] += cost
        self.query_probes[query] += 1
        self.query_items_fetched[query] += fetched_items
        self.query_items_saved[query] += saved
        if fetched_items == 0:
            self.free_probes += 1


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
    plus round-level sharing statistics.
    """
    states = {name: index.new_state() for name, index in indexes.items()}
    evaluated: dict[str, list[int]] = {name: [] for name in indexes}
    skipped: dict[str, list[int]] = {name: [] for name in indexes}
    outcomes: dict[str, dict[int, bool]] = {name: {} for name in indexes}
    stats = RoundStats()
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
        stats.record_probe(probe.query, leaf.items, fetch.cost, fetch.fetched_items)
    results: dict[str, ExecutionResult] = {}
    for name, state in states.items():
        value = state.root_value
        assert value is not None, "a full schedule always resolves the root"
        results[name] = ExecutionResult(
            value=value,
            cost=stats.query_cost.get(name, 0.0),
            evaluated=tuple(evaluated[name]),
            skipped=tuple(skipped[name]),
            outcomes=outcomes[name],
        )
    return results, stats
