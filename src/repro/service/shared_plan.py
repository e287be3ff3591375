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

A round runs as a *compiled round program*. :func:`compile_round` turns the
plan into one flat list of ``(query slot, leaf record)`` steps, once per
plan; :meth:`RoundProgram.run` walks it each round with one node-value list
per query, a guard check per probe and an iterative walk to the root per
evaluated probe. Most probes in a shared plan are free, so a round pays
for its windows per stream, not per probe: a *window memo* keeps each
stream's widest window fetched this round, and a probe inside it takes the
memo's newest items (read-only) without calling the cache.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from repro.core.leaf import Leaf
from repro.core.resolution import FALSE, KIND_AND, TRUE, UNRESOLVED, LeafRecord, TreeIndex
from repro.core.schedule import Schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import StreamError
from repro.streams.cache import CountingCache, DataItemCache

__all__ = [
    "Probe",
    "SharedPlan",
    "merge_schedules",
    "execute_round",
    "compile_round",
    "RoundProgram",
    "RoundStats",
]

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

    Both round loops fill it, and the server's ledger, batch report and
    telemetry read the round from here. The vectorized replay accounts each
    executed probe through :meth:`record_probe`; the compiled scalar program
    (:meth:`RoundProgram.run`) sums per query slot and fills the per-query
    entries once per round, in registration order, with the same sums in
    the same probe order. A query none of whose probes ran has no
    per-query entry.
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
        """Account one executed probe of the vectorized replay."""
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


@dataclass(frozen=True, slots=True)
class RoundProgram:
    """A shared plan compiled against its population's tree indexes.

    ``steps`` pairs every probe with its query's *slot* (position in
    ``names``) and the probed leaf's :data:`~repro.core.resolution.LeafRecord`,
    so a round resolves no name and builds no per-probe object. The program
    depends only on the plan and the indexes, so it serves every round of
    its plan; :meth:`run` executes one.
    """

    plan: SharedPlan
    names: tuple[str, ...]
    indexes: tuple[TreeIndex, ...]
    steps: tuple[tuple[int, LeafRecord], ...]

    def run(
        self,
        cache: Union[DataItemCache, CountingCache],
        oracles: Mapping[str, LeafOracle],
    ) -> tuple[dict[str, ExecutionResult], RoundStats]:
        """Execute one round; see :func:`execute_round`."""
        names = self.names
        indexes = self.indexes
        outcome_of = [oracles[name].outcome for name in names]
        values = [[UNRESOLVED] * index.n_nodes for index in indexes]
        resolved = [[0] * index.n_nodes for index in indexes]
        skipped: list[list[int]] = [[] for _ in names]
        outcomes: list[dict[int, bool]] = [{} for _ in names]
        query_cost = [0.0] * len(names)
        query_fetched = [0] * len(names)
        query_items = [0] * len(names)
        # Per stream, the largest window fetched this round and its values.
        held: dict[str, tuple[int, np.ndarray | None]] = {}
        fetch_window = cache.fetch_window
        total = 0.0
        free = 0
        for slot, (g, leaf, stream, items, node, guards) in self.steps:
            state = values[slot]
            for guard in guards:
                if state[guard]:
                    skipped[slot].append(g)
                    break
            else:
                memo = held.get(stream)
                if memo is not None and items <= memo[0]:
                    # Nothing evicts mid-round, so the window is cached:
                    # fetch_window would return this tail and charge 0.0,
                    # and adding 0.0 to a sum begun at 0.0 changes no bit.
                    size, window = memo
                    if window is not None and items < size:
                        window = window[size - items :]
                    free += 1
                else:
                    fetch = fetch_window(stream, items)
                    window = fetch.values
                    if window is not None:
                        # Later probes share this array: an oracle must not
                        # write to it.
                        window.flags.writeable = False
                    held[stream] = (items, window)
                    total += fetch.cost
                    query_cost[slot] += fetch.cost
                    query_fetched[slot] += fetch.fetched_items
                    if not fetch.fetched_items:
                        free += 1
                query_items[slot] += items
                outcome = outcome_of[slot](g, leaf, window)
                outcomes[slot][g] = outcome
                # Propagate toward the root. The value never changes on the
                # way up: an AND takes a FALSE child's value (or its last
                # TRUE child's), an OR a TRUE child's (or its last FALSE
                # child's); any other child stops the walk.
                index = indexes[slot]
                parent = index.parent
                kinds = index.kinds
                children = index.children
                counts = resolved[slot]
                value = TRUE if outcome else FALSE
                while True:
                    state[node] = value
                    node_parent = parent[node]
                    if node_parent < 0:
                        break
                    counts[node_parent] += 1
                    if (
                        value == (TRUE if kinds[node_parent] == KIND_AND else FALSE)
                        and counts[node_parent] < len(children[node_parent])
                    ):
                        break
                    node = node_parent
        stats = RoundStats(cost=total, free_probes=free)
        results: dict[str, ExecutionResult] = {}
        for slot, name in enumerate(names):
            root = values[slot][0]
            assert root != UNRESOLVED, "a full schedule always resolves the root"
            # Insertion order: the query's evaluated leaves in probe order.
            evaluated = tuple(outcomes[slot])
            probes = len(evaluated)
            if probes:
                fetched = query_fetched[slot]
                saved = query_items[slot] - fetched
                stats.probes += probes
                stats.items_fetched += fetched
                stats.items_saved += saved
                stats.query_cost[name] = query_cost[slot]
                stats.query_probes[name] = probes
                stats.query_items_fetched[name] = fetched
                stats.query_items_saved[name] = saved
            results[name] = ExecutionResult(
                value=root == TRUE,
                cost=query_cost[slot],
                evaluated=evaluated,
                skipped=tuple(skipped[slot]),
                outcomes=outcomes[slot],
            )
        return results, stats


def compile_round(plan: SharedPlan, indexes: Mapping[str, TreeIndex]) -> RoundProgram:
    """Compile ``plan`` for the population ``indexes`` (query name -> index).

    One pass over the probes; each becomes ``(slot, leaf record)``. Slots
    follow the iteration order of ``indexes``.
    """
    names = tuple(indexes)
    records = {
        name: (slot, indexes[name].leaf_records) for slot, name in enumerate(names)
    }
    steps: list[tuple[int, LeafRecord]] = []
    for probe in plan.probes:
        slot, leaf_records = records[probe.query]
        steps.append((slot, leaf_records[probe.gindex]))
    return RoundProgram(plan, names, tuple(indexes.values()), tuple(steps))


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

    The round runs as a compiled program (:func:`compile_round`, then
    :meth:`RoundProgram.run`): per query one flat node-value list, per probe
    one guard check over the leaf's precomputed ancestors and an iterative
    walk toward the root. A *window memo* remembers, per stream, the largest
    window fetched this round; a probe within it takes the memo's tail with
    cost 0.0 and no ``fetch_window`` call — exactly what the cache would
    return, since nothing evicts mid-round. Memoized windows are read-only.
    Callers that serve one plan for many rounds (the server) compile once
    and :meth:`~RoundProgram.run` per round. ``RoundStats``' per-query
    entries come in ``indexes`` order.
    """
    return compile_round(plan, indexes).run(cache, oracles)
