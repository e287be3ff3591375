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

:func:`merge_schedules` builds the plan; :class:`RoundProgram` runs rounds
of it against a shared cache with per-query early termination.

Every next-up leaf on one stream shares that stream's planned window and
remaining demand, so the merge keeps its candidates per stream: a pick
re-keys only the stream it planned and the stream its query moves on to.
Merging P probes costs O(P log P) plus one re-score of a stream's waiting
leaves each time its planned window grows, instead of a rescan of every
query per pick.

A round runs as a *compiled round program*: :class:`RoundProgram` lays the
population's tree nodes out in one flat list and turns the plan into one
flat tuple of steps, once per plan; :meth:`RoundProgram.run` walks it each
round with a guard check per probe and an iterative walk to the root per
evaluated probe, and allocates nothing per resident. Most probes in a shared
plan are free, so a round pays for its windows per stream, not per probe: a
*window memo* keeps each stream's widest window fetched this round, and a
probe inside it takes the memo's newest items (read-only) without calling
the cache.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from repro.core.leaf import Leaf
from repro.core.resolution import (
    FALSE,
    KIND_AND,
    KIND_OR,
    TRUE,
    UNRESOLVED,
    LeafRecord,
    TreeIndex,
)
from repro.core.schedule import Schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import StreamError
from repro.streams.cache import CountingCache, DataItemCache

__all__ = [
    "Probe",
    "SharedPlan",
    "merge_schedules",
    "RoundProgram",
    "RoundStats",
]

_EPSILON = 1e-9

# The round walk compares a child's value with its parent's kind directly.
assert (KIND_AND, KIND_OR) == (TRUE, FALSE)


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

    :meth:`RoundProgram.run` fills it. ``query_cost`` and ``query_probes``
    hold one entry per resident, aligned with the program's ``names``
    (registration order); a resident none of whose probes ran has 0.0 and
    0. The server's batch tally is the one fold of these records: the batch
    report, the lifetime ledger and the telemetry counters all read the
    tally's sums, and only the per-round histograms and detail events read
    a round's entries directly.
    """

    probes: int = 0
    free_probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0
    query_cost: list[float] = field(default_factory=list)
    query_probes: list[int] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """The round's cost: the per-query costs summed in registration order.

        A plain left fold from 0.0 (``sum`` compensates on Python 3.12+), so
        a batch's per-query totals and its round costs add the same floats
        the same way.
        """
        return functools.reduce(operator.add, self.query_cost, 0.0)


#: One compiled probe: its query's slot, the query's *base* (where its
#: tree's nodes start in the program's flat node lists) and the probed
#: leaf's :data:`~repro.core.resolution.LeafRecord`, whose node ids count
#: from that base.
Step = tuple[int, int, LeafRecord]


class RoundProgram:
    """A shared plan compiled against its population's trees and oracles.

    Compiling is one pass over the residents and one over the probes: every
    tree's nodes are laid out in one population-wide flat list, each probe
    becomes a :data:`Step` and each query's ``oracle.outcome`` is bound
    once. A round (:meth:`run`) then resolves no name and allocates nothing
    per resident: it resets the flat node state and walks the steps. A
    leaf's node holds its outcome when its probe was evaluated, so
    :meth:`values` and :meth:`results` read the last round back per query
    from that state, for the callers that need them. The program depends
    only on the plan, the trees and the oracles, so it serves every round
    of its plan.
    """

    __slots__ = (
        "plan",
        "names",
        "steps",
        "_roots",
        "_parent",
        "_kinds",
        "_need",
        "_outcome_of",
        "_state",
        "_counts",
        "_blank",
        "_query_cost",
        "_slot_steps",
    )

    def __init__(
        self,
        plan: SharedPlan,
        indexes: Mapping[str, TreeIndex],
        oracles: Mapping[str, LeafOracle],
    ) -> None:
        self.plan = plan
        self.names = tuple(indexes)
        roots: list[int] = []
        parent: list[int] = []
        kinds: list[int] = []
        need: list[int] = []
        records: dict[str, tuple[int, int, tuple[LeafRecord, ...]]] = {}
        for slot, (name, index) in enumerate(indexes.items()):
            base = len(parent)
            roots.append(base)
            parent.extend(index.parent)
            kinds.extend(index.kinds)
            need.extend(map(len, index.children))
            records[name] = (slot, base, index.leaf_records)
        steps: list[Step] = []
        for probe in plan.probes:
            slot, base, leaf_records = records[probe.query]
            steps.append((slot, base, leaf_records[probe.gindex]))
        self.steps = tuple(steps)
        self._roots = tuple(roots)
        self._parent = parent
        self._kinds = kinds
        self._need = need
        self._outcome_of = [oracles[name].outcome for name in self.names]
        # UNRESOLVED is 0, so one blank list resets both the node values
        # and the resolved-children counts.
        self._blank = [0] * len(parent)
        self._state = list(self._blank)
        self._counts = list(self._blank)
        self._query_cost = [0.0] * len(self.names)
        self._slot_steps: list[list[tuple[int, int]]] | None = None

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        """Execute one round of the plan with per-query early termination.

        Walks the global probe order once; a probe is skipped for free when
        its query's root is already resolved (early termination) or the
        leaf's AND/OR ancestors short-circuited it away: one guard check per
        probe over the leaf's precomputed ancestors in the flat node state,
        and an iterative walk toward the root per evaluated probe. Per
        query, the round means exactly what running it through
        :class:`~repro.engine.executor.ScheduleExecutor` means (see
        :meth:`results`).

        A *window memo* remembers, per stream, the largest window fetched
        this round; a probe within it takes the memo's tail with cost 0.0
        and no ``fetch_window`` call — exactly what the cache would return,
        since nothing evicts mid-round. Memoized windows are read-only: an
        oracle that writes to its window raises ``ValueError``.
        """
        names = self.names
        state = self._state
        counts = self._counts
        state[:] = self._blank
        counts[:] = self._blank
        parent = self._parent
        kinds = self._kinds
        need = self._need
        outcome_of = self._outcome_of
        query_cost = self._query_cost = [0.0] * len(names)
        query_probes = [0] * len(names)
        # Per stream, the largest window fetched this round and its values.
        held: dict[str, tuple[int, np.ndarray | None]] = {}
        fetch_window = cache.fetch_window
        free = 0
        fetched = 0
        needed = 0
        for slot, base, (g, leaf, stream, items, node, guards) in self.steps:
            for guard in guards:
                if state[base + guard]:
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
                    query_cost[slot] += fetch.cost
                    fetched += fetch.fetched_items
                    if not fetch.fetched_items:
                        free += 1
                needed += items
                query_probes[slot] += 1
                # Propagate toward the root. The value never changes on the
                # way up: an AND takes a FALSE child's value (or its last
                # TRUE child's), an OR a TRUE child's (or its last FALSE
                # child's); any other child stops the walk. A child value
                # equal to its parent's kind (TRUE under an AND, FALSE under
                # an OR) leaves the parent open.
                value = TRUE if outcome_of[slot](g, leaf, window) else FALSE
                node += base
                while True:
                    state[node] = value
                    up = parent[node]
                    if up < 0:
                        break
                    up += base
                    resolved = counts[up] + 1
                    counts[up] = resolved
                    if value == kinds[up] and resolved < need[up]:
                        break
                    node = up
        return RoundStats(
            probes=sum(query_probes),
            free_probes=free,
            items_fetched=fetched,
            items_saved=needed - fetched,
            query_cost=query_cost,
            query_probes=query_probes,
        )

    def values(self) -> list[bool]:
        """Every query's root value in the last round, per slot."""
        state = self._state
        values = [state[root] for root in self._roots]
        assert UNRESOLVED not in values, "a full schedule always resolves the root"
        return [value == TRUE for value in values]

    def results(self) -> dict[str, ExecutionResult]:
        """Every query's :class:`ExecutionResult` of the last round, in slot order.

        Each has exactly the semantics of running that query's schedule
        alone through :class:`~repro.engine.executor.ScheduleExecutor`.
        """
        if self._slot_steps is None:
            # Per query, its probes' (leaf global index, flat leaf node).
            self._slot_steps = [[] for _ in self.names]
            for slot, base, (g, _, _, _, node, _) in self.steps:
                self._slot_steps[slot].append((g, base + node))
        state = self._state
        results: dict[str, ExecutionResult] = {}
        for name, value, cost, steps in zip(
            self.names, self.values(), self._query_cost, self._slot_steps
        ):
            skipped: list[int] = []
            # Insertion order: the query's evaluated leaves in probe order.
            outcomes: dict[int, bool] = {}
            for g, node in steps:
                # A leaf's node is resolved only by its own evaluation, and
                # a second probe of an evaluated leaf is skipped.
                if state[node] == UNRESOLVED or g in outcomes:
                    skipped.append(g)
                else:
                    outcomes[g] = state[node] == TRUE
            results[name] = ExecutionResult(
                value=value,
                cost=cost,
                evaluated=tuple(outcomes),
                skipped=tuple(skipped),
                outcomes=outcomes,
            )
        return results
