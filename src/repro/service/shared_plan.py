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

:func:`merge_rows` builds the plan; :class:`RoundProgram` runs rounds of it
against a shared cache with per-query early termination.

The merge reads each query as a *merge row*: one ``(stream, items,
fail + eps)`` per schedule position (:func:`merge_row`). The server keeps
every resident's row on its registration record, so a re-merge after churn
re-reads no tree; :func:`merge_schedules` builds the rows of ad-hoc inputs
and runs the same merge. A plan is *slot-indexed*: :class:`SharedPlan` holds
the queries' names in registration order and the probe order as
``(slot, gindex)`` pairs, and its :class:`Probe` view is derived on demand.

Every next-up leaf on one stream shares that stream's planned window and
remaining demand, so the merge keeps its candidates per stream: a pick
re-keys only the stream it planned and the stream its query moves on to.
Merging P probes costs O(P log P) plus one re-score of a stream's waiting
leaves each time its planned window grows, instead of a rescan of every
query per pick.

A round runs as a *compiled round program*: :class:`RoundProgram` lays the
population's tree nodes out in one flat list and turns the plan's
``(slot, gindex)`` pairs into one flat tuple of steps, once per plan;
:meth:`RoundProgram.run` walks it each round with a guard check per probe
and an iterative walk to the root per evaluated probe, and allocates
nothing per resident. Most probes in a shared
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
from typing import Mapping, Sequence, Union

import numpy as np

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
    "merge_rows",
    "merge_row",
    "MergeRow",
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


#: A query's merge inputs, one ``(stream, items, fail + eps)`` per position
#: of its schedule, read off the tree the merge weighs it by.
MergeRow = tuple[tuple[str, int, float], ...]


def merge_row(tree: Union[AndTree, DnfTree, QueryTree], schedule: Schedule) -> MergeRow:
    """``schedule``'s positions as the merge reads them (see :data:`MergeRow`)."""
    leaves = tree.leaves
    return tuple(
        (leaf.stream, leaf.items, leaf.fail + _EPSILON)
        for leaf in map(leaves.__getitem__, schedule)
    )


@dataclass(frozen=True)
class SharedPlan:
    """An interleaved probe order over a query population.

    ``names`` are the population's queries in registration order (every
    one, probed or not); ``order`` is the probe order as ``(slot, gindex)``
    pairs, ``slot`` indexing ``names``. The :class:`Probe` view and the
    per-query statistics are derived from them.
    """

    names: tuple[str, ...]
    order: tuple[tuple[int, int], ...]
    planned_items: Mapping[str, int]

    @property
    def probes(self) -> tuple[Probe, ...]:
        """The probe order with query names (built on each access)."""
        names = self.names
        return tuple(Probe(names[slot], g) for slot, g in self.order)

    @property
    def size(self) -> int:
        return len(self.order)

    def per_query(self) -> dict[str, tuple[int, ...]]:
        """Recover each query's leaf order as embedded in the global plan."""
        out: dict[int, list[int]] = {}
        for slot, g in self.order:
            out.setdefault(slot, []).append(g)
        return {self.names[slot]: tuple(order) for slot, order in out.items()}

    def interleaving_degree(self) -> float:
        """Fraction of adjacent probe pairs that switch query (0 = fully blocked)."""
        order = self.order
        if len(order) < 2:
            return 0.0
        switches = sum(
            1 for first, second in zip(order, order[1:]) if first[0] != second[0]
        )
        return switches / (len(order) - 1)


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

    Builds each query's :func:`merge_row` and runs :func:`merge_rows`, the
    one merge (its docstring has the greedy rule and the tie-breaks). The
    plan's slots follow the iteration order of ``trees``. The server passes
    its residents' cached rows to :func:`merge_rows` directly.
    """
    if set(trees) != set(schedules):
        raise StreamError(
            f"trees and schedules disagree: {sorted(trees)} vs {sorted(schedules)}"
        )
    names = tuple(trees)
    ordered = [schedules[name] for name in names]
    rows = [merge_row(trees[name], order) for name, order in zip(names, ordered)]
    return merge_rows(names, rows, ordered, costs)


def merge_rows(
    names: tuple[str, ...],
    rows: Sequence[MergeRow],
    schedules: Sequence[Schedule],
    costs: Mapping[str, float],
) -> SharedPlan:
    """The merge: per-slot rows and schedules (``names`` order) to a plan.

    Greedy merge: repeatedly pick, among the queries' next-up leaves
    ("heads"), the one minimizing ``marginal_cost / (failure_prob + eps)`` —
    i.e. cheapest expected spend per unit of short-circuiting power. Ties
    break toward the stream with the most remaining demand across the
    population, so widely shared windows are paid earliest, and then toward
    the earlier registered query (the order of ``names``).

    Every head on one stream shares that stream's planned window, remaining
    demand and item cost, so a pick changes the keys of only two streams:
    its own, and the one its query's next head joins. Each stream keeps its
    heads in two heaps — *covered* heads (window already planned, score
    exactly 0.0) by slot, and *paying* heads by ``(score, slot)``, re-scored
    only when the stream's planned window grows — and one global heap holds
    each stream's best ``(score, -demand, slot)``, version-stamped so
    superseded entries are skipped. Scores *improve* as windows get planned,
    so a stale key is not a safe bound; re-keying the touched streams on
    every pick keeps the global heap exact. Cost: O(P log P) for P probes,
    plus O(heads on s) each time stream s's planned window grows (at most
    once per distinct window size on s).

    The loop reads the rows and emits ``(slot, gindex)`` pairs, so a pick
    allocates only its heap entries and its pair. A score is always
    ``(items - have) * cost / fail_eps`` with ``fail_eps`` from the row
    (``have`` is 0 while a stream has nothing planned).
    """
    # Remaining population-wide demand per stream (for tie-breaking).
    demand: dict[str, int] = {}
    for row in rows:
        for stream, _, _ in row:
            demand[stream] = demand.get(stream, 0) + 1
    cost = {stream: costs.get(stream, 1.0) for stream in demand}
    planned: dict[str, int] = {}
    covered: dict[str, list[int]] = {stream: [] for stream in demand}
    paying: dict[str, list[tuple[float, int]]] = {stream: [] for stream in demand}
    version = dict.fromkeys(demand, 1)
    best: list[tuple[float, int, int, str, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    pointers = [0] * len(rows)
    for i, row in enumerate(rows):
        if row:
            stream, items, fail_eps = row[0]
            heappush(paying[stream], (items * cost[stream] / fail_eps, i))
    # Nothing is planned yet, so every head is paying.
    for stream, heads in paying.items():
        if heads:
            score, i = heads[0]
            heappush(best, (score, -demand[stream], i, stream, 1))
    order: list[tuple[int, int]] = []
    append = order.append
    while best:
        _, _, i, stream, stamp = heappop(best)
        if stamp != version[stream]:
            continue
        waiting = covered[stream]
        if waiting and waiting[0] == i:
            heappop(waiting)
        else:
            heappop(paying[stream])
        row = rows[i]
        p = pointers[i]
        items = row[p][1]
        append((i, schedules[i][p]))
        demand[stream] -= 1
        have = planned.get(stream, 0)
        if items > have:
            # The planned window grew: every paying head on this stream
            # needs fewer missing items now, and some became covered.
            planned[stream] = items
            unit = cost[stream]
            still_paying: list[tuple[float, int]] = []
            for _, j in paying[stream]:
                _, need, fail_eps = rows[j][pointers[j]]
                if need <= items:
                    heappush(waiting, j)
                else:
                    still_paying.append(((need - items) * unit / fail_eps, j))
            heapq.heapify(still_paying)
            paying[stream] = still_paying
        p += 1
        pointers[i] = p
        # Re-key the stream the query's next head joins (when another one)
        # and then this stream.
        touched = (stream,)
        if p < len(row):
            joined, need, fail_eps = row[p]
            have = planned.get(joined, 0)
            if need <= have:
                heappush(covered[joined], i)
            else:
                heappush(paying[joined], ((need - have) * cost[joined] / fail_eps, i))
            if joined != stream:
                touched = (joined, stream)
        for key in touched:
            stamp = version[key] + 1
            version[key] = stamp
            waiting = covered[key]
            heads = paying[key]
            if waiting:
                top = waiting[0]
                score = 0.0
                if heads:
                    first = heads[0]
                    # (first < (0.0, top)), compared field by field.
                    if first[0] < 0.0 or (first[0] == 0.0 and first[1] < top):
                        score, top = first
            elif heads:
                score, top = heads[0]
            else:
                continue
            heappush(best, (score, -demand[key], top, key, stamp))
    return SharedPlan(names=names, order=tuple(order), planned_items=planned)


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
    tree's nodes are laid out in one population-wide flat list, each
    ``(slot, gindex)`` of the plan becomes a :data:`Step` by indexing and
    each query's ``oracle.outcome`` is bound once. The plan must number the
    queries as ``indexes`` does (its ``names`` are the program's). A round (:meth:`run`) then resolves no name and allocates nothing
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
        records: list[tuple[LeafRecord, ...]] = []
        for index in indexes.values():
            roots.append(len(parent))
            parent.extend(index.parent)
            kinds.extend(index.kinds)
            need.extend(map(len, index.children))
            records.append(index.leaf_records)
        if plan.names != self.names:
            raise StreamError(
                f"plan slots name {plan.names!r}, the program's {self.names!r}"
            )
        self.steps = tuple(
            [(slot, roots[slot], records[slot][g]) for slot, g in plan.order]
        )
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
