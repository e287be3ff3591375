"""Round execution for a query population over one shared cache.

Every resident's schedule runs back to back, in registration order. The
order changes no count: which probes a round evaluates depends only on each
query's own schedule and outcomes, and a stream's fetched items are the
widest window its evaluated probes ask for minus what the cache already
holds, whatever order serves them. Sharing comes from the cache — one fetch
serves every query that reads the window ("pay one, get hundreds") — and
registration order decides only which query pays for it.

A round runs as a *compiled round program*: :class:`RoundProgram` lays the
population's tree nodes out in one flat list and each resident's schedule
out as one block of steps, once per population; :meth:`RoundProgram.run`
walks the blocks each round with a guard check per probe and an iterative
walk to the root per evaluated probe, leaves a resident's block as soon as
its root resolves, and allocates nothing per resident. Most probes of a
population are free, so a round pays for its windows per stream, not per
probe: a *window memo* keeps each stream's widest window fetched this
round, and a probe inside it takes the memo's newest items (read-only)
without calling the cache.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Mapping, Union

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
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import StreamError
from repro.streams.cache import CountingCache, DataItemCache

__all__ = [
    "RoundProgram",
    "RoundStats",
]

# The round walk compares a child's value with its parent's kind directly.
assert (KIND_AND, KIND_OR) == (TRUE, FALSE)


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


#: One resident's compiled schedule: its slot, its *base* (where its tree's
#: nodes start in the program's flat node lists) and, in schedule order, the
#: :data:`~repro.core.resolution.LeafRecord` of each probed leaf, whose node
#: ids count from that base.
Block = tuple[int, int, tuple[LeafRecord, ...]]


class RoundProgram:
    """A population's schedules compiled against its trees and oracles.

    Compiling is one pass over the residents, in registration order (the
    order of ``indexes``): every tree's nodes are laid out in one
    population-wide flat list, each query's schedule becomes one block
    (:data:`Block`) by indexing, and each query's ``oracle.outcome`` is
    bound once. A round (:meth:`run`) then resolves no name and allocates
    nothing per resident: it resets the flat node state and walks the
    blocks. A leaf's node holds its outcome when its probe was
    evaluated, so :meth:`values` and :meth:`results` read the last round
    back per query from that state, for the callers that need them. The
    program depends
    only on the trees, the schedules and the oracles, so it serves every
    round until one of them changes.
    """

    __slots__ = (
        "names",
        "blocks",
        "_roots",
        "_parent",
        "_kinds",
        "_need",
        "_outcome_of",
        "_state",
        "_counts",
        "_blank",
        "_query_cost",
    )

    def __init__(
        self,
        indexes: Mapping[str, TreeIndex],
        schedules: Mapping[str, Schedule],
        oracles: Mapping[str, LeafOracle],
    ) -> None:
        if schedules.keys() != indexes.keys():
            raise StreamError(
                f"schedules name {sorted(schedules)!r}, the trees {sorted(indexes)!r}"
            )
        self.names = tuple(indexes)
        roots: list[int] = []
        parent: list[int] = []
        kinds: list[int] = []
        need: list[int] = []
        blocks: list[Block] = []
        for slot, (name, index) in enumerate(indexes.items()):
            base = len(parent)
            roots.append(base)
            parent.extend(index.parent)
            kinds.extend(index.kinds)
            need.extend(map(len, index.children))
            records = index.leaf_records
            blocks.append((slot, base, tuple([records[g] for g in schedules[name]])))
        self.blocks = tuple(blocks)
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

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        """Execute one round with per-query early termination.

        Walks the blocks once. A probe is skipped for free when the leaf's
        AND/OR ancestors short-circuited it away: one guard check per probe
        over the leaf's precomputed ancestors in the flat node state, and an
        iterative walk toward the root per evaluated probe. When that walk
        resolves the root, the rest of the query's block is skipped without
        a check (early termination): every later probe has the root among
        its guards. Per query, the round means exactly what running it
        through :class:`~repro.engine.executor.ScheduleExecutor` means (see
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
        for slot, base, records in self.blocks:
            outcome = outcome_of[slot]
            for g, leaf, stream, items, node, guards in records:
                for guard in guards:
                    if state[base + guard]:
                        break
                else:
                    memo = held.get(stream)
                    if memo is not None and items <= memo[0]:
                        # Nothing evicts mid-round, so the window is
                        # cached: fetch_window would return this tail and
                        # charge 0.0, and adding 0.0 to a sum begun at 0.0
                        # changes no bit.
                        size, window = memo
                        if window is not None and items < size:
                            window = window[size - items :]
                        free += 1
                    else:
                        fetch = fetch_window(stream, items)
                        window = fetch.values
                        if window is not None:
                            # Later probes share this array: an oracle
                            # must not write to it.
                            window.flags.writeable = False
                        held[stream] = (items, window)
                        query_cost[slot] += fetch.cost
                        fetched += fetch.fetched_items
                        if not fetch.fetched_items:
                            free += 1
                    needed += items
                    query_probes[slot] += 1
                    # Propagate toward the root. The value never changes on
                    # the way up: an AND takes a FALSE child's value (or its
                    # last TRUE child's), an OR a TRUE child's (or its last
                    # FALSE child's); any other child stops the walk. A
                    # child value equal to its parent's kind (TRUE under an
                    # AND, FALSE under an OR) leaves the parent open.
                    value = TRUE if outcome(g, leaf, window) else FALSE
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
                    if up < 0:
                        # The root resolved: the rest of the block is skipped.
                        break
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
        state = self._state
        results: dict[str, ExecutionResult] = {}
        for (_, base, records), name, value, cost in zip(
            self.blocks, self.names, self.values(), self._query_cost
        ):
            skipped: list[int] = []
            # Insertion order: the query's evaluated leaves in probe order.
            outcomes: dict[int, bool] = {}
            for g, _, _, _, node, _ in records:
                # A leaf's node is resolved only by its own evaluation, and
                # a second probe of an evaluated leaf is skipped.
                node += base
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
