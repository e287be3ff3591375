"""The device's data-item memory — the heart of the *shared* cost model.

Paper §I: "The device that processes the query acquires data items from
streams and holds each data item in memory until that data item is no longer
relevant. A data item from a stream is no longer relevant when it is older
than the maximum time-window used for that stream in the query."

:class:`DataItemCache` implements exactly that pull model over
:class:`~repro.streams.sources.Source` tapes:

* time is discrete; at device time ``now``, the newest available item of a
  stream is the one produced at absolute index ``now - 1``, and "the last
  ``d`` items" are absolute indices ``now - d .. now - 1``;
* :meth:`fetch_window` returns those ``d`` values, *charging only for items
  not already cached* — this is what makes later same-stream leaves cheap;
* :meth:`advance` moves time forward (new items get produced by the sources)
  and evicts items older than each stream's maximum relevant window, which
  :func:`compute_max_windows` derives from a query population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import StreamError
from repro.streams.sources import Source

if TYPE_CHECKING:
    from repro.core.tree import AndTree, DnfTree, QueryTree

__all__ = ["DataItemCache", "CountingCache", "FetchResult", "compute_max_windows"]


def compute_max_windows(
    trees: Sequence[AndTree | DnfTree | QueryTree],
) -> dict[str, int]:
    """Per-stream relevance horizon of a query population.

    ``max_windows[stream]`` is the largest window any leaf of any tree applies
    to the stream — the paper's "no longer relevant" eviction horizon that
    :meth:`DataItemCache.advance` takes, and the minimum device time a cache
    needs before the population can run.
    """
    windows: dict[str, int] = {}
    for tree in trees:
        for leaf in tree.leaves:
            current = windows.get(leaf.stream, 0)
            if leaf.items > current:
                windows[leaf.stream] = leaf.items
    return windows


@dataclass(frozen=True, slots=True)
class FetchResult:
    """Outcome of one window fetch."""

    values: np.ndarray | None
    fetched_items: int
    cost: float


class CountingCache:
    """Cost-accounting-only cache for pure simulations (no data values).

    Tracks, per stream, how many of the newest items are held; charges for
    the missing ones. This is the cache the analytic evaluators assume.
    """

    def __init__(self, costs: Mapping[str, float]) -> None:
        self.costs = dict(costs)
        self._held: dict[str, int] = {}
        self.charged = 0.0
        self.fetch_counts: dict[str, int] = {}

    def items_cached(self, stream: str) -> int:
        return self._held.get(stream, 0)

    def fetch_window(self, stream: str, count: int) -> FetchResult:
        (missing,) = self.fetch_widening(stream, [count])
        cost = missing * self.costs[stream]
        self.charged += cost
        return FetchResult(values=None, fetched_items=missing, cost=cost)

    def fetch_widening(self, stream: str, counts: Sequence[int]) -> list[int]:
        """Fetch ``stream``'s windows ``counts``, each wider than the last, in
        order; per window, the items it fetched.

        The fetches count in ``fetch_counts`` but are not charged: the caller
        adds each window's ``fetched * costs[stream]`` to ``charged``, in the
        order it charges every stream's windows in.
        """
        self.peek_window(stream, counts[0])
        have = self._held.get(stream, 0)
        fetched = []
        for count in counts:
            missing = max(0, count - have)
            have = max(have, count)
            fetched.append(missing)
        total = sum(fetched)
        if total:
            self._held[stream] = have
            self.fetch_counts[stream] = self.fetch_counts.get(stream, 0) + total
        return fetched

    def peek_window(self, stream: str, count: int) -> None:
        """What :meth:`fetch_window` would return as values (none), uncharged;
        raises as it would on a bad window."""
        if count < 1:
            raise StreamError(f"window must be >= 1 item, got {count}")
        if stream not in self.costs:
            raise StreamError(f"unknown stream {stream!r}")
        return None

    def clear(self) -> None:
        """Drop all items (e.g. between independent query evaluations)."""
        self._held.clear()

    def reset_charges(self) -> None:
        self.charged = 0.0
        self.fetch_counts.clear()


class DataItemCache:
    """Pull-model cache over real (simulated) data sources.

    Parameters
    ----------
    sources:
        Stream name -> :class:`Source` tape.
    costs:
        Stream name -> cost per item, ``c(S_k)``.
    now:
        Initial device time = number of items each source has already
        produced. Must be at least the largest window a query will ask for.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        costs: Mapping[str, float],
        *,
        now: int = 64,
    ) -> None:
        missing = set(sources) - set(costs)
        if missing:
            raise StreamError(f"no cost configured for streams {sorted(missing)!r}")
        self.sources = dict(sources)
        self.costs = dict(costs)
        if now < 0:
            raise StreamError(f"now must be >= 0, got {now}")
        self.now = now
        self._store: dict[str, dict[int, float]] = {name: {} for name in sources}
        #: Per stream, no held item is older than this index, so evicting
        #: up to a horizon deletes ``range(low, horizon)`` instead of
        #: scanning the store.
        self._low: dict[str, int] = dict.fromkeys(sources, now)
        self.charged = 0.0
        self.fetch_counts: dict[str, int] = {}

    def items_cached(self, stream: str) -> int:
        """Length of the contiguous run of newest items currently held."""
        store = self._store.get(stream)
        if not store:
            return 0
        count = 0
        tau = self.now - 1
        while tau in store:
            count += 1
            tau -= 1
        return count

    def fetch_window(self, stream: str, count: int) -> FetchResult:
        """Values of items ``1..count`` (newest last in the array), charging misses."""
        source = self._source(stream, count)
        store = self._store[stream]
        values = np.empty(count)
        fetched = 0
        self._lower(stream, self.now - count)
        for offset, tau in enumerate(range(self.now - count, self.now)):
            value = store.get(tau)
            if value is None:
                value = store[tau] = source.value_at(tau)
                fetched += 1
            values[offset] = value
        cost = fetched * self.costs[stream]
        self.charged += cost
        if fetched:
            self.fetch_counts[stream] = self.fetch_counts.get(stream, 0) + fetched
        return FetchResult(values=values, fetched_items=fetched, cost=cost)

    def fetch_widening(self, stream: str, counts: Sequence[int]) -> list[int]:
        """Fetch ``stream``'s windows ``counts``, each wider than the last, in
        order; per window, the items it fetched.

        A window's items that the narrower one before it covers are held
        already, so each item is looked at once. The fetches count in
        ``fetch_counts`` but are not charged: the caller adds each window's
        ``fetched * costs[stream]`` to ``charged``, in the order it charges
        every stream's windows in.
        """
        source = self._source(stream, counts[-1])
        if counts[0] < 1:
            raise StreamError(f"window must be >= 1 item, got {counts[0]}")
        store = self._store[stream]
        now = held = self.now  # items [held, now) are held
        fetched = []
        for count in counts:
            missing = 0
            oldest = now - count
            for tau in range(oldest, held):
                if tau not in store:
                    store[tau] = source.value_at(tau)
                    missing += 1
            if oldest < held:
                held = oldest
            fetched.append(missing)
        total = sum(fetched)
        if total:
            self.fetch_counts[stream] = self.fetch_counts.get(stream, 0) + total
            self._lower(stream, held)
        return fetched

    def _lower(self, stream: str, oldest: int) -> None:
        """Note that ``stream`` may now hold items from index ``oldest`` on."""
        if oldest < self._low[stream]:
            self._low[stream] = oldest

    def _evict(self, stream: str, store: dict[int, float], horizon: int) -> None:
        """Drop ``stream``'s items older than ``horizon``.

        Deletes the indices from the stream's lowest held one up to the
        horizon, or scans the store when that range is the longer walk.
        """
        low = self._low[stream]
        if horizon <= low:
            return
        if horizon - low <= len(store):
            for tau in range(low, horizon):
                store.pop(tau, None)
        else:
            for tau in [tau for tau in store if tau < horizon]:
                del store[tau]
        self._low[stream] = horizon

    def peek_window(self, stream: str, count: int) -> np.ndarray:
        """The values :meth:`fetch_window` would return, without fetching or charging.

        Held items are read from the store and missing ones from the
        source, which produces the same value whenever it is asked.
        """
        source = self._source(stream, count)
        store = self._store[stream]
        return np.array(
            [
                store[tau] if tau in store else source.value_at(tau)
                for tau in range(self.now - count, self.now)
            ]
        )

    def _source(self, stream: str, count: int) -> Source:
        """The source of ``stream``, once a window of ``count`` items is valid."""
        if count < 1:
            raise StreamError(f"window must be >= 1 item, got {count}")
        source = self.sources.get(stream)
        if source is None:
            raise StreamError(f"unknown stream {stream!r}")
        if count > self.now:
            raise StreamError(
                f"stream {stream!r} has only produced {self.now} items; window {count} too large"
            )
        return source

    def advance(self, steps: int = 1, *, max_windows: Mapping[str, int] | None = None) -> None:
        """Move time forward and evict items older than each stream's window.

        ``max_windows[stream]`` is the largest window any leaf applies to the
        stream (the paper's relevance horizon); omitted streams keep
        everything (no eviction).
        """
        if steps < 0:
            raise StreamError(f"cannot advance by {steps} steps")
        self.now += steps
        if max_windows:
            for stream, window in max_windows.items():
                store = self._store.get(stream)
                if store is not None:
                    self._evict(stream, store, self.now - window)

    def retain_relevant(self, max_windows: Mapping[str, int]) -> None:
        """Re-apply the relevance rule after the serving population changed.

        Paper §I: an item is relevant only while it is within the maximum
        window *some query* applies to its stream. When a query departs, its
        streams' windows may shrink — or vanish entirely — so items that
        were relevant a moment ago no longer are: drop items older than each
        stream's new horizon, and every item of streams no resident query
        windows at all. Besides matching the paper's semantics (and bounding
        memory on a long-running server), this is what keeps residual cache
        warmth *placement-independent*: a departed query leaves the same
        (empty) trace behind on a shard as on the unsharded server, so later
        admissions cost the same wherever they land.
        """
        for stream, store in self._store.items():
            window = max_windows.get(stream)
            if window is None:
                store.clear()
                self._low[stream] = self.now
            else:
                self._evict(stream, store, self.now - window)

    def export_stream_state(
        self, streams
    ) -> tuple[int, dict[str, dict[int, float]]]:
        """Snapshot this cache's clock and held items for ``streams``.

        Taken by shard migration *before* the movers are lifted out (a
        departing population purges its streams' items under the relevance
        rule); the snapshot is handed to the destination's
        :meth:`adopt_stream_state` once the movers are registered there.
        """
        return self.now, {
            stream: dict(self._store.get(stream, {})) for stream in streams
        }

    def adopt_stream_state(
        self, donor_now: int, stores: Mapping[str, Mapping[int, float]]
    ) -> None:
        """Transplant a donor cache's held items into this cache.

        Shard migration support: when queries move between serving shards,
        the destination adopts the source cache's state for the moved
        streams, so the movers' next fetch pays exactly the increment they
        would have paid had they never moved (no artificial cold-start
        spend). Items already held here win — they are the same source tape
        values anyway.

        The two caches may disagree on device time. If this cache is behind
        and holds nothing yet (a freshly spawned or never-batched shard), its
        clock is fast-forwarded to the donor's; otherwise item indices are
        translated by the clock delta, preserving each item's *recency* —
        the quantity the cost model charges by — at the expense of
        value-level fidelity, which only matters to predicate oracles and is
        exact whenever the clocks agree.
        """
        for stream in stores:
            if stream not in self.sources:
                raise StreamError(f"unknown stream {stream!r}")
        if donor_now > self.now and not any(self._store.values()):
            self.now = donor_now
        delta = self.now - donor_now
        for stream, source_store in stores.items():
            if not source_store:
                continue
            store = self._store.setdefault(stream, {})
            for tau, value in source_store.items():
                shifted = tau + delta
                if 0 <= shifted < self.now and shifted not in store:
                    store[shifted] = value
                    self._lower(stream, shifted)

    def clear(self) -> None:
        for store in self._store.values():
            store.clear()
        self._low = dict.fromkeys(self._store, self.now)

    def reset_charges(self) -> None:
        self.charged = 0.0
        self.fetch_counts.clear()
