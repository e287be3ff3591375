"""Eviction by range: the cache deletes only the indices that leave the window.

:class:`~repro.streams.cache.DataItemCache` keeps, per stream, a lower bound
on its held item indices, so evicting up to a horizon deletes
``range(low, horizon)`` instead of scanning every held item. Each example
runs one script of fetches, advances, relevance passes and adoptions on the
cache and on :class:`ScanningCache`, which evicts by scanning the whole
store as the cache did before, and the two must hold the same items after
every operation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import DataItemCache, UniformSource

STREAMS = ("A", "B", "C")


class ScanningCache(DataItemCache):
    """The cache with its original evictions: scan every held item."""

    def advance(self, steps=1, *, max_windows=None):
        self.now += steps
        if max_windows:
            for stream, window in max_windows.items():
                store = self._store.get(stream)
                if store is None:
                    continue
                horizon = self.now - window
                for tau in [tau for tau in store if tau < horizon]:
                    del store[tau]

    def retain_relevant(self, max_windows):
        for stream, store in self._store.items():
            window = max_windows.get(stream)
            if window is None:
                store.clear()
                continue
            horizon = self.now - window
            for tau in [tau for tau in store if tau < horizon]:
                del store[tau]


def make(kind, now):
    sources = {name: UniformSource(seed=k) for k, name in enumerate(STREAMS)}
    return kind(sources, {name: 1.0 for name in STREAMS}, now=now)


_windows = st.dictionaries(st.sampled_from(STREAMS), st.integers(1, 12), max_size=3)

_operations = st.one_of(
    st.tuples(
        st.just("fetch_widening"),
        st.sampled_from(STREAMS),
        st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True).map(sorted),
    ),
    st.tuples(st.just("fetch_window"), st.sampled_from(STREAMS), st.integers(1, 16)),
    st.tuples(st.just("advance"), st.integers(0, 30), _windows),
    st.tuples(st.just("retain_relevant"), _windows),
    st.tuples(
        st.just("adopt_stream_state"),
        st.integers(0, 80),
        st.dictionaries(
            st.sampled_from(STREAMS),
            st.dictionaries(st.integers(0, 79), st.floats(0.0, 1.0), max_size=8),
            max_size=3,
        ),
    ),
    st.tuples(st.just("clear")),
)


def apply(cache, operation):
    """Run ``operation`` on ``cache``; returns what it returned."""
    name, *args = operation
    if name in ("fetch_widening", "fetch_window"):
        stream, counts = args
        widest = counts[-1] if name == "fetch_widening" else counts
        if widest > cache.now:
            return "skipped"
        result = getattr(cache, name)(stream, counts)
        return result if name == "fetch_widening" else (result.values.tolist(), result.fetched_items)
    if name == "advance":
        steps, windows = args
        return cache.advance(steps, max_windows=windows)
    if name == "adopt_stream_state":
        donor_now, stores = args
        return cache.adopt_stream_state(donor_now, stores)
    return getattr(cache, name)(*args)


class TestRangeEviction:
    @settings(max_examples=300, deadline=None)
    @given(now=st.integers(0, 20), script=st.lists(_operations, max_size=25))
    def test_stores_match_the_scanning_cache(self, now, script):
        cache, reference = make(DataItemCache, now), make(ScanningCache, now)
        for operation in script:
            assert apply(cache, operation) == apply(reference, operation)
            assert cache.now == reference.now
            assert cache._store == reference._store
            assert cache.fetch_counts == reference.fetch_counts
            for stream, store in cache._store.items():
                assert all(tau >= cache._low[stream] for tau in store)

    def test_steady_round_deletes_only_what_leaves(self):
        """Advancing one tick visits one index per stream, however many are held."""
        cache = make(DataItemCache, 64)
        cache.fetch_window("A", 40)
        store = cache._store["A"]

        class Counting(dict):
            pops = 0

            def pop(self, *args):
                Counting.pops += 1
                return super().pop(*args)

        cache._store["A"] = Counting(store)
        cache.advance(1, max_windows={"A": 40})
        assert Counting.pops == 1
        assert sorted(cache._store["A"]) == list(range(25, 64))
