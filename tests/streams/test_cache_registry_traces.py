"""Tests for the item caches, stream registry and trace recording."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.streams import (
    ConstantSource,
    CountingCache,
    DataItemCache,
    LeafTrace,
    ReplaySource,
    StreamRegistry,
    StreamSpec,
    TraceRecorder,
    UniformSource,
    estimate_probability,
)


class TestCountingCache:
    def test_charges_only_missing_items(self):
        cache = CountingCache({"A": 2.0})
        first = cache.fetch_window("A", 3)
        assert first.fetched_items == 3 and first.cost == 6.0
        second = cache.fetch_window("A", 5)
        assert second.fetched_items == 2 and second.cost == 4.0
        third = cache.fetch_window("A", 4)
        assert third.fetched_items == 0 and third.cost == 0.0
        assert cache.charged == 10.0
        assert cache.fetch_counts == {"A": 5}

    def test_clear_forgets_items_not_charges(self):
        cache = CountingCache({"A": 1.0})
        cache.fetch_window("A", 2)
        cache.clear()
        assert cache.items_cached("A") == 0
        assert cache.charged == 2.0
        cache.reset_charges()
        assert cache.charged == 0.0

    def test_fetch_widening_fetches_what_fetch_window_fetches(self):
        fetching, widening = CountingCache({"A": 2.0}), CountingCache({"A": 2.0})
        for counts in ((2, 5), (3, 6), (1, 4, 8)):
            fetched = [fetching.fetch_window("A", count).fetched_items for count in counts]
            assert widening.fetch_widening("A", counts) == fetched
            assert widening.items_cached("A") == fetching.items_cached("A")
        assert widening.fetch_counts == fetching.fetch_counts == {"A": 8}
        assert widening.charged == 0.0  # the caller charges

    def test_unknown_stream(self):
        with pytest.raises(StreamError):
            CountingCache({"A": 1.0}).fetch_window("B", 1)

    def test_bad_window(self):
        with pytest.raises(StreamError):
            CountingCache({"A": 1.0}).fetch_window("A", 0)


class TestDataItemCache:
    def make(self, now=10):
        sources = {"A": ReplaySource([float(i) for i in range(100)])}
        return DataItemCache(sources, {"A": 2.0}, now=now)

    def test_fetch_returns_window_newest_last(self):
        cache = self.make(now=10)
        result = cache.fetch_window("A", 3)
        # at time 10, newest item is tau=9
        assert list(result.values) == [7.0, 8.0, 9.0]
        assert result.fetched_items == 3 and result.cost == 6.0

    def test_refetch_is_free(self):
        cache = self.make()
        cache.fetch_window("A", 3)
        again = cache.fetch_window("A", 2)
        assert again.fetched_items == 0 and again.cost == 0.0
        assert cache.charged == 6.0

    def test_deeper_window_pays_margin(self):
        cache = self.make()
        cache.fetch_window("A", 2)
        deeper = cache.fetch_window("A", 5)
        assert deeper.fetched_items == 3 and deeper.cost == 6.0

    def test_advance_shifts_windows(self):
        cache = self.make(now=10)
        cache.fetch_window("A", 2)  # taus 8, 9
        cache.advance(1)
        result = cache.fetch_window("A", 2)  # taus 9, 10: only 10 missing
        assert result.fetched_items == 1
        assert list(result.values) == [9.0, 10.0]

    def test_advance_evicts_stale_items(self):
        cache = self.make(now=10)
        cache.fetch_window("A", 3)
        cache.advance(2, max_windows={"A": 3})
        # old taus 7,8,9; horizon = 12 - 3 = 9 -> tau 7, 8 evicted
        assert cache.items_cached("A") == 0  # newest (tau 11) missing -> run = 0
        result = cache.fetch_window("A", 3)
        assert result.fetched_items == 2  # tau 10, 11 fetched; tau 9 retained

    def test_items_cached_counts_contiguous_run(self):
        cache = self.make(now=10)
        assert cache.items_cached("A") == 0
        cache.fetch_window("A", 4)
        assert cache.items_cached("A") == 4
        cache.advance(1)
        assert cache.items_cached("A") == 0  # newest missing

    def test_window_larger_than_history(self):
        cache = self.make(now=3)
        with pytest.raises(StreamError):
            cache.fetch_window("A", 5)

    def test_unknown_stream(self):
        cache = self.make()
        with pytest.raises(StreamError):
            cache.fetch_window("B", 1)

    def test_missing_cost_rejected(self):
        with pytest.raises(StreamError):
            DataItemCache({"A": ConstantSource(1.0)}, {})

    def test_negative_advance_rejected(self):
        with pytest.raises(StreamError):
            self.make().advance(-1)

    def test_fetch_widening_fetches_what_fetch_window_fetches(self):
        """One call per round with the widening windows fetches, per window,
        what one ``fetch_window`` each would, and leaves the charging to the
        caller: the fetched items times the item cost, added in order."""
        fetching, widening = self.make(now=10), self.make(now=10)
        for steps, counts in ((0, (2, 5)), (1, (3,)), (2, (1, 4, 6)), (0, (6,))):
            fetching.advance(steps, max_windows={"A": 4})
            widening.advance(steps, max_windows={"A": 4})
            fetched = [fetching.fetch_window("A", count).fetched_items for count in counts]
            assert widening.fetch_widening("A", counts) == fetched
            assert widening._store == fetching._store
            for items in fetched:
                widening.charged += items * widening.costs["A"]
        assert (widening.charged, widening.fetch_counts) == (
            fetching.charged,
            fetching.fetch_counts,
        )

    def test_fetch_widening_rejects_bad_windows(self):
        cache = self.make(now=10)
        for counts in ((0, 2), (3, 11)):
            with pytest.raises(StreamError):
                cache.fetch_widening("A", counts)
        with pytest.raises(StreamError):
            cache.fetch_widening("B", (1,))

    def test_peek_window_reads_without_charging(self):
        cache = self.make(now=10)
        cache.fetch_window("A", 2)
        assert list(cache.peek_window("A", 4)) == [6.0, 7.0, 8.0, 9.0]
        assert (cache.charged, cache.items_cached("A")) == (4.0, 2)
        assert cache.fetch_window("A", 4).fetched_items == 2
        with pytest.raises(StreamError):
            cache.peek_window("A", 11)


class TestStreamRegistry:
    def make(self):
        registry = StreamRegistry()
        registry.add(StreamSpec("A", 1.5), ConstantSource(1.0))
        registry.add(StreamSpec("B", 2.5), UniformSource(seed=0))
        return registry

    def test_lookup(self):
        registry = self.make()
        assert registry.spec("A").cost_per_item == 1.5
        assert "A" in registry and "C" not in registry
        assert registry.names == ("A", "B")
        assert len(registry) == 2

    def test_duplicate_rejected(self):
        registry = self.make()
        with pytest.raises(StreamError):
            registry.add(StreamSpec("A", 1.0), ConstantSource(0.0))

    def test_unknown_lookup(self):
        registry = self.make()
        with pytest.raises(StreamError):
            registry.spec("missing")
        with pytest.raises(StreamError):
            registry.source("missing")

    def test_cost_table(self):
        assert self.make().cost_table() == {"A": 1.5, "B": 2.5}

    def test_build_cache(self):
        cache = self.make().build_cache(now=16)
        result = cache.fetch_window("A", 4)
        assert result.cost == pytest.approx(6.0)

    def test_validate_tree_streams(self):
        registry = self.make()
        registry.validate_tree_streams(("A", "B"))
        with pytest.raises(StreamError):
            registry.validate_tree_streams(("A", "Z"))


class TestTraces:
    def test_estimate_probability_laplace(self):
        assert estimate_probability(0, 0) == pytest.approx(0.5)
        assert estimate_probability(10, 10) == pytest.approx(11 / 12)
        assert estimate_probability(0, 10) == pytest.approx(1 / 12)

    def test_estimate_probability_validates(self):
        with pytest.raises(ValueError):
            estimate_probability(5, 3)
        with pytest.raises(ValueError):
            estimate_probability(-1, 3)

    def test_leaf_trace_counts(self):
        trace = LeafTrace()
        for outcome in (True, True, False):
            trace.record(outcome)
        assert trace.evaluations == 3 and trace.successes == 2
        assert trace.estimate() == pytest.approx(3 / 5)

    def test_recorder_estimates(self):
        recorder = TraceRecorder()
        for _ in range(8):
            recorder.record_outcome("leaf0", True)
            recorder.record_outcome("leaf1", False)
            recorder.end_round()
        estimates = recorder.estimates()
        assert estimates["leaf0"] > 0.8 and estimates["leaf1"] < 0.2
        assert recorder.rounds == 8

    def test_recorder_acquisition_stats(self):
        recorder = TraceRecorder()
        recorder.record_acquisition("A", items=4, cost=8.0)
        recorder.record_acquisition("A", items=2, cost=4.0)
        assert recorder.mean_cost_per_item()["A"] == pytest.approx(2.0)
