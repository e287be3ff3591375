"""ServiceMetrics ledger: percentile edge cases and histogram routing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.metrics import ROUND_COST_WINDOW, ServiceMetrics, percentile
from repro.service.shared_plan import RoundStats
from tests.service.reference_round import record_probe

costs = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)


class TestPercentile:
    def test_empty_window_is_zero_not_crash(self):
        # Regression: used to IndexError on an empty series.
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([], q) == 0.0

    def test_singleton_window_returns_its_element(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([3.5], q) == 3.5

    def test_out_of_range_q_rejected_even_on_empty_input(self):
        # A bad q is a caller bug regardless of the data.
        for bad_q in (-0.1, 100.1):
            with pytest.raises(ValueError):
                percentile([], bad_q)
            with pytest.raises(ValueError):
                percentile([1.0], bad_q)

    def test_known_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 100.0) == 5.0

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(costs, min_size=1, max_size=50), q=st.floats(0.0, 100.0))
    def test_result_is_an_order_statistic_within_bounds(self, values, q):
        result = percentile(values, q)
        assert result in values
        assert min(values) <= result <= max(values)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(costs, min_size=2, max_size=50))
    def test_monotone_in_q(self, values):
        qs = [0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0]
        results = [percentile(values, q) for q in qs]
        assert results == sorted(results)


class TestServiceMetricsPercentiles:
    def test_empty_metrics_report_zero_percentiles(self):
        metrics = ServiceMetrics()
        assert metrics.p50_round_cost == 0.0
        assert metrics.p95_round_cost == 0.0
        assert metrics.p99_round_cost == 0.0
        assert "p99" in metrics.summary()

    def test_singleton_round(self):
        metrics = ServiceMetrics()
        metrics.record_round(RoundStats(cost=2.5), {})
        assert metrics.p50_round_cost == pytest.approx(2.5)
        assert metrics.p99_round_cost == pytest.approx(2.5)

    def test_percentiles_route_through_histogram(self):
        metrics = ServiceMetrics()
        for cost in (1.0, 2.0, 3.0, 100.0):
            metrics.record_round(RoundStats(cost=cost), {})
        hist = metrics.round_cost_histogram()
        assert metrics.p50_round_cost == hist.percentile(50.0)
        assert metrics.p95_round_cost == hist.percentile(95.0)
        assert metrics.p99_round_cost == hist.percentile(99.0)
        assert hist.count == 4

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(costs, min_size=1, max_size=60))
    def test_percentiles_bounded_by_window_extremes(self, values):
        metrics = ServiceMetrics()
        for cost in values:
            metrics.record_round(RoundStats(cost=cost), {})
        for p in (
            metrics.p50_round_cost,
            metrics.p95_round_cost,
            metrics.p99_round_cost,
        ):
            assert min(values) <= p <= max(values) or p == pytest.approx(min(values))
        assert metrics.p50_round_cost <= metrics.p99_round_cost + 1e-12

    def test_window_truncates_but_lifetime_aggregates_do_not(self):
        metrics = ServiceMetrics()
        total = ROUND_COST_WINDOW + 100
        for i in range(total):
            metrics.record_round(RoundStats(cost=float(i)), {})
        assert metrics.rounds == total
        assert metrics.total_cost == pytest.approx(sum(range(total)))
        assert len(metrics.round_costs) == ROUND_COST_WINDOW
        # The oldest 100 rounds fell out of the percentile scope.
        assert metrics.round_costs[0] == 100.0
        assert metrics.p50_round_cost >= 100.0


class TestRecordRound:
    def test_folds_aggregates_and_every_resident(self):
        stats = RoundStats()
        record_probe(stats, "a", window_items=4, cost=6.0, fetched_items=3)
        record_probe(stats, "b", window_items=4, cost=0.0, fetched_items=0)
        record_probe(stats, "a", window_items=2, cost=1.5, fetched_items=1)
        metrics = ServiceMetrics()
        # "c" is resident but had every probe skipped this round.
        metrics.record_round(stats, {"a": True, "b": False, "c": True})
        assert metrics.rounds == 1
        assert metrics.total_cost == 7.5
        assert metrics.round_costs == [7.5]
        assert metrics.total_probes == 3
        assert metrics.free_probes == 1
        assert (metrics.items_fetched, metrics.items_saved) == (4, 6)
        a, b, c = (metrics.query_stats(name) for name in "abc")
        assert (a.rounds, a.cost, a.probes, a.true_count) == (1, 7.5, 2, 1)
        assert (a.items_fetched, a.items_saved) == (4, 2)
        assert (b.rounds, b.cost, b.probes, b.true_count) == (1, 0.0, 1, 0)
        assert (b.items_fetched, b.items_saved) == (0, 4)
        assert (c.rounds, c.cost, c.probes, c.true_count) == (1, 0.0, 0, 1)
        assert (c.items_fetched, c.items_saved) == (0, 0)
        assert list(metrics.per_query) == ["a", "b", "c"]

    def test_rounds_accumulate_per_query(self):
        metrics = ServiceMetrics()
        for value in (True, False, True):
            stats = RoundStats()
            record_probe(stats, "a", window_items=1, cost=0.5, fetched_items=1)
            metrics.record_round(stats, {"a": value})
        a = metrics.query_stats("a")
        assert (a.rounds, a.cost, a.probes, a.true_count) == (3, 1.5, 3, 2)
        assert metrics.total_cost == 1.5 and metrics.rounds == 3
