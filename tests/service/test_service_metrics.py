"""ServiceMetrics ledger: aggregate folding, percentile routing, O(1) size."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine import BernoulliOracle
from repro.service import QueryServer
from repro.service.metrics import ROUND_COST_WINDOW, ServiceMetrics
from repro.service.shared_plan import RoundStats
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec
from tests.service.reference_round import record_probe

costs = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)


class TestServiceMetricsPercentiles:
    def test_empty_metrics_report_zero_percentiles(self):
        metrics = ServiceMetrics()
        assert metrics.p50_round_cost == 0.0
        assert metrics.p95_round_cost == 0.0
        assert metrics.p99_round_cost == 0.0
        assert "p99" in metrics.summary()

    def test_singleton_round(self):
        metrics = ServiceMetrics()
        metrics.record_round(RoundStats(cost=2.5))
        assert metrics.p50_round_cost == pytest.approx(2.5)
        assert metrics.p99_round_cost == pytest.approx(2.5)

    def test_percentiles_route_through_histogram(self):
        metrics = ServiceMetrics()
        for cost in (1.0, 2.0, 3.0, 100.0):
            metrics.record_round(RoundStats(cost=cost))
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
            metrics.record_round(RoundStats(cost=cost))
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
            metrics.record_round(RoundStats(cost=float(i)))
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
        metrics.record_round(stats)
        # Every resident's probes and cost reach the aggregates, and the
        # ledger keeps nothing else from the round.
        assert metrics.total_probes == sum(stats.query_probes.values())
        assert metrics.total_cost == sum(stats.query_cost.values())
        assert metrics == ServiceMetrics(
            rounds=1,
            total_cost=7.5,
            total_probes=3,
            free_probes=1,
            items_fetched=4,
            items_saved=6,
            round_costs=[7.5],
        )

    def test_rounds_accumulate_per_query(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            stats = RoundStats()
            record_probe(stats, "a", window_items=1, cost=0.5, fetched_items=1)
            metrics.record_round(stats)
        assert (metrics.rounds, metrics.total_cost, metrics.total_probes) == (3, 1.5, 3)
        assert metrics.round_costs == [0.5, 0.5, 0.5]


def _served_ledger(rounds: int, *, churn: bool) -> ServiceMetrics:
    """Serve ``rounds`` rounds of one resident, renamed every round if ``churn``."""
    registry = StreamRegistry()
    registry.add(StreamSpec("A", 1.0), GaussianSource(seed=1))
    tree = DnfTree([[Leaf("A", 2, 1.0)]], {"A": 1.0})
    server = QueryServer(registry, BernoulliOracle(seed=0))
    server.register("q0", tree)
    for i in range(rounds):
        if churn:
            server.deregister(f"q{i}")
            server.register(f"q{i + 1}", tree)
        server.step()
    return server.metrics


class TestLedgerSize:
    def test_ledger_does_not_grow_with_churn(self):
        """Departed queries leave nothing behind in the lifetime ledger."""
        stable = _served_ledger(30, churn=False)
        churned = _served_ledger(30, churn=True)
        assert (churned.registrations, churned.deregistrations) == (31, 30)
        assert stable.rounds == churned.rounds == 30
        assert len(pickle.dumps(churned)) == len(pickle.dumps(stable))
