"""ServiceMetrics ledger: batch folding, percentile routing, O(1) size."""

from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptivePolicy
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine import BernoulliOracle
from repro.engine.executor import DriftingBernoulliOracle
from repro.generators import step_drift_by_stream
from repro.obs import MetricsRegistry, Telemetry
from repro.service import BatchReport, QueryServer
from repro.service.metrics import ROUND_COST_WINDOW, ServiceMetrics
from repro.service.server import _BatchTally
from repro.service.shared_plan import RoundStats
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec
from tests.service.reference_round import new_stats, record_probe

costs = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)


def batch_of(*rounds: RoundStats) -> BatchReport:
    """The report a server's batch tally builds from ``rounds``."""
    names = tuple(f"q{slot}" for slot in range(len(rounds[0].query_cost)))
    tally = _BatchTally.start(names)
    for stats in rounds:
        tally.add(stats, [False] * len(stats.query_cost))
    return tally.report(plan_cache_hit_rate=0.0)


def one_round(cost: float) -> BatchReport:
    """A one-round batch of one resident that paid ``cost``."""
    return batch_of(RoundStats(query_cost=[cost], query_probes=[1]))


class TestServiceMetricsPercentiles:
    def test_empty_metrics_report_zero_percentiles(self):
        metrics = ServiceMetrics()
        assert metrics.p50_round_cost == 0.0
        assert metrics.p95_round_cost == 0.0
        assert metrics.p99_round_cost == 0.0
        assert "p99" in metrics.summary()

    def test_singleton_round(self):
        metrics = ServiceMetrics()
        metrics.record_batch(one_round(2.5))
        assert metrics.p50_round_cost == pytest.approx(2.5)
        assert metrics.p99_round_cost == pytest.approx(2.5)

    def test_percentiles_route_through_histogram(self):
        metrics = ServiceMetrics()
        for cost in (1.0, 2.0, 3.0, 100.0):
            metrics.record_batch(one_round(cost))
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
            metrics.record_batch(one_round(cost))
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
            metrics.record_batch(one_round(float(i)))
        assert metrics.rounds == total
        assert metrics.total_cost == pytest.approx(sum(range(total)))
        assert len(metrics.round_costs) == ROUND_COST_WINDOW
        # The oldest 100 rounds fell out of the percentile scope.
        assert metrics.round_costs[0] == 100.0
        assert metrics.p50_round_cost >= 100.0


class TestRecordRound:
    """Rounds reach the ledger through the batch report (``record_batch``)."""

    def test_folds_aggregates_and_every_resident(self):
        stats = new_stats(2)
        record_probe(stats, 0, window_items=4, cost=6.0, fetched_items=3)
        record_probe(stats, 1, window_items=4, cost=0.0, fetched_items=0)
        record_probe(stats, 0, window_items=2, cost=1.5, fetched_items=1)
        metrics = ServiceMetrics()
        metrics.record_batch(batch_of(stats))
        # Every resident's probes and cost reach the aggregates, and the
        # ledger keeps nothing else from the round.
        assert metrics.total_probes == sum(stats.query_probes)
        assert metrics.total_cost == sum(stats.query_cost)
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
            stats = new_stats(1)
            record_probe(stats, 0, window_items=1, cost=0.5, fetched_items=1)
            metrics.record_batch(batch_of(stats))
        assert (metrics.rounds, metrics.total_cost, metrics.total_probes) == (3, 1.5, 3)
        assert metrics.round_costs == [0.5, 0.5, 0.5]


def _served(
    rounds: int, *, churn: bool, telemetry: Telemetry | None = None
) -> QueryServer:
    """Serve ``rounds`` rounds of one resident, renamed every round if ``churn``."""
    registry = StreamRegistry()
    registry.add(StreamSpec("A", 1.0), GaussianSource(seed=1))
    tree = DnfTree([[Leaf("A", 2, 1.0)]], {"A": 1.0})
    server = QueryServer(registry, BernoulliOracle(seed=0), telemetry=telemetry)
    server.register("q0", tree)
    for i in range(rounds):
        if churn:
            server.deregister(f"q{i}")
            server.register(f"q{i + 1}", tree)
        server.step()
    return server


class TestLedgerSize:
    def test_ledger_does_not_grow_with_churn(self):
        """Departed queries leave nothing behind in the lifetime ledger."""
        stable = _served(30, churn=False).metrics
        churned = _served(30, churn=True).metrics
        assert (churned.registrations, churned.deregistrations) == (31, 30)
        assert stable.rounds == churned.rounds == 30
        assert len(pickle.dumps(churned)) == len(pickle.dumps(stable))

    def test_registry_does_not_grow_with_churn(self):
        """Departed queries leave no metric cells behind in the registry."""
        stable = _served(30, churn=False, telemetry=Telemetry()).telemetry
        churned = _served(30, churn=True, telemetry=Telemetry()).telemetry
        assert stable.registry.value("repro_rounds_total") == 30
        assert churned.registry.value("repro_rounds_total") == 30
        assert len(pickle.dumps(churned.registry)) == len(pickle.dumps(stable.registry))


def _probe_order_server(telemetry: Telemetry) -> QueryServer:
    """Three one-leaf queries whose round cost depends on the summation order.

    Each pays 0.1, 0.2 or 0.3 for its one-item window: 0.6000000000000001
    summed in registration order, 0.6 in reverse.
    """
    registry = StreamRegistry()
    for i, cost in enumerate((0.1, 0.2, 0.3)):
        registry.add(StreamSpec(f"S{i}", cost), GaussianSource(seed=i))
    server = QueryServer(registry, BernoulliOracle(seed=0), telemetry=telemetry)
    for name, stream, prob in (("a", "S0", 0.8), ("b", "S1", 0.5), ("c", "S2", 0.05)):
        server.register(name, DnfTree([[Leaf(stream, 1, prob)]]))
    return server


def _drifting_server(telemetry: Telemetry) -> QueryServer:
    """Three adaptive queries whose cheap leaf drifts, so they re-plan mid-run."""
    tree = DnfTree(
        [[Leaf("cheap", 2, 0.05)], [Leaf("dear", 3, 0.6)]],
        costs={"cheap": 1.0, "dear": 5.0},
    )
    registry = StreamRegistry()
    registry.add(StreamSpec("cheap", 1.0), GaussianSource(seed=11))
    registry.add(StreamSpec("dear", 5.0), GaussianSource(seed=12))
    policy = AdaptivePolicy(window=16, threshold=0.25, min_samples=6, cooldown=4)
    server = QueryServer(registry, adaptive=policy, telemetry=telemetry)
    for q in range(3):
        drift = step_drift_by_stream(tree, 10, {"cheap": 0.3})
        server.register(f"q{q}", tree, oracle=DriftingBernoulliOracle(drift, seed=q))
    return server


def _counters(registry: MetricsRegistry) -> dict:
    return {
        (cell["name"], tuple(sorted(cell["labels"].items()))): cell["value"]
        for cell in registry.snapshot()["counters"]
    }


class TestOneRoundCost:
    """A round's cost is one number: report, ledger and histogram agree."""

    def test_report_ledger_and_histogram_agree(self):
        tel = Telemetry()
        server = _probe_order_server(tel)
        report = server.run_batch(1)
        histogram = tel.registry.get_histogram("repro_round_cost")
        assert histogram is not None
        # Every consumer sums the per-query costs in registration order.
        assert report.total_cost.hex() == server.metrics.total_cost.hex()
        assert report.total_cost.hex() == histogram.total.hex()
        assert report.round_costs == server.metrics.round_costs

    def test_many_round_report_total_is_the_ledger_total(self):
        """Both fold the round costs left to right (``sum`` compensates on
        Python 3.12+, which moves the last bits of a long batch's total)."""
        server = _probe_order_server(Telemetry())
        report = server.run_batch(64)
        assert report.total_cost.hex() == server.metrics.total_cost.hex()
        # 0.1 + 0.2 + 0.3 left to right is 0.6000000000000001.
        tally = batch_of(*(RoundStats(query_cost=[c], query_probes=[1]) for c in (0.1, 0.2, 0.3)))
        assert tally.total_cost.hex() == ((0.1 + 0.2) + 0.3).hex()

    @pytest.mark.parametrize("build", [_probe_order_server, _drifting_server])
    def test_steps_and_one_batch_leave_the_same_record(self, build):
        rounds = 25
        stepped_tel, batched_tel = Telemetry(), Telemetry()
        stepped, batched = build(stepped_tel), build(batched_tel)
        for _ in range(rounds):
            stepped.step()
        batched.run_batch(rounds)
        assert asdict(stepped.metrics) == asdict(batched.metrics)
        assert _counters(stepped_tel.registry) == _counters(batched_tel.registry)
        assert stepped.metrics.rounds == rounds
        if build is _drifting_server:
            assert batched.metrics.replans > 0
