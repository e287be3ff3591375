"""Tests for multi-query workloads on one server and the non-linear strategy
executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DnfTree, Leaf
from repro.core.heuristics import get_scheduler
from repro.core.nonlinear import StrategyNode, linear_as_strategy, optimal_nonlinear, strategy_cost
from repro.engine import BernoulliOracle, ScheduleExecutor, StrategyExecutor
from repro.errors import AdmissionError, StreamError
from repro.service import QueryServer, run_isolated
from repro.streams import ConstantSource, CountingCache, StreamRegistry, StreamSpec


SCHEDULER = get_scheduler("and-inc-c-over-p-dynamic")


def make_registry(streams=("A", "B", "C")):
    registry = StreamRegistry()
    for idx, name in enumerate(streams):
        registry.add(StreamSpec(name, float(idx + 1)), ConstantSource(0.0))
    return registry


class TestStrategyExecutor:
    def test_mean_cost_matches_strategy_cost(self):
        tree = DnfTree(
            [[Leaf("A", 2, 0.6), Leaf("B", 1, 0.4)], [Leaf("A", 1, 0.7)]],
            {"A": 2.0, "B": 1.0},
        )
        strategy, expected = optimal_nonlinear(tree)
        oracle = BernoulliOracle(seed=3)
        total = 0.0
        n = 20_000
        for _ in range(n):
            executor = StrategyExecutor(tree, CountingCache(tree.costs), oracle)
            total += executor.run(strategy).cost
        assert total / n == pytest.approx(expected, rel=0.03)

    def test_linear_embedding_executes_identically(self, rng):
        from tests.conftest import random_small_dnf

        for _ in range(10):
            tree = random_small_dnf(rng)
            schedule = tuple(int(x) for x in rng.permutation(tree.size))
            strategy = linear_as_strategy(tree, schedule)
            seed = int(rng.integers(0, 2**31))
            linear = ScheduleExecutor(
                tree, CountingCache(tree.costs), BernoulliOracle(seed=seed)
            ).run(schedule)
            nonlinear = StrategyExecutor(
                tree, CountingCache(tree.costs), BernoulliOracle(seed=seed)
            ).run(strategy)
            # Same oracle draws in the same evaluation order -> identical runs.
            assert nonlinear.cost == pytest.approx(linear.cost)
            assert nonlinear.value == linear.value
            assert nonlinear.evaluated == linear.evaluated

    def test_rejects_malformed_strategy(self):
        tree = DnfTree([[Leaf("A", 1, 0.5), Leaf("B", 1, 0.5)]], {"A": 1.0, "B": 1.0})
        truncated = StrategyNode(0, None, None)  # on_true leaves query open
        executor = StrategyExecutor(tree, CountingCache(tree.costs), BernoulliOracle(seed=1))
        with pytest.raises(StreamError):
            for _ in range(64):  # some draw will take the TRUE branch
                executor.run(truncated)


class TestQueryWorkload:
    """Several queries over one shared cache, served by :class:`QueryServer`."""

    def make_queries(self):
        health = DnfTree(
            [[Leaf("A", 3, 0.4), Leaf("B", 1, 0.5)]], {"A": 1.0, "B": 2.0}
        )
        context = DnfTree(
            [[Leaf("A", 2, 0.6)], [Leaf("C", 1, 0.3)]], {"A": 1.0, "C": 3.0}
        )
        return [("health", health), ("context", context)]

    def serve(self, queries, registry, oracle):
        server = QueryServer(registry, oracle)
        for name, tree in queries:
            server.register(name, tree, scheduler=SCHEDULER)
        return server

    def test_runs_and_reports(self):
        server = self.serve(self.make_queries(), make_registry(), BernoulliOracle(seed=0))
        report = server.run_batch(30)
        assert report.rounds == 30
        assert set(report.per_query_cost) == {"health", "context"}
        assert report.total_cost == pytest.approx(
            sum(report.per_query_cost.values())
        )
        assert "batch" in report.summary()

    def test_cross_query_sharing_saves_energy(self):
        """Serving both queries on one cache must cost less than running each
        alone (stream A is shared across queries)."""
        queries = self.make_queries()
        rounds = 200
        server = self.serve(queries, make_registry(), BernoulliOracle(seed=1))
        together = server.run_batch(rounds)
        alone = run_isolated(
            make_registry(),
            queries,
            rounds,
            scheduler=SCHEDULER,
            oracle_factory=lambda name: BernoulliOracle(seed=1),
        )
        assert together.total_cost < sum(alone.values()) - 1e-9

    def test_validation(self):
        queries = self.make_queries()
        server = self.serve(queries, make_registry(), BernoulliOracle(seed=0))
        with pytest.raises(AdmissionError):
            server.register("health", queries[0][1])
        with pytest.raises(StreamError):
            self.serve(queries, make_registry(("A",)), BernoulliOracle(seed=0))
        with pytest.raises(StreamError):
            server.run_batch(0)
