"""A batch report's per-query numbers are views over its names and lists.

``BatchReport.per_query_cost`` and ``per_query_true_rate`` are
:class:`~repro.service.server.PerQuery` mappings over the batch's names
tuple (registration order) and one list each. They must read as the dicts
they replace did: equal to them, in registration order, with the same
summary text, and the same after a trip over a process shard's pipe. Only a
lookup by name builds a dict.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cluster import ClusterServer
from repro.engine import BernoulliOracle
from repro.service import PerQuery, QueryServer, synthetic_population, synthetic_registry

ROUNDS = 4


def population():
    registry = synthetic_registry(8, seed=1)
    return registry, synthetic_population(6, registry, seed=2)


def server() -> QueryServer:
    registry, queries = population()
    built = QueryServer(registry, BernoulliOracle(seed=3))
    for name, tree in queries:
        built.register(name, tree)
    return built


def cluster(executor: str) -> ClusterServer:
    registry, queries = population()
    built = ClusterServer(registry, n_shards=2, executor=executor, seed=3)
    built.register_population(queries, method="random")
    return built


class TestBatchReportViews:
    def test_views_equal_the_dicts_they_replace(self):
        """The per-query sums of the rounds' results, as dicts."""
        stepped = server()
        costs: dict[str, float] = {}
        trues: dict[str, int] = {}
        for _ in range(ROUNDS):
            for name, result in stepped.step().items():
                costs[name] = costs.get(name, 0.0) + result.cost
                trues[name] = trues.get(name, 0) + result.value
        report = server().run_batch(ROUNDS)
        rates = {name: count / ROUNDS for name, count in trues.items()}
        assert isinstance(report.per_query_cost, PerQuery)
        assert report.per_query_cost == costs and costs == report.per_query_cost
        assert report.per_query_true_rate == rates and rates == report.per_query_true_rate
        assert [cost.hex() for cost in report.per_query_cost.values()] == [
            cost.hex() for cost in costs.values()
        ]
        assert repr(report.per_query_cost) == repr(costs)

    def test_registration_order(self):
        served = server()
        order = list(reversed(served.registered))
        served.reorder(order)
        report = served.run_batch(ROUNDS)
        for view in (report.per_query_cost, report.per_query_true_rate):
            assert list(view) == order
            assert [name for name, _ in view.items()] == order
            assert list(view.values()) == [view[name] for name in order]

    def test_len_and_iteration_build_no_dict(self):
        view = server().run_batch(ROUNDS).per_query_cost
        assert len(view) == 6
        list(view)
        list(view.items())
        list(view.values())
        assert view == dict(view.items())
        assert view._index is None
        first = next(iter(view))
        assert view[first] == next(iter(view.values()))
        assert view._index is not None
        assert "nobody" not in view
        with pytest.raises(KeyError):
            view["nobody"]

    def test_a_view_pickles_as_its_lists(self):
        view = server().run_batch(ROUNDS).per_query_cost
        view[next(iter(view))]  # builds the lookup dict
        copy = pickle.loads(pickle.dumps(view))
        assert copy == view and list(copy) == list(view)
        assert copy._index is None

    def test_views_survive_a_process_shard(self):
        reports = {}
        for executor in ("thread", "process"):
            built = cluster(executor)
            try:
                reports[executor] = built.run_batch(ROUNDS)
            finally:
                built.close()
        thread, process = reports["thread"], reports["process"]
        for shard_id, report in process.shard_reports.items():
            assert isinstance(report.per_query_cost, PerQuery)
            assert list(report.per_query_cost.items()) == list(
                thread.shard_reports[shard_id].per_query_cost.items()
            )
        for view in ("per_query_cost", "per_query_true_rate"):
            merged = getattr(process, view)
            assert isinstance(merged, PerQuery)
            assert list(merged.items()) == list(getattr(thread, view).items())
            assert list(merged) == [
                name for report in process.shard_reports.values() for name in report.per_query_cost
            ]
            assert len(merged) == 6 and merged._index is None


class TestSummaryText:
    """The summaries read the views exactly as they read the dicts."""

    def test_batch_summary(self):
        assert server().run_batch(ROUNDS).summary() == (
            "batch: 4 rounds, total 60.0358 (15.009/round)\n"
            "  probes 63 (46 free), items 28 fetched / 117 saved, plan-cache hit rate"
            " 83.3%, 0 replans\n"
            "  q0000: 6.5947/round, TRUE rate 1.000\n"
            "  q0001: 1.55817/round, TRUE rate 0.750\n"
            "  q0002: 3.63248/round, TRUE rate 0.750\n"
            "  q0003: 0/round, TRUE rate 0.750\n"
            "  q0004: 0.25114/round, TRUE rate 0.750\n"
            "  q0005: 2.97246/round, TRUE rate 0.500"
        )

    def test_cluster_summary(self):
        built = cluster("thread")
        try:
            report = built.run_batch(ROUNDS)
        finally:
            built.close()
        # Fixed wall times: the rest of the text is fixed by the seeds.
        report = dataclasses.replace(
            report,
            wall_seconds=0.5,
            shard_seconds={shard_id: 0.25 for shard_id in report.shard_seconds},
        )
        assert report.summary() == (
            "cluster batch: 4 rounds x 6 queries on 2 shards\n"
            "  wall 0.500s (busiest shard 0.250s), 48 evals/s\n"
            "  total cost 98.3011, probes 68 (37 free), items 46 fetched / 107 saved\n"
            "  plan-cache hit rate 83.3%, router overlap hits 0.0%, 0 replans,"
            " 0 rebalances, 0 splits / 0 drains (width 2)\n"
            "  shard 0: 3 queries, cost 49.1505, 0.250s\n"
            "  shard 1: 3 queries, cost 49.1505, 0.250s"
        )
