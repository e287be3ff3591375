"""ShardRouter unit coverage: fallback/capacity branches, routing on live
shard signatures (and the rebalance regression), and PartitionReport
duplicated-spend accounting across splits and drains."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterServer, InProcessTransport, Shard, ShardRouter
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.errors import AdmissionError
from repro.generators import clustered_registry, overlap_clustered_population
from repro.service import QueryServer
from repro.streams.registry import StreamRegistry
from repro.streams.sources import UniformSource
from repro.streams.stream import StreamSpec


def registry_with(streams: list[str]) -> StreamRegistry:
    registry = StreamRegistry()
    for name in streams:
        registry.add(StreamSpec(name, 1.0), UniformSource(seed=hash(name) % 2**31))
    return registry


def tree_on(streams: list[str], items: int = 2) -> DnfTree:
    return DnfTree([[Leaf(s, items, 0.5) for s in streams]], {s: 1.0 for s in streams})


def make_shard(registry: StreamRegistry, shard_id: int, members: dict[str, list[str]]):
    transport = InProcessTransport(shard_id, QueryServer(registry))
    shard = Shard(shard_id, transport, registry.cost_table())
    for name, streams in members.items():
        shard.register(name, tree_on(streams))
    return shard


class TestRouterBranches:
    def test_route_requires_shards(self):
        router = ShardRouter(costs={"A": 1.0})
        with pytest.raises(AdmissionError):
            router.route("q", tree_on(["A"]), [])

    def test_capacity_skips_best_overlap_shard(self):
        registry = registry_with(["A", "B"])
        full = make_shard(registry, 0, {"a1": ["A"], "a2": ["A"]})
        light = make_shard(registry, 1, {"b1": ["B"]})
        router = ShardRouter(costs=registry.cost_table(), max_shard_queries=2)
        # Shard 0 has the overlap but is full: the admission must fall
        # through to the least-loaded shard with room.
        decision = router.route("newcomer", tree_on(["A"]), [full, light])
        assert decision.shard_id == 1
        assert decision.reason == "least-loaded"

    def test_capacity_exhaustion_raises(self):
        registry = registry_with(["A"])
        s0 = make_shard(registry, 0, {"a1": ["A"]})
        s1 = make_shard(registry, 1, {"a2": ["A"]})
        router = ShardRouter(costs=registry.cost_table(), max_shard_queries=1)
        with pytest.raises(AdmissionError, match="at capacity"):
            router.route("q", tree_on(["A"]), [s0, s1])

    def test_group_too_large_for_any_shard_raises(self):
        registry = registry_with(["A"])
        s0 = make_shard(registry, 0, {})
        router = ShardRouter(costs=registry.cost_table(), max_shard_queries=3)
        with pytest.raises(AdmissionError, match="group of 4"):
            router.route_group("grp", {"A": 1.0}, [s0], {0: 0}, group_size=4)

    def test_group_size_validated(self):
        router = ShardRouter(costs={"A": 1.0})
        registry = registry_with(["A"])
        shard = make_shard(registry, 0, {})
        with pytest.raises(AdmissionError):
            router.route_group("grp", {"A": 1.0}, [shard], {0: 0}, group_size=0)

    def test_least_loaded_tie_breaks_to_lower_id(self):
        registry = registry_with(["A", "B"])
        s0 = make_shard(registry, 3, {})
        s1 = make_shard(registry, 5, {})
        router = ShardRouter(costs=registry.cost_table())
        decision = router.route("cold", tree_on(["A"]), [s1, s0])
        assert decision.shard_id == 3
        assert decision.reason == "least-loaded"

    def test_group_routing_prefers_combined_overlap(self):
        registry = registry_with(["A", "B", "C"])
        a_home = make_shard(registry, 0, {"a": ["A"]})
        b_home = make_shard(registry, 1, {"b": ["B"], "b2": ["B"]})
        router = ShardRouter(costs=registry.cost_table())
        # The group spends more on A than on B: it belongs with shard 0.
        decision = router.route_group(
            "grp", {"A": 4.0, "B": 1.0}, [a_home, b_home], {0: 1, 1: 2}, group_size=2
        )
        assert decision.shard_id == 0
        assert decision.reason == "overlap"

    def test_passed_loads_decide_capacity_and_tie_break(self):
        """``loads`` is the planned occupancy, not ``len(shard)``: a drain
        routes later components against the loads its earlier picks leave."""
        registry = registry_with(["A", "B"])
        s0 = make_shard(registry, 0, {"a": ["A"]})
        s1 = make_shard(registry, 1, {"b": ["B"]})
        router = ShardRouter(costs=registry.cost_table(), max_shard_queries=3)
        loads = {0: 2, 1: 1}
        # Equal live sizes would tie-break to shard 0; the loads say 1 is lighter.
        decision = router.route_group("cold", {"C": 1.0}, [s0, s1], loads)
        assert (decision.shard_id, decision.reason) == (1, "least-loaded")
        # Shard 0 holds the overlap and fits two by live size (1 + 2 <= 3),
        # but not by its passed load (2 + 2 > 3).
        decision = router.route_group("grp", {"A": 1.0}, [s0, s1], loads, group_size=2)
        assert (decision.shard_id, decision.reason) == (1, "least-loaded")
        with pytest.raises(AdmissionError, match="at capacity"):
            router.route_group("grp", {"A": 1.0}, [s0, s1], {0: 2, 1: 2}, group_size=2)


class TestSignatureCache:
    """The router scores each shard's own lazily rebuilt signature."""

    def test_route_sees_a_registration_without_invalidation(self):
        registry = registry_with(["A", "B"])
        shard = make_shard(registry, 0, {"a": ["A"]})
        router = ShardRouter(costs=registry.cost_table())
        assert router.route("q1", tree_on(["B"]), [shard]).reason == "least-loaded"
        shard.register("b", tree_on(["B"]))
        assert router.route("q2", tree_on(["B"]), [shard]).reason == "overlap"

    def test_rebalance_invalidates_router_signatures(self):
        """Regression: a rebalance moves streams between shards; routing
        must not send new arrivals to the shard their streams just left."""
        registry = clustered_registry(3, 3, seed=61)
        population = overlap_clustered_population(24, registry, 3, 3, seed=62)
        cluster = ClusterServer(registry, n_shards=3, seed=63)
        cluster.register_population(population, method="random")
        # Route once under the degraded (random) placement.
        probe = tree_on(["C1S0", "C1S1"])
        cluster.router.route("probe", probe, list(cluster.shards.values()))
        event = cluster.rebalance()
        assert event is not None and event.moves > 0
        home = cluster.register("newcomer", probe)
        kin = cluster.shard_of("q0001")  # q0001 is anchored to cluster 1
        assert home == kin
        assert cluster.router.last_decision.reason == "overlap"
        assert cluster.partition_report().kept_fraction == 1.0


class TestDuplicatedSpendAccounting:
    def test_cut_split_then_drain_restores_accounting(self):
        """A cut split duplicates a stream's spend across two shards; the
        drain that reunites the community must bring the duplicated-spend
        accounting back to zero."""
        registry = registry_with(["A", "B", "S"])
        cluster = ClusterServer(registry, n_shards=1)

        def glued(anchor: str) -> DnfTree:
            # Heavy on the community anchor, one thin leaf on the glue
            # stream S, so label propagation sees two dense communities.
            return DnfTree(
                [[Leaf(anchor, 5, 0.5), Leaf("S", 1, 0.5)]],
                {anchor: 1.0, "S": 1.0},
            )

        for i in range(3):
            cluster.register(f"left{i}", glued("A"))
        for i in range(3):
            cluster.register(f"right{i}", glued("B"))
        assert cluster.partition_report().duplicated_stream_cost == 0.0
        event = cluster.split_shard(0, allow_cut=True)
        assert event is not None
        split_report = cluster.partition_report()
        # The glue stream S is now windowed by both shards: duplicated spend.
        assert split_report.duplicated_stream_cost > 0.0
        assert split_report.cut_weight > 0.0
        victim = min(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
        cluster.drain_shard(victim)
        drained_report = cluster.partition_report()
        assert drained_report.duplicated_stream_cost == 0.0
        assert drained_report.cut_weight == 0.0
        assert drained_report.kept_fraction == 1.0

    def test_disjoint_drain_never_duplicates(self):
        registry = clustered_registry(3, 3, seed=67)
        population = overlap_clustered_population(18, registry, 3, 3, seed=68)
        cluster = ClusterServer(registry, n_shards=3, seed=69)
        cluster.register_population(population)
        victim = max(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
        cluster.drain_shard(victim)
        report = cluster.partition_report()
        assert report.duplicated_stream_cost == 0.0
        assert report.kept_fraction == 1.0
