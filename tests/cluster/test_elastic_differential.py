"""Elasticity differential harness (hypothesis stateful).

The elastic cluster's core guarantee: *topology is invisible to cost*. Any
sequence of admissions, departures, shard splits, drains, resizes, forced
rebalances that cut no overlap edge and bridging admissions (which pull the
overlap components they join onto one shard), interleaved with serving
batches, must produce per-query
costs and outcomes bit-identical to one unsharded :class:`QueryServer`
driven through the same admissions/departures/batches on the same seeds —
migrations transplant oracles, plans, cache state and clocks, so a query
can never tell it moved.

The machine mirrors every population op onto both systems, fires topology
ops only at the cluster (they are no-ops for the oracle server) and
compares the full per-query cost/outcome maps after every batch with exact
float equality.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterServer, default_oracle_factory
from repro.cluster.partition import build_overlap_graph, partition_by_overlap
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.generators import clustered_registry, overlap_clustered_population
from repro.service import QueryServer

N_CLUSTERS = 3
STREAMS_PER_CLUSTER = 3
POOL_SIZE = 24


class ElasticParityMachine(RuleBasedStateMachine):
    """Random split/drain/resize/rebalance/admit/bridge/deregister/batch
    sequences vs oracle."""

    @initialize(seed=st.integers(0, 3))
    def setup(self, seed: int) -> None:
        env_seed = seed * 101
        self.registry = clustered_registry(
            N_CLUSTERS, STREAMS_PER_CLUSTER, seed=env_seed
        )
        self.pool = overlap_clustered_population(
            POOL_SIZE,
            self.registry,
            N_CLUSTERS,
            STREAMS_PER_CLUSTER,
            cross_cluster_prob=0.0,
            seed=env_seed + 1,
        )
        self.cluster = ClusterServer(self.registry, n_shards=2, seed=seed + 7)
        self.single = QueryServer(self.registry)
        self.factory = default_oracle_factory(seed + 7)
        self.next_index = 0
        self.bridges = 0
        self.trees = dict(self.pool)
        self.live: list[str] = []
        self._admit_next()

    # -- population ops (mirrored on both systems) -----------------------

    def _admit(self, name: str, tree) -> None:
        self.cluster.register(name, tree)
        self.single.register(name, tree, oracle=self.factory(name))
        self.live.append(name)

    def _admit_next(self) -> None:
        name, tree = self.pool[self.next_index]
        self.next_index += 1
        self._admit(name, tree)

    @precondition(lambda self: self.next_index < len(self.pool))
    @rule()
    def admit(self) -> None:
        self._admit_next()

    @rule(
        first=st.integers(0, N_CLUSTERS * STREAMS_PER_CLUSTER - 1),
        hop=st.integers(1, N_CLUSTERS - 1),
        other=st.integers(0, STREAMS_PER_CLUSTER - 1),
        items=st.integers(1, 3),
    )
    def bridge(self, first: int, hop: int, other: int, items: int) -> None:
        """A 2-leaf query over streams of two clusters: the cluster absorbs
        the components it bridges onto its home shard."""
        cluster, stream = divmod(first, STREAMS_PER_CLUSTER)
        streams = (f"C{cluster}S{stream}", f"C{(cluster + hop) % N_CLUSTERS}S{other}")
        tree = DnfTree(
            [[Leaf(s, items, 0.5) for s in streams]], self.registry.cost_table()
        )
        self.bridges += 1
        self.trees[f"bridge{self.bridges}"] = tree
        self._admit(f"bridge{self.bridges}", tree)

    @precondition(lambda self: len(self.live) > 1)
    @rule(position=st.integers(0, POOL_SIZE - 1))
    def deregister(self, position: int) -> None:
        name = self.live.pop(position % len(self.live))
        self.cluster.deregister(name)
        self.single.deregister(name)

    # -- topology ops (cluster only; must be invisible) ------------------

    @rule(position=st.integers(0, 7), into=st.integers(2, 3))
    def split(self, position: int, into: int) -> None:
        candidates = [
            sid for sid in sorted(self.cluster.shards)
            if len(self.cluster.shards[sid]) >= 2
        ]
        if not candidates:
            return
        self.cluster.split_shard(candidates[position % len(candidates)], into=into)

    @rule(position=st.integers(0, 7))
    def drain(self, position: int) -> None:
        if self.cluster.n_shards < 2:
            return
        shard_ids = sorted(self.cluster.shards)
        self.cluster.drain_shard(shard_ids[position % len(shard_ids)])

    @rule(width=st.integers(1, 5))
    def resize(self, width: int) -> None:
        self.cluster.resize(width)

    @rule()
    def rebalance(self) -> None:
        """A forced rebalance, unless its placement cuts an overlap edge.

        The partitioner may cut thin glue (a bridge query, say) for balance;
        a cut duplicates stream spend by design, so per-query costs are
        placement-invariant only for cut-free placements (as the split rule
        keeps ``allow_cut`` off).
        """
        population = [(name, self.trees[name]) for name in self.cluster.registered]
        candidate = partition_by_overlap(
            build_overlap_graph(population, self.registry.cost_table()),
            self.cluster.n_shards,
        )
        if candidate.report.cut_weight == 0.0:
            self.cluster.rebalance(force=True)

    # -- the differential ------------------------------------------------

    @rule(rounds=st.integers(1, 3))
    def run_batch(self, rounds: int) -> None:
        cluster_report = self.cluster.run_batch(rounds)
        single_report = self.single.run_batch(rounds)
        assert cluster_report.per_query_cost == single_report.per_query_cost, (
            "per-query costs diverged after a topology change: "
            f"{sorted(set(cluster_report.per_query_cost.items()) ^ set(single_report.per_query_cost.items()))}"
        )
        assert (
            cluster_report.per_query_true_rate == single_report.per_query_true_rate
        ), "per-query outcomes diverged after a topology change"

    @invariant()
    def populations_agree(self) -> None:
        assert len(self.cluster) == len(self.single)
        assert set(self.cluster.registered) == set(self.single.registered)
        # Every query is resident on exactly the shard the cluster says.
        resident = [
            name for shard in self.cluster.shards.values() for name in shard.names
        ]
        assert sorted(resident) == sorted(self.cluster.registered)
        for name in self.cluster.registered:
            assert name in self.cluster.shards[self.cluster.shard_of(name)]


# Enough examples/steps to reliably reach topology-op -> batch sequences on
# moved queries (verified by mutation testing: disabling the migration cache
# transplant or clock sync makes this suite fail); the CI profile
# (--hypothesis-profile=ci) trims example counts further for speed.
ElasticParityMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)

TestElasticParity = ElasticParityMachine.TestCase
