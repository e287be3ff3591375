"""Overlap graph + partitioner: structure recovery, balance, edge cases."""

from __future__ import annotations

import pytest

from repro.cluster.partition import (
    build_overlap_graph,
    partition_by_overlap,
    partition_report,
    random_partition,
    stream_weight_vector,
)
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.errors import StreamError
from repro.generators import clustered_registry, overlap_clustered_population


def tree_on(streams: list[str], items: int = 2, prob: float = 0.5) -> DnfTree:
    return DnfTree(
        [[Leaf(s, items, prob) for s in streams]], {s: 1.0 for s in streams}
    )


COSTS = {f"S{k}": 1.0 for k in range(12)}


class TestOverlapGraph:
    def test_stream_weight_vector_takes_max_window(self):
        tree = DnfTree(
            [[Leaf("A", 2, 0.5), Leaf("A", 5, 0.4)], [Leaf("B", 1, 0.3)]],
            {"A": 2.0, "B": 1.0},
        )
        weights = stream_weight_vector(tree, {"A": 2.0, "B": 1.0})
        assert weights == {"A": 10.0, "B": 1.0}

    def test_overlap_is_min_shared_weight(self):
        graph = build_overlap_graph(
            [("a", tree_on(["S0", "S1"], items=3)), ("b", tree_on(["S1", "S2"], items=1))],
            COSTS,
        )
        # Only S1 is shared; min(3*1, 1*1) = 1, kept together or cut apart.
        together = partition_report(graph, [["a", "b"]], method="one")
        assert together.intra_weight == 1.0
        assert together.cut_weight == 0.0
        apart = partition_report(graph, [["a"], ["b"]], method="two")
        assert apart.cut_weight == 1.0
        assert apart.intra_weight == 0.0

    def test_components_split_disjoint_stream_groups(self):
        graph = build_overlap_graph(
            [
                ("a", tree_on(["S0"])),
                ("b", tree_on(["S0", "S1"])),
                ("c", tree_on(["S2"])),
            ],
            COSTS,
        )
        components = sorted(sorted(c) for c in graph.components())
        assert components == [["a", "b"], ["c"]]

    def test_duplicate_names_rejected(self):
        with pytest.raises(StreamError):
            build_overlap_graph(
                [("a", tree_on(["S0"])), ("a", tree_on(["S1"]))], COSTS
            )

    def test_empty_population_rejected(self):
        with pytest.raises(StreamError):
            build_overlap_graph([], COSTS)


class TestPartitionEdgeCases:
    def test_zero_overlap_population_each_query_own_cluster(self):
        """Every query on its own stream: singletons, packed evenly, no cut."""
        population = [(f"q{k}", tree_on([f"S{k}"])) for k in range(8)]
        graph = build_overlap_graph(population, COSTS)
        assert sorted(len(c) for c in graph.components()) == [1] * 8
        partition = partition_by_overlap(graph, 4)
        assert partition.n_shards == 4
        assert sorted(partition.report.shard_sizes) == [2, 2, 2, 2]
        # No pairwise overlap exists anywhere, so nothing is kept or cut.
        assert partition.report.intra_weight == 0.0
        assert partition.report.cut_weight == 0.0
        assert partition.report.duplicated_stream_cost == 0.0

    def test_fully_overlapping_population_one_shard(self):
        """All queries on one stream: one component, never split for k."""
        population = [(f"q{k}", tree_on(["S0"])) for k in range(10)]
        partition = partition_by_overlap(build_overlap_graph(population, COSTS), 3)
        assert partition.n_shards == 1
        assert partition.report.shard_sizes == (10,)
        assert partition.report.cut_weight == 0.0
        assert partition.report.kept_fraction == 1.0

    def test_k_larger_than_cluster_count(self):
        """k=8 over 3 natural clusters: one shard per cluster, no more."""
        population = (
            [(f"a{k}", tree_on(["S0", "S1"])) for k in range(3)]
            + [(f"b{k}", tree_on(["S2", "S3"])) for k in range(3)]
            + [(f"c{k}", tree_on(["S4"])) for k in range(3)]
        )
        partition = partition_by_overlap(build_overlap_graph(population, COSTS), 8)
        assert partition.n_shards == 3
        assert partition.report.cut_weight == 0.0
        shard_sets = [set(shard) for shard in partition.shards]
        assert {"a0", "a1", "a2"} in shard_sets
        assert {"b0", "b1", "b2"} in shard_sets
        assert {"c0", "c1", "c2"} in shard_sets

    def test_k_one_is_the_unsharded_layout(self):
        population = [(f"q{k}", tree_on([f"S{k % 3}"])) for k in range(6)]
        partition = partition_by_overlap(build_overlap_graph(population, COSTS), 1)
        assert partition.n_shards == 1
        assert set(partition.shards[0]) == {name for name, _ in population}
        assert partition.report.kept_fraction == 1.0

    def test_capacity_splits_oversized_component(self):
        population = [(f"q{k}", tree_on(["S0"])) for k in range(9)]
        partition = partition_by_overlap(
            build_overlap_graph(population, COSTS), 3, max_shard_queries=3
        )
        assert partition.n_shards == 3
        assert sorted(partition.report.shard_sizes) == [3, 3, 3]

    def test_capacity_respected_when_packing_forces_splits(self):
        """Three 2-query components, k=2, cap=3: LPT must not overload a
        shard to 4 — the capacity forces splitting a component instead."""
        population = [
            (f"q{k}", tree_on([f"S{k // 2}"])) for k in range(6)
        ]  # components {q0,q1} {q2,q3} {q4,q5}
        partition = partition_by_overlap(
            build_overlap_graph(population, COSTS), 2, max_shard_queries=3
        )
        assert max(partition.report.shard_sizes) <= 3
        assert sum(partition.report.shard_sizes) == 6

    def test_capacity_too_small_rejected(self):
        population = [(f"q{k}", tree_on(["S0"])) for k in range(9)]
        with pytest.raises(StreamError):
            partition_by_overlap(
                build_overlap_graph(population, COSTS), 2, max_shard_queries=3
            )

    def test_invalid_k_rejected(self):
        graph = build_overlap_graph([("q", tree_on(["S0"]))], COSTS)
        with pytest.raises(StreamError):
            partition_by_overlap(graph, 0)


class TestPartitionQuality:
    def test_recovers_planted_clusters(self):
        registry = clustered_registry(5, 3, seed=11)
        population = overlap_clustered_population(50, registry, 5, 3, seed=12)
        graph = build_overlap_graph(population, registry.cost_table())
        partition = partition_by_overlap(graph, 5)
        assert partition.n_shards == 5
        assert partition.report.kept_fraction == 1.0
        assert partition.report.duplicated_stream_cost == 0.0
        # Queries of one planted cluster (dealt round-robin: q index % 5)
        # must co-reside.
        shard_of = partition.shard_of()
        for name, _ in population:
            home = int(name[1:]) % 5
            peer = f"q{home:04d}"
            assert shard_of[name] == shard_of[peer]

    def test_noise_glued_clusters_still_split(self):
        """Thin cross-traffic must not collapse the cluster to one shard.

        With 10% of leaves rewired across clusters the overlap graph is one
        connected component; the noise-cut pass must still recover multiple
        shards while keeping the bulk of the overlap weight (clusters that
        the noise has *genuinely* coupled may legitimately stay together, so
        the exact width is seed-dependent).
        """
        registry = clustered_registry(4, 4, seed=51)
        population = overlap_clustered_population(
            80, registry, 4, 4, cross_cluster_prob=0.1, seed=52
        )
        graph = build_overlap_graph(population, registry.cost_table())
        assert len(graph.components()) == 1  # the noise glues everything
        partition = partition_by_overlap(graph, 4)
        assert partition.n_shards >= 3
        assert partition.report.kept_fraction > 0.6

    def test_dense_clique_not_split_by_noise_cut_pass(self):
        """A clique of width > target still refuses to split: any split of a
        uniform clique keeps only ~1/k of its weight."""
        population = [(f"q{k}", tree_on(["S0", "S1"])) for k in range(12)]
        partition = partition_by_overlap(build_overlap_graph(population, COSTS), 4)
        assert partition.n_shards == 1
        assert partition.report.kept_fraction == 1.0

    def test_beats_random_partition_on_clustered_population(self):
        registry = clustered_registry(4, 4, seed=21)
        population = overlap_clustered_population(
            40, registry, 4, 4, cross_cluster_prob=0.05, seed=22
        )
        costs = registry.cost_table()
        graph = build_overlap_graph(population, costs)
        overlap = partition_by_overlap(graph, 4)
        random = random_partition(graph, 4, seed=23)
        assert overlap.report.kept_fraction > random.report.kept_fraction
        assert (
            overlap.report.duplicated_stream_cost
            <= random.report.duplicated_stream_cost
        )

    def test_report_totals_are_assignment_invariant(self):
        """intra + cut is the population's total overlap, however you shard."""
        registry = clustered_registry(3, 3, seed=31)
        population = overlap_clustered_population(
            18, registry, 3, 3, cross_cluster_prob=0.2, seed=32
        )
        costs = registry.cost_table()
        graph = build_overlap_graph(population, costs)
        overlap = partition_by_overlap(graph, 3)
        random = random_partition(graph, 3, seed=33)
        assert overlap.report.intra_weight + overlap.report.cut_weight == pytest.approx(
            random.report.intra_weight + random.report.cut_weight
        )

    def test_partition_report_rejects_bad_assignments(self):
        population = [("a", tree_on(["S0"])), ("b", tree_on(["S1"]))]
        graph = build_overlap_graph(population, COSTS)
        with pytest.raises(StreamError):
            partition_report(graph, [["a"]], method="broken")  # b missing
        with pytest.raises(StreamError):
            partition_report(graph, [["a", "b"], ["a"]], method="broken")

    def test_random_partition_covers_population(self):
        population = [(f"q{k}", tree_on([f"S{k % 2}"])) for k in range(7)]
        partition = random_partition(build_overlap_graph(population, COSTS), 3, seed=1)
        assert partition.n_shards == 3
        names = [name for shard in partition.shards for name in shard]
        assert sorted(names) == sorted(name for name, _ in population)

    def test_partition_record_is_json_ready(self):
        population = [(f"q{k}", tree_on(["S0"])) for k in range(4)]
        graph = build_overlap_graph(population, COSTS)
        record = partition_by_overlap(graph, 2).report.to_record()
        assert record["method"] == "overlap"
        assert record["n_shards"] == 1
        assert 0.0 <= record["kept_fraction"] <= 1.0
