"""Differential tests: the per-stream partitioner against the exact pairwise one.

``partition_by_overlap``, ``shard_split_pieces`` and ``partition_report``
must reproduce :mod:`tests.cluster.reference_partition` exactly — same
shards, same community pieces and the same report bits — on populations
built so that overlap sums tie often and float sums of them would not.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.partition import (
    build_overlap_graph,
    partition_by_overlap,
    shard_split_pieces,
)
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.generators import clustered_registry, overlap_clustered_population
from tests.cluster.reference_partition import (
    reference_partition,
    report_weights,
    split_pieces,
)

STREAMS = "ABCDEF"


def population_of(rows: list[list[tuple[str, int]]], costs: dict[str, float]):
    """One single-term query per row of ``(stream, items)`` leaves."""
    return [
        (
            f"q{index}",
            DnfTree([[Leaf(stream, items, 0.5) for stream, items in row]], costs),
        )
        for index, row in enumerate(rows)
    ]


#: Every stream costs 0.1, and 0.1 + 0.2 == 3 * 0.1 in float: two label
#: pulls of the community split tie in float but not in exact arithmetic.
TIE_ROWS = [
    [("C", 3), ("B", 2)],
    [("D", 3), ("C", 3)],
    [("B", 1), ("D", 2)],
    [("D", 3)],
    [("A", 2), ("B", 3)],
    [("B", 3)],
]
TIE_COSTS = {stream: 0.1 for stream in "ABCD"}


@st.composite
def cases(draw):
    """Tie-heavy populations: few streams, costs 0.1/0.3, items 1-3."""
    n_streams = draw(st.integers(2, 6))
    costs = {
        stream: draw(st.sampled_from((0.1, 0.3))) for stream in STREAMS[:n_streams]
    }
    leaf = st.tuples(st.sampled_from(sorted(costs)), st.sampled_from((1, 2, 3)))
    rows = draw(st.lists(st.lists(leaf, min_size=1, max_size=3), min_size=1, max_size=14))
    k = draw(st.integers(1, 6))
    least = -(-len(rows) // k)
    cap = draw(st.none() | st.integers(least, max(least, len(rows))))
    return rows, costs, k, cap


class TestPartitionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(case=cases())
    @example(case=(TIE_ROWS, TIE_COSTS, 2, None))
    def test_tie_heavy_populations(self, case):
        rows, costs, k, cap = case
        population = population_of(rows, costs)
        graph = build_overlap_graph(population, costs)
        partition = partition_by_overlap(graph, k, max_shard_queries=cap)
        assert partition.shards == reference_partition(graph, k, max_shard_queries=cap)
        report = partition.report
        got = (report.intra_weight, report.cut_weight, report.duplicated_stream_cost)
        want = report_weights(graph, partition.shards)
        assert [w.hex() for w in got] == [w.hex() for w in want]
        assert shard_split_pieces(graph, allow_cut=True) == split_pieces(
            graph, allow_cut=True
        )

    def test_float_tie_is_decided_exactly(self):
        """Summed in float, a pull tie collapses the community split onto one
        label and the population onto one shard; exactly, it splits in two."""
        population = population_of(TIE_ROWS, TIE_COSTS)
        partition = partition_by_overlap(build_overlap_graph(population, TIE_COSTS), 2)
        assert partition.shards == (("q0", "q1", "q2", "q3"), ("q4", "q5"))

    def test_noisy_clustered_population(self):
        registry = clustered_registry(4, 4, seed=0)
        population = overlap_clustered_population(
            200, registry, 4, 4, cross_cluster_prob=0.1, seed=0
        )
        costs = registry.cost_table()
        graph = build_overlap_graph(population, costs)
        partition = partition_by_overlap(graph, 4)
        assert partition.shards == reference_partition(graph, 4)
        assert partition.report.shard_sizes == (66, 60, 41, 33)
