"""Partitioner scaling: ``partition_by_overlap`` from 10^3 to 10^4 queries.

One row per population on ``clustered_registry(4, 4, seed=0)`` +
``overlap_clustered_population(n, seed=1)``, partitioned into k=4 shards:
the wall seconds of one ``partition_by_overlap`` call (its
``build_overlap_graph`` included), the shard sizes and the kept overlap
fraction. The stream clusters are disjoint (``cross``=0.0) at 10^3, 4*10^3
and 10^4 queries; the 2*10^3 row adds 5% cross-cluster leaves, so the
overlap graph is one component and the noise-cut community split runs.

Only the 10^4 row is gated: it must partition in under ``MAX_SECONDS``.

Emits ``results/partition_scaling.txt`` and ``results/partition_scaling.json``.
"""

from __future__ import annotations

import time

from conftest import emit_json, emit_report

from repro.cluster.partition import build_overlap_graph, partition_by_overlap
from repro.experiments import ascii_table
from repro.generators import clustered_registry, overlap_clustered_population

#: (queries, cross-cluster leaf probability) per row.
ROWS = ((1_000, 0.0), (4_000, 0.0), (10_000, 0.0), (2_000, 0.05))
SHARDS = 4
GATED = (10_000, 0.0)
MAX_SECONDS = 1.0


def measure(n: int, cross: float) -> dict:
    registry = clustered_registry(4, 4, seed=0)
    population = overlap_clustered_population(
        n, registry, 4, 4, cross_cluster_prob=cross, seed=1
    )
    costs = registry.cost_table()
    start = time.perf_counter()
    partition = partition_by_overlap(build_overlap_graph(population, costs), SHARDS)
    seconds = time.perf_counter() - start
    return {
        "queries": n,
        "cross_cluster_prob": cross,
        "seconds": seconds,
        "shard_sizes": list(partition.report.shard_sizes),
        "kept_fraction": partition.report.kept_fraction,
    }


class TestPartitionScaling:
    def test_partition_scaling(self):
        rows = [measure(n, cross) for n, cross in ROWS]
        table = ascii_table(
            ("queries", "cross", "partition s", "shard sizes", "kept"),
            [
                (
                    f"{row['queries']:,}",
                    f"{row['cross_cluster_prob']:.2f}",
                    f"{row['seconds']:.3f}",
                    ",".join(str(size) for size in row["shard_sizes"]),
                    f"{row['kept_fraction']:.1%}",
                )
                for row in rows
            ],
        )
        emit_report("partition_scaling", table)
        emit_json(
            "partition_scaling",
            {"shards": SHARDS, "max_seconds": MAX_SECONDS, "rows": rows},
        )
        for row in rows:
            assert sum(row["shard_sizes"]) == row["queries"]
        gated = next(
            row
            for row in rows
            if (row["queries"], row["cross_cluster_prob"]) == GATED
        )
        assert gated["seconds"] < MAX_SECONDS, (
            f"partitioning {gated['queries']:,} queries took "
            f"{gated['seconds']:.3f} s (gate {MAX_SECONDS} s)"
        )
