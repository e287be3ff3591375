"""Cluster serving benchmark: K overlap shards vs the unsharded server.

The benchmark serves one overlap-clustered population (identical per-name
oracle streams) three ways: on one server, on K shards cut along stream
overlap and on K shards cut at random. Every server runs a round as one
set-at-a-time kernel over per-resident rows (step *k* of every schedule at
once, then each stream's widening windows fetched in one call), so a
round's work grows linearly with its residents and K shards of 1/K the
population do about the work of one server between them. It asserts:

* K-shard serving reaches >= 1.5x the single-shard throughput (the
  sharding acceptance bar). The shards of a thread cluster serve a batch
  one after another, and with a linear round on every server the ratio
  reads about 1x on two cores (0.98x in the committed results), so the
  gate fails there; it is left standing until it is re-based on the
  current round;
* the stream-overlap partition's total cost equals the unsharded server's
  exactly (sharding where overlap lives loses nothing), while the random
  partition of the same width pays measurably more (sharing cut).

Emits ``results/cluster_scaling.txt`` and the machine-readable
``results/cluster_scaling.json`` perf record tracked across PRs.
``REPRO_BENCH_FULL=1`` scales the population an order of magnitude up.
"""

from __future__ import annotations

from conftest import emit_json, emit_report, full_scale

from repro.experiments import ascii_table
from repro.experiments.cluster import run_cluster_compare, verify_cluster_parity

MIN_SPEEDUP = 1.5


class TestClusterScaling:
    def test_sharded_throughput_and_cost_parity(self):
        if full_scale():
            kwargs = dict(n_queries=2000, n_clusters=16, rounds=10)
        else:
            kwargs = dict(n_queries=300, n_clusters=8, rounds=8)
        report = run_cluster_compare(streams_per_cluster=4, seed=0, **kwargs)
        single = report.result("single")
        sharded = report.result("overlap-sharded")
        random = report.result("random-sharded")
        speedup = report.speedup("overlap-sharded")

        lines = [
            f"{report.n_queries} queries in {report.n_clusters} stream clusters, "
            f"{report.rounds} rounds/batch",
            "",
            ascii_table(report.summary_headers(), report.summary_rows()),
            "",
            f"overlap-sharded vs single-shard throughput: {speedup:.2f}x "
            f"(acceptance: >= {MIN_SPEEDUP}x)",
            f"random-sharded vs single-shard throughput:  "
            f"{report.speedup('random-sharded'):.2f}x",
            f"total cost: single {single.total_cost:.6g}, overlap-sharded "
            f"{sharded.total_cost:.6g} (equal), random-sharded "
            f"{random.total_cost:.6g} ({random.total_cost / single.total_cost:.2f}x)",
        ]
        emit_report("cluster_scaling", "\n".join(lines))
        emit_json("cluster_scaling", report.to_record())

        # Throughput: the sharding acceptance bar.
        assert speedup >= MIN_SPEEDUP, (
            f"overlap-sharded only {speedup:.2f}x over single-shard "
            f"(required >= {MIN_SPEEDUP}x)"
        )
        # Cost: overlap sharding loses nothing...
        assert abs(sharded.total_cost - single.total_cost) <= 1e-6 * single.total_cost
        # ...while overlap-blind sharding of the same width pays for the cut.
        assert random.total_cost > single.total_cost * 1.05
        assert sharded.partition.kept_fraction == 1.0
        assert random.partition.kept_fraction < 1.0

    def test_differential_parity_sharded_vs_unsharded(self):
        """Per-query costs/outcomes: K shards == one QueryServer, per seed."""
        deltas = verify_cluster_parity(
            n_queries=120 if full_scale() else 40,
            n_clusters=4,
            rounds=10,
            seed=0,
        )
        assert max(deltas.values()) == 0.0
