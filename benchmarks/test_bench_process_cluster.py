"""Process-mode cluster scaling: spawned workers vs in-process shards.

Thread-mode shards batch one after another in the calling thread, so
CPU-bound serving uses a single core no matter the cluster width. Process-mode
workers each own an interpreter; on a multi-core machine a 4-shard batch
should approach 4 cores of work. The benchmark serves the same
overlap-clustered population (identical per-name oracle streams) under
both executors and records wall time, speedup and cost parity.

Always emits ``results/process_cluster_scaling.json``. The >= 1.8x speedup
bar is asserted only when the machine exposes >= 4 usable cores — on a
single-core runner process workers cannot beat in-process shards (they pay
pipe and spawn overhead for the same serialized CPU), but cost parity must hold
bit-for-bit everywhere.
"""

from __future__ import annotations

import os
import time

from conftest import emit_json, emit_report, full_scale

from repro.cluster import ClusterServer
from repro.generators import clustered_registry, overlap_clustered_population

N_SHARDS = 4
MIN_SPEEDUP = 1.8
WARM_BATCHES = 1


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _serve(executor: str, *, n_queries: int, rounds: int, batches: int):
    """One timed serving run; returns (wall_seconds, final BatchReport)."""
    registry = clustered_registry(N_SHARDS, 4, seed=0)
    population = overlap_clustered_population(
        n_queries, registry, N_SHARDS, 4, cross_cluster_prob=0.0, seed=1
    )
    cluster = ClusterServer(registry, n_shards=N_SHARDS, executor=executor, seed=0)
    try:
        cluster.register_population(population)
        # Warm-up batches amortize plan-cache fills and (process mode)
        # worker spawn before the timed section.
        for _ in range(WARM_BATCHES):
            cluster.run_batch(rounds)
        start = time.perf_counter()
        reports = [cluster.run_batch(rounds) for _ in range(batches)]
        wall = time.perf_counter() - start
    finally:
        cluster.close()
    merged_cost = {}
    for report in reports:
        for name, cost in report.per_query_cost.items():
            merged_cost[name] = merged_cost.get(name, 0.0) + cost
    return wall, merged_cost


class TestProcessClusterScaling:
    def test_process_executor_speedup_and_parity(self):
        if full_scale():
            scale = dict(n_queries=400, rounds=30, batches=4)
        else:
            scale = dict(n_queries=120, rounds=12, batches=3)
        cores = usable_cores()

        thread_wall, thread_cost = _serve("thread", **scale)
        process_wall, process_cost = _serve("process", **scale)
        speedup = thread_wall / process_wall if process_wall > 0 else float("inf")
        gated = cores >= N_SHARDS

        lines = [
            f"{scale['n_queries']} queries on {N_SHARDS} shards, "
            f"{scale['batches']} batches x {scale['rounds']} rounds, "
            f"{cores} usable cores",
            "",
            f"thread executor:  {thread_wall:.4f}s",
            f"process executor: {process_wall:.4f}s",
            f"speedup: {speedup:.2f}x "
            + (
                f"(acceptance: >= {MIN_SPEEDUP}x on >= {N_SHARDS} cores)"
                if gated
                else f"(informational: only {cores} core(s), bar not applied)"
            ),
        ]
        emit_report("process_cluster_scaling", "\n".join(lines))
        emit_json(
            "process_cluster_scaling",
            {
                "n_queries": scale["n_queries"],
                "n_shards": N_SHARDS,
                "rounds_per_batch": scale["rounds"],
                "batches": scale["batches"],
                "usable_cores": cores,
                "thread_wall_seconds": thread_wall,
                "process_wall_seconds": process_wall,
                "speedup": speedup,
                "speedup_bar": MIN_SPEEDUP,
                "speedup_bar_applied": gated,
            },
        )

        # Cost parity is executor-independent and holds on any machine.
        assert process_cost == thread_cost, (
            "per-query costs diverged between thread and process executors"
        )
        if gated:
            assert speedup >= MIN_SPEEDUP, (
                f"process executor only {speedup:.2f}x over threads on "
                f"{cores} cores (required >= {MIN_SPEEDUP}x)"
            )
