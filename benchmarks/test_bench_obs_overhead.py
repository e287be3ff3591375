"""Telemetry overhead guard: disabled telemetry must be free.

The observability layer is designed so a server constructed without
telemetry — or with ``Telemetry(enabled=False)`` — pays only a per-batch
attribute check, never per-round or per-probe work. This micro-benchmark
enforces that contract in CI: it times ``run_batch`` in three modes
(``none``: no telemetry object at all, the pre-telemetry baseline;
``disabled``: a telemetry object with recording off; ``enabled``: full
recording) with the repeats *interleaved* so thermal/scheduler drift hits
every mode equally, takes the min over repeats as the noise-resistant
estimate, and asserts the disabled mode is within 3% of the baseline.

The enabled-mode ratio is recorded (not asserted) so the perf trajectory
of the recording path itself stays visible across commits.

A second guard covers the causal-tracing path end to end: a two-shard
*process-mode* cluster with full tracing enabled (cross-process span
propagation, per-batch trace roll-up, registry deltas) must stay within
5% of the same cluster running bare. That run also emits a sample
Chrome/Perfetto trace (``results/obs_trace_sample_chrome.json``) so every
bench-perf CI run uploads a loadable trace artifact.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import RESULTS_DIR, emit_json, emit_report, full_scale

from repro.cluster import ClusterServer
from repro.engine import BernoulliOracle
from repro.experiments import ascii_table
from repro.generators import clustered_registry, overlap_clustered_population
from repro.obs import Telemetry, build_forest, read_jsonl, to_chrome_trace
from repro.service import QueryServer, synthetic_population, synthetic_registry

N_QUERIES = 100
ROUNDS = 60
OVERHEAD_BUDGET = 1.03
TRACING_BUDGET = 1.05
CLUSTER_ROUNDS = 60
CLUSTER_BATCHES = 2

MODES = ("none", "disabled", "enabled")


def repeats() -> int:
    return 9 if full_scale() else 5


def make_telemetry(mode: str) -> Telemetry | None:
    if mode == "none":
        return None
    # In-memory only: sink I/O is a real cost of *enabled* telemetry in
    # production, but this guard isolates the instrumentation overhead.
    return Telemetry(enabled=(mode == "enabled"))


def timed_batch(mode: str) -> float:
    registry = synthetic_registry(8, seed=21)
    population = synthetic_population(N_QUERIES, registry, seed=22)
    server = QueryServer(
        registry, BernoulliOracle(seed=23), telemetry=make_telemetry(mode)
    )
    for name, tree in population:
        server.register(name, tree)
    # Warm plan/window caches so the timed region is steady-state serving.
    server.run_batch(2)
    start = time.perf_counter()
    server.run_batch(ROUNDS)
    return time.perf_counter() - start


class TestTelemetryOverhead:
    def test_disabled_telemetry_within_budget(self):
        samples: dict[str, list[float]] = {mode: [] for mode in MODES}
        for _ in range(repeats()):
            for mode in MODES:
                samples[mode].append(timed_batch(mode))
        best = {mode: min(times) for mode, times in samples.items()}
        disabled_ratio = best["disabled"] / best["none"]
        enabled_ratio = best["enabled"] / best["none"]

        rows = [
            (
                mode,
                f"{best[mode] * 1e3:.2f}",
                f"{N_QUERIES * ROUNDS / best[mode]:,.0f}",
                f"{best[mode] / best['none']:.3f}x",
            )
            for mode in MODES
        ]
        table = ascii_table(("mode", "best ms", "evals/s", "vs baseline"), rows)
        emit_report("obs_overhead", table)
        emit_json(
            "obs_overhead",
            {
                "n_queries": N_QUERIES,
                "rounds": ROUNDS,
                "repeats": repeats(),
                "best_seconds": best,
                "samples_seconds": samples,
                "disabled_ratio": disabled_ratio,
                "enabled_ratio": enabled_ratio,
                "budget": OVERHEAD_BUDGET,
            },
        )
        assert disabled_ratio <= OVERHEAD_BUDGET, (
            f"disabled-telemetry run_batch is {disabled_ratio:.3f}x the"
            f" no-telemetry baseline (budget {OVERHEAD_BUDGET}x)"
        )


def make_cluster(telemetry: Telemetry | None) -> ClusterServer:
    # Heavy trees (deep DNF, many leaves) so each round does real probe
    # work — the gate measures tracing overhead against representative
    # serving, not against a degenerate workload where fixed per-round
    # recording dominates by construction.
    registry = clustered_registry(4, 6, seed=21)
    population = overlap_clustered_population(
        48,
        registry,
        4,
        6,
        cross_cluster_prob=0.0,
        seed=22,
        n_ands=(4, 6),
        leaves_per_and=(4, 7),
        d_range=(8, 20),
    )
    cluster = ClusterServer(
        registry, n_shards=2, executor="process", telemetry=telemetry
    )
    cluster.register_population(population)
    return cluster


def timed_batches(cluster: ClusterServer, n: int) -> list[float]:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        for _ in range(CLUSTER_BATCHES):
            cluster.run_batch(CLUSTER_ROUNDS)
        times.append(time.perf_counter() - start)
    return times


class TestTracingOverhead:
    def measure_block(self, n: int, samples: dict[str, list[float]]) -> float:
        # Both clusters stay alive for the whole block and their batches
        # interleave one-for-one, so each adjacent (bare, traced) pair runs
        # under the same machine state. Wall time itself drifts by ±20%
        # across a block, so comparing minima picks mismatched states; the
        # *paired* ratio is stable, and the median over pairs rejects the
        # odd descheduled outlier without the low bias a min-of-ratios
        # would have. Worker spawn cost is deliberately outside the timed
        # region — the gate is about steady-state serving.
        pairs = []
        with make_cluster(None) as bare, make_cluster(Telemetry()) as traced:
            bare.run_batch(4)
            traced.run_batch(4)
            for _ in range(n):
                (b,) = timed_batches(bare, 1)
                (e,) = timed_batches(traced, 1)
                samples["none"].append(b)
                samples["enabled"].append(e)
                pairs.append(e / b)
        return statistics.median(pairs)

    def test_process_mode_tracing_within_budget(self):
        cluster_modes = ("none", "enabled")
        samples: dict[str, list[float]] = {mode: [] for mode in cluster_modes}
        n = 6 if full_scale() else 4
        # Two independent cluster spawns: a load spike or unlucky worker
        # placement that lasts a whole block must hit both blocks to skew
        # the verdict, because the gate takes the better block's median.
        block_medians = [self.measure_block(n, samples) for _ in range(2)]
        tracing_ratio = min(block_medians)
        best = {mode: min(times) for mode, times in samples.items()}

        rows = [
            (mode, f"{best[mode] * 1e3:.2f}", f"{best[mode] / best['none']:.3f}x")
            for mode in cluster_modes
        ]
        table = ascii_table(("mode", "best ms", "vs bare"), rows)
        emit_report("obs_tracing_overhead", table)
        emit_json(
            "obs_tracing_overhead",
            {
                "n_shards": 2,
                "executor": "process",
                "rounds_per_batch": CLUSTER_ROUNDS,
                "batches": CLUSTER_BATCHES,
                "repeats": n,
                "blocks": 2,
                "best_seconds": best,
                "samples_seconds": samples,
                "block_medians": block_medians,
                "tracing_ratio": tracing_ratio,
                "budget": TRACING_BUDGET,
            },
        )
        assert tracing_ratio <= TRACING_BUDGET, (
            f"traced process-mode run_batch is {tracing_ratio:.3f}x the"
            f" bare cluster (best block median, budget {TRACING_BUDGET}x)"
        )

    def test_sample_chrome_trace_artifact(self):
        # One sinked run (untimed — sink I/O is out of scope for the gate)
        # whose merged parent+worker trace becomes the CI trace artifact.
        sink_path = RESULTS_DIR / "obs_trace_sample.jsonl"
        telemetry = Telemetry(sink=sink_path)
        with make_cluster(telemetry) as cluster:
            cluster.run_batch(8)
            cluster.run_batch(8)
        telemetry.close()  # flush the sink before replaying it
        records = read_jsonl(sink_path)
        forest = build_forest(records)
        assert forest.orphans == [], "sample trace must be a well-formed forest"
        assert {root.pid for root in forest.roots if root.children}
        chrome = to_chrome_trace(records)
        out = RESULTS_DIR / "obs_trace_sample_chrome.json"
        out.write_text(json.dumps(chrome, indent=2, sort_keys=True))
        pids = {entry["pid"] for entry in chrome["traceEvents"]}
        assert len(pids) >= 3, "trace should span the parent and both workers"
        emit_report(
            "obs_trace_sample",
            f"{len(records)} records, {len(forest.roots)} roots, "
            f"{len(pids)} pids -> {out.name} "
            "(load in chrome://tracing or https://ui.perfetto.dev)",
        )
