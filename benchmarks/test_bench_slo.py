"""SLO capacity curve: churn workloads at increasing registration rates.

Drives a fixed-size query population through repeated ``run_batch`` calls
while churning it between batches (deregister the oldest ``rate`` queries,
register ``rate`` fresh ones), with the full telemetry layer attached and
writing its JSONL sink into ``benchmarks/results/`` so the CI artifact
carries the raw traces alongside the summary.

The emitted perf record is a capacity curve: one point per registration
rate with the sustained throughput (query-evaluations per second, queries
per round) against the tail round latency (p50/p99 of
``repro_round_seconds``) and tail round cost (p99 of ``repro_round_cost``)
pulled from the telemetry registry — i.e. the numbers an operator would
read off the ``repro metrics`` dashboard to pick a sustainable load.
"""

from __future__ import annotations

import time

from conftest import RESULTS_DIR, emit_json, emit_report, full_scale

from repro.engine import BernoulliOracle
from repro.experiments import ascii_table
from repro.obs import (
    Telemetry,
    attribute,
    build_forest,
    latest_snapshot,
    read_jsonl,
)
from repro.service import QueryServer, synthetic_population, synthetic_registry

BATCHES = 6
ROUNDS_PER_BATCH = 8


def churn_rates() -> list[int]:
    return [0, 2, 8, 32] if full_scale() else [0, 2, 8]


def base_queries() -> int:
    return 128 if full_scale() else 32


def run_churn_workload(rate: int, sink_path) -> dict:
    """One capacity-curve point: churn ``rate`` queries between batches."""
    n_base = base_queries()
    registry = synthetic_registry(8, seed=11)
    # One pool for the base population plus every churn replacement, so
    # names never collide and each admitted tree is genuinely new.
    pool = synthetic_population(n_base + rate * BATCHES, registry, seed=13 + rate)
    telemetry = Telemetry(sink=sink_path)
    server = QueryServer(registry, BernoulliOracle(seed=17), telemetry=telemetry)
    for name, tree in pool[:n_base]:
        server.register(name, tree)
    next_admit = n_base

    resident: list[str] = [name for name, _ in pool[:n_base]]
    wall_start = time.perf_counter()
    for _ in range(BATCHES):
        server.run_batch(ROUNDS_PER_BATCH)
        for _ in range(rate):
            server.deregister(resident.pop(0))
            name, tree = pool[next_admit]
            server.register(name, tree)
            resident.append(name)
            next_admit += 1
    wall_seconds = time.perf_counter() - wall_start
    telemetry.write_snapshot()
    telemetry.close()

    total_rounds = BATCHES * ROUNDS_PER_BATCH
    reg = telemetry.registry
    round_seconds = reg.get_histogram("repro_round_seconds")
    round_cost = reg.get_histogram("repro_round_cost")
    assert round_seconds is not None and round_cost is not None
    assert round_seconds.count == total_rounds
    assert reg.value("repro_rounds_total") == total_rounds

    # The sink must replay: the last record is a snapshot with metrics.
    records = read_jsonl(sink_path)
    snapshot = latest_snapshot(records)
    assert snapshot is not None and "metrics" in snapshot

    # Acceptance gate for the attribution pipeline: on this workload the
    # batch spans' phase accounting must explain >= 95% of measured batch
    # wall time — i.e. ``repro trace --format critical-path`` over this
    # sink attributes the batch almost entirely to named buckets.
    forest = build_forest(records)
    batch_roots = forest.batch_roots()
    assert len(batch_roots) == BATCHES
    assert forest.orphans == []
    wall = sum(root.dur for root in batch_roots)
    busy = sum(attribute(root).busy_seconds for root in batch_roots)
    attribution_coverage = busy / wall
    assert attribution_coverage >= 0.95, (
        f"phase attribution explains only {attribution_coverage:.1%} of "
        f"batch wall time at churn rate {rate} (need >= 95%)"
    )

    evals = n_base * total_rounds
    point = {
        "rate": rate,
        "queries_per_round": n_base,
        "batches": BATCHES,
        "rounds_per_batch": ROUNDS_PER_BATCH,
        "total_rounds": total_rounds,
        "wall_seconds": wall_seconds,
        "evals_per_sec": evals / wall_seconds,
        "p50_round_seconds": round_seconds.percentile(50.0),
        "p99_round_seconds": round_seconds.percentile(99.0),
        "p99_round_cost": round_cost.percentile(99.0),
        "mean_round_cost": round_cost.mean,
        "churned_queries": rate * BATCHES,
        "telemetry_records": telemetry.tracer.emitted,
        "telemetry_sink": sink_path.name,
        "attribution_coverage": attribution_coverage,
    }
    assert point["p99_round_seconds"] >= point["p50_round_seconds"] > 0.0
    return point


class TestSloCapacity:
    def test_capacity_curve(self):
        RESULTS_DIR.mkdir(exist_ok=True)
        curve = []
        for rate in churn_rates():
            sink = RESULTS_DIR / f"slo_telemetry_rate{rate:02d}.jsonl"
            curve.append(run_churn_workload(rate, sink))
        # More churn must never *increase* the resident population.
        assert len({point["queries_per_round"] for point in curve}) == 1
        rows = [
            (
                point["rate"],
                point["queries_per_round"],
                f"{point['evals_per_sec']:,.0f}",
                f"{point['p50_round_seconds'] * 1e6:.1f}",
                f"{point['p99_round_seconds'] * 1e6:.1f}",
                f"{point['p99_round_cost']:.5g}",
                point["telemetry_records"],
                f"{point['attribution_coverage']:.1%}",
            )
            for point in curve
        ]
        table = ascii_table(
            (
                "churn/batch",
                "queries/round",
                "evals/s",
                "p50 round us",
                "p99 round us",
                "p99 round cost",
                "trace records",
                "attributed",
            ),
            rows,
        )
        emit_report("slo_capacity", table)
        emit_json("slo_capacity", {"curve": curve})
