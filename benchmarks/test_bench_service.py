"""Serving-layer throughput: run_batch at 10/100/1000 registered queries.

Measures wall-clock throughput (query-evaluations per second) and sharing
effectiveness (probes free via the shared cache, items saved, plan-cache hit
rate) with the plan cache on and off.
``REPRO_BENCH_FULL=1`` adds the 1000-query population to the default 10/100.
"""

from __future__ import annotations

import time

from conftest import emit_json, emit_report, full_scale

from repro.engine import BernoulliOracle
from repro.experiments import ascii_table
from repro.service import QueryServer, synthetic_population, synthetic_registry

ROUNDS = 20


def serve(n_queries: int, *, plan_cache: bool):
    registry = synthetic_registry(8, seed=7)
    population = synthetic_population(n_queries, registry, seed=8)
    server = QueryServer(
        registry,
        BernoulliOracle(seed=9),
        plan_cache=256 if plan_cache else None,
    )
    admit_start = time.perf_counter()
    for name, tree in population:
        server.register(name, tree)
    admit_seconds = time.perf_counter() - admit_start
    run_start = time.perf_counter()
    report = server.run_batch(ROUNDS)
    run_seconds = time.perf_counter() - run_start
    return server, report, admit_seconds, run_seconds


class TestServiceThroughput:
    def test_run_batch_throughput(self):
        populations = [10, 100, 1000] if full_scale() else [10, 100]
        rows = []
        records = []
        for n_queries in populations:
            for plan_cache in (True, False):
                server, report, admit_s, run_s = serve(n_queries, plan_cache=plan_cache)
                evals = n_queries * ROUNDS
                rows.append(
                    (
                        n_queries,
                        "on" if plan_cache else "off",
                        f"{admit_s * 1e3:.1f}",
                        f"{evals / run_s:,.0f}",
                        f"{report.total_cost:.5g}",
                        f"{report.free_probes}/{report.probes}",
                        f"{report.items_saved}",
                        f"{report.plan_cache_hit_rate:.0%}",
                    )
                )
                records.append(
                    {
                        "n_queries": n_queries,
                        "plan_cache": plan_cache,
                        "rounds": ROUNDS,
                        "admit_seconds": admit_s,
                        "run_seconds": run_s,
                        "evals_per_sec": evals / run_s,
                        "total_cost": report.total_cost,
                        "free_probes": report.free_probes,
                        "probes": report.probes,
                        "items_saved": report.items_saved,
                        "plan_cache_hit_rate": report.plan_cache_hit_rate,
                    }
                )
                assert report.rounds == ROUNDS
                # Sharing must be visible at every scale.
                assert report.items_saved > 0
        table = ascii_table(
            (
                "queries",
                "plan-cache",
                "admit ms",
                "evals/s",
                "total cost",
                "free probes",
                "items saved",
                "hit rate",
            ),
            rows,
        )
        emit_report("service_throughput", table)
        emit_json("service_throughput", {"cells": records})

