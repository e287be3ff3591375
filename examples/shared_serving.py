#!/usr/bin/env python3
"""The serving layer: one server, a hundred tenants, one set of streams.

A fleet-scale deployment serves many users whose queries are mostly
isomorphic variants of a few popular shapes. This example registers 100
queries (drawn from 10 templates) on a :class:`~repro.service.QueryServer`
and shows the two headline effects:

* the plan cache admits 100 queries while paying the scheduler only ~10
  times ("pay one, get hundreds");
* the shared stream cache pays each stream window once per round for the
  whole population (the first query in registration order pays, the rest
  read it free), so the batched cost lands far below the sum of the queries
  run in isolation.

Run: python examples/shared_serving.py
"""

import time

from repro.engine import BernoulliOracle
from repro.service import (
    QueryServer,
    run_isolated,
    synthetic_population,
    synthetic_registry,
)


def build_server() -> tuple[QueryServer, list]:
    registry = synthetic_registry(n_streams=8, seed=42)
    population = synthetic_population(100, registry, n_templates=10, seed=43)
    server = QueryServer(registry, BernoulliOracle(seed=44))
    for name, tree in population:
        server.register(name, tree)
    return server, population


def main() -> None:
    server, population = build_server()
    registry = server.registry
    print(
        f"registered {len(server)} queries; plan cache scheduled "
        f"{server.plan_cache.misses} shapes ({server.plan_cache.hit_rate:.0%} hit rate)"
    )

    rounds = 50
    start = time.perf_counter()
    report = server.run_batch(rounds)
    seconds = time.perf_counter() - start
    isolated = run_isolated(registry, population, rounds)
    isolated_sum = sum(isolated.values())

    print(f"\nafter {rounds} rounds ({seconds * 1e3:.1f} ms):")
    print(f"  shared serving total cost : {report.total_cost:10.2f}")
    print(f"  sum of isolated queries   : {isolated_sum:10.2f}")
    print(f"  sharing advantage         : {isolated_sum / report.total_cost:10.2f}x")
    print(
        f"  probes free via sharing   : {report.free_probes}/{report.probes}"
        f" ({report.free_probes / report.probes:.0%})"
    )
    print(f"  items saved by the cache  : {report.items_saved}")

    print("\nlifetime metrics ledger:")
    for line in server.metrics.summary().splitlines():
        print(f"  {line}")

    # Tenants churn at runtime: drop one, admit another, keep serving.
    first = server.registered[0]
    server.deregister(first)
    server.register("latecomer", population[0][1])
    server.step()
    print(f"\nchurn: deregistered {first!r}, admitted 'latecomer', still serving "
          f"{len(server)} queries")


if __name__ == "__main__":
    main()
