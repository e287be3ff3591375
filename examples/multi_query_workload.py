#!/usr/bin/env python3
"""Multi-query workloads: sharing data items *across* queries.

A sensing device rarely runs one query. This example serves three continuous
queries — a telehealth alert, an activity classifier trigger, and a
geofencing check — over the same sensors on one :class:`QueryServer`, and
measures how much the shared item cache saves compared to running each query
on its own cache (:func:`run_isolated`). The paper's intra-query sharing
argument applies verbatim one level up: items fetched for query 1 are free
for query 2 in the same round.

Run: python examples/multi_query_workload.py
"""

from repro.core.heuristics import get_scheduler
from repro.engine import BernoulliOracle
from repro.lang import parse_query
from repro.service import QueryServer, run_isolated
from repro.streams import (
    GaussianSource,
    PeriodicSource,
    RandomWalkSource,
    StreamRegistry,
    StreamSpec,
)

COSTS = {"HR": 0.4, "ACC": 0.9, "GPS": 2.5, "SPO2": 0.6}
SCHEDULER = get_scheduler("and-inc-c-over-p-dynamic")


def build_registry() -> StreamRegistry:
    registry = StreamRegistry()
    registry.add(StreamSpec("HR", COSTS["HR"]), RandomWalkSource(80, 2.5, seed=1, low=40, high=180))
    registry.add(StreamSpec("ACC", COSTS["ACC"]), PeriodicSource(1.0, 25, 0.3, seed=2))
    registry.add(StreamSpec("GPS", COSTS["GPS"]), RandomWalkSource(1.0, 0.7, seed=3, low=0, high=30))
    registry.add(StreamSpec("SPO2", COSTS["SPO2"]), GaussianSource(96.5, 1.5, seed=4))
    return registry


def build_queries():
    health = parse_query(
        "(AVG(HR,5) > 95 p=0.25 AND STD(ACC,10) < 0.5 p=0.4) OR "
        "(AVG(HR,5) < 65 p=0.2 AND MIN(SPO2,3) < 94 p=0.15)",
        costs=COSTS,
    ).as_dnf()
    activity = parse_query(
        "(STD(ACC,10) > 0.8 p=0.5 AND AVG(HR,5) > 90 p=0.3) OR AVG(GPS,4) > 2 p=0.4",
        costs=COSTS,
    ).as_dnf()
    geofence = parse_query(
        "AVG(GPS,4) > 2 p=0.4 AND MAX(GPS,8) > 5 p=0.25",
        costs=COSTS,
    ).as_dnf()
    return [("health-alert", health), ("activity", activity), ("geofence", geofence)]


def main() -> None:
    rounds = 1_000
    queries = build_queries()
    for name, tree in queries:
        print(f"{name}: {tree.size} leaves over {tree.streams}")

    # One shared oracle and one shared cache; each query brings its scheduler.
    server = QueryServer(build_registry(), BernoulliOracle(seed=5))
    for name, tree in queries:
        server.register(name, tree, scheduler=SCHEDULER)
    together = server.run_batch(rounds)
    print(f"\nshared cache ({rounds} rounds):")
    print(together.summary())

    isolated = run_isolated(
        build_registry(),
        queries,
        rounds,
        scheduler=SCHEDULER,
        oracle_factory=lambda name: BernoulliOracle(seed=5),
    )
    isolated_total = sum(isolated.values())
    print("\neach query on an isolated cache:")
    for name, total in isolated.items():
        print(f"  {name}: {total / rounds:.4f}/round")

    saving = 1.0 - together.total_cost / isolated_total
    print(
        f"\nworkload total {together.mean_round_cost:.4f}/round vs "
        f"{isolated_total / rounds:.4f} isolated -> cross-query sharing saves "
        f"{saving * 100:.1f}%"
    )
    assert together.total_cost < isolated_total


if __name__ == "__main__":
    main()
