"""Cluster control plane: placement decisions at 10^3 and 4x10^3 residents.

One row per resident-population size on ``clustered_registry(16, 4)`` +
``overlap_clustered_population`` (no cross-cluster leaves, fixed seeds),
served by a 4-shard thread cluster. Each stream cluster is one overlap
component; with cross-cluster noise, routed arrivals would bridge them
until one shard held everything. Every column is the wall time of one
control-plane call, timed with a ``perf_counter`` pair:

* ``admit_s`` — bulk admission of the residents (``register_population``:
  the overlap partition, then every shard's registrations);
* ``register_ms`` — the median of 50 routed ``register`` calls drawn from
  the same population, each joining its cluster's shard
  (``register_max_ms`` is the slowest of them);
* ``bridge_ms`` — one ``register`` of a query reading two clusters that sit
  on different shards, so the admission absorbs a component
  (``bridge_moves`` counts the queries that followed it);
* ``report_ms`` — ``partition_report()`` of the live placement;
* ``rebalance_ms`` — one unforced ``rebalance()``: the elastic policy's
  churn check, which here finds no stream read on two shards and takes no
  action;
* ``drain_ms`` — ``drain_shard`` of the smallest shard (``drain_moves``
  queries migrate through the router).

Ungated: the numbers are the control-plane row of the perf ledger. Emits
``results/control_plane.txt`` and ``results/control_plane.json``.
"""

from __future__ import annotations

import gc
import statistics
import time

from conftest import emit_json, emit_report

from repro.cluster import ClusterServer
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.experiments import ascii_table
from repro.generators import clustered_registry, overlap_clustered_population

SIZES = (1_000, 4_000)
CLUSTERS = 16
STREAMS_PER_CLUSTER = 4
SHARDS = 4
ARRIVALS = 50
SEED = 7


def timed(call):
    """``(result, wall seconds)`` of one call, after a full collection."""
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def bridging_tree(cluster: ClusterServer, costs) -> DnfTree:
    """A query on the first stream of two clusters held by different shards."""
    homes: dict[int, str] = {}
    for c in range(CLUSTERS):
        stream = f"C{c}S0"
        holders = [s.shard_id for s in cluster.shards.values() if stream in s.signature]
        if len(holders) == 1:
            homes.setdefault(holders[0], stream)
    first, second = list(homes.values())[:2]
    return DnfTree([[Leaf(first, 2, 0.5), Leaf(second, 2, 0.5)]], costs)


def measure(n: int) -> dict:
    registry = clustered_registry(CLUSTERS, STREAMS_PER_CLUSTER, seed=SEED)
    costs = registry.cost_table()
    population = overlap_clustered_population(
        n + ARRIVALS,
        registry,
        CLUSTERS,
        STREAMS_PER_CLUSTER,
        seed=SEED + 1,
    )
    resident, arrivals = population[:n], population[n:]
    cluster = ClusterServer(registry, n_shards=SHARDS, seed=SEED)
    _, admit_s = timed(lambda: cluster.register_population(resident))
    register_s = [
        timed(lambda: cluster.register(name, tree))[1] for name, tree in arrivals
    ]
    before = dict(zip(cluster.registered, map(cluster.shard_of, cluster.registered)))
    tree = bridging_tree(cluster, costs)
    _, bridge_s = timed(lambda: cluster.register("bridge", tree))
    bridge_moves = sum(cluster.shard_of(name) != sid for name, sid in before.items())
    _, report_s = timed(cluster.partition_report)
    rebalance, rebalance_s = timed(cluster.rebalance)
    victim = min(cluster.shards, key=lambda sid: (len(cluster.shards[sid]), -sid))
    drain, drain_s = timed(lambda: cluster.drain_shard(victim))
    return {
        "resident_queries": n,
        "admit_s": admit_s,
        "register_ms": statistics.median(register_s) * 1e3,
        "register_max_ms": max(register_s) * 1e3,
        "bridge_ms": bridge_s * 1e3,
        "bridge_moves": bridge_moves,
        "report_ms": report_s * 1e3,
        "rebalance_ms": rebalance_s * 1e3,
        "rebalance_moves": rebalance.moves if rebalance is not None else 0,
        "drain_ms": drain_s * 1e3,
        "drain_moves": drain.moves,
    }


class TestControlPlane:
    def test_control_plane_scaling(self):
        rows = [measure(n) for n in SIZES]
        for row in rows:
            assert row["bridge_moves"] > 0  # the bridging admission absorbed
            assert row["drain_moves"] > 0
        table = ascii_table(
            (
                "resident",
                "admit s",
                "register ms (max)",
                "bridge ms (moves)",
                "report ms",
                "rebalance ms (moves)",
                "drain ms (moves)",
            ),
            [
                (
                    f"{row['resident_queries']:,}",
                    f"{row['admit_s']:.2f}",
                    f"{row['register_ms']:.2f} ({row['register_max_ms']:.1f})",
                    f"{row['bridge_ms']:.1f} ({row['bridge_moves']})",
                    f"{row['report_ms']:.1f}",
                    f"{row['rebalance_ms']:.1f} ({row['rebalance_moves']})",
                    f"{row['drain_ms']:.1f} ({row['drain_moves']})",
                )
                for row in rows
            ],
        )
        emit_report("control_plane", table)
        emit_json(
            "control_plane",
            {
                "seed": SEED,
                "shards": SHARDS,
                "clusters": CLUSTERS,
                "arrivals": ARRIVALS,
                "rows": rows,
            },
        )
