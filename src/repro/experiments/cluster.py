"""Cluster-serving experiment: 1 shard vs K overlap shards vs K random shards.

The unsharded :class:`~repro.service.QueryServer` serves the whole
population in one round on one thread, even though with many disjoint
interest groups most queries can never share a window. The experiment quantifies what stream-overlap
sharding buys on an overlap-clustered population, against both the
single-shard baseline and an overlap-*blind* random partition of the same
width (which shows the win is the partition quality, not just the smaller
shard size):

* wall-clock serving throughput (query evaluations per second);
* total expected-cost delta (cut overlap = sharing lost across shards);
* partition quality (kept overlap weight, duplicated stream spend).

:func:`run_cluster_compare` drives all three modes on identical populations
and (per query name) identical oracle streams; :func:`verify_cluster_parity`
is the differential check that a stream-disjoint sharded run reproduces the
unsharded server's per-query costs and outcomes exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.adaptive.elastic import ElasticPolicy
from repro.cluster.cluster import ClusterServer, default_oracle_factory
from repro.cluster.partition import PartitionReport
from repro.errors import StreamError
from repro.generators.churn import churn_schedule, events_by_batch
from repro.obs import Telemetry
from repro.generators.overlap_populations import (
    clustered_registry,
    overlap_clustered_population,
)
from repro.service.server import DEFAULT_SCHEDULER, QueryServer

__all__ = [
    "ClusterModeResult",
    "ClusterCompareReport",
    "ElasticSimReport",
    "default_elastic_policy",
    "run_cluster_compare",
    "run_elastic_sim",
    "verify_cluster_parity",
    "verify_elastic_parity",
]


@dataclass(frozen=True)
class ClusterModeResult:
    """One serving mode's outcome on the common population."""

    label: str
    n_shards: int
    wall_seconds: float
    evals: int
    total_cost: float
    probes: int
    free_probes: int
    items_saved: int
    plan_cache_hit_rate: float
    replans: int
    partition: PartitionReport

    @property
    def throughput(self) -> float:
        return self.evals / self.wall_seconds if self.wall_seconds > 0 else float("inf")


@dataclass
class ClusterCompareReport:
    """All modes side by side, plus the population's shape."""

    n_queries: int
    n_clusters: int
    rounds: int
    cross_cluster_prob: float
    results: list[ClusterModeResult]

    def result(self, label: str) -> ClusterModeResult:
        for result in self.results:
            if result.label == label:
                return result
        raise StreamError(f"no mode labelled {label!r} in this report")

    def speedup(self, label: str, over: str = "single") -> float:
        return self.result(label).throughput / self.result(over).throughput

    @staticmethod
    def summary_headers() -> tuple[str, ...]:
        return (
            "mode",
            "shards",
            "wall s",
            "evals/s",
            "total cost",
            "kept overlap",
            "dup spend",
            "free probes",
            "hit rate",
        )

    def summary_rows(self) -> list[tuple]:
        rows = []
        for result in self.results:
            rows.append(
                (
                    result.label,
                    result.n_shards,
                    f"{result.wall_seconds:.3f}",
                    f"{result.throughput:,.0f}",
                    f"{result.total_cost:.6g}",
                    f"{result.partition.kept_fraction:.1%}",
                    f"{result.partition.duplicated_stream_cost:.4g}",
                    f"{result.free_probes}/{result.probes}",
                    f"{result.plan_cache_hit_rate:.0%}",
                )
            )
        return rows

    def to_record(self) -> dict:
        """JSON-ready record for the benchmark trajectory."""
        return {
            "n_queries": self.n_queries,
            "n_clusters": self.n_clusters,
            "rounds": self.rounds,
            "cross_cluster_prob": self.cross_cluster_prob,
            "modes": [
                {
                    "label": result.label,
                    "n_shards": result.n_shards,
                    "wall_seconds": result.wall_seconds,
                    "throughput": result.throughput,
                    "total_cost": result.total_cost,
                    "partition": result.partition.to_record(),
                }
                for result in self.results
            ],
            "sharded_over_single": self.speedup("overlap-sharded"),
            "random_over_single": self.speedup("random-sharded"),
        }


def _build_environment(
    n_queries: int,
    n_clusters: int,
    streams_per_cluster: int,
    cross_cluster_prob: float,
    seed: int,
    rounds: int,
    warmup: int,
):
    """Fresh registry + population for one mode, tapes pre-generated.

    Pre-generating the source tapes keeps lazy item generation out of the
    timed window, so mode order cannot bias the throughput comparison.
    """
    registry = clustered_registry(n_clusters, streams_per_cluster, seed=seed)
    population = overlap_clustered_population(
        n_queries,
        registry,
        n_clusters,
        streams_per_cluster,
        cross_cluster_prob=cross_cluster_prob,
        seed=seed + 1,
    )
    horizon = warmup + rounds + max(
        leaf.items for _, tree in population for leaf in tree.leaves
    )
    for name in registry.names:
        registry.source(name).value_at(horizon)
    return registry, population


def run_cluster_compare(
    *,
    n_queries: int = 300,
    n_clusters: int = 8,
    n_shards: int | None = None,
    streams_per_cluster: int = 4,
    rounds: int = 10,
    cross_cluster_prob: float = 0.0,
    executor: str = "thread",
    scheduler: str = DEFAULT_SCHEDULER,
    warmup: int = 64,
    seed: int = 0,
    telemetry: "Telemetry | None" = None,
) -> ClusterCompareReport:
    """Serve one overlap-clustered population three ways and compare.

    Modes: ``single`` (1 shard — the unsharded baseline),
    ``overlap-sharded`` (the stream-overlap partition on ``n_shards``
    shards) and ``random-sharded`` (same width, overlap-blind
    placement). Every mode rebuilds the identical environment per ``seed``
    and draws per-query oracles by name, so cost differences are placement
    effects, not sampling noise.

    ``telemetry`` instruments the *overlap-sharded* mode only (the mode the
    comparison is about); wiring it into all three would interleave three
    unrelated runs in one trace.
    """
    if n_shards is None:
        n_shards = n_clusters
    modes = [
        ("single", 1, "overlap"),
        ("overlap-sharded", n_shards, "overlap"),
        ("random-sharded", n_shards, "random"),
    ]
    results: list[ClusterModeResult] = []
    for label, width, method in modes:
        registry, population = _build_environment(
            n_queries,
            n_clusters,
            streams_per_cluster,
            cross_cluster_prob,
            seed,
            rounds,
            warmup,
        )
        cluster = ClusterServer(
            registry,
            n_shards=width,
            # The single-shard baseline stays in-process even under
            # executor="process": it is the unsharded reference, and one
            # worker process would only add pipe overhead to it.
            executor=executor if label != "single" else "thread",
            scheduler=scheduler,
            warmup=warmup,
            seed=seed,
            telemetry=telemetry if label == "overlap-sharded" else None,
        )
        partition = cluster.register_population(population, method=method)
        report = cluster.run_batch(rounds)
        cluster.close()
        results.append(
            ClusterModeResult(
                label=label,
                n_shards=len(report.shard_reports),
                # The report's own wall clock, so this table's evals/s and
                # ClusterReport.throughput cannot disagree for the same run.
                wall_seconds=report.wall_seconds,
                evals=report.evals,
                total_cost=report.total_cost,
                probes=report.probes,
                free_probes=report.free_probes,
                items_saved=report.items_saved,
                plan_cache_hit_rate=report.plan_cache_hit_rate,
                replans=report.replans,
                partition=partition.report,
            )
        )
    return ClusterCompareReport(
        n_queries=n_queries,
        n_clusters=n_clusters,
        rounds=rounds,
        cross_cluster_prob=cross_cluster_prob,
        results=results,
    )


def verify_cluster_parity(
    *,
    n_queries: int = 60,
    n_clusters: int = 4,
    streams_per_cluster: int = 4,
    rounds: int = 8,
    executor: str = "thread",
    seed: int = 0,
    atol: float = 1e-9,
) -> dict[str, float]:
    """Differential check: K-shard serving == unsharded serving, per query.

    Runs a stream-disjoint clustered population through a ``n_clusters``-shard
    :class:`ClusterServer` and through one unsharded :class:`QueryServer`
    with the same per-name oracles, and asserts per-query costs and TRUE
    rates agree exactly. Returns the per-query absolute cost deltas (all
    ~0.0) for reporting. Raises :class:`~repro.errors.StreamError` on any
    divergence.
    """
    registry = clustered_registry(n_clusters, streams_per_cluster, seed=seed)
    population = overlap_clustered_population(
        n_queries,
        registry,
        n_clusters,
        streams_per_cluster,
        cross_cluster_prob=0.0,
        seed=seed + 1,
    )
    cluster = ClusterServer(
        registry, n_shards=n_clusters, executor=executor, seed=seed + 2
    )
    cluster.register_population(population)
    cluster_report = cluster.run_batch(rounds)
    cluster.close()

    single = QueryServer(registry)
    factory = default_oracle_factory(seed + 2)
    for name, tree in population:
        single.register(name, tree, oracle=factory(name))
    single_report = single.run_batch(rounds)

    deltas: dict[str, float] = {}
    # A cluster report merges its shards' views on every read: read it once.
    cluster_costs = cluster_report.per_query_cost
    cluster_rates = cluster_report.per_query_true_rate
    for name, cost in single_report.per_query_cost.items():
        delta = abs(cost - cluster_costs[name])
        deltas[name] = delta
        if delta > atol:
            raise StreamError(
                f"parity violation: query {name!r} cost differs by {delta:.3g} "
                "between sharded and unsharded serving"
            )
        if single_report.per_query_true_rate[name] != cluster_rates[name]:
            raise StreamError(
                f"parity violation: query {name!r} TRUE rate differs between "
                "sharded and unsharded serving"
            )
    return deltas


def verify_elastic_parity(
    *,
    n_queries: int = 48,
    n_clusters: int = 4,
    streams_per_cluster: int = 3,
    rounds: int = 4,
    executor: str = "thread",
    seed: int = 0,
    elastic: ElasticPolicy | None = None,
    atol: float = 0.0,
) -> dict[str, float]:
    """Differential check: elastic topology changes never change any cost.

    Drives one clustered population through a scripted gauntlet of online
    topology changes — batch, split the busiest shard, batch, grow to
    ``n_clusters`` shards, batch, drain a shard, batch, shrink back to two
    shards, batch — while an unsharded :class:`QueryServer` with the same
    per-name oracles serves the identical batch sequence. Per-query costs
    accumulated over the whole run must agree to ``atol`` (default:
    bit-identical) and TRUE counts exactly, or :class:`StreamError` is
    raised. Passing an :class:`~repro.adaptive.ElasticPolicy` additionally
    lets auto-rebalance fire mid-gauntlet; migration-based rebalancing is
    cost-preserving on clean populations, so parity must still hold.
    Returns per-query absolute cost deltas.
    """
    registry = clustered_registry(n_clusters, streams_per_cluster, seed=seed)
    population = overlap_clustered_population(
        n_queries,
        registry,
        n_clusters,
        streams_per_cluster,
        cross_cluster_prob=0.0,
        seed=seed + 1,
    )
    cluster = ClusterServer(
        registry, n_shards=2, executor=executor, seed=seed + 2, elastic=elastic
    )
    cluster.register_population(population)
    single = QueryServer(registry)
    factory = default_oracle_factory(seed + 2)
    for name, tree in population:
        single.register(name, tree, oracle=factory(name))

    cluster_cost: dict[str, float] = {name: 0.0 for name, _ in population}
    single_cost: dict[str, float] = {name: 0.0 for name, _ in population}
    cluster_true: dict[str, float] = {name: 0.0 for name, _ in population}
    single_true: dict[str, float] = {name: 0.0 for name, _ in population}

    def run_phase() -> None:
        creport = cluster.run_batch(rounds)
        sreport = single.run_batch(rounds)
        # A cluster report merges its shards' views on every read.
        ccosts, crates = creport.per_query_cost, creport.per_query_true_rate
        for name in sreport.per_query_cost:
            cluster_cost[name] += ccosts[name]
            single_cost[name] += sreport.per_query_cost[name]
            cluster_true[name] += crates[name] * rounds
            single_true[name] += sreport.per_query_true_rate[name] * rounds

    run_phase()
    busiest = max(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
    cluster.split_shard(busiest, into=2)
    run_phase()
    cluster.resize(n_clusters)
    run_phase()
    victim = min(
        (sid for sid in cluster.shards if len(cluster.shards[sid])),
        key=lambda sid: len(cluster.shards[sid]),
    )
    cluster.drain_shard(victim)
    run_phase()
    cluster.resize(2)
    run_phase()
    cluster.close()

    deltas: dict[str, float] = {}
    for name in single_cost:
        delta = abs(single_cost[name] - cluster_cost[name])
        deltas[name] = delta
        if delta > atol:
            raise StreamError(
                f"elastic parity violation: query {name!r} cost differs by "
                f"{delta:.3g} across the split/drain/resize gauntlet"
            )
        if single_true[name] != cluster_true[name]:
            raise StreamError(
                f"elastic parity violation: query {name!r} TRUE count differs "
                "across the split/drain/resize gauntlet"
            )
    return deltas


@dataclass
class ElasticSimReport:
    """Timeline of an elastic cluster serving a churning population."""

    batches: int
    rounds_per_batch: int
    #: Per batch: (batch, admitted, departed, population, width, cost, actions).
    timeline: list[tuple[int, int, int, int, int, float, tuple[str, ...]]] = field(
        default_factory=list
    )
    total_cost: float = 0.0
    wall_seconds: float = 0.0
    evals: int = 0
    splits: int = 0
    drains: int = 0
    rebalances: int = 0
    final_partition: PartitionReport | None = None

    @property
    def throughput(self) -> float:
        return self.evals / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    @property
    def peak_width(self) -> int:
        return max((row[4] for row in self.timeline), default=0)

    @staticmethod
    def summary_headers() -> tuple[str, ...]:
        return ("batch", "+in", "-out", "queries", "shards", "cost", "elastic actions")

    def summary_rows(self) -> list[tuple]:
        rows = []
        for batch, admitted, departed, population, width, cost, actions in self.timeline:
            rows.append(
                (
                    batch,
                    admitted,
                    departed,
                    population,
                    width,
                    f"{cost:.6g}",
                    "; ".join(a.split(": ", 1)[-1] for a in actions) or "-",
                )
            )
        return rows

    def to_record(self) -> dict:
        """JSON-ready record for the benchmark trajectory."""
        return {
            "batches": self.batches,
            "rounds_per_batch": self.rounds_per_batch,
            "total_cost": self.total_cost,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "evals": self.evals,
            "splits": self.splits,
            "drains": self.drains,
            "rebalances": self.rebalances,
            "peak_width": self.peak_width,
            "final_partition": (
                self.final_partition.to_record()
                if self.final_partition is not None
                else None
            ),
            "width_timeline": [row[4] for row in self.timeline],
        }


def default_elastic_policy(n_queries: int, n_clusters: int) -> ElasticPolicy:
    """The elastic policy of ``cluster-sim --elastic`` and :func:`run_elastic_sim`.

    Targets the expected per-cluster load (at least 8 queries per shard),
    splits nothing under half the target, and rebalances after churn
    worth half the population.
    """
    target = max(8, n_queries // max(1, n_clusters))
    return ElasticPolicy(
        target_shard_queries=target,
        min_split_size=max(4, target // 2),
        churn_every=max(1, n_queries // 2),
    )


def run_elastic_sim(
    *,
    n_queries: int = 240,
    n_clusters: int = 6,
    streams_per_cluster: int = 4,
    batches: int = 12,
    rounds_per_batch: int = 4,
    mean_lifetime: float = 6.0,
    policy: ElasticPolicy | None = None,
    start_shards: int = 2,
    executor: str = "thread",
    scheduler: str = DEFAULT_SCHEDULER,
    warmup: int = 64,
    seed: int = 0,
    telemetry: "Telemetry | None" = None,
) -> ElasticSimReport:
    """Serve a churn-over-time population on a self-managing elastic cluster.

    A :func:`~repro.generators.churn.churn_schedule` drives admissions and
    departures between batches; the cluster starts at ``start_shards`` wide
    and the :class:`~repro.adaptive.ElasticPolicy` (default:
    :func:`default_elastic_policy`) grows, shrinks and
    rebalances it as the population churns. The report's timeline records
    the width trajectory and every elastic action taken.
    """
    if policy is None:
        policy = default_elastic_policy(n_queries, n_clusters)
    registry = clustered_registry(n_clusters, streams_per_cluster, seed=seed)
    schedule = events_by_batch(
        churn_schedule(
            n_queries,
            registry,
            n_clusters,
            streams_per_cluster,
            batches=batches,
            mean_lifetime=mean_lifetime,
            seed=seed + 1,
        )
    )
    cluster = ClusterServer(
        registry,
        n_shards=start_shards,
        executor=executor,
        scheduler=scheduler,
        warmup=warmup,
        elastic=policy,
        seed=seed + 2,
        telemetry=telemetry,
    )
    report = ElasticSimReport(batches=batches, rounds_per_batch=rounds_per_batch)
    for batch in range(batches):
        admitted = departed = 0
        for event in schedule.get(batch, []):
            if event.action == "depart":
                if event.name in cluster:
                    cluster.deregister(event.name)
                    departed += 1
            else:
                cluster.register(event.name, event.tree)
                admitted += 1
        if not len(cluster):
            report.timeline.append((batch, admitted, departed, 0, cluster.n_shards, 0.0, ()))
            continue
        start = time.perf_counter()
        batch_report = cluster.run_batch(rounds_per_batch)
        report.wall_seconds += time.perf_counter() - start
        report.total_cost += batch_report.total_cost
        report.evals += batch_report.evals
        report.timeline.append(
            (
                batch,
                admitted,
                departed,
                len(cluster),
                cluster.n_shards,
                batch_report.total_cost,
                batch_report.elastic_actions,
            )
        )
    report.splits = cluster.splits
    report.drains = cluster.drains
    report.rebalances = cluster.rebalances
    if len(cluster):
        report.final_partition = cluster.partition_report()
    cluster.close()
    return report
