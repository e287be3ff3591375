"""The sharded serving cluster: partitioned shards behind one front door.

:class:`ClusterServer` is the scale-out layer above
:class:`~repro.service.server.QueryServer`: the query population is
partitioned by stream overlap (:mod:`repro.cluster.partition`) into shards,
each shard serves its residents on its own :class:`QueryServer` (own stream
cache, own adaptive controller), and a :class:`~repro.cluster.router.ShardRouter`
admits runtime arrivals to the shard whose streams they already share.
Sharing stays *within* a shard — where the overlap graph says it actually
exists — while shards stay independent, so a churn event (admission,
departure, re-plan) touches one shard's round-program rows and adaptive
state, and worker-process shards batch in parallel.

All shards share one thread-safe :class:`~repro.service.plan_cache.PlanCache`,
so a canonical query shape pays its scheduling cost once across the entire
cluster, not once per shard.

The cluster's width is *elastic*: :meth:`ClusterServer.split_shard` divides
an overloaded shard along its stream-disjoint sub-clusters,
:meth:`ClusterServer.drain_shard` migrates a shard's residents out through
the router and retires it, and :meth:`ClusterServer.resize` composes both.
Every move transplants the queries' full serving state — oracle instances,
expanded schedules, cached plans, adaptive beliefs and the stream cache's
held items — so placement changes never change what a query costs: a
population served through any sequence of splits, drains and resizes
produces per-query costs bit-identical to the unsharded server on the same
seeds (the elasticity differential suite asserts exactly that).
Wiring an :class:`~repro.adaptive.ElasticPolicy` makes the width
self-managing: after each batch the cluster splits overloaded shards,
drains underloaded and empty ones and rebalances on churn, without
operator calls.

:meth:`ClusterServer.run_batch` sends the batch to every shard before it
waits on any reply, then aggregates the per-shard reports into one
:class:`ClusterReport`;
:meth:`ClusterServer.rebalance` re-partitions the live population when churn
has degraded the placement, migrating only the queries whose shard actually
changes.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.adaptive.elastic import ElasticPolicy
from repro.adaptive.policy import AdaptivePolicy
from repro.cluster.partition import (
    OverlapGraph,
    Partition,
    PartitionReport,
    TreeLike,
    build_overlap_graph,
    overlap_graph,
    pack_pieces,
    partition_by_overlap,
    partition_report,
    random_partition,
    shard_split_pieces,
)
from repro.cluster.router import ShardRouter
from repro.cluster.shard import (
    InProcessTransport,
    Shard,
    ShardTransport,
    WorkerConfig,
    build_shard_server,
)
from repro.cluster.worker import WorkerTransport
from repro.core.heuristics.base import Scheduler
from repro.engine.executor import BernoulliOracle, ExecutionResult, LeafOracle
from repro.errors import AdmissionError, StreamError
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.slo import SloMonitor, SloObjective, SloStatus
from repro.service.metrics import ServiceMetrics
from repro.service.plan_cache import PlanCache
from repro.service.server import DEFAULT_SCHEDULER, BatchReport, PerQuery
from repro.streams.registry import StreamRegistry

__all__ = [
    "ClusterReport",
    "ClusterServer",
    "ElasticEvent",
    "default_oracle_factory",
]


def _synchronized(method):
    """Run ``method`` under the cluster's reentrant lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class _NameSeededOracleFactory:
    """Picklable ``name -> BernoulliOracle`` factory (see default_oracle_factory).

    A class rather than a closure so the factory itself can cross a process
    boundary (closures do not pickle); two factories with the same seed are
    interchangeable, wherever they were built.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(self, name: str) -> LeafOracle:
        return BernoulliOracle(
            seed=(self.seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8")))
            & 0x7FFFFFFF
        )


def default_oracle_factory(seed: int) -> Callable[[str], LeafOracle]:
    """Deterministic per-query Bernoulli oracles: seed mixed with the name.

    Because the oracle is derived from the query *name* (not from admission
    order or shard placement), a population served by any shard layout —
    including the unsharded single server — draws identical outcome streams,
    which is what makes sharded-vs-unsharded runs exactly comparable, and
    what keeps outcomes stable while elasticity moves queries between
    shards (migrations carry the oracle *instance*, so even its consumed
    random stream continues seamlessly). The returned factory is picklable,
    so process-mode workers can reconstruct identical oracles in-worker.
    """
    return _NameSeededOracleFactory(seed)


#: Fixed elastic-policy thresholds: split the busiest shard above
#: ``SPLIT_ABOVE`` times the ideal load (population / width), drain the
#: smallest below ``DRAIN_BELOW`` times it, and never split past
#: ``MAX_SHARDS`` shards.
SPLIT_ABOVE = 2.0
DRAIN_BELOW = 0.25
MAX_SHARDS = 32


@dataclass(frozen=True)
class ElasticEvent:
    """One elastic topology change (operator-requested or policy-triggered).

    Every reshaping call (:meth:`ClusterServer.split_shard`,
    :meth:`~ClusterServer.drain_shard`, :meth:`~ClusterServer.rebalance`,
    :meth:`~ClusterServer.resize`) returns the events it appended to
    :attr:`ClusterServer.elastic_log`.
    """

    #: "split" | "drain" | "grow" | "rebalance"; every one that moves
    #: queries ships them through one ``_apply`` (one group per shard pair).
    kind: str
    #: Cluster rounds served when the event fired.
    round_index: int
    #: Subject shard: the split/drained shard, the spawned shard for "grow",
    #: -1 for a rebalance (which touches the whole cluster).
    shard_id: int
    #: Shards that received queries (split targets, drain destinations).
    new_shard_ids: tuple[int, ...]
    #: Queries migrated by the event.
    moves: int
    #: "operator" for explicit calls, "auto:<signal>" for policy triggers.
    trigger: str
    detail: str = ""

    def describe(self) -> str:
        targets = ",".join(str(sid) for sid in self.new_shard_ids) or "-"
        return (
            f"round {self.round_index}: {self.kind} shard {self.shard_id} "
            f"-> [{targets}], {self.moves} queries moved ({self.trigger})"
            + (f"; {self.detail}" if self.detail else "")
        )


@dataclass
class ClusterReport:
    """Aggregate of one batch across every active shard.

    The cost/probe/item totals are *derived*: each property sums
    ``shard_reports`` in insertion order, so the report holds one copy of
    every number. :meth:`ClusterServer.run_batch` adds exactly those sums
    to the cluster's ``repro_cluster_*_total`` registry counters, so the
    report and any exported metrics snapshot carry the same numbers (a
    regression test asserts the equality across batches).
    """

    rounds: int
    wall_seconds: float
    shard_reports: dict[int, BatchReport]
    shard_seconds: dict[int, float]
    shard_sizes: dict[int, int]
    plan_cache_hit_rate: float
    router_overlap_hit_rate: float
    rebalances: int
    #: Cluster width (shard count, including empty shards) after the batch
    #: and any automatic elastic actions it triggered.
    n_shards_total: int = 0
    #: Lifetime elastic counters at report time.
    splits: int = 0
    drains: int = 0
    #: Human-readable descriptions of the elastic actions the policy took
    #: right after this batch (empty without an ElasticPolicy).
    elastic_actions: tuple[str, ...] = ()
    #: Latency-objective verdicts from the cluster's SloMonitor, evaluated
    #: right after the batch (empty when no monitor is configured).
    slo_statuses: tuple[SloStatus, ...] = ()

    # -- aggregates ------------------------------------------------------

    @property
    def total_cost(self) -> float:
        return sum(report.total_cost for report in self.shard_reports.values())

    @property
    def probes(self) -> int:
        return sum(report.probes for report in self.shard_reports.values())

    @property
    def free_probes(self) -> int:
        return sum(report.free_probes for report in self.shard_reports.values())

    @property
    def items_fetched(self) -> int:
        return sum(report.items_fetched for report in self.shard_reports.values())

    @property
    def items_saved(self) -> int:
        return sum(report.items_saved for report in self.shard_reports.values())

    @property
    def replans(self) -> int:
        return sum(report.replans for report in self.shard_reports.values())

    @property
    def n_queries(self) -> int:
        return sum(self.shard_sizes.values())

    @property
    def evals(self) -> int:
        """Query evaluations performed: residents x rounds, summed over shards."""
        return self.rounds * self.n_queries

    @property
    def throughput(self) -> float:
        """Query evaluations per wall-clock second of the batch."""
        return self.evals / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    @property
    def per_query_cost(self) -> PerQuery:
        """The shards' per-query costs, one shard's after another."""
        return PerQuery.chain(r.per_query_cost for r in self.shard_reports.values())

    @property
    def per_query_true_rate(self) -> PerQuery:
        """The shards' per-query TRUE rates, one shard's after another."""
        return PerQuery.chain(r.per_query_true_rate for r in self.shard_reports.values())

    def summary(self) -> str:
        busiest = max(self.shard_seconds.values(), default=0.0)
        lines = [
            f"cluster batch: {self.rounds} rounds x {self.n_queries} queries on "
            f"{len(self.shard_reports)} shards",
            f"  wall {self.wall_seconds:.3f}s (busiest shard {busiest:.3f}s), "
            f"{self.throughput:,.0f} evals/s",
            f"  total cost {self.total_cost:.6g}, probes {self.probes} "
            f"({self.free_probes} free), items {self.items_fetched} fetched / "
            f"{self.items_saved} saved",
            f"  plan-cache hit rate {self.plan_cache_hit_rate:.1%}, "
            f"router overlap hits {self.router_overlap_hit_rate:.1%}, "
            f"{self.replans} replans, {self.rebalances} rebalances, "
            f"{self.splits} splits / {self.drains} drains "
            f"(width {self.n_shards_total})",
        ]
        for action in self.elastic_actions:
            lines.append(f"  elastic: {action}")
        for status in self.slo_statuses:
            lines.append(f"  slo: {status.describe()}")
        for shard_id in sorted(self.shard_reports):
            report = self.shard_reports[shard_id]
            lines.append(
                f"  shard {shard_id}: {self.shard_sizes[shard_id]} queries, "
                f"cost {report.total_cost:.6g}, "
                f"{self.shard_seconds[shard_id]:.3f}s"
            )
        return "\n".join(lines)


def _ready_first(shards: list[Shard]) -> Iterator[Shard]:
    """``shards`` in the order their pending replies can be received.

    In-process shards compute theirs on receive, so they come first, in
    shard order; worker shards follow as their pipes turn readable, so a
    finished worker is never held up behind a slower one.
    """
    pending: dict[Connection, Shard] = {}
    for shard in shards:
        connection = shard.transport.connection
        if connection is None:
            yield shard
        else:
            pending[connection] = shard
    while pending:
        for connection in wait(list(pending)):
            yield pending.pop(connection)


class ClusterServer:
    """An elastic cluster of stream-overlap shards behind a router.

    Parameters
    ----------
    registry:
        The shared sensing environment. Every shard builds its own cache
        over the same (thread-safe, memoized) source tapes, so two shards
        windowing one cut stream read identical values.
    n_shards:
        Initial cluster width. Shards may stay empty when the population has
        fewer overlap components than ``n_shards``; the width changes online
        through :meth:`split_shard`, :meth:`drain_shard`, :meth:`resize` or
        an :class:`~repro.adaptive.ElasticPolicy`.
    executor:
        ``"thread"`` (default) runs the shards in-process, one after another
        — zero serialization cost, one core. ``"process"`` spawns one worker
        process per shard (:mod:`repro.cluster.worker`): shards batch in
        parallel on separate cores, the cluster-wide plan cache is served
        read-through over the command channel, a migration ships each moved
        group as one pickled :class:`~repro.service.server.Migration`, and
        workers return pickled metrics deltas merged losslessly into the
        cluster registry — per-query outcomes are bit-identical
        across both executors (the parity suites assert it). Call
        :meth:`close` (or use the cluster as a context manager) to shut
        workers down.
    scheduler, warmup, adaptive:
        Forwarded to every shard's :class:`QueryServer`; ``adaptive`` must be
        an :class:`~repro.adaptive.AdaptivePolicy` (pure config — each shard
        builds its own controller) or ``None``.
    plan_cache:
        Capacity of the *cluster-wide* plan cache shared by all shards
        (a :class:`PlanCache` instance is used as-is; ``None``/``0``
        disables plan caching everywhere).
    seed:
        Admissions without an explicit oracle draw per-query Bernoulli
        oracles from ``seed`` and the query name
        (:func:`default_oracle_factory`: placement-independent outcomes);
        the random partition baseline draws from it too.
    max_shard_queries:
        Per-shard admission capacity, enforced by the router and the
        partitioner (and by migrations: a drain refuses to overfill its
        destinations).
    elastic:
        An :class:`~repro.adaptive.ElasticPolicy` enabling automatic
        split/drain/rebalance after each batch; ``None`` (default) leaves
        the width entirely to the operator.
    telemetry:
        A :class:`~repro.obs.Telemetry` shared by the cluster and every
        shard's :class:`QueryServer` (both halves are thread-safe; shard
        identity rides on metric labels). Batches run inside
        ``"cluster-batch"`` spans, every elastic action and migration is a
        traced event, and per-shard wall-clock lands in labelled
        histograms. ``None`` (default) records nothing — the cluster still
        keeps a private registry whose ``repro_cluster_*_total`` counters
        add up every :class:`ClusterReport`'s totals, but it is touched once
        per batch, never per round.
        In process mode, worker-side spans roll up into the parent tracer
        (causally linked under the dispatching cluster-batch span), so the
        sink holds one merged distributed trace.
    slo:
        Latency objectives to monitor: an :class:`~repro.obs.SloMonitor`,
        or a sequence of :class:`~repro.obs.SloObjective` (wrapped in a
        monitor with default burn windows). Evaluated against the metrics
        registry after every batch; verdicts land on
        :attr:`ClusterReport.slo_statuses` and, as gauges, in every
        snapshot/Prometheus export. ``None`` (default) monitors nothing.
    """

    def __init__(
        self,
        registry: StreamRegistry,
        *,
        n_shards: int = 4,
        executor: str = "thread",
        scheduler: str | Scheduler = DEFAULT_SCHEDULER,
        plan_cache: PlanCache | int | None = 256,
        warmup: int = 64,
        adaptive: AdaptivePolicy | None = None,
        max_shard_queries: int | None = None,
        elastic: ElasticPolicy | None = None,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        slo: SloMonitor | Sequence[SloObjective] | None = None,
    ) -> None:
        if n_shards < 1:
            raise AdmissionError(f"need at least one shard, got {n_shards}")
        if executor not in ("thread", "process"):
            raise AdmissionError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if adaptive is not None and not isinstance(adaptive, AdaptivePolicy):
            raise AdmissionError(
                "adaptive must be an AdaptivePolicy (each shard builds its own "
                f"controller), got {type(adaptive).__name__}"
            )
        if elastic is not None and not isinstance(elastic, ElasticPolicy):
            raise AdmissionError(
                f"elastic must be an ElasticPolicy or None, got {type(elastic).__name__}"
            )
        self.registry = registry
        self.executor = executor
        self.seed = seed
        self._scheduler = scheduler
        self._warmup = warmup
        self._adaptive = adaptive
        self._max_shard_queries = max_shard_queries
        self.elastic = elastic
        if isinstance(plan_cache, PlanCache):
            self.plan_cache: PlanCache | None = plan_cache
        elif plan_cache:
            self.plan_cache = PlanCache(capacity=int(plan_cache))
        else:
            self.plan_cache = None
        self.oracle_factory = default_oracle_factory(seed)
        self.telemetry = telemetry
        if slo is None or isinstance(slo, SloMonitor):
            self.slo: SloMonitor | None = slo
        else:
            self.slo = SloMonitor(tuple(slo))
        # Batch aggregates flow registry -> report even without telemetry:
        # the private registry makes the derivation unconditional (one source
        # of truth), at the cost of a handful of counter ops per *batch*.
        self._registry = telemetry.registry if telemetry is not None else MetricsRegistry()
        self.router = ShardRouter(
            costs=registry.cost_table(), max_shard_queries=max_shard_queries
        )
        #: Stable shard id -> live shard. Ids are never reused: a split's new
        #: shards and a drain's retirement keep every id's history unambiguous.
        self.shards: dict[int, Shard] = {}
        self._next_shard_id = 0
        for _ in range(n_shards):
            self._spawn_shard()
        #: Resident name -> shard id, in cluster admission order (a
        #: migration reassigns a value in place, keeping the order).
        self._assignment: dict[str, int] = {}
        #: Audit log of every topology change (splits, drains, grows,
        #: rebalances), operator-requested and policy-triggered alike.
        self.elastic_log: list[ElasticEvent] = []
        self._rounds_served = 0
        #: Cluster-level churn (admissions + departures; migrations excluded)
        #: and its value at the last rebalance check, for the churn trigger.
        self._churn = 0
        self._churn_mark = 0
        # Cluster-level mutations (admission, departure, split, drain,
        # resize, rebalance) and batches serialize on one reentrant lock,
        # mirroring QueryServer's contract: background admission threads are
        # safe, and a topology change can never swap the shard set out from
        # under an in-flight batch. Reentrant because resize -> drain_shard
        # and run_batch -> _auto_elastic -> split/drain/rebalance nest.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        # RPR001: explicit pickle contract. A cluster owns live shards —
        # possibly whole worker processes — plus an RLock; none of that can
        # cross a process boundary. Reconstruct a cluster from its
        # registry/population instead.
        raise TypeError(
            "ClusterServer is process-local (live shards, worker processes, "
            "RLock); rebuild one from the registry and population rather "
            "than pickling it"
        )

    def _new_shard(self, shard_id: int) -> Shard:
        telemetry_on = self.telemetry is not None and self.telemetry.enabled
        config = WorkerConfig(
            shard_id=shard_id,
            registry=self.registry,
            scheduler=self._scheduler,
            warmup=self._warmup,
            adaptive=self._adaptive,
            use_plan_cache=self.plan_cache is not None,
            telemetry_enabled=telemetry_on,
            telemetry_detail=telemetry_on and self.telemetry.detail,
            trace_capacity=self.telemetry.tracer.capacity if telemetry_on else 4096,
        )
        transport: ShardTransport
        if self.executor == "process":
            transport = WorkerTransport(
                config,
                plan_cache=self.plan_cache,
                registry_sink=self._registry,
                trace_sink=self.telemetry.tracer if telemetry_on else None,
            )
        else:
            server = build_shard_server(
                config,
                plan_cache=self.plan_cache,
                telemetry=self.telemetry,
            )
            transport = InProcessTransport(shard_id, server)
        return Shard(shard_id, transport, self.registry.cost_table())

    def _spawn_shard(self) -> Shard:
        shard = self._new_shard(self._next_shard_id)
        self._next_shard_id += 1
        self.shards[shard.shard_id] = shard
        return shard

    def _shard(self, shard_id: int) -> Shard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise AdmissionError(f"no shard with id {shard_id}") from None

    # -- population ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Current cluster width (live shards, including empty ones)."""
        return len(self.shards)

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    @property
    def registered(self) -> tuple[str, ...]:
        """All resident query names, in cluster admission order."""
        return tuple(self._assignment)

    def shard_of(self, name: str) -> int:
        try:
            return self._assignment[name]
        except KeyError:
            raise AdmissionError(f"no query named {name!r} is registered") from None

    @_synchronized
    def query(self, name: str):
        return self.shards[self.shard_of(name)].query(name)

    def active_shards(self) -> list[Shard]:
        return [shard for shard in self.shards.values() if len(shard)]

    @property
    def splits(self) -> int:
        return sum(1 for event in self.elastic_log if event.kind == "split")

    @property
    def drains(self) -> int:
        return sum(1 for event in self.elastic_log if event.kind == "drain")

    @property
    def rebalances(self) -> int:
        return sum(1 for event in self.elastic_log if event.kind == "rebalance")

    @_synchronized
    def register(
        self, name: str, tree: TreeLike, *, oracle: LeafOracle | None = None
    ) -> int:
        """Admit one query through the router; returns the chosen shard id."""
        if name in self._assignment:
            raise AdmissionError(f"query {name!r} is already registered")
        decision = self.router.route(name, tree, list(self.shards.values()))
        shard = self.shards[decision.shard_id]
        shard.register(
            name, tree, oracle=oracle if oracle is not None else self.oracle_factory(name)
        )
        self.router.record(decision)
        self._assignment[name] = decision.shard_id
        self._churn += 1
        self._absorb_overlapping(decision.shard_id, frozenset(tree.streams))
        return decision.shard_id

    @_synchronized
    def register_population(
        self,
        population: Sequence[tuple[str, TreeLike]],
        *,
        partition: Partition | None = None,
        method: str = "overlap",
    ) -> Partition:
        """Bulk-admit a population along a computed (or given) partition.

        ``method="overlap"`` runs the stream-overlap partitioner,
        ``method="random"`` the overlap-blind baseline. Piece ``i`` of the
        partition lands on the ``i``-th live shard (by ascending id); queries
        register in population order within each shard, so a 1-shard cluster
        is probe-for-probe identical to the unsharded :class:`QueryServer`.
        Nothing registers when a piece would overfill its shard's capacity.
        """
        if partition is None:
            graph = build_overlap_graph(population, self.registry.cost_table())
            if method == "overlap":
                partition = partition_by_overlap(
                    graph, self.n_shards, max_shard_queries=self._max_shard_queries
                )
            elif method == "random":
                partition = random_partition(graph, self.n_shards, seed=self.seed)
            else:
                raise AdmissionError(
                    f"unknown partition method {method!r}; use 'overlap' or 'random'"
                )
        if partition.n_shards > self.n_shards:
            raise AdmissionError(
                f"partition has {partition.n_shards} shards, cluster only "
                f"{self.n_shards}"
            )
        trees = dict(population)
        placed = [name for members in partition.shards for name in members]
        if len(trees) != len(population) or sorted(placed) != sorted(trees):
            raise AdmissionError("partition does not place each query exactly once")
        resident = [name for name in placed if name in self._assignment]
        if resident:
            raise AdmissionError(f"queries {resident!r} are already registered")
        order = {name: i for i, (name, _) in enumerate(population)}
        shard_ids = sorted(self.shards)
        cap = self._max_shard_queries
        for shard_id, members in zip(shard_ids, partition.shards):
            held = len(self.shards[shard_id])
            if cap is not None and held + len(members) > cap:
                raise AdmissionError(
                    f"shard {shard_id} holds {held} queries; {len(members)} "
                    f"more would exceed its capacity of {cap}"
                )
        for shard_id, members in zip(shard_ids, partition.shards):
            shard = self.shards[shard_id]
            for name in sorted(members, key=order.__getitem__):
                shard.register(name, trees[name], oracle=self.oracle_factory(name))
                self._assignment[name] = shard_id
        self._churn += len(population)
        return partition

    @_synchronized
    def deregister(self, name: str) -> None:
        self.shards[self.shard_of(name)].deregister(name)
        del self._assignment[name]
        self._churn += 1

    # -- execution -------------------------------------------------------

    def _fan_out(self, op: str, *args: Any) -> list[tuple[Shard, Any]]:
        """Run one command on every active shard: ``(shard, reply)`` pairs.

        The command goes to every shard before any reply is awaited, so
        worker shards run in parallel. Every reply is received before
        anything is raised (a reply left on a pipe would answer the shard's
        next command); then the first failing shard's error is raised.
        """
        active = self.active_shards()
        if not active:
            raise StreamError("no queries registered in any shard")
        errors: dict[int, Exception] = {}
        for shard in active:
            try:
                shard.transport.send(op, args, {})
            except Exception as exc:  # raised below, after the drain
                errors[shard.shard_id] = exc
        replies: dict[int, Any] = {}
        for shard in _ready_first([s for s in active if s.shard_id not in errors]):
            try:
                replies[shard.shard_id] = shard.transport.receive(op)
            except Exception as exc:  # raised below, after the drain
                errors[shard.shard_id] = exc
        for shard in active:
            if shard.shard_id in errors:
                raise errors[shard.shard_id]
        return [(shard, replies[shard.shard_id]) for shard in active]

    @_synchronized
    def step(self) -> dict[str, ExecutionResult]:
        """One round on every active shard; merged per-query results."""
        replies = self._fan_out("step")
        self._rounds_served += 1
        merged: dict[str, ExecutionResult] = {}
        for _, results in replies:
            merged.update(results)
        return merged

    @_synchronized
    def run_batch(self, rounds: int) -> ClusterReport:
        """Batch every active shard and aggregate the reports.

        With an :class:`~repro.adaptive.ElasticPolicy` configured, the
        policy is evaluated right after the batch (still under the cluster
        lock): the report's ``elastic_actions`` describe any splits, drains
        or rebalances it fired, and ``shard_sizes`` reflect the population
        as it was *during* the batch.
        """
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return self._run_batch_impl(rounds)
        with tel.span("cluster-batch", rounds=rounds, queries=len(self)) as attrs:
            report = self._run_batch_impl(rounds)
            attrs["shards"] = len(report.shard_reports)
            attrs["total_cost"] = report.total_cost
            attrs["wall_seconds"] = report.wall_seconds
            attrs["elastic_actions"] = len(report.elastic_actions)
        return report

    def _run_batch_impl(self, rounds: int) -> ClusterReport:
        start = time.perf_counter()
        replies = self._fan_out("run_batch", rounds)
        wall = time.perf_counter() - start
        self._rounds_served += rounds
        shard_reports: dict[int, BatchReport] = {}
        shard_seconds: dict[int, float] = {}
        for shard, (report, seconds) in replies:
            shard_reports[shard.shard_id] = report
            shard_seconds[shard.shard_id] = shard.last_batch_seconds = seconds
        shard_sizes = {shard.shard_id: len(shard) for shard, _ in replies}
        auto: list[ElasticEvent] = []
        if self.elastic is not None:
            tel = self.telemetry
            if tel is not None and tel.enabled:
                # One span over the whole policy evaluation, so attribution
                # can separate elastic reshaping from the batch proper (the
                # per-action events and migration spans nest under it).
                with tel.span("elastic") as elastic_attrs:
                    auto = self._auto_elastic()
                    elastic_attrs["actions"] = len(auto)
            else:
                auto = self._auto_elastic()
        report = ClusterReport(
            rounds=rounds,
            wall_seconds=wall,
            shard_reports=shard_reports,
            shard_seconds=shard_seconds,
            shard_sizes=shard_sizes,
            plan_cache_hit_rate=(
                self.plan_cache.hit_rate if self.plan_cache is not None else 0.0
            ),
            router_overlap_hit_rate=self.router.overlap_hit_rate,
            rebalances=self.rebalances,
            n_shards_total=self.n_shards,
            splits=self.splits,
            drains=self.drains,
            elastic_actions=tuple(event.describe() for event in auto),
        )
        # The registry counters read the report's own totals, so the report
        # and an exported snapshot cannot disagree.
        reg = self._registry
        reg.counter("repro_cluster_batches_total").inc()
        reg.counter("repro_cluster_rounds_total").inc(rounds)
        reg.counter("repro_cluster_cost_total").inc(report.total_cost)
        reg.counter("repro_cluster_probes_total").inc(report.probes)
        reg.counter("repro_cluster_free_probes_total").inc(report.free_probes)
        reg.counter("repro_cluster_items_fetched_total").inc(report.items_fetched)
        reg.counter("repro_cluster_items_saved_total").inc(report.items_saved)
        reg.counter("repro_cluster_replans_total").inc(report.replans)
        reg.gauge("repro_cluster_shards").set(self.n_shards)
        reg.gauge("repro_cluster_queries").set(len(self))
        reg.histogram("repro_cluster_batch_seconds").observe(wall)
        # SLO verdicts come last so this batch's own latency observations
        # (shard histograms merged in above) are part of the checkpoint;
        # check() also writes the burn-rate gauges into the same registry.
        if self.slo is not None:
            report.slo_statuses = tuple(self.slo.check(reg))
        return report

    # -- migration -------------------------------------------------------

    def _absorb_overlapping(self, home_id: int, new_streams: frozenset[str]) -> None:
        """Keep stream-sharing queries co-resident after an admission.

        A runtime arrival can *bridge* overlap components that were, until
        now, legitimately disjoint — and therefore placed on different
        shards. Leaving them apart would silently forfeit the sharing the
        cost model pays for (the new query's windows get fetched on two
        devices), so the smaller, already-routed pieces follow the admission
        to its home shard. On a capacity-bound cluster a piece that does not
        fit stays put (the cut is the price of the balance constraint).
        """
        home_size = len(self.shards[home_id])
        target: dict[str, int] = {}
        for sid in sorted(self.shards):
            if sid == home_id:
                continue
            for members, _ in self.shards[sid].components(new_streams):
                if (
                    self._max_shard_queries is not None
                    and home_size + len(members) > self._max_shard_queries
                ):
                    continue
                home_size += len(members)
                target.update(dict.fromkeys(members, home_id))
        self._apply(target)

    def _log_elastic(self, event: ElasticEvent, duration: float = 0.0) -> ElasticEvent:
        """Append to the audit log and mirror the action into telemetry."""
        self.elastic_log.append(event)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.registry.counter(
                "repro_elastic_actions_total", kind=event.kind
            ).inc()
            tel.event(
                "elastic-action",
                kind=event.kind,
                round=event.round_index,
                shard=event.shard_id,
                new_shards=list(event.new_shard_ids),
                moves=event.moves,
                trigger=event.trigger,
                detail=event.detail,
                duration=duration,
            )
        return event

    def _apply(self, target: Mapping[str, int]) -> dict[tuple[int, int], list[str]]:
        """Move each query of ``target`` (name -> shard id) to its shard.

        The one placement primitive: split, drain, rebalance and runtime
        absorption each compute their whole target, then call this once.
        Movers group per (source, destination) pair in cluster admission
        order; a pair is one ``export_group`` and one ``admit_group``
        command, carrying the queries verbatim with the source's held items
        and round clock, and lands in the cluster's admission order
        (registration order decides which resident pays for a shared window,
        so it must not depend on travel history). Returns the groups.
        """
        if not target:
            return {}
        groups: dict[tuple[int, int], list[str]] = {}
        for name, src in self._assignment.items():
            dest = target.get(name, src)
            if dest != src:
                groups.setdefault((src, dest), []).append(name)
        tel = self.telemetry
        for (src, dest), names in groups.items():
            with (
                tel.span("migration", src=src, dest=dest, queries=len(names))
                if tel is not None
                else contextlib.nullcontext()
            ):
                migration = self.shards[src].export_group(names)
                for name in names:
                    self._assignment[name] = dest
                self.shards[dest].admit_group(
                    migration,
                    [name for name, sid in self._assignment.items() if sid == dest],
                )
        return groups

    @_synchronized
    def split_shard(
        self,
        shard_id: int,
        *,
        into: int = 2,
        allow_cut: bool = False,
        trigger: str = "operator",
    ) -> ElasticEvent | None:
        """Divide a shard along its stream-disjoint sub-clusters, online.

        The shard's resident population is re-clustered
        (:func:`~repro.cluster.partition.shard_split_pieces`): connected
        overlap components are free boundaries, so the default split moves
        whole components onto freshly spawned shards and no query's cost
        changes. ``allow_cut`` additionally permits label-propagation
        community cuts when the shard is one connected component (bounded
        duplicated spend in exchange for width). ``into`` caps how many
        shards the population is spread over (LPT-packed); the largest group
        stays put, the rest migrate with their cache state.

        Returns the :class:`ElasticEvent`, or ``None`` when the shard has
        nothing to split under the given policy (fewer than two residents,
        or a single connected component without ``allow_cut``).
        """
        shard = self._shard(shard_id)
        if into < 2:
            raise AdmissionError(f"a split needs at least 2 groups, got {into}")
        if len(shard) < 2:
            return None
        op_start = time.perf_counter()
        graph = overlap_graph(shard.rows.items())
        pieces = shard_split_pieces(graph, allow_cut=allow_cut)
        if len(pieces) <= 1:
            return None
        groups = pack_pieces(pieces, into)
        if len(groups) <= 1:
            return None
        report = partition_report(graph, groups, method="split")
        order = {name: index for index, name in enumerate(shard.names)}
        # Largest group stays resident (fewest moves); ties break to the
        # group holding the earliest-admitted query, so splits are stable.
        groups.sort(key=lambda group: (-len(group), min(order[n] for n in group)))
        new_ids: list[int] = []
        target: dict[str, int] = {}
        for group in groups[1:]:
            new_ids.append(self._spawn_shard().shard_id)
            target.update(dict.fromkeys(group, new_ids[-1]))
        self._apply(target)
        event = ElasticEvent(
            kind="split",
            round_index=self._rounds_served,
            shard_id=shard_id,
            new_shard_ids=tuple(new_ids),
            moves=len(target),
            trigger=trigger,
            detail=(
                f"{len(pieces)} pieces into {len(groups)} shards, "
                f"cut weight {report.cut_weight:.6g}"
            ),
        )
        return self._log_elastic(event, duration=time.perf_counter() - op_start)

    def _drain(self, shard_id: int, trigger: str) -> ElasticEvent | None:
        """Drain ``shard_id`` through one :meth:`_apply`, or return ``None``
        with nothing moved when some component fits on no other shard.

        Components are routed before anything moves: they are
        stream-disjoint, so an earlier pick changes only the next pick's
        destination load (``loads``), never its overlap score.
        """
        op_start = time.perf_counter()
        shard = self.shards[shard_id]
        others = [s for sid, s in self.shards.items() if sid != shard_id]
        loads = {other.shard_id: len(other) for other in others}
        target: dict[str, int] = {}
        for members, weights in shard.components():
            try:
                decision = self.router.route_group(
                    members[0], weights, others, loads, group_size=len(members)
                )
            except AdmissionError:
                return None
            loads[decision.shard_id] += len(members)
            target.update(dict.fromkeys(members, decision.shard_id))
        self._apply(target)
        self.shards.pop(shard_id).close()  # a process shard's worker exits here
        event = ElasticEvent(
            kind="drain",
            round_index=self._rounds_served,
            shard_id=shard_id,
            new_shard_ids=tuple(dict.fromkeys(target.values())),
            moves=len(target),
            trigger=trigger,
        )
        return self._log_elastic(event, duration=time.perf_counter() - op_start)

    @_synchronized
    def drain_shard(self, shard_id: int, *, trigger: str = "operator") -> ElasticEvent:
        """Migrate a shard's residents out through the router and retire it.

        Residents leave as whole overlap components (each component routed
        as one group, so co-residence — and therefore every query's cost —
        survives the move), destination-scored exactly like runtime
        admissions. A drain moves everything or nothing: when some
        component fits nowhere it raises :class:`~repro.errors.AdmissionError`
        with no query moved, no shard retired and no event logged.
        """
        self._shard(shard_id)
        if len(self.shards) < 2:
            raise AdmissionError("cannot drain the only shard in the cluster")
        event = self._drain(shard_id, trigger)
        if event is None:
            raise AdmissionError(
                f"no other shard has room for every overlap component of "
                f"shard {shard_id}; nothing moved"
            )
        return event

    @_synchronized
    def resize(self, n: int, *, trigger: str = "operator") -> list[ElasticEvent]:
        """Grow or shrink the cluster to width ``n``, online.

        Shrinking drains the smallest shard (newest on ties) until the width
        fits. Growing splits the largest splittable shard; when no shard can
        split cleanly (every one is a single overlap component, or holds
        fewer than two queries) an empty shard is spawned instead — the
        router fills it with future cold admissions. Returns the events, in
        order.
        """
        if n < 1:
            raise AdmissionError(f"cluster width must be >= 1, got {n}")
        events: list[ElasticEvent] = []
        while len(self.shards) > n:
            victim = min(
                self.shards, key=lambda sid: (len(self.shards[sid]), -sid)
            )
            events.append(self.drain_shard(victim, trigger=trigger))
        while len(self.shards) < n:
            split_event: ElasticEvent | None = None
            for sid in sorted(
                self.shards, key=lambda sid: (-len(self.shards[sid]), sid)
            ):
                if len(self.shards[sid]) < 2:
                    break
                split_event = self.split_shard(sid, into=2, trigger=trigger)
                if split_event is not None:
                    break
            if split_event is None:
                shard = self._spawn_shard()
                split_event = ElasticEvent(
                    kind="grow",
                    round_index=self._rounds_served,
                    shard_id=shard.shard_id,
                    new_shard_ids=(shard.shard_id,),
                    moves=0,
                    trigger=trigger,
                    detail="spawned empty (no clean split available)",
                )
                self._log_elastic(split_event)
            events.append(split_event)
        return events

    # -- placement maintenance -------------------------------------------

    def _live_graph(self) -> OverlapGraph:
        """The residents' overlap graph, in cluster admission order."""
        return overlap_graph(
            (name, self.shards[sid].rows[name])
            for name, sid in self._assignment.items()
        )

    @_synchronized
    def partition_report(self) -> PartitionReport:
        """Score the *current* placement against the live overlap graph."""
        if not self._assignment:
            raise StreamError("no queries registered in any shard")
        shards = [shard.names for shard in self.shards.values() if len(shard)]
        return partition_report(self._live_graph(), shards, method="current")

    def _streams_stay_home(self) -> bool:
        """Whether every stream is read on at most one shard."""
        streams = [s for shard in self.shards.values() for s in shard.signature]
        return len(streams) == len(set(streams))

    @_synchronized
    def rebalance(
        self, *, force: bool = False, trigger: str = "operator"
    ) -> ElasticEvent | None:
        """Re-partition the live population when placement has degraded.

        Computes a fresh overlap partition of the current residents; when it
        keeps strictly more overlap weight than the current placement, or
        when ``force`` is set, the population is re-placed along it — by
        *migrating only the queries whose shard changes*. Each mover carries
        its full serving state (oracle instance, plan, schedule, belief,
        cached stream items), so a rebalance repairs the topology without
        re-warming caches or touching the shared plan cache. Returns the
        logged :class:`ElasticEvent` (its ``detail`` gives the kept overlap
        before and after), or ``None`` when the current placement is
        already good enough; :meth:`partition_report` scores the new one.
        Without ``force``, a placement in which no stream is read on two
        shards returns ``None`` without building the overlap graph: it cuts
        no weight, so no candidate can keep strictly more.
        """
        if not self._assignment:
            raise StreamError("no queries registered in any shard")
        if not force and self._streams_stay_home():
            return None
        op_start = time.perf_counter()
        # One overlap graph serves both the current placement's score and
        # the candidate partition.
        graph = self._live_graph()
        old_report = partition_report(
            graph,
            [shard.names for shard in self.shards.values() if len(shard)],
            method="current",
        )
        candidate = partition_by_overlap(
            graph, self.n_shards, max_shard_queries=self._max_shard_queries
        )
        improved = candidate.report.intra_weight > old_report.intra_weight
        if not (improved or force):
            return None
        # Pin each candidate piece to the live shard already holding most of
        # it (largest pieces claim first), so the migration set is minimal.
        unused = sorted(self.shards)
        target: dict[str, int] = {}
        for piece in sorted(candidate.shards, key=len, reverse=True):
            stay_counts = {
                sid: sum(1 for name in piece if self._assignment[name] == sid)
                for sid in unused
            }
            best = max(unused, key=lambda sid: (stay_counts[sid], -sid))
            unused.remove(best)
            for name in piece:
                target[name] = best
        groups = self._apply(target)
        moves = sum(len(names) for names in groups.values())
        new_report = candidate.report
        event = ElasticEvent(
            kind="rebalance",
            round_index=self._rounds_served,
            shard_id=-1,
            new_shard_ids=tuple(sorted({dest for _, dest in groups})),
            moves=moves,
            trigger=trigger,
            detail=(
                f"rebalance: kept overlap {old_report.kept_fraction:.1%} -> "
                f"{new_report.kept_fraction:.1%}, {moves} queries moved, "
                f"{old_report.n_shards} -> {new_report.n_shards} shards"
            ),
        )
        return self._log_elastic(event, duration=time.perf_counter() - op_start)

    # -- automatic elasticity --------------------------------------------

    def _auto_elastic(self) -> list[ElasticEvent]:
        """Evaluate the :class:`ElasticPolicy` once (called after a batch)."""
        policy = self.elastic
        assert policy is not None
        events: list[ElasticEvent] = []
        # Retire emptied shards first (newest first), down to one shard. A
        # shard no admission has reached yet (``resize`` spawned it for
        # future cold admissions) stays.
        for sid in sorted(self.shards, reverse=True):
            if len(self.shards) <= 1:
                break
            shard = self.shards[sid]
            if len(shard) == 0 and shard.ever_held:
                events.append(self.drain_shard(sid, trigger="auto:empty"))
        total = len(self)
        # Consolidate around the occupancy target: when the population would
        # fit comfortably in fewer shards, retire the smallest one per check
        # (gradual, so a transient dip does not collapse the cluster).
        if total and policy.target_shard_queries > 0:
            desired = max(1, -(-total // policy.target_shard_queries))  # ceil
            if len(self.shards) > desired:
                victim = min(
                    self.shards, key=lambda sid: (len(self.shards[sid]), -sid)
                )
                # Hysteresis: one shard over the target width is tolerated
                # unless the victim is well under half-full, so the
                # consolidate and overload triggers cannot ping-pong one
                # query group between topologies on consecutive batches.
                decisive = (
                    len(self.shards) - desired >= 2
                    or len(self.shards[victim]) * 2 < policy.target_shard_queries
                )
                if decisive:
                    drain = self._drain(victim, "auto:consolidate")
                    if drain is not None:
                        events.append(drain)
        width = len(self.shards)
        ideal = total / width if width else 0.0
        # Drain the most underloaded shard.
        if total and width > 1:
            active = [sid for sid in self.shards if len(self.shards[sid])]
            if len(active) > 1:
                victim = min(active, key=lambda sid: (len(self.shards[sid]), -sid))
                if len(self.shards[victim]) < DRAIN_BELOW * ideal:
                    drain = self._drain(victim, "auto:underload")
                    if drain is not None:
                        events.append(drain)
        # Split the most overloaded shard — unless this check already
        # drained (one width change per check keeps a drain's fallout from
        # immediately bouncing queries back out of the destination).
        width = len(self.shards)
        ideal = total / width if width else 0.0
        drained = any(event.kind == "drain" and event.moves for event in events)
        if total and not drained and width < MAX_SHARDS:
            busiest = max(
                self.shards, key=lambda sid: (len(self.shards[sid]), -sid)
            )
            size = len(self.shards[busiest])
            overloaded = size > SPLIT_ABOVE * ideal or (
                policy.target_shard_queries > 0 and size > policy.target_shard_queries
            )
            if size >= policy.min_split_size and overloaded:
                if policy.target_shard_queries > 0:
                    wanted = -(-size // policy.target_shard_queries)  # ceil
                else:
                    wanted = 2
                into = max(2, min(wanted, MAX_SHARDS - width + 1))
                event = self.split_shard(busiest, into=into, trigger="auto:overload")
                if event is not None:
                    events.append(event)
        # Rebalance once enough admissions and departures have accumulated.
        if (
            total
            and policy.churn_every
            and self._churn - self._churn_mark >= policy.churn_every
        ):
            self._churn_mark = self._churn
            rebalance = self.rebalance(trigger="auto:churn")
            if rebalance is not None:
                events.append(rebalance)
        return events

    # -- lifecycle -------------------------------------------------------

    @_synchronized
    def close(self) -> None:
        """Release shard resources; mandatory for ``executor="process"``.

        Thread-mode shards hold nothing that needs releasing (close is a
        no-op there); process-mode shards shut their worker processes down.
        Idempotent, and the cluster object stays inspectable afterwards —
        only execution and migration calls require live shards.
        """
        for shard in self.shards.values():
            shard.close()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    @_synchronized
    def shard_metrics(self) -> dict[int, ServiceMetrics]:
        return {shard_id: shard.metrics() for shard_id, shard in self.shards.items()}

    @_synchronized
    def describe(self) -> str:
        lines = [
            f"cluster: {len(self)} queries on {len(self.active_shards())}/"
            f"{self.n_shards} shards, "
            f"plan-cache hit rate "
            + (
                f"{self.plan_cache.hit_rate:.1%}"
                if self.plan_cache is not None
                else "n/a"
            )
            + f", router overlap hits {self.router.overlap_hit_rate:.1%}, "
            f"{self.rebalances} rebalances, "
            f"{self.splits} splits / {self.drains} drains",
        ]
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            if not len(shard):
                continue
            lines.append(
                f"  shard {shard_id}: {len(shard)} queries over "
                f"{len(shard.signature)} streams, "
                f"{shard.metrics().rounds} rounds served"
            )
        return "\n".join(lines)
