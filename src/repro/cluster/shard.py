"""One shard of a serving cluster: an incidence index over a command transport.

A shard is one :class:`~repro.service.server.QueryServer` — one shared-stream
cache whose rounds serve every resident in registration order. Where that
server runs (a thread or a spawned process) changes only the transport, so
:class:`Shard` is the single parent-side handle for both executors:

* it keeps the shard's *incidence index* — each resident's stream weight
  row in registration order, each stream's readers with their weights, and
  the *stream signature* (each stream's exact max weight over its readers)
  — which the router and the cluster's control plane read without a call
  (every mutation flows through the shard, so the index cannot drift from
  the server);
* every other operation goes out as ``(op, args, kwargs)`` through a
  transport and runs in :func:`run_command`, the one command table. Its 8
  ops: ``run_batch`` and ``step`` (serving), ``register`` and
  ``deregister`` (churn), ``export_group`` and ``admit_group`` (one
  migrated group each), ``query`` and ``metrics`` (reads).

Two transports carry the commands, each as a send half and a receive half.
:class:`InProcessTransport` (``executor="thread"``) runs the table on a
local server on receive, passing objects by reference; that server shares
the cluster's telemetry and plan cache.
:class:`~repro.cluster.worker.WorkerTransport` (``executor="process"``)
pickles each command down a spawned worker's pipe on send, where the worker
runs the same table on its own server. :func:`build_shard_server` builds the
shard's server from a :class:`WorkerConfig` under both executors.

The spawned worker imports this module, so it must stay free of
import-time side effects (RPR004).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Iterable, Mapping, Protocol, Sequence

from repro.adaptive.policy import AdaptivePolicy
from repro.cluster.partition import TreeLike, overlap_components, stream_weight_vector
from repro.core.heuristics.base import Scheduler
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import AdmissionError, StreamError
from repro.obs import Telemetry
from repro.service.metrics import ServiceMetrics
from repro.service.plan_cache import PlanCache
from repro.service.server import BatchReport, Migration, QueryServer, RegisteredQuery
from repro.streams.registry import StreamRegistry

__all__ = [
    "InProcessTransport",
    "Shard",
    "ShardTransport",
    "WorkerConfig",
    "build_shard_server",
    "run_command",
]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything needed to build a shard's server, in-process or spawned."""

    shard_id: int
    registry: StreamRegistry
    scheduler: str | Scheduler
    warmup: int
    adaptive: AdaptivePolicy | None
    use_plan_cache: bool
    telemetry_enabled: bool
    telemetry_detail: bool
    #: Worker trace-ring size; sized to the parent's ring so a batch's
    #: records survive until the reply ships them (drain-on-reply means
    #: overflow only matters within a single batch).
    trace_capacity: int = 4096


def build_shard_server(
    config: WorkerConfig,
    *,
    plan_cache: PlanCache | None,
    telemetry: Telemetry | None,
) -> QueryServer:
    """The shard's :class:`QueryServer`, built the same way for both executors.

    The process-local pieces come from the caller: a thread shard passes the
    cluster's own plan cache and telemetry; a worker passes its read-through
    plan-cache stub and its own telemetry. The config's flags decide which
    are used.
    """
    return QueryServer(
        config.registry,
        scheduler=config.scheduler,
        plan_cache=plan_cache if config.use_plan_cache else None,
        warmup=config.warmup,
        adaptive=config.adaptive,
        telemetry=telemetry,
    )


def _run_batch(
    server: QueryServer, shard_id: int, rounds: int
) -> tuple[BatchReport, float]:
    """A timed batch: ``(report, wall seconds)``.

    With telemetry enabled the batch runs inside a ``"shard-batch"`` span and
    the wall time is also observed into ``repro_shard_batch_seconds{shard=...}``
    — the per-shard latency distribution the cluster report derives its
    timing views from.
    """
    tel = server.telemetry
    start = time.perf_counter()
    if tel is None or not tel.enabled:
        report = server.run_batch(rounds)
        return report, time.perf_counter() - start
    with tel.span(
        "shard-batch", shard=shard_id, rounds=rounds, queries=len(server)
    ) as attrs:
        report = server.run_batch(rounds)
        attrs["total_cost"] = report.total_cost
        # Close the timing inside the span so the wall seconds ride the
        # span's attrs (trace analysis reads them without the histogram).
        seconds = time.perf_counter() - start
        attrs["wall_seconds"] = seconds
    tel.registry.histogram(
        "repro_shard_batch_seconds", shard=str(shard_id)
    ).observe(seconds)
    return report, seconds


def run_command(
    server: QueryServer, shard_id: int, op: str, args: tuple, kwargs: dict
) -> Any:
    """Execute one shard command: the one table both executors dispatch to.

    Mutators reply ``None`` so nothing large travels back over a pipe.
    """
    if op == "run_batch":
        return _run_batch(server, shard_id, *args, **kwargs)
    if op == "step":
        return server.step()
    if op == "register":
        server.register(*args, **kwargs)
        return None
    if op == "deregister":
        server.deregister(*args)
        return None
    if op == "export_group":
        return server.export_group(*args)
    if op == "admit_group":
        server.admit_group(*args)
        return None
    if op == "query":
        return server.query(*args)
    if op == "metrics":
        return server.metrics
    raise StreamError(f"unknown shard op {op!r}")


class ShardTransport(Protocol):
    """Carries a shard's commands to wherever its server runs.

    :meth:`send` starts a command and :meth:`receive` returns its reply (or
    raises its error), so the cluster can start one on every shard before
    it waits on any; :meth:`call` does both. One command is in flight at a
    time: :meth:`send` raises :class:`StreamError` while a reply is pending.
    """

    @property
    def connection(self) -> Connection | None:
        """What the reply arrives on, for ``multiprocessing.connection.wait``;
        ``None`` when :meth:`receive` computes the reply itself."""

    def send(self, op: str, args: tuple, kwargs: dict) -> None: ...

    def receive(self, op: str) -> Any: ...

    def call(self, op: str, args: tuple, kwargs: dict) -> Any: ...

    def close(self) -> None: ...


class InProcessTransport:
    """Runs commands on a local server on receive, objects passed by reference."""

    connection = None

    def __init__(self, shard_id: int, server: QueryServer) -> None:
        self.shard_id = shard_id
        self.server = server
        self._pending: tuple[str, tuple, dict] | None = None

    def send(self, op: str, args: tuple, kwargs: dict) -> None:
        if self._pending is not None:
            raise StreamError(
                f"shard {self.shard_id} has {self._pending[0]!r} in flight; "
                f"cannot send {op!r}"
            )
        self._pending = (op, args, kwargs)

    def receive(self, op: str) -> Any:
        pending, self._pending = self._pending, None
        if pending is None or pending[0] != op:
            raise StreamError(f"shard {self.shard_id} has no {op!r} in flight")
        return run_command(self.server, self.shard_id, *pending)

    def call(self, op: str, args: tuple, kwargs: dict) -> Any:
        # No pending slot: the server serializes concurrent callers itself.
        return run_command(self.server, self.shard_id, op, args, kwargs)

    def close(self) -> None:
        """Nothing to release: the server is an ordinary in-process object."""


class Shard:
    """A routed shard: an incidence index plus a command transport."""

    def __init__(
        self,
        shard_id: int,
        transport: ShardTransport,
        costs: Mapping[str, float],
    ) -> None:
        self.shard_id = shard_id
        self.transport = transport
        self._costs = dict(costs)
        #: Resident name -> stream weight row, in the server's registration order.
        self._rows: dict[str, dict[str, float]] = {}
        #: Resident name -> registration rank (orders component members).
        self._rank: dict[str, int] = {}
        self._ranks = itertools.count()
        #: Stream -> its readers' weights on it.
        self._readers: dict[str, dict[str, float]] = {}
        self._signature: dict[str, float] = {}
        #: Whether any query was ever admitted here (an elastic check
        #: retires only shards that were emptied, not ones never filled).
        self.ever_held = False
        self.last_batch_seconds: float = 0.0

    def _call(self, op: str, *args, **kwargs) -> Any:
        return self.transport.call(op, args, kwargs)

    # -- incidence index -------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._rows)

    @property
    def rows(self) -> Mapping[str, Mapping[str, float]]:
        """Resident name -> stream weight row, in registration order."""
        return self._rows

    @property
    def signature(self) -> Mapping[str, float]:
        """Stream -> max acquisition weight over the residents reading it."""
        return self._signature

    def components(
        self, streams: Iterable[str] | None = None
    ) -> list[tuple[list[str], dict[str, float]]]:
        """The overlap components reading one of ``streams`` (all when
        ``None``) as ``(members, weights)``, in registration order of their
        first member, members in registration order. ``weights`` holds each
        stream's signature weight (all its readers are in one component),
        keyed in first-seen order over the members' rows.
        """
        if streams is None:
            seeds: Iterable[str] = self._rows
        else:
            seeds = [name for s in streams for name in self._readers.get(s, ())]
        return [
            (members, {s: self._signature[s] for n in members for s in self._rows[n]})
            for members in overlap_components(
                seeds, self._rows, self._readers, self._rank.__getitem__
            )
        ]

    def _admit(self, name: str, tree: TreeLike) -> None:
        row = stream_weight_vector(tree, self._costs)
        self._rows[name] = row
        self.ever_held = True
        self._rank[name] = next(self._ranks)
        for stream, weight in row.items():
            self._readers.setdefault(stream, {})[name] = weight
            if weight > self._signature.get(stream, 0.0):
                self._signature[stream] = weight

    def _forget(self, names: Sequence[str]) -> None:
        """Drop ``names``; a stream whose max holder left recomputes it once."""
        stale: set[str] = set()
        for name in names:
            del self._rank[name]
            for stream, weight in self._rows.pop(name).items():
                del self._readers[stream][name]
                if weight == self._signature[stream]:
                    stale.add(stream)
        for stream in stale:
            if self._readers[stream]:
                self._signature[stream] = max(self._readers[stream].values())
            else:
                del self._readers[stream], self._signature[stream]

    # -- population ------------------------------------------------------

    def register(
        self,
        name: str,
        tree: TreeLike,
        *,
        oracle: LeafOracle | None = None,
        scheduler: str | None = None,
    ) -> None:
        self._call("register", name, tree, oracle=oracle, scheduler=scheduler)
        self._admit(name, tree)

    def deregister(self, name: str) -> None:
        if name not in self._rows:
            raise AdmissionError(
                f"query {name!r} is not resident on shard {self.shard_id}"
            )
        self._call("deregister", name)
        self._forget([name])

    def query(self, name: str) -> RegisteredQuery:
        return self._call("query", name)

    # -- migration -------------------------------------------------------

    def export_group(self, names: Sequence[str]) -> Migration:
        """Lift ``names`` out of the server, in order; one command per group."""
        migration = self._call("export_group", names)
        self._forget(names)
        return migration

    def admit_group(self, migration: Migration, order: Sequence[str]) -> None:
        """Install an exported group and re-key the residents to ``order``.

        One command per group; the index takes the same order as the server.
        """
        self._call("admit_group", migration, order)
        for query in migration.queries:
            self._admit(query.name, query.tree)
        self._rows = {name: self._rows[name] for name in order}
        self._rank = {name: next(self._ranks) for name in order}

    # -- observability ---------------------------------------------------

    def metrics(self) -> ServiceMetrics:
        return self._call("metrics")

    # -- execution -------------------------------------------------------

    def step(self) -> dict[str, ExecutionResult]:
        return self._call("step")

    def run_batch(self, rounds: int) -> BatchReport:
        """Timed batch; wall seconds land in :attr:`last_batch_seconds`."""
        report, self.last_batch_seconds = self._call("run_batch", rounds)
        return report

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the transport (a process shard's worker exits here)."""
        self.transport.close()
