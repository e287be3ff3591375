"""Process-mode shard transport: spawned workers over a pickled command pipe.

Thread-mode shards share one address space, so the GIL serializes their
probe loops and a 4-shard batch still runs on one core. With
``executor="process"`` each shard's :class:`~repro.service.server.QueryServer`
lives in its own worker process (``spawn`` start method — fork would clone
the parent's held locks and deadlock; spawn also matches macOS/Windows and
the 3.14 default). The parent still holds the same
:class:`~repro.cluster.shard.Shard` as in thread mode; only its transport
differs: :class:`WorkerTransport` pickles each ``(op, args, kwargs, ctx)``
command down the worker's pipe, and the worker executes it in the same
command table (:func:`~repro.cluster.shard.run_command`) on a server built
by the same :func:`~repro.cluster.shard.build_shard_server`.

Design constraints, in order:

* **Plain-data handoffs.** Everything crossing the pipe is picklable by
  construction: one :class:`~repro.service.server.Migration` per moved
  group (queries, beliefs, held stream items, round clock),
  ``BatchReport``/``ExecutionResult`` for execution, ``MetricsRegistry``
  deltas for telemetry. No shared memory, no file descriptors.
* **Placement- and executor-independent outcomes.** The worker rebuilds its
  shard from a pickled :class:`~repro.cluster.shard.WorkerConfig` — the
  stream registry's memoized tapes travel with it, and sequential sources
  extend deterministically by seed, so a worker's copy of a tape produces exactly
  the values the parent's (or an unsharded server's) copy would. Oracle
  *instances* are pickled across on admission and migration, carrying their
  consumed RNG state, so outcome streams continue seamlessly.
* **One shared plan cache.** The parent owns the cluster-wide
  :class:`~repro.service.plan_cache.PlanCache`; workers reach it through the
  command channel via :class:`RemotePlanCache` (read-through: lookup, compute
  on miss, publish). A canonical shape still pays its scheduling cost once
  per *cluster*, not once per process.
* **Lossless telemetry.** Each ``run_batch``/``step`` reply carries the
  worker registry's delta since the last reply (the worker swaps in a fresh
  registry after shipping), and the parent folds it into its own registry
  with :meth:`~repro.obs.MetricsRegistry.merge_from` — counters add,
  histograms absorb bucket-wise, nothing is lost. Worker-side *trace
  records* roll up the same way: the reply also carries the worker
  tracer's drained ring (:meth:`~repro.obs.Tracer.take_records`), which
  the parent re-records into its own tracer/sink
  (:meth:`~repro.obs.Tracer.ingest`) — causal ids, timestamps and pids
  preserved, so the merged sink holds one well-formed distributed trace.
* **Causal trace context.** Every command carries the parent's current
  :class:`~repro.obs.SpanContext` (or ``None``); the worker re-attaches it
  around dispatch, so spans opened inside the worker — the shard batch,
  plan-cache upcalls — parent under the cluster-side span that issued the
  command, across the process boundary.

Protocol: the parent sends ``(op, args, kwargs, ctx)`` and later receives
until a terminal ``("ok", result)`` or ``("err", exception)`` arrives; any
``("plancache", request)`` received in between is a nested upcall from the
worker (plan-cache read-through mid-dispatch) that the *receiving parent
thread itself* services and answers. A send while a reply is pending
raises, so the channel never carries two requests at once, and a dead
worker is detected by liveness polling rather than a silent stall.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import threading
from typing import Any

from repro.cluster.shard import WorkerConfig, build_shard_server, run_command
from repro.core.heuristics.base import Scheduler
from repro.errors import StreamError
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.obs.trace import attach_context, current_context
from repro.service.plan_cache import CachedPlan, PlanCache

__all__ = ["RemotePlanCache", "WorkerTransport"]

#: Seconds between liveness checks while a parent thread waits on a worker.
_POLL_SECONDS = 1.0

#: Commands whose reply also carries the worker's telemetry deltas.
_SHIPS_TELEMETRY = frozenset({"run_batch", "step"})


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class RemotePlanCache(PlanCache):
    """Worker-side stub of the parent-owned cluster plan cache.

    Subclasses :class:`PlanCache` so :class:`QueryServer` accepts it
    unchanged, but holds no plans of its own: :meth:`lookup`,
    :meth:`publish` and :meth:`invalidate` forward over the command channel,
    and the inherited :meth:`~PlanCache.plan` reads through them (lookup; on
    miss build locally and publish). Hit/miss counters are kept *locally*
    so the server's ``hit_rate`` reads never touch the pipe; the parent
    cache keeps its own counters from the lookup/publish traffic, so both
    sides observe consistent read-through semantics. Pins stay local too,
    so the parent's cache evicts process shards' shapes by recency alone.

    When the worker is traced, each :meth:`plan` wraps itself in a
    ``plan-cache-upcall`` span — the pipe round-trips are the one place a
    worker blocks on the parent mid-batch, which is exactly what latency
    attribution needs to see.
    """

    def __init__(self, conn, tracer: Tracer | None = None) -> None:
        # All plans live in the parent; capacity 1 is a dummy (the local
        # OrderedDict stays empty — every lookup reads through the pipe).
        super().__init__(capacity=1)
        self._conn = conn
        self._tracer = tracer

    def __getstate__(self) -> dict:
        # Not lock-bearing itself (the lock lives in PlanCache, whose hooks
        # we would otherwise inherit), but the inherited state would drag
        # the live pipe connection along; make the contract explicit.
        raise TypeError(
            "RemotePlanCache wraps a live worker pipe; workers receive a "
            "fresh stub from WorkerConfig, it is never pickled"
        )

    def _rpc(self, request):
        self._conn.send(("plancache", request))
        return self._conn.recv()

    def plan(self, form, scheduler: Scheduler) -> CachedPlan:
        if self._tracer is None:
            return super().plan(form, scheduler)
        with self._tracer.span(
            "plan-cache-upcall", key=form.key, scheduler=scheduler.name
        ) as attrs:
            hits = self.hits
            plan = super().plan(form, scheduler)
            attrs["hit"] = self.hits > hits
        return plan

    def lookup(self, key: str, scheduler_name: str) -> CachedPlan | None:
        plan = self._rpc(("get", (key, scheduler_name)))
        if plan is not None:
            with self._lock:
                self.hits += 1
        return plan

    def publish(self, plan: CachedPlan) -> tuple[CachedPlan, bool]:
        winner, inserted = self._rpc(("put", plan))
        with self._lock:
            if inserted:
                self.misses += 1
            else:
                self.hits += 1
        return winner, inserted

    def invalidate(self, key: str) -> int:
        return self._rpc(("invalidate", key))


def _ship_deltas(
    telemetry: Telemetry | None,
) -> tuple[MetricsRegistry | None, list[dict] | None]:
    """Detach the worker's metrics delta and drain its trace ring.

    Recording sites reach cells through ``telemetry.registry``, and the one
    site that caches cells across rounds (the server's per-round
    histograms) keys its cache on the registry's identity and rebuilds it
    when the registry changes. So swapping in a fresh registry cleanly
    closes the delta: every observation lands either in the shipped
    registry or the next one, never both. The drained trace
    records — the shard batch, its nested server batch, plan-cache upcalls —
    keep their causal ids, so the parent's merged trace stays one tree.
    ``(None, None)`` when the worker is not traced.
    """
    if telemetry is None:
        return None, None
    # Ring-overflow drops ride the delta as counter increments (the synced
    # watermark lives on the Telemetry, so swapping registries stays exact).
    telemetry.sync_trace_drops()
    delta = telemetry.registry
    telemetry.registry = MetricsRegistry()
    return delta, telemetry.tracer.take_records()


def _shard_worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of one spawned shard worker (module-level: spawn-picklable)."""
    faulthandler.enable()  # a stuck worker dumps tracebacks on SIGABRT et al.
    telemetry = (
        Telemetry(
            enabled=True,
            detail=config.telemetry_detail,
            capacity=config.trace_capacity,
        )
        if config.telemetry_enabled
        else None
    )
    server = build_shard_server(
        config,
        plan_cache=RemotePlanCache(
            conn, telemetry.tracer if telemetry is not None else None
        ),
        telemetry=telemetry,
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing left to serve
        op, args, kwargs, ctx = message
        if op == "shutdown":
            conn.send(("ok", None))
            return
        try:
            # Re-attach the parent's span context so spans opened during
            # dispatch parent under the cluster-side span that sent the
            # command (a fresh process has an empty contextvar context).
            with attach_context(ctx):
                result = run_command(server, config.shard_id, op, args, kwargs)
                if op in _SHIPS_TELEMETRY:
                    result = (result, *_ship_deltas(telemetry))
            conn.send(("ok", result))
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            try:
                conn.send(("err", exc))
            except Exception:
                # The exception itself would not pickle; ship a plain one.
                conn.send(
                    ("err", StreamError(f"shard worker {op} failed: {exc!r}"))
                )


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class WorkerTransport:
    """Parent end of one spawned shard worker's command pipe.

    :meth:`send` pickles ``(op, args, kwargs, ctx)`` down the pipe and
    :meth:`receive` waits for the reply, serving the worker's plan-cache
    upcalls in between; :meth:`call` does both. Metrics deltas
    riding on batch/step replies are folded into ``registry_sink``; trace
    deltas are re-recorded into ``trace_sink`` (the parent tracer), so the
    parent's ring/JSONL holds the merged distributed trace.
    """

    def __init__(
        self,
        config: WorkerConfig,
        *,
        plan_cache: PlanCache | None,
        registry_sink: MetricsRegistry | None,
        trace_sink: Tracer | None = None,
    ) -> None:
        self.shard_id = config.shard_id
        self._plan_cache = plan_cache
        self._sink = registry_sink
        self._trace_sink = trace_sink
        self._lock = threading.RLock()
        #: Op of the command whose reply is still on the pipe, if any.
        self._pending: str | None = None
        context = multiprocessing.get_context("spawn")
        self.connection, child_conn = context.Pipe()
        self._proc = context.Process(
            target=_shard_worker_main,
            args=(child_conn, config),
            name=f"repro-shard-{config.shard_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()  # the worker holds its own copy

    def __getstate__(self) -> dict:
        # RPR001: explicit pickle contract. The transport owns a live worker
        # process and its pipe; there is nothing meaningful to transplant.
        raise TypeError(
            "WorkerTransport is process-local (owns a worker process and "
            "its pipe); spawn a new worker instead of pickling the transport"
        )

    def send(self, op: str, args: tuple, kwargs: dict) -> None:
        with self._lock:
            if self._proc is None:
                raise StreamError(
                    f"shard {self.shard_id} worker is closed; cannot run {op!r}"
                )
            if self._pending is not None:
                raise StreamError(
                    f"shard {self.shard_id} has {self._pending!r} in flight; "
                    f"cannot send {op!r}"
                )
            try:
                # The caller's span context rides along so worker-side spans
                # parent under the span dispatching this command.
                self.connection.send((op, args, kwargs, current_context()))
            except OSError as exc:
                raise StreamError(
                    f"shard {self.shard_id} worker connection failed during "
                    f"{op!r}: {exc!r}"
                ) from exc
            self._pending = op

    def receive(self, op: str) -> Any:
        with self._lock:
            if self._proc is None or self._pending != op:
                raise StreamError(f"shard {self.shard_id} has no {op!r} in flight")
            self._pending = None
            try:
                while True:
                    while not self.connection.poll(_POLL_SECONDS):
                        if not self._proc.is_alive():
                            raise StreamError(
                                f"shard {self.shard_id} worker died while "
                                f"serving {op!r} (exit code "
                                f"{self._proc.exitcode})"
                            )
                    kind, payload = self.connection.recv()
                    if kind == "plancache":
                        # Nested upcall: the worker needs the cluster plan
                        # cache mid-dispatch; the receiving thread serves it.
                        self.connection.send(self._serve_plan_cache(payload))
                        continue
                    if kind == "ok":
                        break
                    raise payload
            except (EOFError, OSError) as exc:
                raise StreamError(
                    f"shard {self.shard_id} worker connection failed during "
                    f"{op!r}: {exc!r}"
                ) from exc
        if op not in _SHIPS_TELEMETRY:
            return payload
        result, delta, records = payload
        if delta is not None and self._sink is not None:
            self._sink.merge_from(delta)
        if records and self._trace_sink is not None:
            self._trace_sink.ingest(records)
        return result

    def call(self, op: str, args: tuple, kwargs: dict) -> Any:
        with self._lock:
            self.send(op, args, kwargs)
            return self.receive(op)

    def _serve_plan_cache(self, request):
        cache = self._plan_cache
        if cache is None:  # defensive: workers only upcall when configured
            raise StreamError("worker requested a plan cache the cluster lacks")
        kind, payload = request
        if kind == "get":
            key, scheduler_name = payload
            return cache.lookup(key, scheduler_name)
        if kind == "put":
            return cache.publish(payload)
        if kind == "invalidate":
            return cache.invalidate(payload)
        raise StreamError(f"unknown plan-cache request {kind!r}")

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut the worker down; idempotent, tolerates a dead worker."""
        with self._lock:
            if self._proc is None:
                return
            proc, conn = self._proc, self.connection
            self._proc = None
            try:
                if proc.is_alive():
                    conn.send(("shutdown", (), {}, None))
                    if conn.poll(5.0):
                        conn.recv()  # the shutdown ack
            except (EOFError, BrokenPipeError, OSError):
                pass  # already gone; join/terminate below still apply
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            self.close()
        # Swallowing is legitimate only here: __del__ may run during
        # interpreter shutdown when the pipe module is already torn down,
        # and raising from a finalizer just prints noise we cannot act on.
        except Exception:  # repro-lint: disable=RPR006
            pass
