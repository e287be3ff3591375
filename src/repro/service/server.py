"""The multi-tenant query server.

:class:`QueryServer` is the serving layer's front door: queries register and
deregister at runtime, and each :meth:`~QueryServer.step` advances the shared
streams one tick and evaluates the whole registered population as one
optimized unit:

* admission canonicalizes the tree (:mod:`repro.service.canonical`) and gets
  its schedule through the shared :class:`~repro.service.plan_cache.PlanCache`
  — isomorphic queries pay the scheduling cost once;
* per-round execution runs every resident's schedule, step by step over the
  whole population (a :class:`~repro.service.shared_plan.RoundProgram` whose
  rows the server keeps across churn), against one
  :class:`~repro.streams.cache.DataItemCache`, so stream windows are paid
  once per round no matter how many queries need them;
* :func:`run_isolated` re-runs the same population with private caches and
  plans, quantifying exactly what sharing bought.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import threading
import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import (
    Callable,
    ItemsView,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Union,
    ValuesView,
)

from repro.adaptive.controller import AdaptiveController, ShapeBelief, fold_base_probs
from repro.adaptive.policy import AdaptivePolicy, ReplanEvent
from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics.base import Scheduler, get_scheduler
from repro.core.schedule import Schedule, validate_schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.engine.executor import (
    BernoulliOracle,
    ExecutionResult,
    LeafOracle,
    ScheduleExecutor,
)
from repro.errors import AdmissionError, StreamError
from repro.obs import Histogram, MetricsRegistry, Telemetry
from repro.service.canonical import CanonicalForm, _as_dnf, canonicalize
from repro.service.metrics import ServiceMetrics
from repro.service.plan_cache import CachedPlan, PlanCache
from repro.service.shared_plan import RoundProgram, RoundStats
from repro.streams.cache import compute_max_windows
from repro.streams.registry import StreamRegistry

__all__ = [
    "RegisteredQuery",
    "Migration",
    "BatchReport",
    "PerQuery",
    "QueryServer",
    "run_isolated",
]

TreeLike = Union[AndTree, DnfTree, QueryTree]

#: Default admission scheduler: the paper's best polynomial heuristic.
DEFAULT_SCHEDULER = "and-inc-c-over-p-dynamic"


def _synchronized(method):
    """Run ``method`` under the server's reentrant lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class RegisteredQuery:
    """One admitted query with its canonical identity and expanded plan.

    ``tree`` keeps the *admission* leaf probabilities (for a Bernoulli
    oracle they double as the simulated ground truth); ``planning_tree``,
    when set by an adaptive re-plan, carries the server's current belief,
    which the query's current schedule was computed with.
    """

    name: str
    tree: DnfTree
    canonical: CanonicalForm
    plan: CachedPlan
    schedule: Schedule
    oracle: LeafOracle
    planning_tree: DnfTree | None = None

    @property
    def belief_tree(self) -> DnfTree:
        """The tree whose probabilities the current plan was computed with."""
        return self.planning_tree if self.planning_tree is not None else self.tree


@dataclass(frozen=True)
class Migration:
    """A group of queries lifted out of a server for transplant into another.

    Produced by :meth:`QueryServer.export_group`, consumed by
    :meth:`QueryServer.admit_group`. Carries everything a placement move
    must preserve for the destination to serve the group exactly as the
    source would have:

    * ``round`` — the source's round clock, which re-plan cooldowns count in;
    * ``now`` and ``stores`` — the source cache's device time and held items
      for the movers' streams, taken before the movers left;
    * ``queries`` — each mover's full :class:`RegisteredQuery` (tree,
      expanded schedule, cached plan, belief tree and the *same* oracle
      instance, so outcome streams continue seamlessly), in export order;
    * ``beliefs`` — when the source was adaptive, each canonical shape's
      :class:`~repro.adaptive.ShapeBelief`, keyed by canonical key.

    No per-query accounting travels: a query's numbers are reported per
    batch by the shard that served it.
    """

    round: int
    now: int
    stores: dict[str, dict[int, float]]
    queries: tuple[RegisteredQuery, ...]
    beliefs: dict[str, ShapeBelief]


class PerQuery(Mapping[str, float]):
    """A read-only name -> number mapping over a names tuple and a values
    list, in registration order.

    ``len``, iteration, ``items()`` and ``values()`` read the two sequences;
    the dict that serves lookups by name is built on the first one. It
    pickles as the two sequences, and compares equal to the dict of the
    same items.
    """

    __slots__ = ("_names", "_values", "_index")

    def __init__(self, names: tuple[str, ...], values: list[float]) -> None:
        self._names = names
        self._values = values
        self._index: dict[str, float] | None = None

    @classmethod
    def chain(cls, views: Iterable[Mapping[str, float]]) -> PerQuery:
        """The mappings' items one mapping after another (their names are
        disjoint)."""
        views = list(views)
        return cls(
            tuple(itertools.chain.from_iterable(views)),
            list(itertools.chain.from_iterable(view.values() for view in views)),
        )

    def __getitem__(self, name: str) -> float:
        index = self._index
        if index is None:
            index = self._index = dict(zip(self._names, self._values))
        return index[name]

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def items(self) -> ItemsView[str, float]:
        return _PerQueryItems(self)

    def values(self) -> ValuesView[float]:
        return _PerQueryValues(self)

    def __reduce__(self) -> tuple:
        return type(self), (self._names, self._values)

    def __repr__(self) -> str:
        return repr(dict(zip(self._names, self._values)))


class _PerQueryItems(ItemsView[str, float]):
    _mapping: PerQuery

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self._mapping._names, self._mapping._values)


class _PerQueryValues(ValuesView[float]):
    _mapping: PerQuery

    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping._values)


@dataclass
class BatchReport:
    """Outcome of :meth:`QueryServer.run_batch`.

    ``per_query_cost`` and ``per_query_true_rate`` are :class:`PerQuery`
    views in registration order.
    """

    rounds: int
    total_cost: float
    per_query_cost: Mapping[str, float]
    per_query_true_rate: Mapping[str, float]
    round_costs: list[float]
    probes: int
    free_probes: int
    items_fetched: int
    items_saved: int
    plan_cache_hit_rate: float
    replans: int = 0

    @property
    def mean_round_cost(self) -> float:
        return self.total_cost / self.rounds if self.rounds else 0.0

    def summary(self) -> str:
        lines = [
            f"batch: {self.rounds} rounds, total {self.total_cost:.6g}"
            f" ({self.mean_round_cost:.6g}/round)",
            f"  probes {self.probes} ({self.free_probes} free),"
            f" items {self.items_fetched} fetched / {self.items_saved} saved,"
            f" plan-cache hit rate {self.plan_cache_hit_rate:.1%},"
            f" {self.replans} replans",
        ]
        for name in sorted(self.per_query_cost):
            lines.append(
                f"  {name}: {self.per_query_cost[name] / max(1, self.rounds):.6g}/round,"
                f" TRUE rate {self.per_query_true_rate[name]:.3f}"
            )
        return "\n".join(lines)


@dataclass
class _BatchTally:
    """The one fold of a batch's rounds.

    Per resident slot (registration order; the server lock holds the
    population still for the whole batch) it sums the cost and counts the
    TRUE rounds, adopting the first round's lists as they are; per round it
    keeps the cost; and it sums the probe, item and re-plan counts.
    :meth:`report` builds the batch report from these sums, and the
    lifetime ledger and the telemetry counters fold that report, so every
    consumer reads the same numbers.
    """

    names: tuple[str, ...]
    query_cost: list[float] = field(default_factory=list)
    true_counts: Sequence[int] = field(default_factory=list)
    round_costs: list[float] = field(default_factory=list)
    probes: int = 0
    free_probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0
    replans: int = 0

    @classmethod
    def start(cls, names: tuple[str, ...]) -> _BatchTally:
        """An empty tally for a batch over ``names`` (registration order)."""
        return cls(names)

    def add(self, stats: RoundStats, values: list[bool]) -> None:
        """Fold one round: ``values`` are its root values, per slot.

        The first round's lists are adopted (a cost summed from 0.0 is the
        cost itself, and a TRUE counts as 1).
        """
        if self.round_costs:
            self.query_cost = list(map(operator.add, self.query_cost, stats.query_cost))
            self.true_counts = list(map(operator.add, self.true_counts, values))
        else:
            self.query_cost = stats.query_cost
            self.true_counts = values
        self.round_costs.append(stats.cost)
        self.probes += stats.probes
        self.free_probes += stats.free_probes
        self.items_fetched += stats.items_fetched
        self.items_saved += stats.items_saved

    def report(self, plan_cache_hit_rate: float) -> BatchReport:
        rounds = len(self.round_costs)
        return BatchReport(
            rounds=rounds,
            # A left fold, as the ledger adds them (``sum`` compensates on
            # Python 3.12+).
            total_cost=functools.reduce(operator.add, self.round_costs, 0.0),
            per_query_cost=PerQuery(self.names, self.query_cost),
            per_query_true_rate=PerQuery(
                self.names, [count / rounds for count in self.true_counts]
            ),
            round_costs=self.round_costs,
            probes=self.probes,
            free_probes=self.free_probes,
            items_fetched=self.items_fetched,
            items_saved=self.items_saved,
            plan_cache_hit_rate=plan_cache_hit_rate,
            replans=self.replans,
        )


class QueryServer:
    """Multi-tenant continuous-query server over one shared stream cache.

    The server is thread-safe: ``register``/``deregister``/``step``/
    ``run_batch`` (and the re-plan entry points) serialize on one internal
    reentrant lock, so background admission threads can add and remove
    queries while another thread drives rounds. A batch holds the lock for
    its whole duration — admissions land between batches, never mid-batch.

    Parameters
    ----------
    registry:
        The sensing environment (streams, costs, sources).
    oracle:
        Default leaf oracle for queries registered without their own
        (``None`` -> a fresh :class:`BernoulliOracle`).
    scheduler:
        Default admission scheduler — a registry name or a
        :class:`Scheduler` instance.
    plan_cache:
        A :class:`PlanCache`, a capacity for a new one, or ``None``/``0`` to
        disable plan caching (every admission schedules from scratch).
    max_queries:
        Admission limit; further :meth:`register` calls raise
        :class:`~repro.errors.AdmissionError`.
    warmup:
        Initial device time of the shared cache (grown automatically when a
        registered query needs a larger window).
    adaptive:
        An :class:`~repro.adaptive.AdaptivePolicy` (or a prebuilt
        :class:`~repro.adaptive.AdaptiveController`) enabling online
        selectivity tracking and drift-triggered re-planning; ``None``
        (default) serves every query on its admission-time plan forever.
    telemetry:
        A :class:`~repro.obs.Telemetry` receiving per-round latency/cost
        histograms, probe counters, batch spans and replan/migration events.
        ``None`` (default) costs one pointer comparison per round; a
        disabled telemetry costs the same (the hot paths never time or
        record unless ``telemetry.enabled``).
    """

    def __init__(
        self,
        registry: StreamRegistry,
        oracle: LeafOracle | None = None,
        *,
        scheduler: str | Scheduler = DEFAULT_SCHEDULER,
        plan_cache: PlanCache | int | None = 256,
        max_queries: int | None = None,
        warmup: int = 64,
        adaptive: AdaptivePolicy | AdaptiveController | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.registry = registry
        self.default_oracle = oracle if oracle is not None else BernoulliOracle()
        self.scheduler = (
            get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        if isinstance(plan_cache, PlanCache):
            self.plan_cache: PlanCache | None = plan_cache
        elif plan_cache:
            self.plan_cache = PlanCache(capacity=int(plan_cache))
        else:
            self.plan_cache = None
        if max_queries is not None and max_queries < 1:
            raise AdmissionError(f"max_queries must be >= 1, got {max_queries}")
        self.max_queries = max_queries
        self.cache = registry.build_cache(now=warmup)
        self.metrics = ServiceMetrics()
        if isinstance(adaptive, AdaptiveController):
            self.adaptive: AdaptiveController | None = adaptive
        elif isinstance(adaptive, AdaptivePolicy):
            self.adaptive = AdaptiveController(adaptive)
        elif adaptive is None:
            self.adaptive = None
        else:
            raise AdmissionError(
                f"adaptive must be an AdaptivePolicy, AdaptiveController or None, "
                f"got {type(adaptive).__name__}"
            )
        self.replan_log: list[ReplanEvent] = []
        self.telemetry = telemetry
        # Cumulative busy-seconds per execution phase, maintained by the
        # round loop only while telemetry is enabled. run_batch snapshots
        # before/after deltas onto the batch span (``phase_seconds``), which
        # is what repro.obs.analyze buckets wall time with — paired
        # perf_counter reads per round are cheap enough to survive
        # sub-millisecond rounds where per-round spans would not be.
        self._phase_seconds = {
            "acquisition": 0.0,
            "planning": 0.0,
            "evaluation": 0.0,
            "telemetry": 0.0,
        }
        # Memoized per-round histogram cells for _record_round_telemetry,
        # keyed on registry identity: worker shards swap in a fresh registry
        # after shipping each delta, which must invalidate the cache (``is``
        # check per round), while within one registry epoch the per-round
        # name lookups collapse to attribute loads.
        self._metric_cells: tuple[MetricsRegistry, Histogram, Histogram] | None = None
        # The same for the admission stage histograms.
        self._admission_cells: tuple[MetricsRegistry, Histogram, Histogram] | None = None
        self._queries: dict[str, RegisteredQuery] = {}
        #: Residents per canonical key, so a departure learns whether its
        #: shape is still live without scanning the population.
        self._shape_refs: collections.Counter[str] = collections.Counter()
        #: Per stream, the multiset of windows resident leaves apply to it,
        #: and its maximum (the relevance horizon the cache evicts by).
        self._window_counts: dict[str, collections.Counter[int]] = {}
        self._max_windows: dict[str, int] = {}
        #: One row per resident for the round loop, kept current by every
        #: population change and re-plan.
        self._program = RoundProgram()
        self._round = 0
        # One reentrant lock serializes every population mutation and every
        # round against each other, so background admission threads can
        # register/deregister while another thread steps or batches.
        # Reentrant because run_batch -> step -> replan_canonical nest.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        # RPR001: explicit pickle contract. A server is process-local by
        # design (live RLock, per-query oracle state, the round program's
        # oracle tapes); cross-process migration goes through
        # export_group() / Migration, which pickles cleanly. Fail at pickle
        # time with the right pointer instead of at pipe-send time with a
        # lock error.
        raise TypeError(
            "QueryServer is process-local (live RLock and executor state); "
            "migrate queries with export_group()/admit_group() instead "
            "of pickling the server"
        )

    # -- population management -----------------------------------------

    @property
    def rounds_served(self) -> int:
        """Rounds this server has executed (its logical clock)."""
        return self._round

    @property
    def registered(self) -> tuple[str, ...]:
        """Names of the admitted queries, in registration order."""
        return tuple(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    def query(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise AdmissionError(f"no query named {name!r} is registered") from None

    @_synchronized
    def register(
        self,
        name: str,
        tree: TreeLike,
        *,
        oracle: LeafOracle | None = None,
        scheduler: str | Scheduler | None = None,
        replace: bool = False,
    ) -> RegisteredQuery:
        """Admit a query: canonicalize it, plan its shape (through the cache)
        and queue its round-program row.

        The canonical tree is built only on a plan-cache miss or an adaptive
        re-probe; the row is laid out from the query's own DNF at the next
        round. While telemetry records, the two stages' wall times go to
        ``repro_admission_seconds{stage=canonicalize|plan}``.

        ``replace=True`` cleanly swaps an existing registration of ``name``
        (the old row is tombstoned, never reused for the new tree, and the
        new query takes the last place in registration order); the default
        rejects duplicates. The new tree is validated, canonicalized and
        planned before the old registration leaves, so a replacement that
        raises leaves the old query served as it was.

        Raises :class:`~repro.errors.AdmissionError` on a duplicate name or a
        full server, :class:`~repro.errors.StreamError` when the tree uses an
        unregistered stream.
        """
        old = self._queries.get(name)
        if old is not None and not replace:
            raise AdmissionError(f"query {name!r} is already registered")
        staying = len(self._queries) - (old is not None)
        if self.max_queries is not None and staying >= self.max_queries:
            raise AdmissionError(
                f"server is full ({self.max_queries} queries); deregister one first"
            )
        self.registry.validate_tree_streams(tuple(tree.streams))
        tel = self.telemetry
        timed = tel is not None and tel.enabled
        if timed:
            started = time.perf_counter()
        dnf = _as_dnf(tree)
        form = canonicalize(dnf)
        if timed:
            canonicalized = time.perf_counter()
        chosen = self.scheduler
        if scheduler is not None:
            chosen = get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        planning_tree: DnfTree | None = None
        # Plan against the server's current belief for this shape (the
        # rebased baseline after a re-plan) *before* touching the plan cache,
        # so a stale admission-probability plan is neither recomputed nor
        # re-inserted into the cache entry replan_canonical invalidated. A
        # replaced query that is its shape's last resident retires the
        # belief on leaving, so the new one then starts from admission.
        baseline: tuple[float, ...] | None = None
        admission_base: tuple[float, ...] = ()
        if self.adaptive is not None:
            admission_base = self._base_probs(form, dnf, tracked=False)
            retiring = (
                old is not None
                and old.canonical.key == form.key
                and self._shape_refs[form.key] == 1
            )
            current = self._base_probs(form, dnf, tracked=not retiring)
            if current != admission_base:
                baseline = current
        if baseline is not None:
            # Bypass the plan cache on purpose: it is keyed by admission
            # identity, and belief-updated plans are maintained per server.
            belief = form.reprobed_tree(fold_base_probs(baseline, form.fold_sizes))
            plan = CachedPlan.build(form.key, belief, chosen)
            planning_tree = form.reprobed_original(dnf, baseline)
        else:
            plan = self._plan_canonical(form, chosen)
        # The cached schedule addresses the canonical tree; expand it back to
        # this query's own leaf indices (a permutation of them: the form's
        # leaf map partitions them, and expand_schedule checks the rest).
        registered = RegisteredQuery(
            name=name,
            tree=dnf,
            canonical=form,
            plan=plan,
            schedule=form.expand_schedule(plan.schedule),
            oracle=oracle if oracle is not None else self.default_oracle,
            planning_tree=planning_tree,
        )
        if timed:
            planned = time.perf_counter()
            reg = tel.registry  # type: ignore[union-attr]
            cells = self._admission_cells
            if cells is None or cells[0] is not reg:
                cells = self._admission_cells = (
                    reg,
                    reg.histogram("repro_admission_seconds", stage="canonicalize"),
                    reg.histogram("repro_admission_seconds", stage="plan"),
                )
            cells[1].observe(canonicalized - started)
            cells[2].observe(planned - canonicalized)
        if old is not None:
            self.deregister(name)
        if self.adaptive is not None and form.key not in self.adaptive.tracked_keys():
            self.adaptive.admit(form.key, admission_base, form.fold_sizes)
        self._queries[name] = registered
        self._shape_refs[form.key] += 1
        self._pin(registered)
        self._after_population_change(registered, joined=True)
        self.metrics.registrations += 1
        return registered

    @_synchronized
    def deregister(self, name: str) -> None:
        """Remove a query; the lifetime ledger keeps no entry for it."""
        if name not in self._queries:
            raise AdmissionError(f"no query named {name!r} is registered")
        removed = self._queries.pop(name)
        self._after_population_change(removed, joined=False)
        self._unpin(removed)
        self.metrics.deregistrations += 1
        self._release_shape(removed.canonical.key)

    @_synchronized
    def export_group(self, names: Sequence[str]) -> Migration:
        """Lift ``names`` out of this server, in order, for transplant into another.

        Unlike :meth:`deregister`, an export is a *placement* change, not
        churn: each canonical shape's adaptive belief is snapshotted before
        the shape is retired, and the churn counters are untouched
        (``migrations_out`` is incremented instead). The returned
        :class:`Migration` re-enters a server through :meth:`admit_group`
        with the exact plan, schedule and oracle state the group left with.
        """
        if len(set(names)) < len(names):
            raise AdmissionError(f"a migrated group names a query twice: {names!r}")
        queries = tuple(self.query(name) for name in names)
        streams: set[str] = set()
        for query in queries:
            streams.update(query.tree.streams)
        # Snapshot the held items first: lifting the movers applies the
        # relevance rule, purging streams only they used.
        now, stores = self.cache.export_stream_state(streams)
        beliefs: dict[str, ShapeBelief] = {}
        tel = self.telemetry
        for query in queries:
            key = query.canonical.key
            if self.adaptive is not None and key not in beliefs:
                belief = self.adaptive.export_shape(key)
                if belief is not None:
                    beliefs[key] = belief
            del self._queries[query.name]
            self._after_population_change(query, joined=False)
            self._unpin(query)
            self.metrics.migrations_out += 1
            if tel is not None and tel.enabled:
                tel.registry.counter("repro_migrations_total", direction="out").inc()
                tel.event("migration-out", query=query.name, round=self._round)
            self._release_shape(key)
        return Migration(self._round, now, stores, queries, beliefs)

    def _release_shape(self, key: str) -> None:
        """Drop one resident of shape ``key``; retire its belief with the last."""
        self._shape_refs[key] -= 1
        if self._shape_refs[key] == 0:
            del self._shape_refs[key]
            if self.adaptive is not None:
                self.adaptive.retire(key)

    @_synchronized
    def admit_group(self, migration: Migration, order: Sequence[str]) -> None:
        """Install an exported group verbatim, then re-key the registration
        order to ``order`` (a permutation of the residents and the group).

        No re-canonicalization, no re-planning, no plan-cache traffic: the
        group's schedules were computed by the same deterministic scheduler
        this cluster's servers share, so re-deriving them could only
        reproduce them (placement must never change what a query costs) —
        installing them directly also leaves the (possibly cluster-shared)
        plan cache entries exactly as they were. The whole group is checked
        before anything changes: a duplicate name, a group that does not
        fit under ``max_queries``, an unknown stream or a bad ``order``
        raises and leaves this server untouched.

        The round clock moves forward to the source's when behind, so
        transplanted re-plan cooldowns keep their meaning. Each shape's
        adaptive belief transplants when this server is adaptive and does
        not already track the shape. The source
        cache's held items are adopted after the movers are registered, so
        this server's relevance horizon already covers their streams. This
        server's ledger counts only the rounds it serves; the group's
        earlier numbers are in the source's batch reports.
        """
        arriving: set[str] = set()
        for query in migration.queries:
            if query.name in self._queries or query.name in arriving:
                raise AdmissionError(f"query {query.name!r} is already registered")
            arriving.add(query.name)
            self.registry.validate_tree_streams(tuple(query.tree.streams))
        if (
            self.max_queries is not None
            and len(self._queries) + len(arriving) > self.max_queries
        ):
            raise AdmissionError(
                f"server is full ({self.max_queries} queries); cannot adopt a "
                f"migrated group of {len(arriving)}"
            )
        if sorted(order) != sorted([*self._queries, *arriving]):
            raise AdmissionError(
                "admission order must permute the residents and the migrated group"
            )
        self._round = max(self._round, migration.round)
        if self.adaptive is not None:
            for key, belief in migration.beliefs.items():
                self.adaptive.import_shape(key, belief)
        tel = self.telemetry
        for query in migration.queries:
            self._queries[query.name] = query
            self._shape_refs[query.canonical.key] += 1
            self._pin(query)
            self._after_population_change(query, joined=True)
            self.metrics.migrations_in += 1
            if tel is not None and tel.enabled:
                tel.registry.counter("repro_migrations_total", direction="in").inc()
                tel.event("migration-in", query=query.name, round=self._round)
        self.cache.adopt_stream_state(migration.now, migration.stores)
        self.reorder(order)

    @_synchronized
    def reorder(self, names: Sequence[str]) -> None:
        """Re-key the registration order to ``names`` (a permutation).

        Registration order is the order a round serves the residents'
        schedules in. It changes no count, but it decides which query pays
        first for a window that several read, and so each query's share of
        the cost. :meth:`admit_group` ends here, restoring the cluster's
        global admission order after a group lands mid-population, so a
        query's cost is independent of how it travelled.
        """
        if sorted(names) != sorted(self._queries):
            raise AdmissionError(
                f"reorder must permute the registered names; got {sorted(names)!r} "
                f"vs {sorted(self._queries)!r}"
            )
        self._queries = {name: self._queries[name] for name in names}
        self._program.reorder(names)

    def _after_population_change(self, query: RegisteredQuery, *, joined: bool) -> None:
        """Fold one arrival or departure into the per-stream window state.

        ``_window_counts[stream]`` is the multiset of windows the residents'
        leaves apply to ``stream``; ``_max_windows`` is its maximum per
        stream. Only ``query``'s own leaves are touched, and a stream's max
        is recomputed only when its last holder leaves. An arrival also
        grows device time, so its windows are immediately servable. The
        round program appends or tombstones the query's row.
        """
        windows = self._max_windows
        shrank = False
        if joined:
            self._program.append(query.name, query.tree, query.schedule, query.oracle)
            window_counts = self._window_counts
            for leaf in query.tree.leaves:
                counts = window_counts.get(leaf.stream)
                if counts is None:
                    counts = window_counts[leaf.stream] = collections.Counter()
                counts[leaf.items] += 1
                if leaf.items > windows.get(leaf.stream, 0):
                    windows[leaf.stream] = leaf.items
            max_items = query.tree.max_items
            if max_items > self.cache.now:
                self.cache.advance(max_items - self.cache.now)
        else:
            self._program.remove(query.name)
            for leaf in query.tree.leaves:
                counts = self._window_counts[leaf.stream]
                counts[leaf.items] -= 1
                if counts[leaf.items]:
                    continue
                del counts[leaf.items]
                if leaf.items < windows[leaf.stream]:
                    continue
                shrank = True
                if counts:
                    windows[leaf.stream] = max(counts)
                else:
                    del windows[leaf.stream], self._window_counts[leaf.stream]
        # Relevance rule: items outside the (possibly shrunken) windows of
        # the *current* population are no longer held (paper §I) — departed
        # queries leave no placement-dependent residual warmth behind. Pure
        # growth (every old horizon still covered) cannot evict anything, so
        # admissions skip the cache scan.
        if shrank:
            self.cache.retain_relevant(windows)

    def _base_probs(
        self, form: CanonicalForm, tree: DnfTree, *, tracked: bool = True
    ) -> tuple[float, ...]:
        """Per-canonical-leaf probabilities of ``form``'s shape: the adaptive
        baseline when ``tracked`` and the shape is tracked, else ``tree``'s
        admission probabilities."""
        adaptive = self.adaptive
        if tracked and adaptive is not None and form.key in adaptive.tracked_keys():
            return adaptive.baseline(form.key)
        return tuple(tree.leaves[group[0]].prob for group in form.leaf_map)

    def _plan_canonical(self, form: CanonicalForm, scheduler: Scheduler) -> CachedPlan:
        if self.plan_cache is not None:
            return self.plan_cache.plan(form, scheduler)
        return CachedPlan.build(form.key, form.tree, scheduler)

    def _pin(self, query: RegisteredQuery) -> None:
        """Keep ``query``'s shape in the plan cache while it is resident."""
        if self.plan_cache is not None:
            self.plan_cache.pin(query.canonical.key, query.plan.scheduler_name)

    def _unpin(self, query: RegisteredQuery) -> None:
        if self.plan_cache is not None:
            self.plan_cache.unpin(query.canonical.key, query.plan.scheduler_name)

    def _scheduler_by_name(self, name: str) -> Scheduler:
        if name == self.scheduler.name:
            return self.scheduler
        return get_scheduler(name)

    # -- adaptive re-planning -------------------------------------------

    @_synchronized
    def replan_canonical(
        self,
        key: str,
        base_probs: Sequence[float],
        *,
        drifted: Sequence[int] = (),
        reason: str = "forced",
    ) -> list[ReplanEvent]:
        """Re-plan every registered query of canonical shape ``key``.

        ``base_probs`` are per-*canonical-leaf* per-copy success
        probabilities (folded duplicates receive ``p**k`` automatically).
        The stale :class:`PlanCache` entries for ``key`` are invalidated, the
        shape is re-scheduled per admission scheduler, and every isomorph's
        expanded schedule and round-program row are rewritten. Returns one
        :class:`~repro.adaptive.ReplanEvent` per distinct admission scheduler
        among the shape's queries.
        """
        members = [q for q in self._queries.values() if q.canonical.key == key]
        if not members:
            raise AdmissionError(f"no registered query has canonical key {key!r}")
        form = members[0].canonical
        base_probs = tuple(float(p) for p in base_probs)
        if len(base_probs) != len(form.leaf_map):
            raise AdmissionError(
                f"canonical shape {key!r} has {len(form.leaf_map)} leaves, "
                f"got {len(base_probs)} probabilities"
            )
        old_base = self._base_probs(form, members[0].tree)
        folded = fold_base_probs(base_probs, form.fold_sizes)
        belief = form.reprobed_tree(folded)
        by_scheduler: dict[str, list[RegisteredQuery]] = {}
        for query in members:
            by_scheduler.setdefault(query.plan.scheduler_name, []).append(query)
        # Phase 1: schedule every group under the new belief and apply the
        # hysteresis gate. A *fully*-suppressed re-plan touches nothing — in
        # particular it must not drop the (possibly cluster-shared) plan
        # cache entries for schedules that stay in service. When any group
        # does apply, the whole shape's cache entries are invalidated (all
        # schedulers): the shape's belief moved, so its admission-keyed
        # plans are stale even for groups whose swap was suppressed.
        prepared: list[tuple[list[RegisteredQuery], CachedPlan, Schedule, float]] = []
        for scheduler_name, group in by_scheduler.items():
            plan = CachedPlan.build(key, belief, self._scheduler_by_name(scheduler_name))
            old_schedule = group[0].plan.schedule
            old_cost = dnf_schedule_cost(belief, old_schedule, validate=False)
            if (
                reason == "drift"
                and self.adaptive is not None
                and self.adaptive.policy.min_saving > 0.0
                and old_cost - plan.cost < self.adaptive.policy.min_saving
            ):
                # Hysteresis: the drifted belief is still adopted as the new
                # baseline (rebase below, which also starts the cooldown), but
                # a schedule swap expected to save less than min_saving per
                # round is not worth the churn.
                self.metrics.replans_suppressed += 1
                continue
            prepared.append((group, plan, old_schedule, old_cost))
        # Phase 2: apply the surviving groups.
        invalidated = (
            self.plan_cache.invalidate(key)
            if prepared and self.plan_cache is not None
            else 0
        )
        events: list[ReplanEvent] = []
        for group, plan, old_schedule, old_cost in prepared:
            for query in group:
                expanded = query.canonical.expand_schedule(plan.schedule)
                replanned = self._queries[query.name] = dataclass_replace(
                    query,
                    plan=plan,
                    schedule=validate_schedule(query.tree, expanded),
                    planning_tree=query.canonical.reprobed_original(
                        query.tree, base_probs
                    ),
                )
                self._program.reschedule(query.name, replanned.schedule)
            event = ReplanEvent(
                round_index=self._round,
                canonical_key=key,
                drifted_leaves=tuple(drifted),
                old_probs=old_base,
                new_probs=base_probs,
                old_schedule=old_schedule,
                new_schedule=plan.schedule,
                old_cost=old_cost,
                new_cost=plan.cost,
                invalidated=invalidated,
                queries=tuple(q.name for q in group),
                reason=reason,
            )
            events.append(event)
            self.replan_log.append(event)
            self.metrics.replans += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            for event in events:
                tel.registry.counter("repro_replans_total").inc()
                tel.event(
                    "replan",
                    key=key,
                    reason=reason,
                    round=self._round,
                    queries=len(event.queries),
                    drifted=list(event.drifted_leaves),
                    old_cost=event.old_cost,
                    new_cost=event.new_cost,
                    saving=event.old_cost - event.new_cost,
                )
        if self.adaptive is not None:
            self.adaptive.rebase(key, self._round, base_probs)
            for event in events:
                self.adaptive.record_event(event)
        return events

    @_synchronized
    def replan_query(
        self, name: str, true_probs: Mapping[int, float]
    ) -> list[ReplanEvent]:
        """Force a re-plan of ``name``'s shape with known leaf probabilities.

        ``true_probs`` maps *original-tree* global leaf indices to their
        (externally known) success probabilities; omitted leaves keep the
        probability of the current plan. This is the oracle-re-plan hook the
        drift experiments use as an upper baseline — no detection lag, no
        estimation noise.
        """
        query = self.query(name)
        form = query.canonical
        base = list(self._base_probs(form, query.tree))
        origin = form.origin_to_canonical
        for gindex, prob in true_probs.items():
            gindex = int(gindex)
            if not 0 <= gindex < len(origin):
                raise AdmissionError(
                    f"query {name!r} has {len(origin)} leaves; got leaf {gindex}"
                )
            base[origin[gindex]] = float(prob)
        return self.replan_canonical(form.key, base, reason="forced")

    def _observe_round(self, program: RoundProgram) -> None:
        """Feed the round's evaluated probe outcomes into the drift tracker,
        per query in registration order and per query in probe order."""
        assert self.adaptive is not None
        observe = self.adaptive.observe
        forms = [query.canonical for query in self._queries.values()]
        for position, gindex, outcome in zip(*program.evaluated()):
            form = forms[position]
            observe(form.key, form.origin_to_canonical[gindex], outcome)

    def _maybe_replan(self) -> list[ReplanEvent]:
        """Drift check for every tracked shape; re-plans the drifted ones."""
        if self.adaptive is None:
            return []
        events: list[ReplanEvent] = []
        for key in self.adaptive.tracked_keys():
            drifted = self.adaptive.should_replan(key, self._round)
            if drifted:
                events.extend(
                    self.replan_canonical(
                        key,
                        self.adaptive.proposed_base_probs(key),
                        drifted=drifted,
                        reason="drift",
                    )
                )
        return events

    # -- execution ------------------------------------------------------

    def _record_round_telemetry(
        self,
        tel: Telemetry,
        program: RoundProgram,
        stats: RoundStats,
        values: Sequence[bool],
        *,
        started: float,
        acquisition: float,
        planning: float,
        evaluating: float,
    ) -> None:
        """One round's histograms, detail events and phase split (enabled path only).

        Recording is per *round*, never per probe: the round loop calls this
        exactly once after closing the round, so the instrumented hot path
        stays allocation-free between rounds. The round's counters are not
        written here: :meth:`_serve` adds each batch's report to them once.
        ``started`` is the round's first clock read and ``evaluating`` the
        read its evaluation phase began at.
        """
        evaluated_at = time.perf_counter()
        reg = tel.registry
        cached = self._metric_cells
        if cached is None or cached[0] is not reg:
            cached = self._metric_cells = (
                reg,
                reg.histogram("repro_round_cost"),
                reg.histogram("repro_round_seconds"),
            )
        _, round_cost_h, round_seconds_h = cached
        round_cost_h.observe(stats.cost)
        round_seconds_h.observe(evaluated_at - started)
        if tel.detail:
            for name, value, cost, probes in zip(
                program.names, values, stats.query_cost, stats.query_probes
            ):
                tel.event(
                    "query-resolution",
                    query=name,
                    round=self._round,
                    cost=cost,
                    value=value,
                    probes=probes,
                )
        phases = self._phase_seconds
        phases["acquisition"] += acquisition
        phases["planning"] += planning
        phases["evaluation"] += evaluated_at - evaluating
        phases["telemetry"] += time.perf_counter() - evaluated_at

    @_synchronized
    def step(self) -> dict[str, ExecutionResult]:
        """Advance the streams one tick and evaluate every registered query.

        The round is served and accounted exactly as a one-round batch.
        """
        results: dict[str, ExecutionResult] = {}
        self._serve(1, results)
        return results

    def _step(self, tally: _BatchTally, results: dict[str, ExecutionResult] | None) -> None:
        """One round, folded into ``tally``.

        ``results``, when given, receives every query's
        :class:`~repro.engine.executor.ExecutionResult` of the round, read
        back before a drift re-plan rewrites any row.
        """
        if not self._queries:
            raise StreamError("no queries registered")
        tel = self.telemetry
        recording = tel is not None and tel.enabled
        wall_start = time.perf_counter() if recording else 0.0
        self.cache.advance(1, max_windows=self._max_windows)
        # Phase split: advancing the cache acquires the round's new window
        # state; writing the rows of the arrivals since the last round (and
        # compacting the dead ones away) is planning; everything through
        # adaptivity below is evaluation (the round program charges its
        # fetches after walking the steps, and that time is credited to
        # evaluation by design).
        acquired_at = time.perf_counter() if recording else 0.0
        program = self._program
        program.prepare()
        planned_at = time.perf_counter() if recording else 0.0
        stats = program.run(self.cache)
        values = program.values()
        self._round += 1
        tally.add(stats, values)
        if results is not None:
            results.update(program.results())
        if self.adaptive is not None:
            self._observe_round(program)
            tally.replans += len(self._maybe_replan())
        # Every resident oracle's round clock ticks once per round.
        program.tick()
        if recording:
            self._record_round_telemetry(
                tel,
                program,
                stats,
                values,
                started=wall_start,
                acquisition=acquired_at - wall_start,
                planning=planned_at - acquired_at,
                evaluating=planned_at,
            )

    @_synchronized
    def run_batch(self, rounds: int, *, engine: str = "scalar") -> BatchReport:
        """Run ``rounds`` consecutive steps and aggregate the outcome.

        ``engine`` no longer selects anything: ``"scalar"`` and
        ``"vectorized"`` both run the one compiled round loop, and any other
        value raises :class:`~repro.errors.StreamError`. A batch builds no
        per-query :class:`~repro.engine.executor.ExecutionResult` unless
        adaptive re-planning needs the round's outcomes.
        """
        if engine not in ("scalar", "vectorized"):
            raise StreamError(f"unknown batch engine {engine!r}")
        if rounds < 1:
            raise StreamError(f"need at least one round, got {rounds}")
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return self._serve(rounds)
        with tel.span("batch", rounds=rounds, queries=len(self._queries)) as attrs:
            marks = dict(self._phase_seconds)
            report = self._serve(rounds)
            attrs["total_cost"] = report.total_cost
            attrs["probes"] = report.probes
            attrs["replans"] = report.replans
            # This batch's share of the cumulative phase accounting; the
            # attribution report (repro trace --format critical-path)
            # buckets the span's wall time with exactly these numbers.
            attrs["phase_seconds"] = {
                phase: self._phase_seconds[phase] - marks[phase] for phase in marks
            }
        return report

    def _serve(
        self, rounds: int, results: dict[str, ExecutionResult] | None = None
    ) -> BatchReport:
        """Serve ``rounds`` rounds and account them: the path every round takes.

        The batch tally folds each round once; its report then reaches the
        lifetime ledger and, while telemetry records, the registry's
        counters, once per batch. ``results`` receives the last round's
        per-query results.
        """
        tally = _BatchTally.start(self._program.names)
        for _ in range(rounds):
            self._step(tally, results)
        report = tally.report(
            self.plan_cache.hit_rate if self.plan_cache is not None else 0.0
        )
        self.metrics.record_batch(report)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            started = time.perf_counter()
            reg = tel.registry
            reg.counter("repro_rounds_total").inc(report.rounds)
            reg.counter("repro_probes_total").inc(report.probes)
            reg.counter("repro_free_probes_total").inc(report.free_probes)
            reg.counter("repro_items_fetched_total").inc(report.items_fetched)
            reg.counter("repro_items_saved_total").inc(report.items_saved)
            self._phase_seconds["telemetry"] += time.perf_counter() - started
        return report


def run_isolated(
    registry: StreamRegistry,
    queries: Sequence[tuple[str, TreeLike]],
    rounds: int,
    *,
    scheduler: str | Scheduler = DEFAULT_SCHEDULER,
    oracle_factory: Callable[[str], LeafOracle] | None = None,
    warmup: int = 64,
) -> dict[str, float]:
    """Each query on its own private cache and plan — the no-sharing baseline.

    Returns per-query total cost over ``rounds``; ``sum(result.values())``
    is the number the shared server's total should beat. ``oracle_factory``
    builds one oracle per query (default: fresh :class:`BernoulliOracle`
    seeded per query, so runs are reproducible).
    """
    if rounds < 1:
        raise StreamError(f"need at least one round, got {rounds}")
    chosen = get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    totals: dict[str, float] = {}
    for ordinal, (name, tree) in enumerate(queries):
        dnf = _as_dnf(tree)
        registry.validate_tree_streams(dnf.streams)
        oracle = (
            oracle_factory(name)
            if oracle_factory is not None
            else BernoulliOracle(seed=ordinal)
        )
        schedule = validate_schedule(dnf, chosen.schedule(dnf))
        max_windows = compute_max_windows([dnf])
        cache = registry.build_cache(
            now=max(warmup, max(leaf.items for leaf in dnf.leaves))
        )
        executor = ScheduleExecutor(dnf, cache, oracle)
        total = 0.0
        for _ in range(rounds):
            cache.advance(1, max_windows=max_windows)
            total += executor.run(schedule).cost
        totals[name] = total
    return totals
