"""Workloads of the serving benchmark: inputs, serving loop, reference check.

Every workload is a closed loop of *ticks*. A tick applies the churn events
due at it (departures, then arrivals) and serves one round to every resident
query with ``run_batch(1)``; the loop never starts the next tick before the
previous one returned, so a slow tick delays the ones after it.

* ``steady`` - 500 resident queries over 48 templates on one ``QueryServer``,
  no churn. Round evaluation (leaf resolution along the shared probe plan)
  takes nearly all of a tick.
* ``churn`` - 150 resident queries over 24 templates on one ``QueryServer``;
  every tick 2 leave and 2 arrive, and every 10th arrival is a shape no query
  had before. Each change drops the merged probe plan, so re-merging it
  takes most of a tick; admission and departure themselves are cheap.
* ``cluster`` - 400 queries over 48 templates on 8 disjoint stream groups of
  4 streams, routed onto a 2-shard process-mode ``ClusterServer``, no churn.
  Dispatch over the worker pipe and the parallel shard rounds share a tick.

The sizes follow the repository's own benchmarks: 400 queries on 2 shards
with 4 streams per group as in ``test_bench_process_cluster``, 2 departures
and arrivals per round as the lowest churn rate of ``test_bench_slo`` on a
population near its 128 resident queries. ``steady`` and ``cluster`` keep 8
to 10 queries per template, near the 10:1 default of ``synthetic_population``;
``churn`` keeps 6, so its arrivals spread over more shapes. Template counts
are multiples of 12 so that every seed gets the same mix of tree sizes (see
``draw_template``). The novel-arrival rate is chosen, not taken from a bench.

Inputs come from the seed alone. Each query's leaf outcomes come from its own
``DriftingBernoulliOracle`` on a static schedule, whose random tape is the
same for the scalar and the vectorized round loop. That makes an independent
reference possible: after the measured loop, an unsharded ``QueryServer``
replays the set-up and the first ``CHECK_TICKS`` ticks (same population, same
churn, identically seeded oracles) on the vectorized engine, and every
query's cost and answers must match the measured system's.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.cluster.cluster import ClusterServer
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine.executor import DriftingBernoulliOracle
from repro.errors import ReproError
from repro.generators.overlap_populations import (
    clustered_registry,
    clustered_stream_groups,
)
from repro.obs import Telemetry, build_forest
from repro.service.server import QueryServer
from repro.service.simulate import shuffled_isomorph, synthetic_registry
from repro.streams.drift import DriftSchedule
from repro.streams.registry import StreamRegistry

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: On a shared 2-vCPU cloud host the CPU speed changes by up to 1.8x from
#: one second to the next as other tenants load the physical cores, and the
#: steady workload's wall-clock p90 tick latency spread by 48% (quartile
#: distance over median) across six 20 s runs. So a fixed pure-Python loop
#: (``_reference_loop``) is timed right before every tick and around every
#: set-up, and reported times are divided by how much slower it ran than
#: ``REFERENCE_S``. The loop is timed in CPU time of the bench's own thread,
#: so the program's threads and processes taking the GIL or a vCPU from it do
#: not stretch its reading; work the program left running on a vCPU that
#: shares a physical core with it still could. The raw wall-clock figures
#: are printed too.
REFERENCE_S = 4.5e-4
#: Loop timings per set-up reading; their median counts.
SETUP_READINGS = 32
#: Each tick is scaled by the median of this many reference readings centred
#: on it: the host's speed can change from one second to the next.
SCALE_WINDOW = 5
#: Percentile of the pooled tick latencies reported as ``tick_tail_ms``.
TAIL_PERCENTILE = 90
#: Leading measured ticks the reference replay checks and ``cost_per_eval``
#: averages over; both are fixed by the seed alone.
CHECK_TICKS = 32
#: Relative and absolute tolerance of the cost comparison.
COST_TOLERANCE = 1e-9

N_STREAMS = 32
N_GROUPS = 8
STREAMS_PER_GROUP = 4


@dataclass(frozen=True)
class Spec:
    """One workload's traffic mix."""

    resident: int
    #: Distinct query shapes; residents are spread evenly over them.
    templates: int
    #: Departures and arrivals applied before each round.
    churn_per_tick: int = 0
    #: Every ``novel_every``-th arrival is a shape no query had (0: none).
    novel_every: int = 0
    #: 0 serves on one QueryServer; more serves on a process-mode cluster.
    shards: int = 0


SPECS: dict[str, Spec] = {
    "steady": Spec(resident=500, templates=48),
    "churn": Spec(resident=150, templates=24, churn_per_tick=2, novel_every=10),
    "cluster": Spec(resident=400, templates=48, shards=2),
}


def draw_template(slot: int, streams: list[str], costs, rng: np.random.Generator) -> DnfTree:
    """A random tree whose AND and leaf counts depend only on ``slot``.

    Slots 0-11 run through every pairing of 1-3 ANDs with a first AND of 1-4
    leaves, so any 12 consecutive slots give every seed the same mix of query
    sizes: the seed picks streams, windows and probabilities, not how much
    work the population is.
    """
    ands = [
        [
            Leaf(
                streams[int(rng.integers(len(streams)))],
                int(rng.integers(1, 7)),
                float(rng.uniform(0.05, 0.95)),
            )
            for _ in range(1 + (slot // 3 + j) % 4)
        ]
        for j in range(1 + slot % 3)
    ]
    used = {leaf.stream for leaves in ands for leaf in leaves}
    return DnfTree(ands, {name: costs[name] for name in used})


@dataclass
class Inputs:
    registry: StreamRegistry
    #: Template trees and the streams each one draws from.
    templates: list[tuple[DnfTree, list[str]]]
    population: list[tuple[str, DnfTree]]
    #: Per-query oracle seeds, by name.
    oracle_seeds: dict[str, int]


@dataclass
class Event:
    """One population change applied before a tick's round."""

    action: str  # "admit" or "depart"
    name: str
    tree: DnfTree | None = None
    oracle_seed: int = 0


def _reference_loop() -> float:
    """Dict, float and loop work of the kind the server's rounds do; fixed."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] % 7.0
    return total


def reference_seconds() -> float:
    """CPU seconds of one ``_reference_loop`` on this thread."""
    start = time.thread_time()
    _reference_loop()
    return time.thread_time() - start


def host_slowdown(readings: int) -> float:
    """The median of ``readings`` reference timings, over ``REFERENCE_S``."""
    return statistics.median(reference_seconds() for _ in range(readings)) / REFERENCE_S


def make_oracle(tree: DnfTree, seed: int) -> DriftingBernoulliOracle:
    """Leaf outcomes drawn at the declared probabilities, engine-independent."""
    return DriftingBernoulliOracle(
        DriftSchedule([leaf.prob for leaf in tree.leaves]), seed=seed
    )


def make_registry(spec: Spec) -> tuple[StreamRegistry, list[list[str]]]:
    """The sensing environment and the stream groups templates draw from.

    The environment (streams and their per-item costs) is the same for every
    seed, as a deployment's sensors are; the seed varies the queries.
    """
    if spec.shards:
        registry = clustered_registry(N_GROUPS, STREAMS_PER_GROUP)
        return registry, clustered_stream_groups(N_GROUPS, STREAMS_PER_GROUP)
    registry = synthetic_registry(N_STREAMS)
    return registry, [list(registry.names)]


def make_inputs(
    spec: Spec, registry: StreamRegistry, groups: list[list[str]], seed: int, repeat: int
) -> Inputs:
    """The templates and initial population of set-up ``repeat``.

    Each repeat draws its own, so no repeat admits trees an earlier one left
    in a memo. Queries go round-robin over the templates (group-major, so
    the groups get equal shares) as shuffled isomorphs.
    """
    rng = np.random.default_rng([seed, repeat])
    costs = registry.cost_table()
    per_group = spec.templates // len(groups)
    templates = [
        (draw_template(slot, groups[slot // per_group], costs, rng), groups[slot // per_group])
        for slot in range(spec.templates)
    ]
    population = [
        (f"q{q:05d}", shuffled_isomorph(templates[q % spec.templates][0], rng))
        for q in range(spec.resident)
    ]
    seeds = {name: int(rng.integers(2**62)) for name, _ in population}
    return Inputs(registry, templates, population, seeds)


class ChurnSource:
    """Seeded generator of each tick's departures and arrivals."""

    def __init__(self, spec: Spec, inputs: Inputs, seed: int) -> None:
        self.spec = spec
        self.templates = inputs.templates
        self.costs = inputs.registry.cost_table()
        self.residents = [name for name, _ in inputs.population]
        self.rng = np.random.default_rng([seed, 0xC4])
        self.arrivals = 0

    def next_tick(self) -> list[Event]:
        events: list[Event] = []
        rng = self.rng
        for _ in range(self.spec.churn_per_tick):
            slot = int(rng.integers(len(self.residents)))
            self.residents[slot], self.residents[-1] = (
                self.residents[-1],
                self.residents[slot],
            )
            events.append(Event("depart", self.residents.pop()))
        for _ in range(self.spec.churn_per_tick):
            slot = self.arrivals % self.spec.templates
            template, streams = self.templates[slot]
            every = self.spec.novel_every
            if every and self.arrivals % every == every - 1:
                tree = draw_template(slot, streams, self.costs, rng)
            else:
                tree = shuffled_isomorph(template, rng)
            name = f"a{self.arrivals:06d}"
            events.append(Event("admit", name, tree, int(rng.integers(2**62))))
            self.arrivals += 1
            self.residents.append(name)
        return events


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, tel: Telemetry | None) -> None:
        self.tel = tel
        self.attempted = 0
        self.failed = 0
        #: Wall seconds of every set-up, raw and at reference host speed.
        self.setups: list[float] = []
        self.scaled_setups: list[float] = []
        #: Wall seconds of every tick of the measured loop, and the reference
        #: reading taken right before it.
        self.latencies: list[float] = []
        self.references: list[float] = []
        #: Query rounds served over the whole loop.
        self.evals = 0
        self.probes = 0
        self.free_probes = 0
        self.items_fetched = 0
        self.items_saved = 0
        self.problems: list[str] = []

    @property
    def ticks(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Tick latencies at reference host speed."""
        half = SCALE_WINDOW // 2
        refs = self.references
        return [
            latency * REFERENCE_S / statistics.median(refs[max(0, i - half) : i + half + 1])
            for i, latency in enumerate(self.latencies)
        ]

    def call(self, span: str, fn, *args, **kwargs):
        """One operation against the system, inside a span when tracing.

        A library error counts the operation as failed and returns None.
        """
        self.attempted += 1
        with self.tel.span(span, op=fn.__name__) if self.tel else nullcontext():
            try:
                return fn(*args, **kwargs)
            except ReproError as exc:
                self.failed += 1
                self.problems.append(f"{fn.__name__} failed: {exc}")
                return None


def build_system(spec: Spec, inputs: Inputs, tel: Telemetry | None):
    if spec.shards:
        return ClusterServer(
            inputs.registry, n_shards=spec.shards, executor="process", telemetry=tel
        )
    return QueryServer(inputs.registry, telemetry=tel)


def close_system(system) -> None:
    close = getattr(system, "close", None)
    if close is not None:
        close()


def stop_helper_processes() -> None:
    """Stop and reap every process the run started.

    ``close`` already joins a cluster's shard workers. Spawning them also
    starts multiprocessing's resource tracker, which would otherwise outlive
    the benchmark, so it is stopped and waited for here too.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def set_up(run: Run, spec: Spec, inputs: Inputs):
    """Build the system, admit the population, serve one warm-up round."""
    oracles = [make_oracle(tree, inputs.oracle_seeds[name]) for name, tree in inputs.population]
    before = host_slowdown(SETUP_READINGS)
    start = time.perf_counter()
    system = build_system(spec, inputs, run.tel)
    try:
        for (name, tree), oracle in zip(inputs.population, oracles):
            run.call("bench-population", system.register, name, tree, oracle=oracle)
        run.call("bench-warmup", system.run_batch, 1)
    except BaseException:
        close_system(system)
        raise
    elapsed = time.perf_counter() - start
    run.setups.append(elapsed)
    run.scaled_setups.append(elapsed * 2 / (before + host_slowdown(SETUP_READINGS)))
    return system


def serve(run: Run, system, churn: ChurnSource, seconds: float):
    """The measured loop; returns the checked ticks' events and outputs."""
    checked: list[tuple[list[Event], dict[str, float], dict[str, float]]] = []
    # A population change drops the server's merged probe plan, and the next
    # round rebuilds it. Building it in a call of its own splits the re-merge
    # from the round in the trace; the tick does the same work either way.
    replan = getattr(system, "shared_plan", None)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        events = churn.next_tick()
        oracles = {e.name: make_oracle(e.tree, e.oracle_seed) for e in events if e.tree}
        run.references.append(reference_seconds())
        start = time.perf_counter()
        for event in events:
            if event.action == "depart":
                run.call("bench-population", system.deregister, event.name)
            else:
                run.call(
                    "bench-population",
                    system.register,
                    event.name,
                    event.tree,
                    oracle=oracles[event.name],
                )
        if events and replan is not None:
            run.call("bench-replan", replan)
        report = run.call("bench-round", system.run_batch, 1)
        run.latencies.append(time.perf_counter() - start)
        if report is None:
            continue
        costs = report.per_query_cost
        run.evals += len(costs)
        run.probes += report.probes
        run.free_probes += report.free_probes
        run.items_fetched += report.items_fetched
        run.items_saved += report.items_saved
        if len(checked) < CHECK_TICKS:
            checked.append((events, dict(costs), dict(report.per_query_true_rate)))
    return checked


def check_against_reference(run: Run, inputs: Inputs, checked) -> None:
    """Replay set-up and the checked ticks on an unsharded vectorized server."""
    reference = QueryServer(inputs.registry)
    for name, tree in inputs.population:
        reference.register(name, tree, oracle=make_oracle(tree, inputs.oracle_seeds[name]))
    reference.run_batch(1, engine="vectorized")
    measured: dict[str, list[float]] = {}
    for _, costs, trues in checked:
        for name, cost in costs.items():
            entry = measured.setdefault(name, [0.0, 0.0])
            entry[0] += cost
            entry[1] += trues[name]
    expected: dict[str, list[float]] = {}
    pending = 0

    def serve_pending() -> None:
        if not pending:
            return
        report = reference.run_batch(pending, engine="vectorized")
        for name, cost in report.per_query_cost.items():
            entry = expected.setdefault(name, [0.0, 0.0])
            entry[0] += cost
            entry[1] += report.per_query_true_rate[name] * pending

    # Ticks without churn are replayed as one batch.
    for events, _, _ in checked:
        if events:
            serve_pending()
            pending = 0
            for event in events:
                if event.action == "depart":
                    reference.deregister(event.name)
                else:
                    reference.register(
                        event.name, event.tree, oracle=make_oracle(event.tree, event.oracle_seed)
                    )
        pending += 1
    serve_pending()
    if not measured:
        run.problems.append("no round was served")
    if set(measured) != set(expected):
        run.problems.append(
            f"served query sets differ: {len(measured)} measured, {len(expected)} reference"
        )
        return
    for name, (cost, trues) in measured.items():
        want_cost, want_trues = expected[name]
        if not math.isclose(cost, want_cost, rel_tol=COST_TOLERANCE, abs_tol=COST_TOLERANCE):
            run.problems.append(f"{name}: cost {cost!r} != reference {want_cost!r}")
        if round(trues) != round(want_trues):
            run.problems.append(f"{name}: {trues:g} TRUE rounds != reference {want_trues:g}")


def end_to_end(run: Run, checked) -> dict[str, tuple[float, str]]:
    """Tick latency and set-up time at reference host speed; checked cost."""
    ticks = len(run.latencies)
    print(
        f"tick latency: {ticks} ticks, {ticks * (100 - TAIL_PERCENTILE) / 100:.0f} "
        f"beyond p{TAIL_PERCENTILE}; set-up: {len(run.setups)} repeats"
    )
    raw = {
        "tick_ms": statistics.median(run.latencies) * 1e3,
        "tick_tail_ms": float(np.percentile(run.latencies, TAIL_PERCENTILE)) * 1e3,
        "setup_s": statistics.median(run.setups),
    }
    print(f"wall clock: {json.dumps(raw)}")
    cost = sum(sum(costs.values()) for _, costs, _ in checked)
    evals = sum(len(costs) for _, costs, _ in checked)
    scaled = run.scaled_latencies()
    return {
        "tick_ms": (statistics.median(scaled) * 1e3, "ms"),
        "tick_tail_ms": (float(np.percentile(scaled, TAIL_PERCENTILE)) * 1e3, "ms"),
        "cost_per_eval": (cost / max(1, evals), "cost"),
        "setup_s": (statistics.median(run.scaled_setups), "s"),
    }


def per_layer(run: Run, system) -> dict[str, tuple[float, str]]:
    """Layer numbers from the traced run's spans and the program's own phases."""
    phases = {"acquisition": 0.0, "evaluation": 0.0, "telemetry": 0.0}
    population_s = replan_s = dispatch_s = 0.0
    population_ops = rounds = 0
    for root in build_forest(run.tel.tracer.records()).roots:
        if root.name == "bench-population":
            population_ops += 1
            population_s += root.dur
        elif root.name == "bench-replan":
            replan_s += root.dur
        elif root.name == "bench-round":
            batches = [node for node in root.walk() if node.name == "batch"]
            if not batches:
                continue
            rounds += 1
            for node in batches:
                for phase, seconds in node.attrs.get("phase_seconds", {}).items():
                    if phase in phases:
                        phases[phase] += float(seconds)
            # Shards serve in parallel: the slowest shard's batch bounds the
            # round, the rest of the call is dispatch (pool, pipe, pickling).
            dispatch_s += root.dur - max(node.dur for node in batches)
    # Layer times are scaled by the run's median host slowdown, so that they
    # and ``traced_tick_ms`` compare with the untraced run's ``tick_ms``.
    # Shard phases are summed over the shards that served a round.
    ms = 1e3 * REFERENCE_S / statistics.median(run.references)
    per_round = ms / max(1, rounds)
    plan_cache = system.plan_cache
    return {
        "population_ops": (population_ops, "count"),
        "population_ms": (population_s * ms / max(1, population_ops), "ms"),
        "rounds": (rounds, "count"),
        "traced_tick_ms": (statistics.median(run.scaled_latencies()) * 1e3, "ms"),
        "replan_ms": (replan_s * ms / max(1, run.ticks), "ms"),
        "acquisition_ms": (phases["acquisition"] * per_round, "ms"),
        "evaluation_ms": (phases["evaluation"] * per_round, "ms"),
        "telemetry_ms": (phases["telemetry"] * per_round, "ms"),
        "dispatch_ms": (dispatch_s * per_round, "ms"),
        "probes_per_round": (run.probes / max(1, run.ticks), "count"),
        "free_probe_share": (run.free_probes / max(1, run.probes), "ratio"),
        "items_saved_share": (
            run.items_saved / max(1, run.items_saved + run.items_fetched),
            "ratio",
        ),
        "plan_cache_hit_rate": (plan_cache.hit_rate if plan_cache else 0.0, "ratio"),
    }


def write_trace(tel: Telemetry, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as sink:
        for record in tel.tracer.records():
            sink.write(json.dumps(record, default=str) + "\n")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, trace_path: Path
) -> dict:
    spec = SPECS[workload]
    registry, groups = make_registry(spec)
    run = Run(Telemetry(capacity=1 << 20) if trace else None)
    system = None
    try:
        # Each set-up repeat admits its own population; the last repeat's
        # system is the one measured, and the traced run sets up only that.
        for repeat in range(SETUP_REPEATS - 1 if trace else 0, SETUP_REPEATS):
            if system is not None:
                close_system(system)
                system = None
            inputs = make_inputs(spec, registry, groups, seed, repeat)
            system = set_up(run, spec, inputs)
        gc.collect()
        checked = serve(run, system, ChurnSource(spec, inputs, seed), seconds)
        layers = per_layer(run, system) if trace else None
    finally:
        if system is not None:
            close_system(system)
        stop_helper_processes()
    metrics = layers if trace else end_to_end(run, checked)
    if trace:
        write_trace(run.tel, trace_path)
        if run.tel.tracer.dropped:
            run.problems.append(f"trace ring overflowed: {run.tel.tracer.dropped} spans dropped")
    check_against_reference(run, inputs, checked)
    for problem in run.problems[:20]:
        print(f"check: {problem}")
    print(
        f"{workload}: {run.ticks} ticks, {run.evals} query rounds, "
        f"{run.failed}/{run.attempted} operations failed"
    )
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
