"""One shard code path: both transports run the same command table.

A :class:`~repro.cluster.Shard` keeps the population mirror and sends every
other operation through a transport into ``run_command``. These tests pin
that contract from three sides: a table-driven script runs every op
against an in-process shard and a worker-process shard and demands equal
results; a transport-level op counter proves the control plane reads the
shard's index instead of calling the server; and a hypothesis property
checks that the index (names, signature and overlap components) always
equals a rebuild from the server.
"""

from __future__ import annotations

import copy
import dataclasses
import faulthandler
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.adaptive import ElasticPolicy
from repro.cluster import ClusterServer, Shard, WorkerTransport, default_oracle_factory
from repro.cluster.partition import build_overlap_graph, stream_weight_vector
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.errors import AdmissionError, StreamError
from repro.generators import clustered_registry, overlap_clustered_population

WATCHDOG_SECONDS = 120.0

#: Every op in the command table; the script below must send each of them.
ALL_OPS = frozenset(
    {
        "register",
        "deregister",
        "query",
        "export_group",
        "admit_group",
        "metrics",
        "step",
        "run_batch",
    }
)


@pytest.fixture(autouse=True)
def spawn_watchdog():
    """Dump all stacks and exit if a process-mode test wedges."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def small_environment(seed: int = 0, n_queries: int = 12, clusters: int = 3):
    registry = clustered_registry(clusters, 3, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, clusters, 3, cross_cluster_prob=0.0, seed=seed + 1
    )
    return registry, population


class _Recording:
    """Wraps a transport and records the op of every command it carries."""

    def __init__(self, inner, log: list[str]) -> None:
        self.inner = inner
        self.log = log

    def call(self, op, args, kwargs):
        self.log.append(op)
        return self.inner.call(op, args, kwargs)

    def close(self) -> None:
        self.inner.close()


def _local_view(report):
    """A batch report or metrics record minus its plan-cache hit rate.

    That rate reads the shard's own cache handle: the shared cluster cache
    in-process, the worker's read-through stub (local counters) in a worker.
    Cluster reports take the rate from the cluster cache under both.
    """
    return dataclasses.replace(report, plan_cache_hit_rate=0.0)


def _script(a: Shard, b: Shard, population) -> list[tuple]:
    """Drive every command-table op; return comparable views of the replies.

    In-process replies are live objects (passed by reference), so views are
    deep-copied when taken: later ops must not rewrite earlier records.
    """
    factory = default_oracle_factory(5)
    out: list[tuple] = []
    for name, tree in population:
        a.register(name, tree, oracle=factory(name))
    out.append(("register", a.names, dict(a.signature)))
    a.deregister(population[0][0])
    out.append(("deregister", a.names, dict(a.signature)))
    query = a.query(population[1][0])
    out.append(("query", query.name, query.schedule, query.plan.cost))
    report = a.run_batch(3)
    out.append(("run_batch", _local_view(report)))
    assert a.last_batch_seconds > 0.0
    step = a.step()
    out.append(("step", step))
    out.append(("metrics", _local_view(copy.deepcopy(a.metrics()))))
    # Move a group a -> b; b takes it ahead of its residents, reversed.
    movers = [name for name, _ in population[1:4]]
    migration = a.export_group(movers)
    out.append(
        (
            "export_group",
            migration.round,
            migration.now,
            copy.deepcopy(migration.stores),
            [query.name for query in migration.queries],
            a.names,
            dict(a.signature),
        )
    )
    b.admit_group(migration, [*reversed(movers), *b.names])
    out.append(("admit_group", b.names, dict(b.signature)))
    for shard in (a, b):
        out.append(("after-move", _local_view(shard.run_batch(2))))
        out.append(("after-move", _local_view(copy.deepcopy(shard.metrics()))))
    return out


def _run_script(executor: str) -> tuple[list[tuple], set[str]]:
    registry, population = small_environment(seed=3)
    log: list[str] = []
    cluster = ClusterServer(registry, n_shards=2, executor=executor, seed=3)
    try:
        a, b = cluster.shards[0], cluster.shards[1]
        for shard in (a, b):
            shard.transport = _Recording(shard.transport, log)
        return _script(a, b, population), set(log)
    finally:
        cluster.close()


class TestCommandTableParity:
    def test_every_op_matches_across_transports(self):
        thread, thread_ops = _run_script("thread")
        process, process_ops = _run_script("process")
        assert thread_ops == process_ops == ALL_OPS
        assert len(thread) == len(process)
        for local, remote in zip(thread, process):
            assert local == remote, local[0]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_unknown_op_is_rejected(self, executor: str):
        registry, _ = small_environment()
        with ClusterServer(registry, n_shards=1, executor=executor) as cluster:
            with pytest.raises(StreamError, match="unknown shard op"):
                cluster.shards[0].transport.call("bogus", (), {})


class TestControlPlaneReadsTheMirror:
    """Topology decisions read trees from the mirror, never a query RPC."""

    def test_partition_report_split_and_drain_send_no_query(self, monkeypatch):
        sent: list[str] = []
        original = WorkerTransport.call

        def counting(self, op, args, kwargs):
            sent.append(op)
            return original(self, op, args, kwargs)

        monkeypatch.setattr(WorkerTransport, "call", counting)
        registry, population = small_environment(seed=7, n_queries=18)
        with ClusterServer(registry, n_shards=2, executor="process") as cluster:
            cluster.register_population(population)
            cluster.run_batch(2)
            sent.clear()
            cluster.partition_report()
            assert sent == []  # answered from the mirror alone
            busiest = max(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
            assert cluster.split_shard(busiest, into=2) is not None
            cluster.drain_shard(max(cluster.shards))
            assert "export_group" in sent  # the moves did go through
            assert "query" not in sent
            # Retiring the drained shard takes no command of its own.
            assert set(sent) == {"export_group", "admit_group"}


class TestIdlePolicyCheck:
    """An elastic policy check that takes no action sends no command."""

    def test_batch_is_the_only_traffic(self, monkeypatch):
        sent: list[tuple[int, str]] = []
        original = WorkerTransport.send

        def recording(self, op, args, kwargs):
            sent.append((self.shard_id, op))
            return original(self, op, args, kwargs)

        monkeypatch.setattr(WorkerTransport, "send", recording)
        registry, population = small_environment(seed=7, n_queries=18)
        with ClusterServer(
            registry, n_shards=2, executor="process", elastic=ElasticPolicy()
        ) as cluster:
            cluster.register_population(population)
            active = sorted(shard.shard_id for shard in cluster.active_shards())
            assert len(active) == 2
            for _ in range(3):
                sent.clear()
                assert cluster.run_batch(1).elastic_actions == ()
                assert sorted(sent) == [(sid, "run_batch") for sid in active]


class TestOneCommandPairPerGroup:
    """A migration is one ``export_group`` and one ``admit_group`` per
    (source, destination) pair, and each reshaping call applies once."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Patch in recorders: ``sent`` shard ops, ``pairs`` (one mover
        count per moving (source, destination) pair) and ``applies``."""
        sent: list[str] = []
        pairs: list[int] = []
        applies: list[int] = []
        call, apply = WorkerTransport.call, ClusterServer._apply

        def counting(self, op, args, kwargs):
            sent.append(op)
            return call(self, op, args, kwargs)

        def recording(self, target):
            applies.append(len(target))
            moving = Counter(
                (self.shard_of(name), dest)
                for name, dest in target.items()
                if self.shard_of(name) != dest
            )
            pairs.extend(moving.values())
            return apply(self, target)

        monkeypatch.setattr(WorkerTransport, "call", counting)
        monkeypatch.setattr(ClusterServer, "_apply", recording)
        return sent, pairs, applies

    def test_every_reshaping_path_sends_one_pair_per_group(self, recorded):
        sent, pairs, applies = recorded
        registry, population = small_environment(seed=7, n_queries=18)

        def reshape(action, *others: str) -> list[int]:
            sent.clear()
            pairs.clear()
            applies.clear()
            action()
            assert len(applies) == 1, "the action must apply one target"
            assert pairs, "the action moved no group"
            assert sent.count("export_group") == sent.count("admit_group") == len(pairs)
            # No other command serves the migration.
            assert set(sent) <= {"export_group", "admit_group", *others}
            return list(pairs)

        with ClusterServer(registry, n_shards=2, executor="process", seed=7) as cluster:
            cluster.register_population(population, method="random")
            cluster.run_batch(2)
            moved = reshape(lambda: cluster.rebalance(force=True))
            busiest = max(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
            moved += reshape(lambda: cluster.split_shard(busiest, into=2))
            moved += reshape(lambda: cluster.drain_shard(max(cluster.shards)))
            home, away = (
                next(iter(shard.signature)) for shard in cluster.active_shards()[:2]
            )
            bridge = DnfTree(
                [[Leaf(home, 1, 0.5), Leaf(away, 1, 0.5)]], registry.cost_table()
            )
            moved += reshape(lambda: cluster.register("bridge", bridge), "register")
            assert max(moved) > 1  # a bigger group costs no extra command
            cluster.run_batch(2)

    def test_components_bound_for_one_shard_travel_as_one_pair(self, recorded):
        sent, pairs, _ = recorded
        registry = clustered_registry(3, 3, seed=8)
        costs = registry.cost_table()

        def on(stream: str) -> DnfTree:
            return DnfTree([[Leaf(stream, 1, 0.5)]], costs)

        with ClusterServer(registry, n_shards=2, executor="process", seed=8) as cluster:
            for name, stream in [("a0", "C0S0"), ("c0", "C2S0"), ("b0", "C1S0"),
                                 ("a1", "C0S0"), ("b1", "C1S0")]:
                cluster.register(name, on(stream))
            victim = cluster.shard_of("a0")
            assert cluster.shard_of("b0") == victim != cluster.shard_of("c0")
            cluster.run_batch(1)
            sent.clear()
            pairs.clear()
            event = cluster.drain_shard(victim)
            # Two stream-disjoint components, one destination: one pair.
            assert event.moves == 4 and event.new_shard_ids == (cluster.shard_of("c0"),)
            assert pairs == [4]
            assert sent.count("export_group") == sent.count("admit_group") == 1
            assert len(cluster.run_batch(1).per_query_cost) == 5

    def test_rejected_drain_sends_no_migration_command(self, recorded):
        sent, pairs, applies = recorded
        registry = clustered_registry(3, 2, seed=9)
        costs = registry.cost_table()

        def on(stream: str) -> DnfTree:
            return DnfTree([[Leaf(stream, 1, 0.5)]], costs)

        with ClusterServer(
            registry, n_shards=2, executor="process", max_shard_queries=3, seed=9
        ) as cluster:
            for name, stream in [("a0", "C0S0"), ("b0", "C1S0"), ("a1", "C0S0"),
                                 ("b1", "C1S0"), ("a2", "C0S0"), ("b2", "C1S0")]:
                cluster.register(name, on(stream))
            victim = cluster.shard_of("a0")
            sent.clear()
            applies.clear()
            with pytest.raises(AdmissionError, match="nothing moved"):
                cluster.drain_shard(victim)
            assert sent == [] and applies == []  # planned from the mirror alone
            assert len(cluster.shards[victim]) == 3


def _rebuilt_signature(shard: Shard, costs) -> dict[str, float]:
    signature: dict[str, float] = {}
    server = shard.transport.server
    for name in server.registered:
        weights = stream_weight_vector(server.query(name).tree, costs)
        for stream, weight in weights.items():
            if weight > signature.get(stream, 0.0):
                signature[stream] = weight
    return signature


def _rebuilt_components(shard: Shard, costs) -> list[tuple[list[str], list]]:
    """The server's overlap components, ``(members, list(weights.items()))``.

    Each query is labelled with the lowest registration index it reaches
    over shared streams (a fixed point, independent of the shard's walk),
    so components come in first-member order with members in registration
    order; weights are each stream's max, keyed in first-seen order.
    """
    server = shard.transport.server
    names = server.registered
    if not names:
        return []
    graph = build_overlap_graph([(n, server.query(n).tree) for n in names], costs)
    label = {name: index for index, name in enumerate(names)}
    changed = True
    while changed:
        changed = False
        for members in graph.by_stream.values():
            low = min(label[name] for name in members)
            for name in members:
                changed |= label[name] != low
                label[name] = low
    grouped: dict[int, list[str]] = {}
    for name in names:
        grouped.setdefault(label[name], []).append(name)
    components = []
    for members in grouped.values():
        weights: dict[str, float] = {}
        for name in members:
            for stream, weight in graph.weights[name].items():
                if weight > weights.get(stream, 0.0):
                    weights[stream] = weight
        components.append((members, list(weights.items())))
    return components


class TestMirrorMatchesServer:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        script=st.lists(
            st.tuples(
                st.sampled_from(["admit", "deregister", "migrate"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=14,
        ),
        picks=st.sets(st.integers(0, 8), max_size=4),
    )
    def test_mirror_equals_rebuild_from_server(self, seed, script, picks):
        registry, population = small_environment(seed=seed, n_queries=16)
        costs = registry.cost_table()
        cluster = ClusterServer(registry, n_shards=3, seed=seed)
        pending = list(population)
        for action, pick in script:
            if action == "admit" and pending:
                name, tree = pending.pop(pick % len(pending))
                cluster.register(name, tree)
            elif action == "deregister" and len(cluster):
                cluster.deregister(cluster.registered[pick % len(cluster)])
            elif action == "migrate" and len(cluster):
                name = cluster.registered[pick % len(cluster)]
                src = cluster.shard_of(name)
                dest = sorted(cluster.shards)[pick % len(cluster.shards)]
                if dest != src:
                    cluster._apply({name: dest})
        streams = sorted(registry.names)
        drawn = {streams[pick % len(streams)] for pick in picks}
        for shard in cluster.shards.values():
            server = shard.transport.server
            assert shard.names == server.registered
            assert shard.signature == _rebuilt_signature(shard, costs)
            reference = _rebuilt_components(shard, costs)
            assert [
                (members, list(weights.items()))
                for members, weights in shard.components()
            ] == reference
            assert [
                (members, list(weights.items()))
                for members, weights in shard.components(drawn)
            ] == [
                (members, weights)
                for members, weights in reference
                if any(stream in drawn for stream, _ in weights)
            ]
