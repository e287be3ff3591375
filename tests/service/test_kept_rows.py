"""Kept rows: a round program updated through churn equals one built afresh.

The server keeps its round program's rows across population changes: an
arrival appends a row, a departure or an export tombstones one, a re-order
or a group admission rewrites positions, a re-plan rewrites the re-planned
rows, and the arrays are compacted once half their rows are dead. Each
example runs one churn script on two copies of one world: the server as it
is, and one whose every round runs on a program freshly built from the
server's residents. After every step both must agree bit for bit: the
round's counts and costs (as ``.hex()``), every query's result, the cache
and every oracle's state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.shared_plan import RoundProgram
from tests.service.test_order_free_rounds import World
from tests.service.test_round_differential import cache_state, oracle_state

#: Every script runs each of these at least twice; "exodus" sends more than
#: half the residents away at once, so the next round compacts.
ACTIONS = ("arrive", "depart", "replace", "move", "reorder", "replan", "exodus")


def fresh_program(server) -> RoundProgram:
    """A program built from the server's residents, in registration order."""
    queries = [server.query(name) for name in server.registered]
    return RoundProgram(
        {query.name: query.tree for query in queries},
        {query.name: query.schedule for query in queries},
        {query.name: query.oracle for query in queries},
    )


def apply(world: World, action: str, rng: random.Random, admitted: int) -> bool:
    """One population change; returns whether it admitted ``q<admitted>``."""
    server = world.server
    names = list(server.registered)
    if action == "reorder":
        rng.shuffle(names)
        server.reorder(names)
        return False
    if action == "exodus" and len(names) >= 3:
        for name in rng.sample(names, len(names) // 2 + 1):
            server.deregister(name)
        return False
    return world.apply("arrive" if action == "exodus" else action, rng, admitted)


def served(world: World) -> tuple:
    """One round: its record, every result, the cache and the oracles."""
    server = world.server
    results = server.step()
    metrics = server.metrics
    record = (
        metrics.round_costs[-1].hex(),
        metrics.total_probes,
        metrics.free_probes,
        metrics.items_fetched,
        metrics.items_saved,
        metrics.total_cost.hex(),
    )
    oracles = {name: oracle_state(server.query(name).oracle) for name in server.registered}
    replans = [(e.round_index, e.canonical_key, e.queries, e.reason) for e in server.replan_log]
    return record, results, cache_state(server.cache), oracles, replans


def run_script(kind: str, oracles: str, seed: int) -> tuple[list[int], list[str]]:
    """Serve one churn script on kept and fresh rows; returns the kept
    program's dead-row counts seen before each round and the re-plans'
    reasons."""
    kept, fresh = World(kind, oracles, seed), World(kind, oracles, seed)
    script = random.Random(seed)
    actions = [*ACTIONS, *ACTIONS, *(script.choice(ACTIONS) for _ in range(16))]
    script.shuffle(actions)
    for world in (kept, fresh):
        for k in range(12):
            world.apply("arrive", random.Random(seed * 31 + k), k)
    admitted = 12
    dead = []
    for step, action in enumerate(actions):
        arrived = False
        for world in (kept, fresh):
            arrived = apply(world, action, random.Random(seed * 1_000 + step), admitted)
        admitted += arrived
        # A round after every change, and a few more for drift to show.
        for _ in range(3 if step % 5 == 4 else 1):
            dead.append(kept.server._program._dead)
            fresh.server._program = fresh_program(fresh.server)
            got, want = served(kept), served(fresh)
            assert got[0] == want[0]
            assert list(got[1]) == list(want[1])
            for name, result in want[1].items():
                assert got[1][name] == result
                assert got[1][name].cost.hex() == result.cost.hex()
            assert got[2:] == want[2:]
            assert kept.server._program.names == kept.server.registered
    return dead, [event.reason for event in kept.server.replan_log]


class TestKeptRows:
    @pytest.mark.parametrize(
        "kind", ["small-population", "clustered"], ids=["pool", "clusters"]
    )
    @pytest.mark.parametrize(
        "oracles", ["drifting", "data-driven"], ids=["drift", "data"]
    )
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kept_rows_match_a_fresh_build(self, kind, oracles, seed):
        run_script(kind, oracles, seed)

    def test_scripts_compact_and_replan_on_drift(self):
        """The property covers compaction and drift-triggered re-plans."""
        dead, reasons = [], []
        for seed in range(4):
            script_dead, script_reasons = run_script("clustered", "drifting", seed)
            dead.append(script_dead)
            reasons += script_reasons
        # Dead rows piled up, then the next round found none: it compacted.
        assert any(a > 0 and b == 0 for rows in dead for a, b in zip(rows, rows[1:]))
        assert "drift" in reasons
