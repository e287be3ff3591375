"""Single-server scaling: admission and the churn round at 10^2..10^4 queries.

One row per resident-population size on ``synthetic_registry(32)`` +
``synthetic_population(n)`` (fixed seeds), with the columns of the ROADMAP
baseline table:

* ``probes`` — the residents' schedule lengths summed: the steps of the
  compiled round program;
* ``admit_s`` — registering the whole population (no ``repro.obs``
  instrument covers admission yet, so this one is a ``perf_counter`` pair);
* ``churn_planning_s`` — the ``planning`` phase of the round right after one
  departure and one arrival: recompiling the round program;
* ``churn_round_s`` — that whole round's ``batch`` span duration;
* ``round_s`` — a steady ``run_batch(ROUNDS)`` span's duration per round;
* ``gen2_collections`` — full (generation-2) garbage collections during
  that steady batch, counted through ``gc.callbacks``.

The ``planning`` and batch figures are read off the ``batch`` spans a
recording :class:`~repro.obs.Telemetry` attaches, so they are the numbers a
production trace reports.
"""

from __future__ import annotations

import gc
import time

from conftest import emit_json, emit_report

from repro.engine import BernoulliOracle
from repro.experiments import ascii_table
from repro.obs import Telemetry
from repro.service import QueryServer, synthetic_population, synthetic_registry

SIZES = (100, 1_000, 10_000)
ROUNDS = 20
SEED = 5


def batch_span(tel: Telemetry, server: QueryServer, rounds: int) -> tuple[dict, int]:
    """The batch's span and the generation-2 collections it triggered."""
    full = 0

    def count(phase: str, info: dict) -> None:
        nonlocal full
        if phase == "start" and info["generation"] == 2:
            full += 1

    # A full collection first, so the timed batch is not charged for a
    # gen-2 sweep over the garbage the previous phase left behind.
    gc.collect()
    gc.callbacks.append(count)
    try:
        server.run_batch(rounds)
    finally:
        gc.callbacks.remove(count)
    return tel.tracer.spans("batch")[-1], full


def measure(n: int) -> dict:
    registry = synthetic_registry(32, seed=SEED)
    population = synthetic_population(n + 1, registry, seed=SEED + 1)
    resident, (spare_name, spare_tree) = population[:n], population[n]
    tel = Telemetry()
    server = QueryServer(registry, BernoulliOracle(seed=SEED + 2), telemetry=tel)
    gc.collect()
    start = time.perf_counter()
    for name, tree in resident:
        server.register(name, tree)
    admit_s = time.perf_counter() - start
    batch_span(tel, server, 1)
    server.deregister(resident[0][0])
    server.register(spare_name, spare_tree)
    churned, _ = batch_span(tel, server, 1)
    steady, gen2 = batch_span(tel, server, ROUNDS)
    return {
        "resident_queries": n,
        "probes": sum(len(server.query(name).schedule) for name in server.registered),
        "admit_s": admit_s,
        "churn_planning_s": churned["attrs"]["phase_seconds"]["planning"],
        "churn_round_s": churned["dur"],
        "round_s": steady["dur"] / ROUNDS,
        "gen2_collections": gen2,
    }


class TestChurnRound:
    def test_churn_round_scaling(self):
        rows = [measure(n) for n in SIZES]
        for row in rows:
            # Every resident's schedule probes at least one leaf.
            assert row["probes"] >= row["resident_queries"]
        table = ascii_table(
            (
                "resident",
                "probes",
                "admit s",
                "churn planning s",
                "churn round s",
                "round ms",
                "gen2 GCs",
            ),
            [
                (
                    f"{row['resident_queries']:,}",
                    f"{row['probes']:,}",
                    f"{row['admit_s']:.3f}",
                    f"{row['churn_planning_s']:.3f}",
                    f"{row['churn_round_s']:.3f}",
                    f"{row['round_s'] * 1e3:.1f}",
                    str(row["gen2_collections"]),
                )
                for row in rows
            ],
        )
        emit_report("churn_round", table)
        emit_json(
            "churn_round",
            {"seed": SEED, "rounds": ROUNDS, "rows": rows},
        )
