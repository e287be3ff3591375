"""Single-server scaling: admission and the churn round at 10^2..10^4 queries.

One row per resident-population size and oracle on ``synthetic_registry(32)``
+ ``synthetic_population(n)`` (fixed seeds). The ``shared`` rows serve every
query from one shared :class:`~repro.engine.BernoulliOracle`, which the round
kernel calls once per evaluated probe; the ``drifting`` rows give every
query its own static-schedule :class:`~repro.engine.DriftingBernoulliOracle`,
whose outcome tape the kernel reads in bulk, as the serving benchmark runs
them. The 100-resident rows show a round's fixed cost, which dominates at
that size. Columns:

* ``probes`` — the residents' schedule lengths summed: the steps of the
  round program's rows;
* ``admit_s`` — registering the whole population, a ``perf_counter`` pair
  around the registrations; the JSON rows also give the part of it the
  recording telemetry's ``repro_admission_seconds`` histograms credit to
  each admission stage (``admit_canonicalize_s``, ``admit_plan_s``);
* ``churn_planning_s`` — the ``planning`` phase of the round right after one
  departure and one arrival: writing the arrival's row (and compacting,
  when half the rows are dead);
* ``churn_round_s`` — that whole round's ``batch`` span duration;
* ``steady_round_s`` — a ``run_batch(1)`` span's duration without churn:
  the churn round minus this is what one departure and one arrival cost;
* ``round_s`` — a steady ``run_batch(ROUNDS)`` span's duration per round;
* ``gen2_collections`` — full (generation-2) garbage collections during
  the steady batches, counted through ``gc.callbacks``.

Every timed figure is the median of ``BATCHES`` measurements (churn rounds
or steady batches), so one slow batch on a shared host does not move it.
The ``planning`` and batch figures are read off the ``batch`` spans a
recording :class:`~repro.obs.Telemetry` attaches, so they are the numbers a
production trace reports.
"""

from __future__ import annotations

import gc
import statistics
import time

from conftest import emit_json, emit_report

from repro.engine import BernoulliOracle, DriftingBernoulliOracle
from repro.experiments import ascii_table
from repro.obs import Telemetry
from repro.service import QueryServer, synthetic_population, synthetic_registry
from repro.streams.drift import DriftSchedule

#: (oracle, resident queries) per row.
CASES = (
    ("shared", 100),
    ("shared", 1_000),
    ("shared", 10_000),
    ("drifting", 100),
    ("drifting", 1_000),
    ("drifting", 10_000),
)
ROUNDS = 20
BATCHES = 5
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


def measure(oracle: str, n: int) -> dict:
    registry = synthetic_registry(32, seed=SEED)
    population = synthetic_population(n + BATCHES, registry, seed=SEED + 1)
    resident, spares = population[:n], population[n:]
    tel = Telemetry()
    server = QueryServer(registry, BernoulliOracle(seed=SEED + 2), telemetry=tel)

    def oracle_for(ordinal: int, tree) -> DriftingBernoulliOracle | None:
        if oracle == "shared":
            return None
        schedule = DriftSchedule([leaf.prob for leaf in tree.leaves])
        return DriftingBernoulliOracle(schedule, seed=SEED + ordinal)

    gc.collect()
    start = time.perf_counter()
    for ordinal, (name, tree) in enumerate(resident):
        server.register(name, tree, oracle=oracle_for(ordinal, tree))
    admit_s = time.perf_counter() - start
    admission = {
        stage: tel.registry.get_histogram("repro_admission_seconds", stage=stage).total
        for stage in ("canonicalize", "plan")
    }
    batch_span(tel, server, 1)
    churned = []
    for k, (spare_name, spare_tree) in enumerate(spares):
        server.deregister(resident[k][0])
        server.register(spare_name, spare_tree, oracle=oracle_for(n + k, spare_tree))
        churned.append(batch_span(tel, server, 1)[0])
    singles = [batch_span(tel, server, 1)[0] for _ in range(BATCHES)]
    steady = [batch_span(tel, server, ROUNDS) for _ in range(BATCHES)]
    return {
        "oracle": oracle,
        "resident_queries": n,
        "probes": sum(len(server.query(name).schedule) for name in server.registered),
        "admit_s": admit_s,
        "admit_canonicalize_s": admission["canonicalize"],
        "admit_plan_s": admission["plan"],
        "churn_planning_s": statistics.median(
            span["attrs"]["phase_seconds"]["planning"] for span in churned
        ),
        "churn_round_s": statistics.median(span["dur"] for span in churned),
        "steady_round_s": statistics.median(span["dur"] for span in singles),
        "round_s": statistics.median(span["dur"] / ROUNDS for span, _ in steady),
        "gen2_collections": sum(full for _, full in steady),
    }


class TestChurnRound:
    def test_churn_round_scaling(self):
        rows = [measure(oracle, n) for oracle, n in CASES]
        for row in rows:
            # Every resident's schedule probes at least one leaf.
            assert row["probes"] >= row["resident_queries"]
        table = ascii_table(
            (
                "oracle",
                "resident",
                "probes",
                "admit s",
                "churn planning s",
                "churn round s",
                "1-round batch s",
                "round ms",
                "gen2 GCs",
            ),
            [
                (
                    row["oracle"],
                    f"{row['resident_queries']:,}",
                    f"{row['probes']:,}",
                    f"{row['admit_s']:.3f}",
                    f"{row['churn_planning_s']:.4f}",
                    f"{row['churn_round_s']:.4f}",
                    f"{row['steady_round_s']:.4f}",
                    f"{row['round_s'] * 1e3:.1f}",
                    str(row["gen2_collections"]),
                )
                for row in rows
            ],
        )
        emit_report("churn_round", table)
        emit_json(
            "churn_round",
            {"seed": SEED, "rounds": ROUNDS, "batches": BATCHES, "rows": rows},
        )
