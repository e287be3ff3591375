"""Trial-engine throughput (trials/second) against the scalar reference.

Runs the 10k-trial battery benchmark across a (N, m) grid: the vectorized
engine (the one trial path) and, as the "scalar" column, one
``ScheduleExecutor`` run per trial replaying the same outcome matrix, so
the comparison is pure execution machinery. Asserts the vectorized
engine's >=10x speedup on every cell, and emits both the ASCII table and a
machine-readable JSON record
(``benchmarks/results/vectorized_throughput.json``) so the benchmark
trajectory can be tracked across commits.
"""

from __future__ import annotations

from conftest import emit_json, emit_report, full_scale

from repro.experiments import ascii_table, execution_throughput

N_TRIALS = 10_000
MIN_SPEEDUP = 10.0


class TestVectorizedThroughput:
    def test_battery_speedup(self):
        grid = dict(
            n_ands_values=(2, 6, 10) if full_scale() else (2, 10),
            leaves_per_and_values=(5, 10, 20) if full_scale() else (5, 20),
        )
        points = execution_throughput(n_trials=N_TRIALS, seed=0, **grid)
        by_cell: dict[tuple[int, int], dict[str, float]] = {}
        for point in points:
            by_cell.setdefault((point.n_ands, point.leaves_per_and), {})[
                point.engine
            ] = point.trials_per_second

        rows = []
        records = []
        for (n, m), engines in sorted(by_cell.items()):
            speedup = engines["vectorized"] / engines["scalar"]
            rows.append(
                (
                    n,
                    m,
                    f"{engines['scalar']:,.0f}",
                    f"{engines['vectorized']:,.0f}",
                    f"{speedup:.1f}x",
                )
            )
            records.append(
                {
                    "n_ands": n,
                    "leaves_per_and": m,
                    "n_trials": N_TRIALS,
                    "scalar_trials_per_sec": engines["scalar"],
                    "vectorized_trials_per_sec": engines["vectorized"],
                    "speedup": speedup,
                }
            )
            assert speedup >= MIN_SPEEDUP, (
                f"N={n} m={m}: vectorized only {speedup:.1f}x over scalar "
                f"(required >= {MIN_SPEEDUP}x)"
            )

        table = ascii_table(
            ("N (ANDs)", "m (leaves/AND)", "scalar trials/s", "vectorized trials/s", "speedup"),
            rows,
        )
        emit_report("vectorized_throughput", table)
        emit_json("vectorized_throughput", {"cells": records})
