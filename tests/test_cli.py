"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import DnfTree, Leaf, monte_carlo_cost
from repro.cli import main
from repro.lang import parse_query, tree_to_json

QUERY = "(A[2] p=0.3 AND B[1] p=0.5) OR C[1] p=0.2"


class TestSchedule:
    def test_all_schedulers(self, capsys):
        assert main(["schedule", QUERY]) == 0
        out = capsys.readouterr().out
        assert "and-inc-c-over-p-dynamic" in out
        assert "optimal" in out
        assert "expected cost" in out

    def test_single_scheduler(self, capsys):
        assert main(["schedule", QUERY, "--scheduler", "leaf-inc-c"]) == 0
        out = capsys.readouterr().out
        assert "leaf-inc-c" in out
        assert "and-inc-c-over-p-dynamic" not in out

    def test_json_input(self, tmp_path, capsys):
        tree = DnfTree([[Leaf("A", 1, 0.5)], [Leaf("B", 2, 0.4)]], {"A": 1.0, "B": 2.0})
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(tree))
        assert main(["schedule", str(path), "--scheduler", "optimal"]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_unknown_scheduler_fails_cleanly(self, capsys):
        assert main(["schedule", QUERY, "--scheduler", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_query_fails_cleanly(self, capsys):
        assert main(["schedule", "(((("]) == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_prop2_value(self, capsys):
        assert main(["evaluate", "A[2] p=0.5 AND A[3] p=0.5", "--order", "0,1"]) == 0
        out = capsys.readouterr().out
        # cost = 2 + 0.5 * 1 = 2.5
        assert "2.5" in out

    def test_monte_carlo_flag(self, capsys):
        assert (
            main(
                [
                    "evaluate", QUERY, "--order", "0,1,2",
                    "--monte-carlo", "--samples", "2000",
                ]
            )
            == 0
        )
        estimate = monte_carlo_cost(
            parse_query(QUERY).as_dnf(), (0, 1, 2), n_samples=2000, seed=0
        )
        assert (
            f"Monte-Carlo (2000 runs): {estimate.mean:.6g} +/- {estimate.std_error:.2g}"
            in capsys.readouterr().out
        )

    def test_invalid_order(self, capsys):
        assert main(["evaluate", QUERY, "--order", "0,1"]) == 2
        assert main(["evaluate", QUERY, "--order", "a,b,c"]) == 2


class TestOptimalAndDecide:
    def test_optimal(self, capsys):
        assert main(["optimal", QUERY]) == 0
        out = capsys.readouterr().out
        assert "optimal schedule:" in out and "search nodes:" in out

    def test_decide_yes_and_no(self, capsys):
        # optimal cost of a single 5-item unit-cost leaf is 5
        assert main(["decide", "A[5] p=0.5", "--bound", "5.0"]) == 0
        assert "YES" in capsys.readouterr().out
        assert main(["decide", "A[5] p=0.5", "--bound", "4.9"]) == 1
        assert "NO" in capsys.readouterr().out


class TestExperiment:
    def test_fig4_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig4.csv"
        assert (
            main(["experiment", "fig4", "--scale", "2", "--csv", str(csv_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "max ratio" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "optimal_cost,read_once_cost,m,rho"

    def test_fig5(self, capsys):
        assert main(["experiment", "fig5", "--scale", "1"]) == 0
        assert "and-inc-c-over-p-dynamic" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["experiment", "fig6", "--scale", "1"]) == 0
        assert "(ref)" in capsys.readouterr().out


class TestServeSim:
    def test_default_run(self, capsys):
        assert main(["serve-sim", "--queries", "20", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "plan-cache hit rate" in out
        assert "items fetched / saved" in out

    def test_compare_isolated_reports_speedup(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "--queries",
                    "30",
                    "--rounds",
                    "5",
                    "--compare-isolated",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "isolated-sum cost" in out
        assert "sharing speedup" in out

    def test_ablation_flags(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "--queries",
                    "10",
                    "--rounds",
                    "3",
                    "--no-plan-cache",
                ]
            )
            == 0
        )
        assert "hit rate" in capsys.readouterr().out


class TestClusterSim:
    def test_default_run_prints_comparison(self, capsys):
        assert (
            main(
                [
                    "cluster-sim", "--queries", "30", "--clusters", "3",
                    "--streams-per-cluster", "3", "--rounds", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "overlap-sharded" in out
        assert "random-sharded" in out
        assert "overlap-sharded vs single-shard" in out

    def test_verify_flag_runs_parity_check(self, capsys):
        assert (
            main(
                [
                    "cluster-sim", "--queries", "20", "--clusters", "2",
                    "--streams-per-cluster", "3", "--rounds", "4", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity:" in out
        assert "identical between sharded and unsharded" in out

    def test_process_executor_flag(self, capsys):
        assert (
            main(
                [
                    "cluster-sim", "--queries", "18", "--clusters", "3",
                    "--streams-per-cluster", "3", "--rounds", "3",
                    "--executor", "process", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity:" in out
        assert "max cost delta 0" in out

    def test_elastic_churn_sim(self, capsys):
        assert (
            main(
                [
                    "cluster-sim", "--elastic", "--queries", "40",
                    "--clusters", "3", "--streams-per-cluster", "3",
                    "--rounds", "2", "--batches", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "elastic serving:" in out
        assert "elastic actions" in out
        assert "splits" in out

    def test_elastic_verify_gauntlet(self, capsys):
        assert (
            main(
                [
                    "cluster-sim", "--elastic", "--verify", "--queries", "24",
                    "--clusters", "3", "--streams-per-cluster", "3",
                    "--rounds", "3", "--batches", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "elastic parity:" in out
        assert "bit-identical" in out


class TestDrift:
    def test_default_run_prints_comparison(self, capsys):
        assert (
            main(
                [
                    "drift", "--queries", "4", "--cluster-size", "2",
                    "--rounds", "120", "--drift-round", "40",
                    "--window", "32", "--min-samples", "12",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "static" in out and "adaptive" in out and "oracle" in out
        assert "detection lag" in out
        assert "post-drift cost vs oracle replan" in out

    def test_invalid_drift_round_errors(self, capsys):
        assert main(["drift", "--rounds", "10", "--drift-round", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineFlag:
    def test_experiment_fig4_vectorized(self, capsys):
        assert (
            main(
                [
                    "experiment", "fig4", "--scale", "2",
                    "--engine", "vectorized", "--trials", "200",
                ]
            )
            == 0
        )
        assert "max ratio" in capsys.readouterr().out

    def test_rejects_unknown_engine(self, capsys):
        for engine in ("warp", "scalar"):
            with pytest.raises(SystemExit):
                main(["experiment", "fig4", "--scale", "2", "--engine", engine])
        # evaluate has one Monte-Carlo engine and no --engine flag.
        with pytest.raises(SystemExit):
            main(["evaluate", QUERY, "--order", "0,1,2", "--engine", "vectorized"])


class TestExhaustiveSchedulerRegistryEntry:
    def test_optimal_registered(self):
        from repro.core.heuristics import get_scheduler
        from repro.core.dnf_optimal import optimal_depth_first

        tree = DnfTree([[Leaf("A", 1, 0.5), Leaf("B", 2, 0.4)], [Leaf("A", 2, 0.3)]])
        scheduler = get_scheduler("optimal")
        schedule = scheduler.schedule(tree)
        assert schedule == optimal_depth_first(tree).schedule


class TestTelemetryFlag:
    def run_traced(self, tmp_path, capsys, argv):
        path = tmp_path / "out.jsonl"
        assert main(argv + ["--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"telemetry written to {path}" in out
        return path

    def test_serve_sim_writes_replayable_sink(self, tmp_path, capsys):
        from repro.obs import latest_snapshot, read_jsonl

        path = self.run_traced(
            tmp_path, capsys,
            ["serve-sim", "--queries", "12", "--rounds", "4"],
        )
        records = read_jsonl(path)
        snapshot = latest_snapshot(records)
        assert snapshot is not None
        names = {cell["name"] for cell in snapshot["metrics"]["counters"]}
        assert "repro_rounds_total" in names

    def test_cluster_sim_elastic_traces_topology_changes(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = self.run_traced(
            tmp_path, capsys,
            [
                "cluster-sim", "--elastic", "--queries", "40",
                "--batches", "3", "--rounds", "3",
            ],
        )
        records = read_jsonl(path)
        types = {(r.get("type"), r.get("name")) for r in records}
        assert ("span", "batch") in types
        assert ("span", "shard-batch") in types
        assert ("span", "cluster-batch") in types
        assert ("event", "elastic-action") in types
        assert ("snapshot", None) in types

    def test_drift_traces_adaptive_replans(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = self.run_traced(
            tmp_path, capsys,
            ["drift", "--queries", "6", "--rounds", "60", "--drift-round", "20"],
        )
        records = read_jsonl(path)
        assert any(r.get("name") == "replan" for r in records)


class TestMetricsCommand:
    def make_sink(self, tmp_path, capsys) -> str:
        path = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "serve-sim", "--queries", "10", "--rounds", "4",
                    "--telemetry", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return str(path)

    def test_summary_lists_spans_and_metrics(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["metrics", sink]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "batch" in out
        assert "repro_rounds_total" in out
        assert "repro_round_cost" in out  # histogram table

    def test_prometheus_format(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["metrics", sink, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rounds_total counter" in out
        assert 'repro_round_cost_bucket{le="+Inf"}' in out

    def test_json_format_parses(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["metrics", sink, "--format", "json"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert {"counters", "gauges", "histograms"} <= set(metrics)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read telemetry file" in capsys.readouterr().err

    def test_snapshotless_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "event", "name": "tick"}\n')
        assert main(["metrics", str(path)]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err


class TestLint:
    FIXTURES = "tests/analysis/fixtures"

    @pytest.fixture()
    def src_dir(self):
        import pathlib

        import repro

        return str(pathlib.Path(repro.__file__).parent)

    @pytest.fixture()
    def bad_file(self):
        import pathlib

        return str(
            pathlib.Path(__file__).parent / "analysis" / "fixtures" / "rpr001_bad.py"
        )

    def test_src_tree_is_clean(self, src_dir, capsys):
        assert main(["lint", src_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("clean: 0 finding(s)")

    def test_findings_exit_nonzero(self, bad_file, capsys):
        assert main(["lint", bad_file, "--no-config"]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "BadCache" in out
        assert f"{bad_file}:" in out  # file:line:col prefix

    def test_json_format(self, bad_file, capsys):
        assert main(["lint", bad_file, "--no-config", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules_fired"]["RPR001"] == 2

    def test_select_narrows_rules(self, bad_file, capsys):
        assert main(["lint", bad_file, "--no-config", "--select", "RPR002"]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_ignore_drops_rule(self, bad_file, capsys):
        assert main(["lint", bad_file, "--no-config", "--ignore", "RPR001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
            assert rule in out
        assert "RPR007" not in out

    def test_unknown_rule_fails_cleanly(self, bad_file, capsys):
        assert main(["lint", bad_file, "--select", "RPR999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_fails_cleanly(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestTraceCommand:
    def make_sink(self, tmp_path, capsys, argv=None) -> str:
        path = tmp_path / "out.jsonl"
        base = argv or ["cluster-sim", "--queries", "30", "--clusters", "3",
                        "--rounds", "3"]
        assert main(base + ["--telemetry", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_summary_shows_forest_shape_and_span_stats(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["trace", sink]) == 0
        out = capsys.readouterr().out
        assert "0 orphans" in out
        assert "cluster-batch" in out and "shard-batch" in out
        assert "mean ms" in out

    def test_critical_path_attributes_batch_roots(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["trace", sink, "--format", "critical-path"]) == 0
        out = capsys.readouterr().out
        assert "cluster-batch" in out
        for bucket in ("acquisition", "evaluation", "plan_cache", "residue"):
            assert bucket in out
        assert "critical path:" in out
        assert "coverage" in out

    def test_chrome_export_to_stdout_parses(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        assert main(["trace", sink, "--format", "chrome"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases

    def test_chrome_export_to_file(self, tmp_path, capsys):
        sink = self.make_sink(tmp_path, capsys)
        out_path = tmp_path / "chrome.json"
        assert main(["trace", sink, "--format", "chrome", "--out",
                     str(out_path)]) == 0
        assert "written to" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "cluster-batch" in names

    def test_serve_sim_sink_has_batch_root(self, tmp_path, capsys):
        sink = self.make_sink(
            tmp_path, capsys, ["serve-sim", "--queries", "10", "--rounds", "4"]
        )
        assert main(["trace", sink, "--format", "critical-path"]) == 0
        assert "batch" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read telemetry file" in capsys.readouterr().err

    def test_spanless_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"type": "snapshot", "metrics": {}}\n')
        assert main(["trace", str(path)]) == 2
        assert "no spans" in capsys.readouterr().err
