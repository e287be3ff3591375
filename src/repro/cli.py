"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``schedule``
    Parse a query (DSL text or JSON file), run one or all schedulers, print
    each schedule with its expected cost.
``evaluate``
    Expected cost (Proposition 2) of an explicit schedule, with optional
    Monte-Carlo verification on the vectorized trial engine.
``optimal``
    Exhaustive optimum (budget-guarded) with search statistics.
``decide``
    The NP-complete DNF-Decision problem: is there a schedule with cost <= K?
``experiment``
    Regenerate a figure (fig4 / fig5 / fig6) at a chosen scale; prints the
    summary table and optionally writes per-instance CSV.
    ``--engine {analytic,vectorized}`` switches between the closed
    form and simulated trial batteries (``--trials`` per schedule).
``serve-sim``
    Simulate the multi-tenant serving layer on a synthetic query population:
    prints aggregate cost, plan-cache hit rate and sharing statistics, with
    an optional isolated (no sharing) baseline comparison.
``drift``
    Selectivity-drift experiment: a step change in leaf selectivities
    mid-run, comparing static plans, adaptive re-planning
    (``QueryServer(adaptive=...)``) and an oracle re-plan at the exact drift
    round. Prints per-mode cost, detection lag and replan counts.
``cluster-sim``
    Sharded cluster serving on an overlap-clustered population: one
    population served unsharded, on K stream-overlap shards (concurrent) and
    on K random shards, with the partition report and throughput/cost
    comparison. ``--verify`` runs the sharded-vs-unsharded differential
    parity check first. ``--elastic`` instead serves a churn-over-time
    population on a self-managing elastic cluster (auto split/drain/
    rebalance); combined with ``--verify`` it first runs the elastic
    differential gauntlet (split/drain/resize with auto-rebalance enabled
    vs the unsharded server, bit-identical per-query costs).
``metrics``
    Replay a ``--telemetry`` JSONL file (written by ``serve-sim``, ``drift``
    or ``cluster-sim``) into a metrics report: span/event counts, counters,
    gauges and histogram percentiles — or the raw snapshot as Prometheus
    text exposition (``--format prometheus``) / JSON (``--format json``).
``trace``
    Causal trace analysis of a ``--telemetry`` JSONL file: reconstruct the
    span forest (``summary``), attribute each batch root's wall time into
    acquisition / planning / evaluation / plan-cache / migration / elastic /
    telemetry buckets and print its critical path
    (``--format critical-path``), or export Chrome ``trace_event`` JSON for
    chrome://tracing / Perfetto (``--format chrome [--out FILE]``).
``lint``
    AST-based invariant linter (:mod:`repro.analysis`): checks the
    concurrency/determinism rules RPR001-RPR006 (lock pickling, slots
    state hooks, id-ordered multi-lock acquisition, spawn safety, seeded
    randomness, exception hygiene) over source trees. Exits 1 on findings;
    ``--format json`` emits a machine-readable report.

Examples
--------

::

    python -m repro schedule "(A[2] p=0.3 AND B[1] p=0.5) OR C[1] p=0.2"
    python -m repro schedule query.json --scheduler and-inc-c-over-p-dynamic
    python -m repro evaluate "A[2] p=0.3 AND A[3] p=0.5" --order 1,0 --monte-carlo
    python -m repro optimal "(A[1] p=0.5 AND B[2] p=0.1) OR B[1] p=0.9"
    python -m repro decide "A[5] p=0.5" --bound 4.9
    python -m repro experiment fig4 --scale 50
    python -m repro serve-sim --queries 100 --rounds 50 --compare-isolated
    python -m repro drift --rounds 360 --drift-round 120 --queries 12
    python -m repro cluster-sim --queries 300 --clusters 8 --rounds 10 --verify
    python -m repro cluster-sim --elastic --telemetry out.jsonl
    python -m repro metrics out.jsonl --format prometheus
    python -m repro trace out.jsonl --format critical-path
    python -m repro trace out.jsonl --format chrome --out trace.json
    python -m repro lint src --format json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.core.cost import dnf_schedule_cost
from repro.core.dnf_optimal import dnf_decision, optimal_depth_first
from repro.core.heuristics import (
    get_scheduler,
    make_paper_heuristics,
    paper_heuristic_names,
)
from repro.core.montecarlo import monte_carlo_cost
from repro.core.tree import AndTree, DnfTree
from repro.errors import ReproError
from repro.experiments import ascii_table, run_fig4, run_fig5, run_fig6, write_csv
from repro.lang import parse_query, tree_from_json

__all__ = ["main", "build_parser"]


def _load_tree(spec: str) -> DnfTree:
    """Load a DNF tree from a DSL string or a JSON file path."""
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        tree = tree_from_json(path.read_text())
        if isinstance(tree, DnfTree):
            return tree
        if isinstance(tree, AndTree):
            return tree.to_dnf()
        return tree.as_dnf()
    return parse_query(spec).as_dnf()


def _open_telemetry(args: argparse.Namespace):
    """Build a Telemetry when ``--telemetry PATH`` was given, else ``None``."""
    path = getattr(args, "telemetry", None)
    if path is None:
        return None
    from repro.obs import Telemetry

    return Telemetry(sink=path)


def _finish_telemetry(tel, args: argparse.Namespace) -> None:
    """Append the final metrics snapshot to the sink and close it."""
    if tel is None:
        return
    tel.write_snapshot()
    tel.close()
    print(f"telemetry written to {args.telemetry} ({tel.tracer.emitted} records)")


def _parse_order(text: str, size: int) -> tuple[int, ...]:
    try:
        order = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError:
        raise ReproError(f"cannot parse schedule {text!r}; expected e.g. '0,2,1'") from None
    if sorted(order) != list(range(size)):
        raise ReproError(f"schedule {order} is not a permutation of 0..{size - 1}")
    return order


def cmd_schedule(args: argparse.Namespace) -> int:
    tree = _load_tree(args.query)
    if args.scheduler == "all":
        schedulers = make_paper_heuristics(seed=args.seed)
        schedulers["optimal"] = get_scheduler("optimal")
    else:
        schedulers = {
            args.scheduler: (
                get_scheduler(args.scheduler, seed=args.seed)
                if args.scheduler == "leaf-random"
                else get_scheduler(args.scheduler)
            )
        }
    rows = []
    for name, scheduler in schedulers.items():
        schedule = scheduler.schedule(tree)
        cost = dnf_schedule_cost(tree, schedule, validate=False)
        rows.append((name, cost, ",".join(map(str, schedule))))
    rows.sort(key=lambda row: row[1])
    print(ascii_table(("scheduler", "expected cost", "schedule"), rows))
    if args.explain:
        from repro.core.explain import ScheduleExplanation, explain_schedule

        best_name = rows[0][0]
        scheduler = (
            get_scheduler(best_name, seed=args.seed)
            if best_name == "leaf-random"
            else get_scheduler(best_name)
        )
        explanation = explain_schedule(tree, scheduler.schedule(tree))
        print(f"\nbreakdown of {best_name}'s schedule:")
        print(
            ascii_table(
                ScheduleExplanation.table_headers(), explanation.to_table_rows()
            )
        )
        print(f"dominant stream: {explanation.dominant_stream()}")
        per_stream = [
            (stream, explanation.stream_items.get(stream, 0.0), cost)
            for stream, cost in sorted(explanation.stream_cost.items())
        ]
        print(ascii_table(("stream", "E[items]", "E[cost]"), per_stream))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tree = _load_tree(args.query)
    order = _parse_order(args.order, tree.size)
    cost = dnf_schedule_cost(tree, order)
    print(f"expected cost (Proposition 2): {cost:.6g}")
    if args.monte_carlo:
        result = monte_carlo_cost(tree, order, n_samples=args.samples, seed=args.seed)
        print(
            f"Monte-Carlo ({result.n_samples} runs): "
            f"{result.mean:.6g} +/- {result.std_error:.2g}"
        )
    return 0


def cmd_optimal(args: argparse.Namespace) -> int:
    tree = _load_tree(args.query)
    result = optimal_depth_first(tree, node_budget=args.budget)
    print(f"optimal schedule: {','.join(map(str, result.schedule))}")
    print(f"expected cost:    {result.cost:.6g}")
    print(f"search nodes:     {result.nodes_explored}")
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    tree = _load_tree(args.query)
    answer = dnf_decision(tree, args.bound, node_budget=args.budget)
    print("YES" if answer else "NO")
    return 0 if answer else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    engine_kwargs = {"engine": args.engine, "trials_per_instance": args.trials}
    if args.figure == "fig4":
        result = run_fig4(
            trees_per_config=args.scale, seed=args.seed, workers=args.workers, **engine_kwargs
        )
        rows = result.summary().rows()
        print(ascii_table(("statistic", "value"), rows))
        if args.csv:
            write_csv(
                args.csv,
                ("optimal_cost", "read_once_cost", "m", "rho"),
                zip(result.optimal_costs, result.read_once_costs, result.leaf_counts, result.rhos),
            )
    elif args.figure == "fig5":
        result = run_fig5(
            instances_per_config=args.scale, seed=args.seed, workers=args.workers, **engine_kwargs
        )
        print(ascii_table(result.summary_headers(), result.summary_rows()))
        if args.csv:
            names = list(result.heuristic_costs)
            write_csv(
                args.csv,
                ["optimal", *names],
                zip(result.optimal_costs, *(result.heuristic_costs[n] for n in names)),
            )
    elif args.figure == "fig6":
        result = run_fig6(
            instances_per_config=args.scale, seed=args.seed, workers=args.workers, **engine_kwargs
        )
        print(ascii_table(result.summary_headers(), result.summary_rows()))
        if args.csv:
            names = list(result.heuristic_costs)
            write_csv(args.csv, names, zip(*(result.heuristic_costs[n] for n in names)))
    else:  # pragma: no cover - argparse choices guard this
        raise ReproError(f"unknown figure {args.figure!r}")
    if args.csv:
        print(f"per-instance data written to {args.csv}")
    return 0


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.engine import BernoulliOracle
    from repro.service import (
        QueryServer,
        run_isolated,
        synthetic_population,
        synthetic_registry,
    )

    registry = synthetic_registry(args.streams, seed=args.seed)
    population = synthetic_population(
        args.queries,
        registry,
        n_templates=args.templates,
        seed=args.seed + 1,
    )
    telemetry = _open_telemetry(args)
    server = QueryServer(
        registry,
        BernoulliOracle(seed=args.seed),
        scheduler=args.scheduler,
        plan_cache=0 if args.no_plan_cache else args.plan_cache_capacity,
        telemetry=telemetry,
    )
    for name, tree in population:
        server.register(name, tree)
    report = server.run_batch(args.rounds)
    print(
        f"served {args.queries} queries ({len({q.canonical.key for q in map(server.query, server.registered)})}"
        f" distinct shapes) for {args.rounds} rounds on {args.streams} streams"
    )
    rows = [
        ("total cost", f"{report.total_cost:.6g}"),
        ("cost/round", f"{report.mean_round_cost:.6g}"),
        ("p50 round cost", f"{server.metrics.p50_round_cost:.6g}"),
        ("p95 round cost", f"{server.metrics.p95_round_cost:.6g}"),
        ("probes", str(report.probes)),
        ("free probes (shared)", f"{report.free_probes} ({server.metrics.free_probe_rate:.1%})"),
        ("items fetched / saved", f"{report.items_fetched} / {report.items_saved}"),
        ("plan-cache hit rate", f"{report.plan_cache_hit_rate:.1%}"),
    ]
    if args.compare_isolated:
        isolated = run_isolated(
            registry, population, args.rounds, scheduler=args.scheduler
        )
        isolated_sum = sum(isolated.values())
        rows.append(("isolated-sum cost", f"{isolated_sum:.6g}"))
        if isolated_sum > 0:
            rows.append(("sharing speedup", f"{isolated_sum / max(report.total_cost, 1e-12):.2f}x"))
    print(ascii_table(("metric", "value"), rows))
    _finish_telemetry(telemetry, args)
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    from repro.adaptive import AdaptivePolicy
    from repro.experiments.drift import run_drift

    policy = AdaptivePolicy(
        window=args.window,
        threshold=args.threshold,
        min_samples=args.min_samples,
        cooldown=args.cooldown,
    )
    telemetry = _open_telemetry(args)
    report = run_drift(
        n_queries=args.queries,
        cluster_size=args.cluster_size,
        rounds=args.rounds,
        drift_round=args.drift_round,
        seed=args.seed,
        scheduler=args.scheduler,
        policy=policy,
        telemetry=telemetry,
    )
    print(report.describe())
    print(ascii_table(report.summary_headers(), report.summary_rows()))
    lag = report.detection_lag
    print(
        f"post-drift cost vs oracle replan: adaptive {report.adaptive_vs_oracle:.3f}x,"
        f" static {report.static_vs_oracle:.3f}x"
        f" (detection lag {lag if lag is not None else 'n/a'} rounds)"
    )
    _finish_telemetry(telemetry, args)
    return 0


def cmd_cluster_sim(args: argparse.Namespace) -> int:
    from repro.experiments.cluster import run_cluster_compare, verify_cluster_parity

    if args.elastic:
        return _cmd_cluster_sim_elastic(args)
    if args.verify:
        deltas = verify_cluster_parity(
            n_queries=min(args.queries, 80),
            n_clusters=args.clusters,
            streams_per_cluster=args.streams_per_cluster,
            rounds=min(args.rounds, 10),
            executor=args.executor,
            seed=args.seed,
        )
        print(
            f"parity: {len(deltas)} queries identical between sharded and "
            f"unsharded serving (max cost delta {max(deltas.values()):.3g})"
        )
    telemetry = _open_telemetry(args)
    report = run_cluster_compare(
        n_queries=args.queries,
        n_clusters=args.clusters,
        n_shards=args.shards,
        streams_per_cluster=args.streams_per_cluster,
        rounds=args.rounds,
        cross_cluster_prob=args.cross_overlap,
        executor=args.executor,
        scheduler=args.scheduler,
        seed=args.seed,
        telemetry=telemetry,
    )
    sharded = report.result("overlap-sharded")
    print(
        f"served {report.n_queries} queries ({report.n_clusters} stream clusters, "
        f"cross-overlap {report.cross_cluster_prob:.0%}) for {report.rounds} rounds"
    )
    print(ascii_table(report.summary_headers(), report.summary_rows()))
    print(
        f"overlap-sharded vs single-shard: {report.speedup('overlap-sharded'):.2f}x "
        f"throughput on {sharded.n_shards} shards; "
        f"random partition: {report.speedup('random-sharded'):.2f}x"
    )
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_cluster_sim_elastic(args: argparse.Namespace) -> int:
    from repro.experiments.cluster import (
        default_elastic_policy,
        run_elastic_sim,
        verify_elastic_parity,
    )

    policy = default_elastic_policy(args.queries, args.clusters)
    if args.verify:
        deltas = verify_elastic_parity(
            n_queries=min(args.queries, 60),
            n_clusters=args.clusters,
            streams_per_cluster=args.streams_per_cluster,
            rounds=min(args.rounds, 6),
            executor=args.executor,
            seed=args.seed,
            elastic=policy,
        )
        print(
            f"elastic parity: {len(deltas)} queries bit-identical to the "
            f"unsharded server across the split/drain/resize gauntlet "
            f"with auto-rebalance enabled (max cost delta "
            f"{max(deltas.values()):.3g})"
        )
    telemetry = _open_telemetry(args)
    report = run_elastic_sim(
        n_queries=args.queries,
        n_clusters=args.clusters,
        streams_per_cluster=args.streams_per_cluster,
        batches=args.batches,
        rounds_per_batch=args.rounds,
        policy=policy,
        start_shards=args.shards if args.shards is not None else 2,
        executor=args.executor,
        scheduler=args.scheduler,
        seed=args.seed,
        telemetry=telemetry,
    )
    print(
        f"elastic serving: {report.batches} batches x {report.rounds_per_batch} "
        f"rounds under churn (peak width {report.peak_width})"
    )
    print(ascii_table(report.summary_headers(), report.summary_rows()))
    print(
        f"total cost {report.total_cost:.6g}, {report.throughput:,.0f} evals/s, "
        f"{report.splits} splits / {report.drains} drains / "
        f"{report.rebalances} rebalances"
    )
    if report.final_partition is not None:
        print(report.final_partition.describe())
    _finish_telemetry(telemetry, args)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import latest_snapshot, read_jsonl, render_prometheus

    try:
        records = read_jsonl(args.path)
    except OSError as exc:
        raise ReproError(f"cannot read telemetry file: {exc}") from None
    except ValueError as exc:
        raise ReproError(f"not a JSONL telemetry file: {exc}") from None
    snapshot = latest_snapshot(records)
    if snapshot is None:
        raise ReproError(
            f"{args.path} holds no metrics snapshot; re-run the producing "
            "command with --telemetry (snapshots are appended at exit)"
        )
    if args.format == "json":
        print(json.dumps(snapshot["metrics"], indent=2, sort_keys=True))
        return 0
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus(snapshot))
        return 0
    # summary: traced activity, then the registry's cells.
    spans: dict[str, int] = {}
    events: dict[str, int] = {}
    for record in records:
        if record.get("type") == "span":
            spans[record["name"]] = spans.get(record["name"], 0) + 1
        elif record.get("type") == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
    print(f"{args.path}: {len(records)} records")
    if spans:
        print("  spans:  " + ", ".join(f"{k} x{v}" for k, v in sorted(spans.items())))
    if events:
        print("  events: " + ", ".join(f"{k} x{v}" for k, v in sorted(events.items())))
    metrics = snapshot["metrics"]
    rows = []
    for cell in metrics["counters"]:
        labels = ",".join(f"{k}={v}" for k, v in sorted(cell["labels"].items()))
        rows.append((f"{cell['name']}{{{labels}}}" if labels else cell["name"], f"{cell['value']:.6g}"))
    for cell in metrics["gauges"]:
        labels = ",".join(f"{k}={v}" for k, v in sorted(cell["labels"].items()))
        rows.append((f"{cell['name']}{{{labels}}}" if labels else cell["name"], f"{cell['value']:.6g}"))
    if rows:
        print(ascii_table(("metric", "value"), rows))
    hist_rows = []
    for cell in metrics["histograms"]:
        labels = ",".join(f"{k}={v}" for k, v in sorted(cell["labels"].items()))
        name = f"{cell['name']}{{{labels}}}" if labels else cell["name"]
        hist_rows.append(
            (
                name,
                str(cell["count"]),
                f"{cell['mean']:.6g}",
                f"{cell['p50']:.6g}",
                f"{cell['p95']:.6g}",
                f"{cell['p99']:.6g}",
                f"{cell['max']:.6g}",
            )
        )
    if hist_rows:
        print(ascii_table(("histogram", "count", "mean", "p50", "p95", "p99", "max"), hist_rows))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        attribute,
        build_forest,
        critical_path,
        read_jsonl,
        to_chrome_trace,
    )
    from repro.obs.analyze import ATTRIBUTION_BUCKETS

    try:
        records = read_jsonl(args.path)
    except OSError as exc:
        raise ReproError(f"cannot read telemetry file: {exc}") from None
    except ValueError as exc:
        raise ReproError(f"not a JSONL telemetry file: {exc}") from None
    if args.format == "chrome":
        payload = json.dumps(to_chrome_trace(records), indent=2, sort_keys=True)
        if args.out is not None:
            args.out.write_text(payload + "\n")
            print(
                f"chrome trace written to {args.out} "
                "(load in chrome://tracing or https://ui.perfetto.dev)"
            )
        else:
            print(payload)
        return 0
    forest = build_forest(records)
    if not forest.roots:
        raise ReproError(
            f"{args.path} holds no spans; re-run the producing command "
            "with --telemetry"
        )
    if args.format == "critical-path":
        batches = forest.batch_roots()
        if not batches:
            raise ReproError(
                "no batch-like root spans (cluster-batch / shard-batch / "
                "batch) in the trace"
            )
        for root in batches:
            att = attribute(root)
            print(f"{root.name} (pid {root.pid}, wall {root.dur * 1e3:.4g} ms)")
            rows = []
            for bucket in ATTRIBUTION_BUCKETS:
                seconds = att.residue if bucket == "residue" else att.buckets[bucket]
                share = seconds / att.wall_seconds if att.wall_seconds > 0 else 0.0
                rows.append((bucket, f"{seconds * 1e3:.4g}", f"{share:.1%}"))
            print(ascii_table(("bucket", "ms", "share of wall"), rows))
            print(f"  coverage (busy/wall): {att.coverage:.1%}")
            chain = " -> ".join(
                f"{node.name}[pid {node.pid}, {node.dur * 1e3:.4g} ms]"
                for node in critical_path(root)
            )
            print(f"  critical path: {chain}")
        return 0
    # summary: forest shape, then per-name span statistics.
    pids = sorted({node.pid for root in forest.roots for node in root.walk()})
    print(
        f"{args.path}: {forest.n_records} records, "
        f"{len(forest.trace_ids)} traces, {len(forest.roots)} roots, "
        f"{len(forest.orphans)} orphans, pids {','.join(map(str, pids))}"
    )
    stats: dict[str, list[float]] = {}
    n_events: dict[str, int] = {}
    for root in forest.roots:
        for node in root.walk():
            stats.setdefault(node.name, []).append(node.dur)
            for event in node.events:
                name = str(event.get("name", "event"))
                n_events[name] = n_events.get(name, 0) + 1
    rows = [
        (
            name,
            str(len(durs)),
            f"{sum(durs) * 1e3:.4g}",
            f"{sum(durs) / len(durs) * 1e3:.4g}",
            f"{max(durs) * 1e3:.4g}",
        )
        for name, durs in sorted(stats.items())
    ]
    print(ascii_table(("span", "count", "total ms", "mean ms", "max ms"), rows))
    if n_events:
        print(
            "  events: "
            + ", ".join(f"{k} x{v}" for k, v in sorted(n_events.items()))
        )
    if forest.orphans:
        names = sorted({str(r.get("name", "?")) for r in forest.orphans})
        print(
            f"  warning: {len(forest.orphans)} orphaned records "
            f"(parent_id missing from file): {', '.join(names)}"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        LintConfig,
        lint_paths,
        load_pyproject_config,
        rule_listing,
    )

    if args.list_rules:
        print(rule_listing())
        return 0
    config = LintConfig(
        select=tuple(args.select.split(",")) if args.select else (),
        ignore=tuple(args.ignore.split(",")) if args.ignore else (),
    )
    if not args.no_config:
        config = load_pyproject_config(args.paths[0] if args.paths else None, config)
    result = lint_paths(args.paths or ["src"], config)
    if args.format == "json":
        print(result.render_json())
    else:
        print(result.render_text())
    return result.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-optimal execution of boolean query trees with shared streams "
        "(Casanova et al., IPDPS 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = ", ".join(["all", *paper_heuristic_names(), "optimal"])
    p_schedule = sub.add_parser("schedule", help="order a query's leaves")
    p_schedule.add_argument("query", help="DSL text or path to a tree .json")
    p_schedule.add_argument(
        "--scheduler", default="all", help=f"one of: {names} (default: all)"
    )
    p_schedule.add_argument("--seed", type=int, default=0)
    p_schedule.add_argument(
        "--explain",
        action="store_true",
        help="print the best schedule's per-leaf cost breakdown",
    )
    p_schedule.set_defaults(func=cmd_schedule)

    p_eval = sub.add_parser("evaluate", help="expected cost of an explicit schedule")
    p_eval.add_argument("query")
    p_eval.add_argument("--order", required=True, help="comma-separated leaf indices")
    p_eval.add_argument("--monte-carlo", action="store_true")
    p_eval.add_argument("--samples", type=int, default=20_000)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_evaluate)

    p_opt = sub.add_parser("optimal", help="exhaustive optimum (exponential)")
    p_opt.add_argument("query")
    p_opt.add_argument("--budget", type=int, default=5_000_000)
    p_opt.set_defaults(func=cmd_optimal)

    p_dec = sub.add_parser("decide", help="DNF-Decision: schedule with cost <= bound?")
    p_dec.add_argument("query")
    p_dec.add_argument("--bound", type=float, required=True)
    p_dec.add_argument("--budget", type=int, default=5_000_000)
    p_dec.set_defaults(func=cmd_decide)

    p_exp = sub.add_parser("experiment", help="regenerate a figure")
    p_exp.add_argument("figure", choices=("fig4", "fig5", "fig6"))
    p_exp.add_argument("--scale", type=int, default=20, help="instances per grid cell")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--workers", type=int, default=None)
    p_exp.add_argument("--csv", type=Path, default=None, help="write per-instance CSV")
    p_exp.add_argument(
        "--engine",
        choices=("analytic", "vectorized"),
        default="analytic",
        help="cost evaluator: closed form, or a simulated trial battery per schedule",
    )
    p_exp.add_argument(
        "--trials",
        type=int,
        default=2000,
        help="trials per schedule when --engine is vectorized",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_serve = sub.add_parser(
        "serve-sim", help="simulate the multi-tenant serving layer"
    )
    p_serve.add_argument("--queries", type=int, default=100, help="population size")
    p_serve.add_argument("--rounds", type=int, default=50, help="batched rounds to run")
    p_serve.add_argument("--streams", type=int, default=8, help="shared streams")
    p_serve.add_argument(
        "--templates",
        type=int,
        default=None,
        help="distinct query shapes (default: queries // 10)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--scheduler", default="and-inc-c-over-p-dynamic", help="admission scheduler"
    )
    p_serve.add_argument("--plan-cache-capacity", type=int, default=256)
    p_serve.add_argument(
        "--no-plan-cache", action="store_true", help="schedule every admission from scratch"
    )
    p_serve.add_argument(
        "--compare-isolated",
        action="store_true",
        help="also run every query on a private cache and report the cost ratio",
    )
    p_serve.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSONL trace (spans, events, final metrics snapshot) to PATH",
    )
    p_serve.set_defaults(func=cmd_serve_sim)

    p_drift = sub.add_parser(
        "drift", help="static vs adaptive vs oracle replan under selectivity drift"
    )
    p_drift.add_argument("--queries", type=int, default=12, help="population size")
    p_drift.add_argument(
        "--cluster-size",
        type=int,
        default=4,
        help="isomorphic queries sharing one stream pair (and one canonical plan)",
    )
    p_drift.add_argument("--rounds", type=int, default=360, help="total rounds")
    p_drift.add_argument(
        "--drift-round", type=int, default=120, help="round of the selectivity step"
    )
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument(
        "--scheduler", default="and-inc-c-over-p-dynamic", help="admission scheduler"
    )
    p_drift.add_argument(
        "--window", type=int, default=64, help="posterior sliding-window size"
    )
    p_drift.add_argument(
        "--threshold", type=float, default=0.25, help="drift divergence threshold"
    )
    p_drift.add_argument(
        "--min-samples", type=int, default=24, help="evidence needed to declare drift"
    )
    p_drift.add_argument(
        "--cooldown", type=int, default=16, help="min rounds between replans per shape"
    )
    p_drift.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the adaptive mode's JSONL trace (replan events included) to PATH",
    )
    p_drift.set_defaults(func=cmd_drift)

    p_cluster = sub.add_parser(
        "cluster-sim",
        help="sharded cluster serving: overlap partition vs random vs unsharded",
    )
    p_cluster.add_argument("--queries", type=int, default=300, help="population size")
    p_cluster.add_argument(
        "--clusters", type=int, default=8, help="stream interest groups in the population"
    )
    p_cluster.add_argument(
        "--shards", type=int, default=None, help="cluster width (default: --clusters)"
    )
    p_cluster.add_argument(
        "--streams-per-cluster", type=int, default=4, help="streams per interest group"
    )
    p_cluster.add_argument("--rounds", type=int, default=10, help="batched rounds")
    p_cluster.add_argument(
        "--cross-overlap",
        type=float,
        default=0.0,
        help="per-leaf probability of rewiring to a foreign cluster's stream",
    )
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--scheduler", default="and-inc-c-over-p-dynamic", help="admission scheduler"
    )
    p_cluster.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="shard execution mode: in-process, one shard after another "
        "(default), or one spawned worker process per shard, batching in "
        "parallel",
    )
    p_cluster.add_argument(
        "--verify",
        action="store_true",
        help="first run the sharded-vs-unsharded differential parity check",
    )
    p_cluster.add_argument(
        "--elastic",
        action="store_true",
        help="serve a churn-over-time population on a self-managing elastic "
        "cluster (auto split/drain/rebalance) instead of the static comparison",
    )
    p_cluster.add_argument(
        "--batches",
        type=int,
        default=12,
        help="churn batches for --elastic (each runs --rounds rounds)",
    )
    p_cluster.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSONL trace (batch/shard spans, elastic-action events, "
        "final metrics snapshot) to PATH",
    )
    p_cluster.set_defaults(func=cmd_cluster_sim)

    p_metrics = sub.add_parser(
        "metrics", help="replay a --telemetry JSONL file into a metrics report"
    )
    p_metrics.add_argument("path", type=Path, help="JSONL file written by --telemetry")
    p_metrics.add_argument(
        "--format",
        choices=("summary", "prometheus", "json"),
        default="summary",
        help="summary table (default), Prometheus text exposition, or raw JSON",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_trace = sub.add_parser(
        "trace", help="causal trace analysis of a --telemetry JSONL file"
    )
    p_trace.add_argument("path", type=Path, help="JSONL file written by --telemetry")
    p_trace.add_argument(
        "--format",
        choices=("summary", "critical-path", "chrome"),
        default="summary",
        help="span forest summary (default), per-batch latency attribution "
        "with the critical path, or Chrome trace_event JSON for Perfetto",
    )
    p_trace.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --format chrome: write the JSON here instead of stdout",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_lint = sub.add_parser(
        "lint", help="AST-based invariant linter (rules RPR001-RPR006)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding report format (default: text)",
    )
    p_lint.add_argument(
        "--select",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--ignore",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p_lint.add_argument(
        "--no-config",
        action="store_true",
        help="skip [tool.repro-lint] discovery in pyproject.toml",
    )
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro metrics ... | head`): not an
        # error. Detach stdout so interpreter shutdown doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
