#!/usr/bin/env python3
"""Replay a telemetry JSONL sink into a terminal dashboard.

Any serving command can write its full trace to disk::

    python -m repro cluster-sim --elastic --telemetry out.jsonl

This example replays such a sink (generating one first if no path is
given) and renders what an operator would want on one screen:

* a **per-shard latency table** — batch count, total/mean/p50/p99 batch
  wall-clock from the ``repro_shard_batch_seconds{shard=...}`` histogram
  cells, plus the lossless all-shard roll-up (histograms with equal
  buckets merge exactly);
* the **cluster timeline** — every elastic action and migration span in
  sequence order, with durations;
* the **slowest batch, attributed** — the causal trace's worst batch-like
  root span, its wall time bucketed into acquisition / evaluation /
  plan_cache / migration / elastic / telemetry / residue, and the
  critical path (the chain of latest-finishing spans) through it;
* the **tail of the workload** — per-query p50/p99 round cost for the
  costliest queries, from the ``query-resolution`` events a sink written
  with ``Telemetry(detail=True)`` holds.

Run: python examples/telemetry_dashboard.py [telemetry.jsonl]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments import ascii_table
from repro.obs import (
    Histogram,
    attribute,
    build_forest,
    critical_path,
    latest_snapshot,
    read_jsonl,
)
from repro.obs.analyze import ATTRIBUTION_BUCKETS


def generate_demo_sink(path: Path) -> None:
    """Drive a small elastic cluster with telemetry attached."""
    from repro.adaptive import ElasticPolicy
    from repro.cluster import ClusterServer
    from repro.generators import clustered_registry, overlap_clustered_population
    from repro.obs import Telemetry

    registry = clustered_registry(4, 3, seed=7)
    population = overlap_clustered_population(48, registry, 4, 3, seed=8)
    telemetry = Telemetry(sink=path, detail=True)
    cluster = ClusterServer(
        registry,
        n_shards=2,
        seed=9,
        telemetry=telemetry,
        elastic=ElasticPolicy(target_shard_queries=16, min_split_size=4),
    )
    with telemetry.finally_snapshot():
        cluster.register_population(population[:24])
        cluster.run_batch(6)
        for name, tree in population[24:]:
            cluster.register(name, tree)
        cluster.run_batch(6)
        cluster.resize(2)
        cluster.run_batch(4)
    print(f"demo telemetry written to {path} ({telemetry.tracer.emitted} records)\n")


def shard_latency_table(snapshot: dict) -> str:
    cells = [
        cell
        for cell in snapshot["metrics"]["histograms"]
        if cell["name"] == "repro_shard_batch_seconds"
    ]
    rows = []
    merged: Histogram | None = None
    for cell in sorted(cells, key=lambda c: c["labels"].get("shard", "")):
        hist = Histogram.from_snapshot(cell)
        merged = hist if merged is None else merged.merge(hist)
        rows.append(
            (
                f"shard {cell['labels']['shard']}",
                str(hist.count),
                f"{hist.total * 1e3:.2f}",
                f"{hist.mean * 1e3:.3f}",
                f"{hist.percentile(50.0) * 1e3:.3f}",
                f"{hist.percentile(99.0) * 1e3:.3f}",
            )
        )
    if merged is not None:
        rows.append(
            (
                "all shards",
                str(merged.count),
                f"{merged.total * 1e3:.2f}",
                f"{merged.mean * 1e3:.3f}",
                f"{merged.percentile(50.0) * 1e3:.3f}",
                f"{merged.percentile(99.0) * 1e3:.3f}",
            )
        )
    return ascii_table(
        ("shard", "batches", "total ms", "mean ms", "p50 ms", "p99 ms"), rows
    )


def timeline(records: list[dict]) -> list[str]:
    lines = []
    for record in records:
        kind, name = record.get("type"), record.get("name")
        attrs = record.get("attrs", {})
        if kind == "event" and name == "elastic-action":
            lines.append(
                f"  [{record['seq']:>4}] elastic {attrs.get('kind'):<14}"
                f" round {attrs.get('round')}  shard {attrs.get('shard')}"
                f"  moves {attrs.get('moves')}  ({attrs.get('duration', 0) * 1e3:.2f} ms)"
            )
        elif kind == "span" and name == "migration":
            lines.append(
                f"  [{record['seq']:>4}] migrate {attrs.get('queries')} queries"
                f" shard {attrs.get('src')} -> {attrs.get('dest')}"
                f"  ({record.get('dur', 0) * 1e3:.2f} ms)"
            )
    return lines


def slowest_batch_attribution(records: list[dict]) -> list[str]:
    """Attribution + critical path for the trace's worst batch root."""
    forest = build_forest(records)
    roots = forest.batch_roots()
    if not roots:
        return []
    slowest = max(roots, key=lambda root: root.dur)
    att = attribute(slowest)
    lines = [
        f"  {slowest.name} (pid {slowest.pid}): wall "
        f"{slowest.dur * 1e3:.3f} ms, {att.coverage:.1%} attributed"
    ]
    for bucket in ATTRIBUTION_BUCKETS:
        seconds = att.residue if bucket == "residue" else att.buckets[bucket]
        if seconds > 0.0:
            lines.append(f"    {bucket:<12} {seconds * 1e3:9.3f} ms")
    chain = " -> ".join(
        f"{node.name}[{node.dur * 1e3:.2f} ms]" for node in critical_path(slowest)
    )
    lines.append(f"    critical path: {chain}")
    return lines


def costliest_queries(records: list[dict], top: int = 8) -> str:
    costs: dict[str, Histogram] = {}
    for record in records:
        if record.get("type") == "event" and record.get("name") == "query-resolution":
            attrs = record["attrs"]
            costs.setdefault(attrs["query"], Histogram()).observe(attrs["cost"])
    ranked = sorted(costs.items(), key=lambda item: item[1].total, reverse=True)
    rows = [
        (
            name,
            str(hist.count),
            f"{hist.mean:.4g}",
            f"{hist.percentile(50.0):.4g}",
            f"{hist.percentile(99.0):.4g}",
        )
        for name, hist in ranked[:top]
    ]
    return ascii_table(("query", "rounds", "mean cost", "p50", "p99"), rows)


def main() -> int:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.gettempdir()) / "repro_telemetry_demo.jsonl"
        generate_demo_sink(path)

    records = read_jsonl(path)
    snapshot = latest_snapshot(records)
    if snapshot is None:
        print(f"{path} holds no metrics snapshot; re-run with --telemetry")
        return 1

    print(f"replaying {path}: {len(records)} records\n")
    print("per-shard batch latency")
    print(shard_latency_table(snapshot))
    events = timeline(records)
    if events:
        print("\ncluster timeline (elastic actions and migrations)")
        print("\n".join(events))
    attribution = slowest_batch_attribution(records)
    if attribution:
        print("\nslowest batch, attributed (see also: repro trace --format critical-path)")
        print("\n".join(attribution))
    print("\ncostliest queries (per-round cost distribution)")
    print(costliest_queries(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
