"""Trace analysis: forest reconstruction, critical path, attribution, export."""

from __future__ import annotations

import pytest

from repro.obs import (
    Tracer,
    attribute,
    build_forest,
    critical_path,
    to_chrome_trace,
)
from repro.obs.analyze import ATTRIBUTION_BUCKETS, SPAN_BUCKETS


def span(
    name: str,
    sid: str,
    parent: str | None = None,
    *,
    trace: str = "t",
    ts: float = 0.0,
    dur: float = 1.0,
    pid: int = 1,
    **attrs,
) -> dict:
    return {
        "type": "span",
        "name": name,
        "ts": ts,
        "dur": dur,
        "thread": 7,
        "pid": pid,
        "trace_id": trace,
        "span_id": sid,
        "parent_id": parent,
        "attrs": attrs,
    }


def event(name: str, parent: str | None, *, trace: str = "t", **attrs) -> dict:
    return {
        "type": "event",
        "name": name,
        "ts": 0.5,
        "dur": 0.0,
        "thread": 7,
        "pid": 1,
        "trace_id": trace,
        "parent_id": parent,
        "attrs": attrs,
    }


class TestBuildForest:
    def test_links_children_regardless_of_file_order(self):
        # A merged sink interleaves worker spans *before* the dispatching
        # span closes — the child precedes its parent in the file.
        records = [
            span("child", "c", "p", ts=1.0),
            span("parent", "p", None, ts=0.0, dur=3.0),
        ]
        forest = build_forest(records)
        (root,) = forest.roots
        assert root.name == "parent"
        assert [c.name for c in root.children] == ["child"]
        assert forest.orphans == []

    def test_orphan_spans_surface_and_stay_analyzable(self):
        records = [span("lost", "x", "missing-parent")]
        forest = build_forest(records)
        assert len(forest.orphans) == 1
        # Orphans still appear as roots so their subtree is inspectable.
        assert [r.name for r in forest.roots] == ["lost"]

    def test_unparented_events_are_legal_not_orphans(self):
        forest = build_forest([event("startup", None)])
        assert forest.orphans == []

    def test_event_with_unknown_parent_is_an_orphan(self):
        forest = build_forest([event("tick", "nope")])
        assert len(forest.orphans) == 1

    def test_events_attach_to_their_span(self):
        records = [span("batch", "b"), event("replan", "b", key="k")]
        forest = build_forest(records)
        (root,) = forest.roots
        assert [e["name"] for e in root.events] == ["replan"]

    def test_children_sorted_by_start_time(self):
        records = [
            span("parent", "p", None, ts=0.0, dur=5.0),
            span("late", "b", "p", ts=3.0),
            span("early", "a", "p", ts=1.0),
        ]
        (root,) = build_forest(records).roots
        assert [c.name for c in root.children] == ["early", "late"]

    def test_trace_ids_and_batch_roots(self):
        records = [
            span("cluster-batch", "a", None, trace="t1"),
            span("migration", "b", None, trace="t2"),
            span("batch", "c", None, trace="t3"),
        ]
        forest = build_forest(records)
        assert forest.trace_ids == ["t1", "t2", "t3"]
        assert [r.name for r in forest.batch_roots()] == ["cluster-batch", "batch"]

    def test_snapshot_records_are_ignored(self):
        forest = build_forest([{"type": "snapshot", "metrics": {}}, span("s", "1")])
        assert forest.n_records == 2
        assert len(forest.roots) == 1

    def test_real_tracer_output_reconstructs(self):
        tracer = Tracer()
        with tracer.span("batch"):
            with tracer.span("round"):
                tracer.event("probe")
        forest = build_forest(tracer.records())
        (root,) = forest.roots
        assert [n.name for n in root.walk()] == ["batch", "round"]
        assert forest.orphans == []


class TestCriticalPath:
    def test_descends_into_latest_finishing_child(self):
        records = [
            span("root", "r", None, ts=0.0, dur=10.0),
            span("fast", "f", "r", ts=1.0, dur=2.0),
            span("slow", "s", "r", ts=1.0, dur=8.0),
            span("slow-inner", "si", "s", ts=2.0, dur=6.0),
        ]
        (root,) = build_forest(records).roots
        assert [n.name for n in critical_path(root)] == [
            "root",
            "slow",
            "slow-inner",
        ]

    def test_leaf_root_is_its_own_path(self):
        (root,) = build_forest([span("only", "o")]).roots
        assert [n.name for n in critical_path(root)] == ["only"]

    def test_late_start_beats_long_duration(self):
        # end time decides, not duration: the join waited on the finisher.
        records = [
            span("root", "r", None, ts=0.0, dur=10.0),
            span("long-but-early", "a", "r", ts=0.0, dur=5.0),
            span("short-but-late", "b", "r", ts=8.0, dur=1.5),
        ]
        (root,) = build_forest(records).roots
        assert critical_path(root)[1].name == "short-but-late"


class TestAttribution:
    def test_phase_seconds_credit_their_buckets(self):
        records = [
            span(
                "batch",
                "b",
                None,
                dur=1.0,
                phase_seconds={
                    "acquisition": 0.2,
                    "planning": 0.05,
                    "evaluation": 0.5,
                    "telemetry": 0.1,
                },
            )
        ]
        (root,) = build_forest(records).roots
        att = attribute(root)
        assert att.buckets["acquisition"] == 0.2
        assert att.buckets["planning"] == 0.05
        assert att.buckets["evaluation"] == 0.5
        assert att.buckets["telemetry"] == 0.1
        assert att.residue == pytest.approx(0.15)
        assert att.coverage == pytest.approx(0.85)

    def test_mapped_spans_credit_their_durations(self):
        records = [
            span("cluster-batch", "c", None, dur=2.0),
            span("migration", "m", "c", ts=0.1, dur=0.3),
            span("elastic", "e", "c", ts=0.5, dur=0.2),
            span("plan-cache-upcall", "p", "c", ts=0.8, dur=0.1),
        ]
        (root,) = build_forest(records).roots
        att = attribute(root)
        assert att.buckets["migration"] == 0.3
        assert att.buckets["elastic"] == 0.2
        assert att.buckets["plan_cache"] == 0.1

    def test_nested_mapped_spans_count_once(self):
        # Only the outermost mapped span on a path is credited; anything
        # nested under it (mapped spans or phase accounting) is subsumed.
        records = [
            span("cluster-batch", "c", None, dur=2.0),
            span("elastic", "e", "c", dur=1.0),
            span("migration", "m", "e", dur=0.4),
            span("batch", "b", "m", dur=0.2, phase_seconds={"evaluation": 0.2}),
        ]
        (root,) = build_forest(records).roots
        att = attribute(root)
        assert att.buckets["elastic"] == 1.0
        assert att.buckets["migration"] == 0.0
        assert att.buckets["evaluation"] == 0.0
        assert att.busy_seconds == 1.0

    def test_concurrent_shards_can_exceed_wall(self):
        records = [
            span("cluster-batch", "c", None, dur=1.0),
            span("batch", "b1", "c", dur=0.9, phase_seconds={"evaluation": 0.9}),
            span("batch", "b2", "c", dur=0.9, phase_seconds={"evaluation": 0.9}),
        ]
        (root,) = build_forest(records).roots
        att = attribute(root)
        assert att.coverage > 1.0
        assert att.residue == 0.0

    def test_bucket_names_are_the_documented_set(self):
        assert set(SPAN_BUCKETS.values()) < set(ATTRIBUTION_BUCKETS)
        assert ATTRIBUTION_BUCKETS[-1] == "residue"

    def test_zero_wall_span_has_zero_coverage(self):
        (root,) = build_forest([span("batch", "b", None, dur=0.0)]).roots
        assert attribute(root).coverage == 0.0


class TestChromeExport:
    def test_spans_become_complete_events_in_microseconds(self):
        records = [span("batch", "b", None, ts=2.0, dur=0.5, rounds=3)]
        trace = to_chrome_trace(records)
        (entry,) = trace["traceEvents"]
        assert entry["ph"] == "X"
        assert entry["ts"] == 2.0 * 1e6
        assert entry["dur"] == 0.5 * 1e6
        assert entry["args"]["rounds"] == 3
        assert entry["args"]["span_id"] == "b"
        assert trace["displayTimeUnit"] == "ms"

    def test_events_become_instants(self):
        trace = to_chrome_trace([event("replan", "b")])
        (entry,) = trace["traceEvents"]
        assert entry["ph"] == "i"
        assert entry["dur"] if "dur" in entry else True

    def test_snapshots_are_skipped(self):
        trace = to_chrome_trace([{"type": "snapshot", "metrics": {}}])
        assert trace["traceEvents"] == []

    def test_pid_and_thread_become_lanes(self):
        records = [span("batch", "b", None, pid=42)]
        (entry,) = to_chrome_trace(records)["traceEvents"]
        assert entry["pid"] == 42
        assert entry["tid"] == 7
