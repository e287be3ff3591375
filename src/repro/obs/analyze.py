"""Trace analysis: span trees, critical paths, latency attribution, Chrome export.

The causal ids on every record (``trace_id``/``span_id``/``parent_id``,
:mod:`repro.obs.trace`) make a ``--telemetry`` JSONL sink more than a flat
log — it is a forest of span trees spanning threads and worker processes.
This module turns the raw records back into that structure and answers the
operator questions the flat log could not:

* :func:`build_forest` — reconstruct every trace's span tree (and surface
  *orphans*: records whose ``parent_id`` names a span missing from the
  file, the signature of a broken roll-up or an overflowed ring);
* :func:`critical_path` — the chain of spans that bounded a root's wall
  time (greedy descent into the latest-finishing child at each level);
* :func:`attribute` — bucket a batch's wall time into acquisition /
  planning / evaluation / plan-cache upcalls / migration / elastic actions /
  telemetry self-observation / untraced residue, combining span durations
  with the per-phase accounting the server attaches to its batch spans;
* :func:`to_chrome_trace` — export records as Chrome ``trace_event`` JSON,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Everything operates on plain record dicts (the :func:`repro.obs.read_jsonl`
output), so any sink — live ring snapshot, merged parent+worker file, the
SLO bench artifacts — is analyzable without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "Attribution",
    "SpanNode",
    "TraceForest",
    "attribute",
    "build_forest",
    "critical_path",
    "to_chrome_trace",
]

Record = dict[str, Any]

#: Span names that map 1:1 onto an attribution bucket. Time inside these
#: spans is credited to the bucket once (nested mapped spans do not double
#: count — only the outermost mapped span on any path is credited).
SPAN_BUCKETS: Mapping[str, str] = {
    "migration": "migration",
    "elastic": "elastic",
    "plan-cache-upcall": "plan_cache",
}

#: Bucket order for reports; ``residue`` is the wall time the trace could
#: not explain (untraced code, scheduling gaps, span bookkeeping).
ATTRIBUTION_BUCKETS: tuple[str, ...] = (
    "acquisition",
    "planning",
    "evaluation",
    "plan_cache",
    "migration",
    "elastic",
    "telemetry",
    "residue",
)

#: Names a batch-like root span may carry (single server, shard, cluster).
BATCH_SPAN_NAMES: tuple[str, ...] = ("cluster-batch", "shard-batch", "batch")


@dataclass
class SpanNode:
    """One span record plus its reconstructed children and events."""

    record: Record
    children: list["SpanNode"] = field(default_factory=list)
    events: list[Record] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.record.get("name", ""))

    @property
    def span_id(self) -> str | None:
        value = self.record.get("span_id")
        return None if value is None else str(value)

    @property
    def parent_id(self) -> str | None:
        value = self.record.get("parent_id")
        return None if value is None else str(value)

    @property
    def trace_id(self) -> str | None:
        value = self.record.get("trace_id")
        return None if value is None else str(value)

    @property
    def start(self) -> float:
        """Wall-clock start (the ``ts`` field is recorded at span entry)."""
        return float(self.record.get("ts", 0.0))

    @property
    def dur(self) -> float:
        return float(self.record.get("dur", 0.0))

    @property
    def end(self) -> float:
        return self.start + self.dur

    @property
    def pid(self) -> int:
        return int(self.record.get("pid", 0))

    @property
    def attrs(self) -> Mapping[str, Any]:
        attrs = self.record.get("attrs")
        return attrs if isinstance(attrs, Mapping) else {}

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TraceForest:
    """Every span tree reconstructed from one record stream.

    ``orphans`` holds the records (spans *and* events) whose ``parent_id``
    names a span absent from the stream — zero on a healthy merged sink;
    non-zero means a roll-up went missing or the ring evicted a parent.
    """

    roots: list[SpanNode]
    spans: dict[str, SpanNode]
    orphans: list[Record]
    n_records: int

    @property
    def trace_ids(self) -> list[str]:
        """Distinct trace ids among spans, in first-seen order."""
        seen: dict[str, None] = {}
        for root in self.roots:
            for node in root.walk():
                trace = node.trace_id
                if trace is not None:
                    seen.setdefault(trace, None)
        return list(seen)

    def batch_roots(self) -> list[SpanNode]:
        """Top-level batch-like spans (the attribution subjects)."""
        return [root for root in self.roots if root.name in BATCH_SPAN_NAMES]


def build_forest(records: Iterable[Record]) -> TraceForest:
    """Reconstruct the span forest from raw records (any order).

    Linking is order-independent — a child may precede its parent in the
    file, which is exactly what a merged parent+worker sink looks like
    (worker deltas are ingested before the dispatching span closes).
    Children are sorted by start time within each parent.
    """
    spans: dict[str, SpanNode] = {}
    span_records: list[SpanNode] = []
    events: list[Record] = []
    n_records = 0
    for record in records:
        n_records += 1
        rtype = record.get("type")
        if rtype == "span":
            node = SpanNode(record)
            span_records.append(node)
            if node.span_id is not None:
                spans[node.span_id] = node
        elif rtype == "event":
            events.append(record)
    roots: list[SpanNode] = []
    orphans: list[Record] = []
    for node in span_records:
        parent_id = node.parent_id
        if parent_id is None:
            roots.append(node)
        else:
            parent = spans.get(parent_id)
            if parent is None:
                orphans.append(node.record)
                roots.append(node)  # still analyzable, just disconnected
            else:
                parent.children.append(node)
    for record in events:
        parent_id = record.get("parent_id")
        if parent_id is None:
            continue  # events outside any span are legal, not orphans
        parent = spans.get(str(parent_id))
        if parent is None:
            orphans.append(record)
        else:
            parent.events.append(record)
    for node in spans.values():
        node.children.sort(key=lambda child: child.start)
    return TraceForest(
        roots=sorted(roots, key=lambda node: node.start),
        spans=spans,
        orphans=orphans,
        n_records=n_records,
    )


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The chain of spans bounding ``root``'s wall time, root first.

    Greedy descent: at each level, follow the child that *finished last* —
    for fork/join structures (a cluster batch fanned out over shards, each
    shard joined before the batch closes) the latest-finishing child is the
    one the join waited on, so the chain is the batch's critical path.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.end)
        path.append(node)
    return path


@dataclass(frozen=True)
class Attribution:
    """Where one batch-like span's wall time went.

    ``buckets`` holds busy-seconds per named bucket
    (:data:`ATTRIBUTION_BUCKETS` minus ``residue``); ``residue`` is the
    wall time no bucket explains. For concurrent traces (a cluster batch
    with shards in parallel) the bucket sum is *busy* time and may exceed
    ``wall_seconds`` — :attr:`coverage` then exceeds 1.0, which simply
    means the trace explains the wall many times over.
    """

    name: str
    wall_seconds: float
    buckets: dict[str, float]
    residue: float

    @property
    def busy_seconds(self) -> float:
        return sum(self.buckets.values())

    @property
    def coverage(self) -> float:
        """Fraction of wall time attributed to named buckets (may be > 1)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / self.wall_seconds


def attribute(node: SpanNode) -> Attribution:
    """Bucket ``node``'s wall time per :data:`ATTRIBUTION_BUCKETS`.

    Two complementary sources are combined:

    * **phase accounting** — the server's round loop times its own
      acquisition / planning / evaluation / telemetry segments with paired
      ``perf_counter`` reads and attaches the totals as a
      ``phase_seconds`` attribute on each ``batch`` span (cheap enough to
      survive sub-millisecond rounds, where per-round spans would cost
      more than the work they measure);
    * **mapped spans** — migration, elastic and plan-cache-upcall spans
      contribute their durations directly; only the outermost mapped span
      on any path counts, and phase accounting nested under a mapped span
      is skipped, so no second is credited twice.
    """
    buckets: dict[str, float] = {
        bucket: 0.0 for bucket in ATTRIBUTION_BUCKETS if bucket != "residue"
    }

    def visit(current: SpanNode, in_mapped: bool) -> None:
        mapped = SPAN_BUCKETS.get(current.name)
        if mapped is not None and current is not node and not in_mapped:
            buckets[mapped] += current.dur
            in_mapped = True
        if not in_mapped:
            phases = current.attrs.get("phase_seconds")
            if isinstance(phases, Mapping):
                for phase, seconds in phases.items():
                    if phase in buckets:
                        buckets[phase] += float(seconds)
        for child in current.children:
            visit(child, in_mapped)

    visit(node, False)
    residue = max(0.0, node.dur - sum(buckets.values()))
    return Attribution(
        name=node.name, wall_seconds=node.dur, buckets=buckets, residue=residue
    )


def to_chrome_trace(records: Iterable[Record]) -> dict[str, Any]:
    """Records as a Chrome ``trace_event`` JSON object.

    Spans become complete (``ph: "X"``) events, trace events become
    instants (``ph: "i"``); timestamps and durations are microseconds per
    the format. Load the dumped JSON in ``chrome://tracing`` or
    https://ui.perfetto.dev — rows group by pid/thread, so a process-mode
    cluster renders one lane per worker.
    """
    trace_events: list[dict[str, Any]] = []
    for record in records:
        rtype = record.get("type")
        if rtype not in ("span", "event"):
            continue
        attrs = record.get("attrs")
        args: dict[str, Any] = dict(attrs) if isinstance(attrs, Mapping) else {}
        for key in ("trace_id", "span_id", "parent_id"):
            value = record.get(key)
            if value is not None:
                args[key] = value
        entry: dict[str, Any] = {
            "name": str(record.get("name", rtype)),
            "cat": "repro",
            "ts": float(record.get("ts", 0.0)) * 1e6,
            "pid": int(record.get("pid", 0)),
            "tid": int(record.get("thread", 0)),
            "args": args,
        }
        if rtype == "span":
            entry["ph"] = "X"
            entry["dur"] = float(record.get("dur", 0.0)) * 1e6
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
