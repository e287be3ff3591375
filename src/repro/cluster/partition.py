"""Stream-overlap partitioning of a query population into serving shards.

The shared-stream cost model only pays when queries that touch the *same*
streams are served together; queries with disjoint stream sets gain nothing
from sharing a cache — they only lengthen each other's rounds.
This module builds the query<->stream bipartite overlap graph of a
population (:func:`overlap_graph`, from each query's stream weight vector)
and clusters it into at most ``k`` shards:

* two queries overlap with weight ``sum_s min(w_a[s], w_b[s])`` where
  ``w_q[s]`` is the per-round acquisition spend query ``q`` can put on
  stream ``s`` (its largest window on ``s`` times the per-item cost) — the
  cost one of them saves per round when the other pays the window first;
* those sums are taken per stream, never per query pair, over per-stream
  counts of weights held as exact integer multiples of one power-of-two
  unit — so every tie is a real tie, whatever the summation order;
* connected components of the overlap graph are the natural clusters: a
  component never benefits from co-residence with another, so splitting
  *across* components is free while splitting *within* one loses sharing
  (:func:`overlap_components` walks them, here and in each shard's index);
* components are packed onto shards longest-processing-time-first
  (balance) and refined by label-propagation sweeps; an oversized
  component is split along its communities when that keeps most of its
  overlap weight, or when a ``max_shard_queries`` capacity demands it.

:func:`partition_report` explains what a partition costs: the pairwise
overlap weight kept inside shards, the weight cut by shard boundaries, and
the duplicated per-round acquisition spend (a stream windowed by several
shards is paid once per shard instead of once per device).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import StreamError

__all__ = [
    "OverlapGraph",
    "Partition",
    "PartitionReport",
    "build_overlap_graph",
    "pack_pieces",
    "partition_by_overlap",
    "partition_report",
    "random_partition",
    "shard_split_pieces",
    "stream_weight_vector",
]

TreeLike = Union[AndTree, DnfTree, QueryTree]

_REFINE_SWEEPS = 2
_COMMUNITY_SWEEPS = 6
#: A noise-cut split is kept only if its pieces keep at least this share of
#: the split piece's internal overlap weight.
_MIN_SPLIT_KEEP = Fraction(3, 5)


def stream_weight_vector(tree: TreeLike, costs: Mapping[str, float]) -> dict[str, float]:
    """Per-stream acquisition weight of one query: max window x per-item cost.

    This is the most a single round can spend on the stream for this query —
    exactly the spend another co-resident query can save by paying first.
    """
    weights: dict[str, float] = {}
    for leaf in tree.leaves:
        weight = leaf.items * costs.get(leaf.stream, 1.0)
        if weight > weights.get(leaf.stream, 0.0):
            weights[leaf.stream] = weight
    return weights


@dataclass(frozen=True)
class OverlapGraph:
    """The query<->stream bipartite graph of a population, with weights."""

    names: tuple[str, ...]
    #: query name -> stream -> acquisition weight (max window x item cost).
    weights: Mapping[str, Mapping[str, float]]
    #: stream -> the queries windowing it, in population order.
    by_stream: Mapping[str, tuple[str, ...]]
    #: query name -> stream -> the weight as an exact multiple of ``1/scale``.
    units: Mapping[str, Mapping[str, int]]
    #: The largest power-of-two denominator among the weights.
    scale: int

    def components(self) -> list[list[str]]:
        """Connected components (queries sharing a stream), in first-seen
        order; a population with zero overlap yields one singleton each."""
        rank = {name: index for index, name in enumerate(self.names)}
        return overlap_components(
            self.names, self.weights, self.by_stream, rank.__getitem__
        )


def overlap_components(
    seeds: Iterable[str],
    rows: Mapping[str, Iterable[str]],
    readers: Mapping[str, Iterable[str]],
    rank: Callable[[str], int],
) -> list[list[str]]:
    """The connected components holding ``seeds``, walked over shared streams.

    ``rows`` maps a query to its streams, ``readers`` a stream to its
    queries. Members come in ``rank`` order, components in the rank order of
    their first member. The walk costs the components it returns.
    """
    seen: set[str] = set()
    walked: set[str] = set()
    components: list[list[str]] = []
    for seed in seeds:
        if seed in seen:
            continue
        seen.add(seed)
        component = [seed]
        for name in component:  # grows while walked: a breadth-first search
            for stream in rows[name]:
                if stream not in walked:
                    walked.add(stream)
                    fresh = [other for other in readers[stream] if other not in seen]
                    seen.update(fresh)
                    component.extend(fresh)
        components.append(sorted(component, key=rank))
    return sorted(components, key=lambda component: rank(component[0]))


def overlap_graph(rows: Iterable[tuple[str, Mapping[str, float]]]) -> OverlapGraph:
    """Overlap graph of ``(name, stream weight vector)`` rows, in row order."""
    weights: dict[str, Mapping[str, float]] = {}
    by_stream: dict[str, list[str]] = {}
    for name, row in rows:
        if name in weights:
            raise StreamError(f"duplicate query name {name!r} in population")
        weights[name] = row
        for stream in row:
            by_stream.setdefault(stream, []).append(name)
    if not weights:
        raise StreamError("cannot build an overlap graph of an empty population")
    distinct = {w for row in weights.values() for w in row.values()}
    # Every denominator is a power of two, so the largest is a multiple of all.
    scale = max((w.as_integer_ratio()[1] for w in distinct), default=1)
    unit = {w: int(Fraction(w) * scale) for w in distinct}
    units = {
        name: {stream: unit[w] for stream, w in row.items()}
        for name, row in weights.items()
    }
    return OverlapGraph(
        names=tuple(weights),
        weights=weights,
        by_stream={stream: tuple(members) for stream, members in by_stream.items()},
        units=units,
        scale=scale,
    )


def build_overlap_graph(
    population: Sequence[tuple[str, TreeLike]], costs: Mapping[str, float]
) -> OverlapGraph:
    """Overlap graph of ``population`` under the registry's cost table."""
    return overlap_graph(
        (name, stream_weight_vector(tree, costs)) for name, tree in population
    )


@dataclass(frozen=True)
class PartitionReport:
    """What a partition keeps, cuts and duplicates."""

    n_queries: int
    n_shards: int
    shard_sizes: tuple[int, ...]
    #: Pairwise overlap weight between queries placed in the same shard.
    intra_weight: float
    #: Pairwise overlap weight between queries split across shards.
    cut_weight: float
    #: Extra per-round acquisition spend vs one device: a stream windowed by
    #: several shards is paid once per shard instead of once overall.
    duplicated_stream_cost: float
    #: Largest shard size over the ideal (n_queries / n_shards); 1.0 = even.
    balance: float
    method: str

    @property
    def kept_fraction(self) -> float:
        """Fraction of the population's total overlap weight kept intra-shard."""
        total = self.intra_weight + self.cut_weight
        return self.intra_weight / total if total > 0 else 1.0

    def describe(self) -> str:
        sizes = ",".join(str(s) for s in self.shard_sizes)
        return (
            f"partition[{self.method}]: {self.n_queries} queries -> "
            f"{self.n_shards} shards (sizes {sizes}, balance {self.balance:.2f})\n"
            f"  overlap weight kept {self.intra_weight:.6g} / cut {self.cut_weight:.6g}"
            f" ({self.kept_fraction:.1%} kept)\n"
            f"  duplicated per-round stream spend {self.duplicated_stream_cost:.6g}"
        )

    def to_record(self) -> dict:
        """JSON-ready summary for perf records."""
        return {
            "method": self.method,
            "n_queries": self.n_queries,
            "n_shards": self.n_shards,
            "shard_sizes": list(self.shard_sizes),
            "intra_weight": self.intra_weight,
            "cut_weight": self.cut_weight,
            "kept_fraction": self.kept_fraction,
            "duplicated_stream_cost": self.duplicated_stream_cost,
            "balance": self.balance,
        }


@dataclass(frozen=True)
class Partition:
    """An assignment of every query to exactly one shard."""

    shards: tuple[tuple[str, ...], ...]
    report: PartitionReport

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self) -> dict[str, int]:
        return {
            name: index for index, shard in enumerate(self.shards) for name in shard
        }


def _weigh(graph: OverlapGraph, assignment: Mapping[str, int]) -> tuple[int, int, int]:
    """Exact ``(intra, cut, duplicated)`` units of an assignment's queries.

    Per stream, rank the assigned members by unit weight: each one's weight
    is the ``min`` of its pair with every later-ranked member, so it counts
    once per later member, into ``intra`` or ``cut``. ``duplicated`` is each
    group paying its own heaviest window instead of one device paying once.
    """
    units = graph.units
    intra = cut = duplicated = 0
    for stream, members in graph.by_stream.items():
        ranked = sorted(
            (name for name in members if name in assignment),
            key=lambda name: units[name][stream],
        )
        later: dict[int, int] = {}
        heaviest: dict[int, int] = {}
        # Heaviest first: the ``seen`` members walked so far weigh at least as much.
        for seen, name in enumerate(reversed(ranked)):
            unit, group = units[name][stream], assignment[name]
            same = later.get(group, 0)
            intra += unit * same
            cut += unit * (seen - same)
            later[group] = same + 1
            heaviest.setdefault(group, unit)
        duplicated += sum(heaviest.values()) - max(heaviest.values(), default=0)
    return intra, cut, duplicated


def partition_report(
    graph: OverlapGraph, shards: Sequence[Sequence[str]], *, method: str
) -> PartitionReport:
    """Score a shard assignment: kept vs cut overlap, duplicated stream spend."""
    assignment: dict[str, int] = {}
    for index, shard in enumerate(shards):
        for name in shard:
            if name in assignment:
                raise StreamError(f"query {name!r} assigned to two shards")
            assignment[name] = index
    missing = set(graph.names) - set(assignment)
    if missing:
        raise StreamError(f"partition misses queries {sorted(missing)!r}")
    intra, cut, duplicated = _weigh(graph, assignment)
    sizes = tuple(len(shard) for shard in shards)
    n_shards = len(shards)
    ideal = len(graph.names) / n_shards if n_shards else 0.0
    return PartitionReport(
        n_queries=len(graph.names),
        n_shards=n_shards,
        shard_sizes=sizes,
        intra_weight=intra / graph.scale,
        cut_weight=cut / graph.scale,
        duplicated_stream_cost=duplicated / graph.scale,
        balance=max(sizes) / ideal if ideal else 1.0,
        method=method,
    )


def _partition(graph: OverlapGraph, shards: list[list[str]], method: str) -> Partition:
    """Put each shard in population order and score the result."""
    ordered = {name: i for i, name in enumerate(graph.names)}
    final = tuple(tuple(sorted(shard, key=ordered.__getitem__)) for shard in shards)
    return Partition(shards=final, report=partition_report(graph, final, method=method))


class _Tally:
    """Per (stream, group): a count of the member unit weights on the stream.

    A query's pull towards a group, ``sum_s sum_v min(u[s], v) * count``
    over the group's counts on its streams, is the exact total of its
    overlaps with the group's members. A move is remove, then add.
    """

    def __init__(self, graph: OverlapGraph, groups: Mapping[str, int]) -> None:
        self._units = graph.units
        self._counts: dict[str, dict[int, Counter[int]]] = {}
        for name, group in groups.items():
            self.add(name, group)

    def add(self, name: str, group: int) -> None:
        for stream, unit in self._units[name].items():
            self._counts.setdefault(stream, {}).setdefault(group, Counter())[unit] += 1

    def remove(self, name: str, group: int) -> None:
        for stream, unit in self._units[name].items():
            counts = self._counts[stream][group]
            counts[unit] -= 1
            if not counts[unit]:
                del counts[unit]
            if not counts:
                del self._counts[stream][group]

    def pull(self, name: str) -> dict[int, int]:
        """Group -> pull, for every group sharing a stream with ``name``."""
        pulls: dict[int, int] = {}
        for stream, unit in self._units[name].items():
            for group, counts in self._counts.get(stream, {}).items():
                pull = pulls.get(group, 0)
                for value, count in counts.items():
                    pull += (value if value < unit else unit) * count
                pulls[group] = pull
        return pulls


def _community_split(graph: OverlapGraph, component: list[str]) -> list[list[str]]:
    """Classic async label propagation inside one connected component.

    Every query starts as its own community and repeatedly adopts the label
    with the strongest weighted pull among its neighbours (ties to the
    smallest label, deterministic order). Planted clusters glued by noise
    edges each collapse onto one label; a uniform clique collapses onto a
    *single* label — returning one piece, which the caller reads as
    "unsplittable dense structure".
    """
    labels = {name: index for index, name in enumerate(component)}
    tally = _Tally(graph, labels)
    for _ in range(_COMMUNITY_SWEEPS):
        moved = False
        for name in component:
            current = labels[name]
            tally.remove(name, current)
            pulls = tally.pull(name)
            best = min(pulls, key=lambda label: (-pulls[label], label), default=current)
            tally.add(name, best)
            if best != current:
                labels[name] = best
                moved = True
        if not moved:
            break
    grouped: dict[int, list[str]] = {}
    for name in component:
        grouped.setdefault(labels[name], []).append(name)
    return list(grouped.values())


def _split_component(
    graph: OverlapGraph, component: list[str], cap: int
) -> list[list[str]]:
    """Split an oversized component into pieces of at most ``cap`` queries.

    Greedy growth: seed each piece with the unassigned query of highest
    total overlap inside the component (the hub), then repeatedly attach the
    unassigned member with the strongest overlap to the piece so far —
    keeping dense sub-clusters together while honoring the capacity.
    """
    units = graph.units
    remaining = list(component)
    unassigned = _Tally(graph, dict.fromkeys(remaining, 0))
    pieces: list[list[str]] = []
    while remaining:
        if len(remaining) <= cap:
            pieces.append(remaining)
            break
        # A query's pull on the unassigned group, less its overlap with itself.
        hub = max(
            remaining,
            key=lambda q: unassigned.pull(q).get(0, 0) - sum(units[q].values()),
        )
        piece = [hub]
        remaining.remove(hub)
        unassigned.remove(hub, 0)
        attached = dict(units[hub])
        while len(piece) < cap and remaining:
            best = max(
                remaining,
                key=lambda q: sum(
                    min(u, attached.get(s, 0)) for s, u in units[q].items()
                ),
            )
            piece.append(best)
            remaining.remove(best)
            unassigned.remove(best, 0)
            for s, u in units[best].items():
                if u > attached.get(s, 0):
                    attached[s] = u
        pieces.append(piece)
    return pieces


def _label_propagation_refine(
    graph: OverlapGraph, shards: list[list[str]], *, max_shard_queries: int | None
) -> list[list[str]]:
    """Greedy label-propagation: move a query to the shard it overlaps most.

    Deterministic sweeps in population order; a move must strictly increase
    the query's intra-shard overlap (ties to the lowest shard index) and
    respect the capacity. Useful when cut edges (cross-component noise) make
    the component packing improvable.
    """
    assignment = {name: index for index, shard in enumerate(shards) for name in shard}
    sizes = [len(shard) for shard in shards]
    tally = _Tally(graph, assignment)
    for _ in range(_REFINE_SWEEPS):
        moved = False
        for name in graph.names:
            current = assignment[name]
            tally.remove(name, current)
            pulls = tally.pull(name)
            best, best_pull = current, pulls.get(current, 0)
            for shard in sorted(pulls):
                if shard == current:
                    continue
                if max_shard_queries is not None and sizes[shard] >= max_shard_queries:
                    continue
                if pulls[shard] > best_pull:
                    best, best_pull = shard, pulls[shard]
            tally.add(name, best)
            if best != current:
                assignment[name] = best
                sizes[current] -= 1
                sizes[best] += 1
                moved = True
        if not moved:
            break
    rebuilt: list[list[str]] = [[] for _ in shards]
    for name in graph.names:
        rebuilt[assignment[name]].append(name)
    return [shard for shard in rebuilt if shard]


def shard_split_pieces(graph: OverlapGraph, *, allow_cut: bool = False) -> list[list[str]]:
    """The pieces one shard's population divides into, cheapest cut first.

    Connected components of the shard-local overlap graph are the *free*
    split boundaries: no shared stream crosses them, so dividing along them
    changes no query's cost. A single-component (monolithic) population has
    no free boundary; with ``allow_cut`` it is divided along its
    label-propagation communities instead — the partitioner's noise-cut
    structure, which keeps dense sub-clusters whole but does duplicate the
    cut streams' spend. Returns one piece when the population is
    unsplittable under the given policy.
    """
    pieces = graph.components()
    if len(pieces) == 1 and allow_cut:
        pieces = _community_split(graph, pieces[0])
    return pieces


def pack_pieces(pieces: Sequence[Sequence[str]], k: int) -> list[list[str]]:
    """LPT-pack ``pieces`` into at most ``k`` balanced groups (largest first
    onto the lightest group; deterministic, stable for equal sizes)."""
    if k < 1:
        raise StreamError(f"need at least one group, got {k}")
    groups: list[list[str]] = [[] for _ in range(min(k, len(pieces)))]
    for piece in sorted(pieces, key=len, reverse=True):
        lightest = min(range(len(groups)), key=lambda i: (len(groups[i]), i))
        groups[lightest].extend(piece)
    return [group for group in groups if group]


def partition_by_overlap(
    graph: OverlapGraph, k: int, *, max_shard_queries: int | None = None
) -> Partition:
    """Cluster ``graph``'s queries into at most ``k`` shards by stream overlap.

    Connected overlap components are the starting clusters. A *dense*
    component is never split for width — a fully-overlapping population
    yields one shard no matter how large ``k`` is, and ``k`` larger than the
    number of clusters yields one shard per cluster. But a component held
    together only by thin cross-traffic is a different matter: when fewer
    pieces than shards exist, the largest oversized piece is trial-split
    along its label-propagation communities, and the split is *kept only
    if* its pieces keep at least 60% of the piece's internal overlap
    weight — planted clusters glued by noise edges pass (they keep most of
    their weight), uniform cliques fail (any width-``j`` split of a clique
    keeps only ~1/j). ``max_shard_queries`` (a per-shard admission
    capacity) additionally forces splits regardless of cut cost. Pieces are
    packed onto shards LPT-style (largest first onto the lightest shard),
    then refined with two label-propagation sweeps. Every overlap sum is
    exact (per-stream counts of :class:`OverlapGraph` ``units``), so a tie
    is a real tie.
    """
    if k < 1:
        raise StreamError(f"need at least one shard, got {k}")
    if max_shard_queries is not None and max_shard_queries < 1:
        raise StreamError(f"max_shard_queries must be >= 1, got {max_shard_queries}")
    if max_shard_queries is not None and len(graph.names) > k * max_shard_queries:
        raise StreamError(
            f"{len(graph.names)} queries cannot fit {k} shards of capacity "
            f"{max_shard_queries}"
        )
    pieces: list[list[str]] = []
    for component in graph.components():
        if max_shard_queries is not None and len(component) > max_shard_queries:
            pieces.extend(_split_component(graph, component, max_shard_queries))
        else:
            pieces.append(component)
    # Noise-cut pass: with fewer pieces than shards, trial-split oversized
    # pieces by community detection and keep only cheap cuts (weak glue,
    # not dense structure).
    target = -(-len(graph.names) // k)  # ceil
    while len(pieces) < k:
        oversized = [piece for piece in pieces if len(piece) > target]
        if not oversized:
            break
        largest = max(oversized, key=len)
        sub = _community_split(graph, largest)
        if len(sub) <= 1:
            break
        kept, cut, _ = _weigh(
            graph, {name: index for index, piece in enumerate(sub) for name in piece}
        )
        if kept < _MIN_SPLIT_KEEP * (kept + cut):
            break
        pieces.remove(largest)
        pieces.extend(sub)
    # LPT packing: largest piece first onto the currently lightest shard.
    n_shards = min(k, len(pieces))
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for piece in sorted(pieces, key=len, reverse=True):
        remaining = list(piece)
        while remaining:
            candidates = sorted(range(n_shards), key=lambda i: (len(shards[i]), i))
            if max_shard_queries is None:
                shards[candidates[0]].extend(remaining)
                break
            whole = next(
                (
                    index
                    for index in candidates
                    if len(shards[index]) + len(remaining) <= max_shard_queries
                ),
                None,
            )
            if whole is not None:
                shards[whole].extend(remaining)
                break
            # No shard fits the whole piece: the capacity forces one more
            # split. Fill the lightest shard and carry the tail on (the
            # upfront n <= k * cap check guarantees space exists).
            lightest = candidates[0]
            space = max_shard_queries - len(shards[lightest])
            shards[lightest].extend(remaining[:space])
            remaining = remaining[space:]
    shards = [shard for shard in shards if shard]
    if len(shards) > 1:
        shards = _label_propagation_refine(
            graph, shards, max_shard_queries=max_shard_queries
        )
    return _partition(graph, shards, "overlap")


def random_partition(graph: OverlapGraph, k: int, *, seed: int = 0) -> Partition:
    """Overlap-blind baseline: shuffle the queries, deal round-robin."""
    if k < 1:
        raise StreamError(f"need at least one shard, got {k}")
    names = list(graph.names)
    np.random.default_rng(seed).shuffle(names)
    n_shards = min(k, len(names))
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for index, name in enumerate(names):
        shards[index % n_shards].append(name)
    return _partition(graph, shards, "random")
