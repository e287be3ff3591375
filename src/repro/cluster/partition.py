"""Stream-overlap partitioning of a query population into serving shards.

The shared-stream cost model only pays when queries that touch the *same*
streams are served together; queries with disjoint stream sets gain nothing
from sharing a cache — they only inflate the server's global plan merge.
This module builds the query<->stream bipartite overlap graph of a
population and clusters it into at most ``k`` shards:

* two queries overlap with weight ``sum_s min(w_a[s], w_b[s])`` where
  ``w_q[s]`` is the per-round acquisition spend query ``q`` can put on
  stream ``s`` (its largest window on ``s`` times the per-item cost) — the
  cost one of them saves per round when the other pays the window first;
* connected components of the overlap graph are the natural clusters: a
  component never benefits from co-residence with another, so splitting
  *across* components is free while splitting *within* one loses sharing;
* components are packed onto shards longest-processing-time-first (balance),
  optionally refined by label-propagation sweeps when cross-component noise
  (cut edges) makes the initial packing improvable, and oversized components
  are only split when an explicit ``max_shard_queries`` capacity demands it.

:func:`partition_report` explains what a partition costs: the pairwise
overlap weight kept inside shards, the weight cut by shard boundaries, and
the duplicated per-round acquisition spend (a stream windowed by several
shards is paid once per shard instead of once per device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

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

    def streams_of(self, name: str) -> frozenset[str]:
        return frozenset(self.weights[name])

    def overlap(self, a: str, b: str) -> float:
        """Shared-stream weight between two queries (0.0 when disjoint).

        Pairs are memoized: the partitioner's component, label-propagation
        and cut-scoring passes all revisit the same pairs many times.
        """
        cache: dict[tuple[str, str], float] = self.__dict__.setdefault(
            "_overlap_cache", {}
        )
        pair = (a, b) if a <= b else (b, a)
        value = cache.get(pair)
        if value is None:
            wa, wb = self.weights[a], self.weights[b]
            if len(wb) < len(wa):
                wa, wb = wb, wa
            value = sum(min(w, wb[s]) for s, w in wa.items() if s in wb)
            cache[pair] = value
        return value

    def queries_by_stream(self) -> dict[str, list[str]]:
        """Stream -> queries windowing it (computed once, cached)."""
        cached = self.__dict__.get("_by_stream")
        if cached is None:
            by_stream: dict[str, list[str]] = {}
            for name in self.names:
                for stream in self.weights[name]:
                    by_stream.setdefault(stream, []).append(name)
            object.__setattr__(self, "_by_stream", by_stream)
            cached = by_stream
        return cached

    def overlapping_pairs(
        self, members: "set[str] | None" = None
    ) -> "Iterator[tuple[str, str]]":
        """Every unordered query pair sharing a stream, yielded once.

        Only pairs with a common stream can overlap, so consumers walking
        these pairs instead of the full n^2 grid stay near-linear on sparse
        populations. ``members`` restricts to pairs inside one set.
        """
        seen: set[tuple[str, str]] = set()
        for stream_members in self.queries_by_stream().values():
            inside = (
                stream_members
                if members is None
                else [name for name in stream_members if name in members]
            )
            for i, a in enumerate(inside):
                for b in inside[i + 1 :]:
                    pair = (a, b) if a <= b else (b, a)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair

    def neighbour_map(
        self, members: "set[str] | None" = None
    ) -> dict[str, set[str]]:
        """Query -> stream-sharing neighbours (optionally within ``members``)."""
        scope = self.names if members is None else [n for n in self.names if n in members]
        neighbours: dict[str, set[str]] = {name: set() for name in scope}
        for a, b in self.overlapping_pairs(members):
            neighbours[a].add(b)
            neighbours[b].add(a)
        return neighbours

    def components(self) -> list[list[str]]:
        """Connected components of the overlap graph, in first-seen order.

        Queries are connected when they share at least one stream; a
        population with zero overlap yields one singleton per query.
        """
        parent = {name: name for name in self.names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for members in self.queries_by_stream().values():
            first = members[0]
            for other in members[1:]:
                ra, rb = find(first), find(other)
                if ra != rb:
                    parent[rb] = ra
        grouped: dict[str, list[str]] = {}
        for name in self.names:
            grouped.setdefault(find(name), []).append(name)
        return list(grouped.values())


def build_overlap_graph(
    population: Sequence[tuple[str, TreeLike]], costs: Mapping[str, float]
) -> OverlapGraph:
    """Overlap graph of ``population`` under the registry's cost table."""
    if not population:
        raise StreamError("cannot build an overlap graph of an empty population")
    names: list[str] = []
    weights: dict[str, dict[str, float]] = {}
    for name, tree in population:
        if name in weights:
            raise StreamError(f"duplicate query name {name!r} in population")
        names.append(name)
        weights[name] = stream_weight_vector(tree, costs)
    return OverlapGraph(names=tuple(names), weights=weights)


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
    intra = cut = 0.0
    for a, b in graph.overlapping_pairs():
        weight = graph.overlap(a, b)
        if assignment[a] == assignment[b]:
            intra += weight
        else:
            cut += weight
    # Duplicated acquisition: per stream, each shard that windows it pays its
    # own shard-max window; one device would pay the global max once.
    duplicated = 0.0
    for stream, members in graph.queries_by_stream().items():
        shard_max: dict[int, float] = {}
        for name in members:
            weight = graph.weights[name][stream]
            shard = assignment[name]
            if weight > shard_max.get(shard, 0.0):
                shard_max[shard] = weight
        duplicated += sum(shard_max.values()) - max(shard_max.values())
    sizes = tuple(len(shard) for shard in shards)
    n_shards = len(shards)
    ideal = len(graph.names) / n_shards if n_shards else 0.0
    return PartitionReport(
        n_queries=len(graph.names),
        n_shards=n_shards,
        shard_sizes=sizes,
        intra_weight=intra,
        cut_weight=cut,
        duplicated_stream_cost=duplicated,
        balance=max(sizes) / ideal if ideal else 1.0,
        method=method,
    )


def _pair_weight(graph: OverlapGraph, names: Sequence[str]) -> float:
    """Total pairwise overlap weight inside ``names``."""
    members = set(names)
    return sum(graph.overlap(a, b) for a, b in graph.overlapping_pairs(members))


def _community_split(
    graph: OverlapGraph, component: list[str], *, sweeps: int = 6
) -> list[list[str]]:
    """Classic async label propagation inside one connected component.

    Every query starts as its own community and repeatedly adopts the label
    with the strongest weighted pull among its neighbours (ties to the
    smallest label, deterministic order). Planted clusters glued by noise
    edges each collapse onto one label; a uniform clique collapses onto a
    *single* label — returning one piece, which the caller reads as
    "unsplittable dense structure".
    """
    neighbours = {
        name: sorted(peers)
        for name, peers in graph.neighbour_map(set(component)).items()
    }
    labels = {name: index for index, name in enumerate(component)}
    for _ in range(max(1, sweeps)):
        moved = False
        for name in component:
            pull: dict[int, float] = {}
            for other in neighbours[name]:
                label = labels[other]
                pull[label] = pull.get(label, 0.0) + graph.overlap(name, other)
            if not pull:
                continue
            best = min(pull, key=lambda label: (-pull[label], label))
            if best != labels[name]:
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
    remaining = list(component)
    pieces: list[list[str]] = []
    while remaining:
        if len(remaining) <= cap:
            pieces.append(remaining)
            break
        hub = max(
            remaining,
            key=lambda q: sum(graph.overlap(q, other) for other in remaining if other != q),
        )
        piece = [hub]
        remaining.remove(hub)
        attached = {s: w for s, w in graph.weights[hub].items()}
        while len(piece) < cap and remaining:
            best = max(
                remaining,
                key=lambda q: sum(
                    min(w, attached.get(s, 0.0))
                    for s, w in graph.weights[q].items()
                ),
            )
            piece.append(best)
            remaining.remove(best)
            for s, w in graph.weights[best].items():
                if w > attached.get(s, 0.0):
                    attached[s] = w
        pieces.append(piece)
    return pieces


def _label_propagation_refine(
    graph: OverlapGraph,
    shards: list[list[str]],
    *,
    max_shard_queries: int | None,
    sweeps: int,
) -> list[list[str]]:
    """Greedy label-propagation: move a query to the shard it overlaps most.

    Deterministic sweeps in population order; a move must strictly increase
    the query's intra-shard overlap and respect the capacity. Useful when
    cut edges (cross-component noise) make the component packing improvable.
    """
    assignment = {
        name: index for index, shard in enumerate(shards) for name in shard
    }
    # Only the assigned queries participate: the pass also refines trial
    # splits of a single component, where the rest of the graph is absent.
    covered = [name for name in graph.names if name in assignment]
    neighbours = graph.neighbour_map(set(covered))
    sizes = [len(shard) for shard in shards]
    for _ in range(max(0, sweeps)):
        moved = False
        for name in covered:
            current = assignment[name]
            pull: dict[int, float] = {}
            for other in neighbours[name]:
                shard = assignment[other]
                pull[shard] = pull.get(shard, 0.0) + graph.overlap(name, other)
            best_shard, best_pull = current, pull.get(current, 0.0)
            for shard, weight in sorted(pull.items()):
                if shard == current:
                    continue
                if max_shard_queries is not None and sizes[shard] >= max_shard_queries:
                    continue
                if weight > best_pull:
                    best_shard, best_pull = shard, weight
            if best_shard != current:
                assignment[name] = best_shard
                sizes[current] -= 1
                sizes[best_shard] += 1
                moved = True
        if not moved:
            break
    rebuilt: list[list[str]] = [[] for _ in shards]
    for name in covered:
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
    population: Sequence[tuple[str, TreeLike]],
    k: int,
    costs: Mapping[str, float],
    *,
    max_shard_queries: int | None = None,
    refine_sweeps: int = 2,
    min_split_keep: float = 0.6,
    graph: OverlapGraph | None = None,
) -> Partition:
    """Cluster ``population`` into at most ``k`` shards by stream overlap.

    Connected overlap components are the starting clusters. A *dense*
    component is never split for width — a fully-overlapping population
    yields one shard no matter how large ``k`` is, and ``k`` larger than the
    number of clusters yields one shard per cluster. But a component held
    together only by thin cross-traffic is a different matter: when fewer
    components than shards exist, oversized components are trial-split
    (greedy hub growth + label-propagation refinement) and the split is
    *kept only if* it preserves at least ``min_split_keep`` of the
    component's internal overlap weight — planted clusters glued by noise
    edges pass (they keep most of their weight), uniform cliques fail (any
    width-``j`` split of a clique keeps only ~1/j). ``max_shard_queries``
    (a per-shard admission capacity) additionally forces splits regardless
    of cut cost. Components are packed onto shards LPT-style (largest first
    onto the lightest shard), then refined with ``refine_sweeps``
    label-propagation passes. Callers that already built the population's
    :class:`OverlapGraph` pass it via ``graph`` to skip the rebuild.
    """
    if k < 1:
        raise StreamError(f"need at least one shard, got {k}")
    if max_shard_queries is not None and max_shard_queries < 1:
        raise StreamError(f"max_shard_queries must be >= 1, got {max_shard_queries}")
    if graph is None:
        graph = build_overlap_graph(population, costs)
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
        internal = _pair_weight(graph, largest)
        kept = sum(_pair_weight(graph, piece) for piece in sub)
        if internal > 0 and kept < min_split_keep * internal:
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
    if refine_sweeps > 0 and len(shards) > 1:
        shards = _label_propagation_refine(
            graph, shards, max_shard_queries=max_shard_queries, sweeps=refine_sweeps
        )
    ordered = {name: i for i, name in enumerate(graph.names)}
    final = tuple(
        tuple(sorted(shard, key=ordered.__getitem__)) for shard in shards
    )
    return Partition(
        shards=final, report=partition_report(graph, final, method="overlap")
    )


def random_partition(
    population: Sequence[tuple[str, TreeLike]],
    k: int,
    costs: Mapping[str, float],
    *,
    seed: int = 0,
) -> Partition:
    """Overlap-blind baseline: shuffle the population, deal round-robin."""
    if k < 1:
        raise StreamError(f"need at least one shard, got {k}")
    graph = build_overlap_graph(population, costs)
    names = list(graph.names)
    np.random.default_rng(seed).shuffle(names)
    n_shards = min(k, len(names))
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for index, name in enumerate(names):
        shards[index % n_shards].append(name)
    ordered = {name: i for i, name in enumerate(graph.names)}
    final = tuple(
        tuple(sorted(shard, key=ordered.__getitem__)) for shard in shards
    )
    return Partition(
        shards=final, report=partition_report(graph, final, method="random")
    )
