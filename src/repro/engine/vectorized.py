"""Vectorized trial engine: N independent executions as one numpy program.

:class:`~repro.engine.executor.ScheduleExecutor` interprets a schedule one
leaf at a time; estimating an expected cost from 10k trials therefore costs
10k Python walks. :class:`VectorizedExecutor` lowers the (tree, schedule)
pair once through :func:`repro.core.compile.compile_schedule` and then
evaluates an entire ``trials x leaves`` outcome matrix with array
operations: per-trial stop points, short-circuit skips, cache-aware charged
cost and root truth values all fall out of whole-column masks.

Equivalence contract (enforced by the differential test-suite): a batch is
**bit-for-bit** equal to running the scalar executor once per trial, with a
fresh :class:`~repro.streams.cache.CountingCache` and a
:class:`~repro.engine.executor.PrecomputedOracle` replaying the same row of
the outcome matrix. When the matrix is drawn internally it takes one
``rng.random((n, L))`` draw, so ``seed`` fully determines a batch. This is
the one trial path: :func:`repro.engine.battery.run_battery` and
:func:`repro.core.montecarlo.monte_carlo_cost` draw through
:meth:`VectorizedExecutor.run_batch`.

The engine covers Bernoulli-style trials (outcomes drawn from leaf
probabilities or supplied as a matrix). Real-data predicate evaluation
(:class:`~repro.engine.executor.PredicateOracle` over a
:class:`~repro.streams.cache.DataItemCache`) runs on
:class:`~repro.engine.executor.ScheduleExecutor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.compile import CompiledSchedule, compile_schedule
from repro.core.resolution import FALSE, KIND_AND, TRUE, TreeIndex, UNRESOLVED
from repro.core.schedule import Schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.engine.executor import ExecutionResult
from repro.errors import StreamError

__all__ = ["BatchResult", "VectorizedExecutor"]


@dataclass(frozen=True)
class BatchResult:
    """Per-trial outcome of one vectorized batch.

    Row ``i`` of every array describes trial ``i``; columns of the
    ``(n_trials, n_leaves)`` matrices are indexed by *global leaf index*,
    not schedule position.
    """

    schedule: Schedule
    #: Root truth value per trial.
    values: np.ndarray
    #: Charged acquisition cost per trial.
    costs: np.ndarray
    #: ``evaluated[i, g]`` — leaf ``g`` was actually probed in trial ``i``.
    evaluated: np.ndarray
    #: The full outcome matrix the batch was evaluated over.
    outcomes: np.ndarray

    @property
    def n_trials(self) -> int:
        return int(self.costs.size)

    @property
    def n_leaves(self) -> int:
        return int(self.outcomes.shape[1])

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())

    @property
    def std_error(self) -> float:
        if self.n_trials < 2:
            return 0.0
        return float(self.costs.std(ddof=1) / math.sqrt(self.n_trials))

    @property
    def true_rate(self) -> float:
        return float(self.values.mean())

    def n_evaluated(self) -> np.ndarray:
        """Number of probed leaves per trial."""
        return self.evaluated.sum(axis=1)

    def skipped_mask(self) -> np.ndarray:
        """Complement of :attr:`evaluated` (every leaf is one or the other)."""
        return ~self.evaluated

    def result_for(self, trial: int) -> ExecutionResult:
        """Trial ``trial`` as a scalar :class:`ExecutionResult`.

        Field-for-field identical to what the scalar executor returns for
        the same outcome row (the differential harness' comparison unit).
        """
        mask = self.evaluated[trial]
        return ExecutionResult(
            value=bool(self.values[trial]),
            cost=float(self.costs[trial]),
            evaluated=tuple(g for g in self.schedule if mask[g]),
            skipped=tuple(g for g in self.schedule if not mask[g]),
            outcomes={
                int(g): bool(self.outcomes[trial, g]) for g in self.schedule if mask[g]
            },
        )


class VectorizedExecutor:
    """Batched short-circuit execution of linear schedules.

    Compiles each distinct schedule once (cached) and evaluates batches of
    independent trials against it. Every trial starts from an empty item
    cache — the independent-trials model of the analytic evaluators — so
    batches estimate the same quantity as
    :func:`~repro.core.cost.dnf_schedule_cost`.
    """

    def __init__(
        self,
        tree: Union[QueryTree, AndTree, DnfTree],
        *,
        index: TreeIndex | None = None,
    ) -> None:
        self.tree = tree
        self._index = index if index is not None else TreeIndex(tree)
        self._programs: dict[Schedule, CompiledSchedule] = {}

    def compile(self, schedule: Sequence[int]) -> CompiledSchedule:
        """The compiled program for ``schedule`` (memoized per schedule)."""
        key = tuple(int(g) for g in schedule)
        program = self._programs.get(key)
        if program is None:
            program = compile_schedule(self.tree, key, index=self._index)
            self._programs[key] = program
        return program

    def run_batch(
        self,
        schedule: Sequence[int],
        n_trials: int | None = None,
        *,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        outcomes: np.ndarray | None = None,
    ) -> BatchResult:
        """Evaluate ``n_trials`` independent executions of ``schedule``.

        Parameters
        ----------
        outcomes:
            Optional pre-drawn ``(n_trials, n_leaves)`` boolean matrix; when
            omitted the batch draws ``rng.random((n_trials, L)) < probs``
            from ``rng`` (or a fresh generator from ``seed``).
        """
        program = self.compile(schedule)
        n_leaves = program.n_leaves
        if outcomes is None:
            if n_trials is None or n_trials < 1:
                raise StreamError(f"need n_trials >= 1, got {n_trials}")
            if rng is None:
                rng = np.random.default_rng(seed)
            outcomes = rng.random((n_trials, n_leaves)) < program.probs
        else:
            outcomes = np.asarray(outcomes, dtype=bool)
            if outcomes.ndim != 2 or outcomes.shape[1] != n_leaves:
                raise StreamError(
                    f"outcome matrix must be (n_trials, {n_leaves}), got {outcomes.shape}"
                )
            if n_trials is not None and n_trials != outcomes.shape[0]:
                raise StreamError(
                    f"n_trials={n_trials} disagrees with outcome matrix rows {outcomes.shape[0]}"
                )
            if outcomes.shape[0] < 1:
                raise StreamError("outcome matrix needs at least one trial row")
            n_trials = outcomes.shape[0]
        return self._evaluate(program, outcomes)

    def _evaluate(self, program: CompiledSchedule, outcomes: np.ndarray) -> BatchResult:
        n = outcomes.shape[0]
        # Node-major state so values[node] is one contiguous per-trial row.
        values = np.full((program.n_nodes, n), UNRESOLVED, dtype=np.int8)
        resolved_children = np.zeros((program.n_nodes, n), dtype=np.int64)
        held = np.zeros((program.n_slots, n), dtype=np.int64)
        costs = np.zeros(n, dtype=np.float64)
        evaluated = np.zeros((n, program.n_leaves), dtype=bool)

        parent = program.parent
        kinds = program.kinds
        n_children = program.n_children

        for g in program.order:
            chain = program.chains[g]
            chain = chain[chain >= 0]
            # Active = root unresolved, no ancestor resolved, leaf unprobed.
            active = ~(values[chain] != UNRESOLVED).any(axis=0)
            if not active.any():
                continue
            evaluated[:, g] = active

            # Charge for the items the trial's cache does not hold yet; the
            # accumulation order per trial matches the scalar executor's, so
            # float sums agree bit-for-bit.
            slot = program.stream_slots[g]
            want = program.items[g]
            slot_held = held[slot]
            missing = want - slot_held
            charge = active & (missing > 0)
            if charge.any():
                costs[charge] += missing[charge] * program.unit_costs[g]
                slot_held[charge] = want

            # Resolve the leaf and propagate along its ancestor chain — a
            # vectorized transcript of ResolutionState._resolve.
            col = outcomes[:, g]
            child_value = np.where(col, TRUE, FALSE).astype(np.int8)
            node = program.leaf_node_ids[g]
            values[node][active] = child_value[active]
            newly = active
            cur = node
            while True:
                p = parent[cur]
                if p < 0 or not newly.any():
                    break
                parent_row = values[p]
                unresolved = parent_row == UNRESOLVED
                counts = resolved_children[p]
                counts[newly] += 1
                full = counts == n_children[p]
                if kinds[p] == KIND_AND:
                    newly_false = newly & unresolved & (child_value == FALSE)
                    newly_true = newly & unresolved & (child_value == TRUE) & full
                else:
                    newly_true = newly & unresolved & (child_value == TRUE)
                    newly_false = newly & unresolved & (child_value == FALSE) & full
                parent_row[newly_false] = FALSE
                parent_row[newly_true] = TRUE
                newly = newly_true | newly_false
                child_value = np.where(newly_true, TRUE, FALSE).astype(np.int8)
                cur = p

        root = values[0]
        assert (root != UNRESOLVED).all(), "a full schedule always resolves the root"
        return BatchResult(
            schedule=program.schedule,
            values=root == TRUE,
            costs=costs,
            evaluated=evaluated,
            outcomes=outcomes,
        )
