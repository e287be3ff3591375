"""Round execution for a query population over one shared cache.

Every resident's schedule runs in full, and registration order decides who
pays. The order a round serves probes in changes no count: which probes it
evaluates depends only on each query's own schedule and outcomes, and a
stream's fetched items are the widest window its evaluated probes ask for
minus what the cache already holds, whatever order serves them. Sharing
comes from the cache — one fetch serves every query that reads the window
("pay one, get hundreds") — and registration order decides only which query
pays for it.

A round runs set at a time over *rows*: :class:`RoundProgram` keeps one row
per resident slot in padded numpy arrays. A row is a DNF (an OR of ANDs, the
paper's Section IV) and its schedule, a permutation of the DNF's leaves: per
step *k*, the leaf's global index, stream, window and AND (its index within
the row); per slot, the schedule length, position in registration order,
AND count and tape; per (slot, AND), the AND's leaf count. A resident's row
is written straight from its :class:`~repro.core.tree.DnfTree`. Rows outlive
population changes: an arrival appends one (batched into one array
conversion at the next round), a departure tombstones one, a re-plan
rewrites one, a re-order rewrites positions, and once half the rows are dead
one gather per array moves the live ones to the front.

:meth:`RoundProgram.run` walks step *k* of every live row at once, with one
counter per AND and one per root: a probe whose AND already closed is
skipped, the outcomes are gathered, a FALSE leaf or an AND's last TRUE leaf
closes the AND, a TRUE AND or the root's last FALSE AND closes the root, and
rows whose root closed leave the walk. The fetches are charged afterwards:
the evaluated probes are sorted by (stream, position, step), one
``maximum.accumulate`` gives each probe its stream's widest earlier window,
and only the probes that widen it fetch: one cache call per touched stream
takes its widening windows in order and returns the items each fetched. The
costs (items times a per-stream item-cost array) are folded into the
per-query costs and the cache's ``charged`` in (position, step) order — so
every per-query cost is the same left fold of the same floats as a
probe-by-probe walk, and every other probe reads a window the round already
fetched.

Outcomes come from the oracles. An oracle with an outcome *tape*
(:meth:`~repro.engine.executor.LeafOracle.tape`) hands the kernel its tape
as bytes once per tape block and keeps its own position; its round lives in
the program's clock array (:meth:`RoundProgram.tick` moves every held
clock with one add, and a round reads them with one gather). Every other
oracle is called once per evaluated probe, step by step and in registration
order within a step. One that reads windows
(:attr:`~repro.engine.executor.LeafOracle.reads_window`) gets a read-only
window from an uncharged per-round peek; any other gets ``None``.

A round costs a fixed number of numpy calls per step column, whatever the
number of live rows, so it is cheap per probe for large populations and
dearer than a probe-by-probe walk for a few dozen residents.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from repro.core.leaf import Leaf
from repro.core.resolution import FALSE, TRUE
from repro.core.schedule import Schedule, validate_schedule
from repro.core.tree import DnfTree
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.errors import StreamError
from repro.streams.cache import CountingCache, DataItemCache

__all__ = [
    "RoundProgram",
    "RoundStats",
]

_round_of = operator.attrgetter("round_index")
_name_of = operator.itemgetter(0)


@dataclass
class RoundStats:
    """The one per-round record: aggregate and per-query accounting.

    :meth:`RoundProgram.run` fills it. ``query_cost`` and ``query_probes``
    hold one entry per resident, aligned with the program's ``names``
    (registration order); a resident none of whose probes ran has 0.0 and
    0. The server's batch tally is the one fold of these records: the batch
    report, the lifetime ledger and the telemetry counters all read the
    tally's sums, and only the per-round histograms and detail events read
    a round's entries directly.
    """

    probes: int = 0
    free_probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0
    query_cost: list[float] = field(default_factory=list)
    query_probes: list[int] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """The round's cost: the per-query costs summed in registration order.

        A plain left fold from 0.0 (``sum`` compensates on Python 3.12+), so
        a batch's per-query totals and its round costs add the same floats
        the same way. The residents that paid nothing are left out: adding
        0.0 to a sum begun at 0.0 changes no bit.
        """
        return functools.reduce(operator.add, filter(None, self.query_cost), 0.0)


#: What a row is built from: the query's name, DNF, schedule and oracle.
_Spec = tuple[str, DnfTree, Schedule, LeafOracle]
#: What a per-probe oracle call of a row needs besides its oracle: the leaves
#: of the row's steps, and whether the oracle reads windows.
_Call = tuple[tuple[Leaf, ...], bool]


def _grown(array: np.ndarray, shape: int | tuple[int, ...], fill: int) -> np.ndarray:
    """``array`` padded with ``fill`` to ``shape``."""
    grown = np.full(shape, fill, dtype=array.dtype)
    grown[tuple(slice(0, n) for n in array.shape)] = array
    return grown


class RoundProgram:
    """A population's DNF schedules as rows of padded arrays, kept across churn.

    Built empty (or from ``trees``, ``schedules`` and ``oracles``, keyed by
    name, in registration order) and kept current with :meth:`append`,
    :meth:`remove`, :meth:`reschedule` and :meth:`reorder`. A row is a
    :class:`DnfTree` and a schedule that probes each of its leaves once.
    A round (:meth:`run`) resolves no name and builds nothing per resident.
    :meth:`values`, :meth:`results` and :meth:`evaluated` read the last
    round back, until the population changes. The rounds of the residents'
    tape oracles live in the program's clock array while their rows are
    written, and :meth:`tick` moves them all on after a round.
    """

    def __init__(
        self,
        trees: Mapping[str, DnfTree] | None = None,
        schedules: Mapping[str, Schedule] | None = None,
        oracles: Mapping[str, LeafOracle] | None = None,
    ) -> None:
        # Rows, column-major so that step k of every slot is contiguous:
        # [width, capacity]. Per step: its global leaf index, stream, window
        # and AND (the leaf's AND index within its row).
        self._gindex = np.zeros((1, 0), np.intp)
        self._stream = np.zeros((1, 0), np.intp)
        self._items = np.zeros((1, 0), np.intp)
        self._and = np.zeros((1, 0), np.intp)
        # Per slot: schedule length (0 when dead), position in registration
        # order (-1 when dead), AND count and tape index (-1: the oracle is
        # called per probe).
        self._length = np.zeros(0, np.intp)
        self._position = np.zeros(0, np.intp)
        self._n_ands = np.zeros(0, np.intp)
        self._tape = np.zeros(0, np.intp)
        # Per (slot, AND), [capacity, the most ANDs of a row]: its leaf count
        # (0 past the row's ANDs).
        self._and_size = np.zeros((0, 1), np.intp)
        # Per slot, its root's counter in the last round (see run).
        self._root_left = np.zeros(0, np.intp)
        self._flushed = 0  # slots [0, _flushed) are written to the arrays
        # Per slot, what the row was built from (None once dead), and for a
        # row whose oracle is called per probe, the leaves of its steps and
        # whether the oracle reads windows (None for a tape row).
        self._specs: list[_Spec | None] = []
        self._calls: list[_Call | None] = []
        self._slot_of: dict[str, int] = {}
        self._dead = 0
        self._streams: list[str] = []
        self._stream_ids: dict[str, int] = {}
        # Registration order: live slots by position, and their names.
        self._order: np.ndarray | None = None
        self._names: tuple[str, ...] | None = None
        self._n_called = 0  # live slots whose oracle is called per probe
        # Oracles with a round clock, by tape index: the object (None once
        # no row holds it, when the index goes on the free list) and the
        # bytes it last handed over; per index, its live rows, whether its
        # round lives in _clock (else another program's clock holds it, and
        # the round is copied into _clock before each round's gather), the
        # round, and the rounds, stride and buffer offset of those bytes.
        self._tape_ids: dict[int, int] = {}
        self._tape_objs: list[LeafOracle | None] = []
        self._free_tapes: list[int] = []
        self._tape_bits: list[bytes] = []
        self._tape_refs = np.zeros(0, np.intp)
        self._tape_owned = np.zeros(0, bool)
        self._clock = np.zeros(0, np.int64)
        self._tape_first = np.zeros(0, np.int64)
        self._tape_end = np.zeros(0, np.int64)
        self._tape_stride = np.zeros(0, np.int64)
        self._tape_base = np.zeros(0, np.int64)
        self._tape_offset = np.zeros(0, np.int64)
        self._tape_buffer = np.zeros(0, np.uint8)
        self._tape_built = 0  # the buffer's size when last rebuilt whole
        # The live tape indices, and those whose round another clock holds.
        self._live_tapes: tuple[np.ndarray, list[int]] | None = None
        # The stream costs the item-cost array was read from, and the array.
        self._item_costs: tuple[Mapping[str, float], np.ndarray] | None = None
        # The last round, per evaluated probe in step order: its rank in
        # (position, step) order, step and position, then per step the global
        # leaf indices and values (joined only when read back).
        self._evaluated: (
            tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray], list[np.ndarray]] | None
        ) = None
        self._query_cost: list[float] = []
        if trees is None:
            return
        if schedules is None or oracles is None or schedules.keys() != trees.keys():
            raise StreamError(
                f"schedules name {sorted(schedules or ())!r}, the trees {sorted(trees)!r}"
            )
        for name, tree in trees.items():
            self.append(name, tree, schedules[name], oracles[name])
        self.prepare()

    # -- population -----------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """The residents' names in registration order."""
        if self._names is None:
            specs = self._specs
            self._names = tuple(specs[slot][0] for slot in self.order.tolist())  # type: ignore[index]
        return self._names

    @property
    def order(self) -> np.ndarray:
        """The live slots in registration order."""
        if self._order is None:
            live = np.flatnonzero(self._position >= 0)
            order = np.empty(live.size, np.intp)
            order[self._position[live]] = live
            self._order = order
        return self._order

    @property
    def gindex(self) -> np.ndarray:
        """Per written slot, its schedule's global leaf indices (``[slots, width]``)."""
        return self._gindex[:, : self._flushed].T

    @property
    def length(self) -> np.ndarray:
        """Per slot, its schedule length (0 for a dead slot)."""
        return self._length

    def __len__(self) -> int:
        return len(self._slot_of)

    def append(
        self, name: str, tree: DnfTree, schedule: Schedule, oracle: LeafOracle
    ) -> None:
        """Add a resident in the last place of registration order.

        ``schedule`` must probe every leaf of ``tree`` exactly once (else
        :class:`~repro.errors.InvalidScheduleError`). The row is written at
        the next :meth:`prepare` (every :meth:`run` begins with one),
        together with every other arrival since.
        """
        if name in self._slot_of:
            raise StreamError(f"the round program already holds {name!r}")
        spec = (name, tree, validate_schedule(tree, schedule), oracle)
        slot = len(self._specs)
        self._specs.append(spec)
        self._slot_of[name] = slot
        if slot >= self._position.size:
            capacity = max(2 * self._position.size, 8)
            self._length = _grown(self._length, capacity, 0)
            self._position = _grown(self._position, capacity, -1)
            self._n_ands = _grown(self._n_ands, capacity, 0)
            self._tape = _grown(self._tape, capacity, -1)
        self._position[slot] = len(self._slot_of) - 1
        self._order = None
        self._names = None

    def remove(self, name: str) -> None:
        """Tombstone ``name``'s row; later residents move up one place."""
        slot = self._slot_of.pop(name)
        spec = self._specs[slot]
        assert spec is not None
        self._specs[slot] = None
        position = self._position[slot]
        self._position[slot] = -1
        self._position[self._position > position] -= 1
        self._dead += 1
        self._order = None
        self._names = None
        if slot < self._flushed:
            self._length[slot] = 0
            self._release_oracle(slot, spec[3])

    def reorder(self, names: Sequence[str]) -> None:
        """Re-key registration order to ``names``, a permutation of the residents."""
        slot_of = self._slot_of
        self._position[np.fromiter((slot_of[name] for name in names), np.intp, len(names))] = (
            np.arange(len(names))
        )
        self._order = None
        self._names = None

    def reschedule(self, name: str, schedule: Schedule) -> None:
        """Rewrite ``name``'s row for a new schedule of the same tree
        (a permutation of its leaves, as :meth:`append` checks)."""
        slot = self._slot_of[name]
        spec = self._specs[slot]
        assert spec is not None
        spec = self._specs[slot] = (spec[0], spec[1], validate_schedule(spec[1], schedule), spec[3])
        if slot < self._flushed:
            self._write(slot, slot + 1, [spec])

    def prepare(self) -> None:
        """Write every pending arrival's row, one array conversion per field;
        compact once half the rows are dead."""
        start, stop = self._flushed, len(self._specs)
        if start < stop:
            self._write(start, stop, self._specs[start:stop])
            self._flushed = stop
        if self._dead and 2 * self._dead >= stop:
            self._compact()

    def _compact(self) -> None:
        """Move the live rows to the front, in slot order: one gather per array.

        Positions alone carry registration order, so the slot order is free
        to keep. Tape indices, and with them the clocks, stay where they are.
        """
        keep = np.flatnonzero(self._position >= 0)
        n = keep.size
        for rows in (self._gindex, self._stream, self._items, self._and):
            rows[:, :n] = rows[:, keep]
        self._and_size[:n] = self._and_size[keep]
        for per_slot, fill in (
            (self._length, 0),
            (self._position, -1),
            (self._n_ands, 0),
            (self._tape, -1),
        ):
            per_slot[:n] = per_slot[keep]
            per_slot[n:] = fill
        slots = keep.tolist()
        self._specs = list(map(self._specs.__getitem__, slots))
        self._calls = list(map(self._calls.__getitem__, slots))
        self._slot_of = dict(zip(map(_name_of, self._specs), range(n)))
        self._flushed = n
        self._dead = 0
        self._order = None

    def _write(self, start: int, stop: int, specs: list[_Spec | None]) -> None:
        """Write the rows of slots ``[start, stop)``.

        Every step's leaf index, stream, window and AND go into one array,
        and every AND's leaf count into another, each scattered into a
        padded block once. A slot whose resident left before its row was
        written gets an empty row.
        """
        lengths: list[int] = []
        n_ands: list[int] = []
        tapes: list[int] = []
        width, most = self._gindex.shape[0], self._and_size.shape[1]
        # Per step: its step and row, global leaf index, stream, window and AND.
        cells: list[tuple[int, int, int, int, int, int]] = []
        # Per AND: its row, index and leaf count.
        sizes: list[tuple[int, int, int]] = []
        stream_ids = self._stream_ids
        # Room for one new tape per row: holding an oracle grows nothing.
        tapes_at_most = len(self._tape_objs) + max(0, len(specs) - len(self._free_tapes))
        if tapes_at_most > self._clock.size:
            self._grow_tapes(max(2 * self._clock.size, tapes_at_most))
        for row, spec in enumerate(specs):
            slot = start + row
            if spec is None:
                lengths.append(0)
                n_ands.append(0)
                tapes.append(-1)
                self._calls.append(None)
                continue
            _, tree, schedule, oracle = spec
            leaves, ref = tree.leaves, tree.ref
            for step, g in enumerate(schedule):
                leaf = leaves[g]
                sid = stream_ids.get(leaf.stream)
                if sid is None:
                    sid = stream_ids[leaf.stream] = len(self._streams)
                    self._streams.append(leaf.stream)
                cells.append((step, row, g, sid, leaf.items, ref(g)[0]))
            sizes.extend((row, i, len(group)) for i, group in enumerate(tree.ands))
            lengths.append(len(schedule))
            n_ands.append(len(tree.ands))
            if slot < len(self._calls):
                self._release_oracle(slot, oracle)
            tape = self._hold_oracle(oracle, len(leaves))
            call = None
            if tape < 0:
                call = (tuple(leaves[g] for g in schedule), oracle.reads_window)
            if slot < len(self._calls):
                self._calls[slot] = call
            else:
                self._calls.append(call)
            tapes.append(tape)
            width = max(width, len(schedule))
            most = max(most, len(tree.ands))
        capacity = self._position.size
        if self._gindex.shape != (width, capacity) or self._and_size.shape != (capacity, most):
            self._gindex = _grown(self._gindex, (width, capacity), 0)
            self._stream = _grown(self._stream, (width, capacity), 0)
            self._items = _grown(self._items, (width, capacity), 0)
            self._and = _grown(self._and, (width, capacity), 0)
            self._and_size = _grown(self._and_size, (capacity, most), 0)
        # [fields, width, rows]: global leaf index, stream, window, AND.
        block = np.zeros((4, width, stop - start), np.intp)
        if cells:
            steps = np.array(cells, np.intp)
            block[:, steps[:, 0], steps[:, 1]] = steps[:, 2:].T
        self._gindex[:, start:stop] = block[0]
        self._stream[:, start:stop] = block[1]
        self._items[:, start:stop] = block[2]
        self._and[:, start:stop] = block[3]
        and_sizes = np.zeros((stop - start, most), np.intp)
        if sizes:
            ands = np.array(sizes, np.intp)
            and_sizes[ands[:, 0], ands[:, 1]] = ands[:, 2]
        self._and_size[start:stop] = and_sizes
        self._length[start:stop] = lengths
        self._n_ands[start:stop] = n_ands
        self._tape[start:stop] = tapes

    # -- oracles --------------------------------------------------------

    def _hold_oracle(self, oracle: LeafOracle, n_leaves: int) -> int:
        """The tape index of a new row's oracle, or -1 to call it per probe.

        An oracle with a round clock gets a tape index and, with its first
        row, the clock: its round moves into :attr:`_clock`, unless another
        program's clock already holds it. One whose tape is narrower than
        the row's tree is still called per probe, but its clock ticks here.
        """
        width = oracle.tape_width()
        if width is None:
            self._n_called += 1
            return -1
        tape = self._tape_ids.get(id(oracle))
        if tape is None:
            if self._free_tapes:
                tape = self._free_tapes.pop()
                self._tape_objs[tape] = oracle
            else:
                tape = len(self._tape_objs)
                self._tape_objs.append(oracle)
                self._tape_bits.append(b"")
            self._tape_ids[id(oracle)] = tape
        refs = self._tape_refs[tape] + 1
        self._tape_refs[tape] = refs
        if refs == 1:
            self._live_tapes = None
            owned = self._tape_owned[tape] = not oracle.clock_bound
            if owned:
                oracle.bind_clock(self._clock, tape)
        if width < n_leaves:
            self._n_called += 1
            return -1
        return tape

    def _release_oracle(self, slot: int, oracle: LeafOracle) -> None:
        """Drop a row's hold on its oracle: a tape nobody reads is not drawn,
        a clock nobody holds moves its round back into its oracle, and the
        tape index goes on the free list."""
        if self._tape[slot] < 0:
            self._n_called -= 1
        tape = self._tape_ids.get(id(oracle))
        if tape is None:
            return
        refs = self._tape_refs[tape] - 1
        self._tape_refs[tape] = refs
        if not refs:
            self._live_tapes = None
            self._tape_bits[tape] = b""
            self._tape_end[tape] = self._tape_first[tape] = 0
            if self._tape_owned[tape]:
                oracle.bind_clock(None)
            del self._tape_ids[id(oracle)]
            self._tape_objs[tape] = None
            self._free_tapes.append(tape)

    def _grow_tapes(self, size: int) -> None:
        """Grow the per-tape arrays to ``size`` and rebind the held clocks.

        Grown zeroed: an empty range, so a new tape's first round asks the
        oracle for it.
        """
        self._tape_refs = _grown(self._tape_refs, size, 0)
        self._tape_owned = _grown(self._tape_owned, size, False)
        self._clock = _grown(self._clock, size, 0)
        self._tape_first = _grown(self._tape_first, size, 0)
        self._tape_end = _grown(self._tape_end, size, 0)
        self._tape_stride = _grown(self._tape_stride, size, 0)
        self._tape_base = _grown(self._tape_base, size, 0)
        self._tape_offset = _grown(self._tape_offset, size, 0)
        objs = self._tape_objs
        for tape in np.flatnonzero((self._tape_refs > 0) & self._tape_owned).tolist():
            objs[tape].bind_clock(self._clock, tape)  # type: ignore[union-attr]

    def _live(self) -> tuple[np.ndarray, list[int]]:
        """The held tape indices, and those whose round another clock holds."""
        if self._live_tapes is None:
            live = np.flatnonzero(self._tape_refs)
            self._live_tapes = (live, live[~self._tape_owned[live]].tolist())
        return self._live_tapes

    def tick(self) -> None:
        """Move every held oracle clock forward one round.

        The clocks this program holds tick in one add; an oracle whose round
        another program's clock holds is advanced through its own call.
        """
        self._clock += 1
        objs = self._tape_objs
        for tape in self._live()[1]:
            objs[tape].advance(1)  # type: ignore[union-attr]

    def _tape_offsets(self) -> np.ndarray:
        """Per tape index, where the current round's outcomes start in the buffer.

        The rounds are one gather from the clock array. An oracle whose
        round left the range its last tape covers hands over its tape again
        (drawing a new block when its own position needs one). New tapes
        are appended to the buffer, which is rebuilt whole from the live
        tapes once it would pass twice its last whole size.
        """
        live, foreign = self._live()
        if not live.size:
            return self._tape_offset
        clock = self._clock
        if foreign:
            objs = self._tape_objs
            clock[foreign] = [_round_of(objs[tape]) for tape in foreign]
        now = clock[live]
        first = self._tape_first[live]
        stale = ((now < first) | (now >= self._tape_end[live])).nonzero()[0]
        if stale.size:
            tapes = live[stale]
            handed, firsts, ends, strides = [], [], [], []
            for tape in tapes.tolist():
                bits, start, end, stride = self._tape_objs[tape].tape()  # type: ignore[union-attr]
                self._tape_bits[tape] = bits
                handed.append(bits)
                firsts.append(start)
                ends.append(end)
                strides.append(stride)
            self._tape_first[tapes] = firsts
            self._tape_end[tapes] = ends
            self._tape_stride[tapes] = strides
            sizes = np.fromiter(map(len, handed), np.int64, len(handed))
            buffer = self._tape_buffer
            if buffer.size + sizes.sum() <= 2 * self._tape_built:
                # Append the new tapes; the bytes they replace stay behind
                # until the buffer doubles and is rebuilt.
                self._tape_base[tapes] = buffer.size + np.cumsum(sizes) - sizes
                handed_values = FALSE - np.frombuffer(b"".join(handed), np.uint8)
                self._tape_buffer = np.concatenate((buffer, handed_values))
            else:
                # As node values: TRUE is 1 and FALSE 2, so an outcome byte
                # of 1 gives 1 and 0 gives 2.
                every = self._tape_bits
                self._tape_buffer = FALSE - np.frombuffer(b"".join(every), np.uint8)
                self._tape_built = self._tape_buffer.size
                sizes = np.fromiter(map(len, every), np.int64, len(every))
                self._tape_base[: sizes.size] = np.cumsum(sizes) - sizes
            first = self._tape_first[live]
        self._tape_offset[live] = self._tape_base[live] + (now - first) * self._tape_stride[live]
        return self._tape_offset

    # -- rounds ---------------------------------------------------------

    def run(self, cache: Union[DataItemCache, CountingCache]) -> RoundStats:
        """Execute one round with per-query early termination.

        Step *k* of every live row runs at once, with one counter per AND
        and one per root. An AND counts down the TRUE leaves it still
        needs, and a FALSE leaf closes it at once; the root counts down the
        FALSE ANDs it still needs, and a TRUE AND closes it at once. A
        probe whose AND closed is skipped for free, and a row leaves the
        walk once its root closes. Per query, the round means exactly what
        running it through :class:`~repro.engine.executor.ScheduleExecutor`
        means (see :meth:`results`). Only the probes that widen their
        stream's window this round fetch anything: every other probe's
        window is cached (nothing evicts mid-round), so its fetch would
        charge 0.0, and adding 0.0 to a sum begun at 0.0 changes no bit.
        Each touched stream's widening windows go to the cache's
        ``fetch_widening`` in one call, which returns the items each
        fetched; their costs (items times the stream's item cost) are then
        added to the queries' costs and to the cache's ``charged`` in
        registration order.
        """
        self.prepare()
        order = self.order
        gindexes, ands = self._gindex, self._and
        most = self._and_size.shape[1]
        # Per (slot, AND) cell, flat: the TRUE leaves the AND still needs,
        # 0 once it holds and -1 once a leaf failed it. Per slot: the FALSE
        # ANDs its root still needs, 0 once it fails and -1 once an AND
        # holds it. Either is open while positive.
        left = self._and_size.flatten()
        root = self._root_left = self._n_ands.copy()
        called = self._n_called > 0
        taped = self._n_called < order.size
        if taped:
            # Per slot, where its oracle's tape row for this round starts
            # (for a slot whose oracle is called per probe, an unused number).
            starts = self._tape_offsets()[self._tape]
            buffer = self._tape_buffer
        step_slots: list[np.ndarray] = []
        step_values: list[np.ndarray] = []
        step_gindex: list[np.ndarray] = []
        peeks: dict[int, tuple[int, np.ndarray | None]] = {}
        live = order
        for k in range(gindexes.shape[0]):
            if not live.size:
                break
            rows = live
            cell = live * most + ands[k][live]
            if k:
                # A permutation probes no leaf twice, so a probe is skipped
                # only when an earlier step closed its AND.
                open_ = left[cell] > 0
                rows = live[open_]
                cell = cell[open_]
            gindex = gindexes[k][rows]
            if not called:
                values = buffer[starts[rows] + gindex]
            elif not taped:
                values = self._call_oracles(k, rows, gindex, cache, peeks)
            else:
                at = self._tape[rows] < 0
                values = np.empty(rows.size, np.uint8)
                values[at] = self._call_oracles(k, rows[at], gindex[at], cache, peeks)
                at = ~at
                values[at] = buffer[starts[rows[at]] + gindex[at]]
            step_slots.append(rows)
            step_values.append(values)
            step_gindex.append(gindex)
            # Each row probes one leaf per step, so no two probes of a step
            # share a counter.
            held = values == TRUE
            after = np.where(held, left[cell] - 1, -1)
            left[cell] = after
            closed = (after <= 0).nonzero()[0]
            if not closed.size:
                continue
            slots = rows[closed]
            after = np.where(held[closed], -1, root[slots] - 1)
            root[slots] = after
            if (after <= 0).any():
                # A full schedule closes its root by its last step, so no
                # live row reaches a padded step.
                live = live[root[live] > 0]
        return self._charge(cache, order.size, step_slots, step_values, step_gindex)

    def _call_oracles(
        self,
        k: int,
        slots: np.ndarray,
        gindex: np.ndarray,
        cache: Union[DataItemCache, CountingCache],
        peeks: dict[int, tuple[int, np.ndarray | None]],
    ) -> np.ndarray:
        """Step ``k``'s values of ``slots``, whose oracles are called per probe.

        In registration order; an oracle that reads windows gets one from
        the round's uncharged peek of the stream's widest window asked for
        so far.
        """
        specs = self._specs
        calls = self._calls
        values = []
        windows: tuple[list[int], list[int]] | None = None
        for at, (slot, g) in enumerate(zip(slots.tolist(), gindex.tolist())):
            leaves, reads_window = calls[slot]  # type: ignore[misc]
            window = None
            if reads_window:
                if windows is None:
                    windows = self._stream[k][slots].tolist(), self._items[k][slots].tolist()
                stream, count = windows[0][at], windows[1][at]
                peek = peeks.get(stream)
                if peek is not None and count <= peek[0]:
                    size, window = peek
                    if window is not None and count < size:
                        window = window[size - count :]
                else:
                    window = cache.peek_window(self._streams[stream], count)
                    if window is not None:
                        # Later probes share this array: an oracle must not
                        # write to it.
                        window.flags.writeable = False
                    peeks[stream] = (count, window)
            outcome = specs[slot][3].outcome(g, leaves[k], window)  # type: ignore[index]
            values.append(TRUE if outcome else FALSE)
        return np.array(values, np.uint8)

    def _charge(
        self,
        cache: Union[DataItemCache, CountingCache],
        n: int,
        step_slots: list[np.ndarray],
        step_values: list[np.ndarray],
        step_gindex: list[np.ndarray],
    ) -> RoundStats:
        """Charge the round's evaluated probes in (position, step) order."""
        query_cost = self._query_cost = [0.0] * n
        if not step_slots:
            none = np.zeros(0, np.intp)
            self._evaluated = (none, none, none, [none], [none.astype(np.uint8)])
            return RoundStats(query_cost=query_cost, query_probes=[0] * n)
        slots = np.concatenate(step_slots)
        steps = np.repeat(np.arange(len(step_slots)), [s.size for s in step_slots])
        positions = self._position[slots]
        # Unique per probe and increasing in (position, step).
        ranks = positions * len(step_slots) + steps
        self._evaluated = (ranks, steps, positions, step_gindex, step_values)
        # The probes' places in the [width, capacity] row arrays.
        cells = steps * self._stream.shape[1] + slots
        streams = self._stream.take(cells)
        items = self._items.take(cells)
        # Per stream, the widest window asked for before each probe: sort by
        # (stream, position, step), take one running maximum over keys that
        # put a later stream's above any earlier stream's, and shift it by
        # one. Only the probes that widen their stream's window fetch.
        by_stream = np.argsort(streams * (n * len(step_slots)) + ranks)
        keys = ((streams << 32) | items)[by_stream]
        widest = np.maximum.accumulate(keys)
        widens = np.empty(keys.size, bool)
        widens[0] = True
        widens[1:] = keys[1:] > widest[:-1]
        # The widening probes, by stream and in (position, step) order within
        # one: each stream's windows go to the cache in one call.
        widening = by_stream[widens]
        touched = streams[widening]
        bounds = (touched[1:] != touched[:-1]).nonzero()[0] + 1
        firsts = [0, *bounds.tolist()]
        counts = items[widening].tolist()
        fetch = cache.fetch_widening
        names = self._streams
        fetched_items: list[int] = []
        for stream, start, stop in zip(
            touched[firsts].tolist(), firsts, [*firsts[1:], len(counts)]
        ):
            fetched_items.extend(fetch(names[stream], counts[start:stop]))
        fetched = np.array(fetched_items, np.int64)
        costs = fetched * self._item_cost_array(cache)[touched]
        # Charge the windows that fetched anything in (position, step) order
        # (adding 0.0 to a non-negative sum changes no bit).
        paid = np.argsort(ranks[widening])
        paid = paid[fetched[paid] > 0]
        charged = cache.charged
        for position, cost in zip(positions[widening[paid]].tolist(), costs[paid].tolist()):
            query_cost[position] += cost
            charged += cost
        cache.charged = charged
        items_fetched = int(fetched.sum())
        return RoundStats(
            probes=slots.size,
            free_probes=slots.size - paid.size,
            items_fetched=items_fetched,
            items_saved=int(items.sum()) - items_fetched,
            query_cost=query_cost,
            query_probes=np.bincount(positions, minlength=n).tolist(),
        )

    def _item_cost_array(self, cache: Union[DataItemCache, CountingCache]) -> np.ndarray:
        """Per stream id, the cache's cost of one item (0.0 for one it lacks)."""
        known = self._item_costs
        if known is None or known[0] is not cache.costs or known[1].size < len(self._streams):
            table = cache.costs
            known = self._item_costs = (
                table,
                np.array([table.get(name, 0.0) for name in self._streams], np.float64),
            )
        return known[1]

    # -- reading the last round back -------------------------------------

    def values(self) -> list[bool]:
        """Every query's root value in the last round, in registration order."""
        roots = self._root_left[self.order]
        assert (roots <= 0).all(), "a full schedule always resolves the root"
        return (roots < 0).tolist()

    def evaluated(self) -> tuple[list[int], list[int], list[bool]]:
        """The last round's evaluated probes in (position, step) order: each
        one's query position, global leaf index and outcome."""
        _, positions, gindexes, outcomes = self._ranked()
        return positions, gindexes, outcomes

    def _ranked(self) -> tuple[list[int], list[int], list[int], list[bool]]:
        """The last round's evaluated probes in (position, step) order: steps,
        positions, global leaf indices and outcomes."""
        assert self._evaluated is not None, "no round has run"
        ranks, steps, positions, step_gindex, step_values = self._evaluated
        ranked = np.argsort(ranks)
        gindex, values = np.concatenate(step_gindex), np.concatenate(step_values)
        return (
            steps[ranked].tolist(),
            positions[ranked].tolist(),
            gindex[ranked].tolist(),
            (values[ranked] == TRUE).tolist(),
        )

    def results(self) -> dict[str, ExecutionResult]:
        """Every query's :class:`ExecutionResult` of the last round, in
        registration order.

        Each has exactly the semantics of running that query's schedule
        alone through :class:`~repro.engine.executor.ScheduleExecutor`.
        """
        steps, positions, gindexes, outcomes = self._ranked()
        per_query: list[list[tuple[int, int, bool]]] = [[] for _ in self.names]
        for position, step, g, outcome in zip(positions, steps, gindexes, outcomes):
            per_query[position].append((step, g, outcome))
        results: dict[str, ExecutionResult] = {}
        for name, value, cost, probes in zip(
            self.names, self.values(), self._query_cost, per_query
        ):
            schedule = self._specs[self._slot_of[name]][2]  # type: ignore[index]
            ran = {step for step, _, _ in probes}
            results[name] = ExecutionResult(
                value=value,
                cost=cost,
                evaluated=tuple(g for _, g, _ in probes),
                skipped=tuple(g for step, g in enumerate(schedule) if step not in ran),
                outcomes={g: outcome for _, g, outcome in probes},
            )
        return results
