"""Entry-wise greedy generation of the unique 0/1 matrix with row weight k,
column weight r, and no column pair repeated across rows.

Columns and rows are 1-based on every public surface.  A column j joins the
row under construction exactly when (a) it is not already paired with a
column placed earlier in this row, (b) the row still has fewer than k
columns, and (c) j appears in fewer than r earlier rows.  Scanning columns
in ascending order makes each emitted row the lexicographically least
admissible k-set: an admissible partial row can always be finished with
fresh columns, which have degree zero and no pair history.  Rows leave no
gaps, so the fresh columns are exactly those above the largest one used,
and the generator stores nothing for them.

The generator's state is relative to the frontier: `base`, the lowest
column whose degree is still below r.  Every column under base is saturated
and can never be placed again, so no mask needs a bit for it.  Every list
and mask shares one offset, at most base: slot i and bit i stand for column
offset + i, so the scan reads a pair mask as stored and the commit ORs the
row's mask straight in.  A pair mask is closed: each row ORs all its
columns into the mask of each, so the mask holds the column's own bit
beside its partners'.  A fresh column's mask is the row's, so the fresh
columns of a row share that one int rather than a copy each.  Placing a
column clears it and its partners from the candidates with one AND and
one XOR of nonnegative ints.  A row starts at base with no search:
whenever a used column is unsaturated, base is the lowest one.  Base
leads every row until it saturates, so rows are made one base at a time:
its candidates, the active columns it is not paired with, are computed
once for its remaining rows, and each row scans only its other k - 1
columns from them.  Building a row therefore costs a handful of big-int
operations on masks as wide as the frontier, not as wide as the largest
column.

The per-column state follows the frontier too.  The commit that retires
columns zeroes their masks, and once the retired prefix is at least as long
as the kept part it deletes the prefix and shifts the kept masks down to
base in one pass: an amortised O(1) mask operation per retired column.  A
run therefore holds at most about two frontiers of mask slots, however many
rows it emits: one row's k masks of k bits at r = 1, and the masks of the
unsaturated used columns, up to v - 1 of them, for the lines of PG(n, q).
A shift drops the partners below the offset, so connectable_mask reports
the partners above the floor only.

Rows come from one generator frame that holds the state in locals and
writes back what each row changed: next_row resumes it, and peek_next_row
runs one step of a frame of its own on a copy of the state, so the scan and
the commit are written once.

The rows are periodic.  A complete column is never placed again, so once a
row leaves every used column complete the greedy rule sees only fresh
columns, as before row 1: the rows so far, block 0, repeat shifted by
max_used_column, and so does each block after.  generate records block 0
while it yields it and replays it from there, so a run that asks for more
rows than block 0 has builds only block 0.  Block 0 ends at
max_used_column * r points, and its record never holds more, so it is kept
while that product is at most _BLOCK_POINTS (4 bytes a point, 256 KB); a
longer block 0 is dropped at the first row past the bound, and its run is
plain next_row calls.  A short block 0 is replayed in runs of consecutive
blocks, up to _RUN_POINTS columns (16 KB), so the replay sets up once a
run, not once a block: at r = 1, a block is a row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, count, islice

from .errors import InputRangeError, InvalidParameterError

_K_CAP = 1 << 15  # a run holds about one frontier of masks: k^2/8 bytes at r = 1
_BLOCK_POINTS = 1 << 16  # the most points of block 0 that generate records for its replay
_RUN_POINTS = 1 << 12  # the most points of the run of shifted blocks 0 that the replay repeats


class GenParams(namedtuple("GenParams", "k r max_rows")):
    """Generation request: row weight k, column weight r, row count."""

    __slots__ = ()

    def __new__(cls, k: int, r: int, max_rows: int):
        if k < 2:
            raise InvalidParameterError(f"k must be at least 2, got {k}")
        if r < 1:
            raise InvalidParameterError(f"r must be at least 1, got {r}")
        if max_rows < 1:
            raise InvalidParameterError(f"max_rows must be at least 1, got {max_rows}")
        if max_rows >> 63:  # generate hands the rows left to islice, which stops at 2^63 - 1
            raise InputRangeError("max_rows must be at most 2^63 - 1")
        if k > _K_CAP:
            raise InvalidParameterError(f"k must be at most {_K_CAP}, got {k}")
        return super().__new__(cls, k, r, max_rows)


class Row(namedtuple("Row", "index points")):
    """One emitted row: its 1-based index and strictly increasing column set.

    Only NaiveMatrixGenerator.rows builds these; generation itself deals in
    point tuples.
    """

    __slots__ = ()


class NaiveMatrixGenerator:
    """Streams rows of the greedy matrix while tracking column state.

    `floor` is the length of the saturated prefix: columns 1..floor are
    complete and column floor + 1, base, is not.  So the generator is at a
    reset, every used column complete, exactly when floor ==
    max_used_column.  The per-column lists and every mask share one
    offset, at most base: index i and bit i stand for column offset + i,
    from the offset to max_used_column.  State per kept
    column: its degree and its closed pair mask, the column itself and
    every column it shares a row with.  `_active` marks the used columns
    whose degree is below r; its lowest bit, when it has one, is base,
    where the scan starts.  The commit that moves the floor zeroes the
    masks of the columns it retires; once the retired prefix is at least
    as long as the kept part, it deletes the prefix and shifts the kept
    masks and `_active` down in one pass, so the offset becomes base.  A
    row that runs out of active candidates is finished with the fresh
    columns from max_used_column + 1.  connectable_mask answers in
    absolute column numbers.

    Rows come from one frame, `_frame` (see _rows): it holds the state in
    locals and writes back what a row changed before it hands the row out.
    No row history is kept: next_row hands each row to the caller, and
    `emitted` counts them.
    """

    # _frame is kept out of the __dict__ that the frame holds, so they form no cycle
    __slots__ = ("__dict__", "_frame")

    def __init__(self, params: GenParams):
        self.params = params
        self._k, self._r, self._max_rows = params  # read by the frame and next_row
        self.emitted = 0
        self.max_used_column = 0
        self.floor = 0  # columns 1..floor are retired
        self._offset = 1  # index i and bit i stand for column _offset + i
        self._degree: list[int] = []
        self._pair: list[int] = []
        self._active = 0
        self._frame = _rows(self.__dict__)

    def next_row(self) -> tuple[int, ...]:
        """Commit the next row and return its columns, in ascending order."""
        for row in self._frame:
            return row
        raise InvalidParameterError(f"all {self._max_rows} requested rows already emitted")

    def peek_next_row(self) -> tuple[int, ...]:
        """Columns the next row will use, without committing it: one step
        of the row frame on a copy of the state, which leaves this one as
        it is."""
        twin = object.__new__(NaiveMatrixGenerator)
        twin.__dict__.update(self.__dict__, _degree=self._degree.copy(), _pair=self._pair.copy())
        twin._frame = _rows(twin.__dict__)
        return twin.next_row()

    @property
    def rows(self) -> list[Row]:
        """The rows emitted so far, regenerated from params on every read:
        kept for perfbench/trace_worker.py, which reads `rows[i].points`,
        until the benchmark reads the reports' own counters."""
        again = NaiveMatrixGenerator(self.params)
        return [Row(i, again.next_row()) for i in range(1, self.emitted + 1)]

    def connectable_mask(self, x: int) -> int:
        """Bitmask of the columns above the floor that share an emitted row
        with x (bit y for column y); 0 for the retired columns up to the
        floor.  A bulk shift drops the partners below the floor, so they
        are left out for every column."""
        if x < 1:
            raise InputRangeError(f"columns are 1-based, got {x}")
        if x <= self.floor or x > self.max_used_column:  # retired, or fresh
            return 0
        base, offset = self.floor + 1, self._offset
        # the stored mask holds x itself
        return (self._pair[x - offset] >> (base - offset) << base) ^ (1 << x)


def _rows(state: dict) -> Iterator[tuple[int, ...]]:
    """The frame that makes every row of a NaiveMatrixGenerator, up to row
    max_rows: it reads the generator's attributes from `state`, its
    __dict__, at the first resume, keeps them in locals, and writes back
    what each row changed before yielding the row.  It holds the __dict__,
    not the generator, so the two form no reference cycle.

    It runs one base at a time.  The base leads each row until it
    saturates, its remaining r - degree rows, and the rest of each row
    come from cands, the active columns it is not paired with: computed
    once a run, less each row's placed columns.  A row placed at a reset,
    with no active column, is all fresh and a run of its own."""
    k, r = state["_k"], state["_r"]
    degree, pair = state["_degree"], state["_pair"]  # changed in place
    active, floor, offset, top = state["_active"], state["floor"], state["_offset"], state["max_used_column"]
    emitted, last = state["emitted"], state["_max_rows"]
    while emitted < last:
        if active:  # the base is the lowest active column, and leads the row
            low = active & -active
            b = low.bit_length() - 1  # the base's slot
            # the closed mask clears the base and its partners
            lead, cands, run = [offset + b], active ^ (active & pair[b]), r - degree[b]
        else:  # a reset: one row of fresh columns, the first of them the base
            low, b, lead, cands, run = 0, top + 1 - offset, [], 0, 1
        for emitted in range(emitted + 1, min(emitted + run, last) + 1):
            old = placed = lead[:]  # the row's columns used before it, and the row
            cand, scanned = cands, 0  # bit i stands for column offset + i
            while cand:
                bit = cand & -cand
                scanned |= bit
                i = bit.bit_length() - 1
                placed.append(offset + i)
                if len(placed) == k:
                    row_bits = scanned | low
                    break
                cand ^= cand & pair[i]
            else:  # finish with fresh columns, consecutive from top + 1
                fresh = k - len(placed)
                placed = old + list(range(top + 1, top + 1 + fresh))
                bits = ((1 << fresh) - 1) << (top + 1 - offset)
                row_bits = scanned | low | bits
                if r > 1:  # at r = 1 a fresh column saturates in its first row
                    active |= bits
                degree += [1] * fresh
                pair += [row_bits] * fresh  # one int: a fresh column's partners are its row
                top = state["max_used_column"] = placed[-1]
            cands ^= scanned  # the placed columns are the base's partners now
            for x in old:
                i = x - offset
                pair[i] |= row_bits
                d = degree[i] + 1
                degree[i] = d
                if d == r:
                    active ^= 1 << i  # set since the first placement
            if degree[b] == r:  # the base saturated: the run's last row
                # retire up to the next active column, or every used one
                new = offset + (active & -active).bit_length() - 2 if active else top
                cut = new + 1 - offset  # the retired prefix
                if cut >= top - new:  # no shorter than the kept part: drop it and shift
                    del degree[:cut]
                    pair[:] = [mask >> cut for mask in islice(pair, cut, None)]
                    active >>= cut
                    offset = state["_offset"] = new + 1
                else:
                    pair[floor + 1 - offset:cut] = [0] * (new - floor)
                floor = state["floor"] = new
            state["_active"] = active
            state["emitted"] = emitted
            yield tuple(placed)


def generate(params: GenParams) -> Iterator[tuple[int, ...]]:
    """The first params.max_rows rows, as point tuples, one at a time;
    deterministic for fixed params.  No row is kept for the caller: one
    that needs the rows again stores them itself.

    Block 0 is recorded, flat, while it is yielded.  Once a row leaves
    the generator at its reset, floor == max_used_column, the rows that
    follow are block 0 shifted by max_used_column, then by twice that, and
    so on, so they are yielded from the record with no further next_row.  Only a request for more rows
    than block 0 has replays.  The record is kept while max_used_column * r,
    block 0's length at its end, is at most _BLOCK_POINTS; past that it is
    dropped, and the rest of the stream is plain next_row calls.
    A block 0 under _RUN_POINTS columns is replayed m blocks at a time,
    as many as fit under that bound and are still to come: the record is
    extended once to blocks 0 to m - 1, and run t is the record shifted by
    (1 + t m) max_used_column."""
    from array import array  # an extension module, loaded only by the runs that call generate

    gen = NaiveMatrixGenerator(params)
    k, r, rows = params
    block = array("I")  # 4 bytes hold any column: block 0 uses no more columns than points
    for _ in range(rows):
        row = gen.next_row()
        yield row
        if gen.max_used_column * r > _BLOCK_POINTS:  # block 0 ends at top * r points
            break
        block.extend(row)
        if gen.floor == gen.max_used_column:  # the reset: block 0 ends here
            top, left, size = gen.max_used_column, rows - gen.emitted, len(block)
            del gen  # the replay reads no column state
            # block t is block 0 shifted by t * top
            m = max(1, min(_RUN_POINTS // size, -(-left * k // size)))  # no more than are left
            for t in range(1, m):
                block.extend(map((t * top).__add__, block[:size]))
            runs = (zip(*[map(((1 + t * m) * top).__add__, block)] * k) for t in count())
            yield from islice(chain.from_iterable(runs), left)
            return
    del block
    for _ in range(rows - gen.emitted):
        yield gen.next_row()
