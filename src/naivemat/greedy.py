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
and can never be placed again, so each mask is stored shifted down by the
length of that saturated prefix: the mask of unsaturated columns by the
current prefix, and each column's pair mask by its anchor, the prefix at
the column's first placement, as every partner it ever gets lies above
that.  A pair mask is closed: each row ORs all its columns into the mask of
each, so the mask holds the column's own bit beside its partners', and
placing a column clears it and its partners from the candidates with one
AND and one XOR of nonnegative ints.  connectable_mask clears the own bit,
since a column is not its own partner.  A scan starts at base with no
search: whenever a used column is unsaturated, base is the lowest one.
Building a row therefore costs a handful of big-int operations on masks as
wide as the frontier, not as wide as the largest column.  Before any
column saturates the prefix is empty and every mask is absolute.

The per-column state follows the frontier too: it is kept only for the
columns above the saturated prefix.  The columns a row adds to the prefix
are dropped at the start of the next commit, one row late, so that their
masks can still be read right after the row that completes them.  The
masks are shifted by this dropped prefix, which trails the saturated one
by at most one row.  A run therefore holds about one frontier of masks,
however many rows it emits: one row's k masks of k bits at r = 1, and the
masks of the unsaturated used columns, up to v - 1 of them, for the lines
of PG(n, q).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .errors import InputRangeError, InvalidParameterError

_K_CAP = 1 << 15  # a run holds about one frontier of masks: k^2/8 bytes at r = 1


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

    `_floor` is the length of the saturated prefix, so base = floor + 1 is
    the lowest column whose degree is below r.  `_held` <= floor is the
    length of the prefix whose state is dropped, and the rest of the state
    is relative to it.  The per-column lists hold the columns from `_held`
    to max_used_column, index i standing for column _held + i (slot 0 is a
    retired column whose state is never read).  State per held column: its
    degree, its anchor (the prefix dropped at its first placement), and its
    closed pair mask, bit i standing for column anchor + i: the column
    itself and every column it shares a row with.  `_active` marks the used
    columns whose degree is below r, bit i standing for column _held + i,
    from a column's first use until it saturates; its lowest bit, when it
    has one, is base, where the scan starts.  next_row moves the floor past
    the columns a row saturates, and the next commit starts by dropping
    them, so a commit always runs with _held = floor.  A row that runs out
    of active candidates is finished with the fresh columns from
    max_used_column + 1.  The public queries answer in absolute column
    numbers; connectable_mask leaves out the column's own bit.

    No row history is kept: next_row hands each row to the caller, and
    `emitted` counts them.
    """

    def __init__(self, params: GenParams):
        self.params = params
        # read on every row, where an attribute costs less than a namedtuple field
        self._k, self._r, self._max_rows = params
        self.emitted = 0
        self.max_used_column = 0
        self._floor = 0
        self._held = 0  # columns 1.._held are retired and dropped
        self._degree = [0]
        self._pair = [0]
        self._anchor = [0]
        self._active = 0

    def peek_next_row(self) -> tuple[int, ...]:
        """Columns the next row will use, without committing it: a pure
        lookahead that changes no state."""
        if self.emitted >= self._max_rows:
            raise InvalidParameterError(f"all {self._max_rows} requested rows already emitted")
        k = self._k
        held, pair, anchor = self._held, self._pair, self._anchor
        placed: list[int] = []
        cand = self._active
        i = self._floor + 1 - held  # the base, the lowest active column when any is
        while cand:
            placed.append(held + i)
            if len(placed) == k:
                return tuple(placed)
            # the closed mask clears column i and its partners
            cand ^= cand & (pair[i] >> (held - anchor[i]))
            i = (cand & -cand).bit_length() - 1
        first = self.max_used_column + 1
        return (*placed, *range(first, first + k - len(placed)))

    def next_row(self) -> tuple[int, ...]:
        """Commit the next row and return its columns, in ascending order."""
        points = self.peek_next_row()
        r, floor, active = self._r, self._floor, self._active
        degree, pair, anchor = self._degree, self._pair, self._anchor
        if floor != self._held:  # the last row moved the floor: drop what it retired, one row late
            cut = floor - self._held  # slot 0 becomes column floor
            del degree[:cut], pair[:cut], anchor[:cut]
            active >>= cut
            self._held = floor
        fresh = points[-1] - self.max_used_column
        if fresh > 0:
            zeros = [0] * fresh
            degree += zeros
            pair += zeros
            anchor += zeros
            self.max_used_column = points[-1]
        row_bits = 0  # bit i and index i stand for column floor + i
        for x in points:
            i = x - floor
            bit = 1 << i
            row_bits |= bit
            d = degree[i] + 1
            degree[i] = d
            if d == 1:
                anchor[i] = floor
                active |= bit
            if d == r:
                active ^= bit  # set since the first placement
        for x in points:
            i = x - floor
            shift = floor - anchor[i]  # a shift copies even by 0, a whole frontier wide
            pair[i] |= row_bits << shift if shift else row_bits
        self._active = active
        if not active & 2:  # the base column saturated: retire up to the next live one
            shift = (active & -active).bit_length() - 2 if active else self.max_used_column - floor
            self._floor = floor + shift
        self.emitted += 1
        return points

    @property
    def rows(self) -> list[Row]:
        """The rows emitted so far, regenerated from params on every read:
        kept for perfbench/trace_worker.py, which reads `rows[i].points`,
        until the benchmark reads the reports' own counters."""
        again = NaiveMatrixGenerator(self.params)
        return [Row(i, again.next_row()) for i in range(1, self.emitted + 1)]

    def column_degree(self, x: int) -> int:
        """Rows containing column x: r for every column under the floor."""
        i = x - self._held
        if i < 1:  # dropped, or no column
            if x < 1:
                raise InputRangeError(f"columns are 1-based, got {x}")
            return self._r
        return self._degree[i] if x <= self.max_used_column else 0

    def is_complete(self, x: int) -> bool:
        """Whether column x has reached degree r in the emitted rows."""
        return self.column_degree(x) >= self._r

    def connectable_mask(self, x: int) -> int:
        """Bitmask of all columns sharing an emitted row with x (bit y for
        column y).  Exact for the columns above the floor and those the last
        row retired; 0 for the columns retired before it, whose state is
        dropped."""
        if x < 1:
            raise InputRangeError(f"columns are 1-based, got {x}")
        i = x - self._held
        if i < 1 or x > self.max_used_column:  # dropped, or fresh
            return 0
        return (self._pair[i] << self._anchor[i]) ^ (1 << x)  # the stored mask holds x itself


def generate(params: GenParams) -> Iterator[tuple[int, ...]]:
    """The first params.max_rows rows, as point tuples, one at a time;
    deterministic for fixed params.  Nothing is kept: a caller that needs
    the rows again stores them itself."""
    gen = NaiveMatrixGenerator(params)
    for _ in range(params.max_rows):
        yield gen.next_row()
