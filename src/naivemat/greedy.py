"""Entry-wise greedy generation of the unique 0/1 matrix with row weight k,
column weight r, and no column pair repeated across rows.

Columns and rows are 1-based on every public surface.  A column j joins the
row under construction exactly when (a) it is not already paired with a
column placed earlier in this row, (b) the row still has fewer than k
columns, and (c) j appears in fewer than r earlier rows.  Scanning columns
in ascending order makes each emitted row the lexicographically least
admissible k-set: an admissible partial row can always be finished with
fresh columns, which have degree zero and no pair history.

The generator's state is relative to the frontier: `base`, the lowest
column whose degree is still below r.  Every column under base is saturated
and can never be placed again, so each mask is stored shifted down by the
length of that saturated prefix.  The mask of unsaturated columns is
shifted by the current prefix, and each column's pair mask by its anchor,
the prefix at the column's first placement: every partner it ever gets lies
above that.  Building a row therefore costs a handful of big-int operations
on masks as wide as the frontier, not as wide as the largest column, and a
column's stored mask spans only its partners.  Before any column saturates
the prefix is empty and every mask is absolute.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InputRangeError, InvalidParameterError, RowIncompleteError

DEFAULT_COLUMN_CAP = 1 << 20
_INITIAL_WINDOW = 64


@dataclass(frozen=True)
class GenParams:
    """Generation request: row weight k, column weight r, row count, safety cap."""

    k: int
    r: int
    max_rows: int
    column_cap: int = DEFAULT_COLUMN_CAP

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameterError(f"k must be at least 2, got {self.k}")
        if self.r < 1:
            raise InvalidParameterError(f"r must be at least 1, got {self.r}")
        if self.max_rows < 1:
            raise InvalidParameterError(f"max_rows must be at least 1, got {self.max_rows}")
        if self.column_cap < self.k:
            raise InvalidParameterError(
                f"column_cap must be at least k={self.k}, got {self.column_cap}")


@dataclass(frozen=True)
class Row:
    """One emitted row: its 1-based index and strictly increasing column set.

    Only NaiveMatrixGenerator.rows builds these; generation itself deals in
    point tuples.
    """

    index: int
    points: tuple[int, ...]


class NaiveMatrixGenerator:
    """Streams rows of the greedy matrix while tracking column state.

    `_floor` is the length of the saturated prefix, so base = floor + 1 is
    the lowest column whose degree is below r.  State per column: its degree
    (rows containing it), its anchor (the floor at its first placement), and
    a bitmask of the columns it already shares a row with, where bit i
    stands for column anchor + i.  `_active` marks the columns above the
    floor whose degree is below r, bit i standing for column floor + i.  The
    window of materialised columns grows on demand by its live width
    (window - floor), up to params.column_cap.  The public queries answer in
    absolute column numbers for every column, saturated ones included.

    No row history is kept: next_row hands each row to the caller, and
    `emitted` counts them.
    """

    def __init__(self, params: GenParams):
        self.params = params
        self.emitted = 0
        self.max_used_column = 0
        w = min(max(_INITIAL_WINDOW, 2 * params.k), params.column_cap)
        self._window = w
        self._floor = 0
        self._degree = [0] * (w + 1)
        self._pair = [0] * (w + 1)
        self._anchor = [0] * (w + 1)
        self._active = ((1 << w) - 1) << 1  # columns 1..w
        self._peeked: tuple[int, ...] | None = None  # next row, until committed

    def _grow_window(self) -> None:
        cap = self.params.column_cap
        if self._window >= cap:
            raise RowIncompleteError(
                f"no admissible column below the cap {cap} while building row {self.emitted + 1}")
        live = self._window - self._floor
        grown = min(max(live, _INITIAL_WINDOW), cap - self._window)
        self._active |= ((1 << grown) - 1) << (live + 1)
        self._degree.extend([0] * grown)
        self._pair.extend([0] * grown)
        self._anchor.extend([0] * grown)
        self._window += grown

    def _scan(self) -> tuple[int, ...]:
        k = self.params.k
        floor, pair, anchor = self._floor, self._pair, self._anchor
        placed: list[int] = []
        cand = self._active
        while True:
            if cand == 0:
                live = self._window - floor
                self._grow_window()  # raises RowIncompleteError at the cap
                cand |= self._active & (-1 << (live + 1))
                continue
            low = cand & -cand
            j = floor + low.bit_length() - 1
            placed.append(j)
            if len(placed) == k:
                return tuple(placed)
            # no bit lies below low, and no pair mask holds its own column,
            # so clearing low leaves exactly the admissible columns above j
            cand &= ~(pair[j] >> (floor - anchor[j]))
            cand ^= low

    def peek_next_row(self) -> tuple[int, ...]:
        """Columns the next row will use, without committing it.

        The row is kept until next_row commits it, so peeking and then
        committing scans once.  May enlarge the internal column window,
        which has no observable effect on generation.
        """
        if self.emitted >= self.params.max_rows:
            raise InvalidParameterError(f"all {self.params.max_rows} requested rows already emitted")
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next_row(self) -> tuple[int, ...]:
        """Commit the next row and return its columns, in ascending order."""
        points = self._peeked or self.peek_next_row()
        self._peeked = None
        r, floor, active = self.params.r, self._floor, self._active
        degree, pair, anchor = self._degree, self._pair, self._anchor
        row_bits = 0  # bit i stands for column floor + i
        for x in points:
            row_bits |= 1 << (x - floor)
            d = degree[x] + 1
            degree[x] = d
            if d == 1:
                anchor[x] = floor
            if d == r:
                active &= ~(1 << (x - floor))
        for x in points:
            pair[x] |= (row_bits ^ (1 << (x - floor))) << (floor - anchor[x])
        self._active = active
        if not active & 2:  # the base column saturated: retire up to the next live one
            shift = (active & -active).bit_length() - 2 if active else self._window - floor
            self._floor = floor + shift
            self._active = active >> shift
        self.emitted += 1
        if points[-1] > self.max_used_column:
            self.max_used_column = points[-1]
        return points

    @property
    def rows(self) -> list[Row]:
        """The rows emitted so far, regenerated from params on every read.

        Kept for callers written against the generator's old row history
        (perfbench/trace_worker.py reads `rows[i].points`) until the
        benchmark reads the reports' own counters (ROADMAP direction 4).
        """
        again = NaiveMatrixGenerator(self.params)
        return [Row(i, again.next_row()) for i in range(1, self.emitted + 1)]

    def column_degree(self, x: int) -> int:
        if x < 1:
            raise InputRangeError(f"columns are 1-based, got {x}")
        return self._degree[x] if x <= self._window else 0

    def is_complete(self, x: int) -> bool:
        """Whether column x has reached degree r in the emitted rows."""
        return self.column_degree(x) >= self.params.r

    def connectable(self, x: int, y: int) -> bool:
        """Whether some emitted row contains both x and y."""
        if x == y:
            raise InvalidParameterError("a column is not connectable to itself")
        if x < 1 or y < 1:
            raise InputRangeError("columns are 1-based")
        if x > self._window or y > self._window:
            return False
        offset = y - self._anchor[x]
        return offset > 0 and bool((self._pair[x] >> offset) & 1)

    def connectable_mask(self, x: int) -> int:
        """Bitmask of all columns sharing an emitted row with x (bit y for column y)."""
        if x < 1:
            raise InputRangeError(f"columns are 1-based, got {x}")
        if x > self._window:
            return 0
        shift = self._anchor[x]
        return self._pair[x] << shift if shift else self._pair[x]  # a shift copies even by 0


def generate(params: GenParams) -> Iterator[tuple[int, ...]]:
    """The first params.max_rows rows, as point tuples, one at a time;
    deterministic for fixed params.  Nothing is kept: a caller that needs
    the rows again stores them itself."""
    gen = NaiveMatrixGenerator(params)
    for _ in range(params.max_rows):
        yield gen.next_row()
