"""Greedy generation: streamed rows, family detection, state queries,
and the brute-force lexicographic-minimum oracle."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat.errors import InputRangeError, InvalidParameterError
from naivemat.geometry import expected_counts
from naivemat.greedy import GenParams, NaiveMatrixGenerator, Row, generate

# hand-executed from the three blocking conditions; first row is forced
FANO_ROWS = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def lexmin_admissible_row(prev_rows, k, r, bound):
    """Smallest k-subset of [1, bound] in lexicographic order that keeps the
    pair-once and degree-at-most-r invariants.  Independent of the generator.

    Walks the ascending k-subsets depth first in lexicographic order and
    drops a prefix as soon as it breaks an invariant, since every subset
    extending it breaks it too."""
    deg = {}
    covered = set()
    for row in prev_rows:
        for x in row:
            deg[x] = deg.get(x, 0) + 1
        covered.update(combinations(row, 2))

    def extend(prefix, start):
        if len(prefix) == k:
            return prefix
        for x in range(start, bound + 1):
            if deg.get(x, 0) >= r or any((p, x) in covered for p in prefix):
                continue
            found = extend(prefix + (x,), x + 1)
            if found is not None:
                return found
        return None

    return extend((), 1)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_gen_params_validation():
    with pytest.raises(InvalidParameterError):
        GenParams(k=1, r=1, max_rows=1)
    with pytest.raises(InvalidParameterError):
        GenParams(k=3, r=0, max_rows=1)
    with pytest.raises(InvalidParameterError):
        GenParams(k=3, r=1, max_rows=0)
    with pytest.raises(InvalidParameterError):
        GenParams(k=(1 << 20) + 1, r=1, max_rows=1)
    # one row of weight k holds about k^2/8 bytes of pair masks
    assert GenParams(k=1 << 15, r=1, max_rows=1).k == 1 << 15
    with pytest.raises(InvalidParameterError, match="k must be at most 32768"):
        GenParams(k=(1 << 15) + 1, r=1, max_rows=1)


def test_gen_params_is_an_immutable_value():
    p = GenParams(3, 7, 10)
    assert p == GenParams(k=3, r=7, max_rows=10) == GenParams(3, r=7, max_rows=10)
    assert (p.k, p.r, p.max_rows) == (3, 7, 10)
    assert hash(p) == hash(GenParams(3, 7, 10))
    with pytest.raises(AttributeError):
        p.k = 4
    for args, message in [((1, 1, 1), "k must be at least 2, got 1"),
                          ((3, 0, 1), "r must be at least 1, got 0"),
                          ((3, 1, 0), "max_rows must be at least 1, got 0")]:
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            GenParams(*args)
    with pytest.raises(TypeError):
        GenParams(3, 7)
    assert Row(1, (1, 2, 3)).points == (1, 2, 3)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_fano_rows_exact():
    assert list(generate(GenParams(k=3, r=3, max_rows=7))) == FANO_ROWS


def test_matching_families():
    assert list(generate(GenParams(3, 1, 3))) == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    assert list(generate(GenParams(2, 1, 2))) == [(1, 2), (3, 4)]


def test_next_row_mid_state():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=7))
    for want in FANO_ROWS[:4]:
        assert gen.next_row() == want
    # j=5 pairs freely with 2; 6 is blocked by the pair (2,6); 7 is admissible
    assert gen.peek_next_row() == (2, 5, 7)
    assert gen.next_row() == (2, 5, 7)


def test_peek_does_not_commit():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=7))
    assert gen.peek_next_row() == (1, 2, 3)
    assert gen.peek_next_row() == (1, 2, 3)
    assert gen.emitted == 0
    assert gen.next_row() == (1, 2, 3)


def test_max_rows_is_enforced():
    gen = NaiveMatrixGenerator(GenParams(k=2, r=1, max_rows=1))
    gen.next_row()
    with pytest.raises(InvalidParameterError):
        gen.next_row()


def test_determinism():
    p = GenParams(k=4, r=3, max_rows=20)
    assert list(generate(p)) == list(generate(p))


def test_is_complete_and_connectable():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=7))
    gen.next_row()  # {1,2,3}
    assert not gen.is_complete(1)
    assert gen.connectable_mask(1) >> 2 & 1
    assert not gen.connectable_mask(1) >> 4 & 1
    gen.next_row()  # {1,4,5}
    assert gen.connectable_mask(4) >> 5 & 1
    for _ in range(5):
        gen.next_row()
    assert gen.is_complete(1)      # rows 1, 2, 3 contain point 1
    assert not gen.is_complete(9)  # never used
    assert gen.connectable_mask(4) >> 5 & 1   # row 2 = {1,4,5}; row 7 retired 4
    assert gen.connectable_mask(1) == 0  # retired by row 3, dropped at row 4
    with pytest.raises(InputRangeError):
        gen.connectable_mask(0)


def test_connectable_mask_matches_pairs():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=4))
    rows = [gen.next_row() for _ in range(4)]
    # column 1 saturated at row 3 and was dropped at row 4
    assert gen.column_degree(1) == 3 and gen.connectable_mask(1) == 0
    for x in range(2, 8):
        mask = gen.connectable_mask(x)
        for y in range(1, 10):
            if y != x:
                assert bool((mask >> y) & 1) == any(x in row and y in row for row in rows)


# ---------------------------------------------------------------------------
# invariants and oracle equivalence
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.integers(2, 5), st.integers(1, 5), st.integers(1, 15))
def test_linear_space_and_degree_invariants(k, r, n_rows):
    rows = list(generate(GenParams(k, r, n_rows)))
    deg = {}
    for row in rows:
        assert len(row) == k
        assert list(row) == sorted(set(row))
        for x in row:
            deg[x] = deg.get(x, 0) + 1
    assert all(v <= r for v in deg.values())
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert len(set(rows[i]) & set(rows[j])) <= 1


@pytest.mark.parametrize("k,r", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_element_greedy_equals_lexmin_oracle(k, r):
    rows = list(generate(GenParams(k, r, 10)))
    prev = []
    for row in rows:
        bound = max((p for rr in prev for p in rr), default=0) + k
        assert row == lexmin_admissible_row(prev, k, r, bound)
        prev.append(row)


def test_rows_strictly_lex_increasing():
    rows = list(generate(GenParams(3, 7, 35)))
    assert rows == sorted(rows)


def test_window_growth_past_initial_bound():
    # r=1 saturates every column it places, so each row is a run of fresh
    # columns above the last one used
    rows = list(generate(GenParams(3, 1, 30)))
    assert rows == [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(30)]
    rows = list(generate(GenParams(5, 1, 20)))
    assert rows == [tuple(range(5 * i + 1, 5 * i + 6)) for i in range(20)]


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_state_queries_match_emitted_rows(k, r, n_rows):
    """Every state query agrees with the rows after every row: the degree
    of every column, saturated ones included; the mask of every column
    above the floor the last row started from, and mask 0 for the columns
    under it, which were retired before the last row; connectability for
    every pair that involves a column of the new row, read from both ends
    where the other end is above that floor.  The floor is the length of
    the saturated prefix.  The regenerated `rows` property lists exactly
    the rows emitted."""
    gen = NaiveMatrixGenerator(GenParams(k, r, n_rows))
    deg, partners = {}, {}
    prev = []
    for m in range(n_rows):
        row = gen.next_row()
        # rows leave no gaps: every fresh column is the next one above the largest used
        assert gen.max_used_column <= k * gen.emitted
        if m < 10:
            bound = max((p for rr in prev for p in rr), default=0) + k
            assert row == lexmin_admissible_row(prev, k, r, bound)
        floor = next(x for x in range(1, gen.max_used_column + 2) if deg.get(x, 0) < r) - 1
        row_bits = sum(1 << x for x in row)
        for x in row:
            deg[x] = deg.get(x, 0) + 1
            partners[x] = partners.get(x, 0) | (row_bits ^ (1 << x))
        top = gen.max_used_column + 2
        for x in range(1, top + 1):
            assert gen.column_degree(x) == deg.get(x, 0)
            assert gen.is_complete(x) == (deg.get(x, 0) == r)
            assert gen.connectable_mask(x) == (partners.get(x, 0) if x > floor else 0)
        for x in row:
            for y in range(1, top + 1):
                if y != x:
                    want = partners[x] >> y & 1
                    assert gen.connectable_mask(x) >> y & 1 == want
                    if y > floor:
                        assert gen.connectable_mask(y) >> x & 1 == want
        prev.append(row)
    assert gen.emitted == len(prev)
    assert gen.rows == [Row(i, row) for i, row in enumerate(prev, 1)]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_scan_starts_at_base_and_masks_leave_out_their_column(k, r, n_rows):
    """The scan places base with no search: before every row, the row's
    first column is the lowest used column whose degree is below r, or the
    first fresh column when every used one is saturated.  A stored pair
    mask holds its own column, and connectable_mask never shows it: after
    every row for the columns the row changed, at the end for every column."""
    gen = NaiveMatrixGenerator(GenParams(k, r, n_rows))
    deg = {}
    base = 1
    for _ in range(n_rows):
        while base <= gen.max_used_column and deg[base] == r:
            base += 1
        assert gen.peek_next_row()[0] == base
        row = gen.next_row()
        for x in row:
            deg[x] = deg.get(x, 0) + 1
            assert not gen.connectable_mask(x) >> x & 1
    for x in range(1, gen.max_used_column + 2):
        assert not gen.connectable_mask(x) >> x & 1


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_rows_restart_once_every_used_column_is_complete(k, r, n_rows):
    """A complete column is never placed again, so once every used column
    is complete the greedy rule sees only fresh columns, as at row 1: the
    rows that follow are rows 1, 2, ... shifted by max_used_column."""
    gen = NaiveMatrixGenerator(GenParams(k, r, n_rows))
    rows, resets = [], []
    for m in range(1, n_rows + 1):
        rows.append(gen.next_row())
        top = gen.max_used_column
        if all(gen.is_complete(x) for x in range(1, top + 1)):
            resets.append((m, top))
    for m, top in resets:
        assert rows[m:] == [tuple(x + top for x in row) for row in rows[:n_rows - m]]


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 8)] + [(2, 4), (3, 4), (2, 16)])
def test_pg_blocks_repeat_block_0_shifted(n, q):
    # the reset that `verify periodicity` reads after block 0, and the two
    # blocks it predicts, on the real generator
    v, b, r, k, _ = expected_counts(n, q)
    gen = NaiveMatrixGenerator(GenParams(k, r, 3 * b))
    block0 = [gen.next_row() for _ in range(b)]
    for t in (1, 2):
        assert gen.max_used_column == t * v
        assert all(gen.is_complete(x) for x in range(1, t * v + 1))
        assert [gen.next_row() for _ in range(b)] == [tuple(x + t * v for x in row) for row in block0]


def _generate_peak_bytes(k, r, rows):
    tracemalloc.start()
    try:
        for _ in generate(GenParams(k, r, rows)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_memory_is_linear_in_rows():
    # (3,1) takes three new columns per row; (3,7) repeats over 15-column
    # blocks.  Pair masks kept at absolute width grow 11-14x here.
    assert _generate_peak_bytes(3, 1, 4000) <= 5 * _generate_peak_bytes(3, 1, 1000)
    assert _generate_peak_bytes(3, 7, 11200) <= 5 * _generate_peak_bytes(3, 7, 2800)


def test_generate_memory_is_flat_at_r1():
    # at r = 1 every row retires its k columns, and the next commit drops
    # them: a run holds one row's k masks of k bits, about k^2/8 bytes,
    # where keeping every used column's mask would add that much per row
    # (about 200 KB at k = 1024)
    assert _generate_peak_bytes(1024, 1, 40) < _generate_peak_bytes(1024, 1, 10) + 16 * 1024


class KeepEveryColumn:
    """The same greedy rule over per-column lists indexed by column number,
    which keep the state of every column ever used: the reference for the
    differential test below.  `_floor`, `_active` and the anchored pair
    masks are as in NaiveMatrixGenerator; nothing is ever dropped."""

    def __init__(self, k, r):
        self.k, self.r = k, r
        self.max_used_column = 0
        self._floor = 0
        self._degree, self._pair, self._anchor = [0], [0], [0]
        self._active = 0

    def next_row(self):
        k, r, floor = self.k, self.r, self._floor
        degree, pair, anchor = self._degree, self._pair, self._anchor
        placed, cand = [], self._active
        while cand and len(placed) < k:
            low = cand & -cand
            j = floor + low.bit_length() - 1
            placed.append(j)
            cand &= ~(pair[j] >> (floor - anchor[j]))
            cand ^= low
        first = self.max_used_column + 1
        points = (*placed, *range(first, first + k - len(placed)))
        fresh = points[-1] - self.max_used_column
        if fresh > 0:
            degree += [0] * fresh
            pair += [0] * fresh
            anchor += [0] * fresh
            self.max_used_column = points[-1]
        active, row_bits = self._active, 0
        for x in points:
            bit = 1 << (x - floor)
            row_bits |= bit
            degree[x] += 1
            if degree[x] == 1:
                anchor[x] = floor
                active |= bit
            if degree[x] == r:
                active &= ~bit
        for x in points:
            pair[x] |= (row_bits ^ (1 << (x - floor))) << (floor - anchor[x])
        if not active & 2:
            shift = (active & -active).bit_length() - 2 if active else self.max_used_column - floor
            self._floor = floor + shift
            active >>= shift
        self._active = active
        return points

    def column_degree(self, x):
        return self._degree[x] if x <= self.max_used_column else 0

    def connectable_mask(self, x):
        return self._pair[x] << self._anchor[x] if x <= self.max_used_column else 0


def assert_matches_every_column_kept(k, r, n_rows):
    """Equal rows, and after every row equal state for each column that can
    have changed: the row's columns, the columns it retires (exact masks)
    and the columns the row before retired (mask 0, now dropped); at the
    end, every column.  A column's state changes only at those moments."""
    gen, ref = NaiveMatrixGenerator(GenParams(k, r, n_rows)), KeepEveryColumn(k, r)

    def same_state(x, floor):  # the columns under floor were retired before the last row
        assert gen.column_degree(x) == ref.column_degree(x)
        assert gen.connectable_mask(x) == (ref.connectable_mask(x) if x > floor else 0)

    last_floor = 0
    for _ in range(n_rows):
        floor = ref._floor
        row = ref.next_row()
        assert gen.next_row() == row
        assert gen.max_used_column == ref.max_used_column
        for x in (*row, *range(last_floor + 1, ref._floor + 1)):
            same_state(x, floor)
        last_floor = floor
    for x in range(1, ref.max_used_column + 2):
        same_state(x, last_floor)


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 8)] + [(2, 4), (3, 4), (2, 16)])
def test_pg_rows_and_state_match_every_column_kept(n, q):
    v, b, r, k, _ = expected_counts(n, q)
    assert_matches_every_column_kept(k, r, b)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_rows_and_state_match_every_column_kept(k, r, n_rows):
    assert_matches_every_column_kept(k, r, n_rows)
