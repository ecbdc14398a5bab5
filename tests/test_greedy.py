"""Greedy generation: streamed rows, family detection, state queries,
and the brute-force lexicographic-minimum oracle."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat import greedy
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
    # generate hands the rows still to come to islice, which stops at 2^63 - 1
    assert GenParams(k=3, r=1, max_rows=(1 << 63) - 1).max_rows == (1 << 63) - 1
    with pytest.raises(InputRangeError, match=r"max_rows must be at most 2\^63 - 1"):
        GenParams(k=3, r=1, max_rows=1 << 63)
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
    for _ in range(4):
        gen.next_row()
    assert gen.is_complete(1)      # rows 1, 2, 3 contain point 1
    assert not gen.is_complete(9)  # never used
    assert gen.connectable_mask(4) >> 5 & 1  # row 2 = {1,4,5}; 3 is still open after row 6
    assert gen.connectable_mask(1) == 0  # retired and dropped by row 3
    gen.next_row()  # {3,5,6} completes every column
    assert gen.is_complete(4) and gen.connectable_mask(4) == 0
    with pytest.raises(InputRangeError):
        gen.connectable_mask(0)


def test_connectable_mask_matches_pairs():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=4))
    rows = [gen.next_row() for _ in range(4)]
    # column 1 saturated at row 3, which retired it: the floor is 1, and a
    # mask shows the partners above it only
    assert gen.column_degree(1) == 3 and gen.connectable_mask(1) == 0
    for x in range(2, 8):
        mask = gen.connectable_mask(x)
        for y in range(1, 10):
            if y != x:
                assert bool((mask >> y) & 1) == (y > 1 and any(x in row and y in row for row in rows))


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


def above(mask, floor):
    """The bits of mask for the columns above the floor."""
    return mask >> (floor + 1) << (floor + 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_state_queries_match_emitted_rows(k, r, n_rows):
    """Every state query agrees with the rows after every row: the degree
    of every column, saturated ones included; the mask of every column
    above the floor, which holds its partners above the floor, and mask 0
    for the retired columns up to it; connectability for every pair of
    columns above the floor that involves a column of the new row, read
    from each end.  The floor is the length of the saturated prefix.  The
    regenerated `rows` property lists exactly the rows emitted."""
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
        row_bits = sum(1 << x for x in row)
        for x in row:
            deg[x] = deg.get(x, 0) + 1
            partners[x] = partners.get(x, 0) | (row_bits ^ (1 << x))
        floor = next(x for x in range(1, gen.max_used_column + 2) if deg.get(x, 0) < r) - 1
        top = gen.max_used_column + 2
        for x in range(1, top + 1):
            assert gen.column_degree(x) == deg.get(x, 0)
            assert gen.is_complete(x) == (deg.get(x, 0) == r)
            assert gen.connectable_mask(x) == (above(partners.get(x, 0), floor) if x > floor else 0)
        for x in [x for x in row if x > floor]:
            for y in range(floor + 1, top + 1):
                if y != x:
                    want = partners[x] >> y & 1
                    assert gen.connectable_mask(x) >> y & 1 == want
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
    rows that follow are rows 1, 2, ... shifted by max_used_column.
    `generate` replays block 0 from there, and yields the same rows with
    its record bound at 0, at k, just under block 0, at block 0 and at its
    default, and with the run it replays bound at 0, one point, one row,
    just under block 0 (a run of one block) and just over two blocks."""
    params = GenParams(k, r, n_rows)
    gen = NaiveMatrixGenerator(params)
    rows, resets = [], []
    for m in range(1, n_rows + 1):
        rows.append(gen.next_row())
        top = gen.max_used_column
        if all(gen.is_complete(x) for x in range(1, top + 1)):
            resets.append((m, top))
    for m, top in resets:
        assert rows[m:] == [tuple(x + top for x in row) for row in rows[:n_rows - m]]
    bounds = [0, k] + [b for m, _ in resets[:1] for b in (m * k - 1, m * k)]
    assert list(generate(params)) == rows
    for bound in bounds:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "_BLOCK_POINTS", bound)
            assert list(generate(params)) == rows
    for bound in [0, 1, k] + [b for m, _ in resets[:1] for b in (m * k - 1, 2 * m * k + 1)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "_RUN_POINTS", bound)
            assert list(generate(params)) == rows


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 8)] + [(2, 4), (3, 4), (2, 16)])
def test_pg_blocks_repeat_block_0_shifted(n, q):
    # the reset that `verify periodicity` reads after block 0, and the two
    # blocks it predicts, on the real generator
    v, b, r, k = expected_counts(n, q)
    gen = NaiveMatrixGenerator(GenParams(k, r, 3 * b))
    block0 = [gen.next_row() for _ in range(b)]
    for t in (1, 2):
        assert gen.max_used_column == t * v
        assert all(gen.is_complete(x) for x in range(1, t * v + 1))
        assert [gen.next_row() for _ in range(b)] == [tuple(x + t * v for x in row) for row in block0]
    expected = [tuple(x + t * v for x in row) for t in range(3) for row in block0]
    assert list(generate(GenParams(k, r, 3 * b))) == expected
    for bound in (0, 1, k, b * k - 1):  # a run of block 0 alone
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "_RUN_POINTS", bound)
            assert list(generate(GenParams(k, r, 3 * b))) == expected


def _peak_bytes(run, params):
    tracemalloc.start()
    try:
        run(params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _next_rows(params):
    # the generator itself: generate would replay these small blocks
    gen = NaiveMatrixGenerator(params)
    for _ in range(params.max_rows):
        gen.next_row()


def _drain(params):
    for _ in generate(params):
        pass


def _generator_peak_bytes(k, r, rows):
    return _peak_bytes(_next_rows, GenParams(k, r, rows))


def test_generate_memory_is_linear_in_rows():
    # (3,1) takes three new columns per row; (3,7) repeats over 15-column
    # blocks.  Pair masks kept at absolute width grow 11-14x here.
    assert _generator_peak_bytes(3, 1, 4000) <= 5 * _generator_peak_bytes(3, 1, 1000)
    assert _generator_peak_bytes(3, 7, 11200) <= 5 * _generator_peak_bytes(3, 7, 2800)


def test_generate_memory_is_flat_at_r1():
    # at r = 1 every row retires its k columns, and its commit drops
    # them: a run holds one row's k masks of k bits, about k^2/8 bytes,
    # where keeping every used column's mask would add that much per row
    # (about 200 KB at k = 1024)
    assert _generator_peak_bytes(1024, 1, 40) < _generator_peak_bytes(1024, 1, 10) + 16 * 1024


def test_generate_drops_a_block_0_past_its_record_bound():
    # block 0 of PG(8, 2) is 43435 rows of 3 points, about twice the bound.
    # Its 255 * max_used_column points pass the bound once max_used_column
    # passes 257, about row 128, so the record is dropped there, a few
    # hundred points long.  A record kept over the 8000 rows asked for here
    # would hold 24000 points, 96 KB.
    params = GenParams(3, 255, 8000)
    assert 3 * expected_counts(8, 2).b > 1.9 * greedy._BLOCK_POINTS
    assert _peak_bytes(_drain, params) < _peak_bytes(_next_rows, params) + 16 * 1024


@pytest.mark.parametrize("bound, calls", [(20, 14), (21, 7)])
def test_generate_keeps_a_block_0_that_fits_its_record_bound(monkeypatch, bound, calls):
    # the Fano block 0 is 7 rows, 7 * 3 = 21 points: a bound of 21 keeps it
    # and replays the second block, one under builds every row
    made = []
    real = NaiveMatrixGenerator.next_row
    monkeypatch.setattr(NaiveMatrixGenerator, "next_row", lambda self: made.append(1) or real(self))
    monkeypatch.setattr(greedy, "_BLOCK_POINTS", bound)
    shifted = [tuple(x + 7 for x in row) for row in FANO_ROWS]
    assert list(generate(GenParams(3, 3, 14))) == FANO_ROWS + shifted
    assert len(made) == calls


def test_generate_replays_a_bounded_run():
    # block 0 of (3, 1) is one row: the replay repeats a run of at most
    # _RUN_POINTS points, 4 bytes each, however many rows are left.  A run
    # of all 30000 rows would hold 360 KB.
    params = GenParams(3, 1, 30000)
    run = 4 * greedy._RUN_POINTS
    assert _peak_bytes(_drain, params) < _peak_bytes(_next_rows, params) + 1.25 * run


class KeepEveryColumn:
    """The same greedy rule over per-column lists and masks indexed by
    column number, which keep the state of every column ever used and
    every partner it ever had: the reference for the differential tests
    below.  `_floor` is the length of the saturated prefix, as in
    NaiveMatrixGenerator; nothing is ever dropped or shifted."""

    def __init__(self, k, r):
        self.k, self.r = k, r
        self.max_used_column = 0
        self._floor = 0
        self._degree, self._pair = [0], [0]
        self._active = 0  # bit x for each used column x whose degree is below r

    def next_row(self):
        k, r = self.k, self.r
        degree, pair = self._degree, self._pair
        placed, cand = [], self._active
        while cand and len(placed) < k:
            low = cand & -cand
            x = low.bit_length() - 1
            placed.append(x)
            cand &= ~pair[x]
            cand &= ~low
        first = self.max_used_column + 1
        points = (*placed, *range(first, first + k - len(placed)))
        fresh = points[-1] - self.max_used_column
        if fresh > 0:
            degree += [0] * fresh
            pair += [0] * fresh
            self.max_used_column = points[-1]
        row_bits = sum(1 << x for x in points)
        for x in points:
            degree[x] += 1
            pair[x] |= row_bits & ~(1 << x)
            if degree[x] == r:
                self._active &= ~(1 << x)
            else:
                self._active |= 1 << x
        while self._floor < self.max_used_column and degree[self._floor + 1] == r:
            self._floor += 1
        return points

    def column_degree(self, x):
        return self._degree[x] if x <= self.max_used_column else 0

    def connectable_mask(self, x):
        return self._pair[x] if x <= self.max_used_column else 0


def assert_matches_every_column_kept(k, r, n_rows):
    """Equal rows and max_used_column, and after every row equal state for
    each column that can have changed: the row's columns, whose masks
    agree above the floor, and the columns it retires, whose masks read 0
    and whose stored slots, if still kept, hold 0; at the end, every
    column.  A column's state changes only at those moments.  Returns how
    many times the offset of gen moved."""
    gen, ref = NaiveMatrixGenerator(GenParams(k, r, n_rows)), KeepEveryColumn(k, r)
    shifts = 0

    def same_state(x):  # the columns up to the floor are retired
        floor = ref._floor
        assert gen.column_degree(x) == ref.column_degree(x)
        assert gen.connectable_mask(x) == (above(ref.connectable_mask(x), floor) if x > floor else 0)

    for _ in range(n_rows):
        floor, offset = ref._floor, gen._offset
        row = ref.next_row()
        assert gen.next_row() == row
        assert gen.max_used_column == ref.max_used_column
        for x in (*row, *range(floor + 1, ref._floor + 1)):
            same_state(x)
        assert not any(gen._pair[:ref._floor + 1 - gen._offset])
        shifts += gen._offset != offset
    for x in range(1, ref.max_used_column + 2):
        same_state(x)
    return shifts


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 8)] + [(2, 4), (3, 4), (2, 16)])
def test_pg_rows_and_state_match_every_column_kept(n, q):
    v, b, r, k = expected_counts(n, q)
    assert_matches_every_column_kept(k, r, b)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300))
def test_rows_and_state_match_every_column_kept(k, r, n_rows):
    assert_matches_every_column_kept(k, r, n_rows)


@pytest.mark.parametrize("k,r", [(3, 4), (4, 3), (5, 2)])
def test_long_runs_match_every_column_kept(k, r):
    # (3, 4) and (4, 3) never reset, so only the bulk shift of the retired
    # prefix bounds their state; (5, 2) resets every 6 rows
    assert assert_matches_every_column_kept(k, r, 5000) > 500


def test_generator_memory_is_flat_without_resets():
    # (3, 4) never resets: its floor climbs about 3/4 of a column a row and
    # the frontier stays 8 columns wide.  An offset never shifted keeps a
    # slot per column ever used, 15,000 of them after 20,000 rows.
    assert _generator_peak_bytes(3, 4, 20000) < _generator_peak_bytes(3, 4, 2000) + 4 * 1024


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 200))
def test_peek_is_the_next_row_and_changes_no_query(k, r, n_rows):
    """Before every row of a whole run, peek_next_row returns the row that
    next_row then commits, and every query reads the same after the peek
    as before it."""
    gen = NaiveMatrixGenerator(GenParams(k, r, n_rows))

    def queries():
        top = gen.max_used_column
        return (gen.emitted, top,
                [(gen.column_degree(x), gen.is_complete(x), gen.connectable_mask(x))
                 for x in range(1, top + 2)])

    for _ in range(n_rows):
        before = queries()
        row = gen.peek_next_row()
        assert queries() == before
        assert gen.next_row() == row
    with pytest.raises(InvalidParameterError):
        gen.peek_next_row()
