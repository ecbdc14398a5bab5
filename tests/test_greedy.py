"""Greedy generation: streamed rows, family detection, state queries,
and the brute-force lexicographic-minimum oracle."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat.errors import (InputRangeError, InvalidParameterError,
                             RowIncompleteError)
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
        GenParams(k=3, r=1, max_rows=1, column_cap=2)


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


def test_peek_is_kept_until_committed():
    want = list(generate(GenParams(k=3, r=7, max_rows=300)))
    gen = NaiveMatrixGenerator(GenParams(k=3, r=7, max_rows=300))
    scans = 0
    scan = gen._scan

    def counted_scan():
        nonlocal scans
        scans += 1
        return scan()

    gen._scan = counted_scan
    for i, points in enumerate(want):
        assert gen.peek_next_row() == points
        assert gen.peek_next_row() == points
        assert gen.next_row() == points
    assert gen.emitted == i + 1
    assert scans == len(want)  # one scan per row, however often it is peeked


def test_max_rows_is_enforced():
    gen = NaiveMatrixGenerator(GenParams(k=2, r=1, max_rows=1))
    gen.next_row()
    with pytest.raises(InvalidParameterError):
        gen.next_row()


def test_determinism():
    p = GenParams(k=4, r=3, max_rows=20)
    assert list(generate(p)) == list(generate(p))


def test_column_cap_raises_row_incomplete():
    with pytest.raises(RowIncompleteError):
        list(generate(GenParams(k=3, r=1, max_rows=2, column_cap=3)))


def test_is_complete_and_connectable():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=7))
    gen.next_row()  # {1,2,3}
    assert not gen.is_complete(1)
    assert gen.connectable(1, 2)
    assert not gen.connectable(1, 4)
    gen.next_row()  # {1,4,5}
    assert gen.connectable(4, 5)
    for _ in range(5):
        gen.next_row()
    assert gen.is_complete(1)      # rows 1, 2, 3 contain point 1
    assert not gen.is_complete(9)  # never used
    assert gen.connectable(4, 5)   # row 2 = {1,4,5}
    with pytest.raises(InvalidParameterError):
        gen.connectable(2, 2)
    with pytest.raises(InputRangeError):
        gen.connectable(0, 2)


def test_connectable_mask_matches_pairs():
    gen = NaiveMatrixGenerator(GenParams(k=3, r=3, max_rows=4))
    for _ in range(4):
        gen.next_row()
    for x in range(1, 8):
        mask = gen.connectable_mask(x)
        for y in range(1, 10):
            if y != x:
                assert bool((mask >> y) & 1) == gen.connectable(x, y)


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
    # r=1 consumes three fresh columns per row, crossing the 64-column
    # window mid-row around row 22
    rows = list(generate(GenParams(3, 1, 30)))
    assert rows == [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(30)]
    rows = list(generate(GenParams(5, 1, 20)))
    assert rows == [tuple(range(5 * i + 1, 5 * i + 6)) for i in range(20)]


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(1, 9), st.integers(1, 300),
       st.one_of(st.none(), st.integers(2, 30)))
def test_state_queries_match_emitted_rows(k, r, n_rows, cap):
    """Every state query, saturated columns included, agrees with the rows:
    degrees and masks of every column after every row, and connectable for
    every pair that involves a column of the new row.  The regenerated
    `rows` property lists exactly the rows emitted."""
    params = GenParams(k, r, n_rows, column_cap=max(cap, k)) if cap else GenParams(k, r, n_rows)
    gen = NaiveMatrixGenerator(params)
    deg, partners = {}, {}
    prev = []
    for m in range(n_rows):
        try:
            row = gen.next_row()
        except RowIncompleteError:
            # the greedy row needs a column beyond the cap
            bound = max((p for rr in prev for p in rr), default=0) + k
            assert cap is not None
            assert lexmin_admissible_row(prev, k, r, bound)[-1] > params.column_cap
            break
        if m < 10:
            bound = max((p for rr in prev for p in rr), default=0) + k
            assert row == lexmin_admissible_row(prev, k, r, bound)
        row_bits = sum(1 << x for x in row)
        for x in row:
            deg[x] = deg.get(x, 0) + 1
            partners[x] = partners.get(x, 0) | (row_bits ^ (1 << x))
        top = gen.max_used_column + 2
        for x in range(1, top + 1):
            assert gen.column_degree(x) == deg.get(x, 0)
            assert gen.is_complete(x) == (deg.get(x, 0) == r)
            assert gen.connectable_mask(x) == partners.get(x, 0)
        for x in row:
            for y in range(1, top + 1):
                if y != x:
                    want = bool(partners[x] >> y & 1)
                    assert gen.connectable(x, y) == want
                    assert gen.connectable(y, x) == want
        prev.append(row)
    assert gen.emitted == len(prev)
    assert gen.rows == [Row(i, row) for i, row in enumerate(prev, 1)]


def _generate_peak_bytes(k, r, rows):
    tracemalloc.start()
    try:
        for _ in generate(GenParams(k, r, rows)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_memory_is_linear_in_rows():
    # (3,1) takes three new columns per row; (3,7) repeats over 15-column blocks
    assert _generate_peak_bytes(3, 1, 20000) <= 5 * _generate_peak_bytes(3, 1, 5000)
    assert _generate_peak_bytes(3, 7, 56000) <= 5 * _generate_peak_bytes(3, 7, 14000)
