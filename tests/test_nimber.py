"""Nim arithmetic: spot values, group/field laws, mex vs split agreement."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat import nimber
from naivemat.errors import InputRangeError, InvalidParameterError, ResourceLimitError
from naivemat.nimber import (FermatField, _gf256, _mul, field_check,
                             greediness_lemma_holds, is_fermat_two_power, nim_add,
                             nim_mul, nim_mul_table)

nimbers = st.integers(min_value=0, max_value=(1 << 63) - 1)
small = st.integers(min_value=0, max_value=(1 << 16) - 1)


def brute_nim_mul(a, b, _cache={}):
    """Test-side mex recursion, written independently of the package."""
    key = (a, b) if a <= b else (b, a)
    if key in _cache:
        return _cache[key]
    options = {brute_nim_mul(a2, b) ^ brute_nim_mul(a, b2) ^ brute_nim_mul(a2, b2)
               for a2 in range(a) for b2 in range(b)}
    out = 0
    while out in options:
        out += 1
    _cache[key] = out
    return out


# ---------------------------------------------------------------------------
# nim addition
# ---------------------------------------------------------------------------

def test_nim_add_spot_values():
    assert nim_add(1, 2) == 3
    assert nim_add(5, 6) == 3


def test_nim_add_self_inverse_small():
    for x in range(64):
        assert nim_add(x, x) == 0


@given(small, small, small)
def test_nim_add_group_laws_sampled(a, b, c):
    assert nim_add(a, b) == nim_add(b, a)
    assert nim_add(nim_add(a, b), c) == nim_add(a, nim_add(b, c))
    assert nim_add(a, a) == 0
    assert nim_add(a, 0) == a


def test_nim_add_group_laws_exhaustive_bytes():
    xs = np.arange(256, dtype=np.uint16)
    ab = xs[:, None] ^ xs[None, :]
    assert (ab == ab.T).all()
    left = ab[:, :, None] ^ xs[None, None, :]
    right = xs[:, None, None] ^ ab[None, :, :]
    assert (left == right).all()


@given(nimbers)
def test_binary_expansion_round_trip(x):
    bits = [(x >> i) & 1 for i in range(x.bit_length())]
    assert sum(b << i for i, b in enumerate(bits)) == x


def test_nim_add_range_errors():
    with pytest.raises(InputRangeError):
        nim_add(-1, 0)
    with pytest.raises(InputRangeError):
        nim_add(1 << 63, 0)
    assert nim_add((1 << 63) - 1, 0) == (1 << 63) - 1


# ---------------------------------------------------------------------------
# nim multiplication
# ---------------------------------------------------------------------------

def test_nim_mul_spot_values():
    # frozen from the mex recursion: mex{0,2,2,1} = 3 and mex{0,2,3,3,0,2} = 1
    assert nim_mul(2, 2) == 3
    assert nim_mul(2, 3) == 1
    assert nim_mul_table(4)[2, 2] == 3
    assert nim_mul_table(4)[2, 3] == 1
    assert brute_nim_mul(2, 2) == 3
    assert brute_nim_mul(2, 3) == 1


def test_nim_mul_zero_and_identity():
    for x in (0, 1, 2, 7, 100, (1 << 63) - 1):
        assert nim_mul(0, x) == 0
        assert nim_mul(1, x) == x


def test_nim_mul_matches_test_side_oracle():
    t = nim_mul_table(24)
    for a in range(24):
        for b in range(24):
            want = brute_nim_mul(a, b)
            assert nim_mul(a, b) == want
            assert int(t[a, b]) == want


def test_nim_mul_table_matches_scalar_mex():
    # the package's vectorised mex against the test-side scalar one
    t = nim_mul_table(32)
    for a in range(32):
        for b in range(32):
            assert int(t[a, b]) == brute_nim_mul(a, b)


def test_base_table_equals_mex_reference():
    # the GF(256) table the splitting rule builds from GF(2)
    assert (_gf256() == nim_mul_table(256)).all()


def test_array_products_match_scalar():
    rng = np.random.default_rng(7)
    for bits in (8, 16, 32, 63):
        a = rng.integers(0, 1 << bits, size=2000, dtype=np.uint64)
        b = rng.integers(0, 1 << bits, size=2000, dtype=np.uint64)
        p = _mul(a, b, 64)
        assert p.dtype == np.uint64
        for x, y, z in zip(a.tolist(), b.tolist(), p.tolist()):
            assert z == nim_mul(x, y)
    # products of 63-bit values reach past 2^63, so arrays must be uint64
    assert (p >= 1 << 63).any()
    assert nim_mul(1 << 32, 1 << 31) == 1 << 63  # distinct Fermat 2-powers


def test_nim_mul_memory_is_bounded():
    # no memo: 10^5 distinct 32-bit products leave nothing behind
    rng = random.Random(3)
    pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(10 ** 5)]
    nim_mul(3, 5)  # the GF(256) table is built once, on first use
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for a, b in pairs:
            nim_mul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1 << 20


@pytest.mark.parametrize("q", [2, 4, 16])
def test_fermat_closure_and_split_agreement_small(q):
    t = nim_mul_table(q)
    for a in range(q):
        for b in range(q):
            p = nim_mul(a, b)
            assert p == int(t[a, b])
            assert p < q


def test_fermat_closure_and_split_agreement_256():
    t = nim_mul_table(256)
    assert int(t.max()) < 256
    for a in range(256):
        row = t[a]
        for b in range(a, 256):
            assert nim_mul(a, b) == int(row[b])


def test_distributivity_exhaustive_16():
    for a in range(16):
        for b in range(16):
            for c in range(16):
                assert nim_mul(a, b ^ c) == nim_mul(a, b) ^ nim_mul(a, c)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_laws_sampled_bytes(a, b, c):
    assert nim_mul(a, b) == nim_mul(b, a)
    assert nim_mul(nim_mul(a, b), c) == nim_mul(a, nim_mul(b, c))


def test_fermat_power_products():
    # F*F = F + F/2 for a Fermat 2-power F, and distinct Fermat 2-powers
    # multiply like ordinary integers
    for e in (1, 2, 4, 8, 16, 32):
        f = 1 << e
        assert nim_mul(f, f) == f + f // 2
    assert nim_mul(1 << 32, 1 << 16) == 1 << 48
    assert nim_mul(1 << 16, 1 << 8) == 1 << 24
    assert nim_mul(1 << 4, 1 << 2) == 1 << 6


@settings(max_examples=50, deadline=None)
@given(nimbers, nimbers, nimbers)
def test_nim_mul_laws_63_bit(a, b, c):
    assert nim_mul(a, b) == nim_mul(b, a)
    assert nim_mul(a, b ^ c) == nim_mul(a, b) ^ nim_mul(a, c)


def test_nim_mul_range_errors():
    with pytest.raises(InputRangeError):
        nim_mul(-2, 1)
    with pytest.raises(InputRangeError):
        nim_mul(1, 1 << 63)


def test_mex_reference_input_cap():
    with pytest.raises(InputRangeError):
        nim_mul_table((1 << 12) + 1)
    with pytest.raises(InputRangeError):
        nim_mul_table(0)


# ---------------------------------------------------------------------------
# greediness
# ---------------------------------------------------------------------------

def test_greediness_lemma_spot_values():
    assert greediness_lemma_holds(1, 2, 0)
    assert greediness_lemma_holds(5, 6, 2)  # a^b=3, c=2<3, b^c=4 < a=5
    assert greediness_lemma_holds(3, 5, 7)  # vacuous: a^b=6 <= c


def test_greediness_lemma_exhaustive_32():
    for a in range(32):
        for b in range(32):
            for c in range(32):
                assert greediness_lemma_holds(a, b, c)


@given(nimbers, nimbers, nimbers)
def test_greediness_lemma_property(a, b, c):
    assert greediness_lemma_holds(a, b, c)


def test_greediness_lemma_range_error():
    with pytest.raises(InputRangeError):
        greediness_lemma_holds(0, 0, -1)


# ---------------------------------------------------------------------------
# Fermat fields
# ---------------------------------------------------------------------------

def test_is_fermat_two_power():
    assert [q for q in range(2, 300) if is_fermat_two_power(q)] == [2, 4, 16, 256]
    assert is_fermat_two_power(65536)
    assert not is_fermat_two_power(1)
    assert not is_fermat_two_power(8)


def test_fermat_field_construction():
    gf = FermatField(16)
    assert gf.q == 16 and gf.a_exponent == 2
    assert FermatField(2).a_exponent == 0
    with pytest.raises(InvalidParameterError):
        FermatField(6)
    with pytest.raises(InvalidParameterError):
        FermatField(8)


def test_fermat_field_inverses():
    gf = FermatField(16)
    for x in range(1, 16):
        assert gf.mul(x, gf.inv(x)) == 1
    with pytest.raises(InputRangeError):
        gf.inv(0)
    with pytest.raises(InputRangeError):
        gf.mul(16, 1)
    assert FermatField(2).inv(1) == 1


@pytest.mark.parametrize("q", [65536, 1 << 32])
def test_fermat_field_inverses_large_q(q):
    gf = FermatField(q)
    rng = random.Random(q)
    for x in [rng.randrange(1, q) for _ in range(200)] + [1, q - 1]:
        assert gf.mul(x, gf.inv(x)) == 1
    if q == 1 << 32:
        assert gf.inv(577090038) == 3739135424


def test_field_check_passes():
    assert field_check(2).status == "pass"
    assert field_check(4).status == "pass"
    rep = field_check(16)
    assert rep.status == "pass"
    assert rep.counts == {"q": 16, "mode": "exhaustive", "triples": 16 ** 3}
    names = [c.name for c in rep.checks]
    assert "closure of [0,q) under nim product" in names
    assert "every nonzero element has an inverse" in names


def test_field_check_sampled():
    rep = field_check(256, mode="sampled", samples=5000)
    assert rep.status == "pass"
    assert rep.counts["triples"] == 5000


def test_field_check_sampled_large_q():
    rep = field_check(65536, mode="sampled", samples=300)
    assert rep.status == "pass"
    assert [c.name for c in rep.checks] == [
        "closure of [0,q) under nim product", "1 is the multiplicative identity",
        "commutativity (300 sampled)", "associativity (300 sampled)",
        "distributivity (300 sampled)", "sampled nonzero elements have inverses"]


def test_field_check_sampled_q_2_32():
    rep = field_check(1 << 32, mode="sampled", samples=10 ** 5)
    assert rep.status == "pass"
    assert rep.counts == {"q": 1 << 32, "mode": "sampled", "triples": 10 ** 5}


def _field_check_peak_bytes(samples):
    tracemalloc.start()
    try:
        assert field_check(65536, mode="sampled", samples=samples).status == "pass"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_check_sampled_memory_does_not_grow_with_samples():
    # the samples are drawn and checked in fixed-size chunks: 10x the
    # samples, about the same peak (the whole arrays took ~10x)
    assert _field_check_peak_bytes(10 ** 6) <= 1.25 * _field_check_peak_bytes(10 ** 5)


def test_field_check_sampled_witness_is_first_in_draw_order(monkeypatch):
    # inverses made to fail on two sampled elements first drawn in the
    # second and the third chunk: the witness is the one drawn first
    chunk, q = nimber._SAMPLE_CHUNK, 65536
    samples = 3 * chunk
    rng = np.random.default_rng(0)
    drawn = np.concatenate([rng.integers(0, q, size=(3, chunk), dtype=np.uint64)[0]
                            for _ in range(3)])  # the elements, in draw order
    first_draw = {}
    for i, x in enumerate(drawn.tolist()):
        first_draw.setdefault(x, i)
    second = next(x for x, i in first_draw.items() if x and chunk <= i < 2 * chunk)
    third = next(x for x, i in first_draw.items() if x and i >= 2 * chunk)
    real = nimber._inverse
    monkeypatch.setattr(nimber, "_inverse", lambda x, q: np.where(
        np.isin(x, [second, third]), np.uint64(0), real(x, q)))
    rep = field_check(q, mode="sampled", samples=samples)
    assert rep.checks[-1].name == "sampled nonzero elements have inverses"
    assert rep.checks[-1].witness == {"element": second}
    assert [c.status for c in rep.checks[:-1]] == ["pass"] * 5


def test_field_check_sampled_triple_witness_is_first_in_draw_order(monkeypatch):
    # products with one sampled element, drawn in the second chunk, made
    # wrong: associativity and distributivity fail there first, and a
    # later chunk that passes must not hide it
    chunk = nimber._SAMPLE_CHUNK
    rng = np.random.default_rng(0)
    a, b, c = np.concatenate([rng.integers(0, 1 << 32, size=(3, chunk), dtype=np.uint64)
                              for _ in range(3)], axis=1)
    at = chunk + 5
    bad = a[at]
    assert np.count_nonzero(a == bad) == 1
    real = nimber._mul

    def broken(x, y, bits, table=None, table_bits=nimber._TABLE_BITS):
        out = real(x, y, bits, table, table_bits)
        return out if table is not None else out ^ (np.asarray(x) == bad)  # top level only

    monkeypatch.setattr(nimber, "_mul", broken)
    samples = 3 * chunk
    by_name = {c.name: c for c in field_check(1 << 32, mode="sampled", samples=samples).checks}
    want = {"triple": [int(a[at]), int(b[at]), int(c[at])]}
    assert by_name[f"associativity ({samples} sampled)"].witness == want
    assert by_name[f"distributivity ({samples} sampled)"].witness == want


def test_field_check_names_its_witnesses(monkeypatch):
    # xor in place of the nim product: closed, commutative and associative,
    # but 1 is no identity and the product does not distribute
    monkeypatch.setattr(nimber, "_mul", lambda x, y, bits: x ^ y)
    rep = field_check(4)
    by_name = {c.name: c for c in rep.checks}
    assert rep.status == "fail"
    assert by_name["1 is the multiplicative identity"].witness == {"element": 0}
    assert by_name["associativity (exhaustive)"].status == "pass"
    assert by_name["distributivity (exhaustive)"].witness == {"triple": [1, 0, 0]}
    assert by_name["every nonzero element has an inverse"].witness == {"element": 1}
    # the integer product leaves [0, q): the sampled witness is a real pair
    monkeypatch.setattr(nimber, "_mul", lambda x, y, bits: x * y)
    rep = field_check(65536, mode="sampled", samples=100)
    w = rep.checks[0].witness
    assert rep.checks[0].status == "fail"
    assert w["product"] == w["pair"][0] * w["pair"][1] >= 65536
    a, b, c = {c.name: c for c in rep.checks}["distributivity (100 sampled)"].witness["triple"]
    assert a * (b ^ c) != (a * b) ^ (a * c)


def test_field_check_errors():
    with pytest.raises(InvalidParameterError):
        field_check(6)
    with pytest.raises(InvalidParameterError):
        field_check(16, mode="guess")
    with pytest.raises(ResourceLimitError):
        field_check(65536, mode="exhaustive")
    for q in (256, 65536):  # no vacuous pass, no numpy traceback
        with pytest.raises(InvalidParameterError):
            field_check(q, mode="sampled", samples=0)
        with pytest.raises(InvalidParameterError):
            field_check(q, mode="sampled", samples=-1)
