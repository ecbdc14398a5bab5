"""Nim arithmetic: spot values, group/field laws, mex vs split agreement."""

import functools
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat import nimber
from naivemat.errors import InputRangeError, InvalidParameterError
from naivemat.nimber import (_gf256, _mul, _products, field_check,
                             greediness_lemma_holds, is_fermat_two_power, nim_mul)

nimbers = st.integers(min_value=0, max_value=(1 << 63) - 1)


def pack(values, width):
    """The values in consecutive lanes of `width` bytes of one int, lane 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def unpack(x, width, n=None):
    """The first n lanes of `width` bytes of x, by default every lane x reaches."""
    if n is None:
        n = -(-x.bit_length() // (8 * width))
    raw = x.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


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


@functools.cache
def nim_mul_table(n):
    """The n-by-n nim product table, filled bottom-up by the mex recursion,
    each entry's options gathered as one array: the reference the
    splitting-rule multiplier is checked against.  Cost grows like n^4;
    the array is cached and read-only."""
    t = np.zeros((n, n), dtype=np.int32)
    if n > 1:
        t[1, :] = np.arange(n)
        t[:, 1] = np.arange(n)
    for a in range(2, n):
        for b in range(a, n):
            options = t[:a, b, None] ^ t[a, :b][None, :] ^ t[:a, :b]
            counts = np.bincount(options.ravel(), minlength=a * b + 2)
            m = int(np.argmin(counts > 0))
            t[a, b] = m
            t[b, a] = m
    t.setflags(write=False)
    return t


# ---------------------------------------------------------------------------
# nim addition: the sum of every Fermat field
# ---------------------------------------------------------------------------

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
    # the vectorised mex against the scalar one, the literal definition
    t = nim_mul_table(32)
    for a in range(32):
        for b in range(32):
            assert int(t[a, b]) == brute_nim_mul(a, b)


def test_base_table_equals_mex_reference():
    # the GF(256) table the splitting rule builds from GF(2) in one _mul
    # call on byte lanes: 65,536 bytes, entry 256a + b
    assert _gf256() == nim_mul_table(256).astype(np.uint8).tobytes()
    # widths 1, 2 and 4 end in GF(2), x & y, and read no table: every pair,
    # in byte lanes (the tables field_check reads) and as uint64 arrays
    ref = nim_mul_table(16)
    for bits in (1, 2, 4):
        assert _products(bits) == ref[:1 << bits, :1 << bits].astype(np.uint8).tobytes()
        xs = np.arange(1 << bits, dtype=np.uint64)
        p = _mul(xs[:, None], xs[None, :], bits)
        assert p.dtype == np.uint64
        assert (p == ref[:1 << bits, :1 << bits]).all()


@pytest.mark.parametrize("bits", [16, 32])
def test_packed_lanes_match_scalar(bits):
    # random values in lanes of `bits` bits, multiplied in one call that
    # runs down to GF(2) (a table width above `bits` reads no table)
    rng, n = random.Random(bits), 500
    xs, ys = ([rng.getrandbits(bits) for _ in range(n)] for _ in range(2))
    width = bits // 8
    got = _mul(pack(xs, width), pack(ys, width), bits, None, 2 * bits, pack([1] * n, width))
    assert got < 1 << bits * n
    assert got == pack([nim_mul(x, y) for x, y in zip(xs, ys)], width)


@pytest.mark.parametrize("bits", [1, 2, 4, 8, 16, 32])
def test_lane_products_match_nim_mul(bits):
    # the sampled field check's products: lanes of max(1, bits/8) bytes,
    # the recursion ending in the GF(16) table read a byte lane at a time,
    # against nim_mul, which ends in the GF(256) table from width 8 up
    q, width, rng = 1 << bits, max(1, bits // 8), random.Random(bits)
    xs = [0, 0, q - 1, q - 1, 1, q - 1] + [rng.randrange(q) for _ in range(300)]
    ys = [0, q - 1, 0, q - 1, q - 1, 1] + [rng.randrange(q) for _ in range(300)]
    table = nimber._LaneTable(_products(nimber._LEAF_BITS))
    got = _mul(pack(xs, width), pack(ys, width), bits, table, nimber._LEAF_BITS,
               pack([1] * len(xs), width))
    assert got < 1 << 8 * width * len(xs)  # nothing spills past the last lane
    assert unpack(got, width, len(xs)) == [nim_mul(x, y) for x, y in zip(xs, ys)]


def _random_leaf(rng):
    """A GF(16)-leaf table that keeps lanes closed and is no field: 256
    random entries below 16, entry 0 = 0 as _LaneTable requires."""
    return bytes([0] + [rng.randrange(16) for _ in range(255)])


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_half_lane_step_equals_four_call_step_under_any_leaf(bits):
    # packed products, which take the half-lane step from width 16 up,
    # against scalar ones, which take the four-call step, under leaves
    # that are not fields: the steps differ only in how they group the
    # same sub-products.  Lanes hold 0 and 2^bits - 1, the lane count is
    # odd, and a single lane (one == 1) takes the four-call step
    q, width, rng = 1 << bits, bits // 8, random.Random(bits)
    for _ in range(3):
        table = nimber._LaneTable(_random_leaf(rng))
        xs = [0, 0, q - 1, q - 1, 1] + [rng.randrange(q) for _ in range(200)]
        ys = [0, q - 1, 0, q - 1, q - 1] + [rng.randrange(q) for _ in range(200)]
        want = [_mul(x, y, bits, table, 4) for x, y in zip(xs, ys)]
        for n in (len(xs), 1):
            got = _mul(pack(xs[:n], width), pack(ys[:n], width), bits, table, 4, pack([1] * n, width))
            assert got < 1 << bits * n
            assert unpack(got, width, n) == want[:n]


class _CountingLaneTable(nimber._LaneTable):
    """A _LaneTable that counts its reads."""

    reads = 0

    def __getitem__(self, packed):
        self.reads += 1
        return super().__getitem__(packed)


def test_packed_products_read_the_leaf_once_per_half_lane_level(monkeypatch):
    # the half-lane step makes two calls a level on half lanes, down to
    # lanes of a byte, where the GF(16) leaf index fits: 4 reads a product
    # at 8 bits, 8 at 16 and 16 at 32 (the four-call step read 4, 16, 64)
    for bits, reads in ((8, 4), (16, 8), (32, 16)):
        width, n = bits // 8, 5
        table = _CountingLaneTable(_products(nimber._LEAF_BITS))
        _mul(pack(range(n), width), pack(range(n), width), bits, table, nimber._LEAF_BITS,
             pack([1] * n, width))
        assert table.reads == reads, bits
    # _products ends in GF(2), x & y, which reads every lane: 2 calls a
    # level from width 8, so 2^3 (the four-call step reached x & y 64 times)
    real, leaves = nimber._mul, []

    def counting(x, y, bits, *rest):
        if bits == 1:
            leaves.append((x, y))
        return real(x, y, bits, *rest)

    monkeypatch.setattr(nimber, "_mul", counting)
    assert _products(8) == _gf256()
    assert len(leaves) == 8


def test_array_products_match_scalar():
    rng = np.random.default_rng(7)
    table = np.frombuffer(_gf256(), dtype=np.uint8).astype(np.uint64)  # what arrays read
    for bits in (8, 16, 32, 63):
        a = rng.integers(0, 1 << bits, size=2000, dtype=np.uint64)
        b = rng.integers(0, 1 << bits, size=2000, dtype=np.uint64)
        p = _mul(a, b, 64, table)
        assert p.dtype == np.uint64
        for x, y, z in zip(a.tolist(), b.tolist(), p.tolist()):
            assert z == nim_mul(x, y)
    # products of 63-bit values reach past 2^63, so arrays must be uint64
    assert (p >= 1 << 63).any()
    assert nim_mul(1 << 32, 1 << 31) == 1 << 63  # distinct Fermat 2-powers


def test_nim_mul_memory_is_bounded():
    # no memo: 10^4 distinct 32-bit products leave nothing behind (a memo
    # of just these products would hold about 1.2 MB)
    rng = random.Random(3)
    pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(10 ** 4)]
    nim_mul(256, 3)  # a width-8 product builds the GF(256) table, once
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for a, b in pairs:
            nim_mul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1 << 17


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


def _nim_power(x, e):
    """x^e by square and multiply, with nim_mul."""
    out = 1
    while e:
        if e & 1:
            out = nim_mul(out, x)
        x, e = nim_mul(x, x), e >> 1
    return out


def test_fermat_field_inverses():
    # x^(q-2) is the inverse of nonzero x in GF(q): against the mex reference
    for q in (2, 4, 16, 256):
        want = np.argmax(nim_mul_table(q)[1:] == 1, axis=1)
        assert [_nim_power(x, q - 2) for x in range(1, q)] == want.tolist()


@pytest.mark.parametrize("q", [65536, 1 << 32])
def test_fermat_field_inverses_large_q(q):
    # what field_check proves from the tower levels, seen on samples
    rng = random.Random(q)
    for x in [rng.randrange(1, q) for _ in range(200)] + [1, q - 1]:
        assert nim_mul(x, _nim_power(x, q - 2)) == 1
    if q == 1 << 32:
        assert _nim_power(577090038, q - 2) == 3739135424


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
    # the exact checks, then the two sampled checks of the tower product
    rep = field_check(65536, mode="sampled", samples=300)
    assert rep.status == "pass"
    assert [c.name for c in rep.checks] == [
        "closure of [0,256) under nim product", "1 is the multiplicative identity in GF(256)",
        "commutativity in GF(256)", "associativity in GF(256) (exhaustive)",
        "distributivity in GF(256) (exhaustive)",
        "every nonzero element has an inverse in GF(256)",
        "X^2 + X + c irreducible over GF(F), Tr(c) = 1, at tower levels F = 256",
        "associativity of the tower product (300 sampled triples)",
        "distributivity of the tower product (300 sampled triples)"]


def test_field_check_sampled_q_2_32():
    rep = field_check(1 << 32, mode="sampled", samples=10 ** 5)
    assert rep.status == "pass"
    assert rep.counts == {"q": 1 << 32, "mode": "sampled", "triples": 10 ** 5}


def _field_check_peak_bytes(**kwargs):
    _gf256()  # built once per process, before either peak is taken
    tracemalloc.start()
    try:
        assert field_check(65536, **kwargs).status == "pass"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_check_sampled_memory_does_not_grow_with_samples():
    # the samples are drawn and checked in fixed-size chunks: 10x the
    # samples, about the same peak (the whole arrays took ~10x)
    peak = _field_check_peak_bytes(mode="sampled", samples=10 ** 5)
    assert _field_check_peak_bytes(mode="sampled", samples=10 ** 6) <= 1.25 * peak


def test_field_check_sampled_memory_is_within_the_exact_checks():
    # a chunk of triples costs tens of KB, well under the exact checks'
    # 256x256 tables; 2^16-triple chunks put about 7 MB on top
    exact = _field_check_peak_bytes()
    assert _field_check_peak_bytes(mode="sampled", samples=10 ** 5) <= exact + (1 << 20)


def _mix64(state):
    """splitmix64's output function of a 64-bit state, on a Python int."""
    mask = (1 << 64) - 1
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def splitmix64(count):
    """The first values of the splitmix64 stream seeded with 0, on Python ints."""
    mask, state, out = (1 << 64) - 1, 0, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        out.append(_mix64(state))
    return out


def test_draw_is_the_splitmix64_stream_in_any_chunking():
    # _draw packs value start + i into lane i of 128 bits
    want = splitmix64(40)
    assert want[0] == 0xE220A8397B1DCDAF  # the stream's published first value
    for q in (2, 4, 16, 256, 65536, 1 << 32):
        assert unpack(nimber._draw(0, 40, q), 16, 40) == [v & (q - 1) for v in want]
        parts = [unpack(nimber._draw(start, n, q), 16, n) for start, n in ((0, 7), (7, 1), (8, 32))]
        assert sum(parts, []) == [v & (q - 1) for v in want]
    # the last three counters `samples` below 2^62 reach, where the state wraps past 2^64
    start = 3 * ((1 << 62) - 1)
    states = [(i + 1) * 0x9E3779B97F4A7C15 & ((1 << 64) - 1) for i in range(start, start + 3)]
    want = [_mix64(s) & 0xFFFFFFFF for s in states]
    assert unpack(nimber._draw(start, 3, 1 << 32), 16, 3) == want


@pytest.mark.parametrize("q", [2, 4, 16, 256, 65536, 1 << 32])
def test_triples_are_the_splitmix64_stream_in_any_chunking(q):
    # triple i is stream values 3i, 3i+1 and 3i+2, cut into lanes of max(1, log2(q)/8)
    # bytes, at any chunk size
    width, count = max(1, (q.bit_length() - 1) // 8), 40
    want = [v & (q - 1) for v in splitmix64(3 * count)]
    for chunk in (count, 1, 7, 13):
        got = [[], [], []]
        for start in range(0, count, chunk):
            n = min(chunk, count - start)
            for values, x in zip(got, nimber._triples(start, n, q, width)):
                values += unpack(x, width, n)
        assert got == [want[0::3], want[1::3], want[2::3]], chunk


def test_field_check_sampled_triple_witness_is_first_in_draw_order(monkeypatch):
    # products with one sampled element, drawn in the second default-size
    # chunk, made wrong: associativity and distributivity fail there first,
    # and a later chunk that passes must not hide it.  The exact checks never
    # multiply that element, so they pass: a sampled failure is a triple.
    # Triple i is stream values 3i, 3i+1, 3i+2 whatever the chunk size, so
    # an odd chunk size finds the same witness.  The products are packed in
    # 4-byte lanes: the mutant flips bit 0 of each lane where x holds that
    # element
    samples, at = 3 * nimber._SAMPLE_CHUNK, nimber._SAMPLE_CHUNK + 5
    drawn = [v & 0xFFFFFFFF for v in splitmix64(3 * samples)]
    a, b, c = drawn[0::3], drawn[1::3], drawn[2::3]
    bad = a[at]
    assert a.count(bad) == 1 and bad != 0
    real = nimber._mul

    def broken(x, y, bits, table=None, table_bits=nimber._TABLE_BITS, one=1):
        out = real(x, y, bits, table, table_bits, one)
        if bits != 32:  # top level only
            return out
        return out ^ pack([v == bad for v in unpack(x, 4)], 4)

    monkeypatch.setattr(nimber, "_mul", broken)
    want = {"triple": [a[at], b[at], c[at]]}
    for chunk in (nimber._SAMPLE_CHUNK, 7):
        monkeypatch.setattr(nimber, "_SAMPLE_CHUNK", chunk)
        checks = field_check(1 << 32, mode="sampled", samples=samples).checks
        assert [c.status for c in checks[:-2]] == ["pass"] * 7
        assert checks[-2].name == f"associativity of the tower product ({samples} sampled triples)"
        assert checks[-2].witness == want
        assert checks[-1].name == f"distributivity of the tower product ({samples} sampled triples)"
        assert checks[-1].witness == want


def _inject_table(monkeypatch, mul):
    """Make field_check's table laws read the products of mul, a multiplier
    on uint64 arrays: as bytes, or, when a product is above 255, as an
    array of 64-bit entries."""
    def products(bits):
        xs = np.arange(1 << bits, dtype=np.uint64)
        t = mul(xs[:, None], xs[None, :], bits).ravel()
        return t.astype(np.uint8).tobytes() if t.max() < 256 else array("Q", t.tolist())

    monkeypatch.setattr(nimber, "_products", products)
    monkeypatch.setattr(nimber, "_table", None)  # the GF(256) table is built by _products


def test_field_check_names_its_witnesses(monkeypatch):
    # xor in place of the nim product: closed, commutative and associative,
    # but 1 is no identity and the product does not distribute (every row
    # of the xor table holds a 1, so the inverse law, read off the table,
    # passes: it means something only where 1 is the identity)
    _inject_table(monkeypatch, lambda x, y, bits: x ^ y)
    rep = field_check(4)
    by_name = {c.name: c for c in rep.checks}
    assert rep.status == "fail"
    assert by_name["1 is the multiplicative identity"].witness == {"element": 0}
    assert by_name["associativity (exhaustive)"].status == "pass"
    assert by_name["distributivity (exhaustive)"].witness == {"triple": [1, 0, 0]}
    assert by_name["every nonzero element has an inverse"].status == "pass"
    # a GF(16) table with one product changed is commutative but does not
    # distribute over xor.  The sampled products end in it, and nothing
    # else reads it at q = 65536, so only the sampled checks fail, and the
    # distributivity witness is the first triple drawn that fails under
    # that product, scalar, with the mutated bytes as the table
    monkeypatch.undo()
    real = nimber._products
    mutated = bytearray(real(4))
    mutated[3 * 16 + 3] ^= 1  # 3 (x) 3
    mutated = bytes(mutated)
    monkeypatch.setattr(nimber, "_products", lambda bits: mutated if bits == 4 else real(bits))
    rep = field_check(65536, mode="sampled", samples=100)
    assert [c.status for c in rep.checks] == ["pass"] * 7 + ["fail"] * 2
    assert rep.checks[-1].name == "distributivity of the tower product (100 sampled triples)"

    def mul(x, y):
        return _mul(x, y, 16, mutated, 4)

    drawn = [v & 0xFFFF for v in splitmix64(300)]
    failing = [[a, b, c] for a, b, c in zip(drawn[0::3], drawn[1::3], drawn[2::3])
               if mul(a, b ^ c) != mul(a, b) ^ mul(a, c)]
    assert rep.checks[-1].witness == {"triple": failing[0]}


def _mul_with_constant_1_at(bad_h):
    """A test-side copy of nimber._mul whose width-2h step multiplies hi by
    1, not by 2^(h-1), at h = bad_h: X^2 + X + 1, reducible over GF(2^h)
    for even h, so [0, 2^(2h)) is a ring with zero divisors there.  Like
    _mul it runs on ints, packed ints and uint64 arrays, and takes the
    half-lane step where _mul does, with the constant 1 in the high halves
    of its second call, so it builds the GF(256) table too."""
    def mul(x, y, bits, table=None, table_bits=nimber._TABLE_BITS, one=1):
        if bits == 1:
            return x & y
        if bits >= table_bits and table is None:
            table = nimber._gf256()
        if bits == table_bits:
            return table[(x << table_bits) | y]
        h = bits // 2
        low = (one << h) - one
        shift = 0 if h == bad_h else h - 1  # the constant is 2^shift
        if one != 1 and (bits < table_bits or h >= 2 * table_bits):
            half = one | (one << h)
            both = mul(x, y, h, table, table_bits, half)
            lo = both & low
            pair = mul(((x ^ (x >> h)) & low) | (both ^ lo), ((y ^ (y >> h)) & low) | (one << (h + shift)),
                       h, table, table_bits, half)
            return (((pair ^ lo) & low) << h) ^ lo ^ ((pair >> h) & low)
        x1, x0, y1, y0 = (x >> h) & low, x & low, (y >> h) & low, y & low
        lo = mul(x0, y0, h, table, table_bits, one)
        hi = mul(x1, y1, h, table, table_bits, one)
        mid = mul(x0 ^ x1, y0 ^ y1, h, table, table_bits, one)
        return ((mid ^ lo) << h) ^ lo ^ mul(hi, one << shift, h, table, table_bits, one)
    return mul


LEVELS = "X^2 + X + c irreducible over GF(F), Tr(c) = 1, at tower levels F = "


def test_field_check_mutated_tower_constant_names_its_level(monkeypatch):
    monkeypatch.setattr(nimber, "_mul", _mul_with_constant_1_at(16))
    rep = field_check(1 << 32)
    assert rep.status == "fail"
    assert [c.name for c in rep.checks if c.status == "fail"] == [LEVELS + "256, 65536"]
    assert rep.checks[-1].witness == {"F": 65536, "c": 1, "trace": 0}
    # the sampled product checks pass on this ring, and the verdict stays fail
    rep = field_check(1 << 32, mode="sampled", samples=20000)
    assert rep.status == "fail"
    assert [c.status for c in rep.checks[-3:]] == ["fail", "pass", "pass"]
    assert rep.checks[-3].witness == {"F": 65536, "c": 1, "trace": 0}
    monkeypatch.setattr(nimber, "_mul", _mul_with_constant_1_at(8))
    for q in (65536, 1 << 32):  # the first failing level is the witness
        rep = field_check(q)
        assert [c.status for c in rep.checks] == ["pass"] * 6 + ["fail"]
        assert rep.checks[-1].witness == {"F": 256, "c": 1, "trace": 0}


def test_field_check_mutated_table_fails_a_table_law(monkeypatch):
    # X^2 + X + 1 over GF(4) has the roots 2 and 3, so X + 2 = 6 has no
    # inverse; the tables are built by one packed _mul call, so they are
    # rebuilt mutated
    monkeypatch.setattr(nimber, "_mul", _mul_with_constant_1_at(2))
    monkeypatch.setattr(nimber, "_table", None)
    rep = field_check(16)
    assert [(c.name, c.witness) for c in rep.checks if c.status == "fail"] == [
        ("every nonzero element has an inverse", {"element": 6})]
    rep = field_check(65536)
    assert rep.checks[5].name == "every nonzero element has an inverse in GF(256)"
    assert rep.checks[5].status == "fail"


def _plane_scan(t):
    """The exhaustive plane scan field_check ran on every table before it
    decided the laws on the basis, kept as the reference: the first
    (a, b, c) in row-major order where (ab)c != a(bc), and where
    a(b + c) != ab + ac, each None if there is none."""
    xs = np.arange(len(t))
    t, b_xor_c = t.astype(np.intp), xs[:, None] ^ xs[None, :]

    def first(ok, a):
        return None if ok.all() else [a, *map(int, np.unravel_index(np.argmin(ok), ok.shape))]

    assoc = distrib = None
    for a, ta in enumerate(t):
        assoc = assoc or first(t[ta] == ta[t], a)
        distrib = distrib or first(ta[b_xor_c] == (ta[:, None] ^ ta[None, :]), a)
    return assoc, distrib


def _dot_mod_2(x, y, bits):
    """The parity of x & y (values below 256): symmetric and bilinear over
    GF(2), but not associative, (2.2).1 = 1 and 2.(2.1) = 0."""
    v = x & y
    for s in (4, 2, 1):
        v = v ^ (v >> s)
    return v & 1


def _flip_2_3(t):
    """Not commutative."""
    t[2, 3] ^= 1


def _flip_3_3(t):
    """Commutative, not distributive, associative on the basis triples."""
    t[3, 3] ^= 1


def _last_row_copies_row_1(t):
    """Every row distributes, not commutative; from q = 16 associative on
    the basis triples."""
    t[-1] = t[1]


def _to_gf2(mul):
    """mul on uint64 arrays with its recursion run down to GF(2): a table
    width above 8 reads no table."""
    return lambda x, y, bits: mul(x, y, bits, None, 2 * nimber._TABLE_BITS)


TABLE_MULTIPLIERS = {
    "nim": _to_gf2(_mul),
    "xor": lambda x, y, bits: x ^ y,
    "and": lambda x, y, bits: x & y,
    "product mod 2^bits - 1": lambda x, y, bits: (x * y) % ((1 << bits) - 1),
    "tower constant 1 at h=2": _to_gf2(_mul_with_constant_1_at(2)),
    "tower constant 1 at h=4": _to_gf2(_mul_with_constant_1_at(4)),
    "dot product mod 2": _dot_mod_2,
}
TABLE_EDITS = [_flip_2_3, _flip_3_3, _last_row_copies_row_1]  # of the nim table


@pytest.mark.parametrize("q", [4, 16, 256])
@pytest.mark.parametrize("mul", [*TABLE_MULTIPLIERS.values(), *TABLE_EDITS],
                         ids=[*TABLE_MULTIPLIERS, *(f.__name__ for f in TABLE_EDITS)])
def test_field_check_table_laws_match_the_plane_scan(monkeypatch, mul, q):
    if mul in TABLE_EDITS:
        edited = nim_mul_table(q).astype(np.uint64)
        mul(edited)
        mul = lambda x, y, bits: edited[x, y]
    _inject_table(monkeypatch, mul)
    xs = np.arange(q, dtype=np.uint64)
    want = _plane_scan(mul(xs[:, None], xs[None, :], q.bit_length() - 1))
    checks = {c.name: c for c in field_check(q).checks}
    for law, triple in zip(("associativity", "distributivity"), want):
        got = checks[f"{law} (exhaustive)"]
        assert (got.status, got.witness) == (
            ("pass", None) if triple is None else ("fail", {"triple": triple}))


def test_field_check_mutants_reach_both_laws():
    # the differential test above compares failures, not only passes
    xs = np.arange(16, dtype=np.uint64)
    x, y = xs[:, None], xs[None, :]
    assert _plane_scan(TABLE_MULTIPLIERS["dot product mod 2"](x, y, 4)) == ([1, 2, 2], None)
    assert _plane_scan(TABLE_MULTIPLIERS["xor"](x, y, 4)) == (None, [1, 0, 0])


def test_field_check_passes_without_the_plane_scan(monkeypatch):
    # a field is decided on the basis: no passing run reaches the cubic scan
    def scan(t):
        raise AssertionError("the plane scan ran")

    monkeypatch.setattr(nimber, "_associativity_scan", scan)
    for q in (2, 4, 16, 256, 65536, 1 << 32):
        assert field_check(q).status == "pass"
        assert field_check(q, mode="sampled", samples=1000).status == "pass"


def test_field_check_non_closed_table_names_its_closure_witness(monkeypatch):
    # the integer product leaves [0, p): closure names its pair, associativity
    # cannot compose the table and is indeterminate, and distributivity,
    # which indexes the table by inputs only, still decides.  At p = 256
    # the table the laws read holds the products above 255 in wider entries
    mul = lambda x, y, bits, *table: x * y  # the sampled lanes pass table, table_bits and one
    monkeypatch.setattr(nimber, "_mul", mul)
    _inject_table(monkeypatch, mul)
    for rep, pair in ((field_check(4), [2, 2]),
                      (field_check(65536, mode="sampled", samples=1000), [2, 128])):
        closure, _, _, assoc, distrib = rep.checks[:5]
        assert rep.status == "fail"
        assert closure.witness == {"pair": pair, "product": pair[0] * pair[1]}
        assert assoc.name.startswith("associativity") and assoc.status == "indeterminate"
        assert "reason" in assoc.witness
        assert (distrib.status, distrib.witness) == ("fail", {"triple": [3, 1, 2]})
        assert 3 * (1 ^ 2) != (3 * 1) ^ (3 * 2)


def test_field_check_errors():
    with pytest.raises(InvalidParameterError):
        field_check(6)
    with pytest.raises(InvalidParameterError):
        field_check(16, mode="guess")
    assert field_check(65536, mode="exhaustive").status == "pass"  # no cap
    for q in (256, 65536):  # no vacuous pass, no numpy traceback
        with pytest.raises(InvalidParameterError):
            field_check(q, mode="sampled", samples=0)
        with pytest.raises(InvalidParameterError):
            field_check(q, mode="sampled", samples=-1)
        with pytest.raises(InputRangeError):  # 3 stream counters per triple leave uint64
            field_check(q, mode="sampled", samples=1 << 62)
