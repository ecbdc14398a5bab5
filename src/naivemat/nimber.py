"""Nim arithmetic on plain integers.

Nim addition is the coefficientwise mod-2 sum of binary expansions, i.e.
bitwise xor.  Nim multiplication is Conway's recursive product

    a (x) b = mex { a' (x) b  ^  a (x) b'  ^  a' (x) b'  :  a' < a, b' < b }

which turns [0, 2^(2^a)) into a field for every Fermat 2-power 2^(2^a).
One multiplier serves every caller: the Fermat splitting rule, which
halves the width down to GF(2), where the product is x & y; from width 8
up it stops instead at the GF(256) product table, 65,536 bytes that the
same rule builds on first use in one call on ints packing every pair into
a byte lane.  So products in GF(2), GF(4) and GF(16) read no table.  The
multiplier runs on ints and on ints packing values into lanes, where it
takes a level in two calls on half lanes rather than four wherever its
leaf reads every half lane, and keeps no memo, so its memory does not
grow with use.  field_check decides
exactly that GF(q) is a field for every Fermat q up to 2^32: the laws of
the GF(p) table, p = min(q, 256), read with bytes slicing, translate and
big-int xor, with distributivity and associativity decided on the basis
rather than on all p^3 triples, and one trace per tower level.  Its
sampled mode draws triples from a counter-indexed splitmix64 stream,
computed in 128-bit lanes of one int, and multiplies them in byte lanes,
about 50 KB of lanes at a time.  No module of the package imports numpy.
Values are capped at 63 bits.

Every function is pure; the table is built once and read-only after, so
calls are safe from concurrent readers.
"""

from __future__ import annotations

import functools
import math
import time

from .errors import InputRangeError, InvalidParameterError
from .report import INDETERMINATE, Check, VerificationReport

VALUE_BITS = 63
_SAMPLE_CHUNK = 1 << 10  # sampled triples checked per batch in field_check
_LEAF_BITS = 4  # sampled products end at the GF(16) table, read a byte lane at a time


def _check_value(x: int, what: str = "value") -> int:
    if x < 0 or (x >> VALUE_BITS):
        raise InputRangeError(f"{what} must be a nonnegative {VALUE_BITS}-bit integer, got {x}")
    return x


def nim_mul(a: int, b: int) -> int:
    """Nim product by the Fermat splitting rule."""
    a = _check_value(a, "a")
    b = _check_value(b, "b")
    return _mul(a, b, _bits(a | b))


# ---------------------------------------------------------------------------
# the multiplier
# ---------------------------------------------------------------------------

_TABLE_BITS = 8
_table: bytes | None = None  # GF(256) products, built on first use


def _bits(top: int) -> int:
    """The least Fermat width 2^m >= 1 with top < 2^(2^m)."""
    bits = 1
    while top >> bits:
        bits *= 2
    return bits


def _gf256() -> bytes:
    """The GF(256) product table, entry (a << 8) | b = a (x) b."""
    global _table
    if _table is None:
        _table = _products(_TABLE_BITS)
    return _table


def _products(bits: int) -> bytes:
    """The 2^bits x 2^bits nim product table as bytes, entry (a << bits) | b
    = a (x) b, for bits <= 8: one _mul call on ints that pack every pair
    into a byte lane, with a table width above 8, so the recursion runs down
    to GF(2).  Its leaf x & y reads lanes of any width, so every level
    takes the half-lane step: _products(8) reaches x & y 8 times."""
    p = 1 << bits
    ramp = bytes(range(p))
    x = int.from_bytes(b"".join(ramp[a:a + 1] * p for a in range(p)), "little")
    y = int.from_bytes(ramp * p, "little")
    one = int.from_bytes(b"\x01" * (p * p), "little")
    return _mul(x, y, bits, None, 2 * _TABLE_BITS, one).to_bytes(p * p, "little")


def _mul(x, y, bits: int, table=None, table_bits: int = _TABLE_BITS, one=1):
    """x (x) y for x, y below 2^bits, a Fermat width.

    x and y are ints, or ints that pack values into lanes of at least bits
    bits, with `one` holding 1 in every lane: every step stays within its
    lane, so one call multiplies every lane.  Nothing in it is specific to
    ints, so the tests also run it on uint64 arrays.  With F = 2^(bits/2),
    x = x1*F + x0 and y = y1*F + y0,
    the field identity F (x) F = F + F/2 gives, Karatsuba-style,

        x (x) y = (mid + lo)*F + lo + hi (x) F/2

    where lo = x0 (x) y0, hi = x1 (x) y1, mid = (x0 + x1) (x) (y0 + y1) and
    + is xor.  The recursion ends in GF(2), where the product is x & y, or,
    from width table_bits up, in `table`, the products of GF(2^table_bits)
    at (x << table_bits) | y: by default the GF(256) bytes, which the
    top-level call fetches and passes down; field_check's sampled mode
    passes the GF(16) products read in byte lanes (_LaneTable).

    On packed lanes (one != 1) a step takes the four sub-products in two
    calls on half lanes of h bits: x and y already hold x0 below x1 in
    every lane, so one call gives lo and hi side by side, and a second,
    on x0 + x1 beside hi and y0 + y1 beside F/2, gives mid beside
    hi (x) F/2.  So a packed 32-bit product reads the GF(16) leaf 16
    times, not 64.  It runs only where the leaf reads every half lane:
    x & y (table_bits above bits), or a lane table once a half lane holds
    a leaf index (h >= 2 table_bits).  The sub-products and leaf reads
    are the same, grouped differently, so no product changes.  Scalars
    and uint64 arrays (one == 1) have no lanes to halve, and their
    table reads one entry per element whatever the width, so they keep
    the four-call step.
    """
    if bits == 1:
        return x & y
    if bits >= table_bits and table is None:
        table = _gf256()
    if bits == table_bits:
        return table[(x << table_bits) | y]
    h = bits // 2
    low = (one << h) - one  # 2^h - 1 in every lane
    if one != 1 and (bits < table_bits or h >= 2 * table_bits):  # the leaf reads every half lane
        half = one | (one << h)
        both = _mul(x, y, h, table, table_bits, half)  # lo in the low halves, hi in the high
        lo = both & low
        pair = _mul(((x ^ (x >> h)) & low) | (both ^ lo), ((y ^ (y >> h)) & low) | (one << (2 * h - 1)),
                    h, table, table_bits, half)  # mid in the low halves, hi (x) F/2 in the high
        return (((pair ^ lo) & low) << h) ^ lo ^ ((pair >> h) & low)
    x1, x0, y1, y0 = (x >> h) & low, x & low, (y >> h) & low, y & low
    lo = _mul(x0, y0, h, table, table_bits, one)
    hi = _mul(x1, y1, h, table, table_bits, one)
    mid = _mul(x0 ^ x1, y0 ^ y1, h, table, table_bits, one)
    return ((mid ^ lo) << h) ^ lo ^ _mul(hi, one << (h - 1), h, table, table_bits, one)


# ---------------------------------------------------------------------------
# greediness of the nim sum
# ---------------------------------------------------------------------------

def greediness_lemma_holds(a: int, b: int, c: int) -> bool:
    """Whether c < a^b implies a^c < b or b^c < a (vacuously true otherwise).

    It must read only the signs of c - a^b, a^c - b and b^c - a:
    verify.lemma_exhaustive decides it for every width from one triple per
    sign state."""
    a = _check_value(a, "a")
    b = _check_value(b, "b")
    c = _check_value(c, "c")
    return c >= (a ^ b) or (a ^ c) < b or (b ^ c) < a


# ---------------------------------------------------------------------------
# Fermat fields
# ---------------------------------------------------------------------------

def is_fermat_two_power(q: int) -> bool:
    """True iff q = 2^(2^a) for some a >= 0, i.e. q in {2, 4, 16, 256, ...}."""
    if q < 2 or q & (q - 1):
        return False
    e = q.bit_length() - 1
    return e & (e - 1) == 0


# ---------------------------------------------------------------------------
# field structure check
# ---------------------------------------------------------------------------

_LANE = 128  # bits a drawn value takes: a 64-bit state times a 64-bit constant fits
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter step


@functools.lru_cache(maxsize=1)
def _lanes(count: int) -> tuple[int, int]:
    """1, and i * _GAMMA, in lane i of count lanes of _LANE bits: cached,
    since field_check draws every full chunk with one count."""
    ones, steps, n = 1, 0, 1  # for the first n lanes
    while n < count:
        steps |= (steps + n * _GAMMA * ones) << (_LANE * n)
        ones |= ones << (_LANE * n)
        n *= 2
    top = (1 << _LANE * count) - 1
    return ones & top, steps & top


def _draw(start: int, count: int, q: int) -> int:
    """Values start, ..., start + count - 1 of the splitmix64 stream from
    counter 0 (Steele, Lea & Flood, OOPSLA 2014), reduced mod q, a power of
    2, so uniform on [0, q): value i mixes (i + 1) * _GAMMA.  Value
    start + i is lane i of the int returned, _LANE bits a lane.  Each value
    depends on its index alone, so any split into chunks draws the same
    values.

    Every lane is kept below 2^64 between steps, so each product by a
    64-bit constant stays in its lane; a right shift brings the next lane's
    low bits down, so the shifted term is masked before it is multiplied."""
    ones, steps = _lanes(count)
    lanes = (ones << 64) - ones  # 2^64 - 1 in every lane
    z = (steps + ((start + 1) * _GAMMA & ((1 << 64) - 1)) * ones) & lanes
    z = (z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9 & lanes
    z = (z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB & lanes
    return (z ^ (z >> 31)) & ((ones << (q.bit_length() - 1)) - ones)


def _triples(start: int, count: int, q: int, width: int) -> list[int]:
    """Triples start, ..., start + count - 1 as three ints a, b, c, each
    packing its values into lanes of `width` bytes: triple i is stream
    values 3i, 3i + 1 and 3i + 2 (_draw), which lie below q <= 2^(8 width)."""
    size = _LANE // 8  # bytes a drawn value
    drawn = _draw(3 * start, 3 * count, q).to_bytes(3 * count * size, "little")
    out = []
    for v in range(3):
        lanes = bytearray(width * count)
        for k in range(width):  # byte k of every lane
            lanes[k::width] = drawn[v * size + k::3 * size]
        out.append(int.from_bytes(lanes, "little"))
    return out


class _LaneTable:
    """A product table read in byte lanes: indexed by a packed int holding
    (x << h) | y in the low byte of each lane and 0 elsewhere, it gives
    x (x) y in the same lanes, one bytes.translate for every lane at once.
    So _mul multiplies packed ints with this as its table."""

    def __init__(self, table: bytes):
        self.table = table  # 256 bytes, entry (x << h) | y; entry 0 keeps a lane's high bytes 0

    def __getitem__(self, packed: int) -> int:
        raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        return int.from_bytes(raw.translate(self.table), "little")


def _witness(diff: int, lane: int, *values: int) -> list[int] | None:
    """None if diff is 0, else the values in the first lane of lane bits
    where diff is nonzero."""
    at = _first_lane([diff], lane)
    if at is None:
        return None
    mask = (1 << lane) - 1
    return [(v >> at * lane) & mask for v in values]


def _trace(c: int, h: int) -> int:
    """Tr(c) = c + c^2 + c^4 + ... + c^(2^(h-1)) in GF(2^h), squaring with _mul."""
    out = 0
    for _ in range(h):
        out, c = out ^ c, _mul(c, c, h)
    return out


def _first(u, v) -> int | None:
    """The first index at which the sequences u and v differ, or None."""
    return next((i for i, (s, t) in enumerate(zip(u, v)) if s != t), None)


def _first_lane(ints, lane: int) -> int | None:
    """The least index of a lane-bit lane that is nonzero in any of ints,
    or None if every lane is zero."""
    d = 0
    for v in ints:
        d |= v
    return ((d & -d).bit_length() - 1) // lane if d else None


def _distributivity(rows, cols: list[int], lane: int) -> list[int] | None:
    """The first (a, b, c) in row-major order with a(b + c) != ab + ac in the
    product table with these rows, or None; cols[b] holds t[a, b] in its
    lane a of lane bits.

    Row a distributes over + iff it is additive on the basis, t[a, b + 2^k]
    = t[a, b] + t[a, 2^k] for every b and k (induct on the bits of c), that
    is, iff it is the linear map spanned by its values at the 2^k.  That
    map's columns are xors of the columns at the 2^k, one big-int xor each
    for every row at once.  Only the first failing row's plane is
    evaluated, since every earlier row distributes."""
    span = [0]
    while len(span) < len(cols):  # span[b + 2^k] = span[b] + column 2^k
        basis = cols[len(span)]
        span += [v ^ basis for v in span]
    a = _first_lane((s ^ c for s, c in zip(span, cols)), lane)
    if a is None:
        return None
    ta = rows[a]
    return next([a, b, c] for b in range(len(ta)) for c in range(len(ta))
                if ta[b ^ c] != ta[b] ^ ta[c])


def _basis_associative(t, p: int, bits: int) -> bool:
    """Whether (ab)c = a(bc) in the closed p-by-p table t on the bits^3
    triples of basis elements 2^i, 2^j, 2^k."""
    e = [1 << i for i in range(bits)]
    return all(t[t[i * p + j] * p + k] == t[i * p + t[j * p + k]]
               for i in e for j in e for k in e)


def _associativity_scan(t: bytes) -> list[int] | None:
    """The first (a, b, c) in row-major order with (ab)c != a(bc) in the
    closed product table t, or None: the cubic scan, plane a by plane a,
    which stops at the first failing plane.  Plane a of (ab)c joins the
    rows t[ab], and plane a of a(bc) is t translated through row a."""
    p = math.isqrt(len(t))
    rows = [t[a * p:(a + 1) * p] for a in range(p)]
    pad = bytes(256 - p)  # translate reads a 256-byte table
    for a, ta in enumerate(rows):
        left, right = b"".join(rows[v] for v in ta), t.translate(ta + pad)
        if left != right:
            return [a, *divmod(_first(left, right), p)]
    return None


def field_check(q: int, mode: str = "exhaustive", samples: int = 1_000_000) -> VerificationReport:
    """Decide exactly whether [0, q) under nim arithmetic is a field.

    The table laws (closure, identity, commutativity, associativity,
    distributivity, and inverses: a 1 in every nonzero row) hold on all of
    GF(p), p = min(q, 256), so GF(p) is a field and _mul computes it.
    Every triple is decided and, on a pass, none is enumerated.  The laws
    read the table as bytes, entry a*p + b: row a is a slice, column b a
    strided slice, and the columns packed into ints give every row's
    closure and additivity in a few big-int operations.  Row a
    distributes over + iff it is additive on the basis (_distributivity).
    Given closure, commutativity and distributivity the product is
    bilinear over GF(2), so (ab)c and a(bc) are trilinear and agree
    everywhere iff they agree on the log2(p)^3 basis triples.  Only when
    that premise or a basis triple fails does the plane scan look for the
    first failing triple; without closure (ab)c may leave the table, so
    associativity is indeterminate.
    Above p, _mul's width-2h step is, term for term, the product in
    GF(F)[X]/(X^2 + X + c), F = 2^h, where c = F (x) F + F: for c < F a
    field iff X^2 + X + c has no root in GF(F), i.e. iff Tr(c) = 1.  The
    level check asks this at each F = 256, 65536 below q and names the
    first failing level; passing, it makes each [0, F^2) a field in turn.
    Exhaustive counts state q^3.  Sampled mode adds associativity and
    distributivity of the tower product on `samples` triples over [0, q),
    never the verdict: an exact pass implies them, and a failure names its
    first triple drawn.  Triple i is values 3i, 3i+1 and 3i+2 of the
    splitmix64 stream from counter 0 (_draw), checked _SAMPLE_CHUNK triples
    at a time, so the triples and the witness do not depend on the chunking
    and memory does not grow with samples, which must be below 2^62.  A
    chunk's a, b and c are each one int packing their values into lanes of
    max(1, log2(q)/8) bytes, and _mul multiplies every lane at once, down
    to GF(16), whose products it reads with one bytes.translate a call
    (_LaneTable); _first_lane names the first failing triple.
    """
    if not is_fermat_two_power(q):
        raise InvalidParameterError(f"field order must be a Fermat 2-power, got {q}")
    if (q - 1) >> VALUE_BITS:
        raise InputRangeError(f"elements of GF({q}) exceed the {VALUE_BITS}-bit value domain")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    if mode == "sampled" and samples >> 62:  # the stream's counters, 3 per triple, are 64-bit
        raise InputRangeError(f"samples must be below 2^62, got {samples}")

    start = time.perf_counter()
    report = VerificationReport(subject=f"nim field q={q}")
    p = min(q, 1 << _TABLE_BITS)
    bits = _bits(p - 1)
    t = _gf256() if p == 1 << _TABLE_BITS else _products(bits)
    lane = 8 * memoryview(t).itemsize  # bytes; wider lanes only hold a table that is not closed
    rows = [t[a * p:(a + 1) * p] for a in range(p)]
    cols = [t[b::p] for b in range(p)]
    packed = [int.from_bytes(c, "little") for c in cols]  # t[a, b] in lane a of packed[b]
    high = ((1 << lane) - p) * (((1 << lane * p) - 1) // ((1 << lane) - 1))  # lane bits >= p
    closure = _first_lane([c & high for c in packed], lane)
    if closure is not None:  # the first product >= p in that row
        closure = next([closure, b, v] for b, v in enumerate(rows[closure]) if v >= p)
    identity = _first(rows[1], range(p))
    commute = next(([a, _first(rows[a], cols[a])] for a in range(p) if rows[a] != cols[a]), None)
    inverse = next((a for a in range(1, p) if 1 not in rows[a]), None)
    distrib = _distributivity(rows, packed, lane)
    assoc = None
    if closure is None and not (commute is None and distrib is None
                                and _basis_associative(t, p, bits)):
        assoc = _associativity_scan(t)
    del rows, cols, packed  # freed before any sample is drawn

    span, sub = ("[0,q)", "") if q == p else (f"[0,{p})", f" in GF({p})")  # above 256: GF(256)
    report.add(f"closure of {span} under nim product", closure is None,
               closure and {"pair": closure[:2], "product": closure[2]})
    report.add("1 is the multiplicative identity" + sub, identity is None, {"element": identity})
    report.add("commutativity" + sub, commute is None, {"pair": commute})
    if closure is None:
        report.add(f"associativity{sub} (exhaustive)", assoc is None, {"triple": assoc})
    else:
        report.checks.append(Check(f"associativity{sub} (exhaustive)", INDETERMINATE, {
            "reason": "the product leaves the table, so (ab)c is not defined on it"}))
    report.add(f"distributivity{sub} (exhaustive)", distrib is None, {"triple": distrib})
    report.add("every nonzero element has an inverse" + sub, inverse is None, {"element": inverse})

    levels, level = [f for f in (1 << 8, 1 << 16) if f < q], None  # q <= 2^32
    for f in levels:  # the first failing level is the witness
        h = f.bit_length() - 1
        c = _mul(f, f, 2 * h) ^ f
        trace = _trace(c, h) if c < f else None
        if trace != 1:
            level = {"F": f, "c": c, "trace": trace}
            break
    if levels:
        report.add("X^2 + X + c irreducible over GF(F), Tr(c) = 1, at tower levels F = "
                   + ", ".join(map(str, levels)), level is None, level)

    if mode == "sampled":  # fixed-size chunks, so memory does not grow with samples
        bits = _bits(q - 1)
        width = max(1, bits // 8)  # bytes a lane
        table = _LaneTable(_products(_LEAF_BITS))
        assoc = distrib = None
        for done in range(0, samples, _SAMPLE_CHUNK):
            n = min(_SAMPLE_CHUNK, samples - done)
            a, b, c = _triples(done, n, q, width)
            one = int.from_bytes(b"\x01".ljust(width, b"\0") * n, "little")
            lanes = bits, table, _LEAF_BITS, one
            ab = _mul(a, b, *lanes)
            if assoc is None:
                assoc = _witness(_mul(ab, c, *lanes) ^ _mul(a, _mul(b, c, *lanes), *lanes),
                                 8 * width, a, b, c)
            if distrib is None:
                distrib = _witness(_mul(a, b ^ c, *lanes) ^ ab ^ _mul(a, c, *lanes),
                                   8 * width, a, b, c)
        for law, bad in (("associativity", assoc), ("distributivity", distrib)):
            report.add(f"{law} of the tower product ({samples} sampled triples)", bad is None,
                       {"triple": bad})
    report.counts = {"q": q, "mode": mode, "triples": q ** 3 if mode == "exhaustive" else samples}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
