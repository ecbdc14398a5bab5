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
multiplier runs unchanged on ints, on packed ints and on uint64 arrays and
keeps no memo, so its memory does not grow with use.  field_check decides
exactly that GF(q) is a field for every Fermat q up to 2^32: the laws of
the GF(p) table, p = min(q, 256), read with bytes slicing, translate and
big-int xor, with distributivity and associativity decided on the basis
rather than on all p^3 triples, and one trace per tower level.  numpy is
imported only by its sampled mode, which draws triples from a
counter-indexed splitmix64 stream, not numpy.random, in chunks of tens of
KB.  Values are capped at 63 bits so all arithmetic stays in native
machine words.

Every function is pure; the table is built once and read-only after, so
calls are safe from concurrent readers.
"""

from __future__ import annotations

import math
import time

from .errors import InputRangeError, InvalidParameterError
from .report import INDETERMINATE, Check, VerificationReport

VALUE_BITS = 63
_SAMPLE_CHUNK = 1 << 12  # sampled triples checked per batch in field_check


def _check_value(x: int, what: str = "value") -> int:
    if x < 0 or (x >> VALUE_BITS):
        raise InputRangeError(f"{what} must be a nonnegative {VALUE_BITS}-bit integer, got {x}")
    return x


def nim_mul(a: int, b: int) -> int:
    """Nim product by the Fermat splitting rule."""
    a = _check_value(a, "a")
    b = _check_value(b, "b")
    return int(_mul(a, b, _bits(a | b)))


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
    to GF(2)."""
    p = 1 << bits
    ramp = bytes(range(p))
    x = int.from_bytes(b"".join(ramp[a:a + 1] * p for a in range(p)), "little")
    y = int.from_bytes(ramp * p, "little")
    one = int.from_bytes(b"\x01" * (p * p), "little")
    return _mul(x, y, bits, None, 2 * _TABLE_BITS, one).to_bytes(p * p, "little")


def _mul(x, y, bits: int, table=None, table_bits: int = _TABLE_BITS, one=1):
    """x (x) y for x, y below 2^bits, a Fermat width.

    x and y are ints or uint64 arrays (broadcast together), or ints that
    pack values into lanes of at least bits bits, with `one` holding 1 in
    every lane: every step stays within its lane, so one call multiplies
    every lane.  An array result is uint64, since products of 63-bit values
    can reach 2^64.  With F = 2^(bits/2), x = x1*F + x0 and y = y1*F + y0,
    the field identity F (x) F = F + F/2 gives, Karatsuba-style,

        x (x) y = (mid + lo)*F + lo + hi (x) F/2

    where lo = x0 (x) y0, hi = x1 (x) y1, mid = (x0 + x1) (x) (y0 + y1) and
    + is xor.  The recursion ends in GF(2), where the product is x & y, or,
    from width table_bits up, in `table`, the products of GF(2^table_bits)
    at (x << table_bits) | y: for ints the GF(256) bytes, which the
    top-level call fetches and passes down; array callers pass them as a
    uint64 array.
    """
    if bits == 1:
        return x & y
    if bits >= table_bits and table is None:
        table = _gf256()
    if bits == table_bits:
        return table[(x << table_bits) | y]
    h = bits // 2
    low = (one << h) - one  # 2^h - 1 in every lane
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

def _bad(ok: np.ndarray, *values) -> list[int] | None:
    """None if ok holds everywhere, else the values (broadcast to ok's
    shape) where it first fails."""
    if ok.all():
        return None
    import numpy as np

    at = np.unravel_index(np.argmin(ok), ok.shape)
    return [int(np.broadcast_to(v, ok.shape)[at]) for v in values]


def _draw(start: int, count: int, q: int) -> np.ndarray:
    """Values start, ..., start + count - 1 of the splitmix64 stream from
    counter 0 (Steele, Lea & Flood, OOPSLA 2014), reduced mod q, a power of
    2, so uniform on [0, q): value i mixes (i + 1) * 0x9e3779b97f4a7c15.
    Each value depends on its index alone, so any split into chunks draws
    the same values."""
    import numpy as np

    z = (np.arange(start + 1, start + count + 1, dtype=np.uint64)
         * np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) & np.uint64(q - 1)


def _trace(c: int, h: int) -> int:
    """Tr(c) = c + c^2 + c^4 + ... + c^(2^(h-1)) in GF(2^h), squaring with _mul."""
    out = 0
    for _ in range(h):
        out, c = out ^ c, int(_mul(c, c, h))
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
    and memory does not grow with samples, which must be below 2^62.  Only
    this mode imports numpy.
    """
    if not is_fermat_two_power(q):
        raise InvalidParameterError(f"field order must be a Fermat 2-power, got {q}")
    if (q - 1) >> VALUE_BITS:
        raise InputRangeError(f"elements of GF({q}) exceed the {VALUE_BITS}-bit value domain")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    if mode == "sampled" and samples >> 62:  # the stream's counters, 3 per triple, are uint64
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
        c = int(_mul(f, f, 2 * h)) ^ f
        trace = _trace(c, h) if c < f else None
        if trace != 1:
            level = {"F": f, "c": c, "trace": trace}
            break
    if levels:
        report.add("X^2 + X + c irreducible over GF(F), Tr(c) = 1, at tower levels F = "
                   + ", ".join(map(str, levels)), level is None, level)

    if mode == "sampled":  # fixed-size chunks, so memory does not grow with samples
        import numpy as np

        table = np.array(memoryview(_gf256()), dtype=np.uint64)  # array products read it
        bits = _bits(q - 1)
        assoc = distrib = None
        for done in range(0, samples, _SAMPLE_CHUNK):  # triple i is values 3i, 3i+1, 3i+2
            n = min(_SAMPLE_CHUNK, samples - done)
            a, b, c = _draw(3 * done, 3 * n, q).reshape(n, 3).T
            ab = _mul(a, b, bits, table)
            assoc = assoc or _bad(_mul(ab, c, bits, table)
                                  == _mul(a, _mul(b, c, bits, table), bits, table), a, b, c)
            distrib = distrib or _bad(_mul(a, b ^ c, bits, table)
                                      == ab ^ _mul(a, c, bits, table), a, b, c)
        for law, bad in (("associativity", assoc), ("distributivity", distrib)):
            report.add(f"{law} of the tower product ({samples} sampled triples)", bad is None,
                       {"triple": bad})
    report.counts = {"q": q, "mode": mode, "triples": q ** 3 if mode == "exhaustive" else samples}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
