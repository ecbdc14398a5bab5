"""Nim arithmetic on plain integers.

Nim addition is the coefficientwise mod-2 sum of binary expansions, i.e.
bitwise xor.  Nim multiplication is Conway's recursive product

    a (x) b = mex { a' (x) b  ^  a (x) b'  ^  a' (x) b'  :  a' < a, b' < b }

which turns [0, 2^(2^a)) into a field for every Fermat 2-power 2^(2^a).
One multiplier serves every caller: the Fermat splitting rule, applied
down to a GF(256) product table that the same rule builds from GF(2) on
first use.  It runs unchanged on ints and on uint64 arrays and keeps no
memo, so its memory does not grow with use.  The mex recursion itself
survives only as nim_mul_table, the reference the multiplier is checked
against.  Values are capped at 63 bits so all arithmetic stays in native
machine words.

Every function is pure; the table is built once and read-only after, so
calls are safe from concurrent readers.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .errors import InputRangeError, InvalidParameterError, ResourceLimitError
from .report import VerificationReport

VALUE_BITS = 63
MEX_INPUT_BOUND = 1 << 12
EXHAUSTIVE_FIELD_CAP = 256
_SAMPLE_CHUNK = 1 << 16  # sampled triples checked per batch in field_check


def _check_value(x: int, what: str = "value") -> int:
    if x < 0 or (x >> VALUE_BITS):
        raise InputRangeError(f"{what} must be a nonnegative {VALUE_BITS}-bit integer, got {x}")
    return x


def nim_add(a: int, b: int) -> int:
    """Nim sum: coefficientwise mod-2 addition of binary expansions (xor)."""
    return _check_value(a, "a") ^ _check_value(b, "b")


def nim_mul(a: int, b: int) -> int:
    """Nim product by the Fermat splitting rule."""
    a = _check_value(a, "a")
    b = _check_value(b, "b")
    return int(_mul(a, b, _bits(a | b)))


# ---------------------------------------------------------------------------
# the multiplier
# ---------------------------------------------------------------------------

_TABLE_BITS = 8
_table: np.ndarray | None = None  # GF(256) products, built on first use


def _bits(top: int) -> int:
    """The least Fermat width 2^m >= 8 with top < 2^(2^m)."""
    bits = _TABLE_BITS
    while top >> bits:
        bits *= 2
    return bits


def _gf256() -> np.ndarray:
    """The 256x256 nim product table, built by the splitting rule from GF(2)."""
    global _table
    if _table is None:
        t, bits = np.array([[0, 0], [0, 1]], dtype=np.uint8), 1
        while bits < _TABLE_BITS:
            xs = np.arange(1 << (2 * bits), dtype=np.uint8)
            t = _mul(xs[:, None], xs[None, :], 2 * bits, t, bits)
            bits *= 2
        t = t.astype(np.uint64)  # products above GF(256) need 64 bits
        t.setflags(write=False)
        _table = t
    return _table


def _mul(x, y, bits: int, table=None, table_bits: int = _TABLE_BITS):
    """x (x) y for x, y below 2^bits, a Fermat width >= table_bits.

    x and y are ints or uint64 arrays (broadcast together); the result is
    uint64, since products of 63-bit values can reach 2^64.  With
    F = 2^(bits/2), x = x1*F + x0 and y = y1*F + y0, the field identity
    F (x) F = F + F/2 gives, Karatsuba-style,

        x (x) y = (mid + lo)*F + lo + hi (x) F/2

    where lo = x0 (x) y0, hi = x1 (x) y1, mid = (x0 + x1) (x) (y0 + y1) and
    + is xor; the recursion ends in `table`, the products of
    GF(2^table_bits).
    """
    if table is None:
        table = _gf256()
    if bits == table_bits:
        return table[x, y]
    h = bits // 2
    low = (1 << h) - 1
    x1, x0, y1, y0 = x >> h, x & low, y >> h, y & low
    lo = _mul(x0, y0, h, table, table_bits)
    hi = _mul(x1, y1, h, table, table_bits)
    mid = _mul(x0 ^ x1, y0 ^ y1, h, table, table_bits)
    return ((mid ^ lo) << h) ^ lo ^ _mul(hi, 1 << (h - 1), h, table, table_bits)


def _inverse(x, q: int):
    """x^(q-2) by square and multiply: the inverse of nonzero x in GF(q)."""
    bits = _bits(q - 1)
    out, e = 1, q - 2
    while e:
        if e & 1:
            out = _mul(out, x, bits)
        x = _mul(x, x, bits)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# mex reference
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def nim_mul_table(n: int) -> np.ndarray:
    """The n-by-n nim product table, filled bottom-up by the mex recursion.

    This is the reference the splitting-rule multiplier is checked against.
    Cost grows like n^4, so n is capped at 2^12; the returned array is
    cached and read-only.
    """
    if n < 1 or n > MEX_INPUT_BOUND:
        raise InputRangeError(f"table size must be in [1, {MEX_INPUT_BOUND}], got {n}")
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
# greediness of the nim sum
# ---------------------------------------------------------------------------

def greediness_lemma_holds(a: int, b: int, c: int) -> bool:
    """Whether c < a^b implies a^c < b or b^c < a (vacuously true otherwise)."""
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


class FermatField:
    """GF(q) for a Fermat 2-power q, realised on the integers [0, q).

    Addition is xor, multiplication is the nim product; [0, q) is closed
    under both, which field_check verifies independently.
    """

    def __init__(self, q: int):
        if not is_fermat_two_power(q):
            raise InvalidParameterError(f"field order must be 2^(2^a) (2, 4, 16, 256, ...), got {q}")
        if (q - 1) >> VALUE_BITS:
            raise InputRangeError(f"elements of GF({q}) exceed the {VALUE_BITS}-bit value domain")
        self.q = q
        self.a_exponent = (q.bit_length() - 1).bit_length() - 1

    def __repr__(self) -> str:
        return f"FermatField(q={self.q})"

    @property
    def elements(self) -> range:
        return range(self.q)

    def _check(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise InputRangeError(f"element {x} outside [0, {self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        return self._check(x) ^ self._check(y)

    def mul(self, x: int, y: int) -> int:
        return int(_mul(self._check(x), self._check(y), _bits(self.q - 1)))

    def inv(self, x: int) -> int:
        """x^(q-2), the inverse of nonzero x."""
        if self._check(x) == 0:
            raise InputRangeError("0 has no multiplicative inverse")
        return int(_inverse(x, self.q))


# ---------------------------------------------------------------------------
# field structure check
# ---------------------------------------------------------------------------

def _bad(ok: np.ndarray, *values) -> list[int] | None:
    """None if ok holds everywhere, else the values (broadcast to ok's
    shape) where it first fails."""
    if ok.all():
        return None
    at = np.unravel_index(np.argmin(ok), ok.shape)
    return [int(np.broadcast_to(v, ok.shape)[at]) for v in values]


def _pair_laws(x: np.ndarray, y: np.ndarray, xs: np.ndarray, q: int,
               bits: int) -> tuple[np.ndarray, list]:
    """The products x (x) y, and the first failures (or None) of closure
    and commutativity on the pairs (x, y) and of the identity and the
    inverses on the elements xs."""
    xy = _mul(x, y, bits)
    nonzero = xs[xs != 0]
    return xy, [_bad(xy < q, x, y, xy),
                _bad(_mul(1, xs, bits) == xs, xs),
                _bad(xy == _mul(y, x, bits), x, y),
                _bad(_mul(nonzero, _inverse(nonzero, q), bits) == 1, nonzero)]


def field_check(q: int, mode: str = "exhaustive", samples: int = 1_000_000,
                seed: int = 0) -> VerificationReport:
    """Verify that [0, q) under nim arithmetic behaves like a field.

    Associativity and distributivity run over every triple in exhaustive
    mode (capped at q <= 256) and over `samples` seeded triples in sampled
    mode.  Closure, identity, commutativity and inverses run over all of
    [0, q) while q <= 256, where the q-by-q table is cheap, and over the
    sampled elements above it; an inverse is checked as x (x) x^(q-2) = 1.
    """
    if not is_fermat_two_power(q):
        raise InvalidParameterError(f"field order must be a Fermat 2-power, got {q}")
    if (q - 1) >> VALUE_BITS:
        raise InputRangeError(f"elements of GF({q}) exceed the {VALUE_BITS}-bit value domain")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "exhaustive" and q > EXHAUSTIVE_FIELD_CAP:
        raise ResourceLimitError(f"exhaustive field check is capped at q <= {EXHAUSTIVE_FIELD_CAP}")
    if mode == "sampled" and samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")

    start = time.perf_counter()
    report = VerificationReport(subject=f"nim field q={q}")
    bits = _bits(q - 1)
    # the pair laws cover all of [0, q) while the q-by-q table is cheap,
    # else the samples; the check names say which
    whole = q <= EXHAUSTIVE_FIELD_CAP
    scope = "" if whole else f" ({samples} sampled)"
    pair_laws, assoc, distrib = [None] * 4, None, None  # first failures
    if whole:
        xs = np.arange(q, dtype=np.uint64)
        x, y = xs[:, None], xs[None, :]
        xy, pair_laws = _pair_laws(x, y, xs, q, bits)

    if mode == "exhaustive":  # plane by plane through the q-by-q table
        t, b_xor_c = xy.astype(np.intp), (x ^ y).astype(np.intp)  # intp gathers fastest
        laws = " (exhaustive)"
        for i in range(q):
            ti = t[i]
            assoc = assoc or _bad(t[ti] == ti[t], i, x, y)  # (i*b)*c = i*(b*c)
            distrib = distrib or _bad(ti[b_xor_c] == (ti[:, None] ^ ti[None, :]), i, x, y)
    else:  # fixed-size chunks of seeded triples, so memory does not grow with samples
        laws = f" ({samples} sampled triples)" if whole else scope
        rng = np.random.default_rng(seed)
        for done in range(0, samples, _SAMPLE_CHUNK):
            a, b, c = rng.integers(0, q, size=(3, min(_SAMPLE_CHUNK, samples - done)),
                                   dtype=np.uint64)
            if not whole:
                pair_laws = [old or new for old, new in zip(pair_laws, _pair_laws(a, b, a, q, bits)[1])]
            ab = _mul(a, b, bits)
            assoc = assoc or _bad(_mul(ab, c, bits) == _mul(a, _mul(b, c, bits), bits), a, b, c)
            distrib = distrib or _bad(_mul(a, b ^ c, bits) == ab ^ _mul(a, c, bits), a, b, c)

    closure, identity, commute, inverse = pair_laws
    report.add("closure of [0,q) under nim product", closure is None,
               closure and {"pair": closure[:2], "product": closure[2]})
    report.add("1 is the multiplicative identity", identity is None,
               identity and {"element": identity[0]})
    report.add("commutativity" + scope, commute is None, {"pair": commute})
    report.add("associativity" + laws, assoc is None, {"triple": assoc})
    report.add("distributivity" + laws, distrib is None, {"triple": distrib})
    report.add("every nonzero element has an inverse" if whole else
               "sampled nonzero elements have inverses", inverse is None,
               inverse and {"element": inverse[0]})
    report.counts = {"q": q, "mode": mode, "triples": q ** 3 if mode == "exhaustive" else samples}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
