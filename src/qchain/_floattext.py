"""Shortest round-trip text of float64 arrays, exactly as ``float.__repr__``.

``repr_join(rows, seps)`` returns the text of
``"".join(repr(x) + sep for row in rows for x, sep in zip(row, seps))``
without one ``float.__repr__`` call per value.  The digits are Schubfach's
(R. Giulietti, "The Schubfach way to render doubles", 2020; the JDK's
``DoubleToDecimal``): the shortest decimal in the rounding interval of each
double, the closest of them to it, ties to an even last digit, which is
the decimal that CPython's ``repr`` prints.  They are found with exact
integer arithmetic on uint64 arrays: each 64x128-bit product that the
algorithm rounds to odd is formed from 32-bit halves, against a table of
126-bit approximations of 10^-k built from exact Python ints.

The text follows ``repr``'s layout: fixed notation for decimal exponents
-4 to 15, with ``.0`` after an integer, else ``d.ddde+XX`` or
``d.ddde-XX``; ``-0.0`` keeps its sign.  Every value of a block is written
into one byte matrix at fixed columns (sign, integer digits right-aligned,
point, fraction digits left-aligned, exponent, separator), with NUL in
each column a value does not use, and one pass deletes the NULs.

Every finite double is rendered, subnormals and zeros too: a subnormal's
c has no hidden bit and takes the exponent q = -1074 of the smallest
normals, and its digits, unlike a normal double's 15 to 17, may be as few
as one; a zero has c = 0 and no digits.  A nan or an inf has no digits,
and ``repr_join`` refuses it.

A block costs a fixed number of numpy calls whatever its size, and on a
few values that fixed cost is all of it, so the calls are kept few:

- every constant is a 0-d array of its operands' dtype, whose operations
  cost least;
- one ``take`` reads every constant that a double's exponent selects (the
  two words of g, the shift of c, k, the hidden bit and the products'
  offsets at the interval's ends, which also hold the uneven intervals,
  the subnormals and the zeros, so none needs a case of its own);
- the products of g1 and g0, the three values that Schubfach rounds to
  odd and the two candidates of ``_closest`` are each one stacked array;
- no division by an array splits a value's digits at its point in fixed
  notation, whose integer part is the double's own (see ``_parts``); only
  the exponent form divides d by a power of ten;
  the four-digit groups are split by one constant, and each takes its
  characters and the next group's NUL rule from two table lookups;
- each row of the byte matrix is one record of a structured dtype, one
  per layout, so a column is written in one call.
"""

from __future__ import annotations

import functools

import numpy as np

# values rendered per block: a block's largest arrays, its columns of the
# exponent table and its stacked products, stay under 1 MB each, whatever
# the size of the input
BLOCK = 8192

_K_MIN, _K_MAX = -324, 292  # the k of the powers 10^-k that finite doubles need


def _u64(x):
    return np.array(x, dtype=np.uint64)


def _i64(x):
    return np.array(x, dtype=np.int64)


_M32 = _u64(0xFFFF_FFFF)
_M63 = _u64((1 << 63) - 1)
_INF = 0x7FF0_0000_0000_0000  # the bits of inf; a nan's are above
_FRACTION = _u64((1 << 52) - 1)
_U1, _U2, _U7, _U10, _U32, _U40, _U52, _U63 = map(_u64, (1, 2, 7, 10, 32, 40, 52, 63))
_NOT3 = ~_u64(3)
_I2048, _I10K = _i64(2048), _i64(10_000)
# the rounding choice below the digit s, by vb & 7: up past the midpoint,
# or at it to an even s + 1
_ROUNDS_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=np.uint64)
_STEPS = _u64([[40], [4]])  # the spacings of one digit shorter and of s, times 4
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)
# 10^-e, or 1, by e + 20 for e in -20..16: d mod 10^-e is the fraction of
# d * 10^e, and d < 10^17
_DIVISORS = np.array([10 ** min(max(-e, 0), 18) for e in range(-20, 17)], dtype=np.int64)
# by a fraction's count of digits, what left-aligns it in 1 + 4 * r digits
# for r = 0..4; no digits (an integer) zero it
_ALIGN = np.array(
    [[0] + [10 ** max(1 + 4 * r - digits, 0) for digits in range(1, 18)] for r in range(5)],
    dtype=np.int64,
)
_FIRST = np.frombuffer(b"0123456789" + b"\0" * 10, dtype=np.uint8)  # digit, or NUL if bare

# offsets into the table of _quads(), after the four digits as they are:
# with their leading zeros as NUL, with their leading zeros but the last
# as NUL (twice _LEAD), and with their trailing zeros as NUL
_LEAD, _LEAD_BUT_LAST, _TRAIL = 10_000, 20_000, 30_000
# the fields of a row's four-digit groups, most significant first
_INT_FIELDS = ("int0", "int1", "int2", "int3")
_FRAC_FIELDS = ("frac0", "frac1", "frac2", "frac3")


def _flog10pow2(e):
    """floor(log10(2^e)), for |e| < 5,000,000."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _exponent_table() -> np.ndarray:
    """Schubfach's constants of each double's exponent as the columns of one
    uint64 array, indexed by the biased exponent, plus 2048 for a double
    with no fraction bits.  Its rows: g1 and g0, with g = g1 * 2^63 + g0 =
    floor(10^-k * 2^-r) + 1 in [2^125, 2^126) from exact ints; h + 2, the
    shift of c; k; the hidden bit; and the 128-bit offsets, high words then
    low words, of the products of g1 and of g0 at the interval's upper end
    and at its lower end from those at c: +g * 2^j and -g * 2^j', with
    j' = j - 1 below a power of two, whose interval is uneven.  Column 0,
    of the subnormals, has column 1's constants but no hidden bit: both
    have q = -1074.  Column 2048, of the zeros, is all zeros but k = -1, so
    that a zero has d = 0 and e = 0.  Built on the first call that needs
    it, not at import."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append(((num << shift) // den if shift >= 0 else num // (den << -shift)) + 1)
    bq = np.tile(np.arange(2048), 2)
    q = np.maximum(bq, 1) - 1075
    uneven = (np.arange(4096) >= 2048) & (bq > 1)
    k = np.where(uneven, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    row = k - _K_MIN
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)[row]
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)[row]
    h2 = (q + _flog2pow10(-k) + 4).astype(np.uint64)
    j = h2 - _U1
    ends = []
    for word in (g1, g0):
        for shift, sign in ((j, 1), (j - uneven.astype(np.uint64), -1)):
            low, high = word << shift, word >> (np.uint64(64) - shift)
            if sign < 0:  # the two's complement of the 128-bit high:low
                low, high = -low, ~high + (low == 0)
            ends.append((high, low))
    hidden = np.where(bq > 0, 1 << 52, 0).astype(np.uint64)
    table = np.stack([g1, g0, h2, k.astype(np.int64).view(np.uint64), hidden]
                     + [high for high, _ in ends] + [low for _, low in ends])
    table[:, 2048] = 0
    table[3, 2048] = (1 << 64) - 1  # k = -1
    return table


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999, as one uint32 in memory
    order, at offset 0 and at each offset _LEAD, _LEAD_BUT_LAST and _TRAIL;
    and, by the same index, the offset of the next group: _LEAD after a
    leading zero group, _TRAIL before a trailing one, else 0."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    trail = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] > 0
    lead = np.cumsum(nonzero, axis=1) > 0
    lead_but_last = lead.copy()
    lead_but_last[:, 3] = True
    chars = (digits + ord("0")).astype(np.uint8)
    kept = np.concatenate([np.ones_like(lead), lead, lead_but_last, trail])
    following = np.zeros(40_000, dtype=np.uint16)
    following[[_LEAD, _TRAIL]] = _LEAD, _TRAIL
    return (np.tile(chars, (4, 1)) * kept).view(np.uint32).ravel(), following


@functools.cache
def _exponents() -> np.ndarray:
    """ "e-324" to "e+308", NUL-padded to 8 bytes, each as one uint64, after
    eight NULs: entry x + 325 is the suffix of exponent x."""
    text = b"\0" * 8 + b"".join(f"e{x:+03d}".encode().ljust(8, b"\0") for x in range(-324, 309))
    return np.frombuffer(text, dtype=np.uint64)


def _round_odd(y1, y0, x1):
    """g * cp * 2^-127 rounded to odd, as the JDK's ``DoubleToDecimal.rop``
    forms it from g1 * cp = y1 * 2^64 + y0 and the high word x1 of g0 * cp."""
    z = (y0 >> _U1) + x1
    return (y1 + (z >> _U63)) | np.minimum(z << _U1, _U1)


def _scaled(c, cols):
    """vb, vbr and vbl as one (3, n) array: Schubfach's v and the upper and
    lower ends of its rounding interval times 4 * 10^-k, each rounded to
    odd.  v and the ends are c and c +- 1/2 (c - 1/4 below when uneven) in
    units of 2^q, so, scaled by 4 * 2^h, cp and cp +- 2^j: the products of
    g1 and g0 at cp, from 32-bit halves (g1, g0 < 2^63, cp < 2^59), plus the
    offsets of ``cols`` at the ends, with the carry from the low words."""
    cp = c << cols[2]
    cph, cpl = cp >> _U32, cp & _M32
    g = cols[:2]
    gh, gl = g >> _U32, g & _M32
    # [g1, g0] by [v, upper end, lower end]
    high, low = np.empty((2, 2, 3, c.size), dtype=np.uint64)
    np.add(gh * cph, (((gl * cpl) >> _U32) + gh * cpl + gl * cph) >> _U32, out=high[:, 0])
    np.multiply(g, cp, out=low[:, 0])
    ends = cols[5:].reshape(2, 2, 2, -1)
    np.add(low[:, :1], ends[1], out=low[:, 1:])
    np.add(high[:, :1], ends[0], out=high[:, 1:])
    high[:, 1:] += low[:, 1:] < ends[1]
    return _round_odd(high[0], low[0], high[1])


def _closest(vb, lower, upper):
    """Schubfach's choice of digits from vb and the interval's ends, in the
    units of vb: (d, shorter), the digits as d * 10^(k + shorter)."""
    s = vb >> _U2
    # one digit shorter: at most one of 10 * floor(s / 10) and the next
    # multiple of 10 lies in the interval; else s or s + 1: the one inside,
    # or, with both inside, the closer, ties to even
    sp = s // _U10
    below = np.empty((2, vb.size), dtype=np.uint64)
    np.multiply(sp, _U40, out=below[0])
    np.bitwise_and(vb, _NOT3, out=below[1])
    # whether the candidate above lies in the interval, and whether just one does
    inside = below + _STEPS <= upper
    one = (lower <= below) != inside
    rounds_up = np.where(one[1], inside[1], _ROUNDS_UP.take((vb & _U7).view(np.int64)))
    return np.where(one[0], sp + inside[0], s + rounds_up), one[0]


def _shortest(bits):
    """(d, e) with d * 10^e the shortest decimal in the rounding interval of
    each nonnegative finite double whose bits are given, and the closest to
    it of those, ties to even: Schubfach's digits.  d has 15 to 17 digits for
    a normal double, 1 to 17 for a subnormal, none (d = 0) for a zero, and
    may end in zeros."""
    t = bits & _FRACTION
    bq = (bits >> _U52).view(np.int64)
    # with no fraction bits, below a power of two the spacing of doubles
    # halves: an uneven interval
    cols = _exponent_table().take(bq + (t == 0) * _I2048, axis=1)
    c = t | cols[4]
    vb, vbr, vbl = _scaled(c, cols)
    # the interval's ends belong to it when c is even
    out = c & _U1
    d, shorter = _closest(vb, vbl + out, vbr - out)
    return d.view(np.int64), cols[3].view(np.int64) + shorter


def _groups(x, count):
    """The ``count`` four-digit groups of each int64 x < 10^(4 * count),
    least significant first."""
    groups = []
    for _ in range(count - 1):
        y = x // _I10K
        groups.append(x - y * _I10K)
        x = y
    return groups + [x]


def _group_chars(groups, offset, m, names):
    """Each group's characters into its field of ``m``, in order, the first
    at ``offset`` into the table of _quads() and each next at the offset the
    table gives; returns the offset after the last."""
    table, following = _quads()
    for group, name in zip(groups, names):
        index = group + offset
        m[name] = table.take(index)
        offset = following.take(index)
    return offset


@functools.cache
def _row(signed, int_quads, zeros, rest_quads, exp, tail):
    """The dtype of one row of a block's byte matrix: the fields of the
    sign, the integer part's groups, most significant first, the point and
    the zeros after it, the fraction's first digit, the rest of its groups,
    the exponent and the separator."""
    return np.dtype(
        [("sign", "u1")] * signed
        + [(name, "u4") for name in _INT_FIELDS[:int_quads]]
        + [("point", "u4" if zeros else "u1"), ("first", "u1")]
        + [(name, "u4") for name in _FRAC_FIELDS[:rest_quads]]
        + [("exp", "u8")] * exp
        + [("tail", tail)]
    )


# the point and the zeros after "0." by their count, and nothing, for the
# exponent form of a single digit
_POINTS = np.frombuffer(b".\0\0\0.0\0\0.00\0.000\0\0\0\0", dtype=np.uint32)


def repr_join(rows: np.ndarray, seps) -> str:
    """The text of each row's ``repr(x) + sep`` for each value x of the row
    and its column's separator, row after row.  ``rows`` is a native-endian
    float64 array read in row-major order, ``len(seps)`` values a row (a 1-D
    array of one column, or a 2-D array of rows); ``seps`` are one or more
    ASCII strings without NUL.  Raises ValueError, before any rendering, for
    another array or separator, and if ``rows`` holds a nan or an inf."""
    if not isinstance(rows, np.ndarray) or rows.dtype != np.dtype("=f8"):
        kind = rows.dtype if isinstance(rows, np.ndarray) else type(rows).__name__
        raise ValueError(f"repr_join renders native float64 arrays, not {kind}")
    joined = "".join(seps)
    if not seps or not joined.isascii() or "\0" in joined:
        raise ValueError(f"repr_join's separators are ASCII without NUL: {seps!r}")
    width = max(1, *map(len, seps))
    values = rows.ravel()
    # whole rows in every block, and at least one, however wide
    step = max(BLOCK // len(seps), 1) * len(seps)
    # each value's separator, NUL-padded to one width, for the largest block
    padded = "".join(sep.ljust(width, "\0") for sep in seps).encode("ascii")
    tails = np.frombuffer(padded * (min(step, values.size) // len(seps)), (np.void, width))
    text = b"".join(
        _render_block(values[start : start + step], tails)
        for start in range(0, values.size, step)
    )
    return text.decode("ascii")


def _parts(a):
    """The parts of each value's text in one block: a table of rows, by
    value, of its point's place (the count of its integer digits; less, the
    zeros after "0."), minus it, its count of fraction digits and its sign,
    with the block's maximum of each row; the integer part; the fraction,
    left-aligned in 1 + 4 * rest_quads digits, and rest_quads; and, if any
    value takes the exponent form, the index of each value's exponent into
    _exponents() (0 for none) and the mask of the bare single digits."""
    bits = a.view(np.uint64)
    mag = bits & _M63
    if np.maximum.reduce(mag) >= _INF:  # a nan's bits and an inf's are the largest
        raise ValueError("a nan or an inf has no digits to render")
    d, e = _shortest(mag)
    n = _POW10.searchsorted(d, side="right")  # d's digits
    # rows: the point's place (the value is 0.ddd * 10^point), minus it,
    # the fraction's digits from d, and the sign
    table = np.empty((4, a.size), dtype=np.int64)
    point = table[0]
    np.add(n, e, out=point)
    np.right_shift(bits, _U63, out=table[3].view(np.uint64))
    exponent = None
    most = _sizes(table, n)
    if most[0] > 16 or most[1] > 3:
        exp = (point > 16) | (point < -3)
        exponent = np.where(exp, point + 324, 0)
        point[exp] = 1  # d.ddd
        most = _sizes(table, n)
        e = point - n
    # the integer part in fixed notation is the double's, since whole
    # numbers below 2^53 are doubles and doubles above are whole numbers;
    # in the exponent form, d's first digit.  The fraction is d's other digits
    divisor = _DIVISORS.take(e + 20)
    magnitude = mag.view(np.float64)
    if exponent is None:
        whole = magnitude.astype(np.int64)
    else:
        whole = np.where(exp, d // divisor, np.where(exp, 0.0, magnitude).astype(np.int64))
    frac = d - whole * divisor
    bare = None if exponent is None else exp & (frac == 0)
    rest_quads = -(-max(most[2] - 1, 0) // 4)
    frac *= _ALIGN[rest_quads].take(table[2])
    return table, most, whole, frac, rest_quads, exponent, bare


def _sizes(table, n):
    """Rows 1 and 2 of ``table`` from its row 0, and each row's maximum."""
    np.negative(table[0], out=table[1])
    np.subtract(n, np.minimum(np.maximum(table[0], 0), n), out=table[2])
    return np.maximum.reduce(table, axis=1).tolist()


def _render_block(a, tails) -> bytes:
    """The text of one block of whole rows.  Each value's characters and
    separator go to fixed columns of a byte matrix, NUL where a value has
    no character, and the NULs are then deleted."""
    table, most, whole, frac, rest_quads, exponent, bare = _parts(a)
    signed = most[3] > 0
    int_quads = -(-max(most[0], 1) // 4)
    zeros = most[1] > 0 or (bare is not None and bool(bare.any()))
    layout = _row(signed, int_quads, zeros, rest_quads, exponent is not None, tails.dtype)
    m = np.empty(a.size, layout)
    if signed:
        np.multiply(table[3], ord("-"), out=m["sign"], casting="unsafe")
    groups = _groups(whole, int_quads)[::-1]
    offset = _group_chars(groups[:-1], _LEAD, m, _INT_FIELDS)
    # a last group led by zeros keeps its last one: _LEAD_BUT_LAST
    m[_INT_FIELDS[int_quads - 1]] = _quads()[0].take(groups[-1] + 2 * offset)
    if zeros:
        lead = np.maximum(table[1], 0)
        if bare is not None:
            lead[bare] = 4  # _POINTS[4]: no point
        m["point"] = _POINTS.take(lead)
    else:
        m["point"] = ord(".")
    groups = _groups(frac, rest_quads + 1)
    first = groups.pop()
    if bare is not None:
        first = first + 10 * bare
    m["first"] = _FIRST.take(first)
    _group_chars(groups, _TRAIL, m, _FRAC_FIELDS[:rest_quads][::-1])
    if exponent is not None:
        m["exp"] = _exponents().take(exponent)
    m["tail"] = tails[: a.size]
    return m.tobytes().translate(None, b"\0")
