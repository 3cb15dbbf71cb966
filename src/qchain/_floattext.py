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

Every finite double is rendered, subnormals too: a subnormal's c has no
hidden bit and takes the exponent q = -1074 of the smallest normals, and
its digits, unlike a normal double's 15 to 17, may be as few as one.  A
nan or an inf has no digits, and ``repr_join`` refuses it.
"""

from __future__ import annotations

import functools

import numpy as np

# values rendered per block: the arrays of one block stay near 64 kB each,
# whatever the size of the input
BLOCK = 8192

_K_MIN, _K_MAX = -324, 292  # the k of the powers 10^-k that finite doubles need
_M32 = np.uint64(0xFFFF_FFFF)
_M63 = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF0_0000_0000_0000)  # the bits of inf; a nan's are above
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_ONE = np.uint64(0x3FF0_0000_0000_0000)  # the bits of 1.0
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)

# offsets into the table of _quads(), after the four digits as they are:
# with their trailing zeros as NUL, with their leading zeros as NUL, and
# with their leading zeros but the last as NUL
_TRAIL, _LEAD, _LEAD_BUT_LAST = 10_000, 20_000, 30_000


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
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Schubfach's constants of each double's exponent, indexed by the biased
    exponent, plus 2048 for a double whose interval is uneven (a power of
    two): g1 and g0, with g = g1 * 2^63 + g0 = floor(10^-k * 2^-r) + 1 in
    [2^125, 2^126) from exact ints; k; and h + 2, the shift of c.  Row 0,
    of the subnormals, holds row 1's constants: both have q = -1074.  Built
    on the first call that needs them, not at import."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append(((num << shift) // den if shift >= 0 else num // (den << -shift)) + 1)
    q = np.maximum(np.tile(np.arange(2048), 2), 1) - 1075
    uneven = np.arange(4096) >= 2048
    k = np.where(uneven, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    row = k - _K_MIN
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)[row]
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)[row]
    shift = (q + _flog2pow10(-k) + 4).astype(np.uint64)
    return g1, g0, k, shift


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as one uint32 in memory
    order, at offset 0 and at each offset _TRAIL, _LEAD and _LEAD_BUT_LAST."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    trail = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] > 0
    lead = np.cumsum(nonzero, axis=1) > 0
    lead_but_last = lead.copy()
    lead_but_last[:, 3] = True
    chars = (digits + ord("0")).astype(np.uint8)
    kept = np.concatenate([np.ones_like(lead), trail, lead, lead_but_last])
    return (np.tile(chars, (4, 1)) * kept).view(np.uint32).ravel()


@functools.cache
def _exponents() -> np.ndarray:
    """ "e-324" to "e+308", NUL-padded to 8 bytes, each as one uint64, after
    eight NULs: entry x + 325 is the suffix of exponent x."""
    text = b"\0" * 8 + b"".join(f"e{x:+03d}".encode().ljust(8, b"\0") for x in range(-324, 309))
    return np.frombuffer(text, dtype=np.uint64)


def _round_odd(y1, y0, x1):
    """g * cp * 2^-127 rounded to odd, as the JDK's ``DoubleToDecimal.rop``
    forms it from g1 * cp = y1 * 2^64 + y0 and the high word x1 of g0 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _products(g1, g0, cp):
    """g1 * cp = y1 * 2^64 + y0 and g0 * cp = x1 * 2^64 + x0, exact, the
    high words from the products of 32-bit halves (g1, g0 < 2^63, cp < 2^59)."""
    cph = cp >> 32
    cpl = cp & _M32
    high = []
    for g in (g1, g0):
        gh = g >> 32
        gl = g & _M32
        high.append(gh * cph + ((((gl * cpl) >> 32) + gh * cpl + gl * cph) >> 32))
    return high[0], g1 * cp, high[1], g0 * cp


def _scaled(c, h2, g1, g0, uneven):
    """vb, vbl and vbr, Schubfach's v and the ends of its rounding interval
    times 4 * 10^-k, each rounded to odd: v and the ends are c and c +- 1/2
    (c - 1/4 below when uneven) in units of 2^q, so, scaled by 4 * 2^h,
    cp and cp +- 2^j.  The products at the ends are those at cp plus or
    minus g1 * 2^j and g0 * 2^j, as high and low words."""
    y1, y0, x1, x0 = _products(g1, g0, c << h2)
    vb = _round_odd(y1, y0, x1)
    j = h2 - np.uint64(1)
    up = np.uint64(64) - j
    a_lo, a_hi, b_lo, b_hi = g1 << j, g1 >> up, g0 << j, g0 >> up
    y0r = y0 + a_lo
    x0r = x0 + b_lo
    vbr = _round_odd(y1 + a_hi + (y0r < a_lo), y0r, x1 + b_hi + (x0r < b_lo))
    if uneven.any():
        j = j - uneven
        up = np.uint64(64) - j
        a_lo, a_hi, b_lo, b_hi = g1 << j, g1 >> up, g0 << j, g0 >> up
    vbl = _round_odd(y1 - a_hi - (y0 < a_lo), y0 - a_lo, x1 - b_hi - (x0 < b_lo))
    return vb, vbl, vbr


def _closest(vb, lower, upper):
    """Schubfach's choice of digits from vb and the interval's ends, in the
    units of vb: (d, shorter), the digits as d * 10^(k + shorter)."""
    s = vb >> np.uint64(2)
    # one digit shorter: at most one of 10 * floor(s / 10) and the next
    # multiple of 10 lies in the interval
    sp = s // np.uint64(10)
    sp40 = sp * np.uint64(40)
    wpin = sp40 + np.uint64(40) <= upper
    shorter = (lower <= sp40) != wpin
    # else s or s + 1: the one inside, or, with both inside, the closer, ties to even
    s4 = vb & ~np.uint64(3)
    win = s4 + np.uint64(4) <= upper
    mid = s4 + np.uint64(2)
    closer_up = (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool))
    rounds_up = np.where((lower <= s4) != win, win, closer_up)
    return np.where(shorter, sp + wpin, s + rounds_up), shorter


def _shortest(bits, any_subnormal):
    """(d, e) with d * 10^e the shortest decimal in the rounding interval of
    each positive finite double whose bits are given, and the closest to it
    of those, ties to even: Schubfach's digits.  d has 15 to 17 digits for
    a normal double, 1 to 17 for a subnormal, and may end in zeros."""
    t = bits & _FRACTION
    c = t | _HIDDEN
    bq = bits >> 52
    if any_subnormal:  # no hidden bit below the normals
        c = np.where(bq == 0, t, c)
    # below a power of two the spacing of doubles halves: an uneven interval
    uneven = (t == 0) & (bq > 1)
    row = (bq | (uneven.astype(np.uint64) << 11)).view(np.int64)
    g1, g0, k, h2 = (table.take(row) for table in _exponent_tables())
    vb, vbl, vbr = _scaled(c, h2, g1, g0, uneven)
    # the interval's ends belong to it when c is even
    out = c & np.uint64(1)
    d, shorter = _closest(vb, vbl + out, vbr - out)
    return d, k + shorter


def _quads_of(x, count):
    """The ``count`` four-digit groups of each int64 x < 10^(4 * count),
    most significant first."""
    quads = []
    for _ in range(count - 1):
        y = x // 10_000
        quads.append(x - y * 10_000)
        x = y
    if count:
        quads.append(x)
    return quads[::-1]


def _integer_chars(x, count):
    """The ASCII digits of each x as ``count`` uint32 columns, right-aligned,
    with NUL for each leading zero but a last one."""
    table = _quads()
    columns = []
    leading = np.ones(x.shape, dtype=bool)  # every group so far is zero
    for i, quad in enumerate(_quads_of(x, count)):
        offset = _LEAD_BUT_LAST if i == count - 1 else _LEAD
        columns.append(table.take(quad + offset * leading))
        leading &= quad == 0
    return columns


def _fraction_chars(x, count):
    """The ASCII digits of each x as ``count`` uint32 columns, with NUL for
    each trailing zero."""
    table = _quads()
    columns = []
    trailing = np.ones(x.shape, dtype=bool)  # every group after this one is zero
    for quad in _quads_of(x, count)[::-1]:
        columns.append(table.take(quad + _TRAIL * trailing))
        trailing &= quad == 0
    return columns[::-1]


# the point and the zeros after "0." by their count, and nothing, for the
# exponent form of a single digit
_POINTS = np.frombuffer(b".\0\0\0.0\0\0.00\0.000\0\0\0\0", dtype=np.uint32)


def repr_join(rows: np.ndarray, seps) -> str:
    """The text of each row's ``repr(x) + sep`` for each value x of the row
    and its column's separator, row after row.  ``rows`` is a float64 array
    read in row-major order, ``len(seps)`` values a row (a 1-D array of one
    column, or a 2-D array of rows); ``seps`` are ASCII strings without
    NUL.  Raises ValueError if ``rows`` holds a nan or an inf."""
    width = max(map(len, seps))
    padded = "".join(sep.ljust(width, "\0") for sep in seps).encode("ascii")
    tails = np.frombuffer(padded, np.uint8).reshape(len(seps), width)
    values = rows.ravel()
    # whole rows in every block, and at least one, however wide
    step = max(BLOCK // len(seps), 1) * len(seps)
    text = b"".join(
        _render_block(values[start : start + step], tails)
        for start in range(0, values.size, step)
    )
    return text.decode("ascii")


def _parts(a):
    """The parts of each value's text in one block: the sign; the integer
    part, with the count of its four-digit groups; the point and the zeros
    after "0." as an index into _POINTS; the fraction's first digit as a
    character (NUL where none is printed); the rest of the fraction, left-
    aligned in its count of groups; and, if any value takes the exponent
    form, the index of each value's exponent into _exponents() (0 for none)."""
    bits = a.view(np.uint64)
    negative = bits > _M63
    bits = bits & _M63
    any_zero = any_subnormal = False
    # one test for the rare values: less 2^52, a zero or a subnormal wraps
    # round to inf's bits or above, where a nan's and an inf's stay
    if (bits - _HIDDEN >= _INF - _HIDDEN).any():
        if (bits >= _INF).any():
            raise ValueError("a nan or an inf has no digits to render")
        zero = bits == 0
        any_zero = zero.any()
        # a zero is rendered as 1.0, then its digit is set to 0
        bits = np.where(zero, _ONE, bits)
        any_subnormal = (bits < _HIDDEN).any()
    d, e = _shortest(bits, any_subnormal)
    if any_subnormal:  # the only doubles whose digits may be fewer than 15
        n = _POW10.searchsorted(d, side="right").astype(np.int64)
    else:
        n = (d >= _POW10[15]).astype(np.int64) + (d >= _POW10[16]) + 15
    point = n + e  # the value is 0.ddd * 10^point
    exp = (point < -3) | (point > 16)
    any_exp = bool(exp.any())
    # the integer part is d's first `split` digits, padded with zeros to
    # `point` digits; the fraction is the rest
    split = np.minimum(np.maximum(point, 0), n)
    if any_exp:
        split = np.where(exp, 1, split)
    below = _POW10.take(n - split)
    whole = d // below
    frac = d - whole * below
    pad = point - split
    if any_exp:
        pad = np.where(exp, 0, pad)
    whole *= _POW10.take(np.maximum(pad, 0))
    if any_zero:
        whole = np.where(zero, np.uint64(0), whole)
    # the fraction's first digit, always printed in the fixed form, and the rest
    rest_digits = np.maximum(n - split - 1, 0)
    below = _POW10.take(rest_digits)
    first = frac // below
    rest = frac - first * below
    first = first.astype(np.uint8) + np.uint8(ord("0"))
    int_digits = np.maximum(point, 1)
    lead = np.maximum(-point, 0)  # the zeros after "0."
    exponent = None
    if any_exp:
        int_digits = np.where(exp, 1, int_digits)
        # the exponent form of a single digit has no point: _POINTS[4]
        bare = exp & (frac == 0)
        lead = np.where(exp, 4 * bare, lead)
        first[bare] = 0
        exponent = np.where(exp, point + 324, 0)
    int_quads = -(-int(int_digits.max()) // 4)
    rest_quads = -(-int(rest_digits.max()) // 4)
    rest *= _POW10.take(4 * rest_quads - rest_digits)
    return negative, whole, int_quads, lead, first, rest, rest_quads, exponent


def _render_block(a, tails) -> bytes:
    """The text of one block of whole rows.  Each value's characters and
    separator go to fixed columns of a byte matrix, NUL where a value has
    no character, and the NULs are then deleted."""
    negative, whole, int_quads, lead, first, rest, rest_quads, exponent = _parts(a)
    signed = bool(negative.any())
    zeros = bool(lead.any())
    rows = a.size
    width = (
        signed + 4 * int_quads + (4 if zeros else 1) + 1 + 4 * rest_quads
        + (0 if exponent is None else 8) + tails.shape[1]
    )
    m = np.empty((rows, width), dtype=np.uint8)
    col = 0

    def put(chars, size):
        nonlocal col
        m[:, col : col + size].view(chars.dtype)[:, 0] = chars
        col += size

    if signed:
        put(negative.view(np.uint8) * np.uint8(ord("-")), 1)
    for chars in _integer_chars(whole.view(np.int64), int_quads):
        put(chars, 4)
    if zeros:
        put(_POINTS.take(lead), 4)
    else:
        put(np.full(rows, ord("."), dtype=np.uint8), 1)
    put(first, 1)
    for chars in _fraction_chars(rest.view(np.int64), rest_quads):
        put(chars, 4)
    if exponent is not None:
        put(_exponents().take(exponent), 8)
    m.reshape(rows // len(tails), len(tails), width)[:, :, col:] = tails
    return m.tobytes().translate(None, b"\0")
