"""Shortest round-trip decimal text of float64 arrays, vectorized in numpy.

`format_rows(a)` gives, for each row of a 2-D array of finite doubles, the
text `json.dumps(row.tolist())[1:-1]`: each value's `repr`, joined by ", ".
The digits are those of Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020): the shortest decimal inside the value's rounding
interval, the closest one when several are, ties to an even last digit,
found with a 126-bit power-of-ten table and 64-bit integer multiplies. The
layout is Python's `repr`: exponent form when the decimal exponent of the
leading digit is below -4 or above 15, else positional.

All integer work is on uint64 (or int64) arrays, whose products wrap
modulo 2**64 without a warning; a uint64 array is never mixed with an
int64 one, which numpy would promote to float64. The tables are built on
first use. A call works through its values CHUNK at a time, so its
scratch stays near 1 MB whatever the shape of `a`.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

CHUNK = 4096  # values per pass; a pass holds about 260 bytes of scratch per value

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M52 = _U((1 << 52) - 1)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of g(k) that doubles need

# A value's text is its copy of _ROW, less the columns its layout does not
# keep: the separator, the sign, "0.000" (for values below 1), the digits
# before the decimal point, the point, the digits after it, "e", and the
# exponent's sign and three digits (one little-endian uint32). Both digit
# blocks hold the value's significant digits from the left, then zeros.
_DIGITS = 17
_ROW = np.frombuffer(b", -0.000" + b"0" * _DIGITS + b"." + b"0" * _DIGITS + b"e+000", dtype=np.uint8)
_BEFORE, _AFTER, _E = 8, 9 + _DIGITS, 9 + 2 * _DIGITS  # first columns of the blocks
_DECPT = 330  # decpt + _DECPT lies in [0, 2 * _DECPT) for every double: decpt is in [-323, 310]
_PLACES = 22  # of the point: -3..16 digits from the left, then exponents of 2 and of 3 digits
_GROUP_BASE = 10000 * np.arange(5, dtype=np.int64)[:, None]


class _Tables(NamedTuple):
    g1: np.ndarray  # high 63 bits of g(k), k from _K_MIN
    g0: np.ndarray  # low 63 bits of g(k)
    pow10: np.ndarray  # 10**0 .. 10**19
    quads: np.ndarray  # the 4 ASCII digits of 0..9999, one uint32 each
    # [10000 j + g]: how many digits of an 18-digit number precede and include the last nonzero
    # one of g > 0, its group j of four digits (group 0 starts with two leading zeros); 0 for g = 0
    tails: np.ndarray
    keys: np.ndarray  # [(2 nsig + negative) * 2 _DECPT + decpt + _DECPT]: the layout of such a value
    exponents: np.ndarray  # [decpt + _DECPT]: the sign and 3 digits of the exponent decpt - 1
    keep: np.ndarray  # [layout]: the columns of _ROW each layout keeps
    lengths: np.ndarray  # [layout]: how many columns it keeps


@functools.cache
def _tables() -> _Tables:
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125  # floor(-k log2(10)) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1  # floor(10**-k / 2**r) + 1, which has 126 bits
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    n = np.arange(10000)
    quad = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    last = np.where(quad != 0, np.arange(1, 5), 0).max(axis=1)  # digits of g up to its last nonzero one
    tails = np.where(n != 0, 4 * np.arange(5)[:, None] - 2 + last, 0)

    # A layout is the sign, the number of significant digits and the place
    # of the point: 0..19 for -3..16 digits from the left, else 20 or 21
    # for an exponent of 2 or 3 digits.
    decpt = np.arange(-_DECPT, _DECPT)
    place = np.where((decpt <= -4) | (decpt > 16), np.where(np.abs(decpt - 1) < 100, 20, 21), decpt + 3)
    keys = (np.arange(2 * (_DIGITS + 1))[:, None] * _PLACES + place).ravel()
    exponent = np.abs(decpt - 1)
    exponents = np.where(decpt < 1, ord("-"), ord("+")) + (ord("0") << 8) * 0x10101 + (
        exponent // 100 << 8) + (exponent // 10 % 10 << 16) + (exponent % 10 << 24)

    keep = np.zeros((2 * (_DIGITS + 1) * _PLACES, len(_ROW)), dtype=bool)
    for key in range(2 * _PLACES, len(keep)):
        row, (nsig, neg), place = keep[key], divmod(key // _PLACES, 2), key % _PLACES
        row[:2] = True
        row[2] = neg
        if place >= 20:  # d.ddde-XX
            row[_BEFORE] = True
            row[_AFTER + 1:_AFTER + nsig] = True
            row[_AFTER - 1] = nsig > 1
            row[_E:_E + 2] = True
            row[_E + 23 - place:_E + 5] = True
            continue
        decpt = place - 3
        if decpt <= 0:  # 0.00ddd
            row[3:5 - decpt] = True
            row[_AFTER:_AFTER + nsig] = True
        else:  # ddd.ddd or ddd00.0
            row[_BEFORE:_BEFORE + decpt] = True
            row[_AFTER - 1] = True
            row[_AFTER + decpt:_AFTER + max(nsig, decpt + 1)] = True
    return _Tables(np.array(g1, dtype=_U), np.array(g0, dtype=_U),
                   np.array([10 ** i for i in range(20)], dtype=_U),
                   np.ascontiguousarray(quad.astype(np.uint8) + ord("0")).view("<u4").ravel(),
                   tails.astype(np.int8).ravel(), keys.astype(np.intp), exponents.astype("<u4"), keep,
                   keep.sum(axis=1))


def _mul(a0, a1, b0, b1):
    """(high, low) 64 bits of the product of a = a1 * 2**32 + a0 < 2**63 and b = b1 * 2**32 + b0 < 2**63."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (mid << 32) | (p00 & _M32)


def _rop(x1, y1, y0):
    """Schubfach's rounded-to-odd g * cp / 2**127, from the high word x1 of
    g0 * cp and the words (y1, y0) of g1 * cp, g = g1 * 2**63 + g0."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _decimal(bits):
    """(f, k): the shortest decimal f * 10**k of each finite nonzero double `bits`."""
    tables = _tables()
    bq = (bits >> 52) & _U(0x7FF)
    t = bits & _M52
    c = t | ((bq != 0).astype(_U) << _U(52))
    q = np.maximum(bq.astype(np.int64), 1) - 1075

    # The interval of c * 2**q: from (4c - 2) / 4 to (4c + 2) / 4 ulps, or
    # from (4c - 1) / 4 where c = 2**52 and the exponent below is a wider one.
    wide = (t == 0) & (bq > 1)
    del bq, t  # here and below: scratch is freed once it is used
    k = (q * 661971961083 - np.where(wide, 274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U)
    del q
    g1, g0 = tables.g1.take(k - _K_MIN), tables.g0.take(k - _K_MIN)
    cp = c << (h + _U(2))
    c0, c1 = cp & _M32, cp >> 32
    del cp
    x1, x0 = _mul(g0 & _M32, g0 >> 32, c0, c1)
    y1, y0 = _mul(g1 & _M32, g1 >> 32, c0, c1)
    del c0, c1
    vb = _rop(x1, y1, y0)
    # g * (4c + 2) 2**h and g * (4c - 2 or 1) 2**h, from g * 4c 2**h and g shifted
    shift = h + _U(1)
    back = _U(64) - shift
    low0, low1 = x0 + (g0 << shift), y0 + (g1 << shift)
    vbr = _rop(x1 + (g0 >> back) + (low0 < x0), y1 + (g1 >> back) + (low1 < y0), low1)
    shift -= wide.astype(_U)
    back = _U(64) - shift
    low0, low1 = g0 << shift, g1 << shift
    vbl = _rop(x1 - (g0 >> back) - (x0 < low0), y1 - (g1 >> back) - (y0 < low1), y0 - low1)
    del x0, x1, y0, y1, low0, low1, g0, g1, back
    out = c & _U(1)
    vbl += out
    vbr -= out
    s = vb >> _U(2)

    # A multiple of ten alone in the interval gives one digit less.
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = tp10 << _U(2) <= vbr
    tens = (s >= _U(10)) & (upin != wpin)

    # Else s or s + 1: the one in the interval, or the closer, ties to even.
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & _U(1)) == 1)))
    return np.where(tens, np.where(upin, sp10, tp10), s + up.astype(_U)), k


def _format(values: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """The text of `values` (1-D float64), each value's repr after ", ",
    and the length of each value's part of it."""
    tables = _tables()
    if not np.isfinite(values).all():
        raise ValueError(f"cannot write the non-finite value {values[~np.isfinite(values)][0]!r} as JSON")
    bits = values.view(_U)
    zero = (bits << _U(1)) == 0
    f, k = _decimal(np.where(zero, _U(1), bits))
    f[zero] = 0
    k[zero] = 0

    # The digits of f from the left: bytes 2..19 of five groups of four.
    ndigits = np.maximum(np.searchsorted(tables.pow10, f, side="right"), 1)
    f = (f * tables.pow10.take(18 - ndigits)).astype(np.int64)
    groups = np.empty((5, len(f)), dtype=np.int64)
    for j in range(4, 0, -1):
        rest = f // 10000
        groups[j] = f - rest * 10000
        f = rest
    groups[0] = f
    nsig = np.maximum(tables.tails.take(groups + _GROUP_BASE).max(axis=0), 1)
    decpt = ndigits + k + _DECPT
    key = tables.keys.take((nsig * 2 + (bits >> _U(63)).astype(np.intp)) * (2 * _DECPT) + decpt)

    text = np.empty((len(values), len(_ROW)), dtype=np.uint8)
    text[:] = _ROW
    digits = tables.quads.take(groups.T).view(np.uint8)[:, 2:2 + _DIGITS]
    text[:, _BEFORE:_BEFORE + _DIGITS] = digits
    text[:, _AFTER:_AFTER + _DIGITS] = digits
    text.view("<u4")[:, -1] = tables.exponents.take(decpt)
    keep = tables.keep.take(key, axis=0)
    # 1024 rows at a time, as the index of the bytes kept takes 8 bytes per byte
    return b"".join(text[s:s + 1024].ravel().take(np.flatnonzero(keep[s:s + 1024])).tobytes()
                    for s in range(0, len(text), 1024)), tables.lengths.take(key)


def format_rows(a, widths: Optional[Sequence[int]] = None) -> List[str]:
    """`json.dumps(row.tolist())[1:-1]` for each row of the 2-D float64
    array `a`, byte for byte. With `widths` (positive, summing to the row
    length), each row is cut into runs of those lengths and the text of
    every run is given, row by row. Raises ValueError on a NaN or an
    infinity."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need a 2-D array of rows, got shape {a.shape}")
    n, m = a.shape
    if m == 0:
        return [""] * n
    widths = [m] if widths is None else list(widths)
    if sum(widths) != m or min(widths) < 1:
        raise ValueError(f"run widths {widths} do not cut rows of {m} values")
    values = a.reshape(-1)
    texts, lengths = [], []
    for start in range(0, values.size, CHUNK):
        text, length = _format(values[start:start + CHUNK])
        texts.append(text)
        lengths.append(length)
    if not texts:
        return []
    # where each run's text ends, its first value's ", " left out
    last = (np.arange(n)[:, None] * m + np.cumsum(widths) - 1).ravel()
    ends = np.cumsum(np.concatenate(lengths))[last].tolist()
    text = b"".join(texts).decode("ascii")
    return [text[start + 2:end] for start, end in zip([0] + ends, ends)]
