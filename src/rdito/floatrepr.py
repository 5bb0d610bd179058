"""repr's text for arrays of doubles, computed in numpy.

reprs(values) is the repr of each value in C order, byte for byte, and from
_FEWEST values on it calls no repr.  The digits are the shortest decimal that reads back to the
same double, the closest to it of those; this is what repr takes from David
Gay's dtoa.  They are found by Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) on the IEEE bits of all values at once.  For each
binary exponent Ryu has a 125-bit multiplier, a power of 5 or its
reciprocal, and a shift j: floor(4m * mul / 2^j) is the significand m in
decimal with a few digits to spare, and the same at 4m + 2 and 4m - 1 (or
4m - 2) bounds the decimals that round to the double.  Here those products
are exact, formed from 32-bit limbs in uint64 arithmetic.  Digits are
dropped while the bounds still differ above them, and the last is rounded.
Where a bound or the value is itself a short decimal (a significand with
few set low bits, such as an integer's), Ryu's general loop runs on just
those values; it keeps a bound that the double includes and breaks ties to
even.

The text is laid out as repr lays it out: fixed notation for
1e-4 <= |x| < 1e16, with ".0" on an integral value; otherwise d.ddde-XX,
with at least two exponent digits; and -0.0, inf, -inf and nan.  A value's
text is three 64-bit words, bytes in reading order.  Its 17 digits are
put in place twice under masks (as they are, and shifted past the point),
beside a literal (point, leading zeros) and the exponent.  All of these
depend only on the number of digits and the decimal exponent, so they are
one row of a small table; a minus sign then shifts the text by one byte.
The words become str objects through numpy's UCS-4 strings, a slice at a
time.

Below _FEWEST values numpy's cost per call exceeds repr's, so repr itself
writes them.  The tables are built on the first numpy call, not at import.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_U64 = np.uint64
_LOW32 = 0xFFFFFFFF
_POW10 = np.array([10 ** k for k in range(20)], _U64)
_POW5 = np.array([5 ** k for k in range(22)], _U64)
_SCI = 20  # layout class of scientific notation; fixed notation's decimal points -3..16 are 0..19
_SPECIAL = (_SCI + 1) * 18  # first layout row of 0.0, inf and nan
_FEWEST = 512  # fewest values formatted in numpy: below, its per-call cost exceeds repr's
_STR_SLICE = 512  # values turned into str objects at once
_WORD_BITS = np.array([[0], [64], [128]], np.uint16)  # where each word of a text starts


def _text24(text: str) -> bytes:
    """Up to 24 bytes of text, NUL-padded; NUL is a hole."""
    return text.encode("latin-1").ljust(24, b"\0")


def _mask24(lo: int, hi: int) -> bytes:
    """The mask of bytes lo..hi-1 of a text."""
    return _text24("\0" * lo + "\xff" * (hi - lo))


def _word_rows(raw: bytes) -> np.ndarray:
    """Texts of 24 bytes each, one after another: word w of text i at [w, i]."""
    return np.frombuffer(raw, "<u8").reshape(-1, 3).T.astype(_U64, order="C")


@functools.cache
def _tables() -> SimpleNamespace:
    """Ryu's multiplier, shift and decimal exponent per biased binary
    exponent, and the layout rows: about 81 KB, built in about 2 ms."""
    e2 = np.maximum(np.arange(2048), 1) - 1077  # the value is 4m * 2^e2 / 4
    pos = e2 >= 0
    q = np.where(pos, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    five = np.where(pos, q, -e2 - q)  # the power of 5 in the multiplier
    bits = (five * 1217359 >> 19) + 1  # of 5^five
    shift = (np.where(pos, q - e2 + bits + 124, q - bits + 125) - 96).astype(np.uint8)  # 22..29
    # per power of 5: 2^(bits + 124) / 5^q rounded up (e2 >= 0), 5^i to 125 bits (e2 < 0)
    mul, pow5 = bytearray(), 1
    for k in range(five.max() + 1):
        size = pow5.bit_length()
        inv = (1 << (size + 124)) // pow5 + 1
        top = pow5 >> (size - 125) if size >= 125 else pow5 << (125 - size)
        mul += inv.to_bytes(16, "little") + top.to_bytes(16, "little")
        pow5 *= 5
    limbs = np.frombuffer(mul, np.uint32).reshape(-1, 4)[2 * five + ~pos].T.copy()
    # 4m 2^e2 / 10^q is exact when 2^q divides 4m (e2 < 0); for e2 >= 0 and
    # q <= 21, or e2 < 0 and q <= 1, a bound can be exact too (rare)
    zero_bits = np.where(~pos & (q < 63), q, 63).astype(np.uint8)
    rare = np.where(pos & (q <= 21), 1, np.where(~pos & (q <= 1), 2, 0)).astype(np.int8)
    e10 = np.where(pos, q, q + e2).astype(np.int16)
    del e2, q, five, bits, mul

    # unsigned text = (D & keep) | (D << k2 & moved) | literal | exponent << at,
    # where D is the 17 digits, '0'-padded after the significant ones
    rows = [_layout_row(cls, max(nd, 1)) for cls in range(_SCI + 1) for nd in range(18)]
    rows += [(0, 64, (0, 0), (0, 0), text) for text in ("0.0", "inf", "nan")]
    k2, at, keep, moved, literal = zip(*rows)
    exp = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(-324, 309))
    return SimpleNamespace(
        limbs=list(limbs), shift=shift, e10=e10, zero_bits=zero_bits, rare=rare,
        k2=8 * np.array(k2, np.uint8), at=8 * np.array(at, np.uint16),
        keep=_word_rows(b"".join(_mask24(*span) for span in keep)),
        moved=_word_rows(b"".join(_mask24(*span) for span in moved)),
        literal=_word_rows(b"".join(map(_text24, literal))),
        exp=np.frombuffer(exp, "<u8").astype(_U64))


def _layout_row(cls: int, n: int):
    """(k2, at, keep, moved, literal) of an unsigned text of n significant
    digits in layout class cls: D's shift in bytes, the exponent's first byte
    (64: none), the byte spans taken from D and from D << k2, and the rest."""
    if cls == _SCI:  # d.ddde-XX
        return 1, n + (n > 1), (0, 1), (2, n + 1), "\0" + "." * (n > 1)
    if cls >= 4:  # the decimal point after digit p, '0'-padded to one digit after it
        p = cls - 3
        return 1, 64, (0, p), (p + 1, max(n, p + 1) + 1), "\0" * p + "."
    return 5 - cls, 64, (0, 0), (5 - cls, 5 - cls + n), "0." + "0" * (3 - cls)  # 0.000ddd


def _general(vr, vp, vm, vr_exact, vm_exact, even):
    """Ryu's digit loop where the value or its lower bound vm is exact:
    (digits, digits removed)."""
    removed = np.zeros(len(vr), np.int64)
    last = np.zeros(len(vr), _U64)
    while True:  # drop digits while the bounds differ above them
        vp10, vm10 = vp // 10, vm // 10
        go = vp10 > vm10
        if not go.any():
            break
        vr10 = vr // 10
        vm_exact &= ~go | (vm == vm10 * 10)
        vr_exact &= ~go | (last == 0)
        last = np.where(go, vr - vr10 * 10, last)
        vr, vp, vm = np.where(go, vr10, vr), np.where(go, vp10, vp), np.where(go, vm10, vm)
        removed += go
    while True:  # an exact lower bound the double includes: drop its zeros
        vm10 = vm // 10
        go = vm_exact & (vm == vm10 * 10) & (vm > 0)
        if not go.any():
            break
        vr10 = vr // 10
        vr_exact &= ~go | (last == 0)
        last = np.where(go, vr - vr10 * 10, last)
        vr, vp, vm = np.where(go, vr10, vr), np.where(go, vp // 10, vp), np.where(go, vm10, vm)
        removed += go
    last[vr_exact & (last == 5) & (vr % 2 == 0)] = 4  # a tie: round to even
    return vr + (((vr == vm) & ~(even & vm_exact)) | (last >= 5)), removed


def _shortest(bits: np.ndarray):
    """Ryu's shortest decimal digits * 10**exponent of each finite nonzero
    double `bits` (uint64): (digits, exponent).  Arrays are reused in place
    where they can be, which bounds the memory a call holds."""
    t = _tables()
    biased = (bits >> 52).astype(np.intp)
    mv = bits & ((1 << 52) - 1)
    mm_shift = (mv != 0) | (biased <= 1)  # the lower bound is 4m - 1 - mm_shift
    mv |= (biased != 0).astype(_U64) << 52
    even = (mv & 1) == 0  # a round-half-even reading includes the bounds
    mv <<= 2
    zero_bits = t.zero_bits.take(biased)
    vr_exact = (mv & ((_U64(1) << zero_bits) - 1)) == 0
    del zero_bits
    vm_exact = np.zeros(len(bits), bool)
    vp_less = None
    rare = t.rare.take(biased)
    if rare.any():
        vp_less = np.zeros(len(bits), bool)
        i = np.flatnonzero(rare == 2)  # 4m - 1 - mm_shift has q zero bits iff mm_shift
        vm_exact[i] = even[i] & mm_shift[i]
        vp_less[i] = ~even[i]
        i = np.flatnonzero(rare == 1)
        e2 = biased[i] - 1077
        m, p5, ev = mv[i], _POW5.take((e2 * 78913 >> 18) - (e2 > 3)), even[i]
        five = m % 5 == 0
        vr_exact[i] = five & (m % p5 == 0)
        vm_exact[i] = ~five & ev & ((m - 1 - mm_shift[i]) % p5 == 0)
        vp_less[i] = ~five & ~ev & ((m + 2) % p5 == 0)
    b = [limb.take(biased) for limb in t.limbs]
    s, e10 = t.shift.take(biased), t.e10.take(biased)
    del biased, rare

    # the exact product 4m * mul in 32-bit columns c0..c4, each below 2^57
    c = [None] + [(mv >> 32) * limb for limb in b]
    mv &= _LOW32
    p, tmp = np.empty_like(mv), np.empty_like(mv)
    for k in (3, 2, 1, 0):
        np.multiply(mv, b[k], out=p)
        np.right_shift(p, 32, out=tmp)
        c[k + 1] += tmp
        p &= _LOW32
        if k:
            c[k] += p
    c[0] = p
    del mv, tmp
    c = [col.view(np.int64) for col in c]

    # floor((4m + d) * mul / 2^j) for d = 0, 2 and -1 - mm_shift, carried exactly
    d = np.empty((3, len(bits)), np.int64)
    d[0], d[1] = 0, 2
    np.subtract(-1, mm_shift, out=d[2])
    x = b[0] * d
    x += c[0]
    tmp = np.empty_like(x)
    for k in (1, 2, 3):
        x >>= 32
        np.multiply(b[k], d, out=tmp)
        x += tmp
        x += c[k]
    np.right_shift(x, 32, out=tmp)
    tmp += c[4]
    tmp <<= 32 - s
    x &= _LOW32
    x >>= s
    x += tmp
    vr, vp, vm = x.view(_U64)
    del b, c, s, mm_shift, d, tmp
    if vp_less is not None:
        vp -= vp_less

    # common case: drop the most digits k with a multiple of 10^k in (vm, vp];
    # vp - vm < 1000, so k0 = floor(log10(vp - vm)) digits always go, and one
    # more with every zero above it if vp is that close above a multiple
    d = vp - vm
    removed = (d >= 10).astype(np.int64)
    removed += d >= 100
    step = _POW10.take(removed + 1)
    above = vp // step
    step *= above
    step += d
    carry = vp < step  # vp - above * 10^(k0 + 1) < vp - vm
    del d, step
    removed += carry
    i = np.flatnonzero(carry)
    above = above[i]
    while i.size:
        tenth = above // 10
        zero = above == tenth * 10
        i, above = i[zero], tenth[zero]
        removed[i] += 1
    scale = _POW10.take(removed)
    out = vr // scale
    up = vm // scale == out
    rem = out * scale
    np.subtract(vr, rem, out=rem)
    rem <<= 1
    up |= rem >= scale  # the last digit dropped is 5 or more
    out += up
    del rem, scale, up
    e10 = e10 + removed

    i = np.flatnonzero(vr_exact | vm_exact)
    if i.size:
        out[i], dropped = _general(vr[i], vp[i], vm[i], vr_exact[i], vm_exact[i], even[i])
        e10[i] += dropped - removed[i]
    return out, e10


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Each x < 10**8 as 8 ASCII digits, leading zeros kept, the first digit
    in the low byte: halves, quarters, then digits, split in parallel lanes."""
    hi = x // 10000
    x -= hi * 10000
    x <<= 32
    x |= hi
    hi = (x * 10486 >> 20) & 0x0000007F0000007F
    x -= hi * 100
    x <<= 16
    x |= hi
    hi = (x * 103 >> 10) & 0x000F000F000F000F
    x -= hi * 10
    x <<= 8
    x |= hi
    x |= 0x3030303030303030
    return x


def reprs(values) -> tuple[str, ...]:
    """repr of each value of a float array in C order: the strings of
    map(repr, np.ravel(values).tolist()), byte for byte, the cells of a
    grid.table_block."""
    bits = np.ravel(np.asarray(values, dtype=np.float64)).view(_U64)
    n = len(bits)
    if n < _FEWEST:
        return tuple(map(repr, bits.view(np.float64).tolist()))
    t = _tables()
    neg = (bits >> 63).astype(np.uint8)
    bits = bits & ((1 << 63) - 1)
    special = bits - 1 >= 0x7FEFFFFFFFFFFFFF  # 0, inf or nan
    if special.any():
        kind = np.where(bits == 0, 0, np.where(bits == 0x7FF0000000000000, 1, 2))[special]
        neg[special] &= kind < 2  # nan has no sign
        bits[special] = 0x3FF0000000000000  # 1.0 in their place
    out, e10 = _shortest(bits)
    del bits

    nd = (out.astype(np.float64).view(np.int64) >> 52) - 1022  # bits of out, or one more
    nd *= 1233
    nd >>= 12
    nd += out >= _POW10.take(nd)
    e10 += nd  # now the decimal point: the value is 0.ddd * 10^e10
    key = np.minimum((e10 + 3).view(_U64), _SCI).view(np.int64)  # past -3..16 is scientific
    key *= 18
    key += nd
    if special.any():
        key[special] = _SPECIAL + kind
    out *= _POW10.take(17 - nd)  # 17 digits
    del nd
    first = out // 10 ** 16
    out -= first * 10 ** 16
    hi = out // 10 ** 8
    out -= hi * 10 ** 8
    digits = np.empty((3, n), _U64)  # the 17 digits: 1, 8 and 8, then as three words
    digits[1], digits[2] = hi, out
    _ascii8(digits[1:])
    carried = digits[1] >> 56
    np.left_shift(digits[1], 8, out=digits[0])
    digits[0] |= first
    digits[0] |= 0x30
    np.left_shift(digits[2], 8, out=digits[1])
    digits[1] |= carried
    digits[2] >>= 56
    del out, first, hi, carried

    # lay out the unsigned text, then shift it by its sign
    k2, at = t.k2.take(key), t.at.take(key)
    e10 += 323
    exp = t.exp.take(e10)
    del e10
    text = digits & t.keep.take(key, axis=1)
    moved = digits << k2
    moved[1:] |= digits[:-1] >> (64 - k2)
    moved &= t.moved.take(key, axis=1)
    text |= moved
    text |= t.literal.take(key, axis=1)
    np.left_shift(exp, at - _WORD_BITS, out=moved)
    text |= moved
    np.right_shift(exp, _WORD_BITS - at, out=moved)
    text |= moved
    del digits, k2, at, exp, key
    neg <<= 3
    np.left_shift(text, neg, out=moved)
    moved[1:] |= text[:-1] >> (64 - neg)
    moved[0] |= (neg >> 3) * 0x2D  # '-'
    text = moved
    del neg

    chars = text.T.astype("<u8", order="C").view(np.uint8)
    del text
    strs = []
    for lo in range(0, n, _STR_SLICE):
        strs += chars[lo:lo + _STR_SLICE].astype(np.uint32).view("U24").ravel().tolist()
    return tuple(strs)
