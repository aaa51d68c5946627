"""The packet log, ``packets.csv``: one row per delivered packet.

The log is written in csv.writer's dialect, byte for byte as Python's ``%d``
and ``%.12g`` format each value, but from numpy arrays, block by block. Each
column of a block is laid out as slot rows: one row per character position a
cell may use and one column per value, with NUL where a cell has no character
there. The block's slots are then transposed to text rows and the NULs
deleted. Digits come four at a time from tables of the quads 0000-9999.
"""
from __future__ import annotations

from functools import reduce
from pathlib import Path

import numpy as np

from .simulator import SimStats

# rows per block: writing a 6500-row log peaks at 0.61 MB of temporaries
# (tracemalloc) with 2048-row blocks and 0.92 MB with 4096, for ~10% less time
_CSV_BLOCK = 2048


# The lookup tables. The quads g = 0000-9999 are 4-byte words whose bytes are
# the quad's four slots. The digits a, b, c, d of g = 1000a + 100b + 10c + d
# are the four axes of a 10x10x10x10 grid whose raveled order is g; digit p
# is byte p of a little-endian word.
_AXES = [np.arange(10, dtype=np.uint32).reshape([10 if i == p else 1 for i in range(4)])
         for p in range(4)]
_PLACES = [(48 + axis) << 8 * p for p, axis in enumerate(_AXES)]


def _quads(*words) -> np.ndarray:
    """The 10**4 quads of each grid of words, one grid after another."""
    table = np.empty((len(words),) + (10,) * 4, "<u4")
    for part, word in zip(table, words):
        part[...] = word
    return table.ravel()


# [c * 10**4 + g]: g with its digits from the c-th on as NUL
_FRACTION = _quads(0, *(sum(_PLACES[:c]) for c in range(1, 5)))
# [kind * 10**4 + g]: NUL (kind 0), g from its first nonzero digit on, with
# its last digit always (kind 1, the leading quad of an int), or g (kind 2)
_LEADING = [sum(_AXES[:p + 1]) > 0 for p in range(3)] + [True]
_INTEGER = _quads(0, sum(w * shown for w, shown in zip(_PLACES, _LEADING)), sum(_PLACES))
# [q, g]: the digits of a 12-digit mantissa whose quad q is g, up to and
# including g's last nonzero one (0 if g is 0000)
_SIGNIFICANT = reduce(np.maximum, [np.uint8(p + 1) * (axis > 0)
                                   for p, axis in enumerate(_AXES)]).ravel()
_LAST = (_SIGNIFICANT + np.arange(0, 12, 4, dtype=np.uint8)[:, None]) * (_SIGNIFICANT > 0)
# [q, l]: how many digits of quad q a cell that shows l digits keeps, times 10**4
_SHOWN = np.clip(np.arange(13) - 4 * np.arange(3)[:, None], 0, 4) * 10_000
# indexed by X + 324 for the decimal exponent X: the digits before the point of
# a %g cell, and _SCALE / _DOWN = 10**(11 - X), each factor exact where
# |11 - X| <= 22
_EXPONENTS = np.arange(-324, 309)
_POINT = np.where((_EXPONENTS >= -4) & (_EXPONENTS < 12), np.maximum(_EXPONENTS + 1, 0),
                  1).astype(np.uint8)
_SCALE = 10.0 ** np.clip(11 - _EXPONENTS, 0, 22)
_DOWN = 10.0 ** np.clip(_EXPONENTS - 11, 0, 22)

# A scaled value this close to a rounding or decade boundary takes the slow
# path. The boundaries are doubles and the scaling one correctly rounded step,
# so the strict comparisons alone are exact; the margin is headroom.
_MARGIN = 1e-3
# float slots: 0 sign, 1 the "0" of "0.", 2 its point, 3-5 zeros after it,
# 6 + 2j digit j, 7 + 2j a point after digit j, 29-33 "e", its sign, 3 digits
_FLOAT_SLOTS = 34


def _quad_slots(words: np.ndarray, out: np.ndarray) -> None:
    """Lay (quads, n) 4-byte words out as the (4 * quads, n) slot rows ``out``."""
    quads = len(words)
    np.copyto(out.reshape(quads, 4, -1),
              words.view(np.uint8).reshape(quads, -1, 4).transpose(0, 2, 1))


def _float_slots(x: np.ndarray) -> np.ndarray:
    """'%.12g' % v of each float64 v, as (34, x.size) slot rows.

    The 12-digit mantissa m of |v| comes from one correctly rounded scaling,
    v * 10**k or v / 10**-k with |k| <= 22, whose error is below 2**-13 for a
    scaled value under 2**40. Where that value is within _MARGIN of a rounding
    or decade boundary, or v is zero or needs a larger |k|, m and the exponent
    come from Python's correctly rounded '%.11e' (the digits and exponent
    '%.12g' uses), one value at a time; nan and +-inf take their '%.12g' text.
    """
    n = x.size
    finite = np.isfinite(x)
    a = np.abs(x)
    a[~finite] = 1.0
    np.maximum(a, 5e-324, out=a)  # no log10 of 0; 0 fails the range check below
    e = np.log10(a)
    np.floor(e, out=e)
    e += 324  # X + 324 for the decimal exponent X indexes the tables
    exponent = e.astype(np.intp)
    s = a * _SCALE.take(exponent)
    s /= _DOWN.take(exponent)
    m = np.rint(s, out=a)
    fast = (s >= 1e11) & (s < 1e12 - 0.5 - _MARGIN) & finite
    s -= m
    np.abs(s, out=s)
    fast &= s < 0.5 - _MARGIN
    del s, e
    slow = np.flatnonzero(~fast)
    exact = slow[finite[slow]]
    texts = ["%.11e" % v for v in np.abs(x[exact]).tolist()]
    m[exact] = [int(text[0] + text[2:13]) for text in texts]
    exponent[exact] = [int(text[14:]) + 324 for text in texts]
    quads = np.empty((3, n), np.intp)
    rest = m.astype(np.intp)
    del a, m
    np.floor_divide(rest, 10**8, out=quads[0])
    rest -= quads[0] * 10**8
    np.floor_divide(rest, 10**4, out=quads[1])
    np.subtract(rest, quads[1] * 10**4, out=quads[2])
    del rest
    digits = _LAST[0].take(quads[0])
    np.maximum(digits, _LAST[1].take(quads[1]), out=digits)
    np.maximum(digits, _LAST[2].take(quads[2]), out=digits)
    point = _POINT.take(exponent)
    shown = np.maximum(digits, point, dtype=np.intp)
    for q in range(3):
        quads[q] += _SHOWN[q].take(shown)
    words = _FRACTION.take(quads)
    del quads, shown
    slots = np.zeros((_FLOAT_SLOTS, n), np.uint8)
    _quad_slots(words, slots[6:29:2])
    del words
    np.multiply(np.signbit(x), 45, out=slots[0], casting="unsafe")
    dot = digits > point  # fraction digits follow the point
    low = point.min()
    for p in range(low, point.max() + 1):
        np.multiply((point == p) & dot, 46, out=slots[5 + 2 * p if p else 2], casting="unsafe")
    if low == 0:  # 0.000ddd
        r = np.flatnonzero(point == 0)
        slots[1, r] = 48
        slots[3:6, r] = 48 * (np.arange(3)[:, None] < 323 - exponent[r])
    if exponent.min() < 320 or exponent.max() > 335:  # d.ddde+XX
        r = np.flatnonzero((exponent < 320) | (exponent > 335))
        size = np.abs(exponent[r] - 324)
        slots[29, r], slots[30, r] = 101, np.where(exponent[r] < 324, 45, 43)
        slots[31, r] = (size // 100 + 48) * (size >= 100)
        slots[32, r], slots[33, r] = size // 10 % 10 + 48, size % 10 + 48
    for i in slow[~finite[slow]].tolist():  # nan, inf and -inf, in the last slots
        text = np.frombuffer(b"%.12g" % x[i], np.uint8)
        slots[:, i] = 0
        slots[_FLOAT_SLOTS - text.size:, i] = text
    return slots


def _int_slots(v: np.ndarray) -> np.ndarray:
    """'%d' % i of each int64 i, as (1 + 4 * quads, v.size) slot rows: a sign
    slot, then the digits right-aligned. Exact over all of int64."""
    n = v.size
    negative = v < 0
    u = v.astype(np.uint64)
    np.negative(u, out=u, where=negative)  # |v|, also for -2**63
    count = (len(str(int(u.max()))) + 3) // 4
    quads = np.empty((count, n), np.intp)
    for q in range(count - 1, 0, -1):
        top = u // 10_000
        quads[q] = u - top * 10_000
        u = top
    quads[0] = u
    seen = quads != 0  # then: a digit at or above quad q (0 has one in the last)
    seen[-1] = True
    for q in range(1, count):
        seen[q] |= seen[q - 1]
    np.add(quads, 10_000, out=quads, where=seen)
    np.add(quads[1:], 10_000, out=quads[1:], where=seen[:-1])
    slots = np.empty((1 + 4 * count, n), np.uint8)
    np.multiply(negative, 45, out=slots[0], casting="unsafe")
    _quad_slots(_INTEGER.take(quads), slots[1:])
    return slots


def _cells(slots: np.ndarray, columns: int) -> list:
    """For each of ``columns`` side-by-side columns of ``slots``, the slot
    rows (as one-row views) that some cell of that column uses."""
    k = slots.shape[1] // columns
    used = slots.reshape(len(slots), columns, k).any(axis=2).T.tolist()
    return [[slots[r:r + 1, c * k:(c + 1) * k] for r, use in enumerate(rows) if use]
            for c, rows in enumerate(used)]


def _packet_slots(stats: SimStats, i: int, j: int) -> np.ndarray:
    """The slot rows, in text order, of packet-log rows i to j - 1: the four
    int columns formatted in one pass, the three float columns in another."""
    index, main, sub, relay = _cells(_int_slots(np.concatenate((
        np.arange(i + 1, j + 1), stats.main_observations[i:j],
        stats.sub_observations[i:j], stats.relay[i:j]))), 4)
    rate, elapsed, bits = _cells(_float_slots(np.concatenate((
        stats.rate_at_stop[i:j], stats.elapsed[i:j], stats.bits[i:j]))), 3)
    comma = np.broadcast_to(np.uint8(44), (1, j - i))
    crlf = np.broadcast_to(np.array([[13], [10]], np.uint8), (2, j - i))
    return np.concatenate((*index, comma, *main, comma, *sub, comma, *rate, comma,
                           *relay, comma, *elapsed, comma, *bits, crlf))


def write_packets_csv(path: Path, stats: SimStats) -> None:
    """The packet log in csv.writer's dialect: CRLF line ends, ints as '%d'
    and floats as '%.12g', byte for byte, formatted with numpy arrays
    _CSV_BLOCK rows at a time."""
    n = stats.bits.size
    with path.open("wb") as fh:
        fh.write(b"packet_index,main_observations,sub_observations,"
                 b"rate_at_stop,relay,elapsed,bits\r\n")
        for i in range(0, n, _CSV_BLOCK):
            slots = _packet_slots(stats, i, min(i + _CSV_BLOCK, n))
            fh.write(slots.T.tobytes().translate(None, b"\0"))
