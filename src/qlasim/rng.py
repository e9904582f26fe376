"""Reproducible random streams: one master seed, independent substreams.

Built on the counter-based Philox generator, so stream (seed, k) yields the
same sequence regardless of how many other streams were consumed.  Trials of
a Monte-Carlo run can therefore execute in any order or in parallel and stay
bit-for-bit reproducible.

A trial that needs one uniform needs only the first ``random()`` of its
substream.  :func:`first_draws` computes those for a whole array of substream
ids at once: it runs Philox4x64-10 in numpy, vectorized over key word 1 (the
substream id), and returns bit for bit what ``stream(seed, k).random()`` would
for every ``k``.  Round 0 of the cipher is the same in every lane and is
folded into constants; each later round runs its two 64x64->128-bit products
as one stacked product of 32-bit halves, in buffers allocated once per chunk.
The ids are processed :data:`_DRAW_CHUNK` at a time, so the working arrays
stay the same size however many ids are asked for; a caller that wants its
own memory bounded, such as ``naive_success_bench``, passes that many ids at
a time.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and Weyl key increments (Salmon et al., 2011).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# The multipliers of the stacked words (x0, x2), whole and in 32-bit halves.
_MUL = np.array([[_PHILOX_M0], [_PHILOX_M1]], dtype=np.uint64)
_MUL_LO, _MUL_HI = _MUL & _LO32, _MUL >> _SHIFT32

# Substream ids per pass of first_draws; each of its seven stacked working
# arrays is 16 bytes per id.
_DRAW_CHUNK = 1 << 14


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for substream ``stream_id`` of ``master_seed``."""
    # As a list, Python ints >= 2^63 reach Philox through float64 and collide.
    key = np.array([int(master_seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def first_draws(master_seed: int, stream_ids) -> np.ndarray:
    """``stream(master_seed, k).random()`` for every ``k`` in ``stream_ids``.

    ``stream_ids`` is a 1-D array of substream ids in ``[0, 2^64)``; the
    result is a float64 array of the same length, equal bit for bit to the
    per-stream draws.  ``master_seed`` wraps modulo 2^64 as in :func:`stream`.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    out = np.empty(ids.shape, dtype=np.float64)
    key0 = int(master_seed) & _MASK64
    for start in range(0, len(ids), _DRAW_CHUNK):
        stop = start + _DRAW_CHUNK
        out[start:stop] = _philox_first_double(key0, ids[start:stop])
    return out


def _philox_first_double(key0: int, key1: np.ndarray) -> np.ndarray:
    """First ``random()`` of Philox4x64-10 keyed ``(key0, key1[i])``.

    numpy's Philox starts from counter 0 and increments it before the first
    block, so the first block is the cipher of counter ``[1, 0, 0, 0]``; its
    word 0 becomes the double ``(x0 >> 11) * 2^-53``.

    Round 0 is the same in every lane, ``x0 * M0 = M0`` and ``x2 * M1 = 0``,
    so it is folded into its result ``(key0, 0, key1, M0)``.  Each later round
    runs its two products, ``x0 * M0`` and ``x2 * M1``, as one stacked
    product of 32-bit halves into buffers allocated once per call.
    """
    n = key1.shape[0]
    x = np.empty((2, n), dtype=np.uint64)  # the multiplied words x0, x2
    x[0] = key0
    x[1] = key1
    k1 = key1.copy()
    # lo holds each round's low product words (x3, x1); prev the last round's.
    lo, prev = np.empty_like(x), np.empty_like(x)
    prev[0] = _PHILOX_M0
    prev[1] = 0
    hi, lo_lo, mid, b_hi = (np.empty_like(x) for _ in range(4))
    # key0 is one value for every lane: bumped as a Python int, since a numpy
    # uint64 scalar warns where it wraps.
    for _ in range(1, _PHILOX_ROUNDS):
        key0 = (key0 + _PHILOX_W0) & _MASK64
        k1 += _PHILOX_W1
        # The high words of (a_hi 2^32 + a_lo) (b_hi 2^32 + b_lo), in 64-bit
        # partial products that cannot wrap (Hacker's Delight, mulhu).
        np.right_shift(x, _SHIFT32, out=b_hi)
        np.bitwise_and(x, _LO32, out=mid)  # b_lo
        np.multiply(_MUL_LO, mid, out=lo_lo)
        np.multiply(_MUL_HI, mid, out=mid)
        lo_lo >>= _SHIFT32
        mid += lo_lo  # a_hi b_lo + carry of a_lo b_lo
        np.multiply(_MUL_HI, b_hi, out=hi)
        np.multiply(_MUL_LO, b_hi, out=b_hi)
        np.bitwise_and(mid, _LO32, out=lo_lo)
        b_hi += lo_lo  # a_lo b_hi + low half of the sum above
        mid >>= _SHIFT32
        hi += mid
        b_hi >>= _SHIFT32
        hi += b_hi
        np.multiply(_MUL, x, out=lo)
        # x0 = hi(x2 M1) ^ x1 ^ key0 and x2 = hi(x0 M0) ^ x3 ^ key1.
        np.bitwise_xor(hi[::-1], prev[::-1], out=x)
        x[0] ^= np.uint64(key0)
        x[1] ^= k1
        lo, prev = prev, lo
    return (x[0] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
