"""Reproducible random streams: one master seed, independent substreams.

Built on the counter-based Philox generator, so stream (seed, k) yields the
same sequence regardless of how many other streams were consumed.  Trials of
a Monte-Carlo run can therefore execute in any order or in parallel and stay
bit-for-bit reproducible.

A trial that needs one uniform needs only the first ``random()`` of its
substream.  :func:`first_draws` computes those for a whole array of substream
ids at once: it runs Philox4x64-10 in numpy, vectorized over key word 1 (the
substream id), and returns bit for bit what ``stream(seed, k).random()`` would
for every ``k``.  The ids are processed :data:`_DRAW_CHUNK` at a time, so the
working arrays stay the same size however many ids are asked for.
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

# Substream ids per pass of first_draws; each working array is 8 bytes per id.
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


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products ``a * b``."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    middle = ((a_lo * b_lo) >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    high = a_hi * b_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (middle >> _SHIFT32)
    return a * b, high


def _philox_first_double(key0: int, key1: np.ndarray) -> np.ndarray:
    """First ``random()`` of Philox4x64-10 keyed ``(key0, key1[i])``.

    numpy's Philox starts from counter 0 and increments it before the first
    block, so the first block is the cipher of counter ``[1, 0, 0, 0]``; its
    word 0 becomes the double ``(x0 >> 11) * 2^-53``.
    """
    x0 = np.ones(key1.shape, dtype=np.uint64)
    x1 = np.zeros_like(x0)
    x2 = np.zeros_like(x0)
    x3 = np.zeros_like(x0)
    k1 = key1.copy()
    # key0 is one value for every lane: bumped as a Python int, since a numpy
    # uint64 scalar warns where it wraps.
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            key0 = (key0 + _PHILOX_W0) & _MASK64
            k1 += _PHILOX_W1
        lo0, hi0 = _mulhilo(_PHILOX_M0, x0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(key0), lo1, hi0 ^ x3 ^ k1, lo0
    return (x0 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
