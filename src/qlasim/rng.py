"""Reproducible random streams: one master seed, independent substreams.

Built on the counter-based Philox generator, so stream (seed, k) yields the
same sequence regardless of how many other streams were consumed.  Trials of
a Monte-Carlo run can therefore execute in any order or in parallel and stay
bit-for-bit reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for substream ``stream_id`` of ``master_seed``."""
    # As a list, Python ints >= 2^63 reach Philox through float64 and collide.
    key = np.array([int(master_seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator or an integer seed (stream 0 of that seed)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng))
