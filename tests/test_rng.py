import numpy as np
import pytest

from qlasim import rng, stream
from qlasim.rng import first_draws


def _first_draw(seed, stream_id=0):
    return stream(seed, stream_id).random()


def test_seeds_from_2_pow_63_get_their_own_streams():
    assert _first_draw(2**64 - 1) != _first_draw(0)
    assert _first_draw(2**63 + 1) != _first_draw(2**63 + 2)
    assert _first_draw(5, 2**64 - 1) != _first_draw(5, 0)


def test_seeds_below_2_pow_63_keep_their_draws():
    # Values drawn before keys were passed as a uint64 array.
    assert _first_draw(12345, 3) == 0.916955736475209
    assert _first_draw(2**63 - 1, 2**63 - 1) == 0.055161237254011786
    assert _first_draw(0) == 0.011546754286331562


def test_negative_seed_wraps_to_u64():
    assert _first_draw(-1) == _first_draw(2**64 - 1)
    assert np.isfinite(_first_draw(-1))


def _per_stream(seed, ids):
    return np.array([stream(seed, int(i)).random() for i in ids])


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1])
def test_first_draws_equal_per_stream_draws(seed):
    ids = np.arange(rng._DRAW_CHUNK + 3, dtype=np.uint64)  # crosses a chunk boundary
    assert np.array_equal(first_draws(seed, ids), _per_stream(seed, ids))


def test_first_draws_at_large_stream_ids():
    ids = np.array([2**32, 2**63, 2**64 - 1, 0], dtype=np.uint64)
    for seed in (0, 12345, 2**64 - 1):
        assert np.array_equal(first_draws(seed, ids), _per_stream(seed, ids))


def test_first_draws_negative_seed_wraps_like_stream():
    ids = np.arange(50, dtype=np.uint64)
    assert np.array_equal(first_draws(-1, ids), first_draws(2**64 - 1, ids))
    assert np.array_equal(first_draws(-1, ids), _per_stream(-1, ids))


def test_first_draws_of_no_ids_is_empty():
    assert first_draws(3, np.zeros(0, dtype=np.uint64)).shape == (0,)
