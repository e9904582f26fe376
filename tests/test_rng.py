import numpy as np

from qlasim import stream


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
