import numpy as np
import pytest

from qlasim import (
    EncodedMatrix,
    PureState,
    RegisterLayout,
    decode_rc,
    decode_rcm,
    encode_rc,
    encode_rcm,
    row_sum,
)
from qlasim.pipelines import _off_sector


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_encode_rc_scalar():
    enc = encode_rc([[1.0]])
    assert enc.scale == 1.0
    assert enc.state.amplitudes[0] == 1.0
    assert enc.state.layout.names == ("R", "C")


@pytest.mark.parametrize("value", [1e-300, -1e-160, 1.4e154, 1e300, 5e-324])
def test_encode_entry_whose_square_leaves_the_normal_range(value):
    a = np.array([[value, 0.0, 0.0]])
    for encode, decode in ((encode_rc, decode_rc), (encode_rcm, decode_rcm)):
        enc = encode(a)
        assert enc.scale == abs(value)
        assert np.array_equal(decode(enc).matrix, a)


def test_encode_sum_of_squares_overflow():
    a = np.full((2, 3), 1e154) * (1 + 1j)
    for encode, decode in ((encode_rc, decode_rc), (encode_rcm, decode_rcm)):
        enc = encode(a)
        assert enc.scale == pytest.approx(np.sqrt(12) * 1e154, rel=1e-15)
        np.testing.assert_allclose(decode(enc).matrix, a, rtol=1e-15)


def test_encode_norm_past_float64_range_raises():
    with pytest.raises(ValueError, match="exceeds the float64 range"):
        encode_rc([[1.7e308, 1.7e308]])


def test_encode_scale_is_the_plain_norm_in_the_normal_range():
    rng = np.random.default_rng(56)
    for exponent in (-150, -1, 0, 3, 150):
        a = _random_matrix(rng, 3, 5) * 10.0 ** exponent
        assert encode_rc(a).scale == float(np.linalg.norm(a))
        assert encode_rcm(a).scale == float(np.linalg.norm(a))


def test_encode_rc_known_amplitudes():
    enc = encode_rc([[1.0, 1j], [0.0, 0.0]])
    assert enc.scale == pytest.approx(np.sqrt(2), abs=1e-15)
    np.testing.assert_allclose(
        enc.state.amplitudes,
        np.array([1, 1j, 0, 0]) / np.sqrt(2),
        atol=1e-15,
    )


def test_encode_rc_pads_to_power_of_two():
    rng = np.random.default_rng(0)
    a = _random_matrix(rng, 3, 3)
    enc = encode_rc(a)
    assert enc.state.layout.width("R") == 2
    assert enc.state.layout.width("C") == 2
    assert np.count_nonzero(enc.state.amplitudes == 0) == 7
    dec = decode_rc(enc)
    np.testing.assert_allclose(dec.matrix, a, atol=1e-12)


def test_encode_rc_rejects_zero_matrix():
    with pytest.raises(ValueError, match="all-zero"):
        encode_rc(np.zeros((2, 2)))


def test_encode_rcm_complex_scalar():
    enc = encode_rcm([[1 + 2j]])
    assert enc.scale == pytest.approx(np.sqrt(5), abs=1e-15)
    layout = enc.state.layout
    assert enc.state.amplitudes[layout.index_of({"R": 0, "C": 0, "M": 0})] == pytest.approx(1 / np.sqrt(5))
    assert enc.state.amplitudes[layout.index_of({"R": 0, "C": 0, "M": 1})] == pytest.approx(2 / np.sqrt(5))


def test_encode_rcm_real_matrix_leaves_imag_marker_empty():
    enc = encode_rcm([[3.0, 4.0]])
    block = enc.state.amplitudes.reshape(2, 2, 2)
    np.testing.assert_allclose(block[0, :, 0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(block[:, :, 1], 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 4), (3, 5), (8, 8), (4, 2)])
def test_round_trips_up_to_8x8(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    a = _random_matrix(rng, *shape)
    np.testing.assert_allclose(decode_rc(encode_rc(a)).matrix, a, atol=1e-12)
    np.testing.assert_allclose(decode_rcm(encode_rcm(a)).matrix, a, atol=1e-12)


def test_padding_entries_exactly_zero():
    rng = np.random.default_rng(4)
    a = _random_matrix(rng, 3, 2)
    for enc in (encode_rc(a), encode_rcm(a)):
        wr = enc.state.layout.width("R")
        wc = enc.state.layout.width("C")
        block = enc.state.amplitudes.reshape(1 << wr, 1 << wc, -1)
        assert np.all(block[3:, :, :] == 0)
        assert np.all(block[:, 2:, :] == 0)


def test_decode_respects_global_phase():
    rng = np.random.default_rng(9)
    a = _random_matrix(rng, 2, 2)
    enc = encode_rc(a)
    theta = 0.7
    rotated = PureState(enc.state.layout, enc.state.amplitudes * np.exp(1j * theta))
    dec = decode_rc(rotated, rows=2, cols=2, scale=enc.scale)
    np.testing.assert_allclose(dec.matrix, a * np.exp(1j * theta), atol=1e-12)


def test_decode_rcm_sign_flip():
    rng = np.random.default_rng(10)
    a = _random_matrix(rng, 2, 2)
    enc = encode_rcm(a)
    negated = PureState(enc.state.layout, -enc.state.amplitudes)
    dec = decode_rcm(negated, rows=2, cols=2, scale=enc.scale)
    np.testing.assert_allclose(dec.matrix, -a, atol=1e-12)


def test_decode_rcm_keeps_both_parts_of_complex_bare_amplitudes():
    # Each entry is c0 + 1j * c1 for the marker's two amplitudes, both complex
    # here; dropping the imaginary part of either changes the answer.
    amps = _random_matrix(np.random.default_rng(11), 8, 1).reshape(-1)
    state = PureState(RegisterLayout([("R", 1), ("C", 1), ("M", 1)]), amps / np.linalg.norm(amps))
    c = state.amplitudes.reshape(2, 2, 2)
    entries = c[:, :, 0] + 1j * c[:, :, 1]
    want = entries / np.sqrt(np.sum(np.abs(entries) ** 2))
    assert decode_rcm(state, rows=2, cols=2).matrix.tobytes() == want.tobytes()


def test_decode_without_scale_gives_unit_direction():
    rng = np.random.default_rng(12)
    a = _random_matrix(rng, 2, 2)
    dec = decode_rc(encode_rc(a).state, rows=2, cols=2)
    assert dec.known_scale is None
    assert np.linalg.norm(dec.matrix) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(dec.matrix, a / np.linalg.norm(a), atol=1e-12)


def test_decode_rejects_registers_outside_the_scheme():
    # A decode reads exactly the scheme's registers: an ancilla beside R and
    # C, even in one basis state, and the marker of an RCM encoding both raise.
    rng = np.random.default_rng(13)
    a = _random_matrix(rng, 2, 2)
    a /= np.linalg.norm(a)
    layout = RegisterLayout([("R", 1), ("C", 1), ("A1", 1)])
    amps = np.zeros(8, dtype=complex)
    amps.reshape(2, 2, 2)[:, :, 1] = a
    with pytest.raises(ValueError, match=r"the state holds \(\('R', 1\), \('C', 1\), \('A1', 1\)\)"):
        decode_rc(PureState(layout, amps), rows=2, cols=2)
    with pytest.raises(ValueError, match=r"the state holds .*'M'"):
        decode_rc(encode_rcm(a).state, rows=2, cols=2)


def test_decode_rejects_leaked_ancilla_sector():
    # 0.1 amplitude stranded in the other ancilla branch: the state holds a
    # register outside the scheme, so the decode raises before reading any mass
    layout = RegisterLayout([("R", 1), ("C", 1), ("A1", 1)])
    amps = np.zeros(8, dtype=complex)
    amps.reshape(2, 2, 2)[:, :, 1] = np.sqrt(1 - 0.01) / 2.0
    amps.reshape(2, 2, 2)[0, 0, 0] = 0.1
    with pytest.raises(ValueError, match=r"the state holds \(\('R', 1\), \('C', 1\), \('A1', 1\)\)"):
        decode_rc(PureState(layout, amps), rows=2, cols=2)


def test_decode_requires_dims_for_bare_state():
    enc = encode_rc([[1.0, 2.0]])
    with pytest.raises(ValueError, match="rows and cols"):
        decode_rc(enc.state)


def test_decode_scheme_mismatch():
    with pytest.raises(ValueError, match="scheme"):
        decode_rcm(encode_rc([[1.0]]))


@pytest.mark.parametrize("rows, cols", [(5, 3), (3, 5), (0, 3), (3, 0), (-1, 3), (3, -1)])
def test_decode_rejects_dimensions_outside_the_registers(rows, cols):
    # A 3x3 matrix pads to 4x4: a larger crop would return the padding and a
    # negative one would drop trailing entries without a word.
    a = _random_matrix(np.random.default_rng(14), 3, 3)
    for encode, decode in ((encode_rc, decode_rc), (encode_rcm, decode_rcm)):
        enc = encode(a)
        with pytest.raises(ValueError, match="outside"):
            decode(enc, rows=rows, cols=cols)
        with pytest.raises(ValueError, match="outside"):
            decode(enc.state, rows=rows, cols=cols)


def test_encoded_matrix_checks_its_fields():
    enc = encode_rc([[1.0, 2.0], [3.0, 4.0]])
    # Five rows do not fit a one-qubit R: row_sum would return two sums.
    with pytest.raises(ValueError, match="R extent 5 outside"):
        row_sum(EncodedMatrix(enc.state, "RC", rows=5, cols=2, scale=enc.scale))
    with pytest.raises(ValueError, match="holds exactly the registers"):
        EncodedMatrix(enc.state, "RCM", rows=2, cols=2, scale=enc.scale)
    for scale in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            decode_rc(EncodedMatrix(enc.state, "RC", rows=2, cols=2, scale=scale))
        with pytest.raises(ValueError, match="finite and positive"):
            decode_rc(enc, scale=scale)


def test_off_sector_mass_summation_order():
    # The residual's off-sector mass is summed as a C-ordered (payload, rest)
    # array with rest > 1 is reduced over axis 0: one entry after another.
    rng = np.random.default_rng(15)
    for n in range(1, 15):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        extended = np.zeros((1 << n, 2), dtype=complex)
        extended[:, 1] = amps
        mass = np.sum(np.abs(extended) ** 2, axis=0)
        assert _off_sector(amps.reshape(2, -1)) == max(0.0, 1.0 - float(mass[1]))
