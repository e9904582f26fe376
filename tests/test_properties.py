"""Property-based checks of the state kernels and the encodings."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlasim import (
    RegisterLayout,
    apply_single,
    decode_rc,
    decode_rcm,
    encode_rc,
    encode_rcm,
    hadamard_register,
    hermitian_conjugate,
    random_state,
    swap_registers,
)
from qlasim.gates import _flip_where

NORM_DRIFT = 1e-12
ROUND_TRIP_TOL = 1e-10  # README: oracle agreement relative to the largest entry


@st.composite
def layouts(draw, max_qubits=10):
    """Two to four registers of one to three qubits, at most ``max_qubits`` in all."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                  .filter(lambda ws: sum(ws) <= max_qubits))
    return RegisterLayout([(f"r{i}", w) for i, w in enumerate(widths)])


@st.composite
def states(draw):
    layout = draw(layouts())
    seed = draw(st.integers(0, 2**32 - 1))
    return random_state(layout, np.random.default_rng(seed))


def _norm_kept(state):
    return abs(float(np.vdot(state.amplitudes, state.amplitudes).real) - 1.0) < NORM_DRIFT


@settings(max_examples=60, deadline=None)
@given(states(), st.data())
def test_one_qubit_gates_preserve_norm(state, data):
    name = data.draw(st.sampled_from(state.layout.names))
    assert _norm_kept(hadamard_register(state, name))
    bit = data.draw(st.integers(0, state.layout.width(name) - 1))
    gate = data.draw(st.sampled_from(["X", "Z"]))
    assert _norm_kept(apply_single(state, (name, bit), gate))


@settings(max_examples=60, deadline=None)
@given(states(), st.data())
def test_swap_registers_preserves_norm(state, data):
    layout = state.layout
    name_a, name_b = data.draw(st.permutations(layout.names))[:2]
    assume(layout.width(name_a) == layout.width(name_b))
    assert _norm_kept(swap_registers(state, name_a, name_b))


@settings(max_examples=60, deadline=None)
@given(states(), st.data())
def test_flip_where_preserves_norm_and_is_an_involution(state, data):
    n = state.n_qubits
    target = data.draw(st.integers(0, n - 1))
    others = [p for p in range(n) if p != target]
    positions = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    controls = {p: data.draw(st.integers(0, 1)) for p in positions}
    once = _flip_where(state, controls, target)
    assert _norm_kept(once)
    assert np.array_equal(_flip_where(once, controls, target).amplitudes, state.amplitudes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.9))
def test_hermitian_conjugate_twice_gives_back_the_amplitudes(rows, cols, seed, zero_share):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    a[rng.random(a.shape) < zero_share] = 0.0
    a[0, 0] = 1.0
    encoded = encode_rcm(a)
    twice = hermitian_conjugate(hermitian_conjugate(encoded))
    assert (twice.rows, twice.cols, twice.scale) == (encoded.rows, encoded.cols, encoded.scale)
    # A non-square input comes back inside the zero-padded square layout.
    layout = encoded.state.layout
    wr, wc = layout.width("R"), layout.width("C")
    w = twice.state.layout.width("R")
    back = twice.state.amplitudes.reshape(1 << w, 1 << w, 2)
    assert np.array_equal(back[: 1 << wr, : 1 << wc],
                          encoded.state.amplitudes.reshape(1 << wr, 1 << wc, 2))
    assert not np.any(back[1 << wr:]) and not np.any(back[:, 1 << wc:])


def _is_power_of_two(n):
    return n & (n - 1) == 0


@st.composite
def padded_shapes(draw):
    """Shapes with at least one side that is not a power of two, so encoding pads."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    assume(not (_is_power_of_two(rows) and _is_power_of_two(cols)))
    return rows, cols


@settings(max_examples=80, deadline=None)
@given(padded_shapes(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9),
       st.integers(-300, 300), st.booleans())
def test_decode_inverts_encode(shape, seed, zero_share, exponent, real):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + (0 if real else 1j) * rng.standard_normal(shape)
    a[rng.random(shape) < zero_share] = 0.0
    a[0, 0] = 1.0
    a *= 10.0 ** exponent
    for encode, decode in ((encode_rc, decode_rc), (encode_rcm, decode_rcm)):
        back = decode(encode(a)).matrix
        assert back.shape == a.shape
        assert np.max(np.abs(back - a)) <= ROUND_TRIP_TOL * np.max(np.abs(a))
        assert np.array_equal(back == 0, a == 0)


@settings(max_examples=80, deadline=None)
@given(padded_shapes(), st.data(), st.floats(1e-300, 1e300), st.booleans())
def test_decode_inverts_encode_exactly_for_one_real_entry(shape, data, magnitude, negative):
    # The norm of one real entry is its magnitude exactly, so nothing rounds:
    # while its square stays normal, sqrt(x * x) == x; outside that range
    # the scale is taken after dividing by the largest entry.
    a = np.zeros(shape)
    i = data.draw(st.integers(0, shape[0] - 1))
    j = data.draw(st.integers(0, shape[1] - 1))
    a[i, j] = -magnitude if negative else magnitude
    for encode, decode in ((encode_rc, decode_rc), (encode_rcm, decode_rcm)):
        assert np.array_equal(decode(encode(a)).matrix, a)
