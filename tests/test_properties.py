"""Property-based checks of the state kernels on random layouts."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlasim import (
    RegisterLayout,
    apply_single,
    encode_rcm,
    hadamard_register,
    hermitian_conjugate,
    random_state,
    swap_registers,
)
from qlasim.gates import _flip_where

NORM_DRIFT = 1e-12


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
