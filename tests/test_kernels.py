"""The state kernels against the moveaxis/kron/copy-and-zero forms they replaced.

The references below are the earlier implementations, kept as the oracle:
every output must be equal value for value (``np.array_equal``, which does
not tell +0 from -0) and every branch weight equal as a float.
"""

import numpy as np
import pytest

from qlasim import (
    PureState,
    RegisterLayout,
    add_ancilla,
    apply_single,
    cnot,
    controlled_measure,
    controlled_on_zero_flip,
    encode_rc,
    encode_rcm,
    hadamard_register,
    measure_sampled,
    postselect,
    stream,
)
from qlasim.gates import PAULI, _H, _apply_1q

GATES = {"H": _H, **PAULI}


def _apply_1q_reference(amps, n, position, matrix):
    a = amps.reshape([2] * n)
    a = np.moveaxis(a, position, -1)
    a = a @ matrix.T
    return np.moveaxis(a, -1, position).reshape(-1)


def _project_reference(state, position, bit):
    a = state.tensor_view().copy()
    a = np.moveaxis(a, position, 0)
    a[1 - bit] = 0.0
    a = np.moveaxis(a, 0, position).reshape(-1)
    return a, float(np.sum(np.abs(a) ** 2))


def _random_amps(rng, n, zero_share):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < zero_share] = 0.0
    if not np.any(amps):
        amps[0] = 1.0
    return amps / np.linalg.norm(amps)


def _inputs():
    """(amplitudes, n) pairs: dense, sparse with exact zeros, padded encodings."""
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        yield _random_amps(rng, n, 0.0), n
        yield _random_amps(rng, n, 0.5), n
    for rows, cols in [(1, 3), (3, 5), (5, 3), (6, 7), (12, 20), (33, 9)]:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[0, 0] = 1.0
        for encoded in (encode_rc(a), encode_rcm(a), encode_rc(a.real), encode_rcm(a.real)):
            yield encoded.state.amplitudes, encoded.state.n_qubits


def test_apply_1q_matches_moveaxis_matmul_reference():
    for amps, n in _inputs():
        for position in range(n):
            for name, matrix in GATES.items():
                new = _apply_1q(amps, n, position, matrix)
                old = _apply_1q_reference(amps, n, position, matrix)
                assert np.array_equal(new, old), (name, n, position)


def test_public_gates_match_reference_kernel():
    rng = np.random.default_rng(7)
    layout = RegisterLayout([("R", 3), ("C", 4), ("M", 1)])
    state = PureState(layout, _random_amps(rng, 8, 0.3))
    expected = state.amplitudes
    for position in layout.axes("C"):
        expected = _apply_1q_reference(expected, 8, position, _H)
    assert np.array_equal(hadamard_register(state, "C").amplitudes, expected)
    for gate in ("X", "Z"):
        got = apply_single(state, ("M", 0), gate).amplitudes
        assert np.array_equal(got, _apply_1q_reference(state.amplitudes, 8, 7, PAULI[gate]))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_add_ancilla_matches_kron(width):
    rng = np.random.default_rng(width)
    for n in range(1, 9):
        layout = RegisterLayout([("S", n)])
        state = PureState(layout, _random_amps(rng, n, 0.3))
        ground = np.zeros(1 << width, dtype=np.complex128)
        ground[0] = 1.0
        got = add_ancilla(state, "A", width).amplitudes
        assert np.array_equal(got, np.kron(state.amplitudes, ground))


def _labeled_states():
    """States with a label and a flag qubit, as the pipelines measure them."""
    rng = np.random.default_rng(99)
    for rows, cols in [(2, 2), (3, 5), (8, 8), (16, 4), (5, 32)]:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        st = hadamard_register(encode_rc(a).state, "C")
        st = controlled_on_zero_flip(add_ancilla(st, "label"), "C", ("label", 0))
        yield cnot(add_ancilla(st, "flag"), ("label", 0), ("flag", 0))
    for n in range(2, 11):
        layout = RegisterLayout([("S", n - 1), ("label", 1)])
        yield add_ancilla(PureState(layout, _random_amps(rng, n, 0.4)), "flag")


def _qubit_at(layout, position):
    """(register, bit) of a global qubit position."""
    for name in layout.names:
        axes = layout.axes(name)
        if position in axes:
            return name, position - axes.start
    raise AssertionError(position)


def test_projections_match_copy_and_zero_reference():
    for state in _labeled_states():
        layout = state.layout
        for position in range(state.n_qubits):
            qubit = _qubit_at(layout, position)
            for bit in (0, 1):
                amps, weight = _project_reference(state, position, bit)
                if weight < 1e-14:
                    continue
                res = postselect(state, qubit, bit)
                assert res.branch_weight == weight
                assert np.array_equal(res.post_state.amplitudes, amps / np.sqrt(weight))
        meas = controlled_measure(state, ("label", 0), ("flag", 0))
        amps, weight = _project_reference(state, layout.qubit_position(("label", 0)), 1)
        assert meas.outcome == 1
        assert meas.branch_weight == weight
        assert np.array_equal(meas.post_state.amplitudes, amps / np.sqrt(weight))


def test_measure_sampled_matches_copy_and_zero_reference():
    for state in _labeled_states():
        position = state.layout.qubit_position(("flag", 0))
        for seed in range(8):
            res = measure_sampled(state, ("flag", 0), stream(seed, 1))
            draw = stream(seed, 1).random()
            p1 = float(np.sum(np.abs(np.moveaxis(state.tensor_view(), position, 0)[1]) ** 2))
            outcome = 1 if draw < p1 else 0
            weight = p1 if outcome == 1 else 1.0 - p1
            amps, _ = _project_reference(state, position, outcome)
            assert res.outcome == outcome
            assert res.branch_weight == weight
            assert np.array_equal(res.post_state.amplitudes, amps / np.sqrt(weight))
