import numpy as np
import pytest

from qlasim import (
    PureState,
    RegisterLayout,
    add_ancilla,
    apply_single,
    basis_state,
    cnot,
    controlled_on_zero_flip,
    hadamard_register,
    mcx_decomposition_count,
    random_state,
    swap_registers,
)

H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_hadamard_register_uniform():
    layout = RegisterLayout([("R", 2)])
    state = hadamard_register(basis_state(layout, {"R": 0}), "R")
    np.testing.assert_allclose(state.amplitudes, np.full(4, 0.5), atol=1e-15)


def test_hadamard_register_involution():
    rng = np.random.default_rng(11)
    layout = RegisterLayout([("S", 1), ("R", 3)])
    state = random_state(layout, rng)
    twice = hadamard_register(hadamard_register(state, "R"), "R")
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


def test_hadamard_matches_dense_matrix_oracle():
    # encode a = [[1, 0], [0, 0]] on one row and one column qubit, transform
    # the column register, and compare against the explicit 4x4 operator
    layout = RegisterLayout([("S", 1), ("R", 1)])
    state = basis_state(layout, {"S": 0, "R": 0})
    transformed = hadamard_register(state, "R")
    oracle = np.kron(np.eye(2), H1) @ state.amplitudes
    np.testing.assert_allclose(transformed.amplitudes, oracle, atol=1e-15)
    assert abs(transformed.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15


def test_apply_single_x():
    layout = RegisterLayout([("R", 1)])
    state = apply_single(basis_state(layout, {"R": 0}), "R", "X")
    np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_apply_single_z_on_superposition():
    layout = RegisterLayout([("R", 1)])
    plus = PureState(layout, np.array([1, 1]) / np.sqrt(2))
    state = apply_single(plus, "R", "Z")
    np.testing.assert_allclose(state.amplitudes, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_apply_single_z_flips_imag_marker_sign():
    # a0|0> + a1|1> -> a0|0> - a1|1>
    layout = RegisterLayout([("M", 1)])
    a0, a1 = 0.6, 0.8
    state = apply_single(PureState(layout, [a0, a1]), "M", "Z")
    np.testing.assert_allclose(state.amplitudes, [a0, -a1], atol=1e-15)


def test_apply_single_unknown_gate_and_qubit():
    layout = RegisterLayout([("R", 1)])
    state = basis_state(layout, {"R": 0})
    with pytest.raises(ValueError, match="unsupported gate"):
        apply_single(state, "R", "Y")
    with pytest.raises(KeyError):
        apply_single(state, "Q", "X")


def test_swap_registers_basis():
    layout = RegisterLayout([("R", 1), ("C", 1)])
    state = swap_registers(basis_state(layout, {"R": 1, "C": 0}), "R", "C")
    assert state.amplitudes[1] == 1.0  # now |0>_R |1>_C


def test_swap_registers_symmetric_fixed_point():
    layout = RegisterLayout([("R", 1), ("C", 1)])
    sym = np.array([0.5, 0.5, 0.5, 0.5])
    state = swap_registers(PureState(layout, sym), "R", "C")
    np.testing.assert_allclose(state.amplitudes, sym, atol=1e-15)


def test_swap_registers_matches_permutation_oracle():
    rng = np.random.default_rng(5)
    layout = RegisterLayout([("R", 2), ("C", 2)])
    state = random_state(layout, rng)
    swapped = swap_registers(state, "R", "C")
    expected = np.empty_like(state.amplitudes)
    for i in range(4):
        for j in range(4):
            expected[i * 4 + j] = state.amplitudes[j * 4 + i]
    np.testing.assert_allclose(swapped.amplitudes, expected, atol=0)


def test_swap_registers_of_unequal_widths_matches_axis_transpose():
    # Each register takes the other's width; B and D keep their place.
    layout = RegisterLayout([("A", 2), ("B", 1), ("C", 3), ("D", 1)])
    state = random_state(layout, np.random.default_rng(6))
    swapped = swap_registers(state, "A", "C")
    assert swapped.layout == RegisterLayout([("A", 3), ("B", 1), ("C", 2), ("D", 1)])
    expected = state.amplitudes.reshape(4, 2, 8, 2).transpose(2, 1, 0, 3).reshape(-1)
    assert swapped.amplitudes.tobytes() == expected.tobytes()


def _zero_flip_oracle(width: int) -> np.ndarray:
    """Dense |0..0><0..0| (x) X + (1 - |0..0><0..0|) (x) 1 on width+1 qubits."""
    dim = 1 << width
    p0 = np.zeros((dim, dim))
    p0[0, 0] = 1.0
    x = np.array([[0, 1], [1, 0]])
    return np.kron(p0, x) + np.kron(np.eye(dim) - p0, np.eye(2))


def test_zero_flip_labels_all_zero_component():
    layout = RegisterLayout([("R", 1), ("A1", 1)])
    state = controlled_on_zero_flip(basis_state(layout, {"R": 0, "A1": 0}), "R", "A1")
    assert state.amplitudes[1] == 1.0


def test_zero_flip_leaves_nonzero_components():
    layout = RegisterLayout([("R", 2), ("A1", 1)])
    start = basis_state(layout, {"R": 2, "A1": 0})
    state = controlled_on_zero_flip(start, "R", "A1")
    np.testing.assert_array_equal(state.amplitudes, start.amplitudes)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_zero_flip_matches_dense_matrix_oracle(width):
    rng = np.random.default_rng(width)
    layout = RegisterLayout([("R", width), ("A1", 1)])
    oracle = _zero_flip_oracle(width)
    for index in range(layout.dim):
        amps = np.zeros(layout.dim)
        amps[index] = 1.0
        got = controlled_on_zero_flip(PureState(layout, amps), "R", "A1")
        np.testing.assert_allclose(got.amplitudes, oracle @ amps, atol=0)
    state = random_state(layout, rng)
    got = controlled_on_zero_flip(state, "R", "A1")
    np.testing.assert_allclose(got.amplitudes, oracle @ state.amplitudes, atol=1e-15)


def test_zero_flip_labels_row_sum_component():
    # after Hadamards on the summed register, the all-zeros component carries
    # sum_j a_ij / 2^(n/2); the flip must tag exactly that component
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a /= np.linalg.norm(a)
    layout = RegisterLayout([("S", 2), ("R", 2)])
    state = PureState(layout, a.reshape(-1))
    state = hadamard_register(state, "R")
    state = controlled_on_zero_flip(add_ancilla(state, "A1"), "R", "A1")
    for i in range(4):
        got = state.amplitudes[state.layout.index_of({"S": i, "R": 0, "A1": 1})]
        expected = a[i].sum() / 2.0  # 2^(n_R/2) with n_R = 2
        assert abs(got - expected) < 1e-12


def test_zero_flip_rejects_overlap_and_wide_target():
    layout = RegisterLayout([("R", 2), ("T", 2)])
    state = basis_state(layout, {"R": 0, "T": 0})
    with pytest.raises(ValueError, match="overlap"):
        controlled_on_zero_flip(state, "R", ("R", 0))
    with pytest.raises(ValueError, match="wider"):
        controlled_on_zero_flip(state, "R", "T")


def test_cnot_truth_table():
    layout = RegisterLayout([("A1", 1), ("A2", 1)])
    flipped = cnot(basis_state(layout, {"A1": 1, "A2": 0}), "A1", "A2")
    assert flipped.amplitudes[3] == 1.0
    untouched = cnot(basis_state(layout, {"A1": 0, "A2": 0}), "A1", "A2")
    assert untouched.amplitudes[0] == 1.0


def test_cnot_correlates_branches_linearly():
    layout = RegisterLayout([("A1", 1), ("A2", 1)])
    alpha, beta = 0.6, 0.8
    state = cnot(PureState(layout, [alpha, 0, beta, 0]), "A1", "A2")
    np.testing.assert_allclose(state.amplitudes, [alpha, 0, 0, beta], atol=1e-15)


def test_cnot_same_qubit_rejected():
    layout = RegisterLayout([("A1", 1), ("A2", 1)])
    state = basis_state(layout, {"A1": 0, "A2": 0})
    with pytest.raises(ValueError, match="distinct"):
        cnot(state, "A1", "A1")


def test_gate_ops_preserve_norm_and_invert():
    rng = np.random.default_rng(123)
    layout = RegisterLayout([("S", 2), ("R", 2), ("A", 1)])
    for _ in range(50):
        state = random_state(layout, rng)
        for op in (
            lambda s: hadamard_register(s, "R"),
            lambda s: apply_single(s, ("S", 1), "X"),
            lambda s: apply_single(s, "A", "Z"),
            lambda s: swap_registers(s, "S", "R"),
            lambda s: controlled_on_zero_flip(s, "R", "A"),
            lambda s: cnot(s, ("S", 0), "A"),
        ):
            once = op(state)
            assert abs(once.norm() - 1.0) < 1e-12
            twice = op(once)
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


# --- decomposition cost reporter -------------------------------------------

def test_mcx_count_one_control():
    count = mcx_decomposition_count(1)
    assert (count.single_qubit_gates, count.toffoli_gates, count.depth) == (3, 0, 3)


def test_mcx_count_two_controls():
    count = mcx_decomposition_count(2)
    assert (count.single_qubit_gates, count.toffoli_gates, count.depth) == (4, 1, 5)


def test_mcx_count_five_controls():
    count = mcx_decomposition_count(5)
    assert (count.single_qubit_gates, count.toffoli_gates, count.depth) == (10, 7, 17)


def test_mcx_depth_grows_linearly():
    depths = [mcx_decomposition_count(n).depth for n in range(1, 13)]
    for n in range(2, 12):  # n_controls = n+1 vs n
        assert depths[n] - depths[n - 1] == 4


def test_mcx_zero_controls_rejected():
    with pytest.raises(ValueError):
        mcx_decomposition_count(0)
