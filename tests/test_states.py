import numpy as np
import pytest

from qlasim import (
    PureState,
    RegisterLayout,
    add_ancilla,
    amplitude_of,
    apply_single,
    basis_state,
    cnot,
    controlled_measure,
    controlled_on_zero_flip,
    encode_rc,
    encode_rcm,
    hadamard_register,
    hermitian_conjugate,
    measure_sampled,
    postselect,
    prepare_labeled_state,
    random_state,
    stream,
    swap_registers,
)


def test_layout_total_qubits_and_bit_order():
    layout = RegisterLayout([("S", 2), ("R", 3)])
    assert layout.total_qubits == 5
    # first declared register holds the most significant bits
    assert list(layout.axes("S")) == [0, 1]
    assert list(layout.axes("R")) == [2, 3, 4]


def test_layout_single_register():
    layout = RegisterLayout([("R", 1)])
    assert layout.total_qubits == 1
    assert layout.dim == 2


def test_layout_duplicate_name_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RegisterLayout([("S", 1), ("S", 1)])


def test_layout_zero_width_rejected():
    with pytest.raises(ValueError, match="at least one qubit"):
        RegisterLayout([("S", 0)])


def test_layout_empty_rejected():
    with pytest.raises(ValueError):
        RegisterLayout([])


def test_basis_state_index_arithmetic():
    layout = RegisterLayout([("S", 1), ("R", 1)])
    state = basis_state(layout, {"S": 1, "R": 0})
    assert state.amplitudes[2] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_single_register():
    layout = RegisterLayout([("R", 2)])
    state = basis_state(layout, {"R": 3})
    assert state.amplitudes[3] == 1.0


def test_basis_state_value_out_of_range():
    layout = RegisterLayout([("R", 2)])
    with pytest.raises(ValueError, match="out of range"):
        basis_state(layout, {"R": 4})


def test_basis_state_missing_register():
    layout = RegisterLayout([("S", 1), ("R", 1)])
    with pytest.raises(ValueError, match="missing"):
        basis_state(layout, {"S": 0})


def test_index_round_trip_exhaustive():
    layout = RegisterLayout([("A", 2), ("B", 1), ("C", 3)])
    for index in range(layout.dim):
        assignment = layout.assignment_of(index)
        assert layout.index_of(assignment) == index


def test_add_ancilla_basis_state():
    layout = RegisterLayout([("R", 1)])
    state = add_ancilla(basis_state(layout, {"R": 1}), "A1")
    assert state.layout.names == ("R", "A1")
    assert state.amplitudes[2] == 1.0  # |1>_R |0>_A1 in the 2-qubit space


def test_add_ancilla_superposition():
    layout = RegisterLayout([("R", 1)])
    plus = PureState(layout, np.array([1, 1]) / np.sqrt(2))
    state = add_ancilla(plus, "A1")
    np.testing.assert_allclose(
        state.amplitudes, np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-15
    )


def test_add_ancilla_duplicate_name():
    layout = RegisterLayout([("R", 1)])
    with pytest.raises(ValueError, match="already exists"):
        add_ancilla(basis_state(layout, {"R": 0}), "R")


def test_add_ancilla_then_project_recovers_amplitudes():
    rng = np.random.default_rng(3)
    layout = RegisterLayout([("S", 2), ("R", 1)])
    state = random_state(layout, rng)
    extended = add_ancilla(state, "A1")
    # ancilla is the least significant bit: original amplitude sits at even indices
    np.testing.assert_array_equal(extended.amplitudes[0::2], state.amplitudes)
    np.testing.assert_array_equal(extended.amplitudes[1::2], 0.0)


def test_amplitude_of_reads_single_entries():
    layout = RegisterLayout([("S", 1), ("R", 1)])
    state = basis_state(layout, {"S": 1, "R": 0})
    assert amplitude_of(state, {"S": 1, "R": 0}) == 1.0 + 0.0j
    assert amplitude_of(state, {"S": 0, "R": 0}) == 0.0


def test_amplitude_of_hadamard_component():
    layout = RegisterLayout([("R", 1)])
    plus = PureState(layout, np.array([1, 1]) / np.sqrt(2))
    assert abs(amplitude_of(plus, {"R": 1}) - 1 / np.sqrt(2)) < 1e-15


def test_amplitude_of_out_of_range():
    layout = RegisterLayout([("R", 1)])
    state = basis_state(layout, {"R": 0})
    with pytest.raises(ValueError):
        amplitude_of(state, {"R": 2})


def test_purestate_rejects_unnormalized():
    layout = RegisterLayout([("R", 1)])
    with pytest.raises(ValueError, match="not normalized"):
        PureState(layout, np.array([1.0, 1.0]))


def test_purestate_amplitudes_frozen():
    layout = RegisterLayout([("R", 1)])
    state = basis_state(layout, {"R": 0})
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_qubit_position_conventions():
    layout = RegisterLayout([("S", 2), ("R", 1)])
    assert layout.qubit_position(("S", 0)) == 0  # register bit 0 = its MSB
    assert layout.qubit_position(("S", 1)) == 1
    assert layout.qubit_position("R") == 2
    with pytest.raises(ValueError, match="wider than one qubit"):
        layout.qubit_position("S")
    with pytest.raises(ValueError, match="out of range"):
        layout.qubit_position(("R", 1))


def test_purestate_copies_caller_array():
    layout = RegisterLayout([("R", 1)])
    arr = np.array([1.0, 0.0], dtype=np.complex128)
    state = PureState(layout, arr)
    arr[0], arr[1] = 0.0, 1.0
    np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])
    assert arr.flags.writeable


def test_purestate_adopts_package_buffer_without_copy():
    layout = RegisterLayout([("R", 2)])
    buf = np.full(4, 0.5, dtype=np.complex128)
    state = PureState(layout, buf, _adopt=True)
    assert np.shares_memory(state.amplitudes, buf)
    assert not state.amplitudes.flags.writeable


def test_adopt_path_keeps_length_and_norm_checks():
    layout = RegisterLayout([("R", 2)])
    with pytest.raises(ValueError, match="length 2"):
        PureState(layout, np.array([1.0, 0.0], dtype=np.complex128), _adopt=True)
    with pytest.raises(ValueError, match="not normalized"):
        PureState(layout, np.ones(4, dtype=np.complex128), _adopt=True)


def test_every_state_output_is_read_only():
    rng = np.random.default_rng(3)
    layout = RegisterLayout([("R", 2), ("C", 2), ("A", 1), ("B", 1)])
    state = random_state(layout, rng)
    outputs = [
        state,
        basis_state(layout, {"R": 1, "C": 2, "A": 0, "B": 1}),
        add_ancilla(state, "F"),
        hadamard_register(state, "C"),
        apply_single(state, "A", "X"),
        apply_single(state, "B", "Z"),
        swap_registers(state, "R", "C"),
        controlled_on_zero_flip(state, "C", "A"),
        cnot(state, "A", "B"),
        controlled_measure(state, "A", "B").post_state,
        measure_sampled(state, "B", stream(0)).post_state,
        postselect(state, "A", 1).post_state,
        encode_rc(rng.standard_normal((3, 2))).state,
        encode_rcm(rng.standard_normal((2, 3))).state,
        hermitian_conjugate(encode_rcm(rng.standard_normal((2, 3)))).state,
        prepare_labeled_state({(1,): 0.6}, RegisterLayout([("S", 1), ("L", 1)]), "L",
                              0.64, stream(0)).state,
    ]
    for out in outputs:
        assert not out.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0.0
