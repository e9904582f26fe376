"""The state kernels against the moveaxis/kron/copy-and-zero/transpose forms they replaced.

The references below are the earlier implementations, kept as the oracle:
every output must be equal value for value (``np.array_equal``, which does
not tell +0 from -0) and every branch weight equal as a float.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    swap_registers,
)
from qlasim import gates
from qlasim.gates import PAULI, _H, _flip_where
from qlasim.measure import _sector, _sparse_pairwise_sum, extract_labeled_branch

from _reference import _apply_1q

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


def _draw_state(draw, widths):
    """A state over registers A, B, C of ``widths``, holding exact and signed
    zeros in both parts."""
    layout = RegisterLayout(list(zip("ABC", widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, layout.dim))
    parts[rng.random(parts.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    if not np.any(parts):
        parts[0, -1] = -1.0
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts / np.sqrt(np.sum(parts**2))
    return PureState(layout, amps)


@st.composite
def three_register_states(draw):
    """States over three registers of 1-4 qubits each."""
    return _draw_state(draw, draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))


@st.composite
def wide_register_states(draw):
    """States with one register of 5-9 qubits before, between or after two
    registers of 1-2 qubits."""
    widths = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    widths.insert(draw(st.integers(0, 2)), draw(st.integers(5, 9)))
    return _draw_state(draw, widths)


def _assert_hadamard_bytes_of_one_qubit_at_a_time(state):
    # tobytes, since np.array_equal does not tell -0.0 from 0.0.
    for name in state.layout.names:
        want = state.amplitudes
        for position in state.layout.axes(name):
            want = _apply_1q(want, state.n_qubits, position, _H)
        assert hadamard_register(state, name).amplitudes.tobytes() == want.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(three_register_states())
def test_hadamard_register_has_the_bytes_of_one_qubit_at_a_time(state):
    _assert_hadamard_bytes_of_one_qubit_at_a_time(state)


@settings(max_examples=150, deadline=None)
@given(three_register_states())
def test_hadamard_register_keeps_the_bytes_across_small_blocks(state):
    # 256 bytes is 16 amplitudes, so states of 3-12 qubits split into up to
    # 256 blocks, each an operand of at least 8 columns.  Narrower products
    # need not match the same columns of a wide one: on the SkylakeX kernel
    # one column differs in value, and 2, 3, 5, 6 or 7 in the sign of a zero.
    with mock.patch.object(gates, "_BLOCK_BYTES", 256):
        _assert_hadamard_bytes_of_one_qubit_at_a_time(state)


@settings(max_examples=150, deadline=None)
@given(wide_register_states(), st.sampled_from([256, 512, 1024]))
def test_hadamard_register_keeps_the_bytes_across_groups_of_qubits(state, block_bytes):
    # Blocks of 16, 32 or 64 amplitudes take groups of 1, 2 or 3 qubits
    # before a slab would fall under 8 columns, so a register of 5-9 qubits
    # runs in several groups, each ended by a transposed copy.  A register
    # with more amplitudes per leading value takes larger blocks and groups
    # of up to _GROUP qubits.
    with mock.patch.object(gates, "_BLOCK_BYTES", block_bytes):
        _assert_hadamard_bytes_of_one_qubit_at_a_time(state)


def test_hadamard_register_keeps_the_bytes_across_default_blocks():
    # 2^15 amplitudes: B has 4 leading qubits and a trailing register, so it
    # runs in blocks of several leading values; C runs in blocks after 9
    # leading qubits, and A, with no leading qubit, runs as one block.
    rng = np.random.default_rng(15)
    layout = RegisterLayout([("A", 4), ("B", 5), ("C", 6)])
    parts = rng.standard_normal((2, layout.dim))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    amps = np.empty(layout.dim, dtype=np.complex128)
    amps.real, amps.imag = parts / np.sqrt(np.sum(parts**2))
    state = PureState(layout, amps)
    assert state.amplitudes.nbytes >= 2 * gates._BLOCK_BYTES
    _assert_hadamard_bytes_of_one_qubit_at_a_time(state)


def test_hadamard_register_allocates_its_output_and_cache_sized_blocks():
    # The whole-buffer chain peaked at 3.0x the state's bytes: it held an
    # operand, its product and the next operand, each as large as the state.
    state = encode_rc(np.random.default_rng(512).standard_normal((512, 512))).state
    tracemalloc.start()
    try:
        hadamard_register(state, "C")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state.amplitudes.nbytes


def test_pauli_gates_match_reference_kernel_at_every_position():
    for amps, n in _inputs():
        state = PureState(RegisterLayout([("Q", n)]), amps)
        for position in range(n):
            for gate in ("X", "Z"):
                got = apply_single(state, ("Q", position), gate).amplitudes
                want = _apply_1q_reference(amps, n, position, PAULI[gate])
                assert np.array_equal(got, want), (gate, n, position)


def _swap_reference(state, name_a, name_b):
    layout, n = state.layout, state.n_qubits
    axes = list(range(n))
    for pa, pb in zip(layout.axes(name_a), layout.axes(name_b)):
        axes[pa], axes[pb] = axes[pb], axes[pa]
    return np.transpose(state.tensor_view(), axes).reshape(-1)


def _swap_cases():
    """(state, name_a, name_b) over layouts of 2 to 5 registers, in both orders."""
    rng = np.random.default_rng(31)
    for n_registers in range(2, 6):
        for _ in range(12):
            widths = rng.integers(1, 4, n_registers)
            i, j = sorted(rng.choice(n_registers, 2, replace=False))
            widths[j] = widths[i]
            if widths.sum() > 13:
                continue
            layout = RegisterLayout([(f"r{k}", int(w)) for k, w in enumerate(widths)])
            state = PureState(layout, _random_amps(rng, int(widths.sum()), 0.3))
            yield state, f"r{i}", f"r{j}"
            yield state, f"r{j}", f"r{i}"
    # Neighbours, registers in between, and the last register swapped.
    layout = RegisterLayout([("a", 2), ("b", 2), ("c", 1), ("d", 3), ("e", 2)])
    state = PureState(layout, _random_amps(rng, 10, 0.3))
    for name_a, name_b in [("a", "b"), ("b", "a"), ("a", "e"), ("e", "a"), ("b", "e")]:
        yield state, name_a, name_b


def test_swap_registers_matches_axis_transpose_reference():
    # A swap permutes amplitudes, so the outputs agree byte for byte.
    cases = list(_swap_cases())
    assert len(cases) > 40
    assert any(state.layout.names[-1] in (a, b) for state, a, b in cases)
    for state, name_a, name_b in cases:
        got = swap_registers(state, name_a, name_b).amplitudes
        assert got.tobytes() == _swap_reference(state, name_a, name_b).tobytes(), (
            state.layout, name_a, name_b)


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


def test_labeled_branch_alone_matches_full_state_extraction():
    # The gate-built states hold their labeled branch at label = flag = 1.
    for state in list(_labeled_states())[:5]:
        layout = state.layout
        label = layout.qubit_position(("label", 0))
        labeled = state.amplitudes.reshape(1 << label, 2, -1)[:, 1].reshape(-1)
        positions = np.arange(layout.dim).reshape(1 << label, 2, -1)[:, 1].reshape(-1)
        keep = labeled != 0
        args = (layout, positions[keep], labeled[keep])

        got = extract_labeled_branch(*args)
        want = controlled_measure(state, ("label", 0), ("flag", 0))
        assert (got.outcome, got.branch_weight) == (want.outcome, want.branch_weight)
        assert got.post_state.amplitudes.tobytes() == want.post_state.amplitudes.tobytes()

        for seed in range(16):
            got = extract_labeled_branch(*args, rng=stream(seed, 1))
            want = measure_sampled(state, ("flag", 0), stream(seed, 1))
            if want.outcome == 0:
                assert got is None
                continue
            assert (got.outcome, got.branch_weight) == (want.outcome, want.branch_weight)
            assert got.post_state.amplitudes.tobytes() == want.post_state.amplitudes.tobytes()


def _flip_reference(amps, n, controls, target):
    a = amps.reshape([2] * n)
    new = a.copy()
    sel = [controls.get(position, slice(None)) for position in range(n)]
    s0, s1 = sel.copy(), sel.copy()
    s0[target], s1[target] = 0, 1
    new[tuple(s0)] = a[tuple(s1)]
    new[tuple(s1)] = a[tuple(s0)]
    return new.reshape(-1)


def test_flips_match_copy_and_swap_reference():
    # A flip permutes amplitudes, so the outputs agree byte for byte.
    for amps, n in _inputs():
        if n < 2 or n > 9:
            continue
        layout = RegisterLayout([("Q", n)])
        state = PureState(layout, amps)
        for control in range(n):
            for target in range(n):
                if target == control:
                    continue
                for bit in (0, 1):
                    want = _flip_reference(amps, n, {control: bit}, target)
                    if bit == 1:
                        got = cnot(state, ("Q", control), ("Q", target)).amplitudes
                    else:
                        got = _flip_where(state, {control: 0}, target).amplitudes
                    assert got.tobytes() == want.tobytes()
        if n < 3:
            continue
        split = RegisterLayout([("A", 1), ("C", n - 2), ("T", 1)])
        state = PureState(split, amps)
        controls = dict.fromkeys(split.axes("C"), 0)
        want = _flip_reference(amps, n, controls, n - 1)
        got = controlled_on_zero_flip(state, "C", "T").amplitudes
        assert got.tobytes() == want.tobytes()


# --- the sparse replay of numpy's pairwise sum ------------------------------------------

_PLACEMENTS = ("empty", "single", "cluster", "per-block", "scattered")


def _sparse_buffer(rng, length, placement, exponent, spread):
    """Sorted positions in a buffer of ``length`` and complex values at them.

    Magnitudes are 10^(exponent + spread * u), u uniform in [-1/2, 1/2] and
    the power kept within 10^-300..10^300, so a narrow spread makes the
    summation order matter and a wide one mixes squares that overflow,
    underflow and sit in between.
    """
    block = min(length, 128)
    if placement == "empty":
        positions = np.zeros(0, dtype=np.int64)
    elif placement == "single":
        positions = rng.integers(0, length, 1)
    elif placement == "cluster":  # some of the slots of one 128-block
        start = int(rng.integers(0, length // block)) * block
        positions = start + np.flatnonzero(rng.random(block) < 0.6)
    elif placement == "per-block":
        positions = np.arange(0, length, block) + rng.integers(0, block, length // block)
    else:
        positions = np.unique(rng.integers(0, length, min(length, 3000)))
    n = positions.size
    mags = 10.0 ** np.clip(exponent + spread * (rng.random(n) - 0.5), -300.0, 300.0)
    phases = np.exp(2j * np.pi * rng.random(n))
    return positions.astype(np.int64), mags * phases


@np.errstate(over="ignore")  # squares of 1e300 are inf on both sides
def _assert_replays_dense_sum(length, positions, values):
    dense = np.zeros(length, dtype=np.complex128)
    dense[positions] = values
    want = float(np.sum(np.abs(dense) ** 2))
    got = _sparse_pairwise_sum(length, positions, np.abs(values) ** 2)
    assert got == want, (length, positions.size)
    # The measured=1 half along a qubit: the strided view the sampled weight sums.
    k = length.bit_length() - 1
    for position in {0, k // 2, k - 1} if k else ():
        in_half = np.arange(length).reshape(1 << position, 2, -1)[:, 1].reshape(-1)
        half = np.flatnonzero(np.isin(positions, in_half))
        compact = np.searchsorted(in_half, positions[half])
        want = float(np.sum(np.abs(_sector(dense, position, 1)) ** 2))
        got = _sparse_pairwise_sum(length // 2, compact, np.abs(values[half]) ** 2)
        assert got == want, (length, position)


@pytest.mark.parametrize("placement", _PLACEMENTS)
@pytest.mark.parametrize("k", range(21))
def test_sparse_pairwise_sum_replays_numpy_at_every_length(k, placement):
    # Lengths 1..4 take numpy's running sum, 8..128 one block of 8 lanes,
    # and longer buffers the halving above the blocks.
    rng = np.random.default_rng(1000 * k + _PLACEMENTS.index(placement))
    for exponent, spread in [(0.0, 0.3), (-150.0, 1.0), (0.0, 600.0)]:
        positions, values = _sparse_buffer(rng, 1 << k, placement, exponent, spread)
        _assert_replays_dense_sum(1 << k, positions, values)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(0, 20), placement=st.sampled_from(_PLACEMENTS),
       exponent=st.floats(-300.0, 300.0), spread=st.sampled_from([0.0, 0.5, 20.0, 600.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_pairwise_sum_is_bit_exact(k, placement, exponent, spread, seed):
    positions, values = _sparse_buffer(np.random.default_rng(seed), 1 << k, placement,
                                       exponent, spread)
    _assert_replays_dense_sum(1 << k, positions, values)


def test_sparse_pairwise_sum_includes_squares_that_underflow():
    # 1e-170 squares to 0 and 1e-160 to a subnormal; both must add as numpy adds them.
    positions = np.array([0, 3, 130, 131, 4000], dtype=np.int64)
    values = np.array([1e-170, 1e-160, 1e-160, 3e-155j, 1e-170 + 1e-160j])
    _assert_replays_dense_sum(1 << 12, positions, values)


def test_extraction_rejects_unordered_positions():
    layout = RegisterLayout([("S", 2), ("label", 1), ("flag", 1)])
    for positions in ([7, 3], [3, 3]):
        with pytest.raises(ValueError, match="strictly increasing"):
            extract_labeled_branch(layout, np.array(positions), np.array([0.6, 0.8]))


def test_extracted_post_state_is_built_once_on_first_read():
    layout = RegisterLayout([("S", 2), ("label", 1), ("flag", 1)])
    got = extract_labeled_branch(layout, np.array([3, 15]), np.array([0.3, 0.4j]))
    assert got.branch_weight == 0.25
    state = got.post_state
    assert got.post_state is state
    want = np.zeros(16, dtype=np.complex128)
    want[[3, 15]] = [0.6, 0.8j]
    assert state.amplitudes.tobytes() == want.tobytes()
