"""Property-based checks of the state kernels, the encodings, ``row_sum``, Hermitian
conjugation, the end stages' decode and their answers under rescaling, and the
CLI's matrix I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlasim import (
    EMPTY_BRANCH_TOL,
    PureState,
    RegisterLayout,
    add_ancilla,
    apply_single,
    cnot,
    controlled_measure,
    controlled_on_zero_flip,
    decode_rc,
    decode_rcm,
    encode_rc,
    encode_rcm,
    hadamard_register,
    hermitian_conjugate,
    inner_product_phase,
    linear_stage,
    matrix_add,
    matrix_mul,
    measure_sampled,
    prepare_labeled_state,
    random_state,
    row_sum,
    stream,
    swap_registers,
)
from qlasim.cli import CliInputError, dumps, matrix_to_filedict, read_matrix
from qlasim.encode import _norm_scaling, _reg_width
from qlasim.gates import PAULI, _flip_where
from qlasim.pipelines import FLAG, LABEL, _closed_form_stage, _decoded_block

from _reference import (_apply_1q, decode_rcm_reference, decoded_block_reference,
                        encode_rcm_reference, extract_payload)

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
    assert twice.state.layout == encoded.state.layout
    assert twice.state.amplitudes.tobytes() == encoded.state.amplitudes.tobytes()


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


# --- row_sum against the dense flag/CNOT/measurement chain --------------------

def _dense_row_sum(encoded, mode, seed):
    """``row_sum``'s circuit on the full state: every gate, both ancillas, the
    measurement and ``extract_payload``'s search; ``(measurement, decoded)``."""
    st_ = hadamard_register(encoded.state, "C")
    st_ = controlled_on_zero_flip(add_ancilla(st_, LABEL), "C", (LABEL, 0))
    st_ = cnot(add_ancilla(st_, FLAG), (LABEL, 0), (FLAG, 0))
    if mode == "ideal":
        meas = controlled_measure(st_, (LABEL, 0), (FLAG, 0))
    else:
        meas = measure_sampled(st_, (FLAG, 0), stream(seed, 1 << 32))
    if meas.outcome != 1:
        return meas, None
    recovered = float(np.sqrt(meas.branch_weight * (1 << encoded.state.layout.width("C"))))
    block, off = extract_payload(meas.post_state, ("R",))
    window = block[:encoded.rows]
    nrm = float(np.linalg.norm(window))
    direction = window / nrm if nrm else np.zeros_like(window)
    residual = float(max(0.0, 1.0 - np.sum(np.abs(window) ** 2))) + off
    return meas, (recovered, direction * (encoded.scale * recovered), residual)


@st.composite
def row_sum_cases(draw):
    """A matrix, a mode and a seed.  Each row's sum is cut to ``eps`` of itself,
    so the labeled weight (about eps^2 / 2^width(C)) falls on either side of
    ``EMPTY_BRANCH_TOL``; eps = 0 leaves rounding noise, not an exact zero."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    eps = draw(st.sampled_from([1.0, 0.0]) | st.floats(4.0, 10.0).map(lambda k: 10.0 ** -k))
    if cols > 1:
        a[:, 0] -= (1.0 - eps) * a.sum(axis=1)
    mode = draw(st.sampled_from(["ideal", "sampled"]))
    return a, mode, draw(st.integers(0, 2**64 - 1))


_S = 1 / np.sqrt(2)


@settings(max_examples=150, deadline=None)
@given(row_sum_cases())
@example((np.array([[_S, -_S], [0.0, 0.0]]), "ideal", 0))  # acceptance criterion 5
@example((np.array([[1.0, -1.0 + 4e-7]]), "ideal", 0))      # weight just above the floor
@example((np.array([[1.0, -1.0 + 1e-7]]), "ideal", 0))      # weight just below it
@example((np.array([[1.0, -1.0 + 1e-7]]), "sampled", 3))
def test_row_sum_matches_the_dense_chain(case):
    a, mode, seed = case
    encoded = encode_rc(a)
    report = row_sum(encoded, mode=mode, seed=seed)
    meas, decoded = _dense_row_sum(encoded, mode, seed)
    assert report.outcome == meas.outcome
    assert np.float64(report.branch_weight).tobytes() == np.float64(meas.branch_weight).tobytes()
    assert report.final_state.layout == meas.post_state.layout
    assert report.final_state.amplitudes.tobytes() == meas.post_state.amplitudes.tobytes()
    if decoded is None:
        assert report.result is None and report.recovered_norm is None
        return
    recovered, matrix, residual = decoded
    assert report.recovered_norm == recovered
    assert report.result.matrix.tobytes() == matrix.tobytes()
    assert report.result.residual == residual


def test_row_sum_cases_straddle_the_empty_branch_floor():
    weights = [_dense_row_sum(encode_rc([[1.0, -1.0 + d]]), "ideal", 0)[0].branch_weight
               for d in (4e-7, 1e-7)]
    assert weights[0] > EMPTY_BRANCH_TOL
    assert weights[1] == 0.0  # at most the floor: "not-measured" reports weight 0


# --- Hermitian conjugation against the BLAS-Z, n-axis swap, search chain ----

def _conjugate_decode_reference(a):
    """``decode_rcm(hermitian_conjugate(encode_rcm(a)))`` as first written:
    the square-padded encoding, Z as a BLAS product, the swap as a transpose
    over every qubit axis and ``extract_payload``'s search over the one
    column of a ``(2^n, 1)`` array; ``(matrix, residual)``."""
    rows, cols = a.shape
    b, divisor, scale = _norm_scaling(a)
    w = max(_reg_width(rows), _reg_width(cols))
    n = 2 * w + 1
    amps = np.zeros((1 << w, 1 << w, 2), dtype=np.complex128)
    amps[:rows, :cols, 0] = b.real / divisor
    amps[:rows, :cols, 1] = b.imag / divisor
    amps = _apply_1q(amps.reshape(-1), n, n - 1, PAULI["Z"])
    axes = [*range(w, 2 * w), *range(w), n - 1]
    flat = np.transpose(amps.reshape([2] * n), axes).reshape(1 << n, -1)
    mass = np.sum(np.abs(flat) ** 2, axis=0)
    assert 1.0 - mass[int(np.argmax(mass))] <= 1e-8
    block = flat[:, 0].copy().reshape(1 << w, 1 << w, 2)
    entries = (block[:, :, 0] + 1j * block[:, :, 1])[:cols, :rows]
    keep = float(np.sum(np.abs(entries) ** 2))
    return entries / np.sqrt(keep) * scale, float(max(0.0, 1.0 - keep))


@st.composite
def conjugation_inputs(draw):
    """Complex, pure-real or pure-imaginary matrices up to 64x64 holding signed
    zeros, scaled by 1e-150 to 1e150."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["complex", "real", "imaginary"]))
    parts = rng.standard_normal((2, rows, cols))
    if kind != "complex":
        parts[1 if kind == "real" else 0] = 0.0
    zeros = rng.random(parts.shape) < draw(st.floats(0.0, 0.9))
    parts[zeros] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    a = np.empty((rows, cols), dtype=np.complex128)
    a.real, a.imag = parts
    if not np.any(a):
        a[-1, -1] = 1.0 if kind == "real" else -1j
    return a * 10.0 ** draw(st.integers(-150, 150))


@settings(max_examples=120, deadline=None)
@given(conjugation_inputs())
@example(np.array([[1j]]))
@example(np.array([[complex(-0.0, 0.0), 2.0], [complex(0.0, -0.0), -3j]]))
@example(np.array([[complex(-0.0, -0.0), 1e-200, complex(0.0, -0.0)]]))
def test_hermitian_conjugation_decodes_as_the_reference_chain(a):
    got = decode_rcm(hermitian_conjugate(encode_rcm(a)))
    matrix, residual = _conjugate_decode_reference(a)
    assert got.matrix.shape == (a.shape[1], a.shape[0])
    assert got.matrix.tobytes() == matrix.tobytes()
    assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()


def _long_row_with_signed_zeros():
    a = np.zeros((1, 65536), dtype=np.complex128)
    a.real = np.cos(np.arange(65536))
    a.imag = np.copysign(0.0, np.sin(np.arange(65536)))
    return a


@settings(max_examples=80, deadline=None)
@given(conjugation_inputs())
@example(_long_row_with_signed_zeros())
@example(np.arange(51).reshape(3, 17) * complex(-0.0, 1.0))  # R 2 and C 5 qubits wide
def test_hermitian_conjugation_state_is_z_then_swap(a):
    enc = encode_rcm(a)
    got = hermitian_conjugate(enc).state
    want = swap_registers(apply_single(enc.state, ("M", 0), "Z"), "R", "C")
    assert got.layout == want.layout
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


@st.composite
def bare_rcm_windows(draw):
    """``(state, rows, cols, scale)``: a complex state over R, C and M of up to
    5 + 5 + 1 qubits holding exact and signed zeros, a window inside its
    registers with some mass, and no scale or one in [1e-100, 1e100]."""
    wr, wc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows, cols = draw(st.integers(1, 1 << wr)), draw(st.integers(1, 1 << wc))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, 1 << wr, 1 << wc, 2))
    parts[rng.random(parts.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    assume(np.any(parts[:, :rows, :cols]))
    amps = np.empty(parts.shape[1:], dtype=np.complex128)
    amps.real, amps.imag = parts / np.sqrt(np.sum(parts**2))
    layout = RegisterLayout([("R", wr), ("C", wc), ("M", 1)])
    scale = draw(st.none() | st.floats(1e-100, 1e100))
    return PureState(layout, amps.reshape(-1)), rows, cols, scale


@settings(max_examples=150, deadline=None)
@given(bare_rcm_windows())
def test_decode_rcm_has_the_bytes_of_the_out_of_place_decode(case):
    state, rows, cols, scale = case
    got = decode_rcm(state, rows, cols, scale)
    window = state.amplitudes.reshape(1 << state.layout.width("R"), -1, 2)[:rows, :cols]
    matrix, residual = decode_rcm_reference(window, scale)
    assert got.matrix.tobytes() == matrix.tobytes()
    assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()
    assert got.known_scale == scale


@st.composite
def payload_blocks(draw):
    """``(block, crop, known_scale, phase_fix)``: a unit-norm complex block of up
    to 8x8 holding exact and signed zeros, a crop inside it with some mass, a
    known scale log-uniform in [1e-300, 1e300] or one float64 cannot hold, and
    a ``phase_fix`` of 1.0 or a random unit complex."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    crop = draw(st.integers(1, rows)), draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, rows, cols))
    parts[rng.random(parts.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    assume(np.any(parts[:, :crop[0], :crop[1]]))
    block = np.empty((rows, cols), dtype=np.complex128)
    block.real, block.imag = parts / np.sqrt(np.sum(parts**2))
    known_scale = draw(st.floats(-300, 300).map(lambda e: 10.0**e)
                       | st.sampled_from([0.0, math.inf]))
    angle = draw(st.floats(0.0, 2 * math.pi))
    phase_fix = draw(st.sampled_from([1.0, complex(math.cos(angle), math.sin(angle))]))
    return block, crop, known_scale, phase_fix


@settings(max_examples=200, deadline=None)
@given(payload_blocks())
def test_decoded_block_has_the_bytes_of_the_out_of_place_decode(case):
    block, crop, known_scale, phase_fix = case
    try:
        want = decoded_block_reference(block.copy(), crop, known_scale, phase_fix)
    except Exception as exc:  # the decode must raise what the reference raises
        want = exc
    try:
        got = _decoded_block(block.copy(), crop, known_scale, phase_fix)
    except Exception as exc:
        got = exc
    if isinstance(want, Exception):
        assert type(got) is type(want)
        return
    matrix, residual, scale = want
    assert got.matrix.tobytes() == matrix.tobytes()
    assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()
    assert got.known_scale == scale


@st.composite
def scaled_matrices(draw):
    """Complex matrices of up to 40x40 holding exact and signed zeros in both
    parts, scaled log-uniformly in [1e-300, 1e300], C- or Fortran-ordered,
    never all zero."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, rows, cols))
    parts[rng.random(parts.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    parts = np.copysign(parts, rng.standard_normal(parts.shape))
    assume(np.any(parts))
    a = np.empty((rows, cols), dtype=np.complex128, order=draw(st.sampled_from("CF")))
    a.real, a.imag = parts * 10.0 ** draw(st.floats(-300, 300))
    return a


@settings(max_examples=150, deadline=None)
@given(scaled_matrices())
# Norms past float64's normal range take _norm_scaling's power-of-two path.
@example(np.array([[complex(-0.0, 1e-300), complex(1e-300, -0.0)]]))
@example(np.array([[complex(1e300, 0.0)], [complex(-1e300, -0.0)]]))
def test_encode_rcm_has_the_bytes_of_one_divide_per_part(a):
    assert encode_rcm(a).state.amplitudes.tobytes() == encode_rcm_reference(a).tobytes()


# --- add, mul, solve and inner answers under a -> c*a over float64's range --

@st.composite
def scaled_stage_runs(draw):
    """``(stage, inputs, c)``: ``inputs(s)`` are a stage's inputs whose result
    is ``s`` times the ``s = 1`` result (the inner product's phase does not
    move), real or complex, up to 8x8; c is log-uniform in [1e-300, 1e300]."""
    name = draw(st.sampled_from(["add", "mul", "solve", "inner"]))
    rows, inner = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())

    def sample(*shape):
        x = rng.standard_normal(shape) + 0j
        if not real:
            x.imag = rng.standard_normal(shape)
        return x

    a = sample(rows, inner)
    b = {"add": lambda: sample(rows, inner), "mul": lambda: sample(inner, rows),
         "solve": lambda: sample(inner), "inner": lambda: sample(rows * inner)}[name]()
    c = 10.0 ** draw(st.floats(-300.0, 300.0))
    if name == "add":
        return matrix_add, lambda s: (s * a, s * b), c
    if name == "inner":
        return inner_product_phase, lambda s: (s * a.reshape(-1), s * b), c
    return {"mul": matrix_mul, "solve": linear_stage}[name], lambda s: (s * a, b), c


@settings(max_examples=100, deadline=None)
@given(scaled_stage_runs())
def test_end_stage_answers_do_not_move_under_scaling(run):
    stage, inputs, c = run
    want = stage(*inputs(1.0))
    assume(want.outcome == 1)
    if stage is inner_product_phase:
        # The phase of z moves by |dz| / |z|; recovered_norm is |z| here.
        got = stage(*inputs(c))
        assert abs(got.result - want.result) * want.recovered_norm <= 1e-12
        return
    peak = float(np.max(np.abs(want.result.matrix)))
    assume(1e-290 < c * peak < 1e300)  # a result float64 can hold, to full precision
    got = stage(*inputs(c))
    assert np.max(np.abs(got.result.matrix / c - want.result.matrix)) <= 1e-12 * peak


# --- labeled payloads: tuple keys against a per-key index_of -----------------

@settings(max_examples=100, deadline=None)
@given(layouts(max_qubits=8), st.data())
def test_prepared_keys_land_at_their_basis_index_in_any_order(layout, data):
    # The label may sit anywhere; the keys assign the other registers in order.
    other = list(layout.registers)
    at = data.draw(st.integers(0, len(other)))
    layout = RegisterLayout([*other[:at], (LABEL, 1), *other[at:]])
    keys = data.draw(st.lists(st.tuples(*(st.integers(0, (1 << w) - 1) for _, w in other)),
                              unique=True, max_size=16))
    values = data.draw(st.lists(st.complex_numbers(max_magnitude=1.0 / 16),
                                min_size=len(keys), max_size=len(keys)))
    payload = dict(zip(keys, values))  # drawn order, rarely C order
    weight = sum(abs(v) ** 2 for v in values)
    labeled = prepare_labeled_state(payload, layout, LABEL, 1.0 - weight, stream(0))
    want = [layout.index_of({**dict(zip((n for n, _ in other), key)), LABEL: 1}) for key in keys]
    assert labeled.positions.tolist() == want
    assert np.array_equal(labeled.coefficients, np.array(values, dtype=np.complex128))


@settings(max_examples=100, deadline=None)
@given(layouts(max_qubits=8), st.data(), st.integers(0, 2**32 - 1))
def test_closed_form_stage_places_coeffs_in_c_order(layout, data, seed):
    registers = list(layout.registers)
    fixed = {name: data.draw(st.integers(0, (1 << w) - 1)) for name, w in registers
             if data.draw(st.booleans())}
    free = [name for name, _ in registers if name not in fixed]
    shape = tuple(1 << layout.width(name) for name in free)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs /= 2.0 * np.linalg.norm(coeffs)
    report = _closed_form_stage(registers, fixed, coeffs, "ideal", 0,
                                recover=lambda root: root, decode=lambda block, _: block)
    full = RegisterLayout([*registers, (LABEL, 1)])
    want = [full.index_of({**fixed, **dict(zip(free, map(int, index))), LABEL: 1})
            for index in np.ndindex(*shape)]
    meas = report.measurement
    assert meas.positions.tolist() == [2 * p + 1 for p in want]  # the flag appended last
    assert np.array_equal(meas.amplitudes, coeffs.reshape(-1) / np.sqrt(meas.branch_weight))


# --- CLI matrix I/O against the per-entry reader and the recursive writer ---

def _reference_read_matrix(path):
    """The per-entry reader ``read_matrix`` replaced, with its exit-code fixes:
    boolean rows/cols, non-list data, integers past float64 and boolean
    entries are malformed."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not {"rows", "cols", "data"} <= set(raw):
        raise CliInputError(f"{path}: expected keys rows, cols, data")
    rows, cols, data = raw["rows"], raw["cols"], raw["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1
            and not isinstance(rows, bool) and not isinstance(cols, bool)):
        raise CliInputError(f"{path}: rows and cols must be positive integers")
    if not isinstance(data, list):
        raise CliInputError(f"{path}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise CliInputError(
            f"{path}: data must hold rows*cols = {rows * cols} entries, got {len(data)}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in pair)):
            raise CliInputError(f"{path}: entry {i} is not an [re, im] pair")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            out[i] = np.inf
    if not np.all(np.isfinite(out)):
        raise CliInputError(f"{path}: entries must be finite")
    return out.reshape(rows, cols)


_NEAR_2_63 = st.integers(-3, 3).map(lambda d: 2**63 + d)
_NEAR_2_64 = st.integers(-3, 3).map(lambda d: 2**64 + d)
# One kind of number per file, so that each numpy dtype the array path meets
# (bool, int64, uint64, float64, object) is drawn whole as well as mixed.
_NUMBER_KINDS = [
    st.booleans(),
    st.integers(-2**63, 2**63 - 1),
    _NEAR_2_63 | _NEAR_2_64,
    _NEAR_2_63 | _NEAR_2_64 | _NEAR_2_63.map(lambda v: -v) | _NEAR_2_64.map(lambda v: -v),
    st.integers(2**1020, 2**1030) | st.integers(-3, 3).map(lambda d: d * 10**400),
    st.floats(),
    st.booleans() | st.integers() | st.floats(),
    st.booleans() | st.integers(-2**70, 2**70) | st.floats(allow_nan=False, allow_infinity=False),
]
_JUNK = st.one_of(
    st.text(max_size=3), st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.integers(), st.floats(),
    st.lists(st.integers(), max_size=3).filter(lambda v: len(v) != 2),
    st.lists(st.lists(st.integers(), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.none(),
                       st.lists(st.integers(), max_size=2)), min_size=2, max_size=2),
)
_BAD_SIZES = st.sampled_from([True, False, 0, -1, 1.0, "2", None])


@st.composite
def matrix_files(draw):
    """A matrix file as a JSON-ready dict: well formed, or broken in one place."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    number = draw(st.sampled_from(_NUMBER_KINDS))
    pair = st.lists(number, min_size=2, max_size=2)
    data = draw(st.lists(pair, min_size=rows * cols, max_size=rows * cols))
    raw = {"rows": rows, "cols": cols, "data": data}
    fault = draw(st.sampled_from(["none", "none", "entry", "entry", "length",
                                  "size", "data", "key"]))
    if fault == "entry":
        data[draw(st.integers(0, len(data) - 1))] = draw(_JUNK)
    elif fault == "length" and (len(data) == 1 or draw(st.booleans())):
        data.append(draw(pair))
    elif fault == "length":
        data.pop()
    elif fault == "size":
        raw[draw(st.sampled_from(["rows", "cols"]))] = draw(_BAD_SIZES)
    elif fault == "data":
        raw["data"] = draw(st.one_of(st.text(max_size=3), st.none(), st.just({})))
    elif fault == "key":
        del raw[draw(st.sampled_from(sorted(raw)))]
    return raw


def _read_outcome(reader, path):
    try:
        m = reader(path)
    except CliInputError as exc:
        return str(exc)
    return m.shape, m.dtype, m.tobytes()


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli_io") / "m.json")


@settings(max_examples=400, deadline=None)
@given(matrix_files())
@example({"rows": 1, "cols": 2, "data": [[True, 0], [2**63, -(2**63)]]})
@example({"rows": 1, "cols": 1, "data": [[10**400, "x"]]})
@example({"rows": 2, "cols": 1, "data": [[-10**400, 0], [1, None]]})
def test_read_matrix_matches_the_per_entry_reader(matrix_path, raw):
    with open(matrix_path, "w") as fh:
        json.dump(raw, fh)  # NaN and +-Infinity as JSON literals
    assert (_read_outcome(read_matrix, matrix_path)
            == _read_outcome(_reference_read_matrix, matrix_path))


def _reference_dumps(obj):
    """The recursive formatter ``dumps`` used for every float, matrices included."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_dumps(v)}"
                              for k, v in obj.items()) + "}"
    return "[" + ",".join(_reference_dumps(v) for v in obj) + "]"


def _reference_filedict(m):
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def float_matrices(draw):
    """Complex matrices whose parts are any float64, NaN and infinities included."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(), min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(float_matrices())
@example(np.array(_EDGE_FLOATS + _EDGE_FLOATS[::-1]).view(np.complex128).reshape(2, 4))
def test_dumps_matches_the_recursive_writer(m):
    for view in (m, m.T):  # C- and Fortran-ordered
        assert dumps(matrix_to_filedict(view)) == _reference_dumps(_reference_filedict(view))
