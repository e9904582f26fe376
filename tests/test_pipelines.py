import tracemalloc
import warnings

import numpy as np
import pytest

from qlasim import (
    EMPTY_BRANCH_TOL,
    RegisterLayout,
    add_ancilla,
    bilinear,
    branch_probability,
    cnot,
    controlled_measure,
    controlled_on_zero_flip,
    decode_rcm,
    det_lu,
    determinant_phase,
    encode_rc,
    encode_rcm,
    hadamard_register,
    hermitian_conjugate,
    inner_product_phase,
    inverse_gj,
    linear_stage,
    matrix_add,
    matrix_inverse,
    matrix_mul,
    naive_success_bench,
    postselect,
    prepare_labeled_state,
    row_sum,
    row_sums,
    stream,
    swap_registers,
)
from qlasim.encode import extract_payload
from qlasim.linalg import SingularMatrixError
from qlasim.measure import measure_sampled
from qlasim.pipelines import FLAG, LABEL, PreparationError, _row_sum_labeled, _scale_divisor
from qlasim.states import add_ancilla

ATOL = 1e-10


def _rand(rng, rows, cols=None):
    shape = (rows,) if cols is None else (rows, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _direction(x):
    x = np.asarray(x)
    return x / np.linalg.norm(x)


# --- row sums ----------------------------------------------------------------

def test_row_sum_uniform_matrix_has_no_garbage():
    report = row_sum(encode_rc([[0.5, 0.5], [0.5, 0.5]]))
    assert report.outcome == 1
    assert report.branch_weight == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        _direction(report.result.matrix), np.array([1, 1]) / np.sqrt(2), atol=1e-12
    )


def test_row_sum_cancellation_leaves_state_unchanged():
    s = 1 / np.sqrt(2)
    encoded = encode_rc([[s, -s], [0.0, 0.0]])
    report = row_sum(encoded)
    assert report.outcome is None
    assert report.result is None
    assert report.branch_weight == 0.0

    # rebuild the pre-measurement state by hand: bit-identical to what the
    # pipeline reports back as untouched
    expected = hadamard_register(encoded.state, "C")
    expected = controlled_on_zero_flip(add_ancilla(expected, LABEL), "C", (LABEL, 0))
    expected = cnot(add_ancilla(expected, FLAG), (LABEL, 0), (FLAG, 0))
    np.testing.assert_array_equal(report.final_state.amplitudes, expected.amplitudes)


def test_row_sum_matches_classical_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = _rand(rng, 4, 4)
        report = row_sum(encode_rc(a))
        sums = row_sums(a)
        np.testing.assert_allclose(
            _direction(report.result.matrix), _direction(sums), atol=ATOL
        )
        np.testing.assert_allclose(report.result.matrix, sums, atol=1e-9)
        normalized = row_sums(a / np.linalg.norm(a))
        expected_weight = float(np.sum(np.abs(normalized) ** 2)) / 4
        assert report.branch_weight == pytest.approx(expected_weight, abs=ATOL)
        assert report.recovered_norm == pytest.approx(
            float(np.linalg.norm(normalized)), abs=ATOL
        )


def test_row_sum_gate_depth_is_linear_in_summed_width():
    depths = {}
    for n_c in (1, 2, 3, 4):
        a = np.full((2, 2 ** n_c), 1.0)
        depths[n_c] = row_sum(encode_rc(a)).gate_depth
    assert depths[1] == 5  # 1 Hadamard + depth-3 flip + labeling CNOT
    for n_c in (2, 3):
        assert depths[n_c + 1] - depths[n_c] == 5  # one Hadamard + 4 flip layers


# --- Hermitian conjugation ----------------------------------------------------

def test_hconj_scalar_imaginary():
    dec = decode_rcm(hermitian_conjugate(encode_rcm([[1j]])))
    np.testing.assert_allclose(dec.matrix, [[-1j]], atol=1e-15)


def test_hconj_real_transpose():
    dec = decode_rcm(hermitian_conjugate(encode_rcm([[0.0, 1.0], [0.0, 0.0]])))
    np.testing.assert_allclose(dec.matrix, [[0, 0], [1, 0]], atol=1e-15)


def test_hconj_random_matches_conjugate_transpose():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = _rand(rng, 4, 4)
        dec = decode_rcm(hermitian_conjugate(encode_rcm(a)))
        np.testing.assert_allclose(dec.matrix, a.conj().T, atol=1e-12)


def test_hconj_involution_on_state():
    rng = np.random.default_rng(33)
    a = _rand(rng, 4, 4)
    enc = encode_rcm(a)
    back = hermitian_conjugate(hermitian_conjugate(enc))
    np.testing.assert_allclose(back.state.amplitudes, enc.state.amplitudes, atol=1e-12)


def test_hconj_hermitian_fixed_point():
    rng = np.random.default_rng(34)
    a = _rand(rng, 4, 4)
    h = a + a.conj().T
    dec = decode_rcm(hermitian_conjugate(encode_rcm(h)))
    np.testing.assert_allclose(dec.matrix, h, atol=1e-12)


def test_hconj_rectangular_pads_and_crops():
    rng = np.random.default_rng(35)
    a = _rand(rng, 2, 4)
    conj = hermitian_conjugate(encode_rcm(a))
    assert (conj.rows, conj.cols) == (4, 2)
    np.testing.assert_allclose(decode_rcm(conj).matrix, a.conj().T, atol=1e-12)
    # and back again, cropping to the original shape
    back = hermitian_conjugate(conj)
    np.testing.assert_allclose(decode_rcm(back).matrix, a, atol=1e-12)


def test_hconj_preserves_norm_and_scale():
    rng = np.random.default_rng(36)
    a = _rand(rng, 3, 3)
    enc = encode_rcm(a)
    conj = hermitian_conjugate(enc)
    assert conj.scale == enc.scale
    assert conj.state.norm() == pytest.approx(1.0, abs=1e-12)


# --- prepared labeled states ---------------------------------------------------

def test_prepare_labeled_pure_payload():
    layout = RegisterLayout([("v", 1), (LABEL, 1)])
    labeled = prepare_labeled_state({(0,): 1.0}, layout, LABEL, 0.0, stream(0))
    expected = np.zeros(4)
    expected[layout.index_of({"v": 0, LABEL: 1})] = 1.0
    np.testing.assert_array_equal(labeled.state.amplitudes, expected)


def test_prepare_labeled_pure_garbage_never_measures():
    layout = RegisterLayout([("v", 2), (LABEL, 1)])
    labeled = prepare_labeled_state({}, layout, LABEL, 1.0, stream(1))
    assert labeled.garbage_weight == 1.0
    st = cnot(add_ancilla(labeled.state, FLAG), (LABEL, 0), (FLAG, 0))
    res = controlled_measure(st, (LABEL, 0), (FLAG, 0))
    assert res.outcome is None
    assert res.post_state is st


def test_prepare_labeled_weight_mismatch():
    layout = RegisterLayout([("v", 1), (LABEL, 1)])
    with pytest.raises(ValueError, match="sum to 1"):
        prepare_labeled_state({(0,): 0.5}, layout, LABEL, 0.5, stream(2))


@pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.inf), complex(np.nan, 0.0)])
def test_prepare_labeled_rejects_nonfinite_coefficients(bad):
    # A NaN passed the weight checks and failed only later, in a norm check.
    layout = RegisterLayout([("S", 1), (LABEL, 1)])
    with pytest.raises(ValueError, match="payload coefficients must be finite"):
        prepare_labeled_state({(0,): bad, (1,): 0.5}, layout, LABEL, 0.75, stream(3))


def test_prepare_labeled_sector_invariant():
    rng = np.random.default_rng(37)
    layout = RegisterLayout([("v", 2), ("aux", 1), (LABEL, 1)])
    coeff = 0.3 + 0.4j
    labeled = prepare_labeled_state(
        {(2, 0): coeff}, layout, LABEL, 1.0 - abs(coeff) ** 2, rng
    )
    p = branch_probability(labeled.state, (LABEL, 0), 1)
    assert p + labeled.garbage_weight == pytest.approx(1.0, abs=1e-10)
    # the labeled sector holds only the declared basis point
    assert labeled.state.amplitudes[layout.index_of({"v": 2, "aux": 0, LABEL: 1})] == coeff
    nd = labeled.state.amplitudes.reshape(4, 2, 2)
    labeled_sector = nd[:, :, 1].copy()
    labeled_sector[2, 0] = 0.0
    assert np.all(labeled_sector == 0)


# --- inner product phase --------------------------------------------------------

def test_inner_phase_identity_vectors():
    report = inner_product_phase([1, 0], [1, 0])
    assert report.outcome == 1
    assert report.result == pytest.approx(1.0, abs=1e-12)


def test_inner_phase_is_bilinear_not_sesquilinear():
    report = inner_product_phase([1, 0], [1j, 0])
    assert report.result == pytest.approx(1j, abs=1e-12)


def test_inner_phase_random_matches_direct_sum():
    rng = np.random.default_rng(38)
    for _ in range(20):
        p1, p2 = _rand(rng, 8), _rand(rng, 8)
        report = inner_product_phase(p1, p2)
        ip = bilinear(_direction(p2), _direction(p1))
        assert abs(report.result - ip / abs(ip)) < ATOL
        assert report.branch_weight == pytest.approx(abs(ip) ** 2 / 2 ** 9, abs=ATOL)
        assert report.recovered_norm == pytest.approx(abs(ip), abs=ATOL)


def test_inner_phase_orthogonal_not_measured():
    report = inner_product_phase([1.0, 0.0], [0.0, 1.0])
    assert report.outcome is None
    assert report.result is None


def test_inner_phase_rejects_length_mismatch_and_zero():
    with pytest.raises(ValueError, match="length mismatch"):
        inner_product_phase([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="zero vector"):
        inner_product_phase([0, 0], [1, 0])


# --- matrix addition -------------------------------------------------------------

def test_add_identity_pair():
    report = matrix_add(np.eye(2), np.eye(2))
    np.testing.assert_allclose(report.result.matrix, 2 * np.eye(2), atol=1e-10)


def test_add_opposite_pair_not_measured():
    rng = np.random.default_rng(39)
    a = _rand(rng, 4, 4)
    report = matrix_add(a, -a)
    assert report.outcome is None
    assert report.result is None


def test_add_random_matches_oracle():
    rng = np.random.default_rng(40)
    for _ in range(20):
        a, b = _rand(rng, 4, 4), _rand(rng, 4, 4)
        report = matrix_add(a, b)
        np.testing.assert_allclose(
            _direction(report.result.matrix), _direction(a + b), atol=ATOL
        )
        np.testing.assert_allclose(report.result.matrix, a + b, atol=1e-9)


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        matrix_add(np.eye(2), np.eye(3))


# --- matrix multiplication --------------------------------------------------------

def test_mul_by_identity():
    rng = np.random.default_rng(41)
    a = _rand(rng, 4, 4)
    report = matrix_mul(a, np.eye(4))
    np.testing.assert_allclose(
        _direction(report.result.matrix), _direction(a), atol=ATOL
    )


def test_mul_nilpotent_not_measured():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = matrix_mul(n, n)
    assert report.outcome is None
    assert report.result is None


def test_mul_random_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a, b = _rand(rng, 4, 4), _rand(rng, 4, 4)
        report = matrix_mul(a, b)
        np.testing.assert_allclose(
            _direction(report.result.matrix), _direction(a @ b), atol=ATOL
        )
        np.testing.assert_allclose(report.result.matrix, a @ b, atol=1e-9)


def test_mul_rectangular_shapes():
    rng = np.random.default_rng(43)
    a, b = _rand(rng, 2, 4), _rand(rng, 4, 3)
    report = matrix_mul(a, b)
    assert report.result.matrix.shape == (2, 3)
    np.testing.assert_allclose(report.result.matrix, a @ b, atol=1e-9)


# --- determinant phase ---------------------------------------------------------------

def test_det_phase_identity():
    report = determinant_phase(np.eye(3))
    assert report.result == pytest.approx(1.0, abs=1e-12)


def test_det_phase_imaginary_diag():
    report = determinant_phase(np.diag([1j, 1.0]))
    assert report.result == pytest.approx(1j, abs=1e-12)


def test_det_phase_random_matches_lu_oracle():
    rng = np.random.default_rng(44)
    for _ in range(20):
        a = _rand(rng, 4, 4)
        report = determinant_phase(a)
        d = det_lu(a)
        assert abs(report.result - d / abs(d)) < ATOL
        assert abs(abs(report.result) - 1.0) < 1e-12
        assert report.recovered_norm == pytest.approx(abs(d), rel=1e-10)


def test_det_phase_scale_invariant_but_weight_scales():
    rng = np.random.default_rng(45)
    a = _rand(rng, 4, 4)
    base = determinant_phase(a)
    for c in (0.5, 2.0):
        scaled = determinant_phase(c * a)
        assert abs(scaled.result - base.result) < 1e-12
        assert scaled.branch_weight / base.branch_weight == pytest.approx(
            c ** 8, rel=1e-9
        )


def test_det_phase_singular_not_measured():
    report = determinant_phase([[1.0, 2.0], [2.0, 4.0]])
    assert report.outcome is None


def test_det_phase_exponent_headroom():
    with pytest.raises(ValueError, match="scale_exponent"):
        determinant_phase(100.0 * np.eye(2), scale_exponent=2)


def test_det_phase_weight_underflow_raises():
    # det = 1e-200 is nonzero, but |det / 2^2|^2 underflows to 0.0: the
    # labeled branch exists and cannot be represented, so it is not "empty".
    with pytest.raises(PreparationError, match="underflows"):
        determinant_phase(1e-100 * np.eye(2))


def test_det_phase_coefficient_underflowing_to_zero_raises():
    # Condition number 1 and det = 1e-300, but det / 2^(32^2/2) is 0.0: the
    # branch exists, so it must not read as "not-measured".
    with pytest.raises(PreparationError, match="coefficient .* underflows"):
        determinant_phase(10.0 ** (-300 / 32) * np.eye(32))


def _random16():
    return _rand(np.random.default_rng(0x4B), 16, 16)


@pytest.mark.parametrize("a", [np.eye(5), np.eye(8), np.diag([1e-3, 1e-3, 1.0, 1.0]),
                               _random16()], ids=["eye5", "eye8", "diag", "random16"])
def test_det_phase_succeeds_below_the_empty_branch_bound(a):
    # The coefficient det / 2^(N^2/2) is exact and nonzero; only its weight is
    # below EMPTY_BRANCH_TOL, which used to report "not-measured".
    report = determinant_phase(a)
    d = np.linalg.det(a)
    assert report.outcome == 1
    assert 0.0 < report.branch_weight <= EMPTY_BRANCH_TOL
    assert abs(report.result - d / abs(d)) < ATOL


def test_tiny_closed_form_branch_succeeds():
    report = inner_product_phase([1.0, 0.0], [1e-10, 1.0])
    assert report.outcome == 1
    assert 0.0 < report.branch_weight < 1e-20
    assert report.result == 1.0


def test_nonzero_branch_with_underflowing_weight_raises():
    # The inner product is 1e-170: nonzero, but its square underflows float64.
    with pytest.raises(PreparationError, match="underflows"):
        inner_product_phase([1.0, 0.0], [1e-170, 1.0])


@pytest.mark.parametrize("stage, inputs", [
    (inner_product_phase, ([1.0, 0.0], [1e-160, 1.0])),
    (matrix_mul, ([[1e160, 0.0]], [[1.0], [1e160]])),
])
def test_subnormal_weight_too_coarse_to_renormalize_raises(stage, inputs):
    # The labeled weight, 1.25e-321, holds 8 bits: dividing by its root left
    # |amplitudes|^2 = 1.0000111, a bare ValueError that read as an input error.
    with pytest.raises(PreparationError, match="underflow"):
        stage(*inputs)


@pytest.mark.parametrize("tiny", [1e-155, 1e-150])
def test_subnormal_weight_with_enough_bits_succeeds(tiny):
    # Weights 1.25e-311 and 1.25e-301: the first is subnormal, with 41 bits.
    report = inner_product_phase([1.0, 0.0], [tiny, 1.0])
    assert report.outcome == 1
    assert report.result == 1.0


@pytest.mark.parametrize("stage", [matrix_inverse, determinant_phase])
def test_underflowing_determinant_raises(stage):
    # Condition number 1, but det = 1e-360 is below float64's range.
    with pytest.raises(PreparationError, match="underflow"):
        stage(1e-90 * np.eye(4))


@pytest.mark.parametrize("n, exponent", [(64, None), (2, 4096), (2, -5000)])
def test_det_phase_unrepresentable_scale_raises(n, exponent):
    # The default exponent at 64x64 is 4096, and 2^2048 overflows float64;
    # 2^-2500 is 0.0.
    with pytest.raises(PreparationError, match="scale"):
        determinant_phase(np.eye(n), scale_exponent=exponent)


@pytest.mark.parametrize("exponent", [4096, -5000])
def test_inverse_unrepresentable_scale_raises(exponent):
    # matrix_inverse divides by _scale_divisor(e) with e derived from the
    # input. 2^2048 overflows float64 and 2^-2500 is 0.0; an OverflowError and
    # a "payload squared norm exceeds 1" ValueError used to escape instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreparationError, match="scale"):
            _scale_divisor(exponent)


def test_inverse_derived_scale_past_float64_raises():
    # det = 2^1023 is finite and the condition number is 2^26, but
    # |det| * |inv|_F is just above 2^1023, so the derived e is 2048 and
    # 2^(e/2) overflows; numpy's power warned before raising here.
    a = np.diag([1.0] + [2.0 ** 26] * 39 + [2.0 ** 9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreparationError, match=r"scale 2\^\(2048.0/2\)"):
            matrix_inverse(a)


def test_inverse_of_a_matrix_past_float64_raises():
    # The scale exponent is derived from |det(a)|, here 1e320; an input past
    # float64's range ends in a PreparationError, not in an inf or nan scale.
    with pytest.raises(PreparationError):
        matrix_inverse(1e80 * np.eye(4))


# --- matrix inversion ------------------------------------------------------------------

def test_inverse_identity():
    report = matrix_inverse(np.eye(2))
    np.testing.assert_allclose(report.result.matrix, np.eye(2), atol=1e-10)


def test_inverse_diagonal_direction():
    report = matrix_inverse(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(
        _direction(report.result.matrix), _direction(np.diag([0.5, 0.25])), atol=ATOL
    )


def test_inverse_random_residual():
    rng = np.random.default_rng(46)
    for _ in range(20):
        a = _rand(rng, 4, 4)
        report = matrix_inverse(a)
        assert np.max(np.abs(report.result.matrix @ a - np.eye(4))) < 1e-8
        oracle = inverse_gj(a).value
        assert report.recovered_norm == pytest.approx(
            float(np.linalg.norm(oracle)), rel=1e-9
        )


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        matrix_inverse([[1.0, 2.0], [2.0, 4.0]])


def test_inverse_of_tiny_well_conditioned_matrix():
    a = 1e-14 * np.eye(2)
    report = matrix_inverse(a)
    assert report.outcome == 1
    expected = np.linalg.inv(a)
    assert np.max(np.abs(report.result.matrix - expected)) <= ATOL * np.max(np.abs(expected))


def test_inverse_ill_conditioned_raises():
    with pytest.raises(SingularMatrixError, match="condition"):
        matrix_inverse(np.diag([1.0, 1e-10]))


# --- linear contraction stage --------------------------------------------------------------

def test_linear_stage_identity_matrix():
    report = linear_stage(np.eye(2), [1.0, 0.0])
    np.testing.assert_allclose(report.result.matrix, [1.0, 0.0], atol=1e-10)


def test_linear_stage_orthogonal_not_measured():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    report = linear_stage(a, [0.0, 1.0])
    assert report.outcome is None


def test_linear_stage_random_matches_oracle():
    rng = np.random.default_rng(47)
    for _ in range(20):
        a, b = _rand(rng, 4, 4), _rand(rng, 4)
        report = linear_stage(a, b)
        np.testing.assert_allclose(
            _direction(report.result.matrix), _direction(a @ b), atol=ATOL
        )
        np.testing.assert_allclose(report.result.matrix, a @ b, atol=1e-9)


# --- inputs over float64's whole range -----------------------------------------------------

_SCALE_RNG = np.random.default_rng(70)
_SA, _SB, _SC, _SV = (_rand(_SCALE_RNG, 3, 4), _rand(_SCALE_RNG, 3, 4), _rand(_SCALE_RNG, 4, 2),
                      _rand(_SCALE_RNG, 4))

# Each stage with inputs whose result is c times the c = 1 result; the inner
# product's phase does not move at all.
_SCALED_INPUTS = {
    "add": (matrix_add, lambda c: (c * _SA, c * _SB)),
    "mul": (matrix_mul, lambda c: (c * _SA, _SC)),
    "solve": (linear_stage, lambda c: (c * _SA, _SV)),
    "inner": (inner_product_phase, lambda c: (c * _SV, c * _SV[::-1])),
}


@pytest.mark.parametrize("c", [1e-300, 1e300])
@pytest.mark.parametrize("name", sorted(_SCALED_INPUTS))
def test_end_stage_answer_holds_at_the_ends_of_float64(name, c):
    # The squared entries leave float64's range at both ends, where
    # np.linalg.norm reads inf or 0: the stages reported "labeled branch
    # empty" at 1e300 and an all-zero input at 1e-300.
    stage, inputs = _SCALED_INPUTS[name]
    want = stage(*inputs(1.0))
    got = stage(*inputs(c))
    assert got.outcome == 1
    if name == "inner":
        assert abs(got.result - want.result) <= 1e-12
    else:
        err = np.max(np.abs(got.result.matrix / c - want.result.matrix))
        assert err <= 1e-12 * np.max(np.abs(want.result.matrix))


@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_inverse_of_a_scalar_far_from_one(x):
    # |det| * |inv|_F is 1, but |inv|_F was taken as np.linalg.norm, which
    # reads 0 or inf here: "scale 2^(-inf/2) is not representable".
    report = matrix_inverse([[x]])
    assert report.outcome == 1
    assert report.result.matrix[0, 0] == pytest.approx(1 / x, rel=1e-12)


@pytest.mark.parametrize("stage, inputs", [
    (matrix_mul, ([[1e160, 0.0]], [[1e140], [1e160]])),
    (linear_stage, ([[1e160, 0.0]], [1e140, 1e160])),
], ids=["mul", "solve"])
def test_input_norms_past_float64_with_a_result_that_fits(stage, inputs):
    # The input norms multiply to 1e320, past float64, but the answer is
    # 1e300: "the result's norm is outside float64's range" was raised here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = stage(*inputs)
    assert report.outcome == 1
    assert report.result.known_scale == 1e300
    assert report.result.matrix.reshape(-1).tolist() == [1e300]


_EYE2 = np.eye(2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "-infj"])
@pytest.mark.parametrize("call", [
    lambda x: inner_product_phase(x[0], [1.0, 0.0]),
    lambda x: matrix_add(x, _EYE2),
    lambda x: matrix_mul(x, _EYE2),
    lambda x: determinant_phase(x),
    lambda x: matrix_inverse(x),
    lambda x: linear_stage(_EYE2, x[0]),
    lambda x: linear_stage(x, [1.0, 0.0]),
], ids=["inner", "add", "mul", "det-phase", "inverse", "solve-vector", "solve-matrix"])
def test_nonfinite_entries_raise(call, bad):
    # matrix_mul, linear_stage and determinant_phase used to report "not-measured".
    x = np.array([[bad, 0.5], [0.25, 1.0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="finite"):
        call(x)


# --- sampled mode and the measurement benchmark ------------------------------------------------

def _single_column(n_r: int) -> np.ndarray:
    column = np.zeros((4, 2 ** n_r))
    column[:, min(1, 2 ** n_r - 1)] = [0.5, -0.5, 0.5, 0.5]
    return column


def test_bench_single_column_probabilities():
    encoded = [encode_rc(_single_column(n_r)) for n_r in (1, 2, 3)]
    rows = naive_success_bench(encoded, trials=10_000, master_seed=0)
    for row, n_r in zip(rows, (1, 2, 3)):
        assert row.analytic_p == 2.0 ** (-n_r)
        sigma = np.sqrt(row.analytic_p * (1 - row.analytic_p) / 10_000)
        assert abs(row.empirical_p - row.analytic_p) <= 3 * sigma
        assert row.controlled_success_rate == 1.0


def test_bench_uniform_matrix_always_succeeds():
    a = np.full((2, 4), np.sqrt(1 / 8))
    row = naive_success_bench(encode_rc(a), trials=200, master_seed=1)[0]
    assert row.analytic_p == pytest.approx(1.0, abs=1e-12)
    assert row.empirical_p == 1.0


def test_bench_log_slope_is_minus_one():
    rows = naive_success_bench(
        [encode_rc(_single_column(n_r)) for n_r in range(2, 7)],
        trials=10, master_seed=2,
    )
    logs = [np.log2(r.analytic_p) for r in rows]
    diffs = np.diff(logs)
    np.testing.assert_allclose(diffs, -1.0, atol=1e-12)


def test_bench_hits_equal_per_trial_measurement():
    # Reference: a measure_sampled call on substream t for every trial t.
    rng = np.random.default_rng(49)
    for encoded, seed in ((encode_rc(_rand(rng, 4, 4)), 5),
                          (encode_rc(_single_column(2)), 2**64 - 1)):
        pre = cnot(add_ancilla(_row_sum_labeled(encoded), FLAG), (LABEL, 0), (FLAG, 0))
        hits = sum(measure_sampled(pre, (FLAG, 0), stream(seed, t)).outcome == 1
                   for t in range(300))
        row = naive_success_bench(encoded, trials=300, master_seed=seed)[0]
        assert row.empirical_p == hits / 300


def test_bench_empirical_p_is_pinned():
    # Acceptance criterion 2's inputs; values drawn by a per-trial measure_sampled loop.
    pinned = [0.4998, 0.2554, 0.1267, 0.0592, 0.0311, 0.0159]
    for n_r, expected in zip(range(1, 7), pinned):
        column = np.zeros((4, 2 ** n_r))
        column[:, 2 ** n_r - 1] = [0.5, -0.5, 0.5, 0.5]
        row = naive_success_bench(encode_rc(column), 10_000, master_seed=n_r)[0]
        assert row.empirical_p == expected


def test_bench_draws_in_bounded_memory():
    # Unchunked draws peak near 136 MB here; chunked, the ids and the draws
    # themselves (16 B per trial) are most of the peak.
    encoded = encode_rc(_single_column(1))
    tracemalloc.start()
    try:
        row = naive_success_bench(encoded, trials=1_000_000, master_seed=3)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert abs(row.empirical_p - 0.5) < 5 * np.sqrt(0.25 / 1_000_000)


def test_sampled_mode_success_matches_ideal_post_state():
    rng = np.random.default_rng(48)
    a = _rand(rng, 4, 4)
    encoded = encode_rc(a)
    ideal = row_sum(encoded, mode="ideal")
    # scan seeds until the sampled draw hits the labeled branch
    for seed in range(50):
        sampled = row_sum(encoded, mode="sampled", seed=seed)
        if sampled.outcome == 1:
            np.testing.assert_allclose(
                sampled.final_state.amplitudes, ideal.final_state.amplitudes,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                sampled.result.matrix, ideal.result.matrix, atol=1e-10
            )
            break
    else:
        pytest.fail("sampled mode never succeeded in 50 seeds")


def test_sampled_mode_failure_rate_tracks_branch_weight():
    encoded = encode_rc(_single_column(3))  # labeled weight 1/8
    failures = sum(
        1 for seed in range(400)
        if row_sum(encoded, mode="sampled", seed=seed).outcome == 0
    )
    sigma = np.sqrt((7 / 8) * (1 / 8) / 400)
    assert abs(failures / 400 - 7 / 8) <= 3 * sigma


_LAYOUT_SL = RegisterLayout([("S", 1), (LABEL, 1)])


@pytest.mark.parametrize("call, error, match", [
    (lambda: matrix_mul(np.eye(2), np.eye(3)), ValueError, "incompatible shapes for product"),
    (lambda: matrix_mul(np.zeros((2, 2)), np.eye(2)), ValueError, "all-zero matrix"),
    (lambda: linear_stage(np.eye(2), [1.0, 0.0, 0.0]), ValueError,
     "incompatible shapes for contraction"),
    (lambda: linear_stage(np.eye(2), [0.0, 0.0]), ValueError, "all-zero input"),
    (lambda: matrix_add(np.zeros((2, 2)), np.zeros((2, 2))), ValueError,
     "two all-zero matrices"),
    (lambda: row_sum(encode_rcm(np.eye(2))), ValueError, "needs an RC encoding"),
    (lambda: hermitian_conjugate(encode_rc(np.eye(2))), ValueError, "needs an RCM encoding"),
    (lambda: naive_success_bench(encode_rc(np.eye(2)), trials=0, master_seed=0), ValueError,
     "at least one trial"),
    (lambda: prepare_labeled_state({(0,): 1.0, (1,): 0.5}, _LAYOUT_SL, LABEL, 0.0, stream(0)),
     ValueError, "exceeds 1"),
    (lambda: prepare_labeled_state({(0,): 0.5}, _LAYOUT_SL, LABEL, -0.1, stream(0)),
     ValueError, "non-negative"),
    (lambda: prepare_labeled_state({(0,): 1.0}, RegisterLayout([("S", 1), (LABEL, 2)]), LABEL,
                                   0.0, stream(0)), ValueError, "must be one qubit"),
    (lambda: encode_rcm(np.zeros((2, 2))), ValueError, "all-zero matrix"),
    (lambda: encode_rcm(np.ones((2, 2, 2))), ValueError, "rank 3"),
    (lambda: swap_registers(encode_rc(np.eye(2)).state, "R", "R"), ValueError, "with itself"),
    (lambda: postselect(encode_rc(np.eye(2)).state, ("R", 0), 2), ValueError,
     "bit must be 0 or 1"),
    (lambda: _LAYOUT_SL.assignment_of(4), ValueError, "index 4 out of range"),
    (lambda: _LAYOUT_SL.axes("nope"), KeyError, "unknown register 'nope'"),
], ids=["mul-shape", "mul-zero", "solve-shape", "solve-zero", "add-zero", "rowsum-rcm",
        "hconj-rc", "bench-trials", "prepare-excess", "prepare-garbage", "prepare-label",
        "encode-zero", "encode-rank3", "swap-self", "postselect-bit", "assignment-range",
        "axes-unknown"])
def test_documented_input_errors_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_mode_validation():
    for stage, inputs in [
        (row_sum, (encode_rc(np.eye(2)),)),
        (inner_product_phase, ([1.0, 0.0], [1.0, 0.0])),
        (matrix_add, (np.eye(2), np.eye(2))),
        (matrix_mul, (np.eye(2), np.eye(2))),
        (determinant_phase, (np.eye(2),)),
        (matrix_inverse, (np.eye(2),)),
        (linear_stage, (np.eye(2), [1.0, 0.0])),
    ]:
        with pytest.raises(ValueError, match="mode must be one of"):
            stage(*inputs, mode="bogus")


def test_decode_rc_reads_row_sum_post_state():
    # the post-measurement state decodes like any other RC-shaped state: the
    # row sums sit in column 0 with every ancilla in one basis state
    rng = np.random.default_rng(53)
    a = _rand(rng, 4, 4)
    report = row_sum(encode_rc(a))
    from qlasim import decode_rc

    dec = decode_rc(report.final_state, rows=4, cols=1)
    np.testing.assert_allclose(
        dec.matrix.ravel(), _direction(row_sums(a)), atol=1e-10
    )


def test_labeled_sector_payload_purity_mid_pipeline():
    # inside the label=1 sector of a product pipeline, every non-payload
    # register sits at its documented basis value (inner indexes 0, aux 0,
    # mark 1), so the payload block is the whole story
    rng = np.random.default_rng(54)
    a, b = _rand(rng, 4, 4), _rand(rng, 4, 4)
    report = matrix_mul(a, b)
    layout = report.final_state.layout
    nd = report.final_state.amplitudes.reshape(
        [1 << layout.width(nm) for nm in layout.names]
    )
    # axes: row, icol, irow, col, aux, mark, label, flag
    labeled = nd[:, :, :, :, :, :, 1, 1].copy()
    labeled[:, 0, 0, :, 0, 1] = 0.0
    assert np.all(labeled == 0)


def test_pipelines_are_pure_given_seed():
    rng = np.random.default_rng(49)
    a, b = _rand(rng, 4, 4), _rand(rng, 4, 4)
    first = matrix_add(a, b, seed=5)
    second = matrix_add(a, b, seed=5)
    np.testing.assert_array_equal(
        first.final_state.amplitudes, second.final_state.amplitudes
    )
    np.testing.assert_array_equal(first.result.matrix, second.result.matrix)


# --- lazy garbage: the same final states as the eager build --------------------

def _eager_final_stage(payload, layout, garbage_weight, mode, seed):
    """The end-stage final stage with the garbage branch built up front."""
    labeled = prepare_labeled_state(payload, layout, LABEL, garbage_weight, stream(seed, 0))
    st = cnot(add_ancilla(labeled.state, FLAG), (LABEL, 0), (FLAG, 0))
    if mode == "ideal":
        return controlled_measure(st, (LABEL, 0), (FLAG, 0))
    return measure_sampled(st, (FLAG, 0), stream(seed, 1 << 32))


def _eager_add(a1, a2, mode, seed):
    m1, m2 = np.atleast_2d(a1).astype(complex), np.atleast_2d(a2).astype(complex)
    joint = float(np.sqrt(np.linalg.norm(m1) ** 2 + np.linalg.norm(m2) ** 2))
    wr, wc = (max(1, (n - 1).bit_length()) for n in m1.shape)
    coeffs = np.zeros((1 << wr, 1 << wc), dtype=complex)
    coeffs[: m1.shape[0], : m1.shape[1]] = (m1 + m2) / joint / 2.0
    layout = RegisterLayout([("row", wr), ("col", wc), ("aux1", 1), ("row2", wr),
                             ("col2", wc), ("aux2", 1), ("mark", 1), (LABEL, 1)])
    payload = {(j, l, 0, 0, 0, 0, 1): coeffs[j, l]
               for j in range(1 << wr) for l in range(1 << wc) if coeffs[j, l] != 0}
    total = float(np.sum(np.abs(coeffs) ** 2))
    return _eager_final_stage(payload, layout, 1.0 - total, mode, seed)


def _eager_det_phase(a, mode, seed):
    n = max(1, (a.shape[0] - 1).bit_length())
    coeff = det_lu(a) / 2.0 ** ((1 << n) ** 2 / 2.0)
    layout = RegisterLayout([("sys", 1), ("aux", 1), (LABEL, 1)])
    return _eager_final_stage({(0, 0): coeff}, layout, 1.0 - abs(coeff) ** 2, mode, seed)


_ADD_A = np.array([[1 + 2j, 0.5], [-1, 3j], [0.25, -2]])
_ADD_B = np.array([[0.25, -1j], [2, 1], [0.5j, 0.75]])
_DET_A = np.array([[1 + 1j, 0.5], [0.5j, -1]])


@pytest.mark.parametrize("stage, eager, inputs, mode, seed, outcome", [
    (matrix_add, _eager_add, (_ADD_A, _ADD_B), "ideal", 0, 1),
    (matrix_add, _eager_add, (_ADD_A, _ADD_B), "sampled", 0, 0),
    (matrix_add, _eager_add, (_ADD_A, _ADD_B), "sampled", 3, 1),
    (matrix_add, _eager_add, (_ADD_A, -_ADD_A), "ideal", 4, None),
    (determinant_phase, _eager_det_phase, (_DET_A,), "ideal", 0, 1),
    (determinant_phase, _eager_det_phase, (_DET_A,), "sampled", 0, 0),
    (determinant_phase, _eager_det_phase, (_DET_A,), "sampled", 3, 1),
    (determinant_phase, _eager_det_phase, (np.zeros((2, 2)),), "ideal", 5, None),
])
def test_final_state_equals_eager_build(stage, eager, inputs, mode, seed, outcome):
    # Successful runs never build the garbage; runs that return it (sampled
    # outcome 0, "not-measured") must return the eager build's exact buffer.
    report = stage(*inputs, mode=mode, seed=seed)
    meas = eager(*inputs, mode, seed)
    assert report.outcome == meas.outcome == outcome
    assert report.final_state.layout == meas.post_state.layout
    assert np.array_equal(report.final_state.amplitudes, meas.post_state.amplitudes)
    if outcome is not None:
        assert report.branch_weight == meas.branch_weight


@pytest.mark.parametrize("shape", [(3, 2), (5, 7), (8, 8), (16, 12)])
def test_decoded_sum_equals_eager_decode(shape):
    # The eager path decoded through extract_payload; its residual adds the
    # off-sector mass in extract_payload's summation order.
    rng = np.random.default_rng(62)
    a1, a2 = _rand(rng, *shape), _rand(rng, *shape)
    report = matrix_add(a1, a2)
    meas = _eager_add(a1, a2, "ideal", 0)
    joint = float(np.sqrt(np.linalg.norm(a1) ** 2 + np.linalg.norm(a2) ** 2))
    known_scale = joint * float(2.0 * np.sqrt(meas.branch_weight))
    block, off = extract_payload(meas.post_state, ("row", "col"))
    window = block[: shape[0], : shape[1]] / 1.0
    keep = float(np.sum(np.abs(window) ** 2))
    assert report.result.residual == float(max(0.0, 1.0 - keep)) + off
    want = window / np.sqrt(keep) * known_scale
    assert report.result.matrix.tobytes() == want.tobytes()


def test_successful_product_allocates_little_beyond_its_final_state():
    # The garbage sector, the flag copy, the CNOT copy and the projection
    # each used to allocate a buffer the size of the final state.
    rng = np.random.default_rng(60)
    a, b = _rand(rng, 16, 16), _rand(rng, 16, 16)
    tracemalloc.start()
    try:
        report = matrix_mul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.outcome == 1
    assert peak < 2 * report.final_state.amplitudes.nbytes


def test_ideal_64x64_product_runs_in_megabytes():
    # 28 qubits with the flag: the dense post-state would take 4 GiB per
    # copy.  Success keeps only the 4,096 labeled amplitudes; final_state is
    # not read.
    rng = np.random.default_rng(64)
    a, b = _rand(rng, 64, 64), _rand(rng, 64, 64)
    tracemalloc.start()
    try:
        report = matrix_mul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.outcome == 1
    assert peak < 16 * 2**20
    want = a @ b
    assert np.max(np.abs(report.result.matrix - want)) <= ATOL * np.max(np.abs(want))


def test_not_measured_64x64_sum_runs_in_megabytes():
    # The labeled state holds 28 qubits, 4 GiB; a "not-measured" result builds
    # it, with the flag, only when final_state is read.
    a = _rand(np.random.default_rng(66), 64, 64)
    tracemalloc.start()
    try:
        report = matrix_add(a, -a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.outcome is None and report.branch_weight == 0.0
    assert peak < 16 * 2**20


def test_conjugating_a_long_row_runs_in_megabytes():
    # 2^18 amplitudes, 4 MiB; padded to equal R and C widths the encoding
    # held 2^33 (128 GiB).
    a = _rand(np.random.default_rng(65), 1, 65536)
    tracemalloc.start()
    try:
        conj = hermitian_conjugate(encode_rcm(a))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert [conj.state.layout.width(name) for name in ("R", "C", "M")] == [16, 1, 1]
    dec = decode_rcm(conj)
    assert np.max(np.abs(dec.matrix - a.conj().T)) <= ATOL * np.max(np.abs(a))


def test_prepare_labeled_state_draws_garbage_on_first_read():
    layout = RegisterLayout([("v", 3), (LABEL, 1)])
    rng = stream(9, 0)
    labeled = prepare_labeled_state({(2,): 0.6}, layout, LABEL, 0.64, rng)
    # Nothing has been drawn yet: the generator still gives stream(9, 0)'s first draw.
    assert str(rng.bit_generator.state) == str(stream(9, 0).bit_generator.state)
    state = labeled.state
    assert labeled.state is state
    eager = prepare_labeled_state({(2,): 0.6}, layout, LABEL, 0.64, stream(9, 0)).state
    assert np.array_equal(state.amplitudes, eager.amplitudes)
    # A caller that draws from the generator before the first read moves the garbage.
    rng = stream(9, 0)
    moved = prepare_labeled_state({(2,): 0.6}, layout, LABEL, 0.64, rng)
    rng.random()
    assert not np.array_equal(moved.state.amplitudes, eager.amplitudes)
    assert moved.state.amplitudes[layout.index_of({"v": 2, LABEL: 1})] == 0.6


def test_prepare_labeled_state_rejects_bad_keys():
    layout = RegisterLayout([("v", 1), ("w", 1), (LABEL, 1)])
    with pytest.raises(ValueError, match="must assign the 2 non-label registers"):
        prepare_labeled_state({(0,): 1.0}, layout, LABEL, 0.0, stream(0))
    with pytest.raises(ValueError, match="out of range"):
        prepare_labeled_state({(0, 2): 1.0}, layout, LABEL, 0.0, stream(0))
