import itertools

import warnings

import numpy as np
import pytest

from qlasim import (
    SingularMatrixError,
    bilinear,
    contract,
    det_lu,
    inverse_gj,
    row_sums,
)
from qlasim.linalg import mul
from qlasim.pipelines import PreparationError


def _det_cofactor(a: np.ndarray) -> complex:
    """Brute-force determinant by Leibniz expansion (n <= 5)."""
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * a[i, perm[i]]
        total += term
    return total


def _random(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_det_identity():
    assert det_lu(np.eye(3)) == 1.0


def test_det_permutation_sign():
    assert det_lu([[0, 1], [1, 0]]) == -1.0


def test_det_matches_cofactor_expansion():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = _random(rng, 5)
        assert abs(det_lu(a) - _det_cofactor(a)) < 1e-9


def test_det_singular_returns_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert det_lu(a) == 0


def test_det_multiplicative():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a, b = _random(rng, 4), _random(rng, 4)
        lhs = det_lu(a @ b)
        rhs = det_lu(a) * det_lu(b)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_inverse_identity_and_diagonal():
    np.testing.assert_allclose(inverse_gj(np.eye(3)).value, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        inverse_gj(np.diag([2.0, 4.0])).value, np.diag([0.5, 0.25]), atol=1e-15
    )


def test_inverse_residual_random_6x6():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = _random(rng, 6)
        report = inverse_gj(a)
        assert np.max(np.abs(a @ report.value - np.eye(6))) < 1e-9
        assert report.condition_estimate >= 1.0


def test_inverse_twice_is_identity_map():
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = _random(rng, 4)
        back = inverse_gj(inverse_gj(a).value).value
        assert np.max(np.abs(back - a)) < 1e-8


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_gj([[1.0, 2.0], [2.0, 4.0]])


def test_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        inverse_gj(np.zeros((2, 2)))
    assert det_lu(np.zeros((3, 3))) == 0


def test_pivot_tolerance_scales_with_the_matrix():
    # Condition number 1 at any scale; an absolute pivot bound called these singular.
    assert det_lu(1e-14 * np.eye(4)) == 1e-56
    np.testing.assert_array_equal(inverse_gj(1e-14 * np.eye(2)).value, 1e14 * np.eye(2))
    assert det_lu(1e-14 * np.array([[1.0, 2.0], [2.0, 4.0]])) == 0
    with pytest.raises(SingularMatrixError):
        inverse_gj(1e20 * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_det_underflow_is_not_singular():
    # Every pivot 1e-90 is far above the singularity floor; only their
    # product 1e-360 underflows float64.
    with pytest.raises(PreparationError, match="underflow"):
        det_lu(1e-90 * np.eye(4))
    # A subnormal product is still a value.
    assert 0.0 < abs(det_lu(1e-80 * np.eye(4))) < 1e-300


@pytest.mark.parametrize("matrix", [1e80 * np.eye(4), 1e200 * (1 + 1j) * np.eye(2)])
def test_det_overflow_raises_without_warnings(matrix):
    # The pivot products 1e320 and (1e200 + 1e200j)^2 are past float64's range;
    # they came back as inf and nan+infj with RuntimeWarnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreparationError, match="determinant overflows float64"):
            det_lu(matrix)
    # A product just inside the range is still a value.
    assert det_lu(1e77 * np.eye(4)) == pytest.approx(1e308)


def test_row_sums_known():
    np.testing.assert_allclose(row_sums([[1, 2], [3, 4]]), [3, 7])


def test_bilinear_does_not_conjugate():
    assert bilinear([1, 0], [1j, 0]) == 1j


def test_bilinear_shape_mismatch():
    with pytest.raises(ValueError):
        bilinear([1, 0], [1, 0, 0])


def test_mul_against_triple_loop():
    rng = np.random.default_rng(25)
    a, b = _random(rng, 4), _random(rng, 4)
    got = mul(a, b)
    naive = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                naive[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(got, naive, atol=1e-12)


def test_contract_shapes():
    rng = np.random.default_rng(26)
    a = _random(rng, 3, 2)
    v = rng.standard_normal(2)
    np.testing.assert_allclose(contract(a, v), a @ v, atol=0)
    with pytest.raises(ValueError):
        contract(a, rng.standard_normal(3))


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_lu(np.ones((2, 3)))
