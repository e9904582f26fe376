"""Classical dense linear algebra used as ground truth by the test suite.

Hand-rolled LU and Gauss-Jordan with partial pivoting; adequate at desk
scale (n <= 64), no BLAS ambitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A pivot at most PIVOT_TOL * max|a_ij| marks the matrix as singular, so the
# test is the same at every scale and an all-zero matrix is singular.
PIVOT_TOL = 1e-13


class PreparationError(ValueError):
    """A value a pipeline needs does not fit in float64 as scaled (CLI exit 3)."""


class SingularMatrixError(ValueError):
    """Elimination hit a pivot at most :data:`PIVOT_TOL` times the largest entry."""


@dataclass(frozen=True)
class OracleReport:
    value: np.ndarray
    condition_estimate: float


def _square(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _pivot_floor(a: np.ndarray) -> float:
    return PIVOT_TOL * float(np.max(np.abs(a), initial=0.0))


def _swap_rows(a: np.ndarray, k: int, p: int) -> None:
    """Exchange rows ``k`` and ``p`` of ``a`` in place, by slice copies."""
    row = a[k].copy()
    a[k] = a[p]
    a[p] = row


def det_lu(matrix) -> complex:
    """Determinant via LU with partial pivoting; 0 for (near-)singular input.

    Singular means a pivot at most :data:`PIVOT_TOL` times the largest entry.
    Raises :class:`PreparationError` if nonsingular pivots multiply to 0 or
    to a value float64 cannot hold.
    """
    a = _square(matrix)
    n = a.shape[0]
    floor = _pivot_floor(a)
    det = 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if abs(a[p, k]) <= floor:
                return 0j
            if p != k:
                _swap_rows(a, k, p)
                det = -det
            det *= a[k, k]
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    if det == 0:
        raise PreparationError(f"determinant underflows float64: {n} nonsingular pivots")
    if not np.isfinite(det):
        raise PreparationError(f"determinant overflows float64: {n} nonsingular pivots")
    return complex(det)


def inverse_gj(matrix) -> OracleReport:
    """Inverse via Gauss-Jordan with partial pivoting.

    Raises :class:`SingularMatrixError` on a pivot at most :data:`PIVOT_TOL`
    times the largest entry.
    """
    a = _square(matrix)
    n = a.shape[0]
    floor = _pivot_floor(a)
    aug = np.hstack([a.copy(), np.eye(n, dtype=np.complex128)])
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) <= floor:
            raise SingularMatrixError(
                f"pivot {abs(aug[p, k]):.3e} at most {PIVOT_TOL} * max|a_ij| = {floor:.3e}")
        if p != k:
            _swap_rows(aug, k, p)
        aug[k] /= aug[k, k]
        factors = aug[:, k].copy()
        factors[k] = 0.0
        aug -= np.outer(factors, aug[k])
    inv = np.ascontiguousarray(aug[:, n:])
    cond = float(np.max(np.sum(np.abs(a), axis=1)) * np.max(np.sum(np.abs(inv), axis=1)))
    return OracleReport(value=inv, condition_estimate=cond)


def row_sums(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("row_sums expects a matrix")
    return a.sum(axis=1)


def mul(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for product: {a.shape} and {b.shape}")
    return a @ b


def contract(a, b) -> np.ndarray:
    """Matrix-vector product."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for contraction: {a.shape} and {b.shape}")
    return a @ b


def bilinear(x, y) -> complex:
    """Non-conjugating inner product sum_j x_j * y_j."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return complex(np.sum(x * y))
