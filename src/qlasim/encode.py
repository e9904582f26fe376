"""Amplitude encoding of complex matrices into register states, and back.

Two schemes:

* RC: registers ``R`` (row index) and ``C`` (column index); the amplitude at
  |i>_R |j>_C is proportional to entry (i, j).
* RCM: an extra one-qubit register ``M`` marks |0> real part, |1> imaginary
  part, so all amplitudes are real.  This is the encoding on which Hermitian
  conjugation acts as a plain unitary.

Matrices are zero-padded up to power-of-two dimensions (each register needs
at least one qubit); decoding crops back.  Amplitude encoding destroys the
overall magnitude, so the Frobenius norm of the source is carried separately
as ``scale``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .states import PureState, RegisterLayout

# Mass allowed outside the dominant basis assignment of non-payload registers.
SECTOR_TOL = 1e-8

_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))  # 2^-511


class NonProductSectorError(ValueError):
    """Decoding failed: the non-payload registers are not in one basis state."""


@dataclass(frozen=True)
class EncodedMatrix:
    """A matrix stored in register amplitudes, with its lost magnitude."""

    state: PureState
    scheme: str  # "RC" or "RCM"
    rows: int
    cols: int
    scale: float

    def __post_init__(self):
        if self.scheme not in ("RC", "RCM"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class DecodedResult:
    """Matrix (or vector) recovered from a state.

    ``matrix`` holds actual entries when ``known_scale`` is present, otherwise
    the unit-Frobenius direction.  ``residual`` is the amplitude mass found
    outside the decoded window (decoding noise floor).
    """

    matrix: np.ndarray
    known_scale: float | None
    residual: float


def _reg_width(extent: int) -> int:
    """Qubits needed to index ``extent`` values (minimum one qubit)."""
    return max(1, (int(extent) - 1).bit_length())


def _checked(matrix) -> np.ndarray:
    a = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.any(a):
        raise ValueError("cannot encode an all-zero matrix")
    return a


def _norm_scaling(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(b, divisor, scale)``: ``b / divisor`` has unit norm, ``scale`` is ``|a|_F``.

    While the sum of squares stays in float64's normal range this is
    ``(a, s, s)`` with ``s = np.linalg.norm(a)``, so the encodings keep their
    bits.  Past it (the norm reads ``inf``, or at most ``sqrt(tiny) = 2^-511``,
    where the squares have lost their precision) ``b`` is ``a`` scaled by the
    power of two that brings ``max|a_ij|`` into [0.5, 1), which is exact.
    """
    with np.errstate(over="ignore", under="ignore"):
        scale = float(np.linalg.norm(a))
    if _SQRT_TINY < scale < np.inf:
        return a, scale, scale
    _, exponent = np.frexp(np.max(np.abs(a)))
    b = np.empty_like(a)
    b.real, b.imag = np.ldexp(a.real, -exponent), np.ldexp(a.imag, -exponent)
    divisor = float(np.linalg.norm(b))
    with np.errstate(over="ignore"):
        scale = float(np.ldexp(divisor, exponent))
    if scale == np.inf:
        raise ValueError("Frobenius norm exceeds the float64 range")
    return b, divisor, scale


def encode_rc(matrix) -> EncodedMatrix:
    """Encode entries as amplitudes over row/column index registers."""
    a = _checked(matrix)
    rows, cols = a.shape
    wr, wc = _reg_width(rows), _reg_width(cols)
    b, divisor, scale = _norm_scaling(a)
    padded = np.zeros((1 << wr, 1 << wc), dtype=np.complex128)
    np.divide(b, divisor, out=padded[:rows, :cols])
    layout = RegisterLayout([("R", wr), ("C", wc)])
    return EncodedMatrix(PureState(layout, padded.reshape(-1), _adopt=True), "RC", rows, cols, scale)


def encode_rcm(matrix) -> EncodedMatrix:
    """Encode real parts at M=|0> and imaginary parts at M=|1>."""
    a = _checked(matrix)
    rows, cols = a.shape
    wr, wc = _reg_width(rows), _reg_width(cols)
    b, divisor, scale = _norm_scaling(a)
    padded = np.zeros((1 << wr, 1 << wc, 2), dtype=np.complex128)
    np.divide(b.real, divisor, out=padded[:rows, :cols, 0].real)
    np.divide(b.imag, divisor, out=padded[:rows, :cols, 1].real)
    layout = RegisterLayout([("R", wr), ("C", wc), ("M", 1)])
    return EncodedMatrix(PureState(layout, padded.reshape(-1), _adopt=True), "RCM", rows, cols, scale)


def extract_payload(state: PureState, payload: Sequence[str]) -> tuple[np.ndarray, float]:
    """Amplitudes over ``payload`` registers at the dominant basis assignment
    of every other register.

    Returns ``(block, off_sector_weight)``.  ``block`` has one axis per
    payload register, in the order given; ``off_sector_weight`` is the
    amplitude mass outside the dominant assignment.  ``block`` may be a
    read-only view of the amplitudes (it is one when the payload is every
    register in layout order); callers copy before writing.
    """
    layout = state.layout
    payload = list(payload)
    payload_axes = [ax for name in payload for ax in layout.axes(name)]

    a = np.moveaxis(state.tensor_view(), payload_axes, range(len(payload_axes)))
    front = 1 << len(payload_axes)
    flat = a.reshape(front, -1)
    mass = np.abs(flat)
    mass *= mass
    mass = mass.sum(axis=0)
    k = int(np.argmax(mass))
    off = float(max(0.0, 1.0 - mass[k]))

    return flat[:, k].reshape([1 << layout.width(nm) for nm in payload]), off


def _payload_mass(block: np.ndarray) -> float:
    """Squared norm of one payload block, summed as :func:`extract_payload`
    sums it when some register lies outside the payload.

    There ``extract_payload`` reduces over the payload axes of a C-ordered
    ``(payload, rest)`` array with ``rest > 1``, which adds the entries of a
    column one after another in payload C order; a running sum in that order
    gives its bits.  With every register in the payload numpy sums the one
    column pairwise instead, and this sum has other bits.
    """
    return float(np.cumsum(np.abs(block.reshape(-1)) ** 2)[-1])


def _resolve_source(source, rows, cols, scale, scheme: str):
    if isinstance(source, EncodedMatrix):
        if source.scheme != scheme:
            raise ValueError(f"expected scheme {scheme!r}, got {source.scheme!r}")
        state = source.state
        rows = source.rows if rows is None else rows
        cols = source.cols if cols is None else cols
        scale = source.scale if scale is None else scale
    else:
        state = source
        if rows is None or cols is None:
            raise ValueError("rows and cols are required when decoding a bare state")
    rows, cols = int(rows), int(cols)
    for name, extent in (("R", rows), ("C", cols)):
        limit = 1 << state.layout.width(name)
        if not 1 <= extent <= limit:
            raise ValueError(f"{name} extent {extent} outside [1, {limit}]")
    return state, rows, cols, scale


def _finish(cropped: np.ndarray, scale, off: float) -> DecodedResult:
    if off > SECTOR_TOL:
        raise NonProductSectorError(
            f"non-payload registers are not in a product basis state "
            f"(off-sector mass {off:.3e})"
        )
    keep = float(np.sum(np.abs(cropped) ** 2))
    residual = float(max(0.0, 1.0 - keep))
    if keep <= 0.0:
        raise NonProductSectorError("no amplitude mass inside the decoded window")
    matrix = cropped / np.sqrt(keep)
    if scale is not None:
        matrix *= scale
    return DecodedResult(matrix=matrix, known_scale=scale, residual=residual)


def decode_rc(source, rows: int | None = None, cols: int | None = None,
              scale: float | None = None) -> DecodedResult:
    """Recover a matrix from an RC encoding (or any state holding R and C).

    Any register other than R and C must sit in a single basis state; the
    decoded matrix is unit-Frobenius unless a scale is known.
    """
    state, rows, cols, scale = _resolve_source(source, rows, cols, scale, "RC")
    block, off = extract_payload(state, ("R", "C"))
    return _finish(block[:rows, :cols], scale, off)


def decode_rcm(source, rows: int | None = None, cols: int | None = None,
               scale: float | None = None) -> DecodedResult:
    """Recover a complex matrix from an RCM encoding."""
    state, rows, cols, scale = _resolve_source(source, rows, cols, scale, "RCM")
    block, off = extract_payload(state, ("R", "C", "M"))
    cropped = block[:rows, :cols]
    return _finish(cropped[:, :, 0] + 1j * cropped[:, :, 1], scale, off)
