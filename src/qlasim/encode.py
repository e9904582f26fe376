"""Amplitude encoding of complex matrices into register states, and back.

Two schemes:

* RC: registers ``R`` (row index) and ``C`` (column index); the amplitude at
  |i>_R |j>_C is proportional to entry (i, j).
* RCM: an extra one-qubit register ``M`` marks |0> real part, |1> imaginary
  part, so all amplitudes are real.  This is the encoding on which Hermitian
  conjugation acts as a plain unitary.

Matrices are zero-padded up to power-of-two dimensions (each register needs
at least one qubit); decoding reshapes the amplitudes of a state holding
exactly the scheme's registers, in that order, and crops back.  Amplitude
encoding destroys the overall magnitude, so the Frobenius norm of the source
is carried separately as ``scale``.  Every :class:`DecodedResult`, the
pipelines' too, is finished here, its known scale checked against float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PreparationError
from .states import PureState, RegisterLayout

_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))  # 2^-511
_NEGATIVE_ZERO = np.float64(-0.0).view(np.uint64)
_REGISTERS = {"RC": ("R", "C"), "RCM": ("R", "C", "M")}  # each scheme's layout, in order


class NonProductSectorError(ValueError):
    """Decoding failed: no amplitude mass lies inside the decoded window."""


@dataclass(frozen=True)
class EncodedMatrix:
    """A matrix stored in register amplitudes, with its lost magnitude."""

    state: PureState
    scheme: str  # "RC" or "RCM"
    rows: int
    cols: int
    scale: float

    def __post_init__(self):
        if self.scheme not in _REGISTERS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_fields(self.state, self.scheme, self.rows, self.cols, self.scale)


def _check_fields(state: PureState, scheme: str, rows: int, cols: int, scale) -> None:
    """Raise ``ValueError`` unless ``state`` holds exactly ``scheme``'s registers
    in order (``M`` of one qubit), ``rows`` and ``cols`` fit in ``R`` and ``C``,
    and ``scale`` is finite and positive (``None``: unknown)."""
    layout = state.layout
    if layout.names != _REGISTERS[scheme] or (scheme == "RCM" and layout.width("M") != 1):
        one_qubit_m = " with M of one qubit" if scheme == "RCM" else ""
        raise ValueError(f"an {scheme} encoding holds exactly the registers {_REGISTERS[scheme]}"
                         f"{one_qubit_m}; the state holds {layout.registers}")
    for name, extent in (("R", rows), ("C", cols)):
        limit = 1 << layout.width(name)
        if not 1 <= extent <= limit:
            raise ValueError(f"{name} extent {extent} outside [1, {limit}]")
    if scale is not None and not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")


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
    """``matrix`` as a complex rank-2 array of finite entries (a vector as one row)."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _norm_scaling(a: np.ndarray, norm=np.linalg.norm) -> tuple[np.ndarray, float, float]:
    """``(b, divisor, scale)``: ``b / divisor`` has unit norm, ``scale`` is ``norm(a)``.

    While the sum of squares stays in float64's normal range this is
    ``(a, s, s)`` with ``s = norm(a)``, so callers keep their bits.  Past it
    (the norm reads ``inf``, or at most ``sqrt(tiny) = 2^-511``, where the
    squares have lost their precision) ``b`` is ``a`` scaled by the power of
    two that brings ``max|a_ij|`` into [0.5, 1), which is exact.  An all-zero
    ``a`` gives ``(a, 0.0, 0.0)``; a norm float64 cannot hold raises
    :class:`~qlasim.linalg.PreparationError`.
    """
    with np.errstate(over="ignore", under="ignore"):
        scale = float(norm(a))
    if _SQRT_TINY < scale < np.inf:
        return a, scale, scale
    _, exponent = np.frexp(np.max(np.abs(a)))
    b = np.empty_like(a)
    b.real, b.imag = np.ldexp(a.real, -exponent), np.ldexp(a.imag, -exponent)
    divisor = float(norm(b))
    with np.errstate(over="ignore"):
        scale = float(np.ldexp(divisor, exponent))
    if scale == np.inf:
        raise PreparationError("Frobenius norm exceeds the float64 range")
    return b, divisor, scale


def _divide(z: np.ndarray, divisor: float, out: np.ndarray) -> None:
    """``np.divide(z, divisor, out=out)`` for complex ``z`` and ``out`` of one
    shape, each contiguous along its last axis (``out`` may be ``z``), and a
    float ``divisor > 0`` whose reciprocal is finite: the same bytes from one
    float multiply over the interleaved (re, im) view.

    numpy divides by ``divisor + 0j`` as ``(re + im*0) * (1/divisor)`` and
    ``(im - re*0) * (1/divisor)``.  In a part that is not -0 the added zero
    drops out, or leaves +0 at +0, so the part is ``part * (1/divisor)``.  A
    -0 part becomes the zero added to it: 0 with the sign of ``im`` in the
    real part, with the sign of ``-re`` in the imaginary part.
    """
    parts = z.view(np.float64).reshape(z.shape + (2,))
    negative_zero = parts.view(np.uint64) == _NEGATIVE_ZERO
    fixes = None
    if negative_zero.any():
        re, im = negative_zero[..., 0], negative_zero[..., 1]
        fixes = np.copysign(0.0, parts[..., 1][re]), np.copysign(0.0, -parts[..., 0][im])
    out_parts = out.view(np.float64).reshape(out.shape + (2,))
    np.multiply(parts, 1.0 / divisor, out=out_parts)
    if fixes is not None:
        out_parts[..., 0][re], out_parts[..., 1][im] = fixes


def encode_rc(matrix) -> EncodedMatrix:
    """Encode entries as amplitudes over row/column index registers."""
    a = _checked(matrix)
    rows, cols = a.shape
    wr, wc = _reg_width(rows), _reg_width(cols)
    b, divisor, scale = _norm_scaling(a)
    if not scale:
        raise ValueError("cannot encode an all-zero matrix")
    padded = np.zeros((1 << wr, 1 << wc), dtype=np.complex128)
    _divide(np.ascontiguousarray(b), divisor, padded[:rows, :cols])
    layout = RegisterLayout([("R", wr), ("C", wc)])
    return EncodedMatrix(PureState(layout, padded.reshape(-1), _adopt=True), "RC", rows, cols, scale)


def encode_rcm(matrix) -> EncodedMatrix:
    """Encode real parts at M=|0> and imaginary parts at M=|1>."""
    a = _checked(matrix)
    rows, cols = a.shape
    wr, wc = _reg_width(rows), _reg_width(cols)
    b, divisor, scale = _norm_scaling(a)
    if not scale:
        raise ValueError("cannot encode an all-zero matrix")
    padded = np.zeros((1 << wr, 1 << wc, 2), dtype=np.complex128)
    # One divide: each entry's (re, im) pair lands on the real parts of M=0, M=1.
    parts = np.ascontiguousarray(b).view(np.float64).reshape(rows, cols, 2)
    np.divide(parts, divisor, out=padded.view(np.float64)[:rows, :cols, ::2])
    layout = RegisterLayout([("R", wr), ("C", wc), ("M", 1)])
    return EncodedMatrix(PureState(layout, padded.reshape(-1), _adopt=True), "RCM", rows, cols, scale)


def _window(source, rows, cols, scale, scheme: str) -> tuple[np.ndarray, float | None]:
    """``(amplitudes, scale)``: the amplitudes reshaped to ``(2^wR, 2^wC[, 2])``
    and cropped to ``rows x cols``, with the scale to decode at."""
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
    _check_fields(state, scheme, rows, cols, scale)
    shape = [1 << width for _, width in state.layout.registers]
    return state.amplitudes.reshape(shape)[:rows, :cols], scale


def _scaled(matrix: np.ndarray, scale, residual: float) -> DecodedResult:
    """``matrix`` times ``scale`` in place (``None``: unknown), which float64 must hold."""
    if scale is not None:
        if not 0.0 < scale < math.inf:
            raise PreparationError("the result's norm is outside float64's range")
        matrix *= scale
    return DecodedResult(matrix=matrix, known_scale=scale, residual=residual)


def _finish(matrix: np.ndarray, scale, off_sector: float = 0.0) -> DecodedResult:
    """Normalize and scale ``matrix``, a fresh buffer, in place; the residual adds
    ``off_sector``, the mass known to lie outside ``matrix``."""
    mass = np.abs(matrix)
    keep = float(np.sum(np.square(mass, out=mass)))
    residual = float(max(0.0, 1.0 - keep)) + off_sector
    if keep <= 0.0:
        raise NonProductSectorError("no amplitude mass inside the decoded window")
    _divide(matrix, np.sqrt(keep), matrix)
    return _scaled(matrix, scale, residual)


def decode_rc(source, rows: int | None = None, cols: int | None = None,
              scale: float | None = None) -> DecodedResult:
    """Recover a matrix from an RC encoding, or from a bare state over exactly
    ``R`` and ``C`` given ``rows`` and ``cols``.

    A state holding any other register raises ``ValueError``; the decoded
    matrix is unit-Frobenius unless a scale is known.
    """
    cropped, scale = _window(source, rows, cols, scale, "RC")
    return _finish(cropped.copy(), scale)


def decode_rcm(source, rows: int | None = None, cols: int | None = None,
               scale: float | None = None) -> DecodedResult:
    """Recover a complex matrix from an RCM encoding (bare state: exactly
    ``R``, ``C`` and a one-qubit ``M``), as :func:`decode_rc` does."""
    cropped, scale = _window(source, rows, cols, scale, "RCM")
    z = 1j * cropped[:, :, 1]
    return _finish(np.add(cropped[:, :, 0], z, out=z), scale)
