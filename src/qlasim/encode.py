"""Amplitude encoding of complex matrices into register states, and back.

Two schemes:

* RC: registers ``R`` (row index) and ``C`` (column index); the amplitude at
  |i>_R |j>_C is proportional to entry (i, j).
* RCM: an extra one-qubit register ``M`` marks |0> real part, |1> imaginary
  part, so all amplitudes are real.  This is the encoding on which Hermitian
  conjugation acts as a plain unitary.  The encoding holds those amplitudes
  as a float64 array of shape ``(2^wR, 2^wC, 2)``, half the bytes of a
  complex state, and builds its complex ``PureState`` only when ``.state``
  is read.

Matrices are zero-padded up to power-of-two dimensions (each register needs
at least one qubit); decoding reshapes the amplitudes of a state holding
exactly the scheme's registers, in that order, and crops back.  Amplitude
encoding destroys the overall magnitude, so the Frobenius norm of the source
is carried separately as ``scale``.  Every :class:`DecodedResult`, the
pipelines' too, is finished here, its known scale checked against float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import PreparationError
from .states import PureState, RegisterLayout, _check_norm

_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))  # 2^-511
_NEGATIVE_ZERO = np.float64(-0.0).view(np.uint64)
_REGISTERS = {"RC": ("R", "C"), "RCM": ("R", "C", "M")}  # each scheme's layout, in order


class NonProductSectorError(ValueError):
    """Decoding failed: no amplitude mass lies inside the decoded window."""


@dataclass(frozen=True, eq=False)
class EncodedMatrix:
    """A matrix stored in register amplitudes, with its lost magnitude.

    ``amplitudes`` is an RC encoding's :class:`PureState`.  An RCM encoding's
    amplitudes are all real: ``amplitudes`` is then a float64 array of shape
    ``(2^wR, 2^wC, 2)`` over R, C and M, checked for unit norm as a state is
    and frozen (in place when C-contiguous), and ``state`` builds the complex
    state on first read.
    ``conjugated`` records an odd number of :func:`~qlasim.hermitian_conjugate`
    calls, which left the M=|1> amplitudes' imaginary zeros at -0 in the
    complex state; the float array cannot hold that sign.
    """

    amplitudes: PureState | np.ndarray
    scheme: str  # "RC" or "RCM"
    rows: int
    cols: int
    scale: float
    conjugated: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.scheme not in _REGISTERS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "RCM":
            object.__setattr__(self, "amplitudes", _real_amplitudes(self.amplitudes))
        _check_fields(self.layout, self.scheme, self.rows, self.cols, self.scale)

    @property
    def layout(self) -> RegisterLayout:
        """Registers R, C (and M), most significant first."""
        if self.scheme == "RC":
            return self.amplitudes.layout
        wr, wc = (extent.bit_length() - 1 for extent in self.amplitudes.shape[:2])
        return RegisterLayout([("R", wr), ("C", wc), ("M", 1)])

    @cached_property
    def state(self) -> PureState:
        """The encoding as a complex state over ``layout``."""
        if self.scheme == "RC":
            return self.amplitudes
        amps = np.zeros(self.amplitudes.shape, dtype=np.complex128)
        amps.real = self.amplitudes
        if self.conjugated:
            amps.imag[..., 1] = -0.0
        return PureState(self.layout, amps.reshape(-1), _adopt=True)


def _real_amplitudes(parts) -> np.ndarray:
    """``parts`` as a frozen C-contiguous array, refused unless it is a
    unit-norm float64 array of shape ``(2^wR, 2^wC, 2)``, ``wR, wC >= 1``."""
    if not (isinstance(parts, np.ndarray) and parts.dtype == np.float64 and parts.ndim == 3
            and parts.shape[2] == 2 and all(n > 1 and not n & (n - 1) for n in parts.shape[:2])):
        held = (f"a state over {parts.layout.registers}" if isinstance(parts, PureState)
                else f"{getattr(parts, 'dtype', type(parts).__name__)} of shape {np.shape(parts)}")
        raise ValueError(f"an RCM encoding holds exactly the registers {_REGISTERS['RCM']} with M "
                         f"of one qubit as a float64 array of shape (2^wR, 2^wC, 2); got {held}")
    parts = np.ascontiguousarray(parts)
    _check_norm(parts.reshape(-1).view(np.complex128))
    parts.setflags(write=False)
    return parts


def _check_fields(layout: RegisterLayout, scheme: str, rows: int, cols: int, scale) -> None:
    """Raise ``ValueError`` unless ``layout`` holds exactly ``scheme``'s registers
    in order (``M`` of one qubit), ``rows`` and ``cols`` fit in ``R`` and ``C``,
    and ``scale`` is finite and positive (``None``: unknown)."""
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
    padded = np.zeros((1 << wr, 1 << wc, 2))
    # One divide: each entry's (re, im) pair lands on M=0, M=1.
    parts = np.ascontiguousarray(b).view(np.float64).reshape(rows, cols, 2)
    np.divide(parts, divisor, out=padded[:rows, :cols])
    return EncodedMatrix(padded, "RCM", rows, cols, scale)


def _window(source, rows, cols, scale, scheme: str) -> tuple[np.ndarray, float | None]:
    """``(amplitudes, scale)``: the amplitudes reshaped to ``(2^wR, 2^wC[, 2])``
    and cropped to ``rows x cols``, with the scale to decode at; an RCM
    encoding's are its float64 array."""
    if isinstance(source, EncodedMatrix):
        if source.scheme != scheme:
            raise ValueError(f"expected scheme {scheme!r}, got {source.scheme!r}")
        amps = source.amplitudes if scheme == "RCM" else source.state.amplitudes
        rows = source.rows if rows is None else rows
        cols = source.cols if cols is None else cols
        scale = source.scale if scale is None else scale
    else:
        amps = source.amplitudes
        if rows is None or cols is None:
            raise ValueError("rows and cols are required when decoding a bare state")
    rows, cols = int(rows), int(cols)
    layout = source.layout
    _check_fields(layout, scheme, rows, cols, scale)
    shape = [1 << width for _, width in layout.registers]
    return amps.reshape(shape)[:rows, :cols], scale


def _scaled(matrix: np.ndarray, scale, residual: float) -> DecodedResult:
    """``matrix`` times ``scale`` (``None``: unknown), which float64 must hold;
    in place but for one entry, where numpy's in-place scalar loop adds
    ``re * 0j`` and turns a real part that underflows to -0 into +0."""
    if scale is not None:
        if not 0.0 < scale < math.inf:
            raise PreparationError("the result's norm is outside float64's range")
        if matrix.size == 1:
            matrix = matrix * scale
        else:
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
    ``R``, ``C`` and a one-qubit ``M``), as :func:`decode_rc` does.

    A bare state's entries are ``c0 + 1j * c1`` for its marker's amplitudes.
    An encoding's float pairs are its entries already, copied with the zero
    signs that sum has on its ``state``: the imaginary part adds 0.0, which
    turns -0 into +0, and so does the real part, which adds ``0 * c1`` (the
    zero with the sign of ``c1``) instead while ``conjugated`` is false.
    """
    cropped, scale = _window(source, rows, cols, scale, "RCM")
    if not isinstance(source, EncodedMatrix):
        z = 1j * cropped[:, :, 1]
        return _finish(np.add(cropped[:, :, 0], z, out=z), scale)
    matrix = np.empty(cropped.shape[:2], dtype=np.complex128)
    pairs = matrix.view(np.float64).reshape(cropped.shape)
    np.add(cropped, 0.0, out=pairs)
    if not source.conjugated:
        np.add(cropped[..., 0], np.copysign(0.0, cropped[..., 1]), out=pairs[..., 0])
    return _finish(matrix, scale)
