"""Frozen test-side references that the package no longer ships.

``extract_payload`` is the decoder's search for the dominant basis assignment
of every register outside a payload, as the package ran it before decoding
read only its own scheme's registers.  The reference chains that pin the
final stages' bits against the dense circuit decode through it unchanged.

``_apply_1q`` is the one-qubit gate as one ``np.tensordot`` product, which
the Hadamard ran once per qubit before it kept its operand transposed
between qubits.  ``decode_rcm_reference`` is ``decode_rcm``'s arithmetic as
it ran before it decoded in place, ``encode_rcm_reference`` is
``encode_rcm``'s as it ran with one strided divide per part, and
``encode_rc_reference`` is ``encode_rc``'s as it ran with numpy's complex
division.
``decoded_block_reference`` is the end stages' payload decode as it ran
out of place in ``pipelines``, before ``encode`` finished every decoded result.
"""

import math
from collections.abc import Sequence

import numpy as np

from qlasim import PureState
from qlasim.encode import _checked, _norm_scaling, _reg_width
from qlasim.linalg import PreparationError


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


def _apply_1q(amps: np.ndarray, n: int, position: int, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` on qubit ``position`` of an ``n``-qubit amplitude vector."""
    a = amps.reshape(1 << position, 2, 1 << (n - position - 1))
    return np.tensordot(matrix, a, axes=([1], [1])).transpose(1, 0, 2).reshape(-1)


def decode_rcm_reference(cropped: np.ndarray, scale) -> tuple[np.ndarray, float]:
    """``(matrix, residual)`` of a ``(rows, cols, 2)`` RCM window."""
    z = cropped[:, :, 0] + 1j * cropped[:, :, 1]
    keep = float(np.sum(np.abs(z) ** 2))
    matrix = z / np.sqrt(keep)
    if scale is not None:
        matrix = matrix * scale
    return matrix, float(max(0.0, 1.0 - keep))


def encode_rcm_reference(matrix) -> np.ndarray:
    """``encode_rcm``'s amplitudes: real parts at M=0, imaginary parts at M=1."""
    a = _checked(matrix)
    rows, cols = a.shape
    b, divisor, _ = _norm_scaling(a)
    padded = np.zeros((1 << _reg_width(rows), 1 << _reg_width(cols), 2), dtype=np.complex128)
    np.divide(b.real, divisor, out=padded[:rows, :cols, 0].real)
    np.divide(b.imag, divisor, out=padded[:rows, :cols, 1].real)
    return padded.reshape(-1)


def encode_rc_reference(matrix) -> np.ndarray:
    """``encode_rc``'s amplitudes: the entries divided by the norm as complex numbers."""
    a = _checked(matrix)
    rows, cols = a.shape
    b, divisor, _ = _norm_scaling(a)
    padded = np.zeros((1 << _reg_width(rows), 1 << _reg_width(cols)), dtype=np.complex128)
    np.divide(b, divisor, out=padded[:rows, :cols])
    return padded.reshape(-1)


def decoded_block_reference(block: np.ndarray, crop: tuple[int, ...], known_scale: float,
                            phase_fix: complex = 1.0) -> tuple[np.ndarray, float, float]:
    """``(matrix, residual, known_scale)`` of a measured payload block, cropped,
    divided by ``phase_fix`` and rescaled; :class:`PreparationError` where
    float64 cannot hold ``known_scale``."""
    window = block[tuple(slice(0, c) for c in crop)] / phase_fix
    keep = float(np.sum(np.abs(window) ** 2))
    off_sector = float(max(0.0, 1.0 - np.cumsum(np.abs(block.reshape(-1)) ** 2)[-1]))
    residual = float(max(0.0, 1.0 - keep)) + off_sector
    direction = window / np.sqrt(keep)
    if not 0.0 < known_scale < math.inf:
        raise PreparationError("the result's norm is outside float64's range")
    return direction * known_scale, residual, known_scale
