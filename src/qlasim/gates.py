"""Unitary operations on register states, plus a decomposition-cost reporter.

The simulator applies the all-zero-controlled flip directly as a basis-indexed
permutation; the Toffoli-ladder decomposition behind
:func:`mcx_decomposition_count` is never executed, it only prices that flip in
elementary gates (serial depth model: every gate costs one layer).

The Hadamard on a register runs one stacked BLAS product per qubit and one
transposed copy per group of qubits, on one cache-sized block of the buffer
at a time: a block is a run of values of the qubits before the register, and
each block takes every qubit's product before the next block starts.  The
products are real, ``_H.real`` on the interleaved float view of the complex
operand.  They give the complex product's values; only where the output
holds a zero whose sign the complex product could set otherwise does a block
run the complex chain again, so the bytes are the complex chain's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PureState, QubitSpec, RegisterLayout

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
_HR = np.ascontiguousarray(_H.real)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# Amplitude bytes per block of hadamard_register: a power of two, so blocks
# tile the buffer, and sized so a block and its two temporaries stay in a
# core's L2 cache.  At least 256 bytes, so that a block's first product has
# 8 columns: BLAS kernels may round narrower products differently from the
# same columns of a wide one.
_BLOCK_BYTES = 1 << 18
# Most qubits that hadamard_register takes between two transposed copies;
# 3 to 5 run alike, and 5 takes a 9-qubit register in two groups.
_GROUP = 5


def hadamard_register(state: PureState, register_name: str) -> PureState:
    """Hadamard on every qubit of a register: per block of leading-qubit
    values, one stacked BLAS product per qubit and one transposed copy per
    group of qubits.

    A block is a run of about :data:`_BLOCK_BYTES` of values ``L`` of the
    qubits before the register, so it stays in cache across its passes; a
    register with no qubit before it is one block.  One copy moves ``L``
    behind the other axes, ``(L, q1..qc, T)`` -> ``(q1..qc, T, L)``.  Each
    qubit is then one product with the Hadamard on a stack ``x`` of shape
    ``(2^j, 2, K)`` whose batch axis holds the ``j`` qubits already done in
    the group, so the next operand is a free reshape of the last product.
    One copy moves each finished group behind the columns, and one writes
    the block in natural order after the last group.  A block whose
    amplitudes are all +0 is written as +0 with no product.

    The pinned outputs rest on the kernel's rounding of ``_H @ column`` for
    each column, in complex arithmetic.  A stacked product gives each slab
    the bytes of ``np.dot(_H, slab)``, and each column's product is
    independent of its order in an operand of at least 8 columns; so a group
    ends before a slab would fall under 8 columns, and the bytes are those
    of one qubit at a time on the whole buffer.  The transposed orientation
    ``np.dot(x.T, _H.T)`` changes the bytes on the SkylakeX kernel.

    The products run real, ``_H.real`` on the interleaved float view of the
    stack, which skips the multiplies by ``_H``'s zero imaginary part.  The
    real and the complex product agree on every value; they can differ only
    in the sign of a zero, where an FMA residual underflows: the real chain
    gives -0 where ``zgemm``, adding its zero imaginary terms, gives +0.  So
    a block whose real output holds no zero has the complex bytes.  A zero
    whose inputs, the same part (real or imaginary) of the amplitudes that
    share its values of the qubits outside the register, are all +0 is +0
    in both chains, as in padding or in a real-valued state; any other zero
    sends the block through the complex chain again.
    """
    positions = state.layout.axes(register_name)
    first, width = positions[0], len(positions)
    amps = state.amplitudes
    span = amps.size >> first  # amplitudes per value of the leading qubits
    lead = min(1 << first, max(1, _BLOCK_BYTES // (span * amps.itemsize)))
    size = lead * span
    cap = max(1, min(_GROUP, size.bit_length() - 4))  # slabs of at least 8 columns
    group = -(-width // -(-width // cap))  # the fewest groups, of even sizes
    result = np.empty_like(amps)
    for block, dst in zip(amps.reshape(-1, size), result.reshape(-1, size)):
        bits = block.view(np.uint64)  # (re, im) bit patterns: 0 is +0
        if not (bits[0] or bits.any()):  # bits[0] spares most blocks the pass
            dst[...] = 0
            continue
        _products(block, dst, lead, width, group, _HR)
        if not _zeros_settled(bits, dst.view(np.float64), lead, width):
            _products(block, dst, lead, width, group, _H)
    return PureState(state.layout, result, _adopt=True)


def _products(block: np.ndarray, dst: np.ndarray, lead: int, width: int, group: int,
              h: np.ndarray) -> None:
    """Write the Hadamard on ``width`` qubits of ``block`` (``lead`` leading
    values) into ``dst``, in groups of ``group`` qubits: ``h`` is ``_H`` for
    the complex chain, ``_HR`` for the real one on the float view."""
    x = block.reshape(lead, -1).T.copy()
    for start in range(0, width, group):
        if start:
            x = x.reshape(1 << group, -1).T.copy()
        todo = min(group, width - start)
        for j in range(todo):
            x = np.matmul(h, x.view(h.dtype).reshape(1 << j, 2, -1)).view(np.complex128)
    # x is (the last group's qubits, T, L, the qubits of earlier groups).
    x = x.reshape(1 << todo, -1, lead, 1 << start)
    dst.reshape(lead, 1 << start, 1 << todo, -1)[...] = x.transpose(2, 3, 0, 1)


def _zeros_settled(bits: np.ndarray, out: np.ndarray, lead: int, width: int) -> bool:
    """Whether every zero of ``out``, the real chain's float output for a
    block whose input has the bit patterns ``bits``, is one that both chains
    give as +0.  An output mixes one part (real or imaginary) of the
    ``2^width`` amplitudes that share its values of the qubits outside the
    register; where those inputs are all +0 it is +0.  Each such set gives
    ``2^width`` zeros, so every zero is one of them when that is the count."""
    if out.all():
        return True
    live = bits.reshape(lead, 1 << width, -1)  # (L, the register, T and the part)
    while live.shape[1] > 1:  # OR over the register's values
        half = live.shape[1] >> 1
        live = live[:, :half] | live[:, half:]
    return out.size - np.count_nonzero(out) == (live.size - np.count_nonzero(live)) << width


def apply_single(state: PureState, qubit: QubitSpec, gate: str) -> PureState:
    """Pauli ``gate`` in {"X", "Z"} on one qubit, exactly: X copies the two
    halves along the qubit exchanged, Z negates the bit-1 half of a copy."""
    if gate not in PAULI:
        raise ValueError(f"unsupported gate {gate!r}; expected one of {sorted(PAULI)}")
    position = state.layout.qubit_position(qubit)
    a = state.amplitudes.reshape(1 << position, 2, -1)
    if gate == "X":
        amps = a[:, ::-1].copy()
    else:
        amps = a.copy()
        np.negative(amps[:, 1], out=amps[:, 1])
    return PureState(state.layout, amps, _adopt=True)


def _swapped_copy(state: PureState, name_a: str, name_b: str) -> tuple[RegisterLayout, np.ndarray]:
    """:func:`swap_registers`' layout and a fresh, still writable amplitude buffer."""
    layout = state.layout
    if name_a == name_b:
        raise ValueError("cannot swap a register with itself")
    widths = {name_a: layout.width(name_b), name_b: layout.width(name_a)}
    # One axis per register up to the later of the two; the qubits after it
    # move together, so they are one opaque element of 16 << trailing bytes.
    ia, ib = sorted((layout.names.index(name_a), layout.names.index(name_b)))
    head = layout.registers[: ib + 1]
    trailing = state.n_qubits - sum(w for _, w in head)
    element = np.dtype((np.void, 16 << trailing))
    a = state.amplitudes.view(element).reshape([1 << w for _, w in head])
    amps = a.swapaxes(ia, ib).copy().view(np.complex128)
    return RegisterLayout([(name, widths.get(name, w)) for name, w in layout.registers]), amps


def swap_registers(state: PureState, name_a: str, name_b: str) -> PureState:
    """Exchange the contents of two registers of any widths: the amplitude at
    |x>_a |y>_b moves to |y>_a |x>_b, and each name takes the other's width."""
    return PureState(*_swapped_copy(state, name_a, name_b), _adopt=True)


def _flip_where(state: PureState, controls: dict[int, int], target: int) -> PureState:
    """Flip qubit ``target`` where every qubit position in ``controls`` holds its bit."""
    a = state.tensor_view()
    new = a.copy()
    sector = tuple(controls.get(position, slice(None)) for position in range(state.n_qubits))
    # The integer controls drop their axes from the sector view.
    axis = target - sum(1 for position in controls if position < target)
    new[sector] = np.flip(a[sector], axis)
    return PureState(state.layout, new, _adopt=True)


def controlled_on_zero_flip(state: PureState, control_register: str,
                            target_ancilla: QubitSpec) -> PureState:
    """Flip the target qubit exactly where the control register is all zeros.

    The target must be a single qubit outside the control register.
    """
    layout = state.layout
    target_name = target_ancilla if isinstance(target_ancilla, str) else target_ancilla[0]
    if target_name == control_register:
        raise ValueError("control register and target ancilla overlap")
    target = layout.qubit_position(target_ancilla)
    return _flip_where(state, dict.fromkeys(layout.axes(control_register), 0), target)


def cnot(state: PureState, control_qubit: QubitSpec, target_qubit: QubitSpec) -> PureState:
    """Flip the target qubit where the control qubit is |1>."""
    c = state.layout.qubit_position(control_qubit)
    t = state.layout.qubit_position(target_qubit)
    if c == t:
        raise ValueError("control and target must be distinct qubits")
    return _flip_where(state, {c: 1}, t)


@dataclass(frozen=True)
class GateCount:
    """Elementary-gate cost of one multi-controlled flip."""

    n_controls: int
    single_qubit_gates: int
    toffoli_gates: int
    depth: int


def mcx_decomposition_count(n_controls: int) -> GateCount:
    """Cost of an X flip controlled on ``n_controls`` qubits being all zero.

    Controls on zero are conjugated by X on every control (2*n gates).  The
    multi-controlled X itself uses a Toffoli ladder with n-1 clean work
    ancillas: 2(n-1)-1 Toffolis for n >= 2; for a single control it is one
    CNOT, counted with the single-qubit gates.  Depth is serial, one layer
    per gate, and therefore linear in the number of controls.
    """
    if n_controls < 1:
        raise ValueError("need at least one control qubit")
    conjugation = 2 * n_controls
    if n_controls == 1:
        single, toffoli = conjugation + 1, 0
    else:
        single, toffoli = conjugation, max(1, 2 * (n_controls - 1) - 1)
    return GateCount(
        n_controls=n_controls,
        single_qubit_gates=single,
        toffoli_gates=toffoli,
        depth=single + toffoli,
    )
