"""Unitary operations on register states, plus a decomposition-cost reporter.

The simulator applies the all-zero-controlled flip directly as a basis-indexed
permutation; the Toffoli-ladder decomposition behind
:func:`mcx_decomposition_count` is never executed, it only prices that flip in
elementary gates (serial depth model: every gate costs one layer).

The Hadamard on a register runs one BLAS product and one transposed copy per
qubit, on one cache-sized block of the buffer at a time: a block is a run of
values of the qubits before the register, and each block takes every qubit's
product before the next block starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PureState, QubitSpec, RegisterLayout

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# Amplitude bytes per block of hadamard_register: a power of two, so blocks
# tile the buffer, and sized so a block and its two temporaries stay in a
# core's L2 cache.  At least 256 bytes (8 columns per operand): BLAS kernels
# may round narrower products differently from the same columns of a wide one.
_BLOCK_BYTES = 1 << 18


def hadamard_register(state: PureState, register_name: str) -> PureState:
    """Hadamard on every qubit of a register: per block of leading-qubit
    values, one BLAS product and one transposed copy per qubit.

    Each product is ``np.dot(_H, bt)`` on the ``(2, M)`` operand that
    ``np.tensordot`` builds for that qubit alone (target leading, the other
    qubits in natural order); the pinned outputs rest on that kernel's
    rounding, so the operands must not change.  The copy between qubits p
    and p+1 moves p back in place and p+1 to the front, and the copy after
    the last qubit writes the block's part of the output.

    The qubits before the register lead every operand's column index, so a
    run of their values is a run of columns in every operand, and an output
    column of the product depends on its own input column only.  The chain
    therefore runs one run of about :data:`_BLOCK_BYTES` at a time, which
    stays in cache between its passes, with the bytes of the whole-buffer
    chain.  A register with no qubits before it is one block.
    """
    positions = state.layout.axes(register_name)
    first, last = positions[0], positions[-1]
    amps = state.amplitudes
    span = amps.size >> first  # amplitudes per value of the leading qubits
    lead = min(1 << first, max(1, _BLOCK_BYTES // (span * amps.itemsize)))
    result = np.empty_like(amps)
    for block, dst in zip(amps.reshape(-1, lead * span), result.reshape(-1, lead * span)):
        bt = block.reshape(lead, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        for position in positions[:-1]:
            out = np.dot(_H, bt)
            before = lead << (position - first)  # values of the qubits before position
            bt = out.reshape(2, before, 2, -1).transpose(2, 1, 0, 3).reshape(2, -1)
        before = lead << (last - first)
        dst.reshape(before, 2, -1)[...] = np.dot(_H, bt).reshape(2, before, -1).transpose(1, 0, 2)
    return PureState(state.layout, result, _adopt=True)


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
