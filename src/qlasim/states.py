"""Dense complex state vectors over named multi-qubit registers.

Bit-order convention, fixed for the whole package:

* Registers are declared in order; the first declared register occupies the
  most significant bits of the global basis index.
* Within a register, bit 0 is the register's most significant bit.
* The global basis index of an assignment is the concatenation of the
  per-register binary values in declaration order.

States are value-semantic: every operation returns a fresh ``PureState`` and
amplitude buffers are frozen after construction, so states can be shared
between threads freely.

``PureState(layout, amplitudes)`` copies the caller's array.  Buffers the
package has just allocated (gate, measurement, encoding, basis, random and
ancilla states) are adopted without a copy through the private ``_adopt``
flag and frozen in place.  Both paths run the length and norm checks.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import InitVar, dataclass

import numpy as np

# Tolerance on the squared-amplitude sum of any public state.
NORM_TOL = 1e-10

# A single qubit: (register, bit) with bit 0 the register's most significant
# bit, or just the register name for one-qubit registers.
QubitSpec = str | tuple[str, int]


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers defining the global basis-index layout."""

    registers: tuple[tuple[str, int], ...]

    def __init__(self, registers: Sequence[tuple[str, int]]):
        if not registers:
            raise ValueError("layout needs at least one register")
        regs = tuple((str(name), int(width)) for name, width in registers)
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register name in {names}")
        for name, width in regs:
            if width < 1:
                raise ValueError(f"register {name!r} must hold at least one qubit")
        starts: dict[str, int] = {}
        pos = 0
        for name, width in regs:
            starts[name] = pos
            pos += width
        object.__setattr__(self, "registers", regs)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_total", pos)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def total_qubits(self) -> int:
        return self._total

    @property
    def dim(self) -> int:
        return 1 << self._total

    def has(self, name: str) -> bool:
        return name in self._starts

    def width(self, name: str) -> int:
        for reg, w in self.registers:
            if reg == name:
                return w
        raise KeyError(f"unknown register {name!r}")

    def axes(self, name: str) -> range:
        """Global qubit positions of a register, most significant first."""
        width = self.width(name)  # KeyError on an unknown register
        return range(self._starts[name], self._starts[name] + width)

    def qubit_position(self, qubit: QubitSpec) -> int:
        """Global position of a single qubit given as (register, bit) or name."""
        if isinstance(qubit, str):
            name, bit = qubit, 0
            if self.width(name) != 1:
                raise ValueError(
                    f"register {name!r} is wider than one qubit; use (name, bit)"
                )
        else:
            name, bit = qubit
        width = self.width(name)
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for register {name!r}")
        return self._starts[name] + bit

    def index_of(self, assignments: Mapping[str, int]) -> int:
        """Global basis index of a full assignment."""
        return int(self.indices_of(assignments))

    def indices_of(self, assignments: Mapping[str, "int | np.ndarray"]) -> np.ndarray:
        """:meth:`index_of` over arrays: one value or integer array per register.

        The arrays broadcast together, and so does the result.
        """
        index = np.zeros((), dtype=np.int64)
        for name, width in self.registers:
            if name not in assignments:
                raise ValueError(f"missing assignment for register {name!r}")
            try:
                value = np.asarray(assignments[name], dtype=np.int64)
                in_range = not np.any((value < 0) | (value >= 1 << width))
            except OverflowError:
                in_range = False
            if not in_range:
                raise ValueError(f"value {assignments[name]} out of range for register "
                                 f"{name!r} (width {width})")
            index = (index << width) | value
        extra = set(assignments) - set(self.names)
        if extra:
            raise ValueError(f"unknown registers in assignment: {sorted(extra)}")
        return index

    def assignment_of(self, index: int) -> dict[str, int]:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range")
        out: dict[str, int] = {}
        for name, width in reversed(self.registers):
            out[name] = index & ((1 << width) - 1)
            index >>= width
        return {name: out[name] for name in self.names}

    def extended(self, name: str, width: int = 1) -> "RegisterLayout":
        """New layout with ``name`` appended as the least significant bits."""
        if self.has(name):
            raise ValueError(f"register {name!r} already exists")
        return RegisterLayout(list(self.registers) + [(name, width)])


def _check_norm(amps: np.ndarray) -> None:
    """Refuse amplitudes whose squared norm is not 1 within :data:`NORM_TOL`."""
    nrm2 = float(np.vdot(amps, amps).real)
    if not abs(nrm2 - 1.0) <= NORM_TOL:  # also refuses NaN
        raise ValueError(f"state is not normalized: |amplitudes|^2 = {nrm2!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a :class:`RegisterLayout`."""

    layout: RegisterLayout
    amplitudes: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt: bool):
        convert = np.asarray if _adopt else np.array
        amps = convert(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, layout needs {self.layout.dim}"
            )
        _check_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped with one axis per qubit (axis 0 = global MSB)."""
        return self.amplitudes.reshape([2] * self.n_qubits)


def basis_state(layout: RegisterLayout, assignments: Mapping[str, int]) -> PureState:
    """Computational basis state selected by a full register assignment."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of(assignments)] = 1.0
    return PureState(layout, amps, _adopt=True)


def add_ancilla(state: PureState, name: str, width: int = 1) -> PureState:
    """Append a ground-state ancilla register as the least significant bits."""
    layout = state.layout.extended(name, width)
    amps = np.zeros((state.layout.dim, 1 << width), dtype=np.complex128)
    amps[:, 0] = state.amplitudes
    return PureState(layout, amps, _adopt=True)


def amplitude_of(state: PureState, assignments: Mapping[str, int]) -> complex:
    """Single amplitude at a full register assignment."""
    return complex(state.amplitudes[state.layout.index_of(assignments)])


def random_state(layout: RegisterLayout, rng: np.random.Generator) -> PureState:
    """Haar-ish random unit state (normalized complex Gaussian amplitudes)."""
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, amps / np.linalg.norm(amps), _adopt=True)
