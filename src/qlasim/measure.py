"""Projective measurement, post-selection, and deterministic branch extraction.

Three ways to read an ancilla out of a state:

* :func:`measure_sampled` draws the outcome from the Born rule; on a state
  whose useful branch carries weight p it succeeds only with probability p.
* :func:`postselect` forces a chosen outcome and fails loudly on an empty
  branch.
* :func:`controlled_measure` measures the flag ancilla only inside the sector
  where the label ancilla is |1>.  If any labeled component exists, however
  small, the labeled branch is returned renormalized (deterministic success);
  if none exists the input state is returned untouched.  The operation is not
  unitary, and the pre-measurement branch weight survives only in the
  ``branch_weight`` field, never in the post-state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import as_generator
from .states import PureState, QubitSpec

# A branch below this squared norm counts as absent.
EMPTY_BRANCH_TOL = 1e-14


class EmptyBranchError(ValueError):
    """Post-selection on a branch that carries (numerically) no amplitude."""


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of one measurement-like operation.

    ``outcome`` is the measured bit, or ``None`` when nothing was measured
    (no labeled branch existed).  ``branch_weight`` is the squared norm the
    selected branch had before renormalization.
    """

    post_state: PureState
    outcome: int | None
    branch_weight: float


def branch_probability(state: PureState, qubit: QubitSpec, bit: int = 1) -> float:
    """Squared norm of the ``qubit = bit`` sector."""
    position = state.layout.qubit_position(qubit)
    return float(np.sum(np.abs(state.amplitudes.reshape(1 << position, 2, -1)[:, bit]) ** 2))


def _project(state: PureState, position: int, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """One branch copied into a zeroed buffer, and the view of its nonzero half.

    Callers sum the branch weight over the whole buffer, zeros included, so
    the summation order and every reported ``branch_weight`` bit stay fixed.
    """
    src = state.amplitudes.reshape(1 << position, 2, -1)
    out = np.zeros_like(src)
    out[:, bit] = src[:, bit]
    return out, out[:, bit]


def measure_sampled(state: PureState, qubit: QubitSpec, rng) -> MeasureResult:
    """Born-rule measurement of one qubit using an explicit random stream."""
    rng = as_generator(rng)
    position = state.layout.qubit_position(qubit)
    p1 = branch_probability(state, qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    weight = p1 if outcome == 1 else 1.0 - p1
    branch, kept = _project(state, position, outcome)
    kept /= np.sqrt(weight)
    return MeasureResult(
        post_state=PureState(state.layout, branch, _adopt=True),
        outcome=outcome,
        branch_weight=weight,
    )


def postselect(state: PureState, qubit: QubitSpec, bit: int) -> MeasureResult:
    """Project onto ``qubit = bit`` and renormalize."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    position = state.layout.qubit_position(qubit)
    branch, kept = _project(state, position, bit)
    weight = float(np.sum(np.abs(branch) ** 2))
    if weight < EMPTY_BRANCH_TOL:
        raise EmptyBranchError(
            f"branch {qubit!r}={bit} carries squared norm {weight!r}; nothing to select"
        )
    kept /= np.sqrt(weight)
    return MeasureResult(
        post_state=PureState(state.layout, branch, _adopt=True),
        outcome=bit,
        branch_weight=weight,
    )


def controlled_measure(state: PureState, control_ancilla: QubitSpec,
                       measured_ancilla: QubitSpec) -> MeasureResult:
    """Measure ``measured_ancilla`` only inside the ``control_ancilla = |1>`` sector.

    Returns the labeled branch renormalized with ``outcome=1`` whenever that
    sector carries any weight above :data:`EMPTY_BRANCH_TOL` (success is
    independent of how small the weight is).  With no labeled component the
    input state is returned unchanged and ``outcome`` is ``None``.
    """
    layout = state.layout
    control = layout.qubit_position(control_ancilla)
    measured = layout.qubit_position(measured_ancilla)
    if control == measured:
        raise ValueError("control and measured ancillas must be distinct qubits")

    branch, kept = _project(state, control, 1)
    weight = float(np.sum(np.abs(branch) ** 2))
    if weight <= EMPTY_BRANCH_TOL:
        return MeasureResult(post_state=state, outcome=None, branch_weight=0.0)
    kept /= np.sqrt(weight)
    return MeasureResult(
        post_state=PureState(layout, branch, _adopt=True),
        outcome=1,
        branch_weight=weight,
    )
