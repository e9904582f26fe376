"""Projective measurement, post-selection, and deterministic branch extraction.

Three ways to read an ancilla out of a state:

* :func:`measure_sampled` draws the outcome from the Born rule; on a state
  whose useful branch carries weight p it succeeds only with probability p.
* :func:`postselect` forces a chosen outcome and fails loudly on an empty
  branch.
* :func:`controlled_measure` is post-selection on the label ancilla that
  cannot fail: it measures the flag only inside the label=|1> sector, returns
  any labeled component, however small, renormalized (deterministic success),
  and where :func:`postselect` would raise returns the input state untouched.
  The operation is not unitary, and the pre-measurement branch weight survives
  only in the ``branch_weight`` field, never in the post-state.

:func:`extract_labeled_branch` gives the successful result of either
extraction from the labeled branch alone, as its nonzero amplitudes, for
callers that know that branch in closed form; the dense post-state is built
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import PureState, QubitSpec, RegisterLayout, _check_norm

# A branch at or below this squared norm counts as absent.
EMPTY_BRANCH_TOL = 1e-14

_DENSE_SUM_MAX = 1 << 14  # buffer length up to which a sparse sum fills and sums densely


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


def _sector(amps: np.ndarray, position: int, bit: int) -> np.ndarray:
    """View of the ``bit`` half of a flat buffer along qubit ``position``."""
    return amps.reshape(1 << position, 2, -1)[:, bit]


def _squared_norm(amps: np.ndarray) -> float:
    """Sum of ``|amp|^2`` in numpy's pairwise order over the array as shaped.

    Every reported ``branch_weight`` bit depends on this order, so the
    weights are always summed in it over the same buffer, zeros included
    (they add exactly), or replayed over its nonzeros by :func:`_sparse_pairwise_sum`.
    """
    return float(np.sum(np.abs(amps) ** 2))


def _sparse_pairwise_sum(length: int, indices: np.ndarray, values: np.ndarray) -> float:
    """``float(np.sum(x))`` for a contiguous float64 ``x`` of power-of-two ``length``,
    0 except for ``values`` at the strictly increasing ``indices``.

    numpy sums a run of at most 128 terms in one kernel (8 lanes in turn,
    then a tree), and a longer run as the sum of its two halves.  Zeros add
    exactly, so the 128-term blocks that hold a value are summed by numpy
    itself and the halving tree is replayed over those blocks alone.  Up to
    ``_DENSE_SUM_MAX`` slots, filling ``x`` and summing it is cheaper.
    """
    if indices.size < 2:
        return float(np.sum(values))
    if length <= _DENSE_SUM_MAX:
        dense = np.zeros(length)
        dense[indices] = values
        return float(np.sum(dense))
    block = min(length, 128)
    blocks = indices // block
    new = np.concatenate(([True], blocks[1:] != blocks[:-1]))
    held = blocks[new]
    dense = np.zeros((held.size, block))
    dense[np.cumsum(new) - 1, indices % block] = values
    sums = dense.sum(axis=1)
    # Neighbouring blocks meet at the tree level of the highest bit in which
    # their numbers differ; the pairs meeting at each level are added, lowest first.
    levels = np.frexp((held[1:] ^ held[:-1]).astype(np.float64))[1]
    while levels.size:
        apart = levels > levels.min()
        sums = np.add.reduceat(sums, np.flatnonzero(np.concatenate(([True], apart))))
        levels = levels[apart]
    return float(sums[0])


def branch_probability(state: PureState, qubit: QubitSpec, bit: int = 1) -> float:
    """Squared norm of the ``qubit = bit`` sector."""
    return _squared_norm(_sector(state.amplitudes, state.layout.qubit_position(qubit), bit))


def _project(state: PureState, position: int, bit: int) -> np.ndarray:
    """One branch copied into a zeroed buffer.

    Callers sum the branch weight over the whole buffer, zeros included, so
    the summation order and every reported ``branch_weight`` bit stay fixed.
    """
    src = state.amplitudes.reshape(1 << position, 2, -1)
    out = np.zeros_like(src)
    out[:, bit] = src[:, bit]
    return out


def _selected(layout: RegisterLayout, branch: np.ndarray, position: int, bit: int,
              weight: float) -> MeasureResult:
    """The projected ``branch`` renormalized in place, reported as outcome ``bit``."""
    _sector(branch, position, bit)[...] /= np.sqrt(weight)
    return MeasureResult(PureState(layout, branch, _adopt=True), bit, weight)


def measure_sampled(state: PureState, qubit: QubitSpec, rng: np.random.Generator) -> MeasureResult:
    """Born-rule measurement of one qubit by one ``rng.random()`` draw."""
    position = state.layout.qubit_position(qubit)
    p1 = branch_probability(state, qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    return _selected(state.layout, _project(state, position, outcome), position, outcome,
                     p1 if outcome == 1 else 1.0 - p1)


def postselect(state: PureState, qubit: QubitSpec, bit: int) -> MeasureResult:
    """Project onto ``qubit = bit`` and renormalize; :class:`EmptyBranchError`
    when the branch weight is at or below :data:`EMPTY_BRANCH_TOL`."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    position = state.layout.qubit_position(qubit)
    branch = _project(state, position, bit)
    weight = _squared_norm(branch)
    if weight <= EMPTY_BRANCH_TOL:
        raise EmptyBranchError(
            f"branch {qubit!r}={bit} carries squared norm {weight!r}; nothing to select"
        )
    return _selected(state.layout, branch, position, bit, weight)


def controlled_measure(state: PureState, control_ancilla: QubitSpec,
                       measured_ancilla: QubitSpec) -> MeasureResult:
    """Measure ``measured_ancilla`` only inside the ``control_ancilla = |1>`` sector.

    This is ``postselect(state, control_ancilla, 1)``, which succeeds whenever
    that sector carries any weight above :data:`EMPTY_BRANCH_TOL`, however
    small, except that where it raises :class:`EmptyBranchError` the input
    state is returned unchanged with ``outcome=None`` and ``branch_weight=0.0``.
    """
    layout = state.layout
    if layout.qubit_position(control_ancilla) == layout.qubit_position(measured_ancilla):
        raise ValueError("control and measured ancillas must be distinct qubits")
    try:
        return postselect(state, control_ancilla, 1)
    except EmptyBranchError:
        return MeasureResult(post_state=state, outcome=None, branch_weight=0.0)


@dataclass(frozen=True, eq=False)
class LabeledBranch:
    """A successful extraction as its ``amplitudes`` at flat ``positions``; ``post_state``
    builds the dense state, zeros elsewhere, on first read."""

    layout: RegisterLayout
    positions: np.ndarray
    amplitudes: np.ndarray
    branch_weight: float
    outcome = 1  # a failed extraction returns None instead

    @cached_property
    def post_state(self) -> PureState:
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.positions] = self.amplitudes
        return PureState(self.layout, amps, _adopt=True)


def extract_labeled_branch(layout: RegisterLayout, positions: np.ndarray, amplitudes: np.ndarray,
                           rng: np.random.Generator | None = None) -> LabeledBranch | None:
    """The successful result of an extraction, from the labeled branch alone.

    ``amplitudes`` sit at the strictly increasing flat ``positions`` of
    ``layout``: the labeled branch after its labeling CNOT, so the control
    (label) and the measured flag, the last qubit of ``layout``, are |1> at
    each.  Without ``rng`` the result is that of :func:`controlled_measure`,
    except that any nonzero weight succeeds; with it, that of
    :func:`measure_sampled` on the flag, drawing one ``rng.random()``.
    Returns ``None`` when the weight is 0 or the draw selects 0.  The weight
    replays the pairwise sum those functions take over the whole state or the
    flag=1 half, and the division is theirs, so the bits are the same.
    """
    if np.any(positions[1:] <= positions[:-1]):
        raise ValueError("positions must be strictly increasing")
    terms = np.abs(amplitudes) ** 2
    if rng is None:
        weight = _sparse_pairwise_sum(layout.dim, positions, terms)
        if weight == 0.0:
            return None
    else:
        weight = _sparse_pairwise_sum(layout.dim >> 1, positions >> 1, terms)  # flag bit dropped
        if not rng.random() < weight:
            return None
    kept = amplitudes / np.sqrt(weight)
    _check_norm(kept)
    kept.setflags(write=False)
    return LabeledBranch(layout, positions, kept, weight)
