"""End-to-end pipelines built around deterministic garbage removal.

Every pipeline follows the same final stage.  The working state is a
superposition of a useful branch tagged by a one-qubit *label* ancilla in |1>
and a garbage branch with the label in |0>:

1. append a fresh *flag* ancilla in |0>,
2. copy the label onto the flag with a CNOT,
3. run :func:`~qlasim.measure.controlled_measure`, which returns the labeled
   branch renormalized no matter how small its weight is, or leaves the state
   untouched when no labeled component exists.

``row_sum`` builds its labeled state from gates (Hadamards plus an
all-zero-controlled flip); the matrix-algebra end stages initialize their
labeled states directly from closed-form coefficients, standing in for the
upstream preparation circuits, and exercise only the final stage.

Results come back up to normalization: the decoded entries have a fixed
direction, and the lost magnitude is recovered from the measured branch
weight (reported as ``recovered_norm``).  In ``mode="sampled"`` the final
stage instead measures the flag by the Born rule, which fails with
probability one minus the branch weight; this exists to demonstrate what the
deterministic extraction avoids.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .encode import DecodedResult, EncodedMatrix, extract_payload, _reg_width
from .gates import (
    apply_single,
    cnot,
    controlled_on_zero_flip,
    hadamard_register,
    mcx_decomposition_count,
    swap_registers,
)
from .measure import MeasureResult, controlled_measure, measure_sampled
from .rng import as_generator, stream
from .states import PureState, RegisterLayout, add_ancilla

LABEL = "label"
FLAG = "flag"

# Weight bookkeeping tolerances for prepared labeled states.
WEIGHT_TOL = 1e-10
PAYLOAD_EXCESS_TOL = 1e-12

_MODES = ("ideal", "sampled")
_SAMPLE_STREAM = 1 << 32  # substream reserved for the sampled-mode draw


class PreparationError(ValueError):
    """Closed-form coefficients cannot fit in a unit-norm state as scaled."""


@dataclass(frozen=True)
class LabeledState:
    """A state split into a labeled useful branch and weighted garbage."""

    state: PureState
    label_ancilla: str
    payload_registers: tuple[str, ...]
    garbage_weight: float


@dataclass(frozen=True)
class PipelineReport:
    """What one pipeline run produced.

    ``outcome`` is 1 on success, ``None`` when no labeled branch existed
    ("not-measured"), and 0 when a sampled-mode measurement failed.
    ``result`` is a :class:`~qlasim.encode.DecodedResult` for matrix/vector
    outputs, a unit complex number for phase outputs, or ``None`` on failure.
    ``recovered_norm`` is the normalization constant reconstructed from the
    branch weight.  ``final_state`` is the post-measurement state (the
    untouched input state on "not-measured").
    """

    outcome: int | None
    branch_weight: float
    recovered_norm: float | None
    gate_depth: int
    result: DecodedResult | complex | None
    final_state: PureState


def prepare_labeled_state(
    payload: Mapping[tuple[int, ...], complex],
    layout: RegisterLayout,
    label_ancilla: str,
    garbage_weight: float,
    rng,
    payload_registers: Sequence[str] | None = None,
) -> LabeledState:
    """Initialize a labeled state from explicit branch coefficients.

    ``payload`` maps one value per non-label register (in declaration order)
    to the coefficient that basis state carries on the label=|1> branch.  The
    garbage branch is a seeded pseudo-random unit state on the label=|0>
    sector, scaled to ``garbage_weight``; the two weights must sum to one.
    """
    rng = as_generator(rng)
    if layout.width(label_ancilla) != 1:
        raise ValueError(f"label ancilla {label_ancilla!r} must be one qubit")
    other = [nm for nm in layout.names if nm != label_ancilla]

    total = float(sum(abs(c) ** 2 for c in payload.values()))
    if total > 1.0 + PAYLOAD_EXCESS_TOL:
        raise ValueError(f"payload squared norm {total!r} exceeds 1")
    if garbage_weight < -PAYLOAD_EXCESS_TOL:
        raise ValueError("garbage weight must be non-negative")
    garbage_weight = max(0.0, float(garbage_weight))
    if abs(total + garbage_weight - 1.0) > WEIGHT_TOL:
        raise ValueError(
            f"payload weight {total!r} + garbage weight {garbage_weight!r} must sum to 1"
        )

    amps = np.zeros(layout.dim, dtype=np.complex128)
    for key, coeff in payload.items():
        if len(key) != len(other):
            raise ValueError(
                f"payload key {key!r} must assign the {len(other)} non-label registers"
            )
        assignment = dict(zip(other, key))
        assignment[label_ancilla] = 1
        amps[layout.index_of(assignment)] = coeff

    if garbage_weight > 0.0:
        n = layout.total_qubits
        axis = layout.qubit_position((label_ancilla, 0))
        nd = amps.reshape([2] * n)
        sector_shape = nd.shape[:axis] + nd.shape[axis + 1:]
        g = rng.standard_normal(sector_shape) + 1j * rng.standard_normal(sector_shape)
        g /= np.linalg.norm(g)
        sel: list = [slice(None)] * n
        sel[axis] = 0
        nd[tuple(sel)] = g * np.sqrt(garbage_weight)

    return LabeledState(
        state=PureState(layout, amps, _adopt=True),
        label_ancilla=label_ancilla,
        payload_registers=tuple(payload_registers) if payload_registers is not None else tuple(other),
        garbage_weight=garbage_weight,
    )


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _label_and_measure(state: PureState, label: str, mode: str, seed: int) -> MeasureResult:
    """Shared final stage: flag ancilla, labeling CNOT, branch extraction."""
    st = add_ancilla(state, FLAG)
    st = cnot(st, (label, 0), (FLAG, 0))
    if mode == "ideal":
        return controlled_measure(st, (label, 0), (FLAG, 0))
    return measure_sampled(st, (FLAG, 0), stream(seed, _SAMPLE_STREAM))


def _failure(meas: MeasureResult, depth: int) -> PipelineReport:
    return PipelineReport(
        outcome=meas.outcome,
        branch_weight=meas.branch_weight if meas.outcome is not None else 0.0,
        recovered_norm=None,
        gate_depth=depth,
        result=None,
        final_state=meas.post_state,
    )


def _decoded_block(
    meas: MeasureResult,
    payload: Sequence[str],
    crop: tuple[int, ...],
    known_scale: float,
    phase_fix: complex = 1.0,
) -> DecodedResult:
    """Crop, phase-correct and rescale the payload block of a measured state."""
    block, _, off = extract_payload(meas.post_state, payload)
    window = block[tuple(slice(0, c) for c in crop)] / phase_fix
    keep = float(np.sum(np.abs(window) ** 2))
    residual = float(max(0.0, 1.0 - keep)) + off
    direction = window / np.sqrt(keep)
    return DecodedResult(matrix=direction * known_scale, known_scale=known_scale,
                         residual=residual)


def _phase_at(meas: MeasureResult, assignments: Mapping[str, int]) -> complex:
    """Unit-modulus amplitude of a one-point labeled branch."""
    amp = complex(meas.post_state.amplitudes[meas.post_state.layout.index_of(assignments)])
    return amp / abs(amp)


def _unit_rows(vector: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalize, tolerating an all-zero input (degenerate pipelines)."""
    nrm = float(np.linalg.norm(vector))
    if nrm == 0.0:
        return np.zeros_like(vector), 0.0
    return vector / nrm, nrm


# ---------------------------------------------------------------------------
# Gate-built pipeline: sum over the column index of an RC-encoded matrix.
# ---------------------------------------------------------------------------

def _row_sum_labeled(encoded: EncodedMatrix) -> PureState:
    """State after Hadamards on C and the garbage-labeling flip."""
    if encoded.scheme != "RC":
        raise ValueError(f"row_sum needs an RC encoding, got {encoded.scheme!r}")
    st = hadamard_register(encoded.state, "C")
    st = add_ancilla(st, LABEL)
    return controlled_on_zero_flip(st, "C", (LABEL, 0))


def row_sum(encoded: EncodedMatrix, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Sum the encoded matrix over its column index, one component per row.

    Hadamards on the column register concentrate the row sums on the C=0
    component; the all-zero-controlled flip labels that component, and the
    final stage extracts it.  The decoded vector is proportional to the row
    sums; the branch weight equals (sum_i |row_sum_i|^2) / 2^(width of C) at
    amplitude level, and the normalization constant is recovered from it.
    """
    _check_mode(mode)
    n_sum = encoded.state.layout.width("C")
    depth = n_sum + mcx_decomposition_count(n_sum).depth + 1
    labeled = _row_sum_labeled(encoded)
    meas = _label_and_measure(labeled, LABEL, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    recovered = float(np.sqrt(meas.branch_weight * (1 << n_sum)))
    block, _, off = extract_payload(meas.post_state, ("R",))
    direction, _ = _unit_rows(block[: encoded.rows])
    known_scale = encoded.scale * recovered
    residual = float(max(0.0, 1.0 - np.sum(np.abs(block[: encoded.rows]) ** 2))) + off
    result = DecodedResult(matrix=direction * known_scale, known_scale=known_scale,
                           residual=residual)
    return PipelineReport(
        outcome=1,
        branch_weight=meas.branch_weight,
        recovered_norm=recovered,
        gate_depth=depth,
        result=result,
        final_state=meas.post_state,
    )


# ---------------------------------------------------------------------------
# Hermitian conjugation: a plain unitary on the RCM encoding, no measurement.
# ---------------------------------------------------------------------------

def _pad_square(encoded: EncodedMatrix) -> EncodedMatrix:
    """Embed an RCM encoding into equal-width R and C registers."""
    layout = encoded.state.layout
    wr, wc = layout.width("R"), layout.width("C")
    if wr == wc:
        return encoded
    w = max(wr, wc)
    old = encoded.state.amplitudes.reshape(1 << wr, 1 << wc, 2)
    new = np.zeros((1 << w, 1 << w, 2), dtype=np.complex128)
    new[: 1 << wr, : 1 << wc, :] = old
    square = RegisterLayout([("R", w), ("C", w), ("M", 1)])
    return EncodedMatrix(PureState(square, new.reshape(-1), _adopt=True), "RCM",
                         encoded.rows, encoded.cols, encoded.scale)


def hermitian_conjugate(encoded: EncodedMatrix) -> EncodedMatrix:
    """Conjugate-transpose an RCM-encoded matrix in place of the encoding.

    A Z on the real/imaginary marker negates the imaginary parts and a
    register swap transposes the indices; the operation is unitary, produces
    no garbage, and is its own inverse.
    """
    if encoded.scheme != "RCM":
        raise ValueError(f"hermitian_conjugate needs an RCM encoding, got {encoded.scheme!r}")
    enc = _pad_square(encoded)
    st = apply_single(enc.state, ("M", 0), "Z")
    st = swap_registers(st, "R", "C")
    return EncodedMatrix(st, "RCM", rows=enc.cols, cols=enc.rows, scale=enc.scale)


# ---------------------------------------------------------------------------
# Matrix-algebra end stages prepared from closed-form coefficients.
# ---------------------------------------------------------------------------

def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _square_matrix(a) -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _normalized(a: np.ndarray) -> tuple[np.ndarray, float]:
    s = float(np.linalg.norm(a))
    return (a / s if s > 0 else np.zeros_like(a)), s


def _pad2(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    out = np.zeros(shape, dtype=np.complex128)
    out[tuple(slice(0, s) for s in a.shape)] = a
    return out


def _run_prepared(
    labeled: LabeledState, mode: str, seed: int
) -> tuple[MeasureResult, int]:
    depth = 1  # this stage applies a single labeling CNOT
    meas = _label_and_measure(labeled.state, labeled.label_ancilla, mode, seed)
    return meas, depth


def inner_product_phase(psi1, psi2, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Phase of the non-conjugating inner product sum_j psi2_j * psi1_j.

    Both vectors are normalized and zero-padded to a power-of-two length.
    The labeled branch is a single basis point carrying the inner product
    over 2^(3n/2); on success the result is the unit complex phase, and the
    magnitude of the inner product is recovered from the branch weight.
    """
    _check_mode(mode)
    v1, v2 = _as_vector(psi1), _as_vector(psi2)
    if v1.size != v2.size:
        raise ValueError(f"length mismatch: {v1.size} vs {v2.size}")
    n = _reg_width(v1.size)
    v1 = _pad2(v1, (1 << n,))
    v2 = _pad2(v2, (1 << n,))
    v1, s1 = _normalized(v1)
    v2, s2 = _normalized(v2)
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("cannot take the inner product of a zero vector")

    ip = linalg.bilinear(v2, v1)
    factor = 2.0 ** (1.5 * n)
    coeff = ip / factor
    layout = RegisterLayout([("v1", n), ("v2", n), ("aux", 1), ("mark", 1), (LABEL, 1)])
    labeled = prepare_labeled_state(
        {(0, 0, 0, 1): coeff}, layout, LABEL,
        garbage_weight=1.0 - abs(coeff) ** 2, rng=stream(seed, 0),
        payload_registers=(),
    )
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    phase = _phase_at(meas, {"v1": 0, "v2": 0, "aux": 0, "mark": 1, LABEL: 1, FLAG: 1})
    recovered = float(np.sqrt(meas.branch_weight) * factor)
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=phase, final_state=meas.post_state)


def matrix_add(a1, a2, *, mode: str = "ideal", seed: int = 0,
               prep_scale: float = 1.0) -> PipelineReport:
    """Entrywise sum of two equal-shape matrices, up to normalization.

    Both inputs share one preparation scale (the joint Frobenius norm), so
    the labeled coefficients are proportional to the true sum; the output
    direction matches (a1 + a2) and its magnitude is recovered from the
    branch weight.  a2 = -a1 leaves no labeled branch ("not-measured").
    """
    _check_mode(mode)
    m1 = np.atleast_2d(np.asarray(a1, dtype=np.complex128))
    m2 = np.atleast_2d(np.asarray(a2, dtype=np.complex128))
    if m1.shape != m2.shape:
        raise ValueError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    rows, cols = m1.shape
    joint = float(np.sqrt(np.linalg.norm(m1) ** 2 + np.linalg.norm(m2) ** 2))
    if joint == 0.0:
        raise ValueError("cannot add two all-zero matrices")
    wr, wc = _reg_width(rows), _reg_width(cols)
    summed = _pad2((m1 + m2) / joint, (1 << wr, 1 << wc))
    coeffs = (prep_scale / 2.0) * summed

    layout = RegisterLayout([
        ("row", wr), ("col", wc), ("aux1", 1),
        ("row2", wr), ("col2", wc), ("aux2", 1),
        ("mark", 1), (LABEL, 1),
    ])
    payload = {
        (j, l, 0, 0, 0, 0, 1): coeffs[j, l]
        for j in range(1 << wr) for l in range(1 << wc)
        if coeffs[j, l] != 0
    }
    total = float(np.sum(np.abs(coeffs) ** 2))
    labeled = prepare_labeled_state(payload, layout, LABEL, 1.0 - total,
                                    stream(seed, 0), payload_registers=("row", "col"))
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    recovered = float(2.0 * np.sqrt(meas.branch_weight) / prep_scale)
    result = _decoded_block(meas, ("row", "col"), (rows, cols), joint * recovered)
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=result, final_state=meas.post_state)


def matrix_mul(a1, a2, *, mode: str = "ideal", seed: int = 0,
               prep_scale: float = 1.0) -> PipelineReport:
    """Matrix product a1 @ a2, up to normalization.

    The labeled coefficients carry the contraction over the shared index,
    scaled by 2^(-3k/2) with k the width of that index.  A zero product
    (e.g. nilpotent factors) leaves no labeled branch.
    """
    _check_mode(mode)
    m1 = np.atleast_2d(np.asarray(a1, dtype=np.complex128))
    m2 = np.atleast_2d(np.asarray(a2, dtype=np.complex128))
    if m1.shape[1] != m2.shape[0]:
        raise ValueError(f"incompatible shapes for product: {m1.shape} and {m2.shape}")
    n_rows, n_cols = m1.shape[0], m2.shape[1]
    m1n, s1 = _normalized(m1)
    m2n, s2 = _normalized(m2)
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("cannot multiply by an all-zero matrix")
    k = _reg_width(m1.shape[1])
    wr, wc = _reg_width(n_rows), _reg_width(n_cols)
    factor = 2.0 ** (1.5 * k)
    product = _pad2(linalg.mul(m1n, m2n), (1 << wr, 1 << wc))
    coeffs = prep_scale * product / factor

    layout = RegisterLayout([
        ("row", wr), ("icol", k), ("irow", k), ("col", wc),
        ("aux", 1), ("mark", 1), (LABEL, 1),
    ])
    payload = {
        (j, 0, 0, l, 0, 1): coeffs[j, l]
        for j in range(1 << wr) for l in range(1 << wc)
        if coeffs[j, l] != 0
    }
    total = float(np.sum(np.abs(coeffs) ** 2))
    labeled = prepare_labeled_state(payload, layout, LABEL, 1.0 - total,
                                    stream(seed, 0), payload_registers=("row", "col"))
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    recovered = float(np.sqrt(meas.branch_weight) * factor / prep_scale)
    result = _decoded_block(meas, ("row", "col"), (n_rows, n_cols), s1 * s2 * recovered)
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=result, final_state=meas.post_state)


def determinant_phase(a, *, mode: str = "ideal", seed: int = 0,
                      scale_exponent: int | None = None) -> PipelineReport:
    """Unit complex det(a)/|det(a)|; the magnitude is deliberately lost.

    The labeled branch is one basis point with coefficient
    det(a) / 2^(scale_exponent/2); the exponent defaults to the square of
    the padded dimension and must stay fixed when comparing rescaled inputs
    (the branch weight then scales as c^(2N) under a -> c*a while the phase
    does not move).  The post-measurement state retains no trace of |det|.
    """
    _check_mode(mode)
    m = _square_matrix(a)
    n_dim = m.shape[0]
    if scale_exponent is None:
        scale_exponent = (1 << _reg_width(n_dim)) ** 2
    d = linalg.det_lu(m)
    coeff = d / 2.0 ** (scale_exponent / 2.0)
    if abs(coeff) > 1.0:
        raise PreparationError(
            f"labeled coefficient magnitude {abs(coeff):.3e} exceeds 1; "
            f"pass a larger scale_exponent"
        )
    layout = RegisterLayout([("sys", 1), ("aux", 1), (LABEL, 1)])
    labeled = prepare_labeled_state({(0, 0): coeff}, layout, LABEL,
                                    1.0 - abs(coeff) ** 2, stream(seed, 0),
                                    payload_registers=())
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    phase = _phase_at(meas, {"sys": 0, "aux": 0, LABEL: 1, FLAG: 1})
    recovered = float(np.sqrt(meas.branch_weight) * 2.0 ** (scale_exponent / 2.0))
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=phase, final_state=meas.post_state)


def matrix_inverse(a, *, mode: str = "ideal", seed: int = 0,
                   scale_exponent: float | None = None,
                   condition_limit: float = 1e8) -> PipelineReport:
    """Inverse of a well-conditioned square matrix, up to normalization.

    The labeled coefficients are -det(a) * inv(a)[j, i] / 2^(e/2) at row j,
    column i, with the inverse supplied by the classical reference; the run
    checks that the coefficient structure and normalization bookkeeping
    survive the pipeline.  The preparation constant's phase is divided back
    out of the decoded entries, so the reported direction is inv(a) itself;
    its Frobenius norm is recovered from the branch weight.
    """
    _check_mode(mode)
    m = _square_matrix(a)
    report = linalg.inverse_gj(m)
    if report.condition_estimate >= condition_limit:
        raise linalg.SingularMatrixError(
            f"condition estimate {report.condition_estimate:.3e} exceeds {condition_limit:.1e}"
        )
    inv = report.value
    d = linalg.det_lu(m)
    if d == 0:
        raise linalg.SingularMatrixError("determinant vanished within pivot tolerance")
    magnitude = float(abs(d) * np.linalg.norm(inv))
    if scale_exponent is None:
        # smallest even headroom keeping the labeled weight in [1/4, 1)
        scale_exponent = 2.0 * (np.floor(np.log2(magnitude)) + 1.0)
    divisor = 2.0 ** (scale_exponent / 2.0)
    w = _reg_width(m.shape[0])
    coeffs = _pad2(-d * inv / divisor, (1 << w, 1 << w))

    layout = RegisterLayout([("sys", 1), ("row", w), ("col", w), ("aux", 1), (LABEL, 1)])
    payload = {
        (0, j, i, 0): coeffs[j, i]
        for j in range(1 << w) for i in range(1 << w)
        if coeffs[j, i] != 0
    }
    total = float(np.sum(np.abs(coeffs) ** 2))
    labeled = prepare_labeled_state(payload, layout, LABEL, 1.0 - total,
                                    stream(seed, 0), payload_registers=("row", "col"))
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    recovered = float(np.sqrt(meas.branch_weight) * divisor / abs(d))
    prep_phase = -d / abs(d)
    result = _decoded_block(meas, ("row", "col"), (m.shape[0], m.shape[0]),
                            recovered, phase_fix=prep_phase)
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=result, final_state=meas.post_state)


def linear_stage(a, b, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Contraction sum_j a[l, j] * b[j], one component per row of ``a``.

    The labeled coefficients carry the matrix-vector product of the
    normalized inputs over 2^(k/2), k the width of the contracted index.
    An orthogonal pair (a @ b = 0) leaves no labeled branch.
    """
    _check_mode(mode)
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    v = _as_vector(b)
    if m.shape[1] != v.size:
        raise ValueError(f"incompatible shapes for contraction: {m.shape} and {v.shape}")
    mn, sa = _normalized(m)
    vn, sb = _normalized(v)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("cannot contract with an all-zero input")
    k = _reg_width(v.size)
    wr = _reg_width(m.shape[0])
    factor = 2.0 ** (k / 2.0)
    contraction = np.zeros(1 << wr, dtype=np.complex128)
    contraction[: m.shape[0]] = linalg.contract(mn, vn)
    coeffs = contraction / factor

    layout = RegisterLayout([("row", wr), ("col", k), ("rhs", k), ("aux", 1), (LABEL, 1)])
    payload = {
        (j, 0, 0, 0): coeffs[j] for j in range(1 << wr) if coeffs[j] != 0
    }
    total = float(np.sum(np.abs(coeffs) ** 2))
    labeled = prepare_labeled_state(payload, layout, LABEL, 1.0 - total,
                                    stream(seed, 0), payload_registers=("row",))
    meas, depth = _run_prepared(labeled, mode, seed)
    if meas.outcome != 1:
        return _failure(meas, depth)

    recovered = float(np.sqrt(meas.branch_weight) * factor)
    block, _, off = extract_payload(meas.post_state, ("row",))
    direction, _ = _unit_rows(block[: m.shape[0]])
    known_scale = sa * sb * recovered
    residual = float(max(0.0, 1.0 - np.sum(np.abs(block[: m.shape[0]]) ** 2))) + off
    result = DecodedResult(matrix=direction * known_scale, known_scale=known_scale,
                           residual=residual)
    return PipelineReport(outcome=1, branch_weight=meas.branch_weight,
                          recovered_norm=recovered, gate_depth=depth,
                          result=result, final_state=meas.post_state)


# ---------------------------------------------------------------------------
# Naive-vs-deterministic extraction benchmark.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    """Success statistics for one input: naive sampling vs deterministic."""

    n_r: int
    analytic_p: float
    empirical_p: float
    controlled_success_rate: float


def naive_success_bench(encoded_inputs, trials: int, master_seed: int) -> list[BenchRow]:
    """Compare naive flag sampling with deterministic branch extraction.

    For each RC-encoded input, the fully built pre-measurement state is
    sampled ``trials`` times on the flag ancilla (success probability =
    labeled weight, which shrinks like 2^-width(C) for column-concentrated
    matrices), and extracted once deterministically.  Trials use independent
    counter-based substreams of ``master_seed``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(encoded_inputs, EncodedMatrix):
        encoded_inputs = [encoded_inputs]

    out: list[BenchRow] = []
    for encoded in encoded_inputs:
        n_r = encoded.state.layout.width("C")
        wr = encoded.state.layout.width("R")
        amp_matrix = encoded.state.amplitudes.reshape(1 << wr, 1 << n_r)
        sums = linalg.row_sums(amp_matrix)
        analytic_p = float(np.sum(np.abs(sums) ** 2) / (1 << n_r))

        pre = add_ancilla(_row_sum_labeled(encoded), FLAG)
        pre = cnot(pre, (LABEL, 0), (FLAG, 0))
        hits = 0
        for t in range(trials):
            res = measure_sampled(pre, (FLAG, 0), stream(master_seed, t))
            hits += 1 if res.outcome == 1 else 0
        controlled = controlled_measure(pre, (LABEL, 0), (FLAG, 0))
        out.append(BenchRow(
            n_r=n_r,
            analytic_p=analytic_p,
            empirical_p=hits / trials,
            controlled_success_rate=1.0 if controlled.outcome == 1 else 0.0,
        ))
    return out
