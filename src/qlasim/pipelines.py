"""End-to-end pipelines built around deterministic garbage removal.

Every measured pipeline ends in one final stage.  The working state is a
superposition of a useful branch tagged by a one-qubit *label* ancilla in |1>
and a garbage branch with the label in |0>.  The circuit appends a *flag*
ancilla in |0>, copies the label onto it with a CNOT and runs
:func:`~qlasim.measure.controlled_measure`, which returns the labeled branch
renormalized however small its weight, or leaves the state untouched when no
labeled component exists.  The final stage gets that result bit for bit from
the labeled amplitudes alone (:func:`~qlasim.measure.extract_labeled_branch`)
and reports every outcome as one :class:`~qlasim.measure.MeasureResult`,
whose ``post_state`` is built when read, as is the whole state where no
labeled branch exists; only a failed sampled draw builds the dense state at
once.  A dense build places the flag instead of running the CNOT: on a fresh
|0> ancilla the CNOT only moves each amplitude to flag = label.

``row_sum`` builds its labeled state from gates (Hadamards plus an
all-zero-controlled flip, placed the same way); rows that cancel leave
rounding noise there, not zeros, so its branch counts as empty up to
``EMPTY_BRANCH_TOL``.  The matrix-algebra end stages initialize their
labeled branch from closed-form coefficients, standing in for the upstream
preparation circuits, and build the garbage only when a result reads it.

Results come back up to normalization: the decoded entries have a fixed
direction, and the lost magnitude is recovered from the measured branch
weight (reported as ``recovered_norm``).  In ``mode="sampled"`` the final
stage instead measures the flag by the Born rule, which fails with
probability one minus the branch weight; this exists to demonstrate what the
deterministic extraction avoids.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, rng
from .encode import (DecodedResult, EncodedMatrix, _checked, _finish, _norm_scaling, _reg_width,
                     _scaled)
from .gates import hadamard_register, mcx_decomposition_count
from .linalg import PreparationError
from .measure import (EMPTY_BRANCH_TOL, MeasureResult, branch_probability, controlled_measure,
                      extract_labeled_branch, measure_sampled)
from .rng import first_draws, stream
from .states import NORM_TOL, PureState, RegisterLayout

LABEL = "label"
FLAG = "flag"

# Weight bookkeeping tolerances for prepared labeled states.
WEIGHT_TOL = 1e-10
PAYLOAD_EXCESS_TOL = 1e-12

_MODES = ("ideal", "sampled")
_SAMPLE_STREAM = 1 << 32  # substream reserved for the sampled-mode draw
_STAGE_DEPTH = 1  # a closed-form end stage applies a single labeling CNOT
CONDITION_LIMIT = 1e8  # matrix_inverse refuses a condition estimate at or above this
# The least labeled weight per nonzero coefficient that renormalizes to a unit
# state: squaring rounds each coefficient to float64's subnormal grid, an error
# of up to 2^-1075, and the errors must stay under NORM_TOL / 2 of the weight.
_MIN_WEIGHT_PER_TERM = 2.0 ** -1074 / NORM_TOL


@dataclass(frozen=True, eq=False)
class LabeledState:
    """A state split into a labeled useful branch and weighted garbage.

    The labeled branch is ``coefficients`` at the flat basis ``positions`` of
    ``layout``, each with the label at |1>.  The garbage is kept as its weight
    and the generator it comes from, and is drawn on the first read of
    ``state``, which builds the dense state once.
    """

    layout: RegisterLayout
    label_ancilla: str
    garbage_weight: float
    positions: np.ndarray
    coefficients: np.ndarray
    garbage_rng: np.random.Generator = field(repr=False)

    @cached_property
    def state(self) -> PureState:
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.positions] = self.coefficients
        if self.garbage_weight > 0.0:
            axis = self.layout.qubit_position((self.label_ancilla, 0))
            sector = amps.reshape(1 << axis, 2, -1)[:, 0]  # label = |0>
            rng = self.garbage_rng
            g = rng.standard_normal(sector.shape) + 1j * rng.standard_normal(sector.shape)
            g /= np.linalg.norm(g)
            sector[...] = g * np.sqrt(self.garbage_weight)
        return PureState(self.layout, amps, _adopt=True)


def _placed(state: PureState, register: str, value: int, name: str) -> PureState:
    """``state`` with a qubit ``name`` appended, |1> where ``register`` holds
    ``value`` and |0> elsewhere.

    This is a flip of a fresh |0> ancilla controlled on ``register = value``
    (the label on C = 0, the flag's CNOT on label = 1) as a placement: each
    amplitude goes to one value of the new qubit, and the other stays zero.
    """
    axes = state.layout.axes(register)
    a = state.amplitudes.reshape(1 << axes.start, 1 << len(axes), -1)
    amps = np.zeros(a.shape + (2,), dtype=np.complex128)
    amps[:, :value, :, 0] = a[:, :value]
    amps[:, value, :, 1] = a[:, value]
    amps[:, value + 1:, :, 0] = a[:, value + 1:]
    return PureState(state.layout.extended(name), amps, _adopt=True)


@dataclass(frozen=True)
class PipelineReport:
    """What one pipeline run produced.

    ``outcome``, ``branch_weight`` and ``final_state`` are read from
    ``measurement``, the final stage's :class:`~qlasim.measure.MeasureResult`.
    ``outcome`` is 1 on success, ``None`` when no labeled branch existed
    ("not-measured"), and 0 when a sampled-mode measurement failed.
    ``result`` is a :class:`~qlasim.encode.DecodedResult` for matrix/vector
    outputs, a unit complex number for phase outputs, or ``None`` on
    failure.  ``recovered_norm`` is the normalization constant reconstructed
    from the branch weight.  ``final_state`` is the post-measurement state
    (on "not-measured", the whole flagged state); after a success and on
    "not-measured" it is built on first read, which allocates the whole
    state, and kept.
    """

    measurement: MeasureResult = field(repr=False)
    gate_depth: int
    recovered_norm: float | None = None
    result: DecodedResult | complex | None = None

    @property
    def outcome(self) -> int | None:
        return self.measurement.outcome

    @property
    def branch_weight(self) -> float:
        return self.measurement.branch_weight

    @property
    def final_state(self) -> PureState:
        return self.measurement.post_state


def prepare_labeled_state(
    payload: Mapping[tuple[int, ...], complex],
    layout: RegisterLayout,
    label_ancilla: str,
    garbage_weight: float,
    rng: np.random.Generator,
) -> LabeledState:
    """Initialize a labeled state from explicit branch coefficients.

    ``payload`` maps one value per non-label register (in declaration order)
    to the coefficient that basis state carries on the label=|1> branch.  The
    garbage branch is a seeded pseudo-random unit state on the label=|0>
    sector, scaled to ``garbage_weight``; the two weights must sum to one.
    The garbage is drawn from the generator ``rng`` only on the first read
    of ``.state``, so drawing from it before that read changes it.
    """
    if layout.width(label_ancilla) != 1:
        raise ValueError(f"label ancilla {label_ancilla!r} must be one qubit")
    other = [nm for nm in layout.names if nm != label_ancilla]

    if set(map(len, payload)) - {len(other)}:
        key = next(key for key in payload if len(key) != len(other))
        raise ValueError(f"payload key {key!r} must assign the {len(other)} non-label registers")
    columns = np.fromiter(itertools.chain.from_iterable(payload), dtype=np.int64,
                          count=len(payload) * len(other)).reshape(len(payload), len(other)).T
    label = np.ones(len(payload), dtype=np.int64)  # one position per key, also over the label alone
    positions = layout.indices_of({**dict(zip(other, columns)), label_ancilla: label})
    coeffs = np.fromiter(payload.values(), dtype=np.complex128, count=len(payload))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("payload coefficients must be finite")

    total = float(np.sum(np.abs(coeffs) ** 2))
    if total > 1.0 + PAYLOAD_EXCESS_TOL:
        raise ValueError(f"payload squared norm {total!r} exceeds 1")
    if garbage_weight < -PAYLOAD_EXCESS_TOL:
        raise ValueError("garbage weight must be non-negative")
    garbage_weight = max(0.0, float(garbage_weight))
    if abs(total + garbage_weight - 1.0) > WEIGHT_TOL:
        raise ValueError(
            f"payload weight {total!r} + garbage weight {garbage_weight!r} must sum to 1"
        )

    return LabeledState(layout, label_ancilla, garbage_weight, positions, coeffs,
                        garbage_rng=rng)


def _final_stage(layout: RegisterLayout, positions: np.ndarray, amplitudes: np.ndarray,
                 mode: str, seed: int, labeled_state: Callable[[], PureState],
                 floor: float) -> MeasureResult:
    """Shared final stage: flag ancilla, labeling CNOT, branch extraction.

    ``amplitudes`` are the labeled branch (label |1>) at the strictly
    increasing flat ``positions`` of ``layout``; the CNOT copies the label onto
    a flag appended last, so a success is extracted from them alone at
    ``2 * positions + 1``.  An empty branch, an ideal weight at most ``floor``
    and a failed sampled draw leave the whole state, garbage included, as the
    final state: the dense sequence on ``labeled_state()``, built on first
    read for an ideal one, "not-measured" with ``floor`` at most ``EMPTY_BRANCH_TOL``.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    rng = None if mode == "ideal" else stream(seed, _SAMPLE_STREAM)
    meas = extract_labeled_branch(layout.extended(FLAG), 2 * positions + 1, amplitudes, rng)
    if meas is not None and (rng is not None or meas.branch_weight > floor):
        return meas
    if rng is None:
        return MeasureResult(None, 0.0, lambda: _placed(labeled_state(), LABEL, 1, FLAG))
    return measure_sampled(_placed(labeled_state(), LABEL, 1, FLAG), (FLAG, 0),
                           stream(seed, _SAMPLE_STREAM))


def _off_sector(block: np.ndarray) -> float:
    """``1 - |block|^2``: the mass outside a measured payload block.

    The squares are added one after another in C order, not pairwise.  The
    eager decoders read the payload from the whole post-state and reduced a
    C-ordered ``(payload, rest)`` array, ``rest > 1``, over axis 0, which sums
    each column in that running order; the residual keeps it so that the
    pinned ``residual`` bits hold.
    """
    return float(max(0.0, 1.0 - np.cumsum(np.abs(block.reshape(-1)) ** 2)[-1]))


def _decoded_block(block: np.ndarray, crop: tuple[int, ...], known_scale: float,
                   phase_fix: complex = 1.0) -> DecodedResult:
    """Crop, phase-correct and rescale a measured payload block (a ``phase_fix``
    of 1.0 still divides, which turns ``-0.0+1j`` into ``0.0+1j``)."""
    return _finish(block[tuple(slice(0, c) for c in crop)] / phase_fix, known_scale,
                   _off_sector(block))


def _decoded_rows(block: np.ndarray, rows: int, known_scale: float) -> DecodedResult:
    """First ``rows`` entries of a measured vector (never all zero), scaled at
    ``np.linalg.norm``'s bits, which differ from ``_finish``'s pairwise sum."""
    window = block[:rows]
    residual = float(max(0.0, 1.0 - np.sum(np.abs(window) ** 2))) + _off_sector(block)
    return _scaled(window / float(np.linalg.norm(window)), known_scale, residual)


def _phase(block: np.ndarray) -> complex:
    """Unit-modulus amplitude of a one-point labeled branch."""
    amp = complex(block[()])
    return amp / abs(amp)


# ---------------------------------------------------------------------------
# Gate-built pipeline: sum over the column index of an RC-encoded matrix.
# ---------------------------------------------------------------------------

def _row_sums_at_column_zero(encoded: EncodedMatrix) -> PureState:
    """Hadamards on C of an RC encoding, which put each row's sum at C=0."""
    if encoded.scheme != "RC":
        raise ValueError(f"row_sum needs an RC encoding, got {encoded.scheme!r}")
    return hadamard_register(encoded.state, "C")


def row_sum(encoded: EncodedMatrix, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Sum the encoded matrix over its column index, one component per row.

    Hadamards on the column register concentrate the row sums on the C=0
    component; the all-zero-controlled flip labels that component, and the
    final stage extracts it.  The decoded vector is proportional to the row
    sums; the branch weight equals (sum_i |row_sum_i|^2) / 2^(width of C) at
    amplitude level, and the normalization constant is recovered from it.
    A success reads the Hadamards' C=0 column; the label is placed only on a full build.
    """
    n_sum = encoded.state.layout.width("C")
    depth = n_sum + mcx_decomposition_count(n_sum).depth + 1
    summed = _row_sums_at_column_zero(encoded)
    layout = summed.layout.extended(LABEL)
    positions = layout.indices_of({"R": np.arange(1 << layout.width("R")), "C": 0, LABEL: 1})
    meas = _final_stage(layout, positions, summed.amplitudes.reshape(-1, 1 << n_sum)[:, 0],
                        mode, seed, lambda: _placed(summed, "C", 0, LABEL), EMPTY_BRANCH_TOL)
    if meas.outcome != 1:
        return PipelineReport(meas, depth)

    recovered = float(np.sqrt(meas.branch_weight * (1 << n_sum)))
    result = _decoded_rows(meas.amplitudes, encoded.rows, encoded.scale * recovered)
    return PipelineReport(meas, depth, recovered, result)


# ---------------------------------------------------------------------------
# Hermitian conjugation: a plain unitary on the RCM encoding, no measurement.
# ---------------------------------------------------------------------------

def hermitian_conjugate(encoded: EncodedMatrix) -> EncodedMatrix:
    """Conjugate-transpose an RCM-encoded matrix in place of the encoding.

    A Z on the real/imaginary marker negates the imaginary parts and a
    register swap transposes the indices; the operation is unitary, produces
    no garbage, and is its own inverse; R and C exchange widths, so no shape is padded.
    The simulator applies both to the encoding's real float64 amplitudes in
    one copy: it transposes R and C and negates the M=1 half (M is the last
    axis) of the fresh buffer, so at peak it holds two float buffers.
    """
    if encoded.scheme != "RCM":
        raise ValueError(f"hermitian_conjugate needs an RCM encoding, got {encoded.scheme!r}")
    # Each (M=0, M=1) pair moves as one 16-byte element, which copies faster than two floats.
    pairs = encoded.amplitudes.view(np.dtype((np.void, 16)))
    parts = pairs.swapaxes(0, 1).copy().view(np.float64)
    imaginary = parts[..., 1]
    np.negative(imaginary, out=imaginary)
    conjugate = EncodedMatrix(parts, "RCM", rows=encoded.cols, cols=encoded.rows,
                              scale=encoded.scale)
    object.__setattr__(conjugate, "conjugated", not encoded.conjugated)
    return conjugate


# ---------------------------------------------------------------------------
# Matrix-algebra end stages prepared from closed-form coefficients.
# ---------------------------------------------------------------------------

def _normalized(a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(a / |a|_F, |a|_F)`` over float64's whole range; ``(a, 0.0)`` for zero."""
    b, divisor, scale = _norm_scaling(a)
    return (b / divisor if scale else b), scale


def _regrouped(s1: float, s2: float, recovered: float) -> float:
    """``s1 * s2 * recovered``, as ``s1 * (s2 * recovered)`` where that is 0 or inf."""
    scale = s1 * s2 * recovered
    return scale if 0.0 < scale < math.inf else s1 * (s2 * recovered)


def _pair_norm(pair: np.ndarray) -> float:
    """sqrt(|pair[0]|_F^2 + |pair[1]|_F^2) from the two norms; the norm of the
    stacked pair sums in another order, which would move the pinned ``add`` bits."""
    return np.sqrt(np.linalg.norm(pair[0]) ** 2 + np.linalg.norm(pair[1]) ** 2)


def _pad2(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    out = np.zeros(shape, dtype=np.complex128)
    out[tuple(slice(0, s) for s in a.shape)] = a
    return out


def _scale_divisor(scale_exponent: float) -> float:
    """2^(scale_exponent/2); :class:`PreparationError` where float64 cannot hold it."""
    try:
        divisor = 2.0 ** (float(scale_exponent) / 2.0)  # a Python float raises, numpy's warns
    except OverflowError:
        divisor = math.inf
    if not 0.0 < divisor < math.inf:
        raise PreparationError(f"scale 2^({scale_exponent}/2) is not representable in float64")
    return divisor


def _closed_form_stage(
    registers: Sequence[tuple[str, int]],
    fixed: Mapping[str, int],
    coeffs,
    mode: str,
    seed: int,
    recover: Callable[[float], float],
    decode: Callable[[np.ndarray, float], DecodedResult | complex],
) -> PipelineReport:
    """Prepare a closed-form labeled branch and run the final stage on it.

    ``registers`` precede the label; on the labeled branch those in ``fixed``
    hold that value and the rest (the payload) carry ``coeffs``, one axis
    each.  Success reports ``recover(sqrt(weight))`` and ``decode(block,
    recovered)`` for the post-measurement payload ``block``.  Only a failed
    sampled draw builds the full state, garbage included; "not-measured"
    (every coefficient 0) builds it when ``final_state`` is read.  A nonzero
    branch whose weight underflows too far into float64's subnormal range to
    renormalize raises :class:`PreparationError`.
    """
    layout = RegisterLayout([*registers, (LABEL, 1)])
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    # The garbage is scaled by sqrt(1 - total), and pinned outcome-0 states
    # depend on its bits: Python's abs for a single point (np.abs of a
    # complex can differ in the last bit), numpy's sum over an array.
    total = abs(complex(coeffs)) ** 2 if coeffs.ndim == 0 else float(np.sum(np.abs(coeffs) ** 2))
    if total < _MIN_WEIGHT_PER_TERM * np.count_nonzero(coeffs):
        raise PreparationError(
            f"labeled branch is nonzero, but its weight {total!r} underflows float64")
    ranges = [(fixed[name],) if name in fixed else range(1 << width) for name, width in registers]
    # itertools.product varies the last register fastest: the C order of coeffs.
    entries = dict(zip(itertools.product(*ranges), coeffs.reshape(-1).tolist(), strict=True))
    labeled = prepare_labeled_state(entries, layout, LABEL, 1.0 - total, stream(seed, 0))
    meas = _final_stage(layout, labeled.positions, labeled.coefficients, mode, seed,
                        lambda: labeled.state, 0.0)
    if meas.outcome != 1:
        return PipelineReport(meas, _STAGE_DEPTH)
    recovered = float(recover(np.sqrt(meas.branch_weight)))
    block = meas.amplitudes.reshape(coeffs.shape)
    return PipelineReport(meas, _STAGE_DEPTH, recovered, decode(block, recovered))


def inner_product_phase(psi1, psi2, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Phase of the non-conjugating inner product sum_j psi2_j * psi1_j.

    Both vectors are normalized and zero-padded to a power-of-two length.
    The labeled branch is a single basis point carrying the inner product
    over 2^(3n/2); on success the result is the unit complex phase, and the
    magnitude of the inner product is recovered from the branch weight.
    """
    v1, v2 = _checked(psi1).reshape(-1), _checked(psi2).reshape(-1)
    if v1.size != v2.size:
        raise ValueError(f"length mismatch: {v1.size} vs {v2.size}")
    n = _reg_width(v1.size)
    v1, s1 = _normalized(_pad2(v1, (1 << n,)))
    v2, s2 = _normalized(_pad2(v2, (1 << n,)))
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("cannot take the inner product of a zero vector")

    factor = 2.0 ** (1.5 * n)
    return _closed_form_stage(
        [("v1", n), ("v2", n), ("aux", 1), ("mark", 1)], {"v1": 0, "v2": 0, "aux": 0, "mark": 1},
        linalg.bilinear(v2, v1) / factor, mode, seed,
        recover=lambda root: root * factor, decode=lambda block, _: _phase(block))


def matrix_add(a1, a2, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Entrywise sum of two equal-shape matrices, up to normalization.

    Both inputs share one preparation scale (the joint Frobenius norm, with
    one power of two for both), so the labeled coefficients are proportional
    to the true sum; the output direction matches (a1 + a2) and its
    magnitude is recovered from the branch weight.  a2 = -a1 leaves no
    labeled branch ("not-measured").
    """
    m1, m2 = _checked(a1), _checked(a2)
    if m1.shape != m2.shape:
        raise ValueError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    rows, cols = m1.shape
    pair, divisor, joint = _norm_scaling(np.stack([m1, m2]), _pair_norm)
    if joint == 0.0:
        raise ValueError("cannot add two all-zero matrices")
    wr, wc = _reg_width(rows), _reg_width(cols)
    summed = _pad2((pair[0] + pair[1]) / divisor, (1 << wr, 1 << wc))

    return _closed_form_stage(
        [("row", wr), ("col", wc), ("aux1", 1), ("row2", wr), ("col2", wc), ("aux2", 1),
         ("mark", 1)], {"aux1": 0, "row2": 0, "col2": 0, "aux2": 0, "mark": 1},
        0.5 * summed, mode, seed, recover=lambda root: 2.0 * root,
        decode=lambda block, recovered: _decoded_block(block, (rows, cols), joint * recovered))


def matrix_mul(a1, a2, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Matrix product a1 @ a2, up to normalization.

    The labeled coefficients carry the contraction over the shared index,
    scaled by 2^(-3k/2) with k the width of that index.  A zero product
    (e.g. nilpotent factors) leaves no labeled branch.
    """
    m1, m2 = _checked(a1), _checked(a2)
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

    return _closed_form_stage(
        [("row", wr), ("icol", k), ("irow", k), ("col", wc), ("aux", 1), ("mark", 1)],
        {"icol": 0, "irow": 0, "aux": 0, "mark": 1}, product / factor, mode, seed,
        recover=lambda root: root * factor,
        decode=lambda block, recovered: _decoded_block(block, (n_rows, n_cols),
                                                       _regrouped(s1, s2, recovered)))


def determinant_phase(a, *, mode: str = "ideal", seed: int = 0,
                      scale_exponent: int | None = None) -> PipelineReport:
    """Unit complex det(a)/|det(a)|; the magnitude is deliberately lost.

    The labeled branch is one basis point with coefficient
    det(a) / 2^(scale_exponent/2); the exponent defaults to the square of
    the padded dimension and must stay fixed when comparing rescaled inputs
    (the branch weight then scales as c^(2N) under a -> c*a while the phase
    does not move).  The post-measurement state retains no trace of |det|.
    Raises :class:`PreparationError` where float64 cannot hold the branch.
    """
    m = _checked(a)
    if scale_exponent is None:
        scale_exponent = (1 << _reg_width(m.shape[0])) ** 2
    d = linalg.det_lu(m)
    divisor = _scale_divisor(scale_exponent)
    coeff = d / divisor
    if abs(coeff) > 1.0:
        raise PreparationError(
            f"labeled coefficient magnitude {abs(coeff):.3e} exceeds 1; "
            f"pass a larger scale_exponent"
        )
    if coeff == 0 != d:  # _closed_form_stage would read it as an empty branch
        raise PreparationError(f"labeled coefficient det(a) / 2^({scale_exponent}/2) "
                               f"underflows float64 (det {d:.3e}); pass a smaller scale_exponent")
    return _closed_form_stage(
        [("sys", 1), ("aux", 1)], {"sys": 0, "aux": 0}, coeff, mode, seed,
        recover=lambda root: root * divisor, decode=lambda block, _: _phase(block))


def matrix_inverse(a, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Inverse of a well-conditioned square matrix, up to normalization.

    The labeled coefficients are -det(a) * inv(a)[j, i] / 2^(e/2) at row j,
    column i, with the inverse supplied by the classical reference; the run
    checks that the coefficient structure and normalization bookkeeping
    survive the pipeline.  The exponent e, always derived from the input, is
    the smallest even one keeping the labeled weight in [1/4, 1).  The
    preparation constant's phase is divided back out of the decoded entries,
    so the reported direction is inv(a) itself; its Frobenius norm is
    recovered from the branch weight.
    """
    m = _checked(a)
    report = linalg.inverse_gj(m)
    if report.condition_estimate >= CONDITION_LIMIT:
        raise linalg.SingularMatrixError(
            f"condition estimate {report.condition_estimate:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    inv = report.value
    d = linalg.det_lu(m)
    if d == 0:
        raise linalg.SingularMatrixError("determinant vanished within pivot tolerance")
    magnitude = abs(d) * _norm_scaling(inv)[2]
    divisor = _scale_divisor(2.0 * (np.floor(np.log2(magnitude)) + 1.0))
    n, w = m.shape[0], _reg_width(m.shape[0])

    return _closed_form_stage(
        [("sys", 1), ("row", w), ("col", w), ("aux", 1)], {"sys": 0, "aux": 0},
        _pad2(-d * inv / divisor, (1 << w, 1 << w)), mode, seed,
        recover=lambda root: root * divisor / abs(d),
        decode=lambda block, recovered: _decoded_block(block, (n, n), recovered,
                                                       phase_fix=-d / abs(d)))


def linear_stage(a, b, *, mode: str = "ideal", seed: int = 0) -> PipelineReport:
    """Contraction sum_j a[l, j] * b[j], one component per row of ``a``.

    The labeled coefficients carry the matrix-vector product of the
    normalized inputs over 2^(k/2), k the width of the contracted index.
    An orthogonal pair (a @ b = 0) leaves no labeled branch.
    """
    m = _checked(a)
    v = _checked(b).reshape(-1)
    if m.shape[1] != v.size:
        raise ValueError(f"incompatible shapes for contraction: {m.shape} and {v.shape}")
    mn, sa = _normalized(m)
    vn, sb = _normalized(v)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("cannot contract with an all-zero input")
    k = _reg_width(v.size)
    wr = _reg_width(m.shape[0])
    factor = 2.0 ** (k / 2.0)
    contraction = _pad2(linalg.contract(mn, vn), (1 << wr,))

    return _closed_form_stage(
        [("row", wr), ("col", k), ("rhs", k), ("aux", 1)], {"col": 0, "rhs": 0, "aux": 0},
        contraction / factor, mode, seed, recover=lambda root: root * factor,
        decode=lambda block, recovered: _decoded_rows(block, len(m), _regrouped(sa, sb, recovered)))


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
    matrices), and extracted once deterministically.  Trial ``t`` draws from
    substream ``t`` of ``master_seed``.

    The flag probability ``p1`` is computed once per input, exactly as
    :func:`measure_sampled` computes it, and trial ``t`` hits when its uniform
    is below ``p1``.  The uniforms come from :func:`first_draws`,
    :data:`~qlasim.rng._DRAW_CHUNK` trials at a time, shared by all inputs and
    equal bit for bit to ``stream(master_seed, t).random()``, so every
    ``empirical_p`` is the one a per-trial ``measure_sampled`` loop gives,
    without building a post-state per trial or an array per trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(encoded_inputs, EncodedMatrix):
        encoded_inputs = [encoded_inputs]

    inputs = []  # (n_r, analytic_p, p1, controlled_success_rate) per input
    for encoded in encoded_inputs:
        summed = _row_sums_at_column_zero(encoded)  # refuses a non-RC encoding first
        n_r = encoded.state.layout.width("C")
        wr = encoded.state.layout.width("R")
        amp_matrix = encoded.state.amplitudes.reshape(1 << wr, 1 << n_r)
        sums = linalg.row_sums(amp_matrix)
        analytic_p = float(np.sum(np.abs(sums) ** 2) / (1 << n_r))

        pre = _placed(_placed(summed, "C", 0, LABEL), LABEL, 1, FLAG)
        p1 = branch_probability(pre, (FLAG, 0), 1)
        controlled = controlled_measure(pre, (LABEL, 0), (FLAG, 0))
        inputs.append((n_r, analytic_p, p1, 1.0 if controlled.outcome == 1 else 0.0))

    hits = [0] * len(inputs)
    for start in range(0, trials, rng._DRAW_CHUNK):
        stop = min(start + rng._DRAW_CHUNK, trials)
        draws = first_draws(master_seed, np.arange(start, stop, dtype=np.uint64))
        for i, (_, _, p1, _) in enumerate(inputs):
            hits[i] += int(np.count_nonzero(draws < p1))
    return [BenchRow(n_r, analytic_p, h / trials, rate)
            for (n_r, analytic_p, _, rate), h in zip(inputs, hits)]
