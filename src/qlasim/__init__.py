"""State-vector simulation of amplitude-encoded matrix algebra with
deterministic garbage removal.

The package is organized bottom-up:

* :mod:`qlasim.states` - named registers and dense pure states,
* :mod:`qlasim.gates` - the unitaries the pipelines use, plus the
  decomposition-cost reporter for the zero-controlled flip,
* :mod:`qlasim.measure` - sampling, post-selection, and the deterministic
  label-conditioned branch extraction,
* :mod:`qlasim.encode` - matrix <-> amplitude encodings (row/column and
  real/imaginary-marker schemes),
* :mod:`qlasim.pipelines` - end-to-end runs: column sums, Hermitian
  conjugation, inner product, addition, multiplication, determinant phase,
  inversion, and the linear contraction stage,
* :mod:`qlasim.linalg` - the classical references the tests compare against,
* :mod:`qlasim.cli` - the command-line front end.
"""

from .states import (
    NORM_TOL,
    PureState,
    RegisterLayout,
    add_ancilla,
    amplitude_of,
    basis_state,
    random_state,
)
from .gates import (
    GateCount,
    apply_single,
    cnot,
    controlled_on_zero_flip,
    hadamard_register,
    mcx_decomposition_count,
    swap_registers,
)
from .measure import (
    EMPTY_BRANCH_TOL,
    EmptyBranchError,
    MeasureResult,
    branch_probability,
    controlled_measure,
    measure_sampled,
    postselect,
)
from .encode import (
    DecodedResult,
    EncodedMatrix,
    NonProductSectorError,
    decode_rc,
    decode_rcm,
    encode_rc,
    encode_rcm,
)
from .linalg import (
    OracleReport,
    SingularMatrixError,
    bilinear,
    contract,
    det_lu,
    inverse_gj,
    row_sums,
)
from .pipelines import (
    BenchRow,
    PreparationError,
    LabeledState,
    PipelineReport,
    determinant_phase,
    hermitian_conjugate,
    inner_product_phase,
    linear_stage,
    matrix_add,
    matrix_inverse,
    matrix_mul,
    naive_success_bench,
    prepare_labeled_state,
    row_sum,
)
from .rng import stream

__all__ = [
    "NORM_TOL",
    "PureState",
    "RegisterLayout",
    "add_ancilla",
    "amplitude_of",
    "basis_state",
    "random_state",
    "GateCount",
    "apply_single",
    "cnot",
    "controlled_on_zero_flip",
    "hadamard_register",
    "mcx_decomposition_count",
    "swap_registers",
    "EMPTY_BRANCH_TOL",
    "EmptyBranchError",
    "MeasureResult",
    "branch_probability",
    "controlled_measure",
    "measure_sampled",
    "postselect",
    "DecodedResult",
    "EncodedMatrix",
    "NonProductSectorError",
    "decode_rc",
    "decode_rcm",
    "encode_rc",
    "encode_rcm",
    "OracleReport",
    "SingularMatrixError",
    "bilinear",
    "contract",
    "det_lu",
    "inverse_gj",
    "row_sums",
    "BenchRow",
    "PreparationError",
    "LabeledState",
    "PipelineReport",
    "determinant_phase",
    "hermitian_conjugate",
    "inner_product_phase",
    "linear_stage",
    "matrix_add",
    "matrix_inverse",
    "matrix_mul",
    "naive_success_bench",
    "prepare_labeled_state",
    "row_sum",
    "stream",
]

__version__ = "0.1.0"
