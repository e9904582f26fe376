"""Command-line front end: JSON matrix files in, reports out.

Matrix file format: ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with
``data`` row-major and one [re, im] pair per entry.  Vectors are files with a
single row or a single column.

Exit codes: 0 success; 1 empty labeled branch / failed sampled measurement;
2 malformed input; 3 numerical failure (singular input, residual over the
tolerance).

:func:`main` may be called repeatedly in one process; it builds its parser on
the first call and reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import pipelines
from .encode import DecodedResult, NonProductSectorError, encode_rc, encode_rcm, decode_rcm
from .gates import mcx_decomposition_count
from .linalg import SingularMatrixError
from .pipelines import PreparationError

EXIT_OK = 0
EXIT_NOT_MEASURED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

NOT_MEASURED_MESSAGE = "labeled branch empty; state unchanged"


class CliInputError(ValueError):
    """Malformed file or incompatible shapes (exit code 2)."""


# --- serialization ---------------------------------------------------------

_fmt = "{:.17g}".format  # 17 significant digits read back as the same float64


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits; a file dict's ``data`` in one pass."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.shape[1:] == (2,):
        flat = obj.ravel().tolist()
        return "[" + ",".join(map("[{:.17g},{:.17g}]".format, flat[0::2], flat[1::2])) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_to_filedict(matrix) -> dict:
    """File dict of ``matrix``; ``data`` is a float64 copy of shape (rows*cols, 2)."""
    m = np.array(matrix, dtype=np.complex128, order="C", ndmin=2)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.view(np.float64).reshape(-1, 2)}


def read_matrix(path: str) -> np.ndarray:
    """Load a complex matrix from a JSON matrix file."""
    try:
        with open(path) as fh:
            text = fh.read()
        raw = json.loads(text)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from exc

    if not isinstance(raw, dict) or not {"rows", "cols", "data"} <= set(raw):
        raise CliInputError(f"{path}: expected keys rows, cols, data")
    rows, cols, data = raw["rows"], raw["cols"], raw["data"]
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise CliInputError(f"{path}: rows and cols must be positive integers")
    if not isinstance(data, list):
        raise CliInputError(f"{path}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise CliInputError(
            f"{path}: data must hold rows*cols = {rows * cols} entries, got {len(data)}"
        )
    # np.array reads true and false as 1 and 0, so a text that may hold
    # booleans goes entry by entry, where they are refused.
    try:
        pairs = np.empty(0) if "true" in text or "false" in text else np.array(data)
    except ValueError:  # ragged or too deeply nested
        pairs = np.empty(0)
    if pairs.shape == (rows * cols, 2) and pairs.dtype.kind in "iuf":
        out = pairs.astype(np.float64).view(np.complex128)  # the same casts as complex()
    else:  # strings, null, booleans, nesting, integers past uint64: name the first bad entry
        out = np.empty(rows * cols, dtype=np.complex128)
        for i, pair in enumerate(data):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) in (int, float) for v in pair)):
                raise CliInputError(f"{path}: entry {i} is not an [re, im] pair")
            try:
                out[i] = complex(pair[0], pair[1])
            except OverflowError:  # an integer past float64's range, like 1e999
                out[i] = np.inf
    if not np.all(np.isfinite(out)):
        raise CliInputError(f"{path}: entries must be finite")
    return out.reshape(rows, cols)


def read_vector(path: str) -> np.ndarray:
    m = read_matrix(path)
    if 1 not in m.shape:
        raise CliInputError(f"{path}: expected a vector (one row or one column)")
    return m.reshape(-1)


def write_report(payload: dict, text_lines, output: str) -> None:
    """Print ``payload`` as JSON, or the lines ``text_lines()`` builds for text output."""
    if output == "json":
        print(dumps(payload))
    else:
        for line in text_lines():
            print(line)


# --- report assembly -------------------------------------------------------

def _as_matrix(result: DecodedResult) -> np.ndarray:
    m = np.asarray(result.matrix)
    return m.reshape(-1, 1) if m.ndim == 1 else m


def _result_payload(result) -> object:
    if result is None:
        return None
    if isinstance(result, DecodedResult):
        return matrix_to_filedict(_as_matrix(result))
    z = complex(result)
    return [float(z.real), float(z.imag)]


def _outcome_payload(outcome) -> object:
    return "not-measured" if outcome is None else outcome


def _report_pipeline(command: str, report: pipelines.PipelineReport, args) -> int:
    payload = {
        "command": command,
        "outcome": _outcome_payload(report.outcome),
        "branch_weight": report.branch_weight,
        "recovered_norm": report.recovered_norm,
        "gate_depth": report.gate_depth,
        "result": _result_payload(report.result),
    }
    if isinstance(report.result, DecodedResult):
        payload["residual"] = report.result.residual

    if report.outcome != 1:
        message = (NOT_MEASURED_MESSAGE if report.outcome is None
                   else "sampled measurement failed (outcome 0)")
        payload["message"] = message
        write_report(payload, lambda: [message, f"outcome: {_outcome_payload(report.outcome)}"],
                     args.output)
        return EXIT_NOT_MEASURED

    if isinstance(report.result, DecodedResult) and report.result.residual > args.tolerance:
        payload["error"] = (
            f"decode residual {report.result.residual:.3e} over tolerance"
        )
        write_report(payload, lambda: [payload["error"]], args.output)
        return EXIT_NUMERICAL

    write_report(payload, lambda: [f"outcome: {report.outcome}",
                                   f"branch_weight: {_fmt(report.branch_weight)}",
                                   f"recovered_norm: {_fmt(report.recovered_norm)}",
                                   f"gate_depth: {report.gate_depth}",
                                   *_matrix_lines(report.result)], args.output)
    return EXIT_OK


def _matrix_lines(result) -> list[str]:
    if isinstance(result, DecodedResult):
        m = _as_matrix(result)
        lines = [f"result ({m.shape[0]}x{m.shape[1]}):"]
        for row in m:
            lines.append("  " + "  ".join(f"{_fmt(z.real)}{z.imag:+.17g}j" for z in row))
        return lines
    z = complex(result)
    return [f"result: {_fmt(z.real)}{z.imag:+.17g}j"]


# --- subcommands ------------------------------------------------------------

def _read_rc(path: str):
    return encode_rc(read_matrix(path))


def _cmd_hconj(args, matrix) -> int:
    decoded = decode_rcm(pipelines.hermitian_conjugate(encode_rcm(matrix)))
    payload = {
        "command": "hconj",
        "outcome": 1,
        "result": matrix_to_filedict(decoded.matrix),
        "residual": decoded.residual,
    }
    write_report(payload, lambda: _matrix_lines(decoded), args.output)
    return EXIT_OK


def _write_table(payload: dict, records: list, output: str) -> int:
    """Print dataclass ``records`` as ``payload``'s JSON ``rows``, or as text: the
    field names, then one line per record."""
    rows = [dataclasses.asdict(r) for r in records]
    write_report({**payload, "rows": rows}, lambda: ["  ".join(rows[0])] + [
        "  ".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values())
        for row in rows], output)
    return EXIT_OK


def _cmd_bench_measure(args, encoded) -> int:
    rows = pipelines.naive_success_bench(encoded, trials=args.trials, master_seed=args.seed)
    return _write_table({"command": "bench-measure", "trials": args.trials}, rows, args.output)


def _cmd_depth(args) -> int:
    if args.max_controls < 1:
        raise CliInputError("--max-controls must be at least 1")
    counts = [mcx_decomposition_count(n) for n in range(1, args.max_controls + 1)]
    return _write_table({"command": "depth"}, counts, args.output)


_MATRIX = {"matrix": "read_matrix"}
_TWO_MATRICES = {"matrix_a": "read_matrix", "matrix_b": "read_matrix"}

# One row per subcommand, in help order: its help text, its positional file
# arguments with the name of the reader in this module that loads each, and
# the name of its pipeline in ``pipelines`` or of a ``_cmd_`` handler here,
# which takes the parsed arguments and the loaded inputs.  The table holds
# names, resolved when a command runs, so a patched attribute is the one called.
_COMMANDS = {
    "rowsum": ("sum a matrix over its columns", {"matrix": "_read_rc"}, "row_sum"),
    "hconj": ("Hermitian conjugate of a matrix", _MATRIX, "_cmd_hconj"),
    "add": ("sum of two matrices", _TWO_MATRICES, "matrix_add"),
    "mul": ("product of two matrices", _TWO_MATRICES, "matrix_mul"),
    "det-phase": ("phase of the determinant", _MATRIX, "determinant_phase"),
    "inverse": ("matrix inverse (up to scale)", _MATRIX, "matrix_inverse"),
    "solve": ("matrix-vector contraction stage",
              {"matrix": "read_matrix", "vector": "read_vector"}, "linear_stage"),
    "inner": ("phase of a bilinear inner product",
              {"psi1": "read_vector", "psi2": "read_vector"}, "inner_product_phase"),
    "bench-measure": ("naive sampling vs deterministic extraction", {"matrix": "_read_rc"},
                      "_cmd_bench_measure"),
    "depth": ("decomposition cost of the zero-controlled flip", {}, "_cmd_depth"),
}


def _run(args) -> int:
    """Load the command's files, then run its handler or its pipeline and report."""
    _help, readers, target = _COMMANDS[args.command]
    inputs = [globals()[reader](getattr(args, arg)) for arg, reader in readers.items()]
    if target.startswith("_cmd_"):
        return globals()[target](args, *inputs)
    report = getattr(pipelines, target)(*inputs, mode=args.mode, seed=args.seed)
    return _report_pipeline(args.command, report, args)


# --- argument parsing -------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--mode", choices=("ideal", "sampled"), default="ideal",
                        help="ideal: deterministic branch extraction; "
                             "sampled: Born-rule flag measurement")
    common.add_argument("--tolerance", type=float, default=1e-10,
                        help="decode residual treated as numerical failure")
    common.add_argument("--output", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="qlasim",
        description="State-vector pipelines for amplitude-encoded matrix algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, readers, _target) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for arg in readers:
            p.add_argument(arg)
    sub.choices["bench-measure"].add_argument("--trials", type=int, default=10000)
    sub.choices["depth"].add_argument("--max-controls", type=int, default=10)
    return parser


def _check_common(args) -> None:
    """Reject a tolerance that disables or inverts the residual check, and a seed
    that :func:`~qlasim.rng.stream` would wrap onto another seed's stream."""
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise CliInputError(f"--tolerance must be finite and non-negative, got {args.tolerance}")
    if not 0 <= args.seed < 1 << 64:
        raise CliInputError(f"--seed must be in [0, 2^64), got {args.seed}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_common(args)
        return _run(args)
    except (SingularMatrixError, NonProductSectorError, PreparationError) as exc:
        print(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:  # CliInputError and the pipelines' shape checks
        print(f"input error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
