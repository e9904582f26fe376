"""The three workloads: ops built from a seed, their oracles, pins and probes.

Each workload is a fixed cycle of entries (one entry = one op kind at one
size).  The cycle is repeated whole until the run's time is up, so every run
does the same mix.  Each cycle is laid out so that the ops around the 50th
and the 90th percentile of its sorted costs are of one size class, which
keeps p50 and p90 off the jump between two classes.

Inputs for an entry come from a variant key ``k``.  In ``gate-pipeline`` the
keys are drawn from the run's seed.  In ``end-stages`` and
``sampled-trials`` every output is pinned by a digest, so the keys are drawn
by the seed from a fixed pool of keys per entry whose digests are recorded
in ``pins.json``.  The sampled-mode seed sweeps use 16 of 64 keys per run, so
the share of draws that succeed (and take the longer decode path) varies
little from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qlasim as q
from qlasim import cli

REL_TOL = 1e-10   # README oracle tolerance, relative to the largest entry
CONJ_TOL = 1e-12  # README tolerance for Hermitian conjugation
TRIALS = 200      # naive_success_bench trials per op
U64_MAX = (1 << 64) - 1
SAMPLE_STREAM = 1 << 32  # substream qlasim draws the sampled-mode outcome from

KNOWN, FIXED, UNEXPECTED = "known-failure", "fixed", "unexpected"


@dataclass
class Op:
    """One timed operation.  ``check`` returns None when the output is right."""

    key: str  # "<entry>/<variant key>"; names the op's pin
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str] | None = None


@dataclass(frozen=True)
class Entry:
    name: str
    build: Callable  # (entry, k, workdir, params) -> Op
    params: tuple
    variants: int = 4  # variant keys used in one run
    pool: int = 16     # pinned keys the variants are drawn from


@dataclass(frozen=True)
class Probe:
    name: str
    today: str  # the behaviour the probe reproduces at the seed
    run: Callable  # (workdir) -> (status, detail)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Entry, ...]
    pinned: bool
    largest_qubits: int    # largest state any op builds (sets machine.copy_gbps size)
    probes: tuple[Probe, ...]


# --- helpers ---------------------------------------------------------------

def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng([int(w) for w in words])


def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


def _cmat(rng: np.random.Generator, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def _data_rng(entry: str, k: int) -> np.random.Generator:
    return _rng(0x51A5, _crc(entry), k)


def _rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _miss(label: str, err: float, tol: float) -> str | None:
    return None if err <= tol else f"{label} misses oracle: relative error {err:.3e} > {tol:.0e}"


def _phase(z: complex) -> complex:
    return z / abs(z)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_matrix(workdir: Path, name: str, matrix) -> str:
    path = workdir / f"{name}.json"
    path.write_text(cli.dumps(cli.matrix_to_filedict(np.atleast_2d(matrix))))
    return str(path)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _file_matrix(d: dict) -> np.ndarray:
    data = np.asarray(d["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(d["rows"], d["cols"])


# --- gate-pipeline ---------------------------------------------------------

def _rowsum_op(entry: str, k: int, workdir: Path, shape) -> Op:
    a = _cmat(_data_rng(entry, k), *shape)

    def check(report):
        if report.outcome != 1:
            return f"outcome {report.outcome}"
        return _miss("row sums", _rel_err(report.result.matrix, a.sum(axis=1)), REL_TOL)

    return Op(f"{entry}/{k}", lambda: q.row_sum(q.encode_rc(a)), check)


def _conj_op(entry: str, k: int, workdir: Path, shape) -> Op:
    a = _cmat(_data_rng(entry, k), *shape)

    def check(decoded):
        return _miss("conjugate transpose", _rel_err(decoded.matrix, a.conj().T), CONJ_TOL)

    return Op(f"{entry}/{k}",
              lambda: q.decode_rcm(q.hermitian_conjugate(q.encode_rcm(a))), check)


# --- end-stages: in-process CLI on JSON files ------------------------------

def _cli_op(entry: str, k: int, workdir: Path, params) -> Op:
    command, shape_a, shape_b, scale = params
    rng = _data_rng(entry, k)
    a = _cmat(rng, *shape_a, scale=scale)
    files = [_write_matrix(workdir, f"{entry}-{k}-a", a)]
    b = None
    if shape_b is not None:
        b = _cmat(rng, *shape_b)
        files.append(_write_matrix(workdir, f"{entry}-{k}-b", b))
    argv = [command, *files, "--seed", str(k), "--output", "json"]

    if command == "add":
        want = a + b
    elif command == "mul":
        want = a @ b
    elif command == "inverse":
        want = np.linalg.inv(a)
    elif command == "solve":
        want = a @ b
    elif command == "det-phase":
        want = _phase(np.linalg.det(a))
    else:  # inner: phase of the non-conjugating product sum_j psi2_j psi1_j
        want = _phase(complex(a.reshape(-1) @ b.reshape(-1)))

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}: {text.strip()[:200]}"
        result = json.loads(text)["result"]
        if isinstance(result, dict):
            return _miss(command, _rel_err(_file_matrix(result), want.reshape(
                result["rows"], result["cols"])), REL_TOL)
        return _miss(command, abs(complex(*result) - want), REL_TOL)

    return Op(f"{entry}/{k}", lambda: _run_cli(argv), check,
              digest=lambda out: _digest(f"{out[0]}\n{out[1]}"))


# --- sampled-trials ---------------------------------------------------------

def _weighted(rng: np.random.Generator, n: int, log2_weight: int) -> np.ndarray:
    """n x n matrix whose row-sum branch weight is about 2^log2_weight.

    All row-sum mass sits in one column; the rest has zero row sums.
    """
    column = np.zeros((n, n), dtype=complex)
    column[:, 0] = _cmat(rng, n, 1)[:, 0]
    column /= np.linalg.norm(column)
    rest = _cmat(rng, n, n)
    rest -= rest.mean(axis=1, keepdims=True)
    rest /= np.linalg.norm(rest)
    alpha = math.sqrt(min(1.0, 2.0 ** log2_weight * n))
    return alpha * column + math.sqrt(1.0 - alpha * alpha) * rest


def _labeled_weight(a: np.ndarray) -> float:
    """Oracle for the row-sum branch weight: |row sums of a/|a||^2 / 2^width(C)."""
    width = max(1, (a.shape[1] - 1).bit_length())
    return float(np.sum(np.abs((a / np.linalg.norm(a)).sum(axis=1)) ** 2)) / 2 ** width


def _bench_op(entry: str, k: int, workdir: Path, params) -> Op:
    n, log2_weight = params
    a = _weighted(_data_rng(entry, k), n, log2_weight)
    weight = _labeled_weight(a)

    def check(rows):
        row = rows[0]
        if row.controlled_success_rate != 1.0:
            return f"controlled extraction failed ({row.controlled_success_rate})"
        return _miss("analytic_p", abs(row.analytic_p - weight) / weight, REL_TOL)

    return Op(f"{entry}/{k}",
              lambda: q.naive_success_bench(q.encode_rc(a), trials=TRIALS, master_seed=k),
              check, digest=lambda rows: _digest(repr(rows[0].empirical_p)))


def _sampled_report_check(weight: float, result_check):
    def check(report):
        if report.outcome not in (0, 1):
            return f"outcome {report.outcome}"
        expected = weight if report.outcome == 1 else 1.0 - weight
        if abs(report.branch_weight - expected) > REL_TOL * max(expected, 1e-300):
            return f"branch weight {report.branch_weight!r}, oracle {expected!r}"
        if report.outcome == 0:
            # A failed draw is a correct result; it must carry no result.
            return None if report.result is None else "outcome 0 with a result"
        return result_check(report.result)
    return check


def _sampled_digest(report) -> str:
    return _digest(f"{report.outcome}|{report.branch_weight!r}")


def _rowsum_sampled_op(entry: str, k: int, workdir: Path, shape) -> Op:
    rng = _data_rng(entry, k)
    # A common offset makes the labeled weight about 1/3, so both outcomes occur.
    a = 1.0 + _cmat(rng, *shape) / math.sqrt(2)
    check = _sampled_report_check(
        _labeled_weight(a),
        lambda result: _miss("row sums", _rel_err(result.matrix, a.sum(axis=1)), REL_TOL))
    return Op(f"{entry}/{k}",
              lambda: q.row_sum(q.encode_rc(a), mode="sampled", seed=k), check,
              digest=_sampled_digest)


def _inverse_sampled_op(entry: str, k: int, workdir: Path, shape) -> Op:
    a = _cmat(_data_rng(entry, k), *shape)
    want = np.linalg.inv(a)
    # matrix_inverse scales |det| * |inv|_F by the even power of two that puts
    # the labeled weight in [1/4, 1).
    magnitude = abs(np.linalg.det(a)) * np.linalg.norm(want)
    weight = magnitude ** 2 / 2.0 ** (2 * (math.floor(math.log2(magnitude)) + 1))
    check = _sampled_report_check(
        weight, lambda result: _miss("inverse", _rel_err(result.matrix, want), REL_TOL))
    return Op(f"{entry}/{k}",
              lambda: q.matrix_inverse(a, mode="sampled", seed=k), check,
              digest=_sampled_digest)


def _det_sampled_op(entry: str, k: int, workdir: Path, n) -> Op:
    rng = _data_rng(entry, k)
    a = _cmat(rng, n, n)
    # Rescale so the labeled weight |det|^2 / 2^(n*n) (the default exponent
    # for a power-of-two n) is uniform in [0.05, 0.95]: both outcomes occur,
    # and the coefficient never exceeds 1.
    target = rng.uniform(0.05, 0.95)
    a *= (math.sqrt(target * 2.0 ** (n * n)) / abs(np.linalg.det(a))) ** (1.0 / n)
    det = np.linalg.det(a)
    weight = abs(det) ** 2 / 2.0 ** (n * n)
    check = _sampled_report_check(
        weight, lambda result: _miss("det phase", abs(result - _phase(det)), REL_TOL))
    return Op(f"{entry}/{k}",
              lambda: q.determinant_phase(a, mode="sampled", seed=k), check,
              digest=_sampled_digest)


# --- probes: ROADMAP item 4 defects, reproduced at the seed ----------------

def _probe_det_phase(make_matrix, label):
    def run(workdir: Path):
        a = make_matrix()
        report = q.determinant_phase(a)
        if report.outcome is None:
            return KNOWN, f"{label}: outcome None (labeled branch reported empty)"
        if report.outcome == 1 and abs(report.result - _phase(np.linalg.det(a))) <= REL_TOL:
            return FIXED, f"{label}: phase matches the oracle"
        return UNEXPECTED, f"{label}: outcome {report.outcome}, result {report.result!r}"
    return run


def _probe_tiny_inverse(workdir: Path):
    a = 1e-14 * np.eye(2)
    try:
        report = q.matrix_inverse(a)
    except q.SingularMatrixError as exc:
        return KNOWN, f"SingularMatrixError: {exc}"
    if report.outcome == 1 and _rel_err(report.result.matrix, np.linalg.inv(a)) <= REL_TOL:
        return FIXED, "inverse matches the oracle"
    return UNEXPECTED, f"outcome {report.outcome}"


def _probe_cli_det_phase_64(workdir: Path):
    a = _cmat(_rng(0x4D, 64), 64, 64)
    path = _write_matrix(workdir, "probe-det-phase-64", a)
    try:
        rc, text = _run_cli(["det-phase", path, "--output", "json"])
    except OverflowError as exc:
        return KNOWN, f"OverflowError escaped cli.main: {exc}"
    if rc == 3:
        return FIXED, "exit code 3 (numerical failure)"
    if rc == 0 and abs(complex(*json.loads(text)["result"]) - _phase(np.linalg.det(a))) <= REL_TOL:
        return FIXED, "exit code 0, phase matches the oracle"
    return UNEXPECTED, f"exit code {rc}: {text.strip()[:200]}"


def _philox_draw(seed: int) -> float:
    """The sampled-mode uniform for ``seed``, keyed without any float cast."""
    key = np.array([seed, SAMPLE_STREAM], dtype=np.uint64)
    return float(np.random.Generator(np.random.Philox(key=key)).random())


def _probe_u64_seed(workdir: Path):
    # A 1x2 row [cos t, sin t] has labeled weight (1 + sin 2t) / 2.  Put it
    # between the two seeds' correct draws so their outcomes must differ.
    p = (_philox_draw(0) + _philox_draw(U64_MAX)) / 2
    t = math.asin(2 * p - 1) / 2
    path = _write_matrix(workdir, "probe-u64-seed", np.array([[math.cos(t), math.sin(t)]]))
    outputs = []
    for seed in (0, U64_MAX):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outputs.append(_run_cli(["rowsum", path, "--mode", "sampled",
                                     "--seed", str(seed), "--output", "json"]))
    if any(rc not in (0, 1) for rc, _ in outputs):
        return UNEXPECTED, f"exit codes {[rc for rc, _ in outputs]}"
    if outputs[0] == outputs[1]:
        return KNOWN, "--seed 18446744073709551615 prints the same JSON as --seed 0"
    return FIXED, "the two seeds print different JSON"


def _random16() -> np.ndarray:
    return _cmat(_rng(0x4B, 16), 16, 16)


PROBE_EYE8 = Probe("4b-det-phase-eye8", "outcome None",
                   _probe_det_phase(lambda: np.eye(8), "determinant_phase(eye(8))"))
PROBE_RANDOM16 = Probe("4b-det-phase-random16", "outcome None",
                       _probe_det_phase(_random16, "determinant_phase(random 16x16)"))
PROBE_TINY_INVERSE = Probe("4c-inverse-1e-14-eye2", "raises SingularMatrixError",
                           _probe_tiny_inverse)
PROBE_CLI_DET64 = Probe("4d-cli-det-phase-64x64", "OverflowError escapes cli.main",
                        _probe_cli_det_phase_64)
PROBE_U64_SEED = Probe("4a-cli-rowsum-seed-u64", "same JSON as --seed 0", _probe_u64_seed)


# --- the workloads ----------------------------------------------------------

GATE_PIPELINE = Workload(
    name="gate-pipeline",
    cycle=(
        Entry("rowsum-256x256", _rowsum_op, (256, 256), 2),
        Entry("conj-1024x1024", _conj_op, (1024, 1024), 2),
        Entry("rowsum-64x64", _rowsum_op, (64, 64), 2),
        Entry("conj-512x512", _conj_op, (512, 512), 2),
        Entry("rowsum-200x300", _rowsum_op, (200, 300), 2),
        Entry("conj-128x128", _conj_op, (128, 128), 2),
        Entry("rowsum-512x512", _rowsum_op, (512, 512), 2),
        Entry("conj-300x500", _conj_op, (300, 500), 2),
        Entry("rowsum-300x200", _rowsum_op, (300, 200), 2),
        Entry("conj-256x256", _conj_op, (256, 256), 2),
        Entry("rowsum-300x500", _rowsum_op, (300, 500), 2),
        Entry("conj-200x300", _conj_op, (200, 300), 2),
        Entry("rowsum-128x128", _rowsum_op, (128, 128), 2),
        Entry("conj-512x512", _conj_op, (512, 512), 2),
        Entry("rowsum-256x512", _rowsum_op, (256, 512), 2),
    ),
    pinned=False,
    largest_qubits=21,  # conj-1024x1024: R10 C10 M
    probes=(PROBE_EYE8, PROBE_RANDOM16),
)

END_STAGES = Workload(
    name="end-stages",
    cycle=(
        Entry("add-8x8", _cli_op, ("add", (8, 8), (8, 8), 1.0)),
        Entry("inverse-64x64", _cli_op, ("inverse", (64, 64), None, 1.0)),
        Entry("det-phase-4x4", _cli_op, ("det-phase", (4, 4), None, 1.0)),
        Entry("add-16x16", _cli_op, ("add", (16, 16), (16, 16), 1.0)),
        Entry("inner-128", _cli_op, ("inner", (128, 1), (128, 1), 1.0)),
        Entry("mul-8x8", _cli_op, ("mul", (8, 8), (8, 8), 1.0)),
        Entry("solve-64x64", _cli_op, ("solve", (64, 64), (64, 1), 1.0)),
        Entry("inner-64", _cli_op, ("inner", (64, 1), (64, 1), 1.0)),
        Entry("inner-256", _cli_op, ("inner", (256, 1), (256, 1), 1.0)),
        Entry("solve-32x32", _cli_op, ("solve", (32, 32), (32, 1), 1.0)),
        # Entries scaled by 2 keep |det| of a random 8x8 above the absolute
        # empty-branch bound; the 4b probes show what happens below it.
        Entry("det-phase-8x8", _cli_op, ("det-phase", (8, 8), None, 2.0)),
        Entry("add-16x12", _cli_op, ("add", (16, 12), (16, 12), 1.0)),
        Entry("inverse-32x32", _cli_op, ("inverse", (32, 32), None, 1.0)),
        Entry("mul-16x16", _cli_op, ("mul", (16, 16), (16, 16), 1.0)),
        Entry("inner-100", _cli_op, ("inner", (100, 1), (100, 1), 1.0)),
    ),
    pinned=True,
    largest_qubits=21,  # add-16x16 and solve-64x64 with the flag qubit
    probes=(PROBE_EYE8, PROBE_RANDOM16, PROBE_TINY_INVERSE, PROBE_CLI_DET64, PROBE_U64_SEED),
)

_DET_SAMPLED = Entry("det-phase-sampled-4x4", _det_sampled_op, 4, 16, 64)
_INV_SAMPLED = Entry("inverse-sampled-16x16", _inverse_sampled_op, (16, 16), 16, 64)
_ROWSUM_SAMPLED = Entry("rowsum-sampled-64x64", _rowsum_sampled_op, (64, 64), 16, 64)

SAMPLED_TRIALS = Workload(
    name="sampled-trials",
    cycle=(
        Entry("bench-measure-16x16-w4", _bench_op, (16, -4)),
        _DET_SAMPLED,
        Entry("bench-measure-64x64-w6", _bench_op, (64, -6)),
        _INV_SAMPLED,
        Entry("bench-measure-16x16-w8", _bench_op, (16, -8)),
        _ROWSUM_SAMPLED,
        Entry("bench-measure-64x64-w12", _bench_op, (64, -12)),
        _DET_SAMPLED,
        _INV_SAMPLED,
        _ROWSUM_SAMPLED,
    ),
    pinned=True,
    largest_qubits=14,  # 64x64 row sums: R6 C6 label flag
    probes=(PROBE_U64_SEED, PROBE_EYE8, PROBE_RANDOM16, PROBE_TINY_INVERSE),
)

WORKLOADS = {w.name: w for w in (GATE_PIPELINE, END_STAGES, SAMPLED_TRIALS)}


def entries(workload: Workload) -> list[Entry]:
    """Distinct entries in cycle order."""
    seen: dict[str, Entry] = {}
    for entry in workload.cycle:
        seen.setdefault(entry.name, entry)
    return list(seen.values())


class Plan:
    """The concrete ops of one run: ``entry.variants`` inputs per entry, from the seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.ops: dict[str, list[Op]] = {}
        for entry in entries(workload):
            keys = self.variant_keys(workload, seed, entry)
            self.ops[entry.name] = [entry.build(entry.name, k, workdir, entry.params)
                                    for k in keys]
        self._used: dict[str, int] = {}

    @staticmethod
    def variant_keys(workload: Workload, seed: int, entry: Entry) -> list[int]:
        rng = _rng(seed, _crc(entry.name))
        if workload.pinned:
            return [int(k) for k in rng.choice(entry.pool, size=entry.variants, replace=False)]
        return [int(k) for k in rng.integers(0, 1 << 32, size=entry.variants)]

    def next_cycle(self) -> list[Op]:
        """The next pass over the cycle; repeated entries take successive variants."""
        out = []
        for entry in self.workload.cycle:
            used = self._used.get(entry.name, 0)
            variants = self.ops[entry.name]
            out.append(variants[used % len(variants)])
            self._used[entry.name] = used + 1
        return out
