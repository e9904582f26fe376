import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from qlasim import cli, pipelines
from qlasim.cli import dumps, main, matrix_to_filedict, read_matrix


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(dumps(matrix_to_filedict(np.asarray(matrix))))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_read_matrix_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(50)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = _write(tmp_path, "a.json", a)
    first = read_matrix(path)
    np.testing.assert_array_equal(first, a)
    text_once = dumps(matrix_to_filedict(first))
    text_twice = dumps(matrix_to_filedict(read_matrix(path)))
    assert text_once == text_twice == (tmp_path / "a.json").read_text()


def test_read_matrix_parses_complex_pairs(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows":1,"cols":1,"data":[[1,2]]}')
    np.testing.assert_array_equal(read_matrix(str(path)), [[1 + 2j]])


def test_read_matrix_length_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows":2,"cols":2,"data":[[1,0]]}')
    code, out = _run(capsys, ["rowsum", str(path)])
    assert code == 2
    assert "input error" in out


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = _run(capsys, ["rowsum", str(path)])
    assert code == 2


def test_nonfinite_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"rows":1,"cols":1,"data":[[1e999,0]]}')
    code, _ = _run(capsys, ["rowsum", str(path)])
    assert code == 2


@pytest.mark.parametrize("shape", ['"rows":true,"cols":1', '"rows":1,"cols":true'],
                         ids=["rows", "cols"])
def test_boolean_rows_or_cols_exits_2(tmp_path, capsys, shape):
    path = tmp_path / "bool.json"
    path.write_text('{%s,"data":[[1,0]]}' % shape)
    code, out = _run(capsys, ["rowsum", str(path)])
    assert code == 2
    assert "rows and cols must be positive integers" in out


@pytest.mark.parametrize("data, bad", [
    ("[[true,false],[false,true]]", 0),
    ("[[true,false],[1,0]]", 0),
    ("[[1,0],[0.5,true]]", 1),
    ("[[1,0],[false,2.5]]", 1),
], ids=["all-bool", "bool-then-number", "number-then-bool", "bool-in-float-pair"])
@pytest.mark.parametrize("command", ["rowsum", "hconj"])
def test_boolean_entries_exit_2(tmp_path, capsys, data, bad, command):
    # np.array would read true and false as 1 and 0, alone or mixed with numbers.
    path = tmp_path / "bool.json"
    path.write_text('{"rows":1,"cols":2,"data":%s}' % data)
    code, out = _run(capsys, [command, str(path)])
    assert code == 2
    assert f"entry {bad} is not an [re, im] pair" in out


def test_true_outside_data_reads_the_same_numbers(tmp_path):
    # "true" anywhere in the text sends the file entry by entry, with the
    # casts of the array path: integers past 2^53, -0.0 and subnormals too.
    data = "[[1,2],[0.1,-3],[%d,-0.0],[5e-324,%d]]" % (2**60 + 1, 2**64 - 1)
    plain, noted = tmp_path / "plain.json", tmp_path / "noted.json"
    plain.write_text('{"rows":2,"cols":2,"data":%s}' % data)
    noted.write_text('{"note":"true, not false","rows":2,"cols":2,"data":%s}' % data)
    assert read_matrix(str(noted)).tobytes() == read_matrix(str(plain)).tobytes()


@pytest.mark.parametrize("data", ["null", "5", '"ab"'])
def test_data_that_is_not_a_list_exits_2(tmp_path, capsys, data):
    path = tmp_path / "data.json"
    path.write_text('{"rows":1,"cols":1,"data":%s}' % data)
    code, out = _run(capsys, ["rowsum", str(path)])
    assert code == 2
    assert "data must be a list of [re, im] pairs" in out


@pytest.mark.parametrize("entry", ["[1%s,0]" % ("0" * 400), "[0,-1%s]" % ("0" * 400)],
                         ids=["re", "im"])
def test_integer_beyond_float64_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "huge.json"
    path.write_text('{"rows":1,"cols":1,"data":[%s]}' % entry)
    code, out = _run(capsys, ["rowsum", str(path)])
    assert code == 2
    assert "entries must be finite" in out


def test_integer_within_float64_keeps_its_bits(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text('{"rows":1,"cols":2,"data":[[%d,%d],[%d,0]]}' % (2**70, -(3**45), 2**64 + 1))
    np.testing.assert_array_equal(read_matrix(str(path)),
                                  [[complex(2**70, -(3**45)), complex(2**64 + 1, 0)]])


def test_hconj_imaginary_scalar_json(tmp_path, capsys):
    path = _write(tmp_path, "i.json", [[1j]])
    code, out = _run(capsys, ["hconj", path, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"rows": 1, "cols": 1, "data": [[0, -1]]}


def test_add_opposite_matrices_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(51)
    a = rng.standard_normal((2, 2))
    pa = _write(tmp_path, "a.json", a)
    pn = _write(tmp_path, "na.json", -a)
    code, out = _run(capsys, ["add", pa, pn])
    assert code == 1
    assert "labeled branch empty; state unchanged" in out


def test_add_of_a_64x64_matrix_and_its_negation_exits_1(tmp_path, capsys):
    # The not-measured state, 2^29 amplitudes with the flag, is never built.
    a = np.random.default_rng(52).standard_normal((64, 64))
    pa, pn = _write(tmp_path, "a.json", a), _write(tmp_path, "na.json", -a)
    code, out = _run(capsys, ["add", pa, pn, "--output", "json"])
    assert code == 1
    assert '"outcome":"not-measured"' in out


def test_hconj_of_a_1x65536_row_exits_0(tmp_path, capsys):
    # Conjugated unpadded, the encoding holds 2^18 amplitudes, not 2^33.
    path = _write(tmp_path, "row.json", np.arange(1.0, 65537.0).reshape(1, -1))
    code, out = _run(capsys, ["hconj", path, "--output", "json"])
    assert code == 0
    assert '"rows":65536,"cols":1' in out


def test_degenerate_inputs_exit_1(tmp_path, capsys):
    nil = _write(tmp_path, "nil.json", [[0.0, 1.0], [0.0, 0.0]])
    assert _run(capsys, ["mul", nil, nil])[0] == 1

    a = _write(tmp_path, "rows.json", [[1.0, 0.0], [1.0, 0.0]])
    b = _write(tmp_path, "b.json", [[0.0], [1.0]])
    assert _run(capsys, ["solve", a, b])[0] == 1

    cancel = _write(tmp_path, "c.json", [[1 / np.sqrt(2), -1 / np.sqrt(2)], [0.0, 0.0]])
    assert _run(capsys, ["rowsum", cancel])[0] == 1


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf", "-0.5e-10"])
def test_nonfinite_or_negative_tolerance_exits_2(tmp_path, capsys, tolerance):
    # nan switched the residual check off (exit 0) and -1 failed every decode (exit 3).
    path = _write(tmp_path, "a.json", [[2.0, 0.0], [0.5, 3.0]])
    code, out = _run(capsys, ["inverse", path, f"--tolerance={tolerance}"])
    assert code == 2
    assert "input error" in out and "--tolerance" in out


@pytest.mark.parametrize("tolerance", ["0", "1e-10", "1e300"])
def test_finite_nonnegative_tolerance_is_accepted(tmp_path, capsys, tolerance):
    path = _write(tmp_path, "a.json", [[2.0, 0.0], [0.5, 3.0]])
    assert _run(capsys, ["inverse", path, "--tolerance", tolerance])[0] == 0


def test_residual_over_tolerance_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "a.json", [[2.0, 1j], [0.5, 3.0 - 1j]])
    code, out = _run(capsys, ["inverse", path, "--tolerance", "0", "--output", "json"])
    assert code == 3
    assert json.loads(out)["error"] == "decode residual 2.220e-16 over tolerance"


def test_missing_file_exits_2(tmp_path, capsys):
    code, out = _run(capsys, ["inverse", str(tmp_path / "missing.json")])
    assert code == 2
    assert out.startswith("input error: cannot read")


def test_inner_on_a_matrix_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "a.json", [[1.0, 2.0], [3.0, 4.0]])
    code, out = _run(capsys, ["inner", path, path])
    assert code == 2
    assert "expected a vector" in out


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64)])
def test_seed_outside_u64_exits_2(tmp_path, capsys, seed):
    # -1 used to wrap to 2^64 - 1, and 2^64 to 0, each sharing that seed's stream.
    path = _write(tmp_path, "a.json", [[1.0, 2.0], [3.0, 4.0]])
    for argv in (["bench-measure", path, "--trials", "50"], ["rowsum", path, "--mode", "sampled"]):
        code, out = _run(capsys, [*argv, f"--seed={seed}"])
        assert code == 2
        assert "input error" in out and "--seed" in out


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_seed_inside_u64_is_accepted(tmp_path, capsys, seed):
    path = _write(tmp_path, "a.json", [[1.0, 2.0], [3.0, 4.0]])
    assert _run(capsys, ["bench-measure", path, "--trials", "50", f"--seed={seed}"])[0] == 0


def test_singular_inverse_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "sing.json", [[1.0, 2.0], [2.0, 4.0]])
    code, out = _run(capsys, ["inverse", path])
    assert code == 3
    assert "numerical failure" in out


def test_det_phase_unrepresentable_scale_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(55)
    path = _write(tmp_path, "big.json", rng.standard_normal((64, 64)))
    code, out = _run(capsys, ["det-phase", path])
    assert code == 3
    assert "numerical failure" in out


def test_underflowing_determinant_exits_3(tmp_path, capsys):
    # Condition number 1, but the pivot product 1e-360 is below float64's range.
    path = _write(tmp_path, "tiny.json", 1e-90 * np.eye(4))
    for command in ("inverse", "det-phase"):
        code, out = _run(capsys, [command, path])
        assert code == 3
        assert "underflow" in out


@pytest.mark.parametrize("matrix", [1e80 * np.eye(4), 1e200 * (1 + 1j) * np.eye(2)])
def test_overflowing_determinant_exits_3(tmp_path, capsys, matrix):
    # The second matrix exited 2 with "state is not normalized: nan" from det-phase.
    path = _write(tmp_path, "huge.json", matrix)
    for command in ("inverse", "det-phase"):
        code, out = _run(capsys, [command, path])
        assert (code, out) == (3, "numerical failure: determinant overflows float64: "
                                  f"{len(matrix)} nonsingular pivots\n")


def test_rowsum_past_float64_exits_3(tmp_path, capsys):
    # The row sum 2e308 overflows; this exited 0 printing "data":[[inf,nan]].
    path = _write(tmp_path, "huge.json", [[1e308, 1e308]])
    code, out = _run(capsys, ["rowsum", path, "--output", "json"])
    assert code == 3
    assert "numerical failure" in out
    assert "inf" not in out and "nan" not in out


def test_add_near_1e300_exits_0(tmp_path, capsys):
    # The squared norms overflowed: "labeled branch empty" (exit 1).
    path = _write(tmp_path, "big.json", [[1e300, 1e300]])
    code, out = _run(capsys, ["add", path, path, "--output", "json"])
    assert code == 0
    data = np.array(json.loads(out)["result"]["data"])
    np.testing.assert_allclose(data, [[2e300, 0.0], [2e300, 0.0]], rtol=1e-12)


def test_mul_past_float64_exits_3(tmp_path, capsys):
    # The product 1e400 overflows; this was "labeled branch empty" (exit 1).
    path = _write(tmp_path, "big.json", [[1e200]])
    code, out = _run(capsys, ["mul", path, path])
    assert code == 3
    assert "numerical failure" in out


def test_mul_with_input_norms_past_float64_exits_0(tmp_path, capsys):
    # The input norms multiply to 1e320, but the product 1e300 fits (this exited 3).
    row = _write(tmp_path, "row.json", [[1e160, 0.0]])
    col = _write(tmp_path, "col.json", [[1e140], [1e160]])
    code, out = _run(capsys, ["mul", row, col, "--output", "json"])
    assert code == 0
    assert json.loads(out)["result"]["data"] == [[1e300, 0.0]]


def test_subnormal_labeled_weight_exits_3(tmp_path, capsys):
    # Well-formed files whose labeled weight, 1.25e-321, is too coarse to
    # renormalize: this was "input error: state is not normalized" (exit 2).
    psi1 = _write(tmp_path, "psi1.json", [[1.0, 0.0]])
    psi2 = _write(tmp_path, "psi2.json", [[1e-160, 1.0]])
    row = _write(tmp_path, "row.json", [[1e160, 0.0]])
    col = _write(tmp_path, "col.json", [[1.0], [1e160]])
    for argv in (["inner", psi1, psi2], ["mul", row, col]):
        code, out = _run(capsys, argv)
        assert code == 3
        assert out.startswith("numerical failure") and "underflow" in out


def test_hconj_norm_past_float64_exits_3(tmp_path, capsys):
    # A well-formed file whose Frobenius norm, 2.4e308, float64 cannot hold
    # (this was "input error", exit 2).
    path = _write(tmp_path, "edge.json", [[1.7e308, 1.7e308]])
    code, out = _run(capsys, ["hconj", path])
    assert code == 3
    assert "numerical failure" in out


def test_mul_64x64_exits_0(tmp_path, capsys):
    # 28 qubits with the flag: a dense post-state would need 4 GiB.
    rng = np.random.default_rng(64)
    a = _write(tmp_path, "a.json", rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    b = _write(tmp_path, "b.json", rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    code, out = _run(capsys, ["mul", a, b, "--output", "json"])
    assert code == 0
    assert json.loads(out)["outcome"] == 1


def test_rowsum_success_json_fields(tmp_path, capsys):
    path = _write(tmp_path, "m.json", [[1.0, 2.0], [3.0, 4.0]])
    code, out = _run(capsys, ["rowsum", path, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == 1
    assert set(payload) >= {"branch_weight", "recovered_norm", "gate_depth", "result"}
    data = payload["result"]
    assert (data["rows"], data["cols"]) == (2, 1)
    got = [complex(re, im) for re, im in data["data"]]
    np.testing.assert_allclose(got, [3.0, 7.0], atol=1e-9)


def test_det_phase_and_inner_json(tmp_path, capsys):
    path = _write(tmp_path, "d.json", np.diag([1j, 1.0]))
    code, out = _run(capsys, ["det-phase", path, "--output", "json"])
    assert code == 0
    re, im = json.loads(out)["result"]
    assert complex(re, im) == pytest.approx(1j, abs=1e-12)

    p1 = _write(tmp_path, "p1.json", np.array([[1.0, 0.0]]))
    p2 = _write(tmp_path, "p2.json", np.array([[1j, 0.0]]))
    code, out = _run(capsys, ["inner", p1, p2, "--output", "json"])
    assert code == 0
    re, im = json.loads(out)["result"]
    assert complex(re, im) == pytest.approx(1j, abs=1e-12)


def test_json_output_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(52)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = _write(tmp_path, "a.json", a)
    argv = ["rowsum", path, "--seed", "3", "--output", "json"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_bench_measure_single_column(tmp_path, capsys):
    column = np.zeros((8, 8))
    column[:, 0] = np.full(8, np.sqrt(1 / 8))
    path = _write(tmp_path, "col.json", column)
    code, out = _run(capsys, ["bench-measure", path, "--trials", "10000",
                              "--seed", "0", "--output", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["n_r"] == 3
    assert row["analytic_p"] == pytest.approx(0.125, abs=1e-12)
    sigma = np.sqrt(0.125 * 0.875 / 10000)
    assert abs(row["empirical_p"] - 0.125) <= 3 * sigma
    assert row["controlled_success_rate"] == 1.0


def test_sampled_mode_fails_at_complementary_rate(tmp_path, capsys):
    column = np.zeros((4, 8))
    column[:, 1] = [0.5, 0.5, 0.5, 0.5]
    path = _write(tmp_path, "col.json", column)
    failures = 0
    runs = 60
    for seed in range(runs):
        code, _ = _run(capsys, ["rowsum", path, "--mode", "sampled",
                                "--seed", str(seed)])
        failures += 1 if code == 1 else 0
    sigma = np.sqrt((7 / 8) * (1 / 8) / runs)
    assert abs(failures / runs - 7 / 8) <= 4 * sigma

    for seed in range(5):
        assert _run(capsys, ["rowsum", path, "--seed", str(seed)])[0] == 0


def test_depth_table(capsys):
    code, out = _run(capsys, ["depth", "--max-controls", "6", "--output", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["depth"] for r in rows] == [3, 5, 9, 13, 17, 21]
    assert out == (
        '{"command":"depth","rows":['
        '{"n_controls":1,"single_qubit_gates":3,"toffoli_gates":0,"depth":3},'
        '{"n_controls":2,"single_qubit_gates":4,"toffoli_gates":1,"depth":5},'
        '{"n_controls":3,"single_qubit_gates":6,"toffoli_gates":3,"depth":9},'
        '{"n_controls":4,"single_qubit_gates":8,"toffoli_gates":5,"depth":13},'
        '{"n_controls":5,"single_qubit_gates":10,"toffoli_gates":7,"depth":17},'
        '{"n_controls":6,"single_qubit_gates":12,"toffoli_gates":9,"depth":21}]}\n')
    assert _run(capsys, ["depth", "--max-controls", "6"]) == (0, (
        "n_controls  single_qubit_gates  toffoli_gates  depth\n"
        "1  3  0  3\n2  4  1  5\n3  6  3  9\n4  8  5  13\n5  10  7  17\n6  12  9  21\n"))


# --- one parser per process ------------------------------------------------------

def _call(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_reuses_its_parser_with_the_same_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    a = _write(tmp_path, "a.json", [[2.0, 0.0], [0.5, 3.0]])
    v = _write(tmp_path, "v.json", [[1.0, 2.0]])
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows":true,"cols":1,"data":[[1,0]]}')
    calls = [
        (["add", a, a, "--output", "json"], 0),
        (["inverse", str(bad)], 2),  # an input error in main
        (["solve", a, v, "--mode", "sampled", "--seed", "7"], 1),  # a failed draw
        (["add", a], 2),  # argparse: a missing operand
        (["--help"], 0),
        (["mul", "--help"], 0),
        (["hconj", a, "--output", "json"], 0),
        (["depth", "--max-controls", "0"], 2),
        (["bench-measure", a, "--trials", "20"], 0),
        ([], 2),  # argparse: no subcommand
        (["rowsum", a, "--seed", "3", "--output", "json"], 0),
        (["inner", v, v], 0),
        (["det-phase", a, "--tolerance", "nan"], 2),
    ]
    first = {}
    for order in (calls, calls[::-1], calls):
        for argv, code in order:
            got = _call(capsys, argv)
            assert got[0] == code, argv
            assert got == first.setdefault(tuple(argv), got), argv
    assert cli._build_parser() is cli._build_parser()


def test_main_resolves_pipeline_and_reader_on_each_call(tmp_path, capsys, monkeypatch):
    # Spans installed by swapping module attributes must see every call,
    # also after the parser was built.
    a = _write(tmp_path, "a.json", [[2.0, 0.0], [0.5, 3.0]])
    assert main(["add", a, a]) == 0
    capsys.readouterr()
    seen = []
    matrix_add, read = pipelines.matrix_add, cli.read_matrix
    monkeypatch.setattr(pipelines, "matrix_add",
                        lambda *args, **kwargs: seen.append("add") or matrix_add(*args, **kwargs))
    monkeypatch.setattr(cli, "read_matrix", lambda path: seen.append(path) or read(path))
    assert main(["add", a, a]) == 0
    assert seen == [a, a, "add"]


def test_dumps_17_significant_digits():
    x = 1 / 3
    assert dumps(x) == format(x, ".17g")
    assert float(dumps(x)) == x


GOLDEN_MATRICES = {
    "real_zeros": [[1.0, 0.0, -2.0], [0.0, 0.0, 0.0], [3.0, 0.5, 0.0]],
    "complex_2x3": [[1 + 2j, 0.0, -0.5j], [0.25, 3 - 1j, 1j]],
    "neg_eye3": -np.eye(3),
    "single_column_4x8": np.pad([[0.5], [-0.5], [0.5], [0.5]], ((0, 0), (0, 7))),
}

# Exact --output json bytes; the state kernels may change, these may not.
GOLDEN_JSON = {
    ("rowsum", "real_zeros"):
        '{"command":"rowsum","outcome":1,"branch_weight":0.23245614035087717,'
        '"recovered_norm":0.96427411113412598,"gate_depth":8,"result":{"rows":3,"cols":1,'
        '"data":[[-1,0],[0,0],[3.5,0]]},"residual":0}\n',
    ("hconj", "real_zeros"):
        '{"command":"hconj","outcome":1,"result":{"rows":3,"cols":3,"data":[[1,0],[0,0],'
        '[3,0],[0,0],[0,0],[0.5,0],[-2,0],[0,0],[0,0]]},"residual":0}\n',
    ("rowsum", "complex_2x3"):
        '{"command":"rowsum","outcome":1,"branch_weight":0.21168582375478925,'
        '"recovered_norm":0.92018655446553721,"gate_depth":8,"result":{"rows":2,"cols":1,'
        '"data":[[0.99999999999999989,1.5],[3.2500000000000004,-4.4700886148098244e-17]]},'
        '"residual":4.4408920985006262e-16}\n',
    ("hconj", "complex_2x3"):
        '{"command":"hconj","outcome":1,"result":{"rows":3,"cols":2,"data":[[1,-2],[0.25,0],'
        '[0,0],[3,1],[0,0.5],[0,-1]]},"residual":0}\n',
    ("rowsum", "neg_eye3"):
        '{"command":"rowsum","outcome":1,"branch_weight":0.25,"recovered_norm":1,'
        '"gate_depth":8,"result":{"rows":3,"cols":1,"data":[[-1,0],[-1,0],[-1,0]]},'
        '"residual":0}\n',
    ("hconj", "neg_eye3"):
        '{"command":"hconj","outcome":1,"result":{"rows":3,"cols":3,"data":[[-1,0],[0,0],'
        '[0,0],[0,0],[-1,0],[0,0],[0,0],[0,0],[-1,0]]},"residual":0}\n',
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_JSON))
def test_json_output_is_pinned(tmp_path, capsys, command, name):
    path = _write(tmp_path, f"{name}.json", GOLDEN_MATRICES[name])
    code, out = _run(capsys, [command, path, "--output", "json"])
    assert code == 0
    assert out == GOLDEN_JSON[command, name]


def _bench_measure_json(n_r, analytic_p, empirical_p, trials):
    return ('{"command":"bench-measure","trials":%d,"rows":[{"n_r":%d,"analytic_p":%s,'
            '"empirical_p":%s,"controlled_success_rate":1}]}\n'
            % (trials, n_r, analytic_p, empirical_p))


# Exact bench-measure --output json bytes; how the trials are drawn may change,
# which trials hit may not.
GOLDEN_BENCH_MEASURE = {
    ("real_zeros", 10000, 0):
        _bench_measure_json(2, "0.23245614035087722", "0.22670000000000001", 10000),
    ("complex_2x3", 200, 7):
        _bench_measure_json(2, "0.21168582375478934", "0.13500000000000001", 200),
    ("neg_eye3", 1, 2**64 - 1):
        _bench_measure_json(2, "0.25000000000000006", "1", 1),
    ("single_column_4x8", 10000, 3):
        _bench_measure_json(3, "0.125", "0.12670000000000001", 10000),
    ("single_column_4x8", 333, 12345):
        _bench_measure_json(3, "0.125", "0.13813813813813813", 333),
}


def test_bench_measure_text_is_pinned(tmp_path, capsys):
    # The text form of the last GOLDEN_BENCH_MEASURE case.
    path = _write(tmp_path, "single_column_4x8.json", GOLDEN_MATRICES["single_column_4x8"])
    assert _run(capsys, ["bench-measure", path, "--trials", "333", "--seed", "12345"]) == (0, (
        "n_r  analytic_p  empirical_p  controlled_success_rate\n"
        "3  0.125  0.13813813813813813  1\n"))


@pytest.mark.parametrize("name, trials, seed", sorted(GOLDEN_BENCH_MEASURE))
def test_bench_measure_output_is_pinned(tmp_path, capsys, name, trials, seed):
    path = _write(tmp_path, f"{name}.json", GOLDEN_MATRICES[name])
    code, out = _run(capsys, ["bench-measure", path, "--trials", str(trials),
                              "--seed", str(seed), "--output", "json"])
    assert code == 0
    assert out == GOLDEN_BENCH_MEASURE[name, trials, seed]


DEMO_02_OUTPUT = """\
single-column inputs, 4000 sampled trials per size

n_C  analytic p  empirical p  deterministic success
  1    0.500000     0.517000                   100%
  2    0.250000     0.252250                   100%
  3    0.125000     0.126000                   100%
  4    0.062500     0.065500                   100%
  5    0.031250     0.034000                   100%
  6    0.015625     0.018750                   100%

log2(analytic p) drops by -1.000 per extra summed qubit
naive sampling decays exponentially; the deterministic extraction succeeded in every run above
"""


def test_demo_02_output_is_pinned(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "02_measurement_success_scaling.py"
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == DEMO_02_OUTPUT


END_STAGE_MATRICES = {
    "add_a": [[1 + 2j, 0.5], [-1, 3j], [0.25, -2]],
    "add_b": [[0.25, -1j], [2, 1], [0.5j, 0.75]],
    "neg_add_a": [[-1 - 2j, -0.5], [1, -3j], [-0.25, 2]],
    "mul_a": [[1 + 1j, 0.5], [-1, 2j], [0.25, 1]],
    "mul_b": [[0.5, -1j, 2], [1, 0.25, -0.5j]],
    "nil": [[0.0, 1.0], [0.0, 0.0]],
    "inv_a": [[2, 1j, 0], [0.5, 3, -1], [0, 1 - 1j, 1.5]],
    "solve_a": [[1, 2j, -0.5], [0.25, 1, 1j], [2, 0, 1 - 1j]],
    "solve_b": [[1], [-1j], [0.5]],
    "rows": [[1.0, 0.0], [1.0, 0.0]],
    "e2": [[0.0], [1.0]],
    "det_a": [[1 + 1j, 0.5], [0.5j, -1]],
    "psi1": [[1, 1j, -0.5]],
    "psi2": [[0.3, 2, 1 - 1j]],
}

END_STAGE_INPUTS = {
    ("add", "not-measured"): ("add_a", "neg_add_a"),
    ("mul", "not-measured"): ("nil", "nil"),
    ("solve", "not-measured"): ("rows", "e2"),
    "add": ("add_a", "add_b"),
    "mul": ("mul_a", "mul_b"),
    "inverse": ("inv_a",),
    "solve": ("solve_a", "solve_b"),
    "det-phase": ("det_a",),
    "inner": ("psi1", "psi2"),
}

# Exact (exit code, --output json bytes) of the closed-form end stages: ideal
# success, a sampled seed drawing outcome 0 and one drawing outcome 1, and
# inputs that leave no labeled branch.  How the stages build their states may
# change; these may not.
GOLDEN_END_STAGES = {
    ("add", "ideal", 0): (0, (
        '{"command":"add","outcome":1,"branch_weight":0.18794749403341288,"recovered_no'
        'rm":0.86705823110887514,"gate_depth":1,"result":{"rows":3,"cols":2,"data":[[1.'
        '2500000000000002,2.0000000000000004],[0.50000000000000011,-1.0000000000000002]'
        ',[1.0000000000000002,0],[1.0000000000000002,3],[0.25000000000000006,0.50000000'
        '000000011],[-1.2500000000000002,0]]},"residual":4.4408920985006262e-16}'
        '\n')),
    ("add", "sampled", 0): (1, (
        '{"command":"add","outcome":0,"branch_weight":0.81205250596658707,"recovered_no'
        'rm":null,"gate_depth":1,"result":null,"message":"sampled measurement failed (o'
        'utcome 0)"}'
        '\n')),
    ("add", "sampled", 3): (0, (
        '{"command":"add","outcome":1,"branch_weight":0.18794749403341288,"recovered_no'
        'rm":0.86705823110887514,"gate_depth":1,"result":{"rows":3,"cols":2,"data":[[1.'
        '2500000000000002,2.0000000000000004],[0.50000000000000011,-1.0000000000000002]'
        ',[1.0000000000000002,0],[1.0000000000000002,3],[0.25000000000000006,0.50000000'
        '000000011],[-1.2500000000000002,0]]},"residual":4.4408920985006262e-16}'
        '\n')),
    ("mul", "ideal", 0): (0, (
        '{"command":"mul","outcome":1,"branch_weight":0.045757250268528477,"recovered_n'
        'orm":0.60502727388790323,"gate_depth":1,"result":{"rows":3,"cols":3,"data":[[1'
        '.0000000000000002,0.50000000000000011],[1.1250000000000002,-1.0000000000000002'
        '],[2.0000000000000004,1.7500000000000002],[-0.50000000000000011,2.000000000000'
        '0004],[0,1.5000000000000002],[-1.0000000000000002,0],[1.125,0],[0.250000000000'
        '00006,-0.25000000000000006],[0.50000000000000011,-0.50000000000000011]]},"resi'
        'dual":1.1102230246251565e-16}'
        '\n')),
    ("mul", "sampled", 0): (1, (
        '{"command":"mul","outcome":0,"branch_weight":0.9542427497314715,"recovered_nor'
        'm":null,"gate_depth":1,"result":null,"message":"sampled measurement failed (ou'
        'tcome 0)"}'
        '\n')),
    ("mul", "sampled", 73): (0, (
        '{"command":"mul","outcome":1,"branch_weight":0.045757250268528477,"recovered_n'
        'orm":0.60502727388790323,"gate_depth":1,"result":{"rows":3,"cols":3,"data":[[1'
        '.0000000000000002,0.50000000000000011],[1.1250000000000002,-1.0000000000000002'
        '],[2.0000000000000004,1.7500000000000002],[-0.50000000000000011,2.000000000000'
        '0004],[0,1.5000000000000002],[-1.0000000000000002,0],[1.125,0],[0.250000000000'
        '00006,-0.25000000000000006],[0.50000000000000011,-0.50000000000000011]]},"resi'
        'dual":1.1102230246251565e-16}'
        '\n')),
    ("inverse", "ideal", 0): (0, (
        '{"command":"inverse","outcome":1,"branch_weight":0.362548828125,"recovered_nor'
        'm":0.84966177605553106,"gate_depth":1,"result":{"rows":3,"cols":3,"data":[[0.4'
        '9197860962566842,0.032085561497326213],[0.0320855614973262,-0.1283422459893048'
        '3],[0.021390374331550801,-0.085561497326203204],[-0.064171122994652413,-0.0160'
        '427807486631],[0.25668449197860965,0.064171122994652399],[0.17112299465240641,'
        '0.042780748663101602],[0.053475935828876997,-0.0320855614973262],[-0.213903743'
        '31550799,0.1283422459893048],[0.52406417112299464,0.085561497326203217]]},"res'
        'idual":0}'
        '\n')),
    ("inverse", "sampled", 0): (1, (
        '{"command":"inverse","outcome":0,"branch_weight":0.637451171875,"recovered_nor'
        'm":null,"gate_depth":1,"result":null,"message":"sampled measurement failed (ou'
        'tcome 0)"}'
        '\n')),
    ("inverse", "sampled", 1): (0, (
        '{"command":"inverse","outcome":1,"branch_weight":0.36254882812499994,"recovere'
        'd_norm":0.84966177605553106,"gate_depth":1,"result":{"rows":3,"cols":3,"data":'
        '[[0.49197860962566842,0.032085561497326213],[0.0320855614973262,-0.12834224598'
        '930483],[0.021390374331550801,-0.085561497326203204],[-0.064171122994652413,-0'
        '.0160427807486631],[0.25668449197860965,0.064171122994652399],[0.1711229946524'
        '0641,0.042780748663101602],[0.053475935828876997,-0.0320855614973262],[-0.2139'
        '0374331550799,0.1283422459893048],[0.52406417112299464,0.085561497326203217]]}'
        ',"residual":0}'
        '\n')),
    ("solve", "ideal", 0): (0, (
        '{"command":"solve","outcome":1,"branch_weight":0.11997913406364108,"recovered_'
        'norm":0.69276008563900704,"gate_depth":1,"result":{"rows":3,"cols":1,"data":[['
        '2.75,0],[0.24999999999999997,-0.49999999999999994],[2.4999999999999996,-0.4999'
        '9999999999994]]},"residual":0}'
        '\n')),
    ("solve", "sampled", 0): (1, (
        '{"command":"solve","outcome":0,"branch_weight":0.88002086593635886,"recovered_'
        'norm":null,"gate_depth":1,"result":null,"message":"sampled measurement failed '
        '(outcome 0)"}'
        '\n')),
    ("solve", "sampled", 3): (0, (
        '{"command":"solve","outcome":1,"branch_weight":0.11997913406364108,"recovered_'
        'norm":0.69276008563900704,"gate_depth":1,"result":{"rows":3,"cols":1,"data":[['
        '2.75,0],[0.24999999999999997,-0.49999999999999994],[2.4999999999999996,-0.4999'
        '9999999999994]]},"residual":0}'
        '\n')),
    ("det-phase", "ideal", 0): (0, (
        '{"command":"det-phase","outcome":1,"branch_weight":0.16015625,"recovered_norm"'
        ':1.6007810593582121,"gate_depth":1,"result":[-0.62469504755442429,-0.780868809'
        '44303039]}'
        '\n')),
    ("det-phase", "sampled", 0): (1, (
        '{"command":"det-phase","outcome":0,"branch_weight":0.83984375,"recovered_norm"'
        ':null,"gate_depth":1,"result":null,"message":"sampled measurement failed (outc'
        'ome 0)"}'
        '\n')),
    ("det-phase", "sampled", 3): (0, (
        '{"command":"det-phase","outcome":1,"branch_weight":0.16015625,"recovered_norm"'
        ':1.6007810593582121,"gate_depth":1,"result":[-0.62469504755442429,-0.780868809'
        '44303039]}'
        '\n')),
    ("inner", "ideal", 0): (0, (
        '{"command":"inner","outcome":1,"branch_weight":0.0071725050173326067,"recovere'
        'd_norm":0.67752514426350763,"gate_depth":1,"result":[-0.079745222282890008,0.9'
        '9681527853612495]}'
        '\n')),
    ("inner", "sampled", 0): (1, (
        '{"command":"inner","outcome":0,"branch_weight":0.99282749498266742,"recovered_'
        'norm":null,"gate_depth":1,"result":null,"message":"sampled measurement failed '
        '(outcome 0)"}'
        '\n')),
    ("inner", "sampled", 73): (0, (
        '{"command":"inner","outcome":1,"branch_weight":0.0071725050173326067,"recovere'
        'd_norm":0.67752514426350763,"gate_depth":1,"result":[-0.079745222282890008,0.9'
        '9681527853612495]}'
        '\n')),
    ("add", "not-measured", 0): (1, (
        '{"command":"add","outcome":"not-measured","branch_weight":0,"recovered_norm":n'
        'ull,"gate_depth":1,"result":null,"message":"labeled branch empty; state unchan'
        'ged"}'
        '\n')),
    ("mul", "not-measured", 0): (1, (
        '{"command":"mul","outcome":"not-measured","branch_weight":0,"recovered_norm":n'
        'ull,"gate_depth":1,"result":null,"message":"labeled branch empty; state unchan'
        'ged"}'
        '\n')),
    ("solve", "not-measured", 0): (1, (
        '{"command":"solve","outcome":"not-measured","branch_weight":0,"recovered_norm"'
        ':null,"gate_depth":1,"result":null,"message":"labeled branch empty; state unch'
        'anged"}'
        '\n')),
}


@pytest.mark.parametrize("command, mode, seed", sorted(GOLDEN_END_STAGES))
def test_end_stage_output_is_pinned(tmp_path, capsys, command, mode, seed):
    names = END_STAGE_INPUTS.get((command, mode), END_STAGE_INPUTS[command])
    files = [_write(tmp_path, f"{name}.json", np.asarray(END_STAGE_MATRICES[name], dtype=complex))
             for name in names]
    argv = [command, *files, "--seed", str(seed), "--output", "json"]
    if mode == "sampled":
        argv += ["--mode", "sampled"]
    code, out = _run(capsys, argv)
    rc, chunks = GOLDEN_END_STAGES[command, mode, seed]
    assert (code, out) == (rc, "".join(chunks))


DEMO_04_OUTPUT = """\
random 4x4 complex inputs

addition           max error vs numpy: 2.48e-16
multiplication     max error vs numpy: 1.35e-15
contraction a@v    max error vs numpy: 8.01e-16
inversion          max error vs numpy: 3.55e-16
                   residual |result @ a - I| = 4.52e-16
determinant phase  max error vs numpy: 0.00e+00
                   |det| recovered from branch weight: 16.880525 vs numpy 16.880525
inner phase        max error vs numpy: 1.11e-16

degenerate inputs leave the state untouched instead of failing:
a + (-a): outcome = None, result = None
"""


def test_demo_04_output_is_pinned(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_matrix_algebra_end_stages.py"
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == DEMO_04_OUTPUT
