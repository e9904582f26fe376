import json
import runpy
from pathlib import Path

import numpy as np
import pytest

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


def test_degenerate_inputs_exit_1(tmp_path, capsys):
    nil = _write(tmp_path, "nil.json", [[0.0, 1.0], [0.0, 0.0]])
    assert _run(capsys, ["mul", nil, nil])[0] == 1

    a = _write(tmp_path, "rows.json", [[1.0, 0.0], [1.0, 0.0]])
    b = _write(tmp_path, "b.json", [[0.0], [1.0]])
    assert _run(capsys, ["solve", a, b])[0] == 1

    cancel = _write(tmp_path, "c.json", [[1 / np.sqrt(2), -1 / np.sqrt(2)], [0.0, 0.0]])
    assert _run(capsys, ["rowsum", cancel])[0] == 1


def test_singular_inverse_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "sing.json", [[1.0, 2.0], [2.0, 4.0]])
    code, out = _run(capsys, ["inverse", path])
    assert code == 3
    assert "numerical failure" in out


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
