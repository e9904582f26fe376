"""Harness smoke test: one cycle of every workload, untraced and traced.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
every entry of each cycle ran through its oracle and pin check, that every
probe ran, and that the traced run reached the layers its workload exists to
load.  The runs are made in-process through ``run.main`` with ``MIN_OPS`` and
``SETUP_RUNS`` set to 1.  Takes well under a minute.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# Layer counters that must be nonzero in a traced run of each workload.
BUSY_LAYERS = {
    "gate-pipeline": ("gates.hadamard_register.calls", "states.PureState.calls"),
    "end-stages": ("pipelines.prepare_labeled_state.calls", "linalg.det_lu.calls"),
    "sampled-trials": ("rng.stream.calls", "measure.measure_sampled.calls"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_and_reports(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "_runs" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert f"{metric['name']} = " in stdout

    assert {op["op"].split("/")[0] for op in record["ops"]} == set(record["cycle"])
    assert all(op["error"] is None for op in record["ops"])
    assert record["probes"], "every workload runs its probes"
    for probe in record["probes"]:
        assert probe["status"] in ("known-failure", "fixed"), probe
        assert f"probe {probe['name']}: " in stdout

    if trace:
        for name in BUSY_LAYERS[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert result["metrics"]["fail_rate"]["value"] == (
            record["fail_rate_counts"]["failed_probes"] / (1 + len(record["probes"])))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
