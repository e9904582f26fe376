#!/usr/bin/env python3
"""qlasim benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload gate-pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); qlasim is imported from
``src/`` next to this directory, never from an installed copy.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (timed
ops) and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones.  A fuller record, with the
machine, every probe and every op, goes to ``bench/_runs/``.

``python3 bench/run.py --record-pins`` rewrites ``bench/pins.json`` from the
current code.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
PINS = BENCH / "pins.json"
MIN_OPS = 100     # whole cycles run until at least this many ops (p90 needs 100)
SETUP_RUNS = 9    # fresh processes whose set-up is timed; setup_s is their median
E2E_UNITS = {"ops_per_s": "ops/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
             "peak_rss_mb": "MB", "setup_s": "s", "fail_rate": "ratio"}


def _import_qlasim():
    if not (SRC / "qlasim" / "__init__.py").is_file():
        sys.exit(f"bench: qlasim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlasim
    if Path(qlasim.__file__).resolve().parent != (SRC / "qlasim").resolve():
        sys.exit(f"bench: imported qlasim from {qlasim.__file__}, not from {SRC}")
    return qlasim


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("gate-pipeline", "end-stages", "sampled-trials"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run the warm-up op, print the time and exit")
    p.add_argument("--record-pins", action="store_true",
                   help="run every pinned op in the pool and rewrite pins.json")
    args = p.parse_args(argv)
    if not args.record_pins and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _run_window(plan, seconds, min_ops, pins, tracer=None, first_op=0):
    """Run whole cycles until ``seconds`` of op time and ``min_ops`` ops are done.

    The clock runs only inside each op; oracle checks happen between ops.
    """
    records = []
    busy = 0.0
    while busy < seconds or len(records) < min_ops:
        for op in plan.next_cycle():
            if tracer is not None:
                tracer.op_id = first_op + len(records)
            error = None
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if error is None:
                error = op.check(out)
            if error is None and op.digest is not None:
                if op.digest(out) != pins.get(op.key):
                    error = f"output digest differs from pin {op.key}"
            busy += elapsed
            records.append({"op": op.key, "ms": elapsed * 1e3, "error": error})
    if tracer is not None:
        tracer.op_id = -1
    return records, busy


def _windowed_percentiles(records, cycle_len):
    """p50 and p90 of op latency in each window of the run, averaged over the windows.

    The run is cut into consecutive windows of whole cycles, each of at least
    ``MIN_OPS`` ops, so each window holds the full mix and ten or more ops
    beyond its p90.  The machine's speed changes in phases lasting seconds;
    a percentile over the whole run takes the value of whichever phase held
    more than half of it, while the mean over windows follows the share of
    time each phase held, as ``ops_per_s`` does.
    """
    cycles = len(records) // cycle_len
    count = max(1, min(cycles, len(records) // MIN_OPS))
    edges = [round(i * cycles / count) * cycle_len for i in range(count + 1)]
    p50s, p90s = [], []
    for lo, hi in zip(edges, edges[1:]):
        deciles = statistics.quantiles([r["ms"] for r in records[lo:hi]], n=10,
                                       method="inclusive")
        p50s.append(deciles[4])
        p90s.append(deciles[8])
    return statistics.fmean(p50s), statistics.fmean(p90s)


def _setup_samples(args, count):
    """Time ``count`` fresh processes from spawn to the end of their warm-up op."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup-ready "):
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(float(lines[-1].split()[1]) - start)
    return samples


def _record_pins(workloads):
    pins = {}
    for workload in workloads.WORKLOADS.values():
        if not workload.pinned:
            continue
        workdir = RUNS / f"pins-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            for entry in workloads.entries(workload):
                for k in range(entry.pool):
                    op = entry.build(entry.name, k, workdir, entry.params)
                    out = op.call()
                    error = op.check(out)
                    if error is not None:
                        sys.exit(f"bench: {op.key} fails its oracle, not pinning: {error}")
                    pins[op.key] = op.digest(out)
                print(f"pinned {workload.name} {entry.name} x{entry.pool}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    qlasim = _import_qlasim()
    import machine
    import tracing
    import workloads

    if args.record_pins:
        _record_pins(workloads)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text()) if workload.pinned else {}
    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = RUNS / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        plan = workloads.Plan(workload, args.seed, workdir)
        plan.next_cycle()[0].call()  # the untimed warm-up op
        if args.setup_only:
            print(f"setup-ready {time.monotonic()!r}", flush=True)
            return 0

        setup = [] if args.trace else _setup_samples(args, SETUP_RUNS)
        tracer = None
        if args.trace:
            # Untraced and traced halves of the same run give the overhead ratio.
            half = args.seconds / 2
            untraced, untraced_busy = _run_window(plan, half, 1, pins)
            tracer = tracing.Tracer()
            tracer.install(qlasim)
            try:
                traced, traced_busy = _run_window(plan, half, 1, pins, tracer, len(untraced))
            finally:
                tracer.uninstall()
            records = untraced + traced
        else:
            records, busy = _run_window(plan, args.seconds, MIN_OPS, pins)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        probes = []
        for probe in workload.probes:
            try:
                status, detail = probe.run(workdir)
            except Exception as exc:
                status, detail = workloads.UNEXPECTED, f"raised {type(exc).__name__}: {exc}"
            probes.append({"name": probe.name, "today": probe.today,
                           "status": status, "detail": detail})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    copy_gbps = machine.copy_gbps(16 << workload.largest_qubits)
    failed_ops = [r for r in records if r["error"] is not None]
    failed_probes = [p for p in probes if p["status"] != workloads.FIXED]
    correct = not failed_ops and all(p["status"] != workloads.UNEXPECTED for p in probes)

    if args.trace:
        untraced_rate = len(untraced) / untraced_busy
        traced_rate = len(traced) / traced_busy
        values = {**tracer.layer_metrics(len(traced)), "machine.copy_gbps": copy_gbps,
                  "trace.ops_per_s": traced_rate, "trace.untraced_ops_per_s": untraced_rate,
                  "trace.overhead_ratio": untraced_rate / traced_rate}
        units = dict(tracing.LAYER_METRICS)
    else:
        p50, p90 = _windowed_percentiles(records, len(workload.cycle))
        # fail_rate is taken over a fixed number of attempts, MIN_OPS ops plus
        # the probes, so a faster or slower program, which fits more or fewer
        # ops into --seconds, leaves it where it was.
        op_fail_share = len(failed_ops) / len(records)
        values = {
            "ops_per_s": len(records) / busy,
            "op_ms.p50": p50,
            "op_ms.p90": p90,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
            "fail_rate": ((op_fail_share * MIN_OPS + len(failed_probes))
                          / (MIN_OPS + len(probes))),
        }
        units = E2E_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    result = {"correct": correct, "attempted": len(records), "failed": len(failed_ops),
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": {**machine.machine_record(ROOT),
                                         "machine.copy_gbps": copy_gbps},
        "result": result, "cycle": [e.name for e in workloads.entries(workload)],
        "probes": probes, "setup_samples_s": setup,
        "fail_rate_counts": {"failed_ops": len(failed_ops), "failed_probes": len(failed_probes),
                             "attempted_ops": len(records), "attempted_probes": len(probes)},
        "ops": records,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["self_time"] = [{"name": n, "self_s": s, "share": f}
                               for n, s, f in tracer.self_time_table()]
        record["layer_share"] = tracer.layer_shares()
        record["max_state_bytes"] = tracer.max_state_bytes
        record["traced_ops"] = len(traced)
        with open(RUNS / f"{stem}-spans.jsonl", "w") as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(records)} ops, "
          f"{len(failed_ops)} failed; record in {RUNS.relative_to(ROOT)}/{stem}.json")
    for probe in probes:
        print(f"probe {probe['name']}: {probe['status']} ({probe['detail']})")
    for op in failed_ops[:20]:
        print(f"FAILED {op['op']}: {op['error']}")
    if tracer is not None:
        for name, share in sorted(record["layer_share"].items(), key=lambda kv: -kv[1]):
            print(f"layer {name}: {share:.1%} of traced self time")
        for row in record["self_time"][:12]:
            print(f"span {row['name']}: {row['self_s']:.4f} s self ({row['share']:.1%})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
