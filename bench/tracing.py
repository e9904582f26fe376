"""Per-layer spans around qlasim's public callables, installed from outside.

Every public function a layer module defines is replaced, in every qlasim
namespace that holds it, by a wrapper that records a span.  ``pipelines``
imports ``hadamard_register``, ``cnot``, ``stream`` and friends by name, so a
wrapper installed only on ``qlasim.gates`` would miss the pipeline's calls;
scanning every namespace for the function object catches those imports.
``PureState`` is a class, so its ``__init__`` is wrapped instead, which keeps
``isinstance`` checks intact.

A span's self time is its duration minus the time covered by its child
spans.  Byte figures are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("states", "gates", "measure", "encode", "pipelines", "linalg", "rng", "cli")

PIPELINE_STAGES = (
    "row_sum", "hermitian_conjugate", "inner_product_phase", "matrix_add",
    "matrix_mul", "determinant_phase", "matrix_inverse", "linear_stage",
    "naive_success_bench",
)

# (metric name, unit) printed by a traced run.  The machine.* and trace.*
# values are measured by the runner, the rest by the Tracer.
_SELF = "s/op"
LAYER_METRICS = (
    ("gates.hadamard_register.calls", "count/op"),
    ("gates.hadamard_register.self_s", _SELF),
    ("gates.hadamard_register.gbps", "GB/s"),
    ("gates.apply_single.self_s", _SELF),
    ("gates.swap_registers.self_s", _SELF),
    ("gates.controlled_on_zero_flip.self_s", _SELF),
    ("gates.cnot.self_s", _SELF),
    ("states.PureState.calls", "count/op"),
    ("states.PureState.self_s", _SELF),
    ("states.PureState.bytes", "B/op"),
    ("states.add_ancilla.self_s", _SELF),
    ("measure.controlled_measure.self_s", _SELF),
    ("measure.measure_sampled.calls", "count/op"),
    ("measure.measure_sampled.self_s", _SELF),
    ("measure.sampled_success_ratio", "ratio"),
    ("measure.branch_weight_log2.min", "log2"),
    ("encode.encode_rc.self_s", _SELF),
    ("encode.encode_rcm.self_s", _SELF),
    ("encode.decode_rcm.self_s", _SELF),
    ("encode.extract_payload.self_s", _SELF),
    ("pipelines.prepare_labeled_state.calls", "count/op"),
    ("pipelines.prepare_labeled_state.self_s", _SELF),
    ("pipelines.prepare_labeled_state.bytes", "B/op"),
    ("pipelines.useful_amp_ratio", "ratio"),
    *((f"pipelines.{stage}.self_s", _SELF) for stage in PIPELINE_STAGES),
    ("linalg.det_lu.calls", "count/op"),
    ("linalg.det_lu.self_s", _SELF),
    ("linalg.inverse_gj.calls", "count/op"),
    ("linalg.inverse_gj.self_s", _SELF),
    ("rng.stream.calls", "count/op"),
    ("rng.stream.self_s", _SELF),
    ("cli.main.self_s", _SELF),
    ("cli.read_matrix.self_s", _SELF),
    ("cli.dumps.self_s", _SELF),
    ("machine.copy_gbps", "GB/s"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_pure_state(tracer, args, kwargs, result):
    nbytes = args[0].amplitudes.nbytes
    tracer.counters["states.PureState.bytes"] += nbytes
    tracer.max_state_bytes = max(tracer.max_state_bytes, nbytes)


def _on_hadamard(tracer, args, kwargs, result):
    # One read and one write of the whole buffer per qubit of the register.
    state = _arg(args, kwargs, 0, "state")
    register = _arg(args, kwargs, 1, "register_name")
    tracer.counters["gates.hadamard_register.bytes"] += (
        2 * state.amplitudes.nbytes * state.layout.width(register))


def _on_prepare(tracer, args, kwargs, result):
    payload = _arg(args, kwargs, 0, "payload")
    tracer.counters["pipelines.prepare_labeled_state.bytes"] += result.state.amplitudes.nbytes
    tracer.counters["pipelines.useful_amps"] += sum(1 for c in payload.values() if c != 0)
    tracer.counters["pipelines.allocated_amps"] += result.state.layout.dim


def _on_sampled(tracer, args, kwargs, result):
    tracer.counters["measure.draws"] += 1
    tracer.counters["measure.draws_outcome_1"] += result.outcome == 1


def _on_controlled(tracer, args, kwargs, result):
    if result.branch_weight > 0:
        tracer.min_log2_weight = min(tracer.min_log2_weight, math.log2(result.branch_weight))


_HOOKS = {
    "states.PureState": _on_pure_state,
    "gates.hadamard_register": _on_hadamard,
    "pipelines.prepare_labeled_state": _on_prepare,
    "measure.measure_sampled": _on_sampled,
    "measure.controlled_measure": _on_controlled,
}


class Tracer:
    """Spans kept in memory; ``op_id`` tags each span with the timed op."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.op_id = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.min_log2_weight = math.inf
        self.max_state_bytes = 0
        self._stack: list[list] = []  # open spans: [span id, name, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                # A recursive call (cli.dumps) stays inside its caller's span.
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                self.self_ns[name] += elapsed - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += elapsed
                self.spans.append((sid, name, start, end, parent, self.op_id))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, key, traced)
        cls = modules["states"].PureState
        self._replace(cls, "__init__", self._wrap("states.PureState", cls.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """The Tracer's LAYER_METRICS values; 0 where the workload never reached the code.

        Calls, self time and bytes are per traced op, so a layer that gets
        faster does not raise the totals of the others by fitting more ops
        into the traced window.
        """
        out: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls.get(base, 0) / ops
            elif field == "self_s":
                out[name] = self.self_s(base) / ops
            elif field == "bytes":
                out[name] = self.counters.get(name, 0.0) / ops
        hadamard_s = self.self_s("gates.hadamard_register")
        out["gates.hadamard_register.gbps"] = (
            self.counters["gates.hadamard_register.bytes"] / hadamard_s / 1e9
            if hadamard_s > 0 else 0.0)
        draws = self.counters["measure.draws"]
        out["measure.sampled_success_ratio"] = (
            self.counters["measure.draws_outcome_1"] / draws if draws else 0.0)
        out["measure.branch_weight_log2.min"] = (
            self.min_log2_weight if math.isfinite(self.min_log2_weight) else 0.0)
        allocated = self.counters["pipelines.allocated_amps"]
        out["pipelines.useful_amp_ratio"] = (
            self.counters["pipelines.useful_amps"] / allocated if allocated else 0.0)
        return out

    def self_time_table(self) -> list[tuple[str, float, float]]:
        """(span name, self seconds, share of all traced self time), largest first."""
        total = sum(self.self_ns.values()) or 1
        rows = [(name, ns / 1e9, ns / total) for name, ns in self.self_ns.items()]
        return sorted(rows, key=lambda row: -row[1])

    def layer_shares(self) -> dict[str, float]:
        total = sum(self.self_ns.values()) or 1
        shares: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            shares[name.split(".", 1)[0]] += ns / total
        return dict(shares)
