"""Outside-in span recorder for the traced benchmark run.

``Tracer.install`` replaces each layer's public functions and methods where
their callers look them up (module globals and class attributes) with
wrappers that record a span: name, start, end, parent span and operation id.
Counters are taken at the same boundaries. ``Tracer.uninstall`` puts the
originals back, so untraced operations run the unmodified program.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MB = float(1 << 20)
F8 = 8  # bytes per float64 / int64 element


# -- counters taken when a wrapped call returns --------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_discretize(tr, args, kwargs, chain):
    tr.maximum("chain.transition_mb", sum(P.size for P in chain.transitions) * F8 / MB)


def _on_enumerate(tr, args, kwargs, ensemble):
    tr.count("chain.enumerated_paths", len(ensemble))


def _on_sample(tr, args, kwargs, idx):
    # _sample_index_matrix gathers one cumulative row per path: count x n_next.
    chain = _arg(args, kwargs, 0, "chain")
    widest = max((chain.n_states(t) for t in range(2, chain.horizon + 1)), default=0)
    tr.maximum("chain.sample_gather_mb", idx.shape[0] * widest * F8 / MB)


def _on_classical(tr, args, kwargs, run):
    tr.count("lsm_classical.paths", run.path_count)


def _on_variable(tr, args, kwargs, var):
    tr.count("stopping_circuits.variable_calls", 1)
    tr.count("stopping_circuits.path_evals", var.oracle.values.size)


def _on_quantize(tr, args, kwargs, out):
    tr.count("fixed_point.quantize_elems", np.size(_arg(args, kwargs, 1, "values")))


def _on_to_bits(tr, args, kwargs, out):
    tr.count("fixed_point.to_bits_elems", np.size(out))


def _on_function_oracle(tr, args, kwargs, out):
    tr.count("oracles.function_oracle_calls", 1)


def _on_qmc(tr, args, kwargs, report):
    values = _arg(args, kwargs, 0, "variable").oracle.values
    tr.count("qmc.calls", 1)
    tr.count("qmc.pieces", len(report.pieces))
    distinct = np.unique(values).size
    tr.count("qmc.distinct_values", distinct)
    tr.maximum("qmc.distinct_max", distinct)
    tr.count("qmc.entry_paths", values.size)


def _on_draw(tr, args, kwargs, draws):
    queries = _arg(args, kwargs, 1, "queries")
    tr.count("ae.calls", 1)
    tr.count("ae.queries_sum", queries)
    tr.count("ae.draws", draws.size)
    tr.maximum("ae.queries_max", queries)
    # ae_outcome_distribution returns three M-length arrays (estimates,
    # probabilities, outcomes) and Generator.choice builds an M-length CDF.
    tr.maximum("ae.outcome_mb_max", queries * 4 * F8 / MB)


def _on_quantum(tr, args, kwargs, run):
    ledger = run.ledger
    tr.count("ledger.grover", ledger.grover_applications)
    tr.count("ledger.state_preparations", ledger.state_preparations)
    tr.count("ledger.rotations", ledger.rotations)
    tr.count("ledger.payoff_queries", ledger.queries_of_kind("payoff"))
    tr.count("ledger.basis_queries", ledger.queries_of_kind("basis"))


# -- phase of the lsm_quantum pipeline, from the estimated variable's name ------

def _phase_of_oracle_name(name: str) -> str:
    if name.startswith("basis_product["):
        return "gram"
    return "final" if name.startswith("stopped_payoff[t=1,") else "target"


def _phase_qmc(args, kwargs):
    return _phase_of_oracle_name(_arg(args, kwargs, 0, "variable").oracle.name)


def _phase_variable(args, kwargs):
    return "final" if _arg(args, kwargs, 1, "t") == 1 else "target"


def _phase_function_oracle(args, kwargs):
    name = args[0].name
    return "gram" if name.startswith("basis_product[") else None


# (span name, module, attribute, counter, phase). A dotted attribute names a
# method on a class; a plain one a module global, patched in every module
# that binds it.
TARGETS = [
    ("chain.discretize_brownian", ["qlsm.chain", "qlsm.harness.config"],
     "discretize_brownian", _on_discretize, None),
    ("chain.enumerate_paths", ["qlsm.qsim.oracles"], "enumerate_paths", _on_enumerate, None),
    ("chain.sample_paths", ["qlsm.lsm_classical"], "sample_paths", _on_sample, None),
    ("payoff.values", ["qlsm.payoff"], "PayoffSpec.values", None, None),
    ("basis.evaluate", ["qlsm.basis"], "BasisSpec.evaluate", None, None),
    ("basis.gram_matrix", ["qlsm.lsm_quantum"], "gram_matrix", None, None),
    ("dp.snell_envelope", ["qlsm.dp", "qlsm.harness.experiments"], "snell_envelope",
     None, None),
    ("lsm_classical.run_classical_lsm", ["qlsm.lsm_classical", "qlsm.harness.experiments"],
     "run_classical_lsm", _on_classical, None),
    ("stopping_circuits.variable", ["qlsm.stopping_circuits"], "StoppingCircuits.variable",
     _on_variable, _phase_variable),
    ("fixed_point.quantize", ["qlsm.qsim.fixed_point"], "FixedPointFormat.quantize",
     _on_quantize, None),
    ("fixed_point.to_bits", ["qlsm.qsim.fixed_point"], "FixedPointFormat.to_bits",
     _on_to_bits, None),
    ("oracles.function_oracle", ["qlsm.qsim.oracles"], "FunctionOracle.__post_init__",
     _on_function_oracle, _phase_function_oracle),
    ("oracles.good_amplitude", ["qlsm.qsim.oracles"],
     "ControlledRotation.good_amplitude_squared", None, None),
    ("oracles.measure", ["qlsm.qsim.oracles"], "SamplingOracle.measure", None, None),
    ("qmc.qmontecarlo", ["qlsm.lsm_quantum"], "qmontecarlo", _on_qmc, _phase_qmc),
    ("ae.draw_ae_estimates", ["qlsm.qsim.qmc"], "draw_ae_estimates", _on_draw, None),
    ("lsm_quantum.run_quantum_lsm", ["qlsm.lsm_quantum", "qlsm.harness.experiments"],
     "run_quantum_lsm", _on_quantum, None),
    ("harness.run_price", ["qlsm.harness.cli"], "run_price", None, None),
    ("harness.report_write", ["qlsm.harness.experiments"], "ExperimentReport.write",
     None, None),
]

# Per-layer metrics: (name, unit, how). "self" sums a span's self time,
# "count" a counter, "phase" the phase-classified span time, "max" the
# largest value seen; "ratio" divides two metrics listed before it (counters
# are reported under their own names).
METRICS = [
    ("chain.discretize_s", "s", ("self", "chain.discretize_brownian")),
    ("chain.transition_mb", "MB", ("max", "chain.transition_mb")),
    ("chain.enumerate_paths_s", "s", ("self", "chain.enumerate_paths")),
    ("chain.enumerated_paths", "count", ("count", "chain.enumerated_paths")),
    ("chain.sample_paths_s", "s", ("self", "chain.sample_paths")),
    ("chain.sample_gather_mb", "MB", ("max", "chain.sample_gather_mb")),
    ("payoff.values_s", "s", ("self", "payoff.values")),
    ("basis.evaluate_s", "s", ("self", "basis.evaluate")),
    ("basis.gram_s", "s", ("self", "basis.gram_matrix")),
    ("dp.snell_envelope_s", "s", ("self", "dp.snell_envelope")),
    ("lsm_classical.self_s", "s", ("self", "lsm_classical.run_classical_lsm")),
    ("lsm_classical.paths", "count", ("count", "lsm_classical.paths")),
    ("stopping_circuits.variable_s", "s", ("self", "stopping_circuits.variable")),
    ("stopping_circuits.variable_calls", "count", ("count", "stopping_circuits.variable_calls")),
    ("stopping_circuits.path_evals", "count", ("count", "stopping_circuits.path_evals")),
    ("fixed_point.quantize_s", "s", ("self", "fixed_point.quantize")),
    ("fixed_point.quantize_elems", "count", ("count", "fixed_point.quantize_elems")),
    ("fixed_point.to_bits_s", "s", ("self", "fixed_point.to_bits")),
    ("fixed_point.to_bits_elems", "count", ("count", "fixed_point.to_bits_elems")),
    ("oracles.function_oracle_s", "s", ("self", "oracles.function_oracle")),
    ("oracles.function_oracle_calls", "count", ("count", "oracles.function_oracle_calls")),
    ("oracles.good_amplitude_s", "s", ("self", "oracles.good_amplitude")),
    ("oracles.measure_s", "s", ("self", "oracles.measure")),
    ("qmc.self_s", "s", ("self", "qmc.qmontecarlo")),
    ("qmc.calls", "count", ("count", "qmc.calls")),
    ("qmc.pieces", "count", ("count", "qmc.pieces")),
    ("qmc.distinct_values", "count", ("count", "qmc.distinct_values")),
    ("qmc.entry_paths", "count", ("count", "qmc.entry_paths")),
    ("qmc.distinct_ratio", "ratio", ("ratio", "qmc.distinct_values", "qmc.entry_paths")),
    ("qmc.distinct_max", "count", ("max", "qmc.distinct_max")),
    ("ae.draw_s", "s", ("self", "ae.draw_ae_estimates")),
    ("ae.calls", "count", ("count", "ae.calls")),
    ("ae.queries_max", "count", ("max", "ae.queries_max")),
    ("ae.queries_sum", "count", ("count", "ae.queries_sum")),
    ("ae.outcome_mb_max", "MB", ("max", "ae.outcome_mb_max")),
    ("ae.draws", "count", ("count", "ae.draws")),
    ("ae.draws_per_outcome", "ratio", ("ratio", "ae.draws", "ae.queries_sum")),
    ("ledger.grover", "count", ("count", "ledger.grover")),
    ("ledger.state_preparations", "count", ("count", "ledger.state_preparations")),
    ("ledger.rotations", "count", ("count", "ledger.rotations")),
    ("ledger.payoff_queries", "count", ("count", "ledger.payoff_queries")),
    ("ledger.basis_queries", "count", ("count", "ledger.basis_queries")),
    ("lsm_quantum.gram_phase_s", "s", ("phase", "gram")),
    ("lsm_quantum.target_phase_s", "s", ("phase", "target")),
    ("lsm_quantum.final_s", "s", ("phase", "final")),
    ("lsm_quantum.self_s", "s", ("self", "lsm_quantum.run_quantum_lsm")),
    ("harness.run_price_s", "s", ("self", "harness.run_price")),
    ("harness.report_write_s", "s", ("self", "harness.report_write")),
]


RATIO_BASES = {name: how[1:] for name, _, how in METRICS if how[0] == "ratio"}


class _OpRecord:
    __slots__ = ("self_s", "counts", "phases", "top_s", "spans", "counter_s")

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.phases = defaultdict(float)
        self.top_s = 0.0      # summed duration of the operation's top-level spans
        self.spans = 0
        self.counter_s = 0.0  # time spent taking counters (charged to no layer)


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Records spans of the operation named by ``begin`` until ``end``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: dict[str, _OpRecord] = {}
        self.maxima: dict[str, float] = defaultdict(float)
        self._op: str | None = None
        self._rec: _OpRecord | None = None
        self._stack: list[_Frame] = []
        self._phase_depth = 0
        self._saved: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span, modules, attr, on_exit, phase in TARGETS:
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                owner, name = module, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(span, original, on_exit, phase))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- operations -------------------------------------------------------------

    def begin(self, op: str) -> None:
        self._op = op
        self._rec = self.ops.setdefault(op, _OpRecord())

    def end(self) -> None:
        self._op = self._rec = None

    def count(self, key: str, value: float) -> None:
        self._rec.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], float(value))

    def _wrap(self, span, fn, on_exit, phase_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._rec
            if rec is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            phase = None
            if phase_of is not None and tracer._phase_depth == 0:
                phase = phase_of(args, kwargs)
            frame = _Frame(len(tracer.spans))
            tracer.spans.append(None)  # reserve the id; filled on exit
            if phase is not None:
                tracer._phase_depth += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if phase is not None:
                    tracer._phase_depth -= 1
                    rec.phases[phase] += end - start
                duration = end - start
                self_s = duration - frame.child_s
                rec.self_s[span] += self_s
                rec.spans += 1
                if parent is None:
                    rec.top_s += duration
                else:
                    parent.child_s += duration
                tracer.spans[frame.span_id] = (
                    tracer._op, frame.span_id,
                    None if parent is None else parent.span_id,
                    span, start, end, self_s)
            if on_exit is not None:
                t0 = time.perf_counter()
                on_exit(tracer, args, kwargs, result)
                spent = time.perf_counter() - t0
                rec.counter_s += spent
                # Keep counting time out of the enclosing layer's self time.
                if parent is not None:
                    parent.child_s += spent
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, setup_op: str, ops: list[str]) -> dict:
        """Per-layer metrics: the set-up's total plus the median per operation."""
        setup = self.ops.get(setup_op, _OpRecord())
        recs = [self.ops[o] for o in ops if o in self.ops]

        def combined(pick) -> float:
            per_op = [pick(r) for r in recs]
            return pick(setup) + (statistics.median(per_op) if per_op else 0.0)

        out = {}
        for name, unit, how in METRICS:
            kind, key = how[0], how[1]
            if kind == "self":
                value = combined(lambda r: r.self_s.get(key, 0.0))
            elif kind == "count":
                value = combined(lambda r: r.counts.get(key, 0.0))
            elif kind == "phase":
                value = combined(lambda r: r.phases.get(key, 0.0))
            elif kind == "max":
                value = self.maxima.get(key, 0.0)
            else:
                num, den = out[key]["value"], out[how[2]]["value"]
                value = num / den if den else 0.0
            out[name] = {"value": float(value), "unit": unit}
        return out

    def op_summary(self, op: str) -> tuple[float, int, float]:
        """(summed top-level span time, span count, counter time) of one op."""
        rec = self.ops.get(op, _OpRecord())
        return rec.top_s, rec.spans, rec.counter_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("op", "id", "parent", "name", "start", "end", "self_s")
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
