#!/usr/bin/env python3
"""qlsm benchmark: end-to-end metrics per workload, or a traced per-layer run.

One workload, as the last stdout line a JSON result:

    python3 perfbench/run.py --workload quantum-basket2d --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, untraced then traced, with a table
of every metric; exits 1 if any correctness check failed:

    python3 perfbench/run.py --seed 1

Run from the repository root; the package is imported from ``src/``. See
``perfbench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""
import time

PROCESS_START = time.perf_counter()  # before any other import: set-up starts here

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Set before numpy is first imported. One thread, BLAS included. numpy's
# transparent-huge-page advice is off: whether the kernel can back a large
# array with huge pages depends on the host's memory fragmentation, which made
# classical-3d operation times drift by about 15% from run to run; 4 KiB pages
# cost the same every run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 4          # extra fresh-process set-ups per untraced run
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900
END_TO_END = [("setup_s", "s"), ("run_s.p50", "s"), ("peak_mb", "MB"),
              ("ledger_units", "units"), ("pass_rate", "ratio")]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _require_source() -> None:
    if not (SRC / "qlsm" / "__init__.py").is_file():
        _log(f"qlsm sources not found under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _default_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _finite(value) -> float:
    """JSON has no NaN: a metric with no sample (every operation failed) reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of a fresh process (imports included)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _schedule(trace: bool, paired: bool):
    """Operations as (seed index, traced, timed, last of its group).

    A run stops only at a group boundary. Paired workloads run each seed
    twice. A traced run starts with one untimed warm-up operation, then runs
    each seed untraced and traced, so that both see a warm process.
    """
    if trace:
        yield 0, False, False, True
    j = 1 if trace else 0
    while True:
        if trace:
            yield j, False, True, False
            yield j, True, True, True
        elif paired:
            yield j, False, True, False
            yield j, False, True, True
        else:
            yield j, False, True, True
        j += 1


@dataclass
class Measurement:
    """What the operations of one run gave."""

    times: dict = field(default_factory=lambda: {False: [], True: []})
    traced_walls: dict = field(default_factory=dict)   # op id -> seconds
    units: list = field(default_factory=list)          # ledger units, first min_ops
    attempted: int = 0
    failed: int = 0


def _measure(wl, seed: int, seconds: float, tracer) -> Measurement:
    """Run operations until ``seconds`` have passed; check every one."""
    from workloads import op_seed

    trace = tracer is not None
    m = Measurement()
    min_ops = 3 if trace else wl.min_ops
    previous = None
    deadline = time.perf_counter() + seconds
    group_done = True
    for k, (j, traced, timed, last) in enumerate(_schedule(trace, wl.paired)):
        if group_done and k >= min_ops and time.perf_counter() >= deadline:
            break
        group_done = last
        s = op_seed(wl.index, seed, j)
        op_id = f"op{k}"
        m.attempted += 1
        if traced:
            tracer.install()
            tracer.begin(op_id)
        try:
            t0 = time.perf_counter()
            result = wl.operation(s)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed operation is counted, not fatal
            _log(f"{wl.name}: operation with seed {s} raised:\n{traceback.format_exc()}")
            m.failed += 1
            previous = None
            continue
        finally:
            if traced:
                tracer.end()
                tracer.uninstall()
        if timed:
            m.times[traced].append(elapsed)
        if traced:
            m.traced_walls[op_id] = elapsed
        wl.finish(result)
        problems = wl.check(result)
        if previous is not None and previous.seed == s and \
                previous.fingerprint != result.fingerprint:
            problems.append("two operations with the same seed gave different outputs")
        previous = result
        if k < min_ops:
            m.units.append(result.ledger_units)
        if problems:
            m.failed += 1
            _log(f"{wl.name}: operation with seed {s} failed: " + "; ".join(problems))
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probe_only: bool = False) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT / ".perfbench_work" / f"{name}-{os.getpid()}")
    tracer = None
    try:
        wl.load()
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.begin("setup")
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.end()
                tracer.uninstall()
        setup_s = time.perf_counter() - PROCESS_START
        if probe_only:
            return {"setup_s": setup_s}
        m = _measure(wl, seed, seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.close()

    if trace:
        metrics = _trace_metrics(wl, tracer, m)
        out_file = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(out_file)
        _log(f"{name}: {len(tracer.spans)} spans written to {out_file}")
    else:
        setups = [setup_s] + [_probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        run_times = m.times[False]
        values = {
            "setup_s": statistics.median(setups),
            "run_s.p50": statistics.median(run_times) if run_times else math.nan,
            "peak_mb": peak_mb,
            "ledger_units": statistics.fmean(m.units) if m.units else math.nan,
            "pass_rate": 1.0 - m.failed / m.attempted,
        }
        metrics = {key: {"value": _finite(values[key]), "unit": unit}
                   for key, unit in END_TO_END}
        print(f"{name}: run_s.p50 over {len(run_times)} operations, setup_s median of "
              f"{len(setups)} set-ups, ledger_units mean of the first {len(m.units)} "
              f"operations")
        print(f"{name}: operation seconds " + " ".join(f"{t:.3f}" for t in run_times))
        print(f"{name}: set-up seconds " + " ".join(f"{t:.3f}" for t in setups))
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def _trace_metrics(wl, tracer, m: Measurement) -> dict:
    metrics = tracer.layer_metrics("setup", list(m.traced_walls))
    metrics["harness.import_s"] = {"value": float(getattr(wl, "import_s", 0.0)), "unit": "s"}
    traced = statistics.median(m.times[True]) if m.times[True] else math.nan
    untraced = statistics.median(m.times[False]) if m.times[False] else math.nan
    coverage, spans, counter_s = [], [], []
    for op, wall in m.traced_walls.items():
        top_s, n, c = tracer.op_summary(op)
        coverage.append(top_s / wall)
        spans.append(n)
        counter_s.append(c)
    extra = {
        "trace.run_s.p50": (traced, "s"),
        "trace.untraced_run_s.p50": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.span_coverage": (statistics.median(coverage) if coverage else 0.0, "ratio"),
        "trace.counter_s": (statistics.median(counter_s) if counter_s else 0.0, "s"),
        "trace.spans": (statistics.median(spans) if spans else 0.0, "count"),
    }
    for key, (value, unit) in extra.items():
        metrics[key] = {"value": _finite(value), "unit": unit}
    return metrics


def run_all(seed: int, seconds: float) -> int:
    from spans import RATIO_BASES
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited with code {proc.returncode}")
                status = 1
                continue
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            for key, metric in metrics.items():
                base = ""
                if key in RATIO_BASES:
                    num, den = (metrics[k]["value"] for k in RATIO_BASES[key])
                    base = f"  = {num:.6g} / {den:.6g}"
                print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}{base}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: every workload, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    sys.path.insert(0, str(BENCH_DIR))
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    if args.workload is None:
        return run_all(args.seed, seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                          probe_only=args.setup_probe)
    if args.setup_probe:
        print(repr(result["setup_s"]))
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
