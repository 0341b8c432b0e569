"""Run one workload of the attnops benchmark and print its metrics.

    python3 benchmark/run.py --workload encoder_long --seed 0 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` measures half the time untraced and half with timing wrappers
on the library's layers, and reports the per-layer metrics, including the
tracing overhead.  ``--workload all`` runs each workload in its own process.
The last line of the output is one JSON object; the metric names and units
are those that BENCHMARK.json declares.  The load is a closed loop: one
caller, one process, the next call starting when the previous one returns.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pin the BLAS pool before numpy is first imported.  One thread keeps runs
# steady on a shared machine and stays within any core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("encoder_long", "encoder_short", "operator_sweep")
# Set-up is repeated and its median reported, so one slow repeat does not move setup_s.
SETUP_REPEATS = 5
# Measuring stops after this long, or --seconds if longer, even short of the ops
# a percentile needs; the run then fails.
MAX_MEASURE_S = 120.0
TRACE_MIN_OPS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def _environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
    }


def _measure_workload(name, seed, seconds, trace, import_s):
    import oracle_gate
    import runstats
    import spans
    import workloads

    build = workloads.WORKLOADS[name]
    tally = workloads.Tally()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cells = None  # let the previous inputs go before building new ones
        start = time.perf_counter()
        cells = build(seed)
        reference = workloads.warm_up(cells, tally)
        setup_times.append(time.perf_counter() - start)

    phase_s = seconds / 2 if trace else seconds
    min_ops = TRACE_MIN_OPS if trace else runstats.samples_needed(90)
    max_s = max(phase_s, MAX_MEASURE_S)
    gc.collect()
    plain = workloads.measure(cells, reference, phase_s, min_ops, max_s, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [f"ops {len(plain.op_ms)} untraced, {plain.timed_s:.3f} s timed, "
             f"{len(cells)} cells of {plain.tokens_per_op} tokens per op"]

    if trace:
        tracer = spans.Tracer()
        snaps, op_ns = [], []

        def after_op(ns):
            snaps.append(tracer.take())
            op_ns.append(ns)

        cells = None
        with spans.instrumented(tracer) as missing:
            cells = build(seed)
            setup_snap = tracer.take()
            # The traced run must reproduce the untraced checksums cell by cell.
            workloads.warm_up(cells, tally, expected=reference)
            tracer.take()
            traced = workloads.measure(cells, reference, phase_s, TRACE_MIN_OPS,
                                       max_s, tally, after_op)
        if missing:
            lines.append(f"not instrumented, no longer in the package: {', '.join(missing)}")

    gate = oracle_gate.run_gate(cells, tally)
    lines.append(f"oracle gate: {gate.checks} checks, max relative error "
                 f"{gate.max_rel_err:.3e}, {gate.seconds:.3f} s; planted wrong mixer "
                 + ("failed as it must" if gate.control_failed else "PASSED: gate is broken"))
    correct = tally.failed == 0 and gate.control_failed

    if not trace:
        p90, beyond = runstats.percentile(plain.op_ms, 90)
        lines.append(f"latency samples {len(plain.op_ms)}, {beyond} beyond p90")
        # Not gated: medians and means follow the share of a run that a shared
        # host spends slowed down, so they swing between runs (see README.md).
        for name, value, unit in (
            ("latency_ms_p50", median(plain.op_ms), "ms"),
            ("tokens_per_s", plain.tokens_per_op * len(plain.op_ms) / plain.timed_s, "tokens/s"),
            ("cell_geomean_ms", runstats.geomean(median(t) for t in plain.cell_ms.values()), "ms"),
            ("failed_share", tally.failed / tally.attempted, "ratio"),
        ):
            lines.append(f"also {name} {value} {unit}")
        metrics = {
            "setup_s": import_s + median(setup_times),
            "latency_ms_best": min(plain.op_ms),
            "latency_ms_p90": p90,
            "cell_best_geomean_ms": runstats.geomean(min(t) for t in plain.cell_ms.values()),
            "success_share": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, correct, tally, lines

    metrics, varied = spans.layer_metrics(snaps, op_ns, setup_snap)
    if varied:
        correct = False
        lines.append(f"counts that differ between ops: {', '.join(varied)}")
    sweep_labels = [label for labels, _ in workloads.SWEEP for label in labels]
    ratios = {}
    if name == "operator_sweep":
        ratios = runstats.doubling_ratios(
            {(c.mechanism.label, c.n): median(plain.cell_ms[c.name]) for c in cells})
    for label in sweep_labels:
        metrics[f"doubling.{label}"] = ratios.get(label, 0.0)
    metrics["oracles.checks"] = gate.checks
    metrics["oracles.max_rel_err"] = gate.max_rel_err
    metrics["oracles.check_s"] = gate.seconds
    traced_best = min(traced.op_ms)
    metrics["trace.overhead"] = traced_best / min(plain.op_ms) - 1.0
    lines.append(f"ops {len(traced.op_ms)} traced; traced p50 {median(traced.op_ms):.4f} ms, "
                 f"of which top-level layer spans cover {metrics['trace.coverage']:.4f}")
    return metrics, correct, tally, lines


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "attnops" / "__init__.py").is_file():
        print(f"no attnops sources in {src}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import attnops

    if Path(attnops.__file__).resolve().parent != (src / "attnops").resolve():
        print(f"attnops was imported from {attnops.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(_environment(np, scipy)))
    metrics, correct, tally, lines = _measure_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s)
    for line in lines:
        print(line)
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed {count}x {reason}")
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
