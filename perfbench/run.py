"""Benchmark driver for hivevem.

    python3 perfbench/run.py --workload study-lift --seed 1 --seconds 21 --trace 0

Run it from the repository root.  Each run starts ``SAMPLES`` fresh
child processes of ``worker.py`` one after another, each with the BLAS
pool pinned to one thread before numpy loads, and splits ``--seconds``
of timed work between them.  A study cannot be cut short, so each child
runs at least one whole study, whatever its share.  With ``--trace 0``
every child measures untraced and the run reports the end-to-end
metrics, brought to a reference machine speed by the probe of
``speed.py``; with ``--trace 1``
one untraced child and two traced children run, and the run reports the
per-layer metrics and the tracing overhead.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The driver itself imports only the standard library and ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "out")

WORKLOADS = ("study-lift", "solve-fine", "lift-eval")
#: Child processes per run: three set-ups give a median set-up time.
SAMPLES = 3
#: Every run, children included, ends within this many seconds.
DEADLINE_S = 170.0
#: Set before the child starts, so numpy's BLAS reads them at load.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "eval_p50_ms": "ms", "eval_p90_ms": "ms", "evals_per_s": "1/s",
}

#: Counts that must repeat exactly between the two traced children.
EXACT_COUNTS = ("solver.iterations", "lift.patches", "problem.f_points",
                "system.nnz")


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "solver.recurrence_residual",
                "solver.residual", "solver.backward_error",
                "solver.cg_direct_diff", "lift.min_sigma_min",
                "lift.max_fit_residual"):
        return "1"
    if name in ("solver.ms_per_iteration", "speed.probe_ms"):
        return "ms"
    if name == "solver.flops_per_iteration":
        return "flop"
    if name == "solver.bytes_per_iteration":
        return "B"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    env.pop("HIVE_VEM_THREADS", None)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, index, mode, budget, deadline) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index),
           "--budget", repr(budget), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    if mode == "traced":
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"trace-{args.workload}-s{args.seed}-{index}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {index} did not finish in time") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {index} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_scale"] * (
        record["timed_start"] - launched - record["setup_probe_wall"])
    return record


def quantile(values, q: float) -> float:
    """Inclusive-method quantile, as ``statistics.quantiles`` gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(100 * q) - 1]


def end_to_end(records, workload) -> dict:
    """End-to-end metrics of one run, at the reference speed.

    Every time is scaled by its unit's ``scale`` from ``speed.py``, so
    that slow episodes on a shared host cancel out.  Per-unit time is
    the run's total over its unit count.
    """
    units = [u for r in records for u in r["units"]]
    if not units:
        raise BenchError("no timed unit completed")
    total = sum(u["wall"] * u["scale"] for u in units)
    if workload == "lift-eval":
        # An evaluation is one point; a unit is one round of points.
        evals = [t * u["scale"] for u in units for t in u["evals_ms"]]
    else:
        # An evaluation is one whole study, which is also the unit.
        evals = [1e3 * u["wall"] * u["scale"] for u in units]
    return {
        "wall_s": total / len(units),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "cpu_s": sum(u["cpu"] * u["scale"] for u in units) / len(units),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "eval_p50_ms": quantile(evals, 0.5),
        "eval_p90_ms": quantile(evals, 0.9),
        "evals_per_s": len(evals) / total,
        "_samples": len(evals),
        "_raw_wall_s": sum(u["wall"] for u in units) / len(units),
        "_probe_ms": 1e3 * statistics.median(u["probe_s"] for u in units),
        "_per_child": [sum(u["wall"] * u["scale"] for u in r["units"])
                       / len(r["units"]) for r in records],
    }


def per_layer(plain, traced) -> tuple[dict, int, int]:
    """Per-layer metrics of the traced children, with the checks that
    only a traced run makes: ``(metrics, attempted, failed)``."""
    layers = [r["layer"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if isinstance(values[0], int):
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    attempted, failed = len(EXACT_COUNTS), 0
    for name in EXACT_COUNTS:
        if len({layer[name] for layer in layers}) != 1:
            print(f"check: count {name} differs between traced runs: "
                  f"{[layer[name] for layer in layers]}", file=sys.stderr)
            failed += 1
    if plain["rows"] is not None:
        attempted += len(traced)
        for r in traced:
            if r["rows"] != plain["rows"]:
                print("check: traced study rows differ from run_study's",
                      file=sys.stderr)
                failed += 1
    untraced = statistics.fmean(u["wall"] for u in plain["units"])
    metrics["speed.probe_ms"] = 1e3 * statistics.median(
        u["probe_s"] for u in plain["units"])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: tiny levels, same outputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hivevem", "__init__.py")):
        print("perfbench: run from the repository root; src/hivevem is missing",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    budget = args.seconds / SAMPLES
    modes = ["plain"] * SAMPLES if args.trace == 0 else (
        ["plain"] + ["traced"] * (SAMPLES - 1))
    try:
        records = [run_child(args, k, mode, budget, deadline)
                   for k, mode in enumerate(modes)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    env = records[0]["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace == 0:
        metrics = end_to_end(records, args.workload)
        print(f"samples: {metrics.pop('_samples')} evaluations")
        print(f"measured: {metrics.pop('_raw_wall_s'):.6g} s per unit, "
              f"probe {metrics.pop('_probe_ms'):.6g} ms "
              f"(reference {1e3 * REFERENCE_S:g} ms)")
        print("per child: " + " ".join(
            f"{v:.4g}" for v in metrics.pop("_per_child")) + " s per unit")
        units = END_TO_END
    else:
        metrics, extra_attempted, extra_failed = per_layer(records[0],
                                                           records[1:])
        attempted += extra_attempted
        failed += extra_failed
        units = {name: per_layer_units(name) for name in metrics}
        if metrics["trace.coverage"] < 0.9:
            print(f"warning: layer spans cover only "
                  f"{metrics['trace.coverage']:.1%} of the traced wall time",
                  file=sys.stderr)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:34s} {shown:>16} {units[name]}")
    print(f"failed_frac: {failed / attempted:.3g} ({failed} of {attempted} "
          "operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
