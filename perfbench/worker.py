"""One measured process of the benchmark.

``run.py`` starts this script as a fresh child process for every sample,
with the BLAS thread environment already set.  It sets up the workload,
runs the timed part for about ``--budget`` seconds, checks the outputs
outside the timed part and prints one JSON record on its last line.

Modes: ``plain`` measures with no tracing, with the machine-speed probe
of ``speed.py`` running from the start of the process; ``traced``
records spans around every layer call (see ``spans.py``) and reports
per-layer figures, with no probe.  A traced study runs exactly one
study, so that its counts can be compared between two traced processes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

#: Started before numpy loads, so that the probe also covers set-up.
SAMPLER = speed.Sampler()
SAMPLER.start()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from hivevem import cli, lift, solver  # noqa: E402

#: Levels of each workload; ``tiny`` is the self-test size.
WORKLOADS = {
    "study-lift": {"levels": (1, 8), "tiny": (1, 4), "lift": True},
    "solve-fine": {"levels": (9, 9), "tiny": (5, 5), "lift": False},
    "lift-eval": {"levels": (8, 8), "tiny": (4, 4)},
}

#: Error columns of a study row checked against the seed reference.
ERROR_FIELDS = ("e_ih_l2", "e_ih_h1", "e_ih_linf", "e_l2",
                "e_lift_l2", "e_lift_h1h")
#: Relative tolerance on errors.  CG and the direct solver differ by
#: at most 2.5e-5 relative in these columns (level 9), so this admits
#: any solver that meets its tolerance and rejects a wrong solution.
ERROR_RTOL = 1e-3
#: Absolute floor for errors at round-off (level 1 has no unknowns).
ERROR_ATOL = 1e-16
#: CG must agree with the direct solver this closely (criterion 8).
CG_DIRECT_TOL = 1e-10
#: Points per evaluation round, one per stratum of the patch order;
#: of these, how many lie on a patch edge and at a patch corner.
ROUND_POINTS, EDGE_POINTS, CORNER_POINTS = 20, 4, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0,
                        help="sample number within the run")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed work")
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    lo, hi = spec["tiny"] if args.tiny else spec["levels"]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["levels"]
    tracer = spans.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        SAMPLER.stop()
    if args.workload == "lift-eval":
        record = run_eval(hi, args, reference, tracer)
    else:
        record = run_study(lo, hi, spec["lift"], args, reference, tracer)
    SAMPLER.stop()
    record["env"] = environment()
    if tracer is not None and args.trace_out:
        write_trace(tracer, args.trace_out)
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------- studies


def run_study(lo, hi, lift_on, args, reference, tracer):
    """Run ``cli.run_study`` until the budget is spent (once if traced)."""
    config = cli.StudyConfig(min_level=lo, max_level=hi, lift_enabled=lift_on)
    levels = range(lo, hi + 1)
    ops = len(levels) + sum(_patches(lv) for lv in levels
                            if lift_on and lv >= lift.MIN_LIFT_LEVEL)
    solves: list[tuple[int, int]] = []
    units, failed, rows = [], 0, None

    real_solve = solver.solve
    if tracer is None:
        # Untraced runs keep only each solve's iteration count.
        def counting_solve(A, b, config=None):
            x, stats = real_solve(A, b, config)
            solves.append((_level_of_dofs(A.n, reference), stats.iterations))
            return x, stats

        solver.solve = counting_solve
    setup = end_of_setup()
    timed_start = setup["timed_start"]
    try:
        while True:
            mark = SAMPLER.mark()
            try:
                if tracer is None:
                    rows = cli.run_study(config)
                else:
                    with spans.instrument(tracer), tracer.span("cli.run_study"):
                        rows = cli.run_study(config)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rows = None
            units.append(SAMPLER.interval_since(mark))
            failed += ops if rows is None else check_rows(rows, reference)
            if tracer is not None or (
                    time.monotonic() - timed_start >= args.budget):
                break
    finally:
        solver.solve = real_solve
    peak_rss = _peak_rss_mb()

    layer = None
    if tracer is None:
        failed += check_iterations(solves, reference)
    else:
        layer, layer_failed = layer_metrics(tracer, "cli.run_study", reference)
        failed += layer_failed
    return {
        **setup, "units": units, "peak_rss_mb": peak_rss,
        "attempted": ops * len(units), "failed": failed, "layer": layer,
        "rows": None if rows is None else [dataclasses.asdict(r) for r in rows],
    }


def end_of_setup() -> dict:
    """Mark the start of the timed part.  ``setup_probe_wall`` is the
    time the probes took since the process started, and
    ``setup_scale`` brings the set-up to the reference speed."""
    mark = SAMPLER.mark()
    probes = SAMPLER.probes[:mark[4]]
    return {"timed_start": time.monotonic(), "setup_probe_wall": mark[2],
            "setup_scale": speed.speed_ratio(probes)}


def check_rows(rows, reference) -> int:
    """Operations failed by a study's rows: a level whose errors leave
    the seed reference fails, and so do its patch fits."""
    failed = 0
    for row in rows:
        ref = reference[str(row.level)]
        ok = row.dofs == ref["dofs"] and row.h == ref["h"]
        for name in ERROR_FIELDS:
            got, want = getattr(row, name), ref[name]
            if got is None:
                continue
            ok = ok and want is not None and math.isfinite(got) and (
                abs(got - want) <= ERROR_RTOL * want + ERROR_ATOL)
        if not ok:
            print(f"check: level {row.level} errors differ from the reference",
                  file=sys.stderr)
            failed += 1 + (_patches(row.level) if row.e_lift_l2 is not None
                           else 0)
    return failed


def check_iterations(solves, reference) -> int:
    """A solve that needs more CG iterations than the seed did fails."""
    failed = 0
    for level, iterations in solves:
        limit = reference[str(level)]["iterations"]
        if iterations > limit:
            print(f"check: level {level} took {iterations} CG iterations, "
                  f"reference {limit}", file=sys.stderr)
            failed += 1
    return failed


def _level_of_dofs(n: int, reference) -> int:
    for level, ref in reference.items():
        if ref["dofs"] == n:
            return int(level)
    raise ValueError(f"no reference level has {n} dofs")


def _patches(level: int) -> int:
    """Patch count of the lift grid: six sextants of (2**(level-3))**2."""
    return 6 * 4 ** (level - lift.MIN_LIFT_LEVEL)


# ------------------------------------------------------------- lift-eval


def run_eval(level, args, reference, tracer):
    """Build the lift of one level, then evaluate it point by point in
    rounds of ``ROUND_POINTS`` until the budget is spent."""
    attempted = 1 + _patches(level)
    ctx = spans.instrument(tracer) if tracer else contextlib.nullcontext()
    with ctx:
        problem = cli.get_problem("hex-sine")
        _, u_h, _, stats = cli.solve_level(level, problem)
        result = lift.lift_solution(u_h, problem, lift.build_patch_grid(u_h.mesh))
        failed = check_iterations([(level, stats.iterations)], reference)
        tri = patch_triangles(result.grid)
        rng = np.random.default_rng([args.seed, args.index])

        setup = end_of_setup()
        timed_start = setup["timed_start"]
        points, outputs, units = [], [], []
        while True:
            batch, evals = round_points(tri, rng), []
            mark = SAMPLER.mark()
            with tracer.span("bench.round") if tracer else contextlib.nullcontext():
                for p in batch:
                    t0, probed0 = time.perf_counter(), SAMPLER.wall
                    try:
                        out = lift.evaluate_lift(result, p)
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        out = None
                    evals.append(1e3 * ((time.perf_counter() - t0)
                                        - (SAMPLER.wall - probed0)))
                    outputs.append(out)
            units.append({**SAMPLER.interval_since(mark), "evals_ms": evals})
            points.extend(batch)
            if time.monotonic() - timed_start >= args.budget:
                break
    peak_rss = _peak_rss_mb()

    failed += check_evaluations(result, tri, np.array(points), outputs)
    layer = None
    if tracer is not None:
        layer, layer_failed = layer_metrics(tracer, "bench.round", reference)
        failed += layer_failed
    return {
        **setup, "units": units, "peak_rss_mb": peak_rss,
        "attempted": attempted + len(points), "failed": failed,
        "layer": layer, "rows": None,
    }


def patch_triangles(grid) -> np.ndarray:
    """Corner coordinates ``(P, 3, 2)`` of the patches, in patch order."""
    s = grid.mesh.s
    return np.array([lift.position(p.corners_ij, s) for p in grid.patches])


def round_points(tri: np.ndarray, rng) -> list[np.ndarray]:
    """One round of points, one per equal stratum of the patch order.

    ``locate_patch`` scans patches in order, so the cost of a point
    grows with the index of the patch that holds it.  Drawing one point
    from each stratum keeps that mix the same from seed to seed.
    Most points are interior; a fixed share lies on a patch edge (a
    seam or the domain boundary) or at a patch corner, where the lowest
    containing index must win.
    """
    edges = np.linspace(0, tri.shape[0], ROUND_POINTS + 1).astype(int)
    kinds = (["corner"] * CORNER_POINTS + ["edge"] * EDGE_POINTS
             + ["inside"] * (ROUND_POINTS - EDGE_POINTS - CORNER_POINTS))
    kinds = [kinds[k] for k in rng.permutation(ROUND_POINTS)]
    out = []
    for k in range(ROUND_POINTS):
        a, b, c = tri[rng.integers(edges[k], edges[k + 1])]
        if kinds[k] == "corner":
            p = (a, b, c)[rng.integers(3)]
        elif kinds[k] == "edge":
            t = rng.uniform(0.02, 0.98)
            p, q = [(a, b), (b, c), (c, a)][rng.integers(3)]
            p = (1.0 - t) * p + t * q
        else:
            r1, r2 = rng.uniform(0.02, 0.98, size=2)
            if r1 + r2 > 1.0:
                r1, r2 = 1.0 - r1, 1.0 - r2
            p = a + r1 * (b - a) + r2 * (c - a)
        out.append(np.array(p, dtype=float))
    return [out[k] for k in rng.permutation(ROUND_POINTS)]


def brute_force_owner(tri: np.ndarray, points: np.ndarray, tol=1e-12):
    """Lowest index of a patch containing each point, testing them all."""
    a = tri[:, 0]
    e1 = tri[:, 1] - a
    e2 = tri[:, 2] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    owner = np.full(len(points), -1)
    for k, p in enumerate(points):
        d = p - a
        l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        inside = np.flatnonzero((l1 >= -tol) & (l2 >= -tol)
                                & (1.0 - l1 - l2 >= -tol))
        if inside.size:
            owner[k] = inside[0]
    return owner


def check_evaluations(result, tri, points, outputs) -> int:
    """A point fails unless its value and gradient equal the fit of the
    lowest-index patch that contains it."""
    owner = brute_force_owner(tri, points)
    failed = 0
    for k, out in enumerate(outputs):
        if out is None or owner[k] < 0:
            failed += 1
            continue
        fit = result.fits[owner[k]]
        xy = points[k][None, :]
        value, grad = float(fit(xy)[0]), fit.gradient(xy)[0]
        got_value, got_grad = out
        if not (abs(got_value - value) <= 1e-12 * (1.0 + abs(value))
                and np.allclose(got_grad, grad, rtol=1e-10, atol=1e-10)):
            failed += 1
    if failed:
        print(f"check: {failed} point evaluations differ from the "
              "brute-force patch", file=sys.stderr)
    return failed


# ------------------------------------------------------------ per layer

#: Layer spans whose summed self time is reported; ``_s`` is appended.
LAYER_SPANS = (
    "lattice.build_mesh",
    "system.assemble", "system.expand", "system.interpolate",
    "system.recover_centers",
    "problem.eval",
    "solver.solve",
    "lift.build_patch_grid", "lift.lift_solution",
    "analysis.norms_superclose", "analysis.norm_l2_true",
    "analysis.lift_l2", "analysis.norm_h1_broken_true",
)
#: Layer spans reported as self time per call.
PER_CALL_SPANS = ("lift.locate_patch", "lift.evaluate_lift")
#: Levels with their own iteration count.
ITERATION_LEVELS = range(2, 10)


def layer_metrics(tracer, timed_root: str, reference):
    """Per-layer metrics of one traced process, and the number of
    operations its traced checks fail.

    Layer times are totals over the process (one study, or the lift
    set-up), except the per-call ones.  ``cli.other_s`` is the part of
    the timed spans that no layer span covers: the self time of the
    study driver and of the benchmark loop, per timed unit.
    """
    totals = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == timed_root]
    timed = tracer.self_times(tracer.subtree(roots))
    wall = sum(tracer.spans[r][2] - tracer.spans[r][1] for r in roots)
    uncovered = sum(t for name, t in timed.items() if name.startswith(
        ("cli.", "bench.")))
    m = {f"{name}_s": totals.get(name, 0.0) for name in LAYER_SPANS}
    calls = {name: sum(1 for s in tracer.spans if s[0] == name)
             for name in PER_CALL_SPANS}
    for name, n in calls.items():
        m[f"{name}_s"] = totals[name] / n if n else 0.0
    m["lift.evaluate_lift_calls"] = calls["lift.evaluate_lift"]
    m["cli.other_s"] = uncovered / len(roots)
    m["trace.wall_s"] = wall / len(roots)
    m["trace.coverage"] = 1.0 - uncovered / wall
    timed_spans = len(tracer.subtree(roots))
    m["trace.spans"] = timed_spans // len(roots)
    m["trace.span_cost_s"] = timed_spans * span_cost() / len(roots)
    for name in ("problem.f_points", "problem.u_points",
                 "problem.grad_points", "system.nnz", "system.dofs"):
        m[name] = tracer.counts[name]
    solver_m, failed = solver_metrics(tracer, reference)
    lift_m, lift_failed = lift_metrics(tracer)
    return {**m, **solver_m, **lift_m}, failed + lift_failed


def span_cost(calls=20000) -> float:
    """Seconds a traced call adds to an untraced one, measured here."""
    def noop():
        return None

    traced = spans.Tracer().wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    return ((t1 - t0) - (time.perf_counter() - t1)) / calls


def solver_metrics(tracer, reference):
    """Solver statistics, backward error and the direct-solver reference,
    computed after the timed part from the systems the process solved."""
    m = {"solver.iterations": 0, "solver.direct_s": 0.0,
         "solver.cg_direct_diff": 0.0, "solver.residual": 0.0,
         "solver.recurrence_residual": 0.0, "solver.backward_error": 0.0}
    per_level = dict.fromkeys(ITERATION_LEVELS, 0)
    failed = 0
    solves = [rec for rec in tracer.solves if rec["A"].n > 0]
    for rec in solves:
        A, b, x, stats = rec["A"], rec["b"], rec["x"], rec["stats"]
        failed += check_iterations([(rec["level"], stats.iterations)],
                                   reference)
        per_level[rec["level"]] += stats.iterations
        m["solver.iterations"] += stats.iterations
        m["solver.residual"] = max(m["solver.residual"], stats.residual)
        m["solver.recurrence_residual"] = max(
            m["solver.recurrence_residual"], stats.recurrence_residual)
        scale = (abs(A.to_csr()).sum(axis=1).max() * np.abs(x).max()
                 + np.abs(b).max())
        m["solver.backward_error"] = max(
            m["solver.backward_error"],
            float(np.abs(A @ x - b).max() / scale))
        t0 = time.perf_counter()
        x_direct, _ = solver.solve(A, b, solver.SolverConfig(method="chol"))
        m["solver.direct_s"] += time.perf_counter() - t0
        diff = float(np.abs(x - x_direct).max())
        m["solver.cg_direct_diff"] = max(m["solver.cg_direct_diff"], diff)
        if not diff <= CG_DIRECT_TOL:
            print(f"check: level {rec['level']} CG and direct differ by "
                  f"{diff:.2e}", file=sys.stderr)
            failed += 1
    for level in ITERATION_LEVELS:
        m[f"solver.iterations.l{level}"] = per_level[level]
    # The finest solve: its time per iteration, and the work of one
    # iteration computed (not measured) from n and nnz: one CSR product
    # (2 flops and 12 bytes per nonzero, plus row pointers) and the
    # Jacobi-CG vector work of solver._solve_cg (16 flops and 30 passes
    # over an n-vector of doubles).
    last = solves[-1]
    n, nnz = last["A"].n, int(last["A"].data.size)
    span = [s for s in tracer.spans if s[0] == "solver.solve"][-1]
    m["solver.ms_per_iteration"] = (
        1e3 * (span[2] - span[1]) / max(last["stats"].iterations, 1))
    m["solver.flops_per_iteration"] = float(2 * nnz + 16 * n)
    m["solver.bytes_per_iteration"] = float(12 * nnz + 4 * (n + 1) + 240 * n)
    return m, failed


def lift_metrics(tracer):
    """Patch count and fit conditioning over every lift the process
    fitted; all 0 where the workload fits none."""
    fits = [f for result in tracer.lifts for f in result.fits]
    m = {"lift.patches": sum(g.n_patches for g in tracer.grids),
         "lift.min_rank": min((f.rank for f in fits), default=0),
         "lift.min_sigma_min": min((f.sigma_min for f in fits), default=0.0),
         "lift.max_fit_residual": max((f.residual for f in fits), default=0.0)}
    return m, sum(1 for f in fits if f.rank < 10)


# ------------------------------------------------------------- utilities


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')}-{blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def write_trace(tracer, path):
    """Write the spans as JSON: one ``[name, start, end, parent]`` each."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
