"""In-memory span tracing around the public functions of each layer.

The benchmark records spans from outside the program: :func:`instrument`
replaces module attributes of ``hivevem`` with wrappers that open a span
around each call and restores them on exit.  Callers inside the package
look these names up at call time (``system.assemble``, ``solver.solve``,
the ``build_mesh`` name imported into ``cli`` ...), so the wrappers see
every call the study driver makes.  Nothing is written until the caller
asks for it at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict


class Tracer:
    """Spans ``[name, start, end, parent]`` kept in one list.

    ``parent`` is the index of the enclosing span, or -1 for a root.
    The run is single-threaded, so one stack gives the nesting.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solves: list[dict] = []      # A, b, x, stats, level per solve
        self.grids: list = []             # patch grids built
        self.lifts: list = []             # lift results fitted
        self.level = 0                    # level of the most recent mesh

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, spans=None) -> dict[str, float]:
        """Summed self time per span name: duration minus the part of
        it that child spans cover (children nest strictly)."""
        spans = self.spans if spans is None else spans
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(spans):
            out[name] += (end - start) - child_time[index]
        return dict(out)

    def subtree(self, roots: list[int]) -> list[list]:
        """Spans descending from the given root indices, roots included,
        with parents re-indexed into the returned list."""
        roots = set(roots)
        keep = {}
        for index, (_, _, _, parent) in enumerate(self.spans):
            if index in roots or parent in keep:
                keep[index] = len(keep)
        out = []
        for index in keep:
            name, start, end, parent = self.spans[index]
            out.append([name, start, end, keep.get(parent, -1)])
        return out


def _points(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def traced_problem(tracer: Tracer, problem):
    """A copy of a manufactured problem whose callables are counted and
    timed as the ``problem`` layer."""

    def wrap(kind, fn):
        def call(x, y):
            tracer.counts[f"problem.{kind}_points"] += _points(x)
            with tracer.span("problem.eval"):
                return fn(x, y)
        return call

    return dataclasses.replace(
        problem,
        u=wrap("u", problem.u),
        grad_u=wrap("grad", problem.grad_u),
        f=wrap("f", problem.f),
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points that ``cli.run_study`` and the
    lift-eval loop reach; restore the originals on exit."""
    from hivevem import analysis, cli, lift, solver, system

    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def plain(module, attr, name):
        patch(module, attr, tracer.wrap(name, getattr(module, attr)))

    build_mesh = cli.build_mesh

    def traced_build_mesh(level, *args, **kwargs):
        tracer.level = level
        with tracer.span("lattice.build_mesh"):
            return build_mesh(level, *args, **kwargs)

    get_problem = cli.get_problem

    def traced_get_problem(name):
        return traced_problem(tracer, get_problem(name))

    assemble = system.assemble

    def traced_assemble(*args, **kwargs):
        with tracer.span("system.assemble"):
            A, b, dofs = assemble(*args, **kwargs)
        tracer.counts["system.nnz"] = int(A.data.size)
        tracer.counts["system.dofs"] = int(A.n)
        return A, b, dofs

    solve = solver.solve

    def traced_solve(A, b, config=None):
        with tracer.span("solver.solve"):
            x, stats = solve(A, b, config)
        tracer.solves.append(
            {"A": A, "b": b, "x": x, "stats": stats, "level": tracer.level}
        )
        return x, stats

    norm_l2_true = analysis.norm_l2_true

    def traced_norm_l2_true(approx, *args, **kwargs):
        name = ("analysis.lift_l2" if isinstance(approx, lift.LiftResult)
                else "analysis.norm_l2_true")
        with tracer.span(name):
            return norm_l2_true(approx, *args, **kwargs)

    build_patch_grid = lift.build_patch_grid

    def traced_build_patch_grid(mesh):
        with tracer.span("lift.build_patch_grid"):
            grid = build_patch_grid(mesh)
        tracer.grids.append(grid)
        return grid

    lift_solution = lift.lift_solution

    def traced_lift_solution(*args, **kwargs):
        with tracer.span("lift.lift_solution"):
            result = lift_solution(*args, **kwargs)
        tracer.lifts.append(result)
        return result

    try:
        patch(cli, "build_mesh", traced_build_mesh)
        patch(cli, "get_problem", traced_get_problem)
        patch(cli, "study_row", tracer.wrap("cli.study_row", cli.study_row))
        patch(system, "assemble", traced_assemble)
        plain(system, "expand", "system.expand")
        plain(system, "interpolate", "system.interpolate")
        plain(system, "recover_centers", "system.recover_centers")
        patch(solver, "solve", traced_solve)
        plain(analysis, "norms_superclose", "analysis.norms_superclose")
        patch(analysis, "norm_l2_true", traced_norm_l2_true)
        plain(analysis, "norm_h1_broken_true", "analysis.norm_h1_broken_true")
        patch(lift, "build_patch_grid", traced_build_patch_grid)
        patch(lift, "lift_solution", traced_lift_solution)
        plain(lift, "evaluate_lift", "lift.evaluate_lift")
        if hasattr(lift, "locate_patch"):
            plain(lift, "locate_patch", "lift.locate_patch")
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
