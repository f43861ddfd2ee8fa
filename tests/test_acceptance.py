"""Acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line
(visible with -v as the test outcome, and in captured output with the
measured numbers).  Order gates check dyadic convergence rates; gates
marked absolute compare against frozen reference values.  Criterion 6
sizes the level-5 lift error against the per-patch cubic floor, the
best error any cubic per patch can reach with exact data, which the
test computes itself: the error must lie between the floor and a fixed
multiple of it.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hivevem import cli
from hivevem.cli import StudyConfig, run_study
from hivevem.lattice import build_mesh, position
from hivevem.lift import MONOMIAL_POWERS, build_patch_grid, evaluate_lift, lift_solution
from hivevem.problem import _from_expression, exp, get_problem, sin, zero
from hivevem.quadrature import SUPPORTED_DEGREES, rule
from hivevem.problem import jet_eval, laplacian
from hivevem.solver import SolverConfig, solve
from hivevem.system import assemble, expand, interpolate, recover_centers
from hivevem.analysis import norm_h1_broken_true, norm_l2_true, observed_order
from cells import census
from schemes import scheme_lift
from triangles import integrate, patch_subtriangles, triangle_area

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def study(request):
    """Levels 2..7, CG at tol 1e-14, lift enabled; timed once."""
    start = time.perf_counter()
    rows = run_study(StudyConfig(min_level=2, max_level=7, lift_enabled=True))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def row(rows, level):
    return next(r for r in rows if r.level == level)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} :: {detail}"
    print(line)
    assert ok, line


def report_parts(criterion, parts):
    """:func:`report` over named sub-checks ``(name, ok, info)``."""
    report(criterion, all(ok for _, ok, _ in parts), "; ".join(
        f"{name} {'ok' if ok else 'FAIL'} ({info})" for name, ok, info in parts))


def cubic():
    """The full cubic that criterion 7 reproduces."""
    return _from_expression(
        "cubic",
        lambda X, Y: 0.3 + X - 0.5 * Y + X * Y + 0.25 * X * X - Y * Y
        + 0.1 * X ** 3 - 0.2 * X * X * Y + 0.15 * X * Y * Y + 0.05 * Y ** 3,
    )


def scheme_rows(scheme, levels=(4, 5, 6)):
    """The lift columns of a hex-sine study under a reference ``scheme``
    of ``schemes.py``, built with the direct solve and fitted patch by
    patch: rows with ``level``, ``e_lift_l2``, ``e_lift_h1h`` and their
    orders ``r_lift_*``, the 0.0 sentinel on the first.  The study fits
    only the program's scheme."""
    problem = get_problem("hex-sine")
    errors = []
    for level in levels:
        mesh = build_mesh(level)
        A, b, center_load = assemble(mesh, problem)
        u_h = expand(solve(A, b, SolverConfig(method="chol"))[0], mesh)
        lifted = scheme_lift(u_h, problem, build_patch_grid(mesh), scheme)[0]
        errors.append(norm_l2_true(
            recover_centers(u_h, center_load), problem, lift=lifted)[1:])
    return [SimpleNamespace(level=level, e_lift_l2=e[0], e_lift_h1h=e[1],
                            r_lift_l2=observed_order(prev[0], e[0]),
                            r_lift_h1h=observed_order(prev[1], e[1]))
            for level, prev, e in zip(levels, [(None, None), *errors], errors)]


def cubic_floor(grid, problem):
    """Per-patch cubic best-approximation errors of ``problem.u``.

    Returns the L2 projection error and the H1-seminorm projection
    error modulo constants, each the root of the summed per-patch
    weighted least-squares residuals.  The points are the degree-8 rule
    on each patch's 16 subtriangles, weighted by the subtriangles' own
    areas; monomials are taken about the patch's vertex mean, scaled by
    the patch edge 4s.
    """
    q = rule(8)
    tri = grid.mesh.node_xy[grid.mesh.tris[patch_subtriangles(grid)]]  # (P, 16, 3, 2)
    d1 = tri[..., 1, :] - tri[..., 0, :]
    d2 = tri[..., 2, :] - tri[..., 0, :]
    area = 0.5 * np.abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    xy = np.einsum("qk,ptkx->ptqx", q.points, tri).reshape(len(tri), -1, 2)
    sw = np.sqrt(area[..., None] * q.weights).reshape(len(tri), -1)
    scale = 4.0 * grid.mesh.s
    local = (xy - tri.mean(axis=(1, 2))[:, None]) / scale
    X, Y = local[..., 0, None], local[..., 1, None]
    a, b = np.array([(a, t - a) for t in range(4) for a in range(t + 1)]).T
    value = X ** a * Y ** b
    dx = a * X ** np.maximum(a - 1, 0) * Y ** b / scale
    dy = b * X ** a * Y ** np.maximum(b - 1, 0) / scale
    u = problem.u(xy[..., 0], xy[..., 1])
    _, ux, uy = problem.grad_u(xy[..., 0], xy[..., 1])

    def residual_sq(design, rhs):
        c = np.linalg.lstsq(design, rhs, rcond=None)[0]
        return float(np.sum((design @ c - rhs) ** 2))

    l2 = h1 = 0.0
    for p in range(len(tri)):
        w = sw[p, :, None]
        l2 += residual_sq(w * value[p], sw[p] * u[p])
        h1 += residual_sq(
            np.concatenate([w * dx[p, :, 1:], w * dy[p, :, 1:]]),
            np.concatenate([sw[p] * ux[p], sw[p] * uy[p]]),
        )
    return math.sqrt(l2), math.sqrt(h1)


def test_criterion_1_mesh_integrity():
    start = time.perf_counter()
    censuses = {}
    checks = []
    for level in range(1, 9):
        mesh = build_mesh(level)
        xy = mesh.node_xy[mesh.tris]
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        area_ok = (
            signed.min() > 0
            and abs(signed.sum() - 1.5 * SQRT3) <= 1e-12 * 1.5 * SQRT3
        )
        edges = np.sort(
            mesh.tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1
        )
        _, counts = np.unique(edges, axis=0, return_counts=True)
        conforming = set(np.unique(counts)) <= {1, 2}
        closed = (counts == 1).sum() == 6 * mesh.n
        checks.append(area_ok and conforming and closed)
        censuses[level] = census(mesh)
    elapsed = time.perf_counter() - start
    census_ok = (
        censuses[1] == (1, 0, 0)
        and censuses[2] == (1, 6, 0)
        and censuses[3] == (13, 6, 0)
    )
    report(
        "1 mesh integrity",
        all(checks) and census_ok and elapsed < 10.0,
        f"levels 1-8 in {elapsed:.2f}s; censuses {censuses[1]}, "
        f"{censuses[2]}, {censuses[3]}; area/conformity "
        f"{'ok' if all(checks) else 'violated'}",
    )


def test_criterion_2_uniqueness():
    problem = zero()
    worst = 0.0
    for level in range(2, 6):
        mesh = build_mesh(level)
        A, b, _ = assemble(mesh, problem)
        x, _ = solve(A, b, SolverConfig(method="chol"))
        worst = max(worst, float(np.max(np.abs(expand(x, mesh).values))))
    report(
        "2 uniqueness",
        worst <= 1e-12,
        f"f = 0 gives max|u_h| = {worst:.2e} over levels 2-5 (gate 1e-12)",
    )


def test_criterion_3_superclose_orders(study):
    rows, elapsed = study
    wide = all(
        3.7 <= r <= 4.3
        for level in (5, 6, 7)
        for r in (
            row(rows, level).r_ih_l2,
            row(rows, level).r_ih_h1,
            row(rows, level).r_ih_linf,
        )
    )
    r7 = (row(rows, 7).r_ih_l2, row(rows, 7).r_ih_h1, row(rows, 7).r_ih_linf)
    tight = all(3.9 <= r <= 4.1 for r in r7)
    report(
        "3 superclose orders",
        wide and tight and elapsed < 60.0,
        f"levels 5-7 in [3.7,4.3]: {wide}; level 7 {tuple(round(r, 2) for r in r7)}"
        f" in [3.9,4.1]: {tight}; study {elapsed:.1f}s",
    )


def test_criterion_4_superclose_absolute(study):
    rows, _ = study
    r4 = row(rows, 4)
    got = (r4.e_ih_l2, r4.e_ih_h1, r4.e_ih_linf)
    want = (7.358e-6, 2.118e-5, 9.840e-6)
    ok = all(abs(g - w) <= 0.25 * w for g, w in zip(got, want))
    report(
        "4 superclose absolute",
        ok,
        "level-4 norms " + ", ".join(f"{g:.3e}" for g in got)
        + " vs " + ", ".join(f"{w:.3e}" for w in want) + " within 25%",
    )


def test_criterion_5_optimal_order(study):
    rows, _ = study
    rates = [row(rows, level).r_l2 for level in (5, 6, 7)]
    e5 = row(rows, 5).e_l2
    ok_rates = all(1.95 <= r <= 2.05 for r in rates)
    ok_abs = abs(e5 - 6.179e-4) <= 0.05 * 6.179e-4
    report(
        "5 optimal L2 order",
        ok_rates and ok_abs,
        f"orders {tuple(round(r, 3) for r in rates)} in [1.95,2.05]: {ok_rates}; "
        f"level-5 error {e5:.4e} vs 6.179e-4 within 5%: {ok_abs}",
    )


def test_criterion_6_lift(study):
    rows, _ = study
    sub = []

    l2_rates = [row(rows, level).r_lift_l2 for level in (5, 6)]
    h1_rates = [row(rows, level).r_lift_h1h for level in (5, 6)]
    sub.append((
        "L2 order",
        all(3.8 <= r <= 4.2 for r in l2_rates),
        f"{tuple(round(r, 2) for r in l2_rates)}",
    ))
    sub.append((
        "H1h order",
        all(2.9 <= r <= 3.1 for r in h1_rates),
        f"{tuple(round(r, 2) for r in h1_rates)}",
    ))

    # The level-5 error is sized against the per-patch cubic floor, the
    # best any cubic per patch reaches with exact data.  This replaces
    # two frozen targets, L2 1.464e-5 and H1h 3.256e-4: they lie below
    # that floor (2.90e-5 and 2.24e-3), so no cubic patch lift can meet
    # them, and no file gives their source.  The upper bounds leave
    # about 10% over the measured 1.80 and 1.135 and reject a lift with
    # the right orders but the wrong constant (paper11-corrected: 2.51
    # and 1.50).
    grid5 = build_patch_grid(build_mesh(5))
    floor_l2, floor_h1 = cubic_floor(grid5, get_problem("hex-sine"))
    e5_l2 = row(rows, 5).e_lift_l2
    e5_h1 = row(rows, 5).e_lift_h1h
    sub.append((
        "L2 vs cubic floor",
        floor_l2 <= e5_l2 <= 2.0 * floor_l2,
        f"{e5_l2:.3e} = {e5_l2 / floor_l2:.3f} x floor {floor_l2:.3e}, in [1, 2]",
    ))
    sub.append((
        "H1h vs cubic floor",
        floor_h1 <= e5_h1 <= 1.25 * floor_h1,
        f"{e5_h1:.3e} = {e5_h1 / floor_h1:.3f} x floor {floor_h1:.3e}, in [1, 1.25]",
    ))

    oracle = scheme_rows("oracle-center")
    o_l2 = [row(oracle, level).r_lift_l2 for level in (5, 6)]
    o_h1 = [row(oracle, level).r_lift_h1h for level in (5, 6)]
    sub.append((
        "oracle-center orders",
        all(3.8 <= r <= 4.2 for r in o_l2) and all(2.9 <= r <= 3.1 for r in o_h1),
        f"L2 {tuple(round(r, 2) for r in o_l2)}, H1h {tuple(round(r, 2) for r in o_h1)}",
    ))

    # The floor itself: round-off for a cubic, and below the error of
    # the lift from exact centre values.
    cubic_l2, cubic_h1 = cubic_floor(grid5, cubic())
    o5 = row(oracle, 5)
    sub.append((
        "floor check",
        max(cubic_l2, cubic_h1) <= 1e-12
        and floor_l2 <= o5.e_lift_l2 and floor_h1 <= o5.e_lift_h1h,
        f"cubic {cubic_l2:.1e}, {cubic_h1:.1e} (gate 1e-12); oracle-center "
        f"level 5 at {o5.e_lift_l2 / floor_l2:.3f}, {o5.e_lift_h1h / floor_h1:.3f} x floor",
    ))

    # reported without a gate
    for scheme in ("paper11-plain", "paper11-corrected"):
        extra = scheme_rows(scheme)
        rates = [row(extra, level).r_lift_l2 for level in (5, 6)]
        print(f"  (report) {scheme}: L2 rates "
              f"{tuple(round(r, 2) for r in rates)}, "
              f"level-5 error {row(extra, 5).e_lift_l2:.3e}")

    report_parts("6 lift accuracy", sub)


def hex_exp_problem():
    """exp(0.3x - 0.5y + 0.2xy) times hex-sine's three sine factors: it
    vanishes on the same six edges, with no symmetry."""
    half_pi = 0.5 * math.pi

    def expr(X, Y):
        return (
            exp(0.3 * X - 0.5 * Y + 0.2 * X * Y)
            * sin(half_pi * (Y / SQRT3 + X + 1.0))
            * sin(half_pi * (Y / SQRT3 - X + 1.0))
            * sin((math.pi / SQRT3) * (Y + 0.5 * SQRT3))
        )

    return _from_expression("hex-exp", expr)


def test_orders_on_a_solution_with_no_symmetry(monkeypatch):
    """Hex-sine is even in x, so the two mirrored lift frames always see
    mirrored data.  ``hex_exp_problem`` has no symmetry; its study keeps
    the orders of criteria 3, 5 and 6 and criterion 6's floor ratios.
    Only orders and ratios are gated, no absolute values."""
    hex_exp = hex_exp_problem()
    monkeypatch.setattr(cli, "get_problem", lambda name: hex_exp)
    rows = run_study(StudyConfig(min_level=4, max_level=7, lift_enabled=True))
    levels = (5, 6, 7)
    sub = []
    superclose = [(row(rows, level).r_ih_l2, row(rows, level).r_ih_h1,
                   row(rows, level).r_ih_linf) for level in levels]
    sub.append((
        "superclose orders",
        all(3.7 <= r <= 4.3 for rates in superclose for r in rates)
        and all(3.9 <= r <= 4.1 for r in superclose[-1]),
        f"{min(map(min, superclose)):.2f}-{max(map(max, superclose)):.2f}",
    ))
    for name, column, low, high in (("true L2 order", "r_l2", 1.95, 2.05),
                                    ("lift L2 order", "r_lift_l2", 3.8, 4.2),
                                    ("lift H1h order", "r_lift_h1h", 2.9, 3.1)):
        rates = [getattr(row(rows, level), column) for level in levels]
        sub.append((name, all(low <= r <= high for r in rates),
                    f"{tuple(round(r, 2) for r in rates)} in [{low}, {high}]"))

    floor_l2, floor_h1 = cubic_floor(build_patch_grid(build_mesh(5)), hex_exp)
    ratio_l2 = row(rows, 5).e_lift_l2 / floor_l2
    ratio_h1 = row(rows, 5).e_lift_h1h / floor_h1
    sub.append((
        "level-5 floor ratios",
        1.0 <= ratio_l2 <= 2.0 and 1.0 <= ratio_h1 <= 1.25,
        f"L2 {ratio_l2:.3f} in [1, 2], H1h {ratio_h1:.3f} in [1, 1.25]",
    ))

    report_parts("no-symmetry orders", sub)


def extrapolation_errors(fields, problem):
    """max |u - (16 u_h^l - u_h^(l-1)) / 15| over the free vertices of
    each coarser level of ``fields``, (mesh, u_h) at consecutive levels.
    Every free vertex (i, j) of level l - 1 is the vertex (2i, 2j) of
    level l."""
    errors = []
    for (coarse, u_coarse), (fine, u_fine) in zip(fields, fields[1:]):
        i, j = coarse.node_ij[coarse.free].T
        nodes = fine.index(2 * i, 2 * j)
        assert np.all(nodes >= 0)
        fine_values = u_fine.values[nodes]
        extrapolated = (16.0 * fine_values - u_coarse.values[coarse.free]) / 15.0
        x, y = coarse.node_xy[coarse.free].T
        errors.append(float(np.max(np.abs(problem.u(x, y) - extrapolated))))
    return errors


@pytest.mark.parametrize("name", ["hex-sine", "hex-exp"])
def test_extrapolated_nodal_values_are_sixth_order(name, solved_cache):
    """The nodal error of u_h behaves like h**4 w, so Richardson's
    ``(16 u_h^l - u_h^(l-1)) / 15`` is sixth order at the vertices: its
    order lies in [5.8, 6.2] for the level pairs 4->5 to 6->7 on
    hex-sine and 4->5 and 5->6 on hex-exp.  The abstract does not claim
    it.  Beyond these pairs the round-off of the operator's row sums,
    from the one-ulp entry of ``system.ELEMENT_STIFFNESS``, breaks the
    order.  Only orders are gated.  Hex-sine reuses
    the session's CG solves; hex-exp solves by CG, as the study does."""
    if name == "hex-sine":
        problem, levels = get_problem(name), range(3, 8)
        fields = [solved_cache(level)[:2] for level in levels]
    else:
        problem, levels = hex_exp_problem(), range(3, 7)
        fields = []
        for level in levels:
            mesh = build_mesh(level)
            A, b, _ = assemble(mesh, problem)
            fields.append((mesh, expand(solve(A, b)[0], mesh)))
    errors = extrapolation_errors(fields, problem)
    rates = [math.log2(prev / e) for prev, e in zip(errors, errors[1:])]
    report(
        f"sixth-order extrapolation ({name})",
        all(5.8 <= r <= 6.2 for r in rates),
        f"pairs {levels[0]}->{levels[1]} on: errors "
        f"{', '.join(f'{e:.3e}' for e in errors)}; orders "
        f"{tuple(round(r, 3) for r in rates)} in [5.8, 6.2]",
    )


#: Vertices of a patch's 16 subtriangles as steps (a, b) from its
#: corner 0, in quarters of its edges to corners 1 and 2.
PATCH_SUBTRIANGLES_AB = np.array(
    [[(a, b), (a + 1, b), (a, b + 1)] for a in range(4) for b in range(4 - a)]
    + [[(a + 1, b), (a, b + 1), (a + 1, b + 1)]
       for a in range(3) for b in range(3 - a)])


def lift_max_error(lifted, problem):
    """max |u - lift| over the degree-6 points of every patch's 16
    subtriangles, each point on its own patch's cubic.  The points are
    built from ``corners_ij`` and the cubic is summed term by term over
    ``MONOMIAL_POWERS`` in the frame rebuilt from the corners, origin at
    their mean and coordinates over the edge 4s, for all patches at once."""
    grid = lifted.grid
    s = grid.mesh.s
    a, b = np.einsum("qk,tka->atq", rule(6).points, PATCH_SUBTRIANGLES_AB).reshape(2, -1)
    corners = grid.corners_ij.astype(float)                        # (P, 3, 2)
    steps = (corners[:, 1:] - corners[:, :1]) / 4.0                # (P, 2, 2)
    ij = (corners[:, None, 0] + a[:, None] * steps[:, None, 0]
          + b[:, None] * steps[:, None, 1])                         # (P, 16 nq, 2)
    x, y = np.moveaxis(position(ij, s), -1, 0).copy()              # (P, 16 nq) each
    origin = position(corners, s).mean(axis=1)
    X, Y = (x - origin[:, :1]) / (4.0 * s), (y - origin[:, 1:]) / (4.0 * s)
    powers_x, powers_y = [1.0, X, X * X, X * X * X], [1.0, Y, Y * Y, Y * Y * Y]
    value = np.zeros(X.shape)
    for c, (i, j) in zip(lifted.coeffs.T, MONOMIAL_POWERS):
        value += c[:, None] * powers_x[i] * powers_y[j]
    return float(np.max(np.abs(problem.u(x, y) - value)))


@pytest.mark.parametrize("name", ["hex-sine", "hex-exp"])
def test_lift_max_norm_order(name, solved_cache):
    """The abstract's lift is of optimal order in the max norm too: the
    order of ``lift_max_error`` lies in criterion 6's L2 window [3.8, 4.2]
    at levels 6-8.  No absolute value is gated.  Both solve by CG, as
    the study does; hex-sine reuses the session's solves."""
    problem = get_problem(name) if name == "hex-sine" else hex_exp_problem()
    errors = []
    for level in (5, 6, 7, 8):
        if name == "hex-sine":
            mesh, u_h, _, _ = solved_cache(level)
        else:
            mesh = build_mesh(level)
            A, b, _ = assemble(mesh, problem)
            u_h = expand(solve(A, b)[0], mesh)
        lifted = lift_solution(u_h, problem, build_patch_grid(mesh))
        errors.append(lift_max_error(lifted, problem))
    rates = [math.log2(prev / e) for prev, e in zip(errors, errors[1:])]
    report(
        f"lift max-norm order ({name})",
        all(3.8 <= r <= 4.2 for r in rates),
        f"levels 5-8 errors {', '.join(f'{e:.3e}' for e in errors)}; "
        f"orders {tuple(round(r, 3) for r in rates)} in [3.8, 4.2]",
    )


def test_criterion_7_lift_algebra(patch_cubic):
    q = cubic()
    mesh = build_mesh(4)
    grid = build_patch_grid(mesh)
    lifted = lift_solution(interpolate(q, mesh), q, grid)
    repro = max(
        float(np.max(np.abs(
            patch_cubic(lifted, p, xy)[0] - np.asarray(q.u(xy[:, 0], xy[:, 1]))
        )))
        for p, xy in enumerate(mesh.node_xy[grid.site_nodes])
    )

    # Ranks and smallest singular values belong to the design matrices,
    # so the per-patch fits of the zero field give them.
    def zero_lift(level, scheme):
        mesh = build_mesh(level)
        grid = build_patch_grid(mesh)
        return scheme_lift(interpolate(zero(), mesh), zero(), grid, scheme)

    ranks = zero_lift(3, "paper11-plain")[1]
    sigma_min = min(
        float(zero_lift(level, "lattice15-corrected")[2].min())
        for level in (3, 4, 5, 6)
    )

    ok = repro <= 1e-12 and all(r == 10 for r in ranks) and sigma_min > 0.01
    report(
        "7 lift algebra",
        ok,
        f"cubic reproduction {repro:.1e} (gate 1e-12); level-3 ranks "
        f"{sorted(set(ranks))}; min sigma_min {sigma_min:.4f} (gate 0.01)",
    )


def test_criterion_8_numerics_hygiene(mesh_cache, hex_sine):
    # quadrature exactness against the factorial formula
    tri = np.array([[0.1, -0.2], [1.4, 0.3], [0.2, 1.1]])
    worst_quad = 0.0
    for degree in SUPPORTED_DEGREES:
        q = rule(degree)
        T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        Tinv = np.linalg.inv(T)
        area = triangle_area(tri)
        for total in range(degree + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b

                    def g(x, y, a=a, b=b, c=c):
                        p = np.stack([x, y], axis=-1) - tri[0]
                        lam = p @ Tinv.T
                        l1 = 1.0 - lam[..., 0] - lam[..., 1]
                        return l1 ** a * lam[..., 0] ** b * lam[..., 1] ** c

                    f = math.factorial
                    want = 2 * area * f(a) * f(b) * f(c) / f(a + b + c + 2)
                    got = integrate(tri, g, q)
                    worst_quad = max(worst_quad, abs(got - want) / abs(want))

    # jets against central differences
    def expr(X, Y):
        return sin(1.3 * X) * exp(0.4 * Y) + X * X * Y

    def val(x, y):
        return jet_eval(expr, x, y)[0]

    worst_ad = 0.0
    h = 2e-4
    for x, y in [(0.2, -0.3), (0.5, 0.1), (-0.4, 0.4)]:
        fd = (
            (val(x + h, y) - 2 * val(x, y) + val(x - h, y)) / h ** 2
            + (val(x, y + h) - 2 * val(x, y) + val(x, y - h)) / h ** 2
        )
        got = laplacian(expr, x, y)
        worst_ad = max(worst_ad, abs(got - fd) / max(abs(fd), 1.0))

    # CG against the direct factorization
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    x_cg, _ = solve(A, b, SolverConfig(method="cg"))
    x_chol, _ = solve(A, b, SolverConfig(method="chol"))
    solver_gap = float(np.max(np.abs(x_cg - x_chol)))

    # lift gradient against central differences
    mesh = mesh_cache(4)
    A2, b2, _ = assemble(mesh, hex_sine)
    xs, _ = solve(A2, b2, SolverConfig(method="chol"))
    lifted = lift_solution(
        expand(xs, mesh), hex_sine, build_patch_grid(mesh)
    )
    worst_grad = 0.0
    hg = 1e-6
    for x, y in [(0.11, 0.07), (-0.23, 0.31), (0.4, -0.2)]:
        _, (gx, gy) = evaluate_lift(lifted, (x, y))
        fx = (evaluate_lift(lifted, (x + hg, y))[0]
              - evaluate_lift(lifted, (x - hg, y))[0]) / (2 * hg)
        fy = (evaluate_lift(lifted, (x, y + hg))[0]
              - evaluate_lift(lifted, (x, y - hg))[0]) / (2 * hg)
        scale = max(abs(fx), abs(fy), 1.0)
        worst_grad = max(worst_grad, abs(gx - fx) / scale, abs(gy - fy) / scale)

    ok = (
        worst_quad <= 1e-13
        and worst_ad <= 1e-6
        and solver_gap <= 1e-10
        and worst_grad <= 1e-6
    )
    report(
        "8 numerics hygiene",
        ok,
        f"quadrature {worst_quad:.1e} (1e-13); jets-vs-FD {worst_ad:.1e} (1e-6); "
        f"cg-vs-direct {solver_gap:.1e} (1e-10); lift gradient {worst_grad:.1e} (1e-6)",
    )
