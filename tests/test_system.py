"""Assembly checked against dense re-computation and hand geometry.

The condensed matrix is rebuilt densely here as C^T K C from scratch
(numpy only) and compared entry for entry, and the centre recovery is
checked by its exactness on cubics.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hivevem.lattice import build_mesh
from hivevem.problem import ManufacturedProblem, _from_expression, get_problem, hex_sine
from hivevem import quadrature
from hivevem import system
from hivevem.quadrature import rule
from hivevem.solver import SolverConfig, solve
from hivevem.system import (
    ELEMENT_STIFFNESS,
    FieldP1,
    SparseSpd,
    assemble,
    expand,
    interpolate,
    load_vector,
    prolongation,
    recover_centers,
    refinement_transfer,
    stiffness,
)
from triangles import integrate, p1_gradients

SQRT3 = math.sqrt(3.0)


def cubic_problem():
    return _from_expression(
        "cubic",
        lambda X, Y: 0.3 + X - 0.5 * Y + X * Y + 0.25 * X * X - Y * Y
        + 0.1 * X ** 3 - 0.2 * X * X * Y + 0.15 * X * Y * Y + 0.05 * Y ** 3,
    )


def constraint_gap(field):
    """Largest violation of the centre-mean and boundary conditions."""
    mesh = field.mesh
    avg = field.values[mesh.center_corners].mean(axis=1)
    gap = np.max(np.abs(field.values[mesh.centers] - avg), initial=0.0)
    return max(gap, np.max(np.abs(field.values[mesh.on_boundary])))


# --------------------------------------------------------------- stiffness


@pytest.mark.parametrize("s", [1.0, 0.25, 2.0 ** -6])
def test_element_stiffness_frozen_values(s):
    """The one stiffness is that of an equilateral triangle of any edge."""
    want = np.full((3, 3), -0.5 / SQRT3)
    np.fill_diagonal(want, 1.0 / SQRT3)
    assert np.allclose(ELEMENT_STIFFNESS, want, atol=1e-14)
    verts = s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * SQRT3]])
    grads, area = p1_gradients(verts[None])
    assert np.array_equal(area[0] * (grads[0] @ grads[0].T), ELEMENT_STIFFNESS)
    assert ELEMENT_STIFFNESS[0, 1] == float.fromhex("-0x1.279a74590331cp-2")


def test_element_stiffness_from_scratch():
    """Gradients solved from the linear system phi_i(v_j) = delta_ij."""
    s = 0.5
    verts = np.array([[0.2, -0.1],
                      [0.2 + s, -0.1],
                      [0.2 + 0.5 * s, -0.1 + 0.5 * SQRT3 * s]])
    V = np.column_stack([np.ones(3), verts])  # phi = a + b x + c y
    coeff = np.linalg.solve(V, np.eye(3))
    grads = coeff[1:, :].T  # (3, 2)
    area = SQRT3 / 4 * s * s
    ke = area * grads @ grads.T
    assert np.allclose(ke, ELEMENT_STIFFNESS, atol=1e-14)


def test_p1_gradients_duality():
    rng = np.random.default_rng(7)
    tri = rng.normal(size=(1, 3, 2))
    # enforce counterclockwise
    d1 = tri[0, 1] - tri[0, 0]
    d2 = tri[0, 2] - tri[0, 0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        tri = tri[:, [0, 2, 1]]
    grads, area = p1_gradients(tri)
    assert area[0] > 0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            step = tri[0, i] - tri[0, j]
            assert grads[0, i] @ step == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("level", range(1, 8))
def test_stencil_stiffness_is_the_element_sum_bit_for_bit(level, mesh_cache):
    """The lattice-stencil K equals the sum of the element matrices over
    the subtriangles, summed by scipy from a COO list, in every array of
    its CSR."""
    d = np.diag(ELEMENT_STIFFNESS)
    assert d[0] == d[1] == d[2]   # the premise of the diagonal's sum
    mesh = mesh_cache(level)
    tris = mesh.tris.astype(np.int32)
    want = sp.coo_matrix(
        (
            np.tile(ELEMENT_STIFFNESS.ravel(), mesh.n_tris),
            (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()),
        ),
        shape=(mesh.n_nodes, mesh.n_nodes),
    ).tocsr()
    got = stiffness(mesh)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("level", range(1, 8))
def test_operator_is_the_condensed_product_bit_for_bit(level, mesh_cache):
    """``operator`` forms ``C^T (K C)`` in CSR; in canonical form it
    equals ``(C^T K) C`` in every array, and its ``C`` is the
    prolongation."""
    mesh = mesh_cache(level)
    C = prolongation(mesh)
    got, got_C = system.operator(mesh)
    assert got.format == "csr"
    assert (got_C != C).nnz == 0
    for name in ("indptr", "indices", "data"):
        a = getattr(SparseSpd(got.copy()).to_csr(), name)
        b = getattr(SparseSpd(C.T @ stiffness(mesh) @ C).to_csr(), name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ------------------------------------------------------------- free nodes


@pytest.mark.parametrize("level, n_free", [
    (1, 0), (2, 6), (3, 24), (4, 114), (5, 480), (6, 1986)])
def test_dof_counts(level, n_free, mesh_cache, hex_sine):
    """``mesh.free``, the centres and the boundary nodes partition the
    nodes; ``free`` ascends and numbers the rows of the system."""
    mesh = mesh_cache(level)
    free = mesh.free
    assert free.size == n_free
    owner = np.zeros(mesh.n_nodes, dtype=int)
    for nodes in (free, mesh.centers, np.flatnonzero(mesh.on_boundary)):
        np.add.at(owner, nodes, 1)
    assert np.all(owner == 1)
    assert np.all(np.diff(free) > 0)
    A, _, _ = assemble(mesh, hex_sine)
    assert A.n == free.size


def test_expand_places_sixths_at_centers(mesh_cache):
    mesh = mesh_cache(2)
    x = np.zeros(mesh.free.size)
    x[0] = 1.0
    field = expand(x, mesh)
    node = mesh.free[0]
    assert field.values[node] == 1.0
    # level 2 has a single centre whose six corners are the six dofs
    c = mesh.centers[0]
    assert field.values[c] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert constraint_gap(field) <= 1e-15
    assert np.array_equal(field.values[mesh.free], x)


def test_expand_validates_length(mesh_cache):
    mesh = mesh_cache(2)
    with pytest.raises(ValueError):
        expand(np.zeros(mesh.free.size + 1), mesh)


def test_prolongation_rows(mesh_cache):
    mesh = mesh_cache(3)
    C = prolongation(mesh)
    assert C.shape == (mesh.n_nodes, mesh.free.size)
    dense = C.toarray()
    assert np.all(dense[mesh.on_boundary] == 0)
    for k, node in enumerate(mesh.free):
        row = dense[node]
        assert row[k] == 1.0 and np.count_nonzero(row) == 1
    is_free = np.isin(np.arange(mesh.n_nodes), mesh.free)
    for c, ring in zip(mesh.centers, mesh.center_corners):
        row = dense[c]
        assert np.count_nonzero(row) == int(is_free[ring].sum())
        assert np.all(row[row != 0] == pytest.approx(1.0 / 6.0))


def coo_prolongation(mesh):
    """The prolongation summed by scipy from a COO list."""
    n_free = mesh.free.size
    dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    dof[mesh.free] = np.arange(n_free)
    corner_dofs = dof[mesh.center_corners].ravel()
    keep = corner_dofs >= 0
    rows = np.r_[mesh.free, np.repeat(mesh.centers, 6)[keep]]
    cols = np.r_[np.arange(n_free), corner_dofs[keep]]
    vals = np.r_[np.ones(n_free), np.full(int(keep.sum()), 1.0 / 6.0)]
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, n_free))


def coo_transfer(coarse, fine, C):
    """The refinement transfer with its injection summed by scipy from a
    COO list: half of each end of the coarse edge through a fine free
    node, the two halves of one coarse node added together."""
    ij = fine.node_ij[fine.free]
    odd = ij & 1
    step = np.stack([odd[:, 0], odd[:, 1] * (1 - 2 * odd[:, 0])], axis=1)
    ends = np.concatenate([ij - step, ij + step]) // 2
    cols = coarse.index(ends[:, 0], ends[:, 1])
    rows = np.tile(np.arange(ij.shape[0]), 2)
    inject = sp.csr_matrix(
        (np.full(rows.size, 0.5), (rows, cols)),
        shape=(ij.shape[0], coarse.n_nodes),
    )
    return inject @ C


@pytest.mark.parametrize("level", range(1, 8))
def test_compressed_rows_equal_the_coo_constructions(level, mesh_cache):
    """The prolongation and the transfer to this level, built in
    compressed rows, equal the COO constructions in the dtype and the
    bytes of ``data``, ``indices`` and ``indptr``: the coarse operators
    keep their unsorted product order, and so the bits of a V-cycle."""
    mesh = mesh_cache(level)
    pairs = [(prolongation(mesh), coo_prolongation(mesh))]
    if level > 1:
        coarse = mesh_cache(level - 1)
        C = prolongation(coarse)
        pairs.append((refinement_transfer(coarse, mesh, C), coo_transfer(coarse, mesh, C)))
    for got, want in pairs:
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# --------------------------------------------------------------- assembly


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_refinement_transfer_is_p1_injection(level, mesh_cache):
    """``P x`` samples the coarse P1 field of ``x`` at the fine free dofs.

    ``x`` holds the samples of a linear function at the coarse free
    dofs.  The oracle walks the coarse subtriangles, whose vertices and
    edge midpoints are the fine nodes (found here by their coordinates),
    and averages the coarse nodal values at the two ends.  Where both
    ends are coarse free vertices the field is the linear function, so
    its fine samples are reproduced; next to the boundary (zero) and to
    a centre (the corner mean) the field differs from it.
    """
    coarse, fine = mesh_cache(level), mesh_cache(level + 1)

    def u(xy):
        return 0.3 + 1.7 * xy[:, 0] - 0.9 * xy[:, 1]

    x = u(coarse.node_xy[coarse.free])
    got = refinement_transfer(coarse, fine, prolongation(coarse)) @ x

    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))
    ends = np.concatenate([coarse.tris[:, list(p)] for p in pairs])
    mid = coarse.node_xy[ends].mean(axis=1)
    j = np.rint(mid[:, 1] / (0.5 * SQRT3 * fine.s)).astype(int)
    i = np.rint(mid[:, 0] / fine.s - 0.5 * j).astype(int)
    nodes = fine.index(i, j)
    assert np.allclose(fine.node_xy[nodes], mid, rtol=0, atol=1e-14)
    want = np.full(fine.n_nodes, np.nan)
    want[nodes] = expand(x, coarse).values[ends].mean(axis=1)
    on_line = np.zeros(fine.n_nodes, dtype=bool)
    on_line[nodes] = np.all(np.isin(ends, coarse.free), axis=1)

    free = fine.free
    scale = np.abs(x).max()
    assert np.abs(got - want[free]).max() <= 1e-14 * scale
    exact = on_line[free]
    assert exact.mean() > 0.2  # a third of the coarse edges touch no centre
    assert np.abs(got[exact] - u(fine.node_xy[free[exact]])).max() <= 1e-14 * scale


def test_refinement_transfer_needs_adjacent_levels(mesh_cache):
    with pytest.raises(ValueError):
        refinement_transfer(mesh_cache(3), mesh_cache(5), prolongation(mesh_cache(3)))


@pytest.mark.parametrize("level", [2, 3])
def test_condensed_matrix_against_dense_rebuild(level, mesh_cache, hex_sine):
    mesh = mesh_cache(level)
    A, b, center_load = assemble(mesh, hex_sine)

    ke = ELEMENT_STIFFNESS
    K = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for tri in mesh.tris:
        for a in range(3):
            for bb in range(3):
                K[tri[a], tri[bb]] += ke[a, bb]
    dof = {node: k for k, node in enumerate(mesh.free)}
    C = np.zeros((mesh.n_nodes, len(dof)))
    for node, k in dof.items():
        C[node, k] = 1.0
    for c, ring in zip(mesh.centers, mesh.center_corners):
        for r in ring:
            if r in dof:
                C[c, dof[r]] = 1.0 / 6.0
    want = C.T @ K @ C
    assert np.allclose(A.to_csr().toarray(), want, atol=1e-13)

    # load against per-triangle quadrature
    q = rule(4)
    load = np.zeros(mesh.n_nodes)
    for t, tri in enumerate(mesh.tris):
        xy = mesh.node_xy[tri]
        for k in range(3):
            def g(x, y, k=k, xy=xy):
                V = np.column_stack([np.ones(3), xy])
                coef = np.linalg.solve(V, np.eye(3))[:, k]
                return hex_sine.f(x, y) * (coef[0] + coef[1] * x + coef[2] * y)
            load[tri[k]] += integrate(xy, g, q)
    assert np.allclose(b, (C.T @ load), atol=1e-13)
    assert np.allclose(center_load, load[mesh.centers], atol=1e-13)


def test_matrix_is_spd(mesh_cache, hex_sine):
    A, _, _ = assemble(mesh_cache(3), hex_sine)
    dense = A.to_csr().toarray()
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0
    assert np.allclose(dense, dense.T, atol=1e-15)


def test_sparsespd_rejects_asymmetry():
    M = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(ValueError):
        SparseSpd(M)
    with pytest.raises(ValueError):
        SparseSpd(sp.csr_matrix(np.ones((2, 3))))


def test_sparsespd_judges_an_asymmetric_pattern_by_value():
    """A pattern that differs from its transpose's is judged on
    ``A - A^T``: an unmatched entry is rejected, an explicit zero is not."""
    with pytest.raises(ValueError, match="not symmetric"):
        SparseSpd(sp.csr_matrix(np.array([[2.0, 1e-3], [0.0, 2.0]])))
    zero_stored = sp.csr_matrix(
        (np.array([2.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
        shape=(2, 2),
    )
    assert SparseSpd(zero_stored).data.size == 3


def test_sparsespd_rejects_a_mesh_of_another_size(mesh_cache, hex_sine):
    """The free nodes of the mesh index the rows, so a matrix of level 5
    with the level-6 mesh is refused at once, not in the V-cycle."""
    A, _, _ = assemble(mesh_cache(5), hex_sine)
    with pytest.raises(ValueError, match="480 rows for 1986 free nodes"):
        SparseSpd(A.to_csr(), mesh_cache(6))


@pytest.mark.parametrize("rows", [[[2.0, np.nan], [1.0, 2.0]],
                                  [[np.inf, 0.0], [0.0, 2.0]]])
def test_sparsespd_rejects_non_finite_entries(rows):
    """A NaN compares false, so ``A - A^T`` alone would pass the
    asymmetric first matrix; both are refused before any solve."""
    with pytest.raises(ValueError, match="non-finite"):
        SparseSpd(sp.csr_matrix(np.array(rows)))


def test_assembly_peak_memory_is_a_few_copies_of_a(
    mesh_cache, hex_sine, monkeypatch
):
    """Traced by ``tracemalloc``, building K, C and C^T K C and checking
    symmetry at level 7 (the load excluded) peaks at no more than six
    times the bytes of A's CSR arrays."""
    mesh = mesh_cache(7)
    load = load_vector(mesh, hex_sine)
    monkeypatch.setattr(system, "load_vector", lambda *args: load.copy())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A, _, _ = assemble(mesh, hex_sine)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    csr = A.to_csr()
    assert peak <= 6 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def test_sparsespd_matvec_and_diagonal(mesh_cache, hex_sine):
    """``A @ x`` is the CSR product; the diagonal that the multigrid
    smoother divides by is positive."""
    A, _, _ = assemble(mesh_cache(3), hex_sine)
    rng = np.random.default_rng(3)
    x = rng.normal(size=A.n)
    assert np.array_equal(A @ x, A.to_csr() @ x)
    assert np.all(A.to_csr().diagonal() > 0)


def test_level1_system_is_empty(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(1), hex_sine)
    assert mesh_cache(1).free.size == 0 and A.n == 0 and b.size == 0
    field = expand(np.zeros(0), mesh_cache(1))
    assert np.max(np.abs(field.values)) == 0.0


def test_load_vector_partition_of_unity(mesh_cache):
    """Sum of the P1 load of f = 1 is the domain area."""
    poisson_one = _from_expression("one", lambda X, Y: -0.25 * (X * X + Y * Y))
    mesh = mesh_cache(3)
    load = load_vector(mesh, poisson_one)
    assert load.sum() == pytest.approx(1.5 * SQRT3, rel=1e-13)


@pytest.mark.parametrize("block_points", [None, 100])
@pytest.mark.parametrize("level", range(1, 8))
def test_blocked_load_equals_one_evaluation(
    mesh_cache, hex_sine, monkeypatch, level, block_points
):
    """The load from blocks of subtriangles, summed by one ``bincount``,
    is bit-identical to one call of ``f`` on every quadrature point of
    the mesh, weighted by the three-operand ``einsum`` and scattered by
    ``np.add.at``, by the degree-4 rule, also for blocks that do not
    divide the mesh evenly."""
    if block_points is not None:
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", block_points)
    mesh = mesh_cache(level)
    q = rule(4)
    pts = np.einsum("qk,tkx->tqx", q.points, mesh.node_xy[mesh.tris])
    fvals = hex_sine.f(pts[..., 0].ravel(), pts[..., 1].ravel())
    contrib = mesh.tri_area * np.einsum(
        "tq,q,qk->tk", fvals.reshape(mesh.n_tris, q.n_points), q.weights, q.points
    )
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.tris, contrib)
    assert np.array_equal(load_vector(mesh, hex_sine), want)


@pytest.mark.parametrize("block_points", [None, 1000])
@pytest.mark.parametrize("degree", quadrature.SUPPORTED_DEGREES)
@pytest.mark.parametrize("level", range(1, 8))
def test_tabled_points_are_the_vertex_sums(
    mesh_cache, monkeypatch, level, degree, block_points
):
    """The points that ``tri_quadrature`` takes from its tables equal,
    bit for bit, the barycentric sums of the vertex coordinates, in
    blocks that follow ``mesh.tris``; 1000 points divide no rule's
    blocks evenly into the mesh."""
    if block_points is not None:
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", block_points)
    mesh = mesh_cache(level)
    q = rule(degree)
    got = list(system.tri_quadrature(mesh, q))
    step = max(1, quadrature.BLOCK_POINTS // q.n_points)
    assert [t.shape[0] for t, _ in got][:-1] == [step] * (len(got) - 1)
    assert np.array_equal(np.concatenate([t for t, _ in got]), mesh.tris)
    xy = np.concatenate([xy.reshape(2, -1, q.n_points) for _, xy in got], axis=1)
    want = np.einsum("qk,tkx->tqx", q.points, mesh.node_xy[mesh.tris])
    assert xy.transpose(1, 2, 0).tobytes() == want.tobytes()


def test_fan_energy_minimizer_is_the_corner_mean():
    """Minimizing the six-triangle fan energy over the centre value
    gives the plain corner average; the fan diagonal is 2*sqrt(3)."""
    ke = ELEMENT_STIFFNESS
    rng = np.random.default_rng(11)
    corners = rng.normal(size=6)
    # assemble the 7-node fan: node 6 is the centre
    K = np.zeros((7, 7))
    for t in range(6):
        idx = [t, (t + 1) % 6, 6]
        for a in range(3):
            for b in range(3):
                K[idx[a], idx[b]] += ke[a, b]
    assert K[6, 6] == pytest.approx(2.0 * SQRT3, rel=1e-14)
    best = -K[6, :6] @ corners / K[6, 6]
    assert best == pytest.approx(corners.mean(), rel=1e-12)


def test_galerkin_residual(solved_cache):
    mesh, u_h, _, _ = solved_cache(4)
    problem = get_problem("hex-sine")
    A, b, _ = assemble(mesh, problem)
    r = b - A @ u_h.values[mesh.free]
    assert np.max(np.abs(r)) <= 1e-13 * max(np.max(np.abs(b)), 1.0)
    assert constraint_gap(u_h) <= 1e-14


def polynomial_problem(terms):
    """u = sum of c x**a y**b over ``terms`` {(a, b): c}, and
    f = -laplace(u), both in closed form."""

    def u(x, y):
        return sum(c * x ** p * y ** q for (p, q), c in terms.items())

    def f(x, y):
        return -sum(c * (p * (p - 1) * x ** max(p - 2, 0) * y ** q
                         + q * (q - 1) * x ** p * y ** max(q - 2, 0))
                    for (p, q), c in terms.items())

    return ManufacturedProblem(name="polynomial", u=u, grad_u=None, f=f)


#: Re z**6 = x**6 - 15 x**4 y**2 + 15 x**2 y**4 - y**6, harmonic.
RE_Z6 = {(6, 0): 1.0, (4, 2): -15.0, (2, 4): 15.0, (0, 6): -1.0}


def truncation(level, problem):
    """The truncation error A Iu - b on the free rows at least three
    lattice steps inside, which see no boundary node (A's rows reach two
    steps), and the scale |A| |Iu| + |b| of each such row."""
    mesh = build_mesh(level)
    A, b, _ = assemble(mesh, problem)
    x, y = mesh.node_xy[mesh.free].T
    Iu = problem.u(x, y)
    i, j = mesh.node_ij[mesh.free].T
    inner = np.maximum(np.maximum(abs(i), abs(j)), abs(i + j)) <= mesh.n - 3
    scale = abs(A.to_csr()) @ abs(Iu) + abs(b)
    return (A @ Iu - b)[inner], scale[inner]


def test_interior_equations_are_exact_for_quintics():
    """The superconvergence mechanism, with no solve: on the inner rows
    at levels 3-6, the discrete equations hold for every monomial of
    degree up to five to round-off, ``|tau| <= 16 eps (|A| |Iu| + |b|)``
    (1.92 eps measured).  The degree-4 load rule integrates ``f phi``
    exactly for these ``u``, so this measures the operator.  Degree 6 is
    the first that is not exact: for the harmonic ``Re z**6`` the largest
    ``|tau|`` falls by 64.0 per level, a pure ``h**6`` term."""
    eps = np.finfo(float).eps
    worst = []
    for level in (3, 4, 5, 6):
        for a in range(6):
            for b in range(6 - a):
                tau, scale = truncation(level, polynomial_problem({(a, b): 1.0}))
                assert tau.size and np.all(np.abs(tau) <= 16 * eps * scale), (level, a, b)
        worst.append(np.max(np.abs(truncation(level, polynomial_problem(RE_Z6))[0])))
    ratios = np.array(worst[:-1]) / worst[1:]
    assert np.all((63.0 <= ratios) & (ratios <= 65.0)), ratios


# ---------------------------------------------------------- interpolation


def test_interpolate_constrains_centers(mesh_cache, hex_sine):
    mesh = mesh_cache(3)
    u_i = interpolate(hex_sine, mesh)
    u_pw = quadrature.sample(hex_sine.u, mesh.node_xy)
    assert constraint_gap(u_i) <= 1e-15
    verts = ~mesh.is_center
    assert np.array_equal(u_i.values[verts], u_pw[verts])
    exact = hex_sine.u(mesh.node_xy[:, 0], mesh.node_xy[:, 1])
    assert np.allclose(u_pw, exact, atol=1e-15)
    # centre means differ from exact centre values at O(h^2)
    gap = np.max(np.abs(u_i.values[mesh.centers] - exact[mesh.centers]))
    assert 1e-4 < gap < 1e-1


# --------------------------------------------------------- centre recovery


def test_recover_centers_is_exact_on_cubics(mesh_cache):
    """mean(corners) + l_c/(2 sqrt 3) undoes the O(h^2) centre bias of
    the constrained interpolant exactly for cubic solutions."""
    problem = cubic_problem()
    mesh = mesh_cache(3)
    _, _, center_load = assemble(mesh, problem)
    u_i = interpolate(problem, mesh)
    rec = recover_centers(u_i, center_load)
    exact = problem.u(mesh.node_xy[:, 0], mesh.node_xy[:, 1])
    assert np.allclose(rec.values[mesh.centers], exact[mesh.centers], atol=1e-13)
    # vertex values untouched
    verts = ~mesh.is_center
    assert np.array_equal(rec.values[verts], u_i.values[verts])


def test_recover_centers_validates_the_center_load(mesh_cache, hex_sine):
    """A load of another shape is refused, not broadcast to every centre."""
    mesh = mesh_cache(3)
    u_i = interpolate(hex_sine, mesh)
    for bad in (1.0, np.ones(1), np.ones(mesh.centers.size + 1)):
        with pytest.raises(ValueError, match="centre loads"):
            recover_centers(u_i, bad)


def test_recover_centers_fourth_order(solved_cache):
    problem = get_problem("hex-sine")
    errs = []
    for level in (4, 5, 6):
        mesh, u_h, center_load, _ = solved_cache(level)
        rec = recover_centers(u_h, center_load)
        exact = problem.u(mesh.node_xy[:, 0], mesh.node_xy[:, 1])
        errs.append(np.max(np.abs(rec.values[mesh.centers] - exact[mesh.centers])))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(rates) > 3.5


def test_recover_centers_beats_the_plain_average(solved_cache):
    mesh, u_h, center_load, _ = solved_cache(5)
    problem = get_problem("hex-sine")
    rec = recover_centers(u_h, center_load)
    exact = problem.u(mesh.node_xy[:, 0], mesh.node_xy[:, 1])
    plain = np.max(np.abs(u_h.values[mesh.centers] - exact[mesh.centers]))
    fixed = np.max(np.abs(rec.values[mesh.centers] - exact[mesh.centers]))
    assert fixed < 0.01 * plain
