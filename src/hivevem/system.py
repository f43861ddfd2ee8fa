"""Discrete Poisson system on the honeycomb mesh.

The trial space is continuous piecewise P1 on the auxiliary triangular
submesh, subject to two linear conditions: homogeneous Dirichlet
values on boundary nodes and, at every interior hexagon centre, the
value equal to the mean of the six surrounding corner values.  The
centre condition is the energy-minimising (discrete harmonic) extension
of the corner data on the equilateral fan, which is what makes the
scheme stabiliser-free: no extra penalty term ever enters.

Assembly computes the P1 load vector l over all lattice nodes.
:func:`operator` builds the full P1 stiffness matrix K directly in
compressed rows from the 7-point stencil of the lattice: every
equilateral subtriangle shares one element stiffness, so each row holds
the node and those of its six lattice neighbours that lie in the domain,
and its values depend only on which of them do, one of a table of 128
rows.  It condenses K through the prolongation C that expresses every
node value in terms of the values at the free nodes ``mesh.free``, the
degrees of freedom, and the load goes through the same C:

    A = C^T K C,     b = C^T l.

A is symmetric positive definite because C has full column rank.  The
operator depends on the mesh alone, so the multigrid preconditioner of
:mod:`~hivevem.solver` builds every coarse level with it too.  The load
rows of the eliminated centres are returned next to A and b, and
:func:`recover_centers` undoes the elimination with them.

C and the injection of :func:`refinement_transfer` are built in
compressed rows too, with no COO list to sort: row sizes, then the
columns in ascending order, in the int32 layout that scipy gives a
canonical matrix.  The products that form A and the coarse operators
leave their columns unsorted, in an order, and with sums, that follow
the layout of their factors, so that layout fixes the bits of every
V-cycle.

The quadrature points of the subtriangles follow the lattice too.  A
unit triangle of kind k in cell (i, j) has its vertices at fixed
lattice steps from (i, j); since a node's x is ``s (2i + j) / 2`` and
its y ``s sqrt(3) j / 2``, every point's x is a function of k and
2i + j, and its y of k and j.  :func:`tri_quadrature` tabulates both,
with the arithmetic of the direct sum over the vertices, and reads the
points of each block from the tables; the load sums the element
contributions onto the nodes with one ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import SQRT3, UNIT_TRIANGLES, HoneycombMesh, position
from .problem import ManufacturedProblem
from .quadrature import blocks, rule, sample

#: P1 stiffness matrix of every subtriangle.  It does not depend on the
#: size, position or orientation of an equilateral triangle: 1/sqrt(3)
#: on the diagonal and -0.5/sqrt(3) off it.
ELEMENT_STIFFNESS = np.full((3, 3), -0.5 / SQRT3)
np.fill_diagonal(ELEMENT_STIFFNESS, 1.0 / SQRT3)
# ROADMAP item 1's defect: entry (0, 1) is one ulp toward zero, as the
# gradient formula rounds it, so the rows of K do not sum to zero.
ELEMENT_STIFFNESS[0, 1] = ELEMENT_STIFFNESS[1, 0] = np.nextafter(-0.5 / SQRT3, 0.0)
ELEMENT_STIFFNESS.setflags(write=False)


class SparseSpd:
    """Symmetric positive definite matrix in compressed-row storage.

    Thin wrapper over a scipy CSR matrix that fixes the contract:
    square, finite, column indices sorted within each row, and
    numerically symmetric.  A CSR matrix, such as the product of
    :func:`operator`, is taken without a copy and put in canonical form
    in place.
    Positive definiteness follows from the construction (congruence of
    the P1 stiffness with a full-rank prolongation) and is exercised by
    the tests rather than re-proved here.

    ``mesh`` is the lattice whose free nodes ``mesh.free`` index the rows
    when the matrix comes from :func:`assemble`, else ``None``; a mesh
    with another number of free nodes raises ``ValueError``.  The
    multigrid preconditioner builds its coarse levels below it, so a
    matrix without a mesh is solved with ``method='chol'`` only.  Those
    come from :func:`operator` as the fine matrix does and are not
    wrapped, so the symmetry check runs on the fine level only.  The
    operator is symmetric by construction, but the check stays: this is
    a public type that takes any caller's matrix.
    """

    def __init__(
        self, matrix: sp.spmatrix, mesh: HoneycombMesh | None = None
    ):
        csr = sp.csr_matrix(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        if mesh is not None and mesh.free.size != csr.shape[0]:
            raise ValueError(f"{csr.shape[0]} rows for {mesh.free.size} free nodes")
        # Canonical form: summing duplicates sorts the indices first.
        csr.sum_duplicates()
        if csr.nnz:
            scale = float(np.max(np.abs(csr.data)))
            # The max is inf or NaN exactly when an entry is not finite.
            if not np.isfinite(scale):
                raise ValueError("matrix has non-finite entries")
            # On a symmetric pattern, the transpose's data lines up
            # with A's; only an asymmetric pattern builds A - A^T.
            t = csr.tocsc()
            if np.array_equal(t.indptr, csr.indptr) and np.array_equal(
                t.indices, csr.indices
            ):
                gap = np.subtract(t.data, csr.data, out=t.data)
            else:
                gap = (csr - csr.T).data
            asym = float(np.max(np.abs(gap, out=gap), initial=0.0))
            if asym > 1e-14 * max(scale, 1.0):
                raise ValueError(f"matrix is not symmetric: |A - A^T| = {asym}")
        self._csr = csr
        self.mesh = mesh

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._csr.data

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def to_csr(self) -> sp.csr_matrix:
        return self._csr


@dataclass(frozen=True)
class FieldP1:
    """Piecewise-linear nodal field on the full triangular submesh."""

    mesh: HoneycombMesh
    values: np.ndarray


def prolongation(mesh: HoneycombMesh) -> sp.csr_matrix:
    """Node values from free dofs: identity rows for free vertices,
    1/6 corner averages for centres, zero rows for boundary nodes.

    Built in compressed rows, with the sorted int32 layout of a
    canonical scipy matrix: a centre's columns are the dofs of its free
    corners, taken in ascending node order, which is that of the dofs.
    """
    n_free = mesh.free.size
    dof = np.full(mesh.n_nodes, -1, dtype=np.int32)
    dof[mesh.free] = np.arange(n_free)
    corners = dof[mesh.center_corners[:, _ASCENDING_CORNERS]]
    count = (dof >= 0).astype(np.int32)
    count[mesh.centers] = np.count_nonzero(corners >= 0, axis=1)
    # A free node's row holds its dof; a centre's, marked, its corners'.
    of_center = np.repeat(mesh.is_center, count)
    indices = np.repeat(dof, count)
    indices[of_center] = corners[corners >= 0]
    data = np.where(of_center, 1.0 / 6.0, 1.0)
    indptr = np.r_[0, np.cumsum(count)].astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(mesh.n_nodes, n_free))


def refinement_transfer(
    coarse: HoneycombMesh, fine: HoneycombMesh, C: sp.csr_matrix
) -> sp.csr_matrix:
    """Free dofs of ``fine`` from free dofs of ``coarse``, one level up.

    ``P = R I C``: ``C`` is the :func:`prolongation` of ``coarse``, which
    :func:`operator` has built with the coarse operator, ``I`` the
    P1 injection of the red refinement (fine node ``(a, b)`` takes the
    mean of the coarse nodes at the ends of the coarse edge through it,
    or the coarse node itself when ``a`` and ``b`` are even), and ``R``
    keeps the rows of the fine free dofs.  The two honeycomb spaces are
    not nested, because the centre constraints differ between levels,
    so the transfer goes through the full P1 space.  ``R I`` is built in
    compressed rows, in the sorted int32 layout of a canonical scipy
    matrix: two entries 0.5, lower end first, or one entry 1.
    """
    if fine.level != coarse.level + 1:
        raise ValueError(
            f"levels {coarse.level} and {fine.level} are not one refinement apart"
        )
    i, j = np.take(fine.node_ij, fine.free, axis=0).T
    # Half the coarse edge through each fine node: none on coarse nodes,
    # else the lattice step (1, 0), (0, 1) or (1, -1), which runs from
    # the lower node index to the higher.
    si = i & 1
    sj = (j & 1) * (1 - 2 * si)
    size = 2 - ((si | sj) == 0)
    indptr = np.r_[0, np.cumsum(size)].astype(np.int32)
    # On a coarse node both ends are the node, so its one entry may take hi.
    indices = np.repeat(coarse.index((i - si) >> 1, (j - sj) >> 1), size)
    indices[indptr[1:] - 1] = coarse.index((i + si) >> 1, (j + sj) >> 1)
    inject = sp.csr_matrix((np.repeat(1.0 / size, size), indices, indptr),
                           shape=(i.size, coarse.n_nodes))
    return inject @ C


def load_vector(mesh: HoneycombMesh, problem: ManufacturedProblem) -> np.ndarray:
    """Load vector of ``f`` against the P1 basis over all lattice nodes,
    by the degree-4 rule on every subtriangle.

    ``f`` is evaluated on blocks of subtriangles (:func:`tri_quadrature`);
    each block writes its rows of the (T, 3) element contributions, and
    one ``bincount`` sums them onto the nodes in the order of
    ``np.add.at``, triangle by triangle.
    """
    q = rule(4)
    contrib = np.empty(mesh.tris.shape)
    # The blocks of ``contrib`` are those of ``mesh.tris`` in tri_quadrature.
    for (_, xy), out in zip(tri_quadrature(mesh, q), blocks(contrib, q.n_points)):
        fvals = np.asarray(problem.f(*xy)).reshape(-1, q.n_points)
        out[:] = mesh.tri_area * np.einsum("tq,qk->tk", fvals * q.weights, q.points)
    return np.bincount(mesh.tris.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def tri_quadrature(mesh: HoneycombMesh, q):
    """Quadrature points of ``q`` on the subtriangles, block by block.

    Yields ``(tris, xy)``: the vertex indices (t, 3) of a block of at
    most :data:`~hivevem.quadrature.BLOCK_POINTS` points and the
    coordinates (2, t nq) of its points, triangle major.  Each
    coordinate is the left-to-right sum of its three vertex terms.

    The points are read from tables.  On the unit triangle of kind k in
    cell (i, j), a vertex's x is ``s (2i + j + c) / 2`` and its y
    ``s sqrt(3)/2 (j + c')``, with steps c and c' fixed by k and the
    vertex, so a point's x depends on k and 2i + j alone and its y on k
    and j alone.  The tables hold those sums once per key, from the
    same :func:`~hivevem.lattice.position` coordinates as
    ``mesh.node_xy``, and each block takes its rows.
    """
    # Vertex 1 of the triangle of kind k in cell (i, j) is (i + 1, j),
    # and vertex 0 is (i, j + k): the cell keys of the triangles whose
    # vertex 1 is a node, per node.
    i, j = mesh.node_ij.T
    m = 2 * i + j - 2
    # Vertex keys by kind and cell key; the lattice point (a // 2, a % 2)
    # has 2i + j = a, and (0, b) has j = b.
    a = np.arange(m.min(), m.max() + 1)[:, None] + (UNIT_TRIANGLES @ (2, 1))[:, None]
    b = np.arange(j.min(), j.max() + 1)[:, None] + UNIT_TRIANGLES[:, None, :, 1]
    x = position(np.stack([a // 2, a % 2], axis=-1), mesh.s)[..., 0, None]
    y = position(np.stack([0 * b, b], axis=-1), mesh.s)[..., 1, None]
    bary = q.points.T
    tables = [(v[..., 0, :] * bary[0] + v[..., 1, :] * bary[1] + v[..., 2, :] * bary[2]
               ).reshape(-1, q.n_points) for v in (x, y)]
    v0, v1 = mesh.tris[:, 0], mesh.tris[:, 1]
    kind = j[v0] - j[v1]
    rows = (kind * a.shape[1] + (m - m.min())[v1], kind * b.shape[1] + (j - j.min())[v1])
    for tris, *block_rows in zip(*(blocks(r, q.n_points) for r in (mesh.tris, *rows))):
        xy = np.empty((2, tris.shape[0], q.n_points))
        # The rows lie in the tables by construction; "clip" writes to
        # ``out`` without the buffered bounds check of "raise".
        for table, r, out in zip(tables, block_rows, xy):
            np.take(table, r, axis=0, out=out, mode="clip")
        yield tris, xy.reshape(2, -1)


#: Lattice steps to the seven entries of a row of K.  Node indices run
#: i-major, so this is the sorted column order.
_STENCIL = np.array([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)])
#: Columns of the steps of ``HEX_DIRECTIONS`` in ``_STENCIL``.
_HEX_COLUMNS = [6, 4, 1, 0, 2, 5]
#: Columns of ``center_corners`` in ascending node order.
_ASCENDING_CORNERS = np.argsort(_HEX_COLUMNS)


def _stencil_rows():
    """The seven values of a row of K, (128, 7), and its number of
    entries, for every pattern of stencil nodes in the domain, indexed
    by the pattern's code: bit c set when the node at ``_STENCIL[c]``
    exists.

    Around node p, subtriangle k has the vertices p, p + e_k and
    p + e_(k+1) (steps of ``HEX_DIRECTIONS``), at the local positions
    r, r + 1 and r + 2 (mod 3) of ``mesh.tris``, with r = 0, 1, 1, 2, 2, 0.
    The edge entry K[p, p + e_k] adds the element entries of
    subtriangles k and k - 1 that lie in the domain, and the diagonal
    adds ``ELEMENT_STIFFNESS[0, 0]`` once per subtriangle at p.
    """
    present = (np.arange(128)[:, None] >> np.arange(7)) & 1 == 1
    near = present[:, _HEX_COLUMNS]
    tri = near & np.roll(near, -1, axis=1)
    r = np.array([0, 1, 1, 2, 2, 0])
    ke = ELEMENT_STIFFNESS
    rows = np.zeros((128, 7))
    # Edge k: p + e_k is at r + 1 in subtriangle k, at r + 2 in k - 1.
    rows[:, _HEX_COLUMNS] = np.where(tri, ke[r, (r + 1) % 3], 0.0) + np.where(
        np.roll(tri, 1, axis=1), np.roll(ke[r, (r + 2) % 3], 1), 0.0)
    # 0, d, d + d, ...: the terms added one after another.
    rows[:, 3] = np.cumsum(np.r_[0.0, np.full(6, ke[0, 0])])[tri.sum(axis=1)]
    rows.setflags(write=False)
    return rows, present.sum(axis=1).astype(np.int32)


#: Row values of K by stencil pattern, and the entries of each pattern.
_STENCIL_ROWS, _STENCIL_SIZES = _stencil_rows()


def stiffness(mesh: HoneycombMesh) -> sp.csr_matrix:
    """P1 stiffness K over all lattice nodes, in CSR, from the 7-point
    lattice stencil.

    Each row takes its values from :data:`_STENCIL_ROWS` by the pattern
    of its stencil nodes that lie in the domain.  This is the sum of the
    element matrices bit for bit, in any order: an edge has at most two
    terms, and the three diagonal entries of the element matrix are one
    double.  The columns are the stencil's
    :meth:`~hivevem.lattice.HoneycombMesh.neighbours`, and the rows keep
    the entries of the nodes that exist.
    """
    cols = mesh.neighbours(_STENCIL)
    keep = cols >= 0
    code = keep.view(np.uint8) @ (1 << np.arange(7, dtype=np.uint8))
    vals = np.take(_STENCIL_ROWS, code, axis=0)[keep]
    indptr = np.r_[0, np.cumsum(_STENCIL_SIZES[code])].astype(np.int32)
    return sp.csr_matrix((vals, cols[keep], indptr), shape=(mesh.n_nodes,) * 2)


def operator(mesh: HoneycombMesh):
    """The condensed operator of ``mesh`` and the prolongation it
    condenses through: ``(C^T K C, C)``, the first in CSR.

    The load plays no part, so the multigrid hierarchy builds each of
    its coarse levels here as :func:`assemble` builds the fine one.
    The row storage of ``C^T`` makes the product CSR; sorted, it equals
    ``(C^T K) C`` bit for bit at every level.
    """
    C = prolongation(mesh)
    return C.T.tocsr() @ (stiffness(mesh) @ C), C


def assemble(mesh: HoneycombMesh, problem: ManufacturedProblem):
    """Assemble the condensed SPD system.

    Returns ``(A, b, center_load)``: the rows of A and b follow
    ``mesh.free``, and ``center_load`` is the load at ``mesh.centers``
    for :func:`recover_centers`.  The load is computed first, block by
    block, before K is built.
    A zero-dimensional system (level 1 has no free vertices) is returned
    as such; the solution field is then identically zero.
    """
    load = load_vector(mesh, problem)
    A, C = operator(mesh)
    return SparseSpd(A, mesh), C.T @ load, load[mesh.centers]


def expand(x: np.ndarray, mesh: HoneycombMesh) -> FieldP1:
    """Nodal field from a vector over ``mesh.free``: boundary zero,
    centres set to the mean of their corners."""
    x = np.asarray(x, dtype=float)
    if x.shape != mesh.free.shape:
        raise ValueError(f"expected {mesh.free.size} dof values, got {x.shape}")
    values = np.zeros(mesh.n_nodes)
    values[mesh.free] = x
    return _with_centers(mesh, values)


def recover_centers(u_h: FieldP1, center_load: np.ndarray) -> FieldP1:
    """Re-expand hexagon centres by exact static condensation.

    The condensed matrix ``C^T K C`` coincides with the Schur
    complement that eliminates the centre unknowns from the plain P1
    system on the submesh, because the centre-average constraint is the
    discrete-harmonic extension with respect to K.  The corner values
    of ``u_h`` therefore already solve the fine P1 system; only the
    centre values differ.  Undoing the elimination assigns each centre

        u(x0) = mean(corners) + l(x0) / (2*sqrt(3)),

    where ``l(x0)`` is the centre's load, ``center_load`` from
    :func:`assemble` (the centre's diagonal stiffness on the
    six-triangle fan is 2*sqrt(3), independent of scale).  These centre
    values are pointwise fourth-order accurate, while the plain corner
    average is only second-order accurate there, so error norms of the
    solution should be measured on this representation.
    """
    mesh = u_h.mesh
    if np.shape(center_load) != mesh.centers.shape:
        raise ValueError(f"expected {mesh.centers.size} centre loads, "
                         f"got {np.shape(center_load)}")
    return _with_centers(mesh, u_h.values.copy(), center_load / (2.0 * np.sqrt(3.0)))


def interpolate(problem: ManufacturedProblem, mesh: HoneycombMesh) -> FieldP1:
    """Space interpolant of the problem's exact solution: samples at
    mesh vertices, centre values set to the mean of the six sampled
    corners."""
    values = np.zeros(mesh.n_nodes)
    nh = mesh.nh_nodes
    values[nh] = sample(problem.u, np.take(mesh.node_xy, nh, axis=0))
    return _with_centers(mesh, values)


def _with_centers(mesh: HoneycombMesh, values: np.ndarray, offset=None) -> FieldP1:
    """The field of ``values`` with each centre set, in place, to the
    mean of its six corners, plus ``offset`` when one is given.  With
    none, nothing is added: ``x + 0.0`` would turn -0.0 into +0.0."""
    mean = values[mesh.center_corners].mean(axis=1)
    values[mesh.centers] = mean if offset is None else mean + offset
    return FieldP1(mesh=mesh, values=values)

