"""Mesh construction checks against independent geometric oracles.

Counting formulas are re-derived here from the subdivision parameter
n = 2**(level-1) rather than read off the mesh, and the boundary test
uses the hexagon support function instead of lattice arithmetic.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hivevem import lattice
from hivevem.lattice import (
    MAX_LEVEL,
    UNIT_TRIANGLES,
    build_mesh,
    node_class,
    position,
)
from cells import census, group_cells

SQRT3 = math.sqrt(3.0)

# outward normals of the six edges of the unit-edge hexagon with
# vertices at angles 0, 60, ..., 300 degrees
EDGE_NORMALS = np.array(
    [[math.cos(a), math.sin(a)] for a in np.radians(30 + 60 * np.arange(6))]
)
APOTHEM = 0.5 * SQRT3


def support(xy):
    """max_k <x, n_k>: equals the apothem exactly on the boundary."""
    return (np.atleast_2d(xy) @ EDGE_NORMALS.T).max(axis=1)


@pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
def test_counting_formulas(level):
    """The counts, the anchors and the centres' corners at every level,
    in whole-array operations: one class-0 vertex per subtriangle, and
    six subtriangles per interior class-0 node, three per boundary one
    and none elsewhere."""
    mesh = build_mesh(level)
    n = 2 ** (level - 1)
    assert mesh.n == n
    assert mesh.s == 2.0 ** (1 - level)
    assert mesh.n_nodes == 3 * n * n + 3 * n + 1
    assert mesh.n_tris == 6 * n * n
    assert np.count_nonzero(mesh.on_boundary) == 6 * n

    class0 = node_class(mesh.node_ij[:, 0], mesh.node_ij[:, 1]) == 0
    at_class0 = class0[mesh.tris]
    assert np.all(at_class0.sum(axis=1) == 1)
    anchors = mesh.tris[at_class0]
    want = np.where(class0, np.where(mesh.on_boundary, 3, 6), 0)
    assert np.array_equal(np.bincount(anchors, minlength=mesh.n_nodes), want)
    assert np.all(mesh.center_corners >= 0)


def mask_built_mesh(level):
    """The arrays of the level's mesh built with boolean masks over the
    square ``|i|, |j| <= n``, and its centres' corners read with clipped
    indices into the padded table: the oracle of the flat offsets that
    :func:`build_mesh` and ``center_corners`` gather with."""
    n = 2 ** (level - 1)
    size = 2 * n + 1
    rng = np.arange(-n, n + 1)
    I, J = np.meshgrid(rng, rng, indexing="ij")
    norm = np.maximum(np.maximum(np.abs(I), np.abs(J)), np.abs(I + J))
    inside = norm <= n
    lookup = -np.ones((size, size), dtype=np.int64)
    lookup[inside] = np.arange(int(inside.sum()))
    node_ij = np.stack([I[inside], J[inside]], axis=1)
    on_boundary = norm[inside] == n
    is_center = (node_class(node_ij[:, 0], node_ij[:, 1]) == 0) & ~on_boundary
    tris = []
    for steps in lattice.UNIT_TRIANGLES:
        at = [lookup[di:di + size - 1, dj:dj + size - 1] for di, dj in steps]
        ok = np.logical_and.reduce([v >= 0 for v in at])
        tris.append(np.stack([v[ok] for v in at], axis=1))
    centers = np.flatnonzero(is_center)
    padded = np.pad(lookup.astype(np.int32), 1, constant_values=-1)
    ij = node_ij[centers, :, None] + np.array(lattice.HEX_DIRECTIONS).T
    m = n + 1
    return {
        "node_ij": node_ij,
        "node_xy": position(node_ij, 1.0 / n),
        "on_boundary": on_boundary,
        "is_center": is_center,
        "tris": np.concatenate(tris),
        "centers": centers,
        "nh_nodes": np.flatnonzero(~is_center),
        "free": np.flatnonzero(~is_center & ~on_boundary),
        "center_corners": padded[np.clip(ij[:, 0], -m, m) + m,
                                 np.clip(ij[:, 1], -m, m) + m],
        "_lookup": padded,
    }


@pytest.mark.parametrize("level", range(1, 8))
def test_flat_offsets_build_the_mask_built_mesh(level):
    """Every array of the mesh equals the mask-built one in dtype,
    shape and bytes."""
    mesh = build_mesh(level)
    for name, want in mask_built_mesh(level).items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_boundary_flag_matches_support_function(level, mesh_cache):
    mesh = mesh_cache(level)
    sup = support(mesh.node_xy)
    on = np.abs(sup - APOTHEM) <= 1e-12
    assert np.array_equal(on, mesh.on_boundary)
    # every node lies inside the closed hexagon
    assert sup.max() <= APOTHEM + 1e-12


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7, 8])
def test_total_area_is_exact(level, mesh_cache):
    mesh = mesh_cache(level)
    xy = mesh.node_xy[mesh.tris]
    d1 = xy[:, 1] - xy[:, 0]
    d2 = xy[:, 2] - xy[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert signed.min() > 0  # counterclockwise everywhere
    total = signed.sum()
    assert abs(total - 1.5 * SQRT3) <= 1e-12 * 1.5 * SQRT3


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_subtriangles_are_equilateral(level, mesh_cache):
    mesh = mesh_cache(level)
    xy = mesh.node_xy[mesh.tris]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        lengths = np.linalg.norm(xy[:, a] - xy[:, b], axis=1)
        assert np.allclose(lengths, mesh.s, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "level, hexes, pents, corners",
    [(1, 1, 0, 0), (2, 1, 6, 0), (3, 13, 6, 0), (4, 55, 18, 0)],
)
def test_cell_census(level, hexes, pents, corners, mesh_cache):
    mesh = mesh_cache(level)
    assert census(mesh) == (hexes, pents, corners)
    # cells partition the subtriangles
    members = np.concatenate(group_cells(mesh)[1])
    assert np.array_equal(np.sort(members), np.arange(mesh.n_tris))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_cells_match_a_per_anchor_scan(level, mesh_cache):
    """Cells collected anchor by anchor, ascending: a hexagon is the fan
    of six subtriangles around an interior centre, whose other vertices
    are its ``center_corners``, and a pentagon the three subtriangles at
    a boundary class-0 node."""
    mesh = mesh_cache(level)
    anchors, members = group_cells(mesh)
    corners = dict(zip(mesh.centers.tolist(), mesh.center_corners.tolist()))
    for a, cell in zip(anchors.tolist(), members):
        assert np.array_equal(cell, np.flatnonzero((mesh.tris == a).any(axis=1)))
        others = set(mesh.tris[cell].ravel().tolist()) - {a}
        if mesh.on_boundary[a]:
            assert cell.size == 3 and len(others) == 4
        else:
            assert cell.size == 6 and others == set(corners[a])
    assert np.array_equal(anchors, np.sort(np.r_[mesh.centers, np.flatnonzero(
        mesh.on_boundary & (node_class(*mesh.node_ij.T) == 0))]))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_conformity(level, mesh_cache):
    """Interior edges belong to two triangles, boundary edges to one."""
    mesh = mesh_cache(level)
    edges = {}
    for tri in mesh.tris:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edges[key] = edges.get(key, 0) + 1
    counts = np.array(list(edges.values()))
    assert set(counts) <= {1, 2}
    boundary_edges = [
        e for e, c in edges.items()
        if c == 1
    ]
    for a, b in boundary_edges:
        assert mesh.on_boundary[a] and mesh.on_boundary[b]
    assert len(boundary_edges) == 6 * mesh.n


@pytest.mark.parametrize("level", [2, 3, 4])
def test_centers_are_corner_centroids(level, mesh_cache):
    mesh = mesh_cache(level)
    assert mesh.centers.size == mesh.center_corners.shape[0]
    ring = mesh.node_xy[mesh.center_corners]
    mid = ring.mean(axis=1)
    assert np.allclose(mid, mesh.node_xy[mesh.centers], atol=1e-13)
    # corners sit at distance s, in counterclockwise order
    rel = ring - mid[:, None, :]
    assert np.allclose(np.linalg.norm(rel, axis=2), mesh.s, atol=1e-13)
    ang = np.unwrap(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
    assert np.all(np.diff(ang, axis=1) > 0)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_center_classification(level, mesh_cache):
    """Interior class-0 nodes are centres; boundary class-0 nodes are
    pentagon midpoints and stay mesh vertices."""
    mesh = mesh_cache(level)
    cls = node_class(mesh.node_ij[:, 0], mesh.node_ij[:, 1])
    interior0 = (cls == 0) & ~mesh.on_boundary
    assert np.array_equal(np.flatnonzero(interior0), np.sort(mesh.centers))
    assert not np.any(mesh.is_center & mesh.on_boundary)
    # nh_nodes = everything that is not an interior centre
    assert np.array_equal(
        np.sort(mesh.nh_nodes), np.flatnonzero(~mesh.is_center)
    )
    midpoints = (cls == 0) & mesh.on_boundary
    assert np.count_nonzero(midpoints) == census(mesh)[1]


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_domain_corners_are_never_class0(level, mesh_cache):
    mesh = mesh_cache(level)
    n = mesh.n
    for i, j in [(n, 0), (0, n), (-n, n), (-n, 0), (0, -n), (n, -n)]:
        assert node_class(i, j) != 0
        k = int(mesh.index(i, j))
        assert k >= 0 and mesh.on_boundary[k]


def test_node_index_roundtrip(mesh_cache):
    mesh = mesh_cache(3)
    for k in range(0, mesh.n_nodes, 7):
        i, j = mesh.node_ij[k]
        assert int(mesh.index(i, j)) == k
    n = mesh.n
    assert int(mesh.index(n + 1, 0)) == -1
    assert int(mesh.index(n, 1)) == -1  # |i + j| > n


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_index_is_minus_one_outside_the_hexagon(level, mesh_cache):
    mesh = mesh_cache(level)
    n = mesh.n
    assert np.array_equal(mesh.index(*mesh.node_ij.T), np.arange(mesh.n_nodes))

    def hexnorm(i, j):
        return np.maximum(np.maximum(np.abs(i), np.abs(j)), np.abs(i + j))

    I, J = np.meshgrid(np.arange(-n - 1, n + 2), np.arange(-n - 1, n + 2),
                       indexing="ij")
    ring = hexnorm(I, J) == n + 1
    assert ring.sum() == 6 * (n + 1)
    assert np.all(mesh.index(I[ring], J[ring]) == -1)
    square = (np.abs(I) <= n) & (np.abs(J) <= n) & (np.abs(I + J) > n)
    assert square.sum() == n * (n + 1)
    assert np.all(mesh.index(I[square], J[square]) == -1)
    far = np.array([-10 * n, 0, 10 * n])
    I, J = np.meshgrid(far, far, indexing="ij")
    assert np.all(mesh.index(I, J)[(I != 0) | (J != 0)] == -1)

    # Scalars stay scalars and (k, 7) stays (k, 7), against a dict oracle.
    assert np.ndim(mesh.index(0, 0)) == 0
    assert mesh.node_xy[int(mesh.index(0, 0))].tolist() == [0.0, 0.0]
    table = {tuple(p): k for k, p in enumerate(mesh.node_ij.tolist())}
    i, j = np.random.default_rng(level).integers(-2 * n, 2 * n + 1, (2, 5, 7))
    got = mesh.index(i, j)
    assert got.shape == (5, 7)
    assert got.ravel().tolist() == [
        table.get(p, -1) for p in zip(i.ravel().tolist(), j.ravel().tolist())
    ]


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_neighbours_are_the_index_of_every_unit_step(level, mesh_cache):
    """Every step with components in -1..1, boundary nodes included,
    finds what :meth:`index` finds, in its dtype."""
    mesh = mesh_cache(level)
    steps = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    got = mesh.neighbours(steps)
    i, j = mesh.node_ij.T
    want = mesh.index(i[:, None] + steps[:, 0], j[:, None] + steps[:, 1])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.count_nonzero(got < 0) > 0


@pytest.mark.parametrize("level", range(1, MAX_LEVEL - 1))
def test_tri_kind_places_every_subtriangle_in_its_cell(level):
    """Subtriangle t has the vertices ``UNIT_TRIANGLES[tri_kind[t]]``
    from its cell, the vertex-wise minimum, in order: so the kind is an
    int64 0 or 1, computed on each read and kept nowhere."""
    mesh = build_mesh(level)
    kind = mesh.tri_kind
    assert kind.dtype == np.int64 and kind.shape == (mesh.n_tris,)
    ij = mesh.node_ij[mesh.tris]
    assert np.array_equal(ij, ij.min(axis=1)[:, None] + UNIT_TRIANGLES[kind])
    assert "tri_kind" not in vars(mesh)


@pytest.mark.parametrize("level", range(1, MAX_LEVEL - 1))
def test_tri_index_inverts_tris_and_is_minus_one_outside(level):
    """``tri_table`` maps every subtriangle back from its cell, the
    vertex-wise minimum, and kind, 1 when the cell corner (i+1, j+1)
    is a vertex; a unit triangle of the table's cells has an index
    exactly when its three vertices are nodes, so the ring of cells
    around the hexagon's is -1.  The table is built on first read only.
    The levels are those at which the lift's patch grid reads it, the
    coarse levels up to ``MAX_LEVEL - 2``."""
    mesh = build_mesh(level)
    assert "tri_table" not in vars(mesh)
    table = mesh.tri_table
    m = mesh.n + 1
    assert table.shape == (2 * m, 2 * m, 2)
    ij = mesh.node_ij[mesh.tris]
    cell = ij.min(axis=1)
    kind = (ij == cell[:, None] + 1).all(axis=-1).any(axis=1).astype(int)
    assert np.array_equal(table[cell[:, 0] + m, cell[:, 1] + m, kind],
                          np.arange(mesh.n_tris))

    r = np.arange(-m, m)
    I, J, K = np.meshgrid(r, r, [0, 1], indexing="ij")
    steps = np.array([[(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])[K]
    vertices = mesh.index(I[..., None] + steps[..., 0], J[..., None] + steps[..., 1])
    assert np.array_equal(table >= 0, (vertices >= 0).all(axis=-1))
    assert np.array_equal(mesh.tris[table[table >= 0]], vertices[table >= 0])
    ring = np.ones(table.shape[:2], dtype=bool)
    ring[1:-1, 1:-1] = False
    assert np.all(table[ring] == -1)


def test_boundary_nodes_lie_on_the_hexagon(mesh_cache):
    mesh = mesh_cache(3)
    ring = np.flatnonzero(mesh.on_boundary)
    assert ring.size == 6 * mesh.n
    assert np.allclose(support(mesh.node_xy[ring]), APOTHEM, atol=1e-12)


def test_level_validation():
    with pytest.raises(ValueError):
        build_mesh(0)
    with pytest.raises(ValueError):
        build_mesh(MAX_LEVEL + 1)


@pytest.mark.parametrize("level", [True, False, 2.0, "2", np.float64(3)])
def test_levels_that_are_not_integers_are_rejected(level):
    with pytest.raises(ValueError, match="level must be an integer"):
        build_mesh(level)


@pytest.mark.parametrize("dtype", sorted(
    {np.dtype(c) for c in np.typecodes["AllInteger"]}, key=lambda d: d.str), ids=str)
def test_numpy_integer_levels_build_the_python_level_mesh(dtype, mesh_cache):
    """``check_level`` accepts any numpy integer, and the mesh is built in
    Python integers: equal in every array, ``tri_table`` and
    ``center_corners`` included, with ``level`` a Python ``int``.  In
    the level's own dtype, ``uint8(3)`` gave an empty mesh and
    ``int16(9)`` an ``IndexError``."""
    for level in range(1, 9):
        want, got = mesh_cache(level), build_mesh(dtype.type(level))
        assert type(got.level) is int and got.level == level
        for name in [f.name for f in dataclasses.fields(want)
                     ] + ["tri_table", "center_corners"]:
            a, b = np.asarray(getattr(want, name)), np.asarray(getattr(got, name))
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_interior_center_neighbourhood(mesh_cache):
    """Each centre's six lattice neighbours are its corners, none of
    which is class 0."""
    mesh = mesh_cache(3)
    for c, row in zip(mesh.centers, mesh.center_corners):
        ci, cj = mesh.node_ij[c]
        nbrs = {
            int(mesh.index(ci + di, cj + dj))
            for di, dj in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        }
        assert nbrs == set(int(x) for x in row)
        assert all(node_class(*mesh.node_ij[k]) != 0 for k in row)


@given(
    i1=st.integers(-64, 64), j1=st.integers(-64, 64),
    i2=st.integers(-64, 64), j2=st.integers(-64, 64),
)
def test_position_is_linear(i1, j1, i2, j2):
    s = 0.125
    a = position(np.array([i1, j1]), s)
    b = position(np.array([i2, j2]), s)
    c = position(np.array([i1 + i2, j1 + j2]), s)
    assert np.allclose(a + b, c, atol=1e-12)


@given(i=st.integers(-64, 64), j=st.integers(-64, 64))
def test_unit_lattice_steps(i, j):
    s = 0.25
    here = position(np.array([i, j]), s)
    for di, dj in [(1, 0), (0, 1), (-1, 1)]:
        there = position(np.array([i + di, j + dj]), s)
        assert math.isclose(float(np.linalg.norm(there - here)), s, rel_tol=1e-12)
