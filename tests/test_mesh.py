"""Mesh generators: topology, boundary bookkeeping, file round-trip."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.spatial

from steklov_tubes.acceptance import TORUS_CENTERS, TREND_EPS, _trend_h
from steklov_tubes.errors import ConfigurationError, NumericalError
from steklov_tubes.fem import (
    Annulus,
    Disk,
    Mesh,
    mesh_planar,
    mesh_torus_minus_disks,
    steklov_spectrum,
)
from steklov_tubes.fem import mesh as mesh_mod
from steklov_tubes.fem.mesh import _edge_table
from steklov_tubes.fem.solve import assemble, mass

CENTERS = ((0.25, 0.25), (0.75, 0.75))
THREE_HOLES = (2.0, ((0.3, 1.7), (1.1, 0.2), (1.6, 1.2)))


def test_disk_topology(disk_mesh):
    disk_mesh.validate()
    # disk: chi = 1, one boundary loop with marker 1
    assert disk_mesh.euler_characteristic() == 1
    assert set(np.unique(disk_mesh.boundary_markers)) == {1}
    # polygon length slightly below 2 pi r, well within 0.5%
    assert disk_mesh.boundary_length(1) == pytest.approx(2 * math.pi, rel=5e-3)
    assert len(disk_mesh.periodic_pairs) == 0


def test_annulus_topology(annulus_mesh):
    annulus_mesh.validate()
    assert annulus_mesh.euler_characteristic() == 0
    assert set(np.unique(annulus_mesh.boundary_markers)) == {0, 1}
    assert annulus_mesh.boundary_length(0) == pytest.approx(math.pi, rel=5e-3)
    assert annulus_mesh.boundary_length(1) == pytest.approx(2 * math.pi, rel=5e-3)


def test_torus_topology(torus_mesh):
    torus_mesh.validate()
    # torus minus 2 disks: chi = 0 - 2 = -2
    assert torus_mesh.euler_characteristic() == -2
    assert set(np.unique(torus_mesh.boundary_markers)) == {0, 1}
    for j in range(2):
        assert torus_mesh.boundary_length(j) == pytest.approx(
            2 * math.pi * 0.05, rel=5e-3
        )
    # periodic identification removes seam duplicates from the dof count
    assert len(torus_mesh.periodic_pairs) > 0
    _, ndof = torus_mesh.dof_map()
    assert ndof == torus_mesh.num_vertices - len(torus_mesh.periodic_pairs)


def _worst_opposite_angle_sum(mesh):
    """Largest sum of the two angles facing an edge shared by two triangles."""
    p = mesh.vertices[mesh.triangles]
    edges, inverse = _edge_table(mesh.triangles)
    # the k-th block of directed edges is the side (k, k+1) of each
    # triangle, facing corner k+2
    angles = []
    for k in range(3):
        u = p[:, k] - p[:, (k + 2) % 3]
        v = p[:, (k + 1) % 3] - p[:, (k + 2) % 3]
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        angles.append(np.arctan2(np.abs(cross), (u * v).sum(axis=1)))
    sums = np.bincount(inverse, np.concatenate(angles), len(edges))
    return sums[np.bincount(inverse, minlength=len(edges)) == 2].max()


def test_torus_mesh_is_delaunay(torus_mesh):
    # the background is one Delaunay triangulation and the stitched
    # collar strips keep its condition: the angles facing each interior
    # edge sum to at most pi (exactly pi, to rounding, where four ring
    # points are cocircular)
    eps = TREND_EPS[0]
    trend = mesh_torus_minus_disks(1.0, TORUS_CENTERS, eps, _trend_h(eps))
    for mesh in (torus_mesh, trend):
        assert _worst_opposite_angle_sum(mesh) <= math.pi + 1e-9


def _periodic_distances(mesh, side, center):
    d = np.abs(mesh.vertices - np.asarray(center)) % side
    d = np.minimum(d, side - d)
    return np.hypot(d[:, 0], d[:, 1])


def _collar_circles(mesh, side, center, n_b):
    """(count, radius) of each circle around center carrying n_b or more
    vertices, innermost first, and the periodic distance of every vertex.

    A circle is a run of sorted distances whose neighbours differ by at
    most 1e-12; background points never line up n_b at one distance.
    """
    d = _periodic_distances(mesh, side, center)
    r = np.sort(d)
    runs = np.split(r, np.flatnonzero(np.diff(r) > 1e-12) + 1)
    return [(len(g), g[0]) for g in runs if len(g) >= n_b], d


def test_torus_triangulates_background_once(monkeypatch):
    # one Delaunay call, on the square's points, the hex points and each
    # collar's outermost ring; the stitched strips fill the collars
    calls = []

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return delaunay(points, *args, **kwargs)

    delaunay = scipy.spatial.Delaunay
    monkeypatch.setattr(scipy.spatial, "Delaunay", counting)
    for eps, h in ((0.05, 0.01), (0.02, 0.02 / 6.0)):
        calls.clear()
        mesh = mesh_torus_minus_disks(1.0, TORUS_CENTERS, eps, h)
        n_b = np.count_nonzero(mesh.boundary_markers == 0)
        inner = sum(
            count
            for c in TORUS_CENTERS
            for count, _ in _collar_circles(mesh, 1.0, c, n_b)[0][:-1]
        )
        assert calls == [mesh.num_vertices - inner]
        assert calls[0] < mesh.num_vertices


def test_torus_collars_are_structured(torus_mesh):
    # each collar is the hole polygon and rings of 2 n_b vertices, and
    # every vertex inside its outermost ring lies on one of them
    eps, h = 0.05, 0.01
    n_b = round(2.0 * math.pi * eps / h)
    side, centers = THREE_HOLES
    layouts = (
        (torus_mesh, 1.0, TORUS_CENTERS),
        (mesh_torus_minus_disks(side, centers, eps, h), side, centers),
    )
    for mesh, side, centers in layouts:
        counts = []
        for j, c in enumerate(centers):
            circles, d = _collar_circles(mesh, side, c, n_b)
            (n_poly, r_poly), *rings = circles
            assert r_poly == pytest.approx(eps, rel=0.0, abs=1e-12)
            assert n_poly == n_b == np.count_nonzero(mesh.boundary_markers == j)
            assert {n for n, _ in rings} == {2 * n_b}
            outer = rings[-1][1]
            assert outer > (1.0 + mesh_mod._COLLAR_BAND) * eps
            assert np.count_nonzero(d <= outer + 1e-12) == sum(n for n, _ in circles)
            counts.append([n for n, _ in circles])
        assert all(row == counts[0] for row in counts)


def test_torus_vertices_on_circles(torus_mesh):
    # hole polygon vertices sit exactly on the circle of radius eps
    for j, c in enumerate(CENTERS):
        sel = torus_mesh.boundary_markers == j
        idx = np.unique(torus_mesh.boundary_edges[sel].ravel())
        r = np.hypot(*(torus_mesh.vertices[idx] - np.asarray(c)).T)
        assert np.allclose(r, 0.05, rtol=1e-12, atol=1e-12)


def test_translated_holes(torus_mesh):
    # centers below the chosen square offset: hole j still carries marker j
    # and its polygon sits on its own circle
    layouts = (
        (1.0, ((0.1, 0.1), (0.6, 0.6))),
        THREE_HOLES,
    )
    for side, centers in layouts:
        mesh = mesh_torus_minus_disks(side, centers, 0.05, 0.01)
        assert mesh.euler_characteristic() == -len(centers)
        assert set(np.unique(mesh.boundary_markers)) == set(range(len(centers)))
        for j, c in enumerate(centers):
            idx = np.unique(mesh.boundary_edges[mesh.boundary_markers == j])
            r = _periodic_distances(mesh, side, c)[idx]
            assert np.allclose(r, 0.05, rtol=0.0, atol=1e-12)
    # translating both holes leaves the spectrum alone
    shifted = mesh_torus_minus_disks(1.0, layouts[0][1], 0.05, 0.01)
    sigma1 = steklov_spectrum(shifted, 2)[1]
    assert sigma1 == pytest.approx(steklov_spectrum(torus_mesh, 2)[1], rel=1e-3)


def test_edge_table(disk_mesh, annulus_mesh, torus_mesh):
    # int32 labels whose keys a*n + b would pass 2**31, and no triangle
    edges, inverse = _edge_table(np.array([[0, 99999, 100000]], dtype=np.int32))
    assert edges.tolist() == [[0, 99999], [0, 100000], [99999, 100000]]
    assert inverse.tolist() == [0, 2, 1]
    empty = _edge_table(np.zeros((0, 3), dtype=np.int64))
    assert empty[0].shape == (0, 2) and empty[1].shape == (0,)
    # the table is int32, as the mesh's indices are, and so is the inverse
    # of a table under 2**31 sides
    assert edges.dtype == np.int32 and inverse.dtype == np.int32
    # same output as the row-wise unique, on planar meshes and on the
    # periodic torus's vertex and dof labels
    dof, _ = torus_mesh.dof_map()
    for tri in (
        disk_mesh.triangles, annulus_mesh.triangles, torus_mesh.triangles, dof[torus_mesh.triangles]
    ):
        sides = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        ref = np.unique(
            np.sort(sides, axis=1),
            axis=0,
            return_inverse=True,
            return_counts=True,
        )
        edges, inverse = _edge_table(tri)
        assert np.array_equal(edges, ref[0])
        assert np.array_equal(inverse, ref[1].ravel())
        assert np.array_equal(np.bincount(inverse, minlength=len(edges)), ref[2])


def test_mesh_is_immutable(torus_mesh):
    with pytest.raises(dataclasses.FrozenInstanceError):
        torus_mesh.vertices = torus_mesh.vertices + 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        torus_mesh.blocks = ()
    (K, dof, _), M = assemble(torus_mesh), mass(torus_mesh)
    # every field is an array but blocks, a tuple of arrays
    arrays = [getattr(torus_mesh, f.name) for f in dataclasses.fields(torus_mesh)]
    blocks = arrays.pop()
    assert isinstance(blocks, tuple) and len(blocks) == 2
    arrays += [*blocks, dof, K.data, K.indices, K.indptr, M.data]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    # the mesh holds copies, so the caller's arrays stay writable and apart
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]), np.array([[0, 1]]), np.array([1]))
    verts[0] = 5.0
    assert mesh.vertices[0].tolist() == [0.0, 0.0]


def test_operators_cached_per_mesh(annulus_mesh):
    first = (*assemble(annulus_mesh), mass(annulus_mesh))
    assert all(a is b for a, b in zip(first, (*assemble(annulus_mesh), mass(annulus_mesh))))
    assert annulus_mesh.dof_map()[0] is first[1]
    # a copy of the mesh is a new object with its own, equal, operators
    copy = dataclasses.replace(annulus_mesh)
    fresh = (*assemble(copy), mass(copy))
    assert fresh[0] is not first[0] and fresh[3] is not first[3]
    for a, b in ((first[0], fresh[0]), (first[3], fresh[3])):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
    assert np.array_equal(first[1], fresh[1]) and first[2] == fresh[2]


def test_validate_guards_hole_polygons(torus_mesh):
    # the generator lists each hole polygon as placed; validate is what
    # catches a polygon edge that is not free or a free edge not listed
    m = torus_mesh
    a, b = m.boundary_edges[m.boundary_markers == 0][0]
    (on_edge,) = np.flatnonzero((m.triangles == a).any(1) & (m.triangles == b).any(1))
    broken = (
        Mesh(m.vertices, np.delete(m.triangles, on_edge, axis=0), m.boundary_edges,
             m.boundary_markers, m.periodic_pairs),
        Mesh(m.vertices, m.triangles, m.boundary_edges[1:], m.boundary_markers[1:],
             m.periodic_pairs),
    )
    for mesh in broken:
        with pytest.raises(NumericalError, match="boundary edges inconsistent"):
            mesh.validate()


def test_one_edge_table_per_mesh(monkeypatch):
    # the generator's validate, the Euler characteristic and assembly
    # share the mesh's cached edge table
    calls = []

    def counting(tri):
        calls.append(len(tri))
        return _edge_table(tri)

    monkeypatch.setattr(mesh_mod, "_edge_table", counting)
    for build in (
        lambda: mesh_planar(Disk(1.0), 0.2),
        lambda: mesh_planar(Annulus(0.5, 1.0), 0.1),
        lambda: mesh_torus_minus_disks(1.0, TORUS_CENTERS, 0.05, 0.01),
    ):
        calls.clear()
        mesh = build()
        mesh.euler_characteristic()
        mesh.validate()
        assemble(mesh)
        assert calls == [mesh.num_triangles]
    assert mesh.edges() is mesh.edges() and mesh.areas() is mesh.areas()


def test_validate_refuses_self_edge():
    # two corners of one triangle glued by periodic_pairs fall on one dof
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    be = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    markers = np.zeros(4, dtype=np.int64)
    Mesh(verts, tris, be, markers).validate()
    glued = Mesh(verts, tris, be, markers, np.array([[1, 0]]))
    with pytest.raises(NumericalError, match="two corners on one dof"):
        glued.validate()


def test_bare_torus():
    mesh = mesh_torus_minus_disks(1.0, [], 0.05, 0.01)
    mesh.validate()
    assert mesh.euler_characteristic() == 0
    assert len(mesh.boundary_edges) == 0


def test_dof_map_chained_pairs():
    # pairs that chain through vertex 1 glue all three vertices into dof 0
    mesh = Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 3]]),
        np.zeros((0, 2), dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.array([[2, 1], [1, 0]]),
    )
    dof, ndof = mesh.dof_map()
    assert dof.tolist() == [0, 0, 0, 1]
    assert ndof == 2


def _random_pairs(rng, n):
    """Shuffled pairs on n >= 3 vertices: a chain, a cycle, random pairs,
    repeats of some of them and self-pairs, each pair in either order."""
    order = rng.permutation(n)
    cut = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
    chain, cycle = order[: cut[0]], order[cut[0] : cut[1]]
    pairs = np.concatenate([
        np.column_stack([chain[:-1], chain[1:]]),
        np.column_stack([cycle, np.roll(cycle, 1)]),
        rng.integers(0, n, size=(rng.integers(0, n), 2)),
    ])
    loops = rng.integers(0, n, size=rng.integers(0, 4))
    pairs = np.concatenate([
        pairs, pairs[rng.integers(0, len(pairs), size=len(pairs) // 2)],
        np.column_stack([loops, loops]),
    ])
    pairs = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    return pairs


def test_dof_map_matches_connected_components(disk_mesh, annulus_mesh, torus_mesh):
    # the dof map labels components by lowest vertex, as scipy's
    # connected_components does, bit for bit and in int32
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(36)
    empty = np.zeros((0, 2), dtype=np.int32)

    def paired(n, pairs):
        return Mesh(np.zeros((n, 2)), np.zeros((0, 3), dtype=np.int32), empty,
                    np.zeros(0, dtype=np.int32), pairs)

    meshes = [paired(3, empty)]
    meshes += [paired(n, _random_pairs(rng, n)) for n in rng.integers(3, 80, size=300)]
    side, centers = THREE_HOLES
    meshes += [
        disk_mesh, annulus_mesh, torus_mesh, mesh_torus_minus_disks(1.0, [], 0.05, 0.01),
        mesh_torus_minus_disks(1.0, [(0.5, 0.5)], 0.02, 0.004),
        mesh_torus_minus_disks(side, centers, 0.05, 0.01),
    ]
    for mesh in meshes:
        dof, ndof = mesh.dof_map()
        n, pairs = mesh.num_vertices, mesh.periodic_pairs
        graph = coo_matrix((np.ones(len(pairs)), pairs.T), (n, n))
        ref_ndof, ref = connected_components(graph, directed=False)
        assert dof.dtype == ref.dtype == np.int32
        assert np.array_equal(dof, ref) and ndof == ref_ndof


def test_mesh_refuses_indices_off_the_vertices(tmp_path):
    # an index outside [0, num_vertices) is refused by field name, and a
    # file holding one is malformed; markers are labels, not indices
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri, edge, marker = np.array([[0, 1, 2]]), np.array([[0, 1]]), np.array([7])
    assert Mesh(verts, tri, edge, marker).boundary_markers.tolist() == [7]
    for name, args in (
        ("triangles", (np.array([[0, 1, -1]]), edge, marker)),
        ("triangles", (np.array([[0, 1, 7]]), edge, marker)),
        ("boundary_edges", (tri, np.array([[0, 3]]), marker)),
        ("periodic_pairs", (tri, edge, marker, np.array([[5, 0]]))),
        ("periodic_pairs", (tri, edge, marker, np.array([[0, -2]]))),
        ("blocks", (tri, edge, marker, np.zeros((0, 2), dtype=int), (np.array([[0, 3]]),))),
    ):
        with pytest.raises(ConfigurationError, match=f"^mesh {name} hold"):
            Mesh(verts, *args)
    path = tmp_path / "disk.txt"
    mesh_planar(Disk(1.0), 0.5).save(str(path))
    text = path.read_text().splitlines()
    nv = int(text[0].split()[0])
    for index in (-1, nv):
        text[1 + nv] = f"0 1 {index}"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigurationError, match="malformed mesh file .*mesh triangles hold"):
            Mesh.load(str(path))


def test_load_empty_periodic_section(tmp_path):
    # "periodic 0" still gives an (n, 2) pair array, so dof_map works
    path = tmp_path / "disk.txt"
    mesh_planar(Disk(1.0), 0.5).save(str(path))
    with open(path, "a") as fh:
        fh.write("periodic 0\n")
    loaded = Mesh.load(str(path))
    assert loaded.periodic_pairs.shape == (0, 2)
    assert loaded.dof_map()[1] == loaded.num_vertices


def test_refinement_scales_vertex_count():
    coarse = mesh_planar(Disk(1.0), 0.2)
    fine = mesh_planar(Disk(1.0), 0.1)
    ratio = fine.num_vertices / coarse.num_vertices
    assert 3.0 < ratio < 5.5


def test_preconditions(tmp_path):
    with pytest.raises(ConfigurationError):
        mesh_torus_minus_disks(1.0, CENTERS, 0.05, 0.02)  # h >= eps/4
    with pytest.raises(ConfigurationError):
        mesh_torus_minus_disks(1.0, [(0.2, 0.2), (0.3, 0.2)], 0.05, 0.01)  # too close
    with pytest.raises(ConfigurationError, match="holes 0 and 0"):
        # a lone hole too close to its own periodic copy
        mesh_torus_minus_disks(0.15, [(0.05, 0.05)], 0.05, 0.01)
    with pytest.raises(ConfigurationError, match="holes 1 and 2 are 0.12 apart"):
        # pairs (0, 1) and (1, 2) are both too close; the closer is named
        mesh_torus_minus_disks(1.0, [(0.2, 0.2), (0.35, 0.2), (0.47, 0.2)], 0.05, 0.01)
    good = tmp_path / "disk.txt"
    mesh_planar(Disk(1.0), 0.5).save(str(good))
    lines = good.read_text().splitlines()
    nv, nt, _ = map(int, lines[0].split())
    row = 1 + nv + nt
    lines[row] = " ".join(lines[row].split()[:2])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines))
    with pytest.raises(ConfigurationError):
        Mesh.load(str(bad))  # boundary row with two tokens
    with pytest.raises(ConfigurationError):
        mesh_torus_minus_disks(0.0, CENTERS, 0.05, 0.01)
    with pytest.raises(ConfigurationError):
        mesh_planar(Disk(-1.0), 0.1)
    with pytest.raises(ConfigurationError):
        mesh_planar(Annulus(1.0, 0.5), 0.1)


def test_size_guard(disk_mesh, annulus_mesh, torus_mesh):
    # the planar estimate is the exact count
    for shape, h, mesh in (
        (Disk(1.0), 0.05, disk_mesh),
        (Annulus(0.5, 1.0), 0.05, annulus_mesh),
        (Disk(2.0), 0.3, mesh_planar(Disk(2.0), 0.3)),
        (Annulus(0.1, 0.4), 0.07, mesh_planar(Annulus(0.1, 0.4), 0.07)),
    ):
        assert mesh_mod.estimate_vertices(shape, h) == mesh.num_vertices
    # the torus estimate bounds the count from above, and not loosely
    side, centers = THREE_HOLES
    for mesh, side, b, eps, h in (
        (torus_mesh, 1.0, 2, 0.05, 0.01),
        (mesh_torus_minus_disks(side, centers, 0.05, 0.01), side, 3, 0.05, 0.01),
        (mesh_torus_minus_disks(1.0, [(0.5, 0.5)], 0.01, 0.001), 1.0, 1, 0.01, 0.001),
        (mesh_torus_minus_disks(1.0, [], 0.05, 0.01), 1.0, 0, 0.05, 0.01),
    ):
        estimate = mesh_mod.estimate_torus_vertices(side, b, eps, h)
        assert mesh.num_vertices <= estimate <= 2.0 * mesh.num_vertices
    # today's largest mesh (criterion 9's annulus) is far below the cap
    assert 10 * mesh_mod.estimate_vertices(Annulus(0.5, 1.0), 0.005) < mesh_mod.MAX_VERTICES
    # a mesh far over the cap is refused before anything is allocated,
    # also where radius / h leaves float range
    for build in (
        lambda: mesh_planar(Disk(1.0), 1e-9),
        lambda: mesh_planar(Annulus(0.5, 1.0), 1e-9),
        lambda: mesh_planar(Disk(math.inf), 0.1),
        lambda: mesh_planar(Annulus(0.5, 1.0), 1e-320),
        lambda: mesh_torus_minus_disks(1.0, CENTERS, 0.05, 1e-9),
    ):
        with pytest.raises(ConfigurationError, match="over the cap"):
            build()


def test_save_load_roundtrip(tmp_path, torus_mesh):
    path = tmp_path / "mesh.txt"
    torus_mesh.save(str(path))
    loaded = Mesh.load(str(path))
    loaded.validate()
    assert np.array_equal(loaded.triangles, torus_mesh.triangles)
    assert np.array_equal(loaded.boundary_edges, torus_mesh.boundary_edges)
    assert np.array_equal(loaded.boundary_markers, torus_mesh.boundary_markers)
    assert np.array_equal(loaded.periodic_pairs, torus_mesh.periodic_pairs)
    # repr round-trip keeps coordinates bit-exact
    assert np.array_equal(loaded.vertices, torus_mesh.vertices)
    # header counts match the spec'd "nv nt nbe" line
    head = path.read_text().splitlines()[0].split()
    assert [int(t) for t in head] == [
        torus_mesh.num_vertices,
        torus_mesh.num_triangles,
        len(torus_mesh.boundary_edges),
    ]


def test_index_arrays_are_int32(tmp_path, disk_mesh, annulus_mesh, torus_mesh):
    # every generator, and a loaded torus, holds its topology and edge
    # table as int32
    path = tmp_path / "mesh.txt"
    torus_mesh.save(str(path))
    loaded = Mesh.load(str(path))
    assert len(loaded.periodic_pairs) and len(torus_mesh.blocks) == 2
    for mesh in (disk_mesh, annulus_mesh, torus_mesh, loaded):
        arrays = [mesh.triangles, mesh.boundary_edges, mesh.boundary_markers,
                  mesh.periodic_pairs, *mesh.blocks, *mesh.edges()]
        assert [a.dtype for a in arrays] == [np.int32] * len(arrays)
    # an index int32 cannot hold is refused by name, in any field and in a
    # file, and never wraps; a whole int64 index is taken
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri, edge, marker = np.array([[0, 1, 2]]), np.array([[0, 1]]), np.array([1])
    assert Mesh(verts, tri.astype(np.int64), edge, marker).triangles.tolist() == [[0, 1, 2]]
    for name, args in (
        ("triangles", (tri + np.array([0, 0, 2**31]), edge, marker)),
        ("boundary_edges", (tri, edge - 2**31 - 1, marker)),
        ("boundary_markers", (tri, edge, marker + 2**31)),
        ("periodic_pairs", (tri, edge, marker, np.array([[2**31, 0]]))),
        ("blocks", (tri, edge, marker, np.zeros((0, 2), dtype=int), (np.array([[2**40]]),))),
        ("triangles", (tri + 0.5, edge, marker)),
    ):
        with pytest.raises(ConfigurationError, match=f"^mesh {name} "):
            Mesh(verts, *args)
    text = path.read_text().splitlines()
    nv = torus_mesh.num_vertices
    for index, message in ((2**31, "mesh triangles hold"), (2**63, "malformed mesh file")):
        text[1 + nv] = f"0 1 {index}"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigurationError, match=message):
            Mesh.load(str(path))


def test_blocks_turn_onto_themselves(annulus_mesh, torus_mesh):
    # turning a block by one cell about its center maps row c onto row
    # c + 1; a torus block's slot 0 is its hole polygon, and the
    # annulus's one block covers the mesh
    four = mesh_torus_minus_disks(1.0, [(0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25)],
                                  0.05, 0.01)
    assert annulus_mesh.blocks[0].size == annulus_mesh.num_vertices
    for mesh in (annulus_mesh, torus_mesh, four):
        for j, block in enumerate(mesh.blocks):
            p = mesh.vertices[block]
            center = p[:, 0].mean(axis=0)
            c, s = math.cos(2.0 * math.pi / len(block)), math.sin(2.0 * math.pi / len(block))
            turned = center + (p - center) @ np.array([[c, s], [-s, c]])
            assert np.abs(turned - np.roll(p, -1, axis=0)).max() <= 1e-12
            if mesh is not annulus_mesh:
                polygon = mesh.boundary_edges[mesh.boundary_markers == j, 0]
                assert np.array_equal(block[:, 0], polygon)
        every = np.concatenate([b.ravel() for b in mesh.blocks])
        assert len(np.unique(every)) == len(every)
    assert len(torus_mesh.blocks) == 2 and len(four.blocks) == 4


def _per_ring_collars(side, centers, eps, h):
    """(vertices, strips, block) of each collar, placed and stitched ring by ring.

    Numbered from the collar's first polygon vertex: the polygon, then
    each ring as it is placed.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % side
    h_max, _, _, _, n_b = mesh_mod._torus_grid(side, len(centers), eps, h)
    off, margin = mesh_mod._best_offset(centers, side)
    frame = (centers - off) % side
    gap = np.abs(frame[:, None] - frame[None, :]) % side
    gap = np.minimum(gap, side - gap)
    sep = np.hypot(gap[..., 0], gap[..., 1])[np.triu_indices(len(frame), 1)]
    band = (1.0 + mesh_mod._COLLAR_BAND) * eps
    end = min(band * h_max / h, 0.45 * sep.min(initial=math.inf), margin - 0.8 * h_max)
    collars = []
    for c in frame:
        ang = 2.0 * math.pi * np.arange(n_b) / n_b
        ring = np.arange(n_b, dtype=np.int32)
        vertices, strips, cells = [mesh_mod._ring(c, eps, ang)], [], [ring[:, None]]
        r, k = eps, 0
        while True:
            s = 0.5 * h + 0.5 * (r - eps) if r - eps < h else min(h * max(1.0, r / band), h_max)
            if r + s > end:
                break
            r, k = r + s, k + 1
            nxt_ang = 2.0 * math.pi * (np.arange(2 * n_b) + 0.5 * (k % 2)) / (2 * n_b)
            nxt = ring.max() + 1 + np.arange(2 * n_b, dtype=np.int32)
            vertices.append(mesh_mod._ring(c, r, nxt_ang))
            strips.append(mesh_mod._stitch(ring, ang, nxt, nxt_ang))
            cells.append(nxt.reshape(n_b, 2))
            ring, ang = nxt, nxt_ang
        collars.append((np.concatenate(vertices) + off, np.concatenate(strips), np.hstack(cells)))
    return collars


@pytest.mark.parametrize(
    "side, centers, eps, h",
    [
        (1.0, ((0.5, 0.5),), 0.05, 0.01),
        (1.0, CENTERS, 0.05, 0.01),
        (*THREE_HOLES, 0.05, 0.01),
        (1.0, ((0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25)), 0.05, 0.01),
        (1.0, CENTERS, 0.0005, 0.0001),
    ],
    ids=["one-hole", "two-holes", "three-holes", "four-holes", "eps0.0005-h1e-4"],
)
def test_collars_match_per_ring_stitching(side, centers, eps, h):
    # the collars are laid out in one pass from three stitched patterns;
    # ring by ring, one _stitch per strip, gives the same arrays bit for bit
    mesh = mesh_torus_minus_disks(side, centers, eps, h)
    collars = _per_ring_collars(side, centers, eps, h)
    end = mesh.num_triangles - sum(len(strips) for _, strips, _ in collars)
    assert len(mesh.blocks) == len(collars) == len(centers)
    for block, (vertices, strips, cells) in zip(mesh.blocks, collars):
        start = block[0, 0]
        assert np.array_equal(mesh.vertices[start : start + len(vertices)], vertices)
        assert np.array_equal(mesh.triangles[end : end + len(strips)], strips + start)
        assert np.array_equal(block, cells + start)
        end += len(strips)
    assert end == mesh.num_triangles
