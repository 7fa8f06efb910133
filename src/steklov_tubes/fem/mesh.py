"""Triangle meshes for the flat benchmark domains.

Three generators:

  * mesh_planar(Disk(R), h): spiderweb mesh, ring i carries 6i vertices,
    so refining h by 2 roughly quadruples the vertex count and meshes of
    different h are geometrically similar.  The vertices are 6-fold
    symmetric, the triangles not quite: where rings i and i + 1 meet a
    60-degree ray, _stitch breaks the tie by rounded angles, so the
    60-degree turn maps 40 of 2400 triangles at h 0.05 (124 of 15000 at
    h 0.02) onto no triangle of the mesh.
  * mesh_planar(Annulus(r_in, r_out), h): structured polar grid of
    rings with n_t equally spaced vertices each, vertex i*n_t + k on ring
    i at angle 2 pi k / n_t.  Turning by one ray maps it onto itself; it
    says so through Mesh.blocks, so that fem.solve can split its
    Steklov pencil into n_t Fourier sectors.
  * mesh_torus_minus_disks(side, centers, eps, h): fundamental square of
    a flat torus with circular holes.  Hole boundaries are exact
    inscribed polygons at edge length h; around each, graded polar rings
    of twice the polygon's vertex count run out to a hex background
    lattice capped at a coarser edge length.  The collars share one set
    of radii; each is placed in one array operation and numbered ring
    after ring, so its strips repeat three patterns that _stitch gives
    once per mesh, as it stitches the disk's rings.  The square's
    opposite edges carry matching vertices that are identified through
    periodic_pairs.  One Delaunay call triangulates the background (the
    square's points, the hex points and each collar's outermost ring;
    the generator imports scipy.spatial for it, so the first torus a
    process builds pays that import and planar meshes never load it),
    and nothing is smoothed; a triangle whose corners all lie on one
    outermost ring is inside that collar and dropped.  Turning by one
    polygon step maps each collar onto itself, and the mesh declares
    each collar as a block.

Every generator lists the boundary rings it placed, the torus its hole
polygons (hole j carries marker j wherever its center lies).  The torus
mesh covers a translate of the fundamental square whose seams run clear
of every hole, and the periodic gluing exists only in the dof map:
Mesh.dof_map labels each vertex with the lowest vertex that pairs join
it to, by label propagation in numpy, and numbers the dofs in order of
those lowest vertices.

Each mesh sorts its edges once: Mesh.edges() caches the dof-space edge
table, and Mesh.areas() the signed triangle areas.  validate (positive
areas, no edge of three triangles, listed boundary edges == edges of one
triangle), the Euler characteristic (-b for b holes) and fem.solve's
single CSR pattern of K and M all read these two arrays.

All topology is int32: the generators build their index arrays as int32
from the start, and a Mesh holds its triangles, boundary edges and
markers, periodic pairs and blocks, and its edge table, as int32.  No
mesh under MAX_VERTICES comes near 2**31 indices, and int32 takes a
quarter off the bytes per vertex of a build.  A Mesh refuses an index
that int32 cannot hold, so a loaded file cannot wrap one, and a vertex
index that names no vertex, so a negative one cannot count from the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_array

from ..errors import ConfigurationError, NumericalError


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Triangle areas, positive for CCW corners, gathered one coordinate at a time."""
    x, y = (vertices[:, i][triangles.T] for i in (0, 1))
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))


def _edge_table(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges of a triangle array: (unique pairs, inverse).

    The 3*nt directed edges are the 0-1 sides of every triangle, then the
    1-2 sides, then the 2-0 sides; inverse (int32 when 3*nt < 2**31) maps
    each to its row of the int32 unique (a <= b) pairs, in lexicographic
    order.
    The pairs are a CSR matrix with row a and column b, which a counting
    sort over a builds with duplicates summed, in O(nt + n) for bounded
    vertex degree (Davis, Direct Methods for Sparse Linear Systems, SIAM
    2006, sections 2.4-2.5); each directed edge then looks up its pair's
    number in that matrix.
    """
    corners = tri.T
    start, end = corners.ravel(), corners[[1, 2, 0]].ravel()
    n = int(tri.max(initial=0)) + 1
    a, b = np.minimum(start, end), np.maximum(start, end)
    del start, end
    pairs = csr_array((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    index = np.int32 if len(a) < 2**31 else np.int64
    pairs.data = np.arange(pairs.nnz, dtype=index)
    inverse = pairs[a, b]
    del a, b
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(pairs.indptr))
    return np.column_stack([rows, pairs.indices.astype(np.int32, copy=False)]), inverse


# A generator refuses a mesh estimated above MAX_VERTICES before it
# allocates any of it; an h far too small for the domain would otherwise
# fail inside numpy with a memory error, or take the machine's memory.
# The cap is ten times today's largest mesh (the h 0.005 annulus of
# acceptance criterion 9, 95k vertices) and about four times the planned
# 260k-vertex log-polar model collars.
MAX_VERTICES = 1_000_000


def _check_size(estimate, *args) -> None:
    """Refuse a mesh that estimate(*args) puts above MAX_VERTICES."""
    try:
        vertices = float(estimate(*args))
    except OverflowError:  # a size ratio such as radius/h beyond float range
        vertices = math.inf
    if not vertices <= MAX_VERTICES:
        raise ConfigurationError(
            f"the mesh would have about {vertices:.3g} vertices, over the cap "
            f"of {MAX_VERTICES}; use a larger h"
        )


# Collar grading around each hole: ring spacing stays at h on a band of
# width _COLLAR_BAND*eps, then grows proportionally to the radius
# (s = h*r/band) until it reaches the background size.  Proportional
# growth keeps the local resolution h(r)/r constant, so the collar's
# share of the interpolation error scales like (h/eps)^2 with no
# h-independent floor from the transition zone; boundary modes decay
# like powers of eps/r and are meshed self-similarly.
_COLLAR_BAND = 0.5


def _index_copy(name: str, value, vertices: int | None) -> np.ndarray:
    """An int32 copy of an index array; refuses what int32 cannot hold
    exactly and, given a vertex count, an index outside [0, vertices)."""
    arr = np.asarray(value)
    if arr.size and not np.can_cast(arr.dtype, np.int32):
        if arr.dtype.kind not in "iu":
            raise ConfigurationError(f"mesh {name} must be integers, got {arr.dtype}")
        low, high = int(arr.min()), int(arr.max())
        if low < -(2**31) or high >= 2**31:
            raise ConfigurationError(
                f"mesh {name} hold {high if high >= 2**31 else low}, outside int32"
            )
    arr = arr.astype(np.int32)
    if vertices is not None and arr.size:
        low, high = int(arr.min()), int(arr.max())
        if low < 0 or high >= vertices:
            raise ConfigurationError(
                f"mesh {name} hold {low if low < 0 else high}, "
                f"outside the vertex range [0, {vertices})"
            )
    return arr


@dataclass(frozen=True)
class Disk:
    radius: float


@dataclass(frozen=True)
class Annulus:
    r_in: float
    r_out: float


@dataclass(frozen=True, eq=False)
class Mesh:
    """An immutable mesh that computes what it determines once.

    The arrays are read-only copies of the constructor's, so a generator
    finishes every array, the torus boundary included, before it builds
    the mesh.  The index arrays are copied as int32; a value int32 cannot
    hold exactly (outside +-2**31, or not an integer) raises
    ConfigurationError and is never wrapped, and so does a vertex index
    outside [0, num_vertices) in the triangles, boundary edges, periodic
    pairs or blocks.  The dof map, the edge table, the areas, the
    stiffness of solve.assemble, the mass of solve.mass (built for
    Neumann solves only), the Steklov and Neumann spectra of fem.solve
    and the boundary masses of fem.checks are cached on the instance, so
    every check and solve on one mesh object shares them;
    dataclasses.replace gives a new mesh with a fresh cache.

    blocks declares ray-periodic parts: a block is a (cells x slots) grid
    of vertex indices, and turning counterclockwise by 2 pi / cells about
    the centroid of slot 0 maps row c onto row c + 1.  The annulus's one
    block covers the mesh (cell k is ray k, slot i ring i); on the torus,
    cell c of a collar holds polygon vertex c (slot 0) and vertices 2c
    and 2c + 1 of each later ring.  fem.solve checks a declaration on the
    mesh itself, its triangles and coordinates, before it relies on it.
    save does not write it, so a loaded mesh takes the general solver.
    """

    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3), CCW
    boundary_edges: np.ndarray    # (nbe, 2) vertex indices
    boundary_markers: np.ndarray  # (nbe,)
    periodic_pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int32)
    )
    blocks: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "vertices":
                arrays = [np.array(value)]
            else:
                # vertices come first, so their count bounds every index array
                vertices = None if f.name == "boundary_markers" else self.num_vertices
                arrays = [
                    _index_copy(f.name, v, vertices)
                    for v in (value if f.name == "blocks" else [value])
                ]
            for arr in arrays:
                arr.flags.writeable = False
            object.__setattr__(self, f.name, tuple(arrays) if f.name == "blocks" else arrays[0])
        object.__setattr__(self, "_cache", {})

    def cached(self, key, build):
        """build(self), computed once per key; its arrays, bare or in a tuple, are read-only."""
        if key not in self._cache:
            value = self._cache[key] = build(self)
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
        return self._cache[key]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def dof_map(self) -> tuple[np.ndarray, int]:
        """Vertex -> dof indices after periodic identification (cached).

        A dof is a set of vertices that periodic_pairs join, directly or
        through a chain of pairs; dofs are numbered in order of their
        lowest vertex, and a mesh without pairs has dof i at vertex i.
        The labels are int32 and read-only.

        A label always names a vertex of the same set, no higher than
        itself.  Each round hooks the higher label of every pair onto the
        lower, then replaces every label by its label's label until none
        moves; every round lowers a label, and rounds stop when both ends
        of every pair carry one label.  A set's lowest vertex is then the
        one vertex of the set that labels itself, and it labels them all.
        """

        def build(m: Mesh) -> tuple[np.ndarray, int]:
            label, pairs = np.arange(m.num_vertices, dtype=np.int32), m.periodic_pairs.T
            while not np.array_equal(*(ends := label[pairs])):
                low = ends.min(axis=0)
                for end in ends:  # numpy 2.4's minimum.at misreads a broadcast low
                    np.minimum.at(label, end, low)
                while not np.array_equal(jump := label[label], label):
                    label = jump
            own = label == np.arange(len(label))
            return (np.cumsum(own, dtype=np.int32) - 1)[label], int(np.count_nonzero(own))

        return self.cached("dof_map", build)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """_edge_table of the triangles in dof space (cached, read-only).

        A triangle with two corners on one dof would give a self-edge
        (a, a), which neither validate nor the CSR pattern of
        fem.solve can place; it raises NumericalError.
        """

        def build(m: Mesh):
            dof, _ = m.dof_map()
            table = _edge_table(dof[m.triangles])
            if np.any(table[0][:, 0] == table[0][:, 1]):
                raise NumericalError("a triangle has two corners on one dof")
            return table

        return self.cached("edges", build)

    def areas(self) -> np.ndarray:
        """Signed triangle areas, positive for CCW corners (cached, read-only)."""
        return self.cached("areas", lambda m: _signed_areas(m.vertices, m.triangles))

    def euler_characteristic(self) -> int:
        _, ndof = self.dof_map()
        return ndof - len(self.edges()[0]) + self.num_triangles

    def boundary_length(self, marker: int) -> float:
        e = self.boundary_edges[self.boundary_markers == marker]
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def validate(self) -> None:
        if np.any(self.areas() <= 0):
            raise NumericalError("mesh has non-CCW or degenerate triangles")
        dof, _ = self.dof_map()
        uniq, inverse = self.edges()
        counts = np.bincount(inverse, minlength=len(uniq))
        if np.any(counts > 2):
            raise NumericalError("mesh edge shared by more than two triangles")
        free = uniq[counts == 1]
        listed = np.unique(np.sort(dof[self.boundary_edges], axis=1), axis=0)
        if not np.array_equal(free, listed):
            raise NumericalError(
                f"boundary edges inconsistent: {len(free)} from triangles, "
                f"{len(listed)} listed"
            )
        if len(self.boundary_markers) != len(self.boundary_edges):
            raise NumericalError("boundary marker array length mismatch")

    # ------------------------------------------------------------------
    # plain text serialization

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(
                f"{self.num_vertices} {self.num_triangles} {len(self.boundary_edges)}\n"
            )
            for x, y in self.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            for a, b, c in self.triangles:
                fh.write(f"{a} {b} {c}\n")
            for (a, b), m in zip(self.boundary_edges, self.boundary_markers):
                fh.write(f"{a} {b} {m}\n")
            if len(self.periodic_pairs):
                fh.write(f"periodic {len(self.periodic_pairs)}\n")
                for dup, rep in self.periodic_pairs:
                    fh.write(f"{dup} {rep}\n")

    @classmethod
    def load(cls, path: str) -> "Mesh":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]

        def section(start: int, count: int, width: int, kind: type) -> np.ndarray:
            block = lines[start : start + count]
            rows = [[kind(t) for t in ln.split()] for ln in block]
            # indices are read as int64, so that Mesh refuses one int32 cannot hold
            dtype = np.float64 if kind is float else np.int64
            return np.array(rows, dtype=dtype).reshape(count, width)

        try:
            nv, nt, nbe = map(int, lines[0].split())
            verts = section(1, nv, 2, float)
            tris = section(1 + nv, nt, 3, int)
            bnd = section(1 + nv + nt, nbe, 3, int)
            pos = 1 + nv + nt + nbe
            pairs = np.zeros((0, 2), dtype=np.int64)
            if pos < len(lines):
                tag, npairs = lines[pos].split()
                if tag != "periodic":
                    raise ValueError(f"unexpected section {tag!r}")
                pairs = section(pos + 1, int(npairs), 2, int)
            mesh = cls(verts, tris, bnd[:, :2], bnd[:, 2], pairs)
        except (ValueError, IndexError, OverflowError, ConfigurationError) as exc:
            raise ConfigurationError(f"malformed mesh file {path}: {exc}") from exc
        mesh.validate()
        return mesh


# ---------------------------------------------------------------------------
# shared helpers


def _stitch(inner: np.ndarray, inner_ang: np.ndarray, outer: np.ndarray,
            outer_ang: np.ndarray) -> np.ndarray:
    """Triangle strip between two concentric vertex rings, merged by angle.

    Each step advances the ring whose next vertex comes first
    counterclockwise, the inner ring on ties: the steps follow a stable
    sort of both rings' next angles, inner first.  Ties are between the
    rounded angles; two angles equal in exact arithmetic (the disk's
    ring i and ring i + 1 both reach each 60-degree ray) may round
    either way, and then the smaller steps first.  Every triangle (inner,
    outer, next) comes out counterclockwise.
    """
    n_in, n_out = len(inner), len(outer)
    nxt = np.concatenate([inner_ang[1:], inner_ang[:1] + 2.0 * math.pi,
                          outer_ang[1:], outer_ang[:1] + 2.0 * math.pi])
    step_in = np.argsort(nxt, kind="stable") < n_in
    i = np.cumsum(step_in, dtype=np.int32) - step_in
    j = np.arange(n_in + n_out, dtype=np.int32) - i
    apex = np.where(step_in, inner[(i + 1) % n_in], outer[(j + 1) % n_out])
    return np.column_stack([inner[i % n_in], outer[j % n_out], apex])


def _ring(center: np.ndarray, radius: float, ang: np.ndarray) -> np.ndarray:
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


# ---------------------------------------------------------------------------
# planar domains


def _disk_rings(radius: float, h: float) -> int:
    return max(2, round(radius / h))


def _annulus_grid(r_in: float, r_out: float, h: float) -> tuple[int, int]:
    """Ring gaps n_r and vertices per ring n_t of the structured annulus."""
    return max(2, round((r_out - r_in) / h)), max(8, round(math.pi * (r_in + r_out) / h))


def estimate_vertices(shape: Disk | Annulus, h: float) -> int:
    """Vertex count of mesh_planar(shape, h), exact, without building it."""
    if isinstance(shape, Disk):
        n_r = _disk_rings(shape.radius, h)
        return 1 + 3 * n_r * (n_r + 1)
    n_r, n_t = _annulus_grid(shape.r_in, shape.r_out, h)
    return (n_r + 1) * n_t


def _mesh_disk(radius: float, h: float) -> Mesh:
    if radius <= 0 or not (0 < h < radius):
        raise ConfigurationError(f"need 0 < h < radius, got h={h}, radius={radius}")
    _check_size(estimate_vertices, Disk(radius), h)
    n_r = _disk_rings(radius, h)
    dr = radius / n_r
    verts = [np.zeros((1, 2))]
    rings: list[np.ndarray] = []
    angs: list[np.ndarray] = []
    start = 1
    for i in range(1, n_r + 1):
        n_i = 6 * i
        ang = 2.0 * math.pi * np.arange(n_i) / n_i
        verts.append(
            i * dr * np.column_stack([np.cos(ang), np.sin(ang)])
        )
        rings.append(np.arange(start, start + n_i, dtype=np.int32))
        angs.append(ang)
        start += n_i
    vertices = np.concatenate(verts)
    fan = np.column_stack([np.zeros(6, dtype=np.int32), rings[0], np.roll(rings[0], -1)])
    strips = [
        _stitch(rings[i], angs[i], rings[i + 1], angs[i + 1]) for i in range(n_r - 1)
    ]
    triangles = np.concatenate([fan, *strips])
    outer = rings[-1]
    be = np.column_stack([outer, np.roll(outer, -1)])
    mesh = Mesh(vertices, triangles, be, np.ones(len(be), dtype=np.int32))
    mesh.validate()
    return mesh


def _mesh_annulus(r_in: float, r_out: float, h: float) -> Mesh:
    if not (0 < r_in < r_out) or not (h > 0):
        raise ConfigurationError(
            f"need 0 < r_in < r_out and h > 0, got r_in={r_in}, r_out={r_out}, h={h}"
        )
    _check_size(estimate_vertices, Annulus(r_in, r_out), h)
    n_r, n_t = _annulus_grid(r_in, r_out, h)
    ang = 2.0 * math.pi * np.arange(n_t) / n_t
    cs = np.column_stack([np.cos(ang), np.sin(ang)])
    vertices = np.concatenate(
        [(r_in + i * (r_out - r_in) / n_r) * cs for i in range(n_r + 1)]
    )

    # vertex i*n_t + k sits on ring i at angle k; each cell (i, k) splits
    # into two CCW triangles along its (i, k)-(i+1, k+1) diagonal
    a = np.arange(n_r * n_t, dtype=np.int32)
    d = a - a % n_t + (a + 1) % n_t
    cells = np.column_stack([a, a + n_t, d + n_t, a, d + n_t, d])
    triangles = cells.reshape(-1, 3)
    ring = np.column_stack([a[:n_t], d[:n_t]])
    be = np.concatenate([ring, ring + n_r * n_t])
    mesh = Mesh(
        vertices, triangles, be, np.repeat(np.arange(2, dtype=np.int32), n_t),
        blocks=(np.arange(len(vertices), dtype=np.int32).reshape(n_r + 1, n_t).T,),
    )
    mesh.validate()
    return mesh


def mesh_planar(shape: Disk | Annulus, h: float) -> Mesh:
    """Mesh a disk (outer marker 1) or annulus (inner 0, outer 1)."""
    if isinstance(shape, Disk):
        return _mesh_disk(shape.radius, h)
    if isinstance(shape, Annulus):
        return _mesh_annulus(shape.r_in, shape.r_out, h)
    raise ConfigurationError(f"unknown planar shape {shape!r}")


# ---------------------------------------------------------------------------
# flat torus with circular excisions


def _best_offset(centers: np.ndarray, side: float) -> tuple[np.ndarray, float]:
    """Offset on a 64x64 grid whose seams run farthest from every hole.

    Returns (offset, margin), margin being the least distance from a
    center to a seam (side/2 without holes); the first maximum in
    (ox, oy) order wins.  The torus itself does not care where the
    fundamental square starts.
    """
    grid = np.linspace(0.0, side, 64, endpoint=False)
    t = (centers[None, :, :] - grid[:, None, None]) % side   # (offset, hole, axis)
    axis_margin = np.minimum(t, side - t).min(axis=1, initial=side / 2.0)
    margin = np.minimum.outer(axis_margin[:, 0], axis_margin[:, 1])
    ix, iy = np.unravel_index(np.argmax(margin), margin.shape)
    return np.array([grid[ix], grid[iy]]), float(margin[ix, iy])


def _torus_grid(side: float, holes: int, eps: float, h: float):
    """(h_max, n_e, nx, ny, n_b): background edge length, points per square
    edge, hex lattice columns and rows, and vertices per hole polygon."""
    h_max = min(max(h, side / 32.0), side / 8.0)
    n_e = max(8, round(side / h_max))
    ny = max(2, round(side / (h_max * math.sqrt(3.0) / 2.0)))
    nx = max(2, round(side / h_max))
    n_b = max(12, round(2.0 * math.pi * eps / h)) if holes else 0
    return h_max, n_e, nx, ny, n_b


def estimate_torus_vertices(side: float, holes: int, eps: float, h: float) -> float:
    """An upper bound on the vertex count of mesh_torus_minus_disks.

    Counts the square's points, the whole hex lattice and, per hole, the
    polygon plus 2*n_b vertices on each collar ring.  The ring count
    bounds _collar_radii: two wall-layer rings, spacing h out to
    (1 + _COLLAR_BAND)*eps, then growth by the factor 1 + h/band up to
    the smaller of band*h_max/h and side/2, which no collar passes.
    """
    h_max, n_e, nx, ny, n_b = _torus_grid(side, holes, eps, h)
    if not holes:
        return 4 * n_e + nx * ny
    band = (1.0 + _COLLAR_BAND) * eps
    reach = min(band * h_max / h, side / 2.0)
    rings = 4.0 + _COLLAR_BAND * eps / h + max(0.0, math.log(reach / band)) / math.log1p(h / band)
    return 4 * n_e + nx * ny + holes * n_b * (1.0 + 2.0 * rings)


def _collar_radii(eps: float, h: float, h_max: float, room: float) -> list[float]:
    """Radii of collar rings 1..R, graded out from the hole polygon at eps.

    The last ring stays within room of the hole's center, and within
    band * h_max / h, where the spacing has reached h_max.
    """
    band = (1.0 + _COLLAR_BAND) * eps
    reach = min(band * h_max / h, room)
    radii, r = [], eps
    while True:
        if r - eps < h:
            # wall layer: eigenfunctions behave like (eps/r)^q, so the
            # normal second derivative peaks at the circle; halve the
            # first ring spacings to keep that layer's share of the
            # interpolation error in line with the rest of the collar.
            s = 0.5 * h + 0.5 * (r - eps)
        else:
            s = min(h * max(1.0, r / band), h_max)
        if r + s > reach:
            return radii
        r += s
        radii.append(r)


def mesh_torus_minus_disks(
    side: float,
    centers: list[tuple[float, float]] | np.ndarray,
    eps: float,
    h: float,
) -> Mesh:
    """Fundamental-square mesh of a flat torus with round holes.

    h is the target edge length on the hole boundaries (requires
    h < eps/4); away from the holes the edge length grows to
    min(max(h, side/32), side/8).  Hole centers must be separated by
    more than 4*eps in the periodic metric.  The hole polygon carries
    n_b vertices and every later collar ring 2*n_b; the strips between
    the rings are three stitched patterns moved along the collar's
    numbering, one Delaunay call meshes the background around them, and
    no point moves once placed.  Returns a validated mesh whose only
    boundary edges are the hole polygons, marked by hole index, with one
    block per collar.
    """
    if not (side > 0):
        raise ConfigurationError(f"side must be > 0, got {side}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % side
    b = len(centers)
    if b and not (0 < h < eps / 4):
        raise ConfigurationError(f"need 0 < h < eps/4, got h={h}, eps={eps}")
    _check_size(estimate_torus_vertices, side, b, eps, h)
    h_max, n_e, nx, ny, n_b = _torus_grid(side, b, eps, h)
    off, margin = _best_offset(centers, side)
    frame = (centers - off) % side

    # periodic center distances; a hole's nearest copy of itself is one
    # side away, so the diagonal holds side
    gap = np.abs(frame[:, None] - frame[None, :]) % side
    gap = np.minimum(gap, side - gap)
    sep = np.hypot(gap[..., 0], gap[..., 1])
    np.fill_diagonal(sep, side)
    if sep.min(initial=math.inf) <= 4.0 * eps:
        i, j = np.unravel_index(np.argmin(sep), sep.shape)
        raise ConfigurationError(
            f"holes {i} and {j} are {sep[i, j]:.4g} apart (periodic); "
            f"need more than {4.0 * eps:.4g}"
        )
    if b and margin <= 2.0 * eps + h_max:
        raise ConfigurationError(
            "cannot place the fundamental square seams clear of the holes"
        )
    # collars stop short of other holes; a lone hole's collar is bounded
    # by the seam margin alone
    sep_min = sep[np.triu_indices(b, 1)].min(initial=math.inf)

    points: list[np.ndarray] = []

    def add(pts: np.ndarray) -> np.ndarray:
        start = sum(len(p) for p in points)
        points.append(pts)
        return np.arange(start, start + len(pts), dtype=np.int32)

    # square corners and matched edge points
    step = side / n_e
    ticks = step * np.arange(1, n_e)
    corner_idx = add(np.array([[0.0, 0.0], [side, 0.0], [0.0, side], [side, side]]))
    bot = add(np.column_stack([ticks, np.zeros(n_e - 1)]))
    top = add(np.column_stack([ticks, np.full(n_e - 1, side)]))
    left = add(np.column_stack([np.zeros(n_e - 1), ticks]))
    right = add(np.column_stack([np.full(n_e - 1, side), ticks]))
    pairs = [(corner_idx[1], corner_idx[0]), (corner_idx[2], corner_idx[0]),
             (corner_idx[3], corner_idx[0])]
    pairs += list(zip(top, bot)) + list(zip(right, left))

    # hole polygons and graded collar rings: ring 0 is the polygon, every
    # later ring carries n_c = 2*n_b vertices, turned by half a step on odd
    # rings.  The strip out of the polygon and the strips out of even and
    # of odd rings are each one pattern, moved by the strip's first index
    n_c = 2 * n_b
    ang = 2.0 * math.pi * np.arange(n_b) / n_b
    turned = [2.0 * math.pi * (np.arange(n_c) + 0.5 * p) / n_c for p in (0, 1)]
    on_ring = np.stack([np.column_stack([np.cos(a), np.sin(a)]) for a in turned])
    first = _stitch(np.arange(n_b, dtype=np.int32), ang,
                    np.arange(n_b, n_b + n_c, dtype=np.int32), turned[1])
    later = np.stack([
        _stitch(np.arange(n_c, dtype=np.int32), turned[p],
                np.arange(n_c, 2 * n_c, dtype=np.int32), turned[1 - p])
        for p in (0, 1)
    ])
    room = min(0.45 * sep_min, margin - 0.8 * h_max)
    radii = np.array(_collar_radii(eps, h, h_max, room) if b else [])
    parity = np.arange(1, len(radii) + 1) % 2  # of rings 1..R
    strips, blocks = [], []
    for c in frame:
        polygon = add(_ring(c, eps, ang))
        rings = add((c + radii[:, None, None] * on_ring[parity]).reshape(-1, 2))
        inner = rings[:-n_c:n_c, None, None]  # first vertex of rings 1..R-1
        strips += [first + polygon[0], (later[parity[:-1]] + inner).reshape(-1, 3)]
        cells = rings.reshape(-1, n_b, 2).transpose(1, 0, 2).reshape(n_b, -1)
        blocks.append(np.hstack([polygon[:, None], cells]))

    # hex background lattice, kept clear of seams and collars
    hy, hx = side / ny, side / nx
    rows = []
    for r in range(ny):
        y = (r + 0.5) * hy
        x = ((np.arange(nx) + 0.25 + 0.5 * (r % 2)) * hx) % side
        rows.append(np.column_stack([x, np.full(nx, y)]))
    hexpts = np.concatenate(rows)
    keep = np.ones(len(hexpts), dtype=bool)
    keep &= np.minimum(hexpts[:, 0], side - hexpts[:, 0]) > 0.35 * h_max
    keep &= np.minimum(hexpts[:, 1], side - hexpts[:, 1]) > 0.35 * h_max
    for c in frame:
        keep &= np.hypot(*(hexpts - c).T) > radii[-1] + 0.55 * h_max
    hex_idx = add(hexpts[keep])

    # one Delaunay call on the background: the square's points (added
    # first), each collar's outermost ring and the hex points; a triangle
    # whose corners all lie on one outermost ring is inside that collar,
    # which the strips fill; 2-D Delaunay simplices are counterclockwise
    pts = np.concatenate(points)
    # a collar's outermost ring is its block's last two slots: the collars
    # reach past eps + h/2, so every collar has a ring past its polygon
    outer = [block[:, -2:].ravel() for block in blocks]
    bg = np.concatenate([np.arange(right[-1] + 1, dtype=np.int32), *outer, hex_idx])
    label = np.full(len(pts), -1, dtype=np.int32)
    for j, ring in enumerate(outer):
        label[ring] = j
    from scipy.spatial import Delaunay  # here, so that planar meshes never load scipy.spatial

    simp = bg[Delaunay(pts[bg]).simplices]
    on = label[simp]
    simp = simp[(on[:, 0] < 0) | (on[:, 0] != on[:, 1]) | (on[:, 1] != on[:, 2])]
    rings = np.array([block[:, 0] for block in blocks], dtype=np.int32).reshape(b, n_b)

    # hole j's boundary is its polygon, marked j
    be = np.stack([rings, np.roll(rings, -1, axis=1)], axis=-1).reshape(-1, 2)
    mesh = Mesh(
        pts + off,
        np.concatenate([simp, *strips]),
        be,
        np.repeat(np.arange(b, dtype=np.int32), n_b),
        np.array(pairs, dtype=np.int32).reshape(-1, 2),
        tuple(blocks),
    )
    mesh.validate()
    chi = mesh.euler_characteristic()
    if chi != -b:
        raise NumericalError(f"torus mesh has Euler characteristic {chi}, want {-b}")
    return mesh
