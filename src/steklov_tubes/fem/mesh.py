"""Triangle meshes for the flat benchmark domains.

Three generators:

  * mesh_planar(Disk(R), h): spiderweb mesh, ring i carries 6i vertices,
    so refining h by 2 roughly quadruples the vertex count and meshes of
    different h are geometrically similar.
  * mesh_planar(Annulus(r_in, r_out), h): structured polar grid.
  * mesh_torus_minus_disks(side, centers, eps, h): fundamental square of
    a flat torus with circular holes.  Hole boundaries are exact
    inscribed polygons at edge length h, graded collar rings blend into
    a hex background lattice capped at a coarser edge length, and the
    square's opposite edges carry matching vertices that are identified
    through periodic_pairs.  Delaunay triangulation with a few rounds of
    Laplacian smoothing; hole triangles are dropped by a centroid test
    whose margin separates polygon ears from kept collar triangles.

The torus mesh covers a translate of the fundamental square, chosen so
its seams run clear of every hole; hole j carries marker j wherever its
center lies.  The periodic gluing exists only in the degree-of-freedom
map, so boundary extraction, validate and the Euler characteristic all
read one dof-space edge table (_edge_table).  For a torus of genus 1
with b holes that characteristic is -b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

from ..errors import ConfigurationError, NumericalError


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _edge_table(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undirected edges of a triangle array: (unique pairs, inverse, counts).

    The 3*nt directed edges are the 0-1 sides of every triangle, then the
    1-2 sides, then the 2-0 sides; inverse maps each to its row of the
    unique (a < b) pairs, which come out in lexicographic order.  The
    sort key a*n + b is int64 so it cannot wrap for large meshes.
    """
    edges = np.sort(
        np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1
    ).astype(np.int64)
    n = edges.max(initial=0) + 1
    keys, inverse, counts = np.unique(
        edges[:, 0] * n + edges[:, 1], return_inverse=True, return_counts=True
    )
    return np.column_stack([keys // n, keys % n]), inverse, counts


def _dof_components(n: int, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """Read-only dof labels of n vertices glued by pairs, and their count."""
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), (n, n))
    ndof, dof = connected_components(graph, directed=False)
    dof.flags.writeable = False
    return dof, ndof


# Collar grading around each hole: ring spacing stays at h on a band of
# width _COLLAR_BAND*eps, then grows proportionally to the radius
# (s = h*r/band) until it reaches the background size.  Proportional
# growth keeps the local resolution h(r)/r constant, so the collar's
# share of the interpolation error scales like (h/eps)^2 with no
# h-independent floor from the transition zone; boundary modes decay
# like powers of eps/r and are meshed self-similarly.
_COLLAR_BAND = 0.5


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
    the mesh.  The dof map, the operators of solve.assemble and the
    lambda_1 of checks.poincare_check are cached on the instance, so
    every check and solve on one mesh object shares them;
    dataclasses.replace gives a new mesh with a fresh cache.
    """

    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3), CCW
    boundary_edges: np.ndarray    # (nbe, 2) vertex indices
    boundary_markers: np.ndarray  # (nbe,)
    periodic_pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64)
    )

    def __post_init__(self):
        for f in fields(self):
            arr = np.array(getattr(self, f.name))
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
        object.__setattr__(self, "_cache", {})

    def cached(self, key: str, build):
        """build(self), computed on the first call for this mesh object."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def dof_map(self) -> tuple[np.ndarray, int]:
        """Vertex -> dof indices after periodic identification (cached).

        Dofs are the connected components of the periodic_pairs graph,
        numbered in order of their lowest vertex.
        """
        return self.cached(
            "dof_map", lambda m: _dof_components(m.num_vertices, m.periodic_pairs)
        )

    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    def euler_characteristic(self) -> int:
        dof, ndof = self.dof_map()
        edges, _, _ = _edge_table(dof[self.triangles])
        return ndof - len(edges) + self.num_triangles

    def boundary_length(self, marker: int | None = None) -> float:
        sel = (
            slice(None)
            if marker is None
            else np.flatnonzero(self.boundary_markers == marker)
        )
        e = self.boundary_edges[sel]
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def validate(self) -> None:
        if np.any(self.areas() <= 0):
            raise NumericalError("mesh has non-CCW or degenerate triangles")
        dof, _ = self.dof_map()
        uniq, _, counts = _edge_table(dof[self.triangles])
        if np.any(counts > 2):
            raise NumericalError("mesh edge shared by more than two triangles")
        free = {tuple(e) for e in uniq[counts == 1]}
        listed = {tuple(sorted(dof[e])) for e in self.boundary_edges}
        if free != listed:
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
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(f"malformed mesh file {path}: {exc}") from exc
        mesh = cls(verts, tris, bnd[:, :2], bnd[:, 2], pairs)
        mesh.validate()
        return mesh


# ---------------------------------------------------------------------------
# shared helpers


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    flip = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _stitch(inner: np.ndarray, inner_ang: np.ndarray, outer: np.ndarray,
            outer_ang: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangle strip between two concentric vertex rings, merged by angle."""
    n_in, n_out = len(inner), len(outer)
    ia = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
    oa = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
    tris = []
    i = j = 0
    while i < n_in or j < n_out:
        if i < n_in and (j >= n_out or ia[i + 1] <= oa[j + 1]):
            tris.append((inner[i], outer[j % n_out], inner[(i + 1) % n_in]))
            i += 1
        else:
            tris.append((inner[i % n_in], outer[j], outer[(j + 1) % n_out]))
            j += 1
    return tris


def _ring(center: np.ndarray, radius: float, n: int, offset: float = 0.0) -> np.ndarray:
    ang = 2.0 * math.pi * (np.arange(n) + offset) / n
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


# ---------------------------------------------------------------------------
# planar domains


def _mesh_disk(radius: float, h: float) -> Mesh:
    if radius <= 0 or not (0 < h < radius):
        raise ConfigurationError(f"need 0 < h < radius, got h={h}, radius={radius}")
    n_r = max(2, round(radius / h))
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
        rings.append(np.arange(start, start + n_i))
        angs.append(ang)
        start += n_i
    vertices = np.concatenate(verts)
    tris = [(0, rings[0][k], rings[0][(k + 1) % 6]) for k in range(6)]
    for i in range(n_r - 1):
        tris.extend(_stitch(rings[i], angs[i], rings[i + 1], angs[i + 1]))
    triangles = _orient_ccw(vertices, np.array(tris, dtype=np.int64))
    outer = rings[-1]
    be = np.column_stack([outer, np.roll(outer, -1)]).astype(np.int64)
    mesh = Mesh(vertices, triangles, be, np.ones(len(be), dtype=np.int64))
    mesh.validate()
    return mesh


def _mesh_annulus(r_in: float, r_out: float, h: float) -> Mesh:
    if not (0 < r_in < r_out) or h <= 0:
        raise ConfigurationError(
            f"need 0 < r_in < r_out and h > 0, got {r_in}, {r_out}, {h}"
        )
    n_r = max(2, round((r_out - r_in) / h))
    n_t = max(8, round(math.pi * (r_in + r_out) / h))
    ang = 2.0 * math.pi * np.arange(n_t) / n_t
    cs = np.column_stack([np.cos(ang), np.sin(ang)])
    vertices = np.concatenate(
        [(r_in + i * (r_out - r_in) / n_r) * cs for i in range(n_r + 1)]
    )

    # vertex i*n_t + k sits on ring i at angle k; each cell (i, k) splits
    # into two triangles along its (i, k)-(i+1, k+1) diagonal
    a = np.arange(n_r * n_t, dtype=np.int64)
    d = a - a % n_t + (a + 1) % n_t
    cells = np.column_stack([a, a + n_t, d + n_t, a, d + n_t, d])
    triangles = _orient_ccw(vertices, cells.reshape(-1, 3))
    ring = np.column_stack([a[:n_t], d[:n_t]])
    be = np.concatenate([ring, ring + n_r * n_t])
    mesh = Mesh(vertices, triangles, be, np.repeat(np.arange(2, dtype=np.int64), n_t))
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


def mesh_torus_minus_disks(
    side: float,
    centers: list[tuple[float, float]] | np.ndarray,
    eps: float,
    h: float,
    h_max: float | None = None,
) -> Mesh:
    """Fundamental-square mesh of a flat torus with round holes.

    h is the target edge length on the hole boundaries (requires
    h < eps/4); away from the holes the edge length grows to h_max
    (default max(h, side/32)).  Hole centers must be separated by more
    than 4*eps in the periodic metric.  Returns a validated mesh whose
    only boundary edges are the hole polygons, marked by hole index.
    """
    if side <= 0:
        raise ConfigurationError(f"side must be > 0, got {side}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2) % side
    b = len(centers)
    if b and not (0 < h < eps / 4):
        raise ConfigurationError(f"need 0 < h < eps/4, got h={h}, eps={eps}")
    if h_max is None:
        h_max = max(h, side / 32.0)
    h_max = min(h_max, side / 8.0)
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
    pinned: list[np.ndarray] = []

    def add(pts: np.ndarray, pin: bool) -> np.ndarray:
        start = sum(len(p) for p in points)
        points.append(pts)
        pinned.append(np.full(len(pts), pin))
        return np.arange(start, start + len(pts))

    # square corners and matched edge points (all pinned)
    n_e = max(8, round(side / h_max))
    step = side / n_e
    ticks = step * np.arange(1, n_e)
    corner_idx = add(
        np.array([[0.0, 0.0], [side, 0.0], [0.0, side], [side, side]]), True
    )
    bot = add(np.column_stack([ticks, np.zeros(n_e - 1)]), True)
    top = add(np.column_stack([ticks, np.full(n_e - 1, side)]), True)
    left = add(np.column_stack([np.zeros(n_e - 1), ticks]), True)
    right = add(np.column_stack([np.full(n_e - 1, side), ticks]), True)
    pairs = [(corner_idx[1], corner_idx[0]), (corner_idx[2], corner_idx[0]),
             (corner_idx[3], corner_idx[0])]
    pairs += list(zip(top, bot)) + list(zip(right, left))

    # hole polygons (pinned) and graded collar rings (free)
    n_b = max(12, round(2.0 * math.pi * eps / h)) if b else 0
    ring_tops = []
    for c in frame:
        add(_ring(c, eps, n_b), True)
        band = (1.0 + _COLLAR_BAND) * eps
        collar_end = min(
            band * h_max / h,
            0.45 * sep_min,
            margin - 0.8 * h_max,
        )
        r, k, r_top = eps, 0, eps
        while True:
            if r - eps < h:
                # wall layer: eigenfunctions behave like (eps/r)^q, so the
                # normal second derivative peaks at the circle; halve the
                # first ring spacings to keep that layer's share of the
                # interpolation error in line with the rest of the collar.
                s = 0.5 * h + 0.5 * (r - eps)
            else:
                s = min(h * max(1.0, r / band), h_max)
            if r + s > collar_end:
                break
            r += s
            k += 1
            n_k = max(10, round(2.0 * math.pi * r / s))
            add(_ring(c, r, n_k, offset=0.5 * (k % 2)), False)
            r_top = r
        ring_tops.append(r_top)

    # hex background lattice (free), kept clear of seams and collars
    ny = max(2, round(side / (h_max * math.sqrt(3.0) / 2.0)))
    nx = max(2, round(side / h_max))
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
    for c, r_top in zip(frame, ring_tops):
        keep &= np.hypot(*(hexpts - c).T) > r_top + 0.55 * h_max
    add(hexpts[keep], False)

    pts = np.concatenate(points)
    pin = np.concatenate(pinned)
    free = ~pin

    chord = 2.0 * eps * math.sin(math.pi / n_b) if b else 0.0
    drop_radius = eps - chord * chord / (6.0 * eps) if b else 0.0

    def hole_mask(tri_pts: np.ndarray) -> np.ndarray:
        cent = tri_pts.mean(axis=1)
        inside = np.zeros(len(cent), dtype=bool)
        for c in frame:
            inside |= np.hypot(*(cent - c).T) < drop_radius
        return inside

    tri = None
    for it in range(4):
        tri = Delaunay(pts)
        simp = tri.simplices
        simp = simp[~hole_mask(pts[simp])]
        if it == 3:
            break
        edges, _, _ = _edge_table(simp)
        sums = np.zeros_like(pts)
        cnt = np.zeros(len(pts))
        np.add.at(sums, edges[:, 0], pts[edges[:, 1]])
        np.add.at(sums, edges[:, 1], pts[edges[:, 0]])
        np.add.at(cnt, edges[:, 0], 1)
        np.add.at(cnt, edges[:, 1], 1)
        ok = free & (cnt > 0)
        avg = sums[ok] / cnt[ok, None]
        pts[ok] = 0.3 * pts[ok] + 0.7 * avg
        for c in frame:
            d = np.hypot(*(pts - c).T)
            bad = free & (d < eps + 0.45 * h)
            if np.any(bad):
                u = (pts[bad] - c) / d[bad, None]
                pts[bad] = c + (eps + 0.6 * h) * u

    vertices = pts + off
    triangles = _orient_ccw(pts, simp.astype(np.int64))
    pair_arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    dof, _ = _dof_components(len(vertices), pair_arr)
    be, markers = _extract_boundary(vertices, triangles, dof, frame + off, eps)
    mesh = Mesh(vertices, triangles, be, markers, pair_arr)
    mesh.validate()
    chi = mesh.euler_characteristic()
    if chi != -b:
        raise NumericalError(f"torus mesh has Euler characteristic {chi}, want {-b}")
    for j in range(b):
        n_edges = int(np.sum(mesh.boundary_markers == j))
        if n_edges != n_b:
            raise NumericalError(
                f"hole {j} has {n_edges} boundary edges, expected {n_b}"
            )
    return mesh


def _extract_boundary(
    vertices: np.ndarray,
    triangles: np.ndarray,
    dof: np.ndarray,
    centers: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges in dof space, mapped back to owning vertex pairs.

    centers are the hole centers in the vertices' own (translated) frame.
    """
    _, inv, counts = _edge_table(dof[triangles])
    corner, tri = np.divmod(np.flatnonzero(counts[inv] == 1), len(triangles))
    be = np.column_stack([triangles[tri, corner], triangles[tri, (corner + 1) % 3]])
    if len(be) == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    markers = np.full(len(be), -1, dtype=np.int64)
    mids = 0.5 * (vertices[be[:, 0]] + vertices[be[:, 1]])
    ends = np.stack([vertices[be[:, 0]], vertices[be[:, 1]]])
    for j, c in enumerate(centers):
        on_circle = np.all(
            np.abs(np.hypot(*(ends - c).transpose(2, 0, 1)) - eps) < 1e-9 * (1 + eps),
            axis=0,
        )
        markers[on_circle & (np.hypot(*(mids - c).T) < 2 * eps)] = j
    if np.any(markers < 0):
        raise NumericalError("boundary edge found away from every hole circle")
    return be.astype(np.int64), markers
