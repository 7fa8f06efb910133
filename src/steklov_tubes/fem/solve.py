"""P1 assembly and the two spectral solves used by the benchmarks.

Assembly reads the mesh's cached dof-space edge table and areas, the
ones validate and the Euler characteristic read.  assemble builds the
stiffness K alone: each triangle gives three side entries and three
diagonal entries, formed one triangle side at a time from coordinate
differences; a bincount sums them per unique edge and per dof, and only
then is the CSR pattern built from the edge table.  mass builds the
consistent mass M the same way, for the Neumann pencil only, and keeps
K's own indices and indptr, so a mesh holds one pattern.  Steklov
solves and the energy checks never build M.

Both spectra are the smallest eigenvalues of a symmetric pencil
K u = lam B u with K and B positive semidefinite.  For the Neumann
problem B = M, the consistent mass.  For the Steklov problem
B = diag(d), the lumped boundary mass on the Steklov part of the
boundary: Dirichlet-marked boundary parts are eliminated,
Neumann-marked parts are left free, every other marker is Steklov.

Both start from A = K + tau B, which is positive definite for tau > 0
(the constants, K's kernel, carry B-mass) and is factored once.  tau =
1/|B|, the reciprocal area or Steklov boundary length, keeps the shift
at the scale of the lowest eigenvalues.  The eigenvalues sought are the
largest mu of B u = mu A u, with lam = 1/mu - tau (ARPACK Users' Guide,
Lehoucq, Sorensen and Yang 1998, sections 3-4).  Every lam >= 0, so mu
<= 1/tau in exact arithmetic; rounding above that bound is clipped and
no eigenvalue comes out negative.  A is the one copy of an operator a
solve makes: the Neumann A sums K's and M's data on their shared
pattern, the Steklov A is K with its diagonal shifted, and K is cut
down to the free dofs only when some dof is fixed.

Neumann runs shift-invert Lanczos (ARPACK) over all n dofs, or a dense
eigh from count >= n - 1.  The Steklov spectrum lives on the n_s dofs
where d > 0: with W = E_s diag(sqrt(d_s)), B = W W^T and the nonzero mu
are the eigenvalues of the n_s x n_s SPD C = W^T A^-1 W, in near-equal
cos/sin pairs.  Block Lanczos with BLOCK = 2 finds them, one two-column
solve a step; Gram-Schmidt repeats while a pass shrinks a column below
1/sqrt(2) (Daniel, Gragg, Kaufman and Stewart 1976).  A Ritz pair passes
at |C y - mu y| <= RESIDUAL mu by the block estimate (tested as if it
falls at most 100-fold a step), then by the true residual; n_s vectors
are exact.  Modes: u = A^-1 W y / mu, so u^T B u = |y|^2.

The dense steps stay in the LAPACK and BLAS that SuperLU and ARPACK
use, scipy's.  The Ritz step is scipy's eigh with driver "evd", the same
dsyevd that numpy's eigh runs, but numpy links its own OpenBLAS, and
above order 25 dsyevd divides and conquers (LAPACK Users' Guide, 3rd
ed. 1999, xSTEDC) in parallel BLAS: each Ritz step would wake numpy's
thread pool right after SuperLU has used scipy's, and on two cores that
hand-over can stall a step of 0.2-0.4 ms by several milliseconds.
ARPACK returns the Neumann values alone (rvec = .false.), since no Ritz
vector is read and _lam sorts the values.

Steklov eigenvalues without modes use the mesh's ray-periodic blocks
(Mesh.blocks): turning by one cell maps a block onto itself, so K is
block-circulant in its cells (P. J. Davis, Circulant Matrices, 1979).
The Fourier sector j, u_c = v w^(jc) with w = exp(2 pi i / n), turns it
into a banded Hermitian K_j on the slots, and one banded solve over the
sectors eliminates chosen slots (_sector_schur).  K is real, so K_(n-j)
is the conjugate of K_j: n//2 + 1 sectors, 0..n//2, are formed, factored
and solved, and the others are their conjugates.  The circulant rows
are read from the triangles touching cell 0 alone, summed as assemble
sums them (_circulant_rows), once the declaration is checked on the
mesh itself: exactly on the triangles' (cell, slot) labels, and to
TURN_ULPS on the coordinates, so the check does not tighten as h falls.
The annulus's one block covers the mesh (cells are rays, slots rings), and
it assembles no K: the interior and Neumann rings are eliminated onto
the at most two Steklov rings, whose batched D^-1/2 S_j D^-1/2 give the
eigenvalues with no sparse factorization.  The torus assembles no
whole-mesh K either: rings 1..R-1 of each collar are read from cell 0
and eliminated onto the polygon and the outer ring R, and an inverse DFT
turns the 3 x 3 Schur complements into one dense rim block per collar.
The reduced operator is the stiffness of the triangles with a corner
left, summed in assemble's order so that each entry is K's own, plus
the rim blocks (_condense_collars), and the general path solves it with
the same tau.  The Schur complement is exact, so the spectrum moves only
by rounding.  Modes, Neumann spectra, disks and loaded meshes (which carry
no blocks) take the general path.

Because A is SPD, LU needs no pivoting to be stable, so SuperLU factors
it symmetrically: symmetric mode, zero diagonal-pivot threshold and a
minimum-degree ordering of A + A^T = A (SuperLU Users' Guide, Li,
Demmel et al., section 2.5), which keeps the ordering symmetric and
cuts the fill of partial pivoting by about a third.  A singular A then
fails in the factorization; that failure, an indefinite A in eigh, a
non-finite Lanczos block and ARPACK running out of iterations all raise
NumericalError.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh, solveh_banded
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from ..errors import ConfigurationError, NumericalError
from .mesh import Mesh

BLOCK = 2  # Steklov Lanczos block size
RESIDUAL = 1e-10  # relative residual of every Steklov Ritz pair
TURN_ULPS = 64  # spacings of its largest coordinate a turned block vertex may move
SECTOR_CHUNK = 64  # Fourier sectors whose rows _sector_schur updates at once


def assemble(mesh: Mesh) -> tuple[sparse.csr_matrix, np.ndarray, int]:
    """Stiffness in dof space; returns (K, dof, ndof).

    Built once per mesh object; K has read-only arrays.
    """
    return mesh.cached("stiffness", _assemble)


def mass(mesh: Mesh) -> sparse.csr_matrix:
    """Consistent mass in dof space, on K's indices and indptr.

    Built once per mesh object, and only for the Neumann pencil; M has
    read-only arrays.
    """
    return mesh.cached("mass", _mass)


def _pattern(edges: np.ndarray, ndof: int):
    """CSR pattern of a P1 operator on the edge table's (a < b) pairs.

    Row r holds its edges (c, r) by ascending c, then r, then its edges
    (r, c) by ascending c, so the indices come out sorted.  Returns
    (indptr, indices, diag, upper, lower): the slots of each dof's
    diagonal and of each edge's (a, b) and (b, a) entries.
    """
    a, b = edges.T
    index = np.int32 if ndof + 2 * len(edges) < 2**31 else np.int64
    steps = np.arange(len(edges), dtype=index)
    n_below, n_above = np.bincount(b, minlength=ndof), np.bincount(a, minlength=ndof)
    indptr = np.concatenate([[0], np.cumsum(n_below + 1 + n_above)])
    diag = indptr[:-1] + n_below
    # the table is sorted by (a, b): row a's edges are consecutive from
    # edge first_above[a], and the upper triangle's CSC order, a counting
    # sort, lists the edges by (b, a)
    first_above = np.cumsum(n_above) - n_above
    upper = (diag + 1 - first_above).astype(index)[a] + steps
    by_b = sparse.csr_matrix(
        (steps, b, np.append(first_above, len(edges))), shape=(ndof, ndof)
    ).tocsc().data
    lower = np.empty_like(upper)
    lower[by_b] = (indptr[:-1] - (np.cumsum(n_below) - n_below)).astype(index)[b[by_b]] + steps
    indices = np.empty(indptr[-1], dtype=index)
    indices[diag], indices[upper], indices[lower] = np.arange(ndof), b, a
    return indptr.astype(index), indices, diag, upper, lower


def _sums(mesh: Mesh, side: np.ndarray, corner: np.ndarray):
    """(3, nt) side and corner entries of each triangle summed per edge and per dof.

    bincount reads them in the edge table's side order.
    """
    dof, ndof = mesh.dof_map()
    edges, inverse = mesh.edges()
    corner_dof = dof[mesh.triangles.T].ravel()
    on_edges = np.bincount(inverse, side.ravel(), len(edges))
    return on_edges, np.bincount(corner_dof, corner.ravel(), ndof)


def _operator(mesh: Mesh, on_edges: np.ndarray, on_dofs: np.ndarray) -> sparse.csr_matrix:
    """The symmetric CSR operator with these edge and diagonal entries, read-only."""
    _, ndof = mesh.dof_map()
    indptr, indices, diag, upper, lower = _pattern(mesh.edges()[0], ndof)
    data = np.empty(len(indices))
    data[upper] = data[lower] = on_edges
    data[diag] = on_dofs
    op = sparse.csr_matrix((data, indices, indptr), shape=(ndof, ndof))
    for arr in (op.data, op.indices, op.indptr):
        arr.flags.writeable = False
    return op


def _stiffness_entries(mesh: Mesh, tri=slice(None)):
    """(3, len(tri)) side and diagonal stiffness entries of the triangles tri.

    e_i is the side opposite corner i (from corner i + 1 to i + 2), and
    grad phi_i = perp(e_i) / (2A).  Side k of _edge_table joins corners k
    and k + 1, so its entry is e_k . e_(k+1) / (4A), and the diagonal
    entry of corner k is |e_k|^2 / (4A).
    """
    area = mesh.areas()[tri]
    if np.any(area <= 0):
        raise NumericalError("assembly requires CCW triangles with positive area")
    x, y, (a, b, c) = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.triangles[tri].T
    w = 0.25 / area
    side, diag = np.empty((3, len(area))), np.empty((3, len(area)))
    e = [(x[end] - x[start], y[end] - y[start]) for start, end in ((b, c), (c, a), (a, b))]
    for k in range(3):
        (ex, ey), (nx, ny) = e[k], e[(k + 1) % 3]
        side[k] = (ex * nx + ey * ny) * w
        diag[k] = (ex**2 + ey**2) * w
    return side, diag


def _assemble(mesh: Mesh):
    dof, ndof = mesh.dof_map()
    return _operator(mesh, *_sums(mesh, *_stiffness_entries(mesh))), dof, ndof


def _mass(mesh: Mesh):
    area = mesh.areas()
    M = _operator(mesh, *_sums(mesh, np.tile(area / 12.0, 3), np.tile(area / 6.0, 3)))
    K = assemble(mesh)[0]
    M.indices, M.indptr = K.indices, K.indptr  # one pattern per mesh, not two equal ones
    return M


def boundary_mass(mesh: Mesh, markers: set[int], dof: np.ndarray, ndof: int) -> np.ndarray:
    """Lumped boundary mass vector over edges with the given markers."""
    be = mesh.boundary_edges[np.isin(mesh.boundary_markers, list(markers))]
    e = mesh.vertices[be[:, 0]] - mesh.vertices[be[:, 1]]
    d = np.zeros(ndof)
    # each edge adds half its length to both ends, in edge order
    np.add.at(d, dof[be].ravel(), np.repeat(0.5 * np.hypot(e[:, 0], e[:, 1]), 2))
    return d


def split_markers(present: set[int], dirichlet_markers, neumann_markers):
    """Check the bc marker lists against the boundary markers present.

    Returns (Dirichlet markers, Steklov markers) as sets.
    """
    dset, nset = set(dirichlet_markers), set(neumann_markers)
    for m in dset | nset:
        if m not in present:
            raise ConfigurationError(f"marker {m} not present in mesh boundary")
    if dset & nset:
        raise ConfigurationError(f"markers {dset & nset} listed as both bc types")
    steklov = present - dset - nset
    if not steklov:
        raise ConfigurationError("no Steklov boundary left after bc assignment")
    return dset, steklov


@contextmanager
def _numerical_errors():
    """Raise SuperLU, LAPACK and ARPACK failures as NumericalError."""
    try:
        yield
    except (RuntimeError, LinAlgError) as exc:
        raise NumericalError(f"pencil eigensolve failed: {exc}") from exc


def _factor(A):
    """Symmetric-mode SuperLU factorization of the SPD matrix A."""
    return splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _lam(mu, tau: float):
    """lam = 1/mu - tau, ascending, from mu in any order.

    K and B are semidefinite, so lam >= 0; clip the rounding that puts
    mu of the constant mode above 1/tau.
    """
    order = np.argsort(mu)[::-1]
    return np.maximum(1.0 / mu[order] - tau, 0.0), order


def _pencil_eigs(K, b_mat, count: int, tau: float) -> np.ndarray:
    """`count` smallest eigenvalues of K u = lam B u, ascending (mode 2).

    K and B are exactly symmetric CSR matrices on one pattern, as K and
    mass(mesh) are, so A = K + tau B is formed on their data alone, and
    its CSR arrays, read as CSC, are A itself.
    """
    n = K.shape[0]
    data = tau * b_mat.data
    data += K.data
    A = sparse.csc_matrix((data, K.indices, K.indptr), shape=K.shape)
    with _numerical_errors():
        if count >= n - 1:
            mu, _ = eigh(b_mat.toarray(), A.toarray(), subset_by_index=[n - count, n - 1])
        else:
            lu = _factor(A)
            mu = eigsh(
                b_mat,
                k=count,
                M=A,
                Minv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
                which="LA",
                v0=np.random.default_rng(0).standard_normal(n),
                return_eigenvectors=False,
            )
    return _lam(mu, tau)[0]


def _block_lanczos(apply, n: int, count: int):
    """The `count` largest eigenpairs of C, descending; apply(X) = C X."""
    rng, CV, T, check_at = np.random.default_rng(0), np.zeros((n, 0)), np.zeros((0, 0)), count
    V = _extend(CV, CV, rng)
    while True:
        b, m = V.shape[1] - CV.shape[1], V.shape[1]
        CX = apply(V[:, -b:])
        if not np.all(np.isfinite(CX)):
            raise NumericalError("the Lanczos operator returned a non-finite block")
        CV, H = np.hstack([CV, CX]), V.T @ CX
        T = np.block([[T, H[:-b]], [H.T]])  # eigh reads the lower triangle
        R = CX - V @ H
        if m >= check_at or m == n:
            mu, S = (a[..., : -count - 1 : -1] for a in eigh(T, driver="evd"))
            ratio = np.max(np.linalg.norm(R @ S[-b:], axis=0) / (RESIDUAL * mu))
            true = np.linalg.norm(CV @ S - V @ S * mu, axis=0) if ratio <= 1 else np.inf
            if m == n or np.all(true <= RESIDUAL * mu):
                return mu, V @ S
            check_at = m + BLOCK * max(1, int(np.log10(max(1.0, ratio)) / 2))
        V = _extend(V, R, rng)


def _extend(V, R, rng):
    """V plus BLOCK (at most n) orthonormal columns spanning R's, or random ones."""
    want = min(V.shape[1] + BLOCK, len(V))
    for c in [*R.T, *rng.standard_normal((BLOCK, len(V)))]:
        for _ in range(3):
            c, before = c - V @ (V.T @ c), np.linalg.norm(c)
            if np.linalg.norm(c) > 0.5**0.5 * before:
                V = np.hstack([V, c[:, None] / np.linalg.norm(c)])
                break
        if V.shape[1] == want:
            return V
    raise LinAlgError("no direction left off the Lanczos basis")


def _boundary_eigs(K, d: np.ndarray, count: int, tau: float, return_modes: bool = False):
    """`count` smallest eigenvalues of K u = lam diag(d) u, ascending.

    Solved on the support s of d: with W = E_s diag(sqrt(d_s)), the
    largest mu of C = W^T A^-1 W are 1/(lam + tau).  With return_modes
    also the eigenvectors as columns, normalized so that u^T diag(d) u = 1.
    """
    s = np.flatnonzero(d > 0)
    n_s = len(s)
    W = sparse.csc_matrix((np.sqrt(d[s]), s, np.arange(n_s + 1)), shape=(K.shape[0], n_s))
    Wt = W.T
    # A = K + tau diag(d) on K's own pattern, the one copy of K made here: a
    # sparse sum drops K's exact zeros, and the structure SuperLU orders
    # would follow rounding
    A = K.tocsc(copy=True)
    A.setdiag(A.diagonal() + tau * d)
    with _numerical_errors():
        lu = _factor(A)
        mu, y = _block_lanczos(lambda Y: Wt @ lu.solve(W @ Y), n_s, count)
        vals, order = _lam(mu, tau)
        if not return_modes:
            return vals
        # A x = W y / mu solves the pencil, and W^T x = C y / mu = y
        x = lu.solve(W @ y[:, order]) / mu[order]
    return vals, x / np.linalg.norm(Wt @ x, axis=0)


def _cyclic_keys(label: np.ndarray, size: int) -> np.ndarray:
    """int64 keys of (3, m) triangle labels in [-1, size), size < 2**20.

    Each triangle is turned to start at its smallest label, so that the
    key names it with its corners' cyclic order, whichever corner a list
    starts at.
    """
    x, y, z = label
    a = np.minimum(np.minimum(x, y), z)
    b = np.where(a == x, y, np.where(a == y, z, x))
    key = a.astype(np.int64)
    key *= size
    key += b
    key *= size
    key += x + y + z - a - b
    return key


def _circulant_rows(mesh: Mesh, block, rows, d: np.ndarray, fixed: np.ndarray):
    """B[t, i, bw + s] = K[(0, rows[i]), (t, rows[i] + s)], (cell, slot) in block.

    Read from the triangles touching the `rows` slots of cell 0 and summed
    in assemble's order, so B holds K's own entries.  Raises NumericalError
    unless the mesh bears out the declaration: the block's vertices are
    dofs of their own; every triangle with a corner in the `rows` slots
    lies in the block, and turning by one cell maps it onto a triangle of
    the mesh with its corners in the same cyclic order (exact, on int32
    (cell, slot) labels); every block vertex is its cell-0 twin turned by
    2 pi c / n about the slot-0 centroid, to TURN_ULPS spacings of the
    block's largest coordinate; B's rows sum to zero; and d and fixed are
    alike in all cells.
    """
    n, slots = block.shape
    size = block.size
    if size >= 2**20:
        raise NumericalError(f"a block of {size} vertices is too large for the turn check")
    on_rows = np.zeros(mesh.num_vertices, dtype=bool)
    on_rows[block[:, rows]] = True
    corners = mesh.triangles.T
    touch = on_rows[corners[0]] | on_rows[corners[1]] | on_rows[corners[2]]
    del on_rows
    where = np.full(mesh.num_vertices, -1, dtype=np.int32)  # c * slots + s at (cell c, slot s)
    where[block] = np.arange(size, dtype=np.int32).reshape(block.shape)
    # corner k of each touching triangle in row k; the annulus's are all of them
    label = where[corners if touch.all() else np.compress(touch, mesh.triangles, axis=0).T]
    del where
    zero = label < slots
    local = np.flatnonzero(zero[0] | zero[1] | zero[2])  # corners in cell 0, or off the block
    first = np.flatnonzero(touch)[local]
    cell, slot = np.divmod(label[:, local], slots)
    del zero, touch
    # turning adds slots to every label off the last cell, and so the same
    # to a key; a triangle with a corner in the last cell is turned anew.
    # A corner off the block (-1) makes a key < 0, which no turned key is
    key = _cyclic_keys(label, size)
    last = label >= size - slots
    wraps = np.flatnonzero(last[0] | last[1] | last[2])
    del last
    turned = label[:, wraps] + slots
    turned[turned >= size] -= size
    key_turned = key + slots * (size * size + size + 1)
    key_turned[wraps] = _cyclic_keys(turned, size)
    turns = np.array_equal(np.sort(key), np.sort(key_turned))
    del label, key, key_turned  # before the coordinates, so the two checks do not add up

    z = mesh.vertices[block].view(complex)[..., 0]  # (n, slots), x + iy
    center = z[:, 0].mean()
    moved = np.exp(2j * np.pi * np.arange(n) / n)[:, None] * (z[0] - center)
    moved += center
    moved -= z
    dof, ndof = mesh.dof_map()
    dofs = dof[block]
    d_b, fixed_b = d[dofs], fixed[dofs]
    broken = NumericalError(f"the mesh is not invariant under turning by one of {n} rays")
    if not (
        n >= 3
        and np.all(np.bincount(dof, minlength=ndof)[dofs] == 1)
        and turns
        and np.abs(moved.view(float)).max() <= TURN_ULPS * np.spacing(np.abs(z.view(float)).max())
        and np.all(np.abs(d_b - d_b[:1]) <= 1e-12 * d.max())
        and np.all(fixed_b == fixed_b[:1])
    ):
        raise broken
    del z, moved

    # side k joins corners k and k + 1 and enters both rows; then the diagonal
    side, diag = _stiffness_entries(mesh, first)
    at = np.full(slots, -1)
    at[rows] = np.arange(len(rows))
    i = np.where(cell == 0, at[slot], -1)  # B's row of each corner, -1 off cell 0's rows
    nxt = [1, 2, 0]
    row = np.concatenate([i, i[nxt], i])
    turn = np.concatenate([cell[nxt], cell, np.zeros_like(cell)])
    shift = np.concatenate([slot[nxt] - slot, slot - slot[nxt], np.zeros_like(slot)])
    entry = np.concatenate([side, side, diag])
    ours = row >= 0
    bw = int(np.abs(shift[ours]).max())
    flat = ((turn * len(rows) + row) * (2 * bw + 1) + shift + bw)[ours]
    B = np.bincount(flat, entry[ours], n * len(rows) * (2 * bw + 1))
    B = B.reshape(n, len(rows), 2 * bw + 1)
    if not np.all(np.abs(B.sum(axis=0).sum(axis=1)) <= 1e-12 * max(B.max(), -B.min())):
        raise broken
    return B


def _sector_schur(mesh: Mesh, block, rows, elim, keep, d, fixed):
    """S_j = K_j[keep, keep] - K_j[keep, elim] K_j[elim, elim]^-1 K_j[elim, keep].

    block is an (n, slots) grid of vertices, and K_j is read from the K
    rows of the `rows` slots, zero between two other slots.  Returns (n,
    len(keep), len(keep)), sector j in row j.  K is real, so K_(n-j) is
    the conjugate of K_j: sectors 0..n//2 are solved, and row n - j is
    the conjugate of row j.
    """
    n, slots = block.shape
    B = _circulant_rows(mesh, block, rows, d, fixed)
    bw = B.shape[2] // 2
    half = n // 2 + 1

    # K_j = sum_t w^(jt) K_t as the zero-row-sum K_j at j = 0 plus, over t != 0,
    # (w^(jt) - 1) K_t: the small sector terms carry no cancellation
    R0 = B.sum(axis=0)
    R0[:, bw] = -(R0[:, :bw].sum(axis=1) + R0[:, bw + 1 :].sum(axis=1))
    R = np.broadcast_to(R0, (half, *R0.shape)).astype(complex)
    theta = 2.0 * np.pi * np.fft.fftfreq(n)[:half, None, None]
    for t in np.flatnonzero(B[1:].any(axis=(1, 2))) + 1:
        angle = theta * (t if 2 * t <= n else t - n)
        factor = -2.0 * np.sin(0.5 * angle) ** 2 + 1j * np.sin(angle)
        for j in range(0, half, SECTOR_CHUNK):  # no temporary the size of R
            R[j : j + SECTOR_CHUNK] += factor[j : j + SECTOR_CHUNK] * B[t]
    del B
    # U[:, p, s] = (K_j)[p, p + s], the mean of rows p and p + s where given
    U = np.zeros((half, slots + bw, bw + 1), dtype=complex)
    U[:, rows] = R[..., bw:]
    for s in range(bw + 1):
        U[:, rows - s, s] += R[..., bw - s].conj()
    del R  # U holds what the solve reads
    given = np.isin(np.arange(slots + bw), rows).astype(int)
    counts = given[:slots, None] + given[np.arange(slots)[:, None] + np.arange(bw + 1)]
    U = U[:, :slots]
    U /= np.maximum(counts, 1)

    def entry(p, q):
        """(K_j)[p, q] for every sector j, broadcast over slot indices p, q."""
        far = np.abs(q - p)
        near = U[:, np.minimum(p, q), np.minimum(far, bw)]
        np.conjugate(near, out=near, where=q < p)
        np.copyto(near, 0.0, where=far > bw)
        return near

    # upper form, sectors apart, stored as LAPACK reads it (band row fastest),
    # so the solve factors it in place
    band = np.zeros((half, len(elim), bw + 1), dtype=complex)
    for s in range(1, bw + 1):
        band[:, s:, bw - s] = entry(elim[:-s], elim[s:])
    band[..., bw] = entry(elim, elim)
    KEK, KKK = entry(elim[:, None], keep[None, :]), entry(keep[:, None], keep)
    del U
    # the right-hand side in LAPACK's column order, solved in place; K_EK^H
    # is then formed where K_EK was
    X = KEK.transpose(2, 0, 1).reshape(len(keep), -1).T
    np.conjugate(KEK, out=KEK)
    with _numerical_errors():
        X = solveh_banded(band.reshape(-1, bw + 1).T, X, overwrite_ab=True, overwrite_b=True)
    del band
    schur = KKK - KEK.transpose(0, 2, 1) @ X.reshape(KEK.shape)
    return np.concatenate([schur, schur[n - half : 0 : -1].conj()])


def _sector_eigs(mesh: Mesh, d: np.ndarray, fixed: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Every Steklov eigenvalue of a mesh one block covers (slot i is ring i).

    Returns (n, n_S) eigenvalues, row j ascending for sector j, n_S Steklov rings.
    """
    ring = mesh.dof_map()[0][block[0]]
    d0, free0 = d[ring], ~fixed[ring]
    S, I = np.flatnonzero(free0 & (d0 > 0)), np.flatnonzero(free0 & (d0 == 0))
    schur = _sector_schur(mesh, block, np.arange(block.shape[1]), I, S, d, fixed)
    scale = 1.0 / np.sqrt(d0[S])
    with _numerical_errors():
        return np.linalg.eigvalsh(scale[:, None] * schur * scale)


def _condense_collars(mesh: Mesh, d: np.ndarray, fixed: np.ndarray):
    """(A, d, fixed) on the dofs left when rings 1..R-1 of each collar block are eliminated.

    A is K on the kept dofs plus one dense rim block per collar.  Only the
    triangles with a kept corner are assembled, summed in assemble's
    order, so every kept entry of K is K's own.  Slot 0 of a collar block
    is its hole polygon, its last two slots its outer ring R: the rim,
    whose rows get zero sums again at the end.
    """
    dof, ndof = mesh.dof_map()
    stay = np.ones(ndof, dtype=bool)
    for block in mesh.blocks:
        stay[dof[block[:, 1:-2]]] = False
    new = np.cumsum(stay, dtype=np.int32) - 1  # kept dof -> row of A
    rim, parts = np.zeros(np.count_nonzero(stay), dtype=bool), []
    for block in mesh.blocks:
        n, slots = block.shape
        elim, keep = np.arange(1, slots - 2), np.array([0, slots - 2, slots - 1])
        schur = _sector_schur(mesh, block, elim, elim, keep, d, fixed)
        # cell c couples to cell c + t by (1/n) sum_j S_j w^(-jt)
        coupling = np.fft.fft(schur, axis=0).real / n
        dense = coupling[(np.arange(n) - np.arange(n)[:, None]) % n].transpose(0, 2, 1, 3)
        rims = new[dof[block[:, keep]].ravel()]
        rim[rims] = True
        parts.append((np.repeat(rims, 3 * n), np.tile(rims, 3 * n), dense.ravel()))
    corners = dof[mesh.triangles.T]
    tri = np.flatnonzero(stay[corners[0]] | stay[corners[1]] | stay[corners[2]])
    side, diag = _stiffness_entries(mesh, tri)
    edges, inverse = mesh.edges()
    on_edges = np.bincount(inverse.reshape(3, -1)[:, tri].ravel(), side.ravel(), len(edges))
    on_dofs = np.bincount(corners[:, tri].ravel(), diag.ravel(), ndof)
    del corners, tri, side, diag
    both = np.flatnonzero(stay[edges[:, 0]] & stay[edges[:, 1]])
    (a, b), on_edges = new[edges[both].T], on_edges[both]
    kept = np.arange(len(rim), dtype=np.int32)
    parts += [(a, b, on_edges), (b, a, on_edges), (kept, kept, on_dofs[stay])]
    row, col, data = map(np.concatenate, zip(*parts))
    del parts
    A = sparse.csr_matrix((data, (row, col)), shape=(len(kept), len(kept)))
    del row, col, data
    diag = A.diagonal()
    A.setdiag(0.0)
    A.setdiag(np.where(rim, -(A @ np.ones(A.shape[0])), diag))
    return A, d[stay], fixed[stay]


def steklov_spectrum(
    mesh: Mesh,
    count: int,
    dirichlet_markers: tuple[int, ...] = (),
    neumann_markers: tuple[int, ...] = (),
    return_modes: bool = False,
):
    """First `count` Steklov eigenvalues (ascending), optionally with modes.

    Modes are returned as vertex-space functions, one column per
    eigenvalue, normalized in the boundary mass.  Solved once per mesh
    object and arguments; the arrays returned are read-only.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    present = set(int(m) for m in np.unique(mesh.boundary_markers))
    dset, steklov_markers = split_markers(present, dirichlet_markers, neumann_markers)
    nset = present - dset - steklov_markers
    key = ("steklov", count, tuple(sorted(dset)), tuple(sorted(nset)), return_modes)
    return mesh.cached(key, lambda m: _steklov(m, count, dset, steklov_markers, return_modes))


def _steklov(
    mesh: Mesh, count: int, dset: set[int], steklov_markers: set[int], return_modes: bool
):
    dof, ndof = mesh.dof_map()
    d_vec = boundary_mass(mesh, steklov_markers, dof, ndof)

    fixed = np.zeros(ndof, dtype=bool)
    sel = np.isin(mesh.boundary_markers, list(dset))
    fixed[dof[mesh.boundary_edges[sel].ravel()]] = True
    n_steklov = int(np.count_nonzero(d_vec[~fixed] > 0))
    if count > n_steklov:
        raise ConfigurationError(
            f"requested {count} eigenvalues but only {n_steklov} boundary dofs"
        )

    tau = 1.0 / float(d_vec.sum())
    blocks = () if return_modes else mesh.blocks
    if blocks and blocks[0].size == ndof:  # one block covers the mesh: K is never built
        sigmas = np.sort(_sector_eigs(mesh, d_vec, fixed, blocks[0]), axis=None)[:count]
        return np.maximum(sigmas, 0.0)  # as _lam clips rounding below zero
    if blocks:
        K, d_vec, fixed = _condense_collars(mesh, d_vec, fixed)
    else:
        K = assemble(mesh)[0]
    free = slice(None)
    if fixed.any():  # K and d are indexed, and so copied, only when a dof is fixed
        free = np.flatnonzero(~fixed)
        K = K[free][:, free]
    out = _boundary_eigs(K, d_vec[free], count, tau, return_modes)
    if not return_modes:
        return out
    sigmas, u_free = out
    u = np.zeros((ndof, count))
    u[free] = u_free
    return sigmas, u[dof]


def neumann_spectrum(mesh: Mesh, count: int) -> np.ndarray:
    """First `count` Neumann eigenvalues, ascending from ~0; solved once per mesh, read-only."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    K, _, ndof = assemble(mesh)
    if count > ndof:
        raise ConfigurationError(f"requested {count} eigenvalues of {ndof} dofs")

    def solve(m: Mesh) -> np.ndarray:
        M = mass(m)
        return _pencil_eigs(K, M, count, 1.0 / float(M.sum()))

    return mesh.cached(("neumann", count), solve)
