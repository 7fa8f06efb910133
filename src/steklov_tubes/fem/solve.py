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
no eigenvalue comes out negative.

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
into a banded Hermitian K_j on the slots, and one banded solve over all
sectors eliminates chosen slots (_sector_schur).  The annulus's one
block covers the mesh (cells are rays, slots rings): the interior and
Neumann rings are eliminated onto the at most two Steklov rings, whose
batched D^-1/2 S_j D^-1/2 give the eigenvalues with no sparse
factorization.  On the torus, rings 1..R-1 of each collar are
eliminated onto the polygon and the outer ring R; an inverse DFT turns
the 3 x 3 Schur complements into one dense rim block that replaces the
rings in K, and the general path solves the reduced K with the same
tau.  The Schur complement is exact, so the spectrum moves only by
rounding.  Modes, Neumann spectra, disks and loaded meshes (which carry
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


def _stiffness_entries(mesh: Mesh):
    """(3, nt) side and diagonal stiffness entries of each triangle.

    e_i is the side opposite corner i (from corner i + 1 to i + 2), and
    grad phi_i = perp(e_i) / (2A).  Side k of _edge_table joins corners k
    and k + 1, so its entry is e_k . e_(k+1) / (4A), and the diagonal
    entry of corner k is |e_k|^2 / (4A).  Each e_k is gathered once, one
    coordinate difference at a time.
    """
    area = mesh.areas()
    if np.any(area <= 0):
        raise NumericalError("assembly requires CCW triangles with positive area")
    x, y, corners = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.triangles.T
    w = 0.25 / area
    side, diag = np.empty((3, len(area))), np.empty((3, len(area)))

    def e(i):
        start, end = corners[(i + 1) % 3], corners[(i + 2) % 3]
        return x[end] - x[start], y[end] - y[start]

    first = ex, ey = e(0)
    for k in range(3):
        nx, ny = e(k + 1) if k < 2 else first
        side[k] = (ex * nx + ey * ny) * w
        diag[k] = (ex**2 + ey**2) * w
        ex, ey = nx, ny
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
    """`count` smallest eigenvalues of K u = lam B u, ascending (mode 2)."""
    n = K.shape[0]
    A = (K + tau * b_mat).tocsc()
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
    # A = K + tau diag(d) on K's own pattern: a sparse sum drops K's exact
    # zeros, and the structure SuperLU orders would follow rounding
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


def _turn_twins(K, block, rows, d: np.ndarray, fixed: np.ndarray):
    """B[t, i, bw + s] = K[(0, rows[i]), (t, rows[i] + s)], (cell, slot) in block.

    Raises NumericalError unless each entry in the K rows of the `rows`
    slots lies in the block and equals its twin in cell 0 to 1e-12
    max|K|, those rows sum to zero, and d and fixed are alike in all cells.
    """
    n, slots = block.shape
    where = np.full(K.shape[0], -1, dtype=np.int32)
    where[block] = np.arange(block.size, dtype=np.int32).reshape(block.shape)
    order = block[:, rows].T.ravel()  # slot rows[i] of cell c in row i*n + c
    # a block that covers the mesh in K's own order (the annulus) is read in place
    sub = K if np.array_equal(order, np.arange(K.shape[0])) else K[order]
    # per-entry int32 arrays, turned into the flat index of B in place and
    # freed as soon as they are read
    ri, rc = np.divmod(np.repeat(np.arange(sub.shape[0], dtype=np.int32), np.diff(sub.indptr)), n)
    at0 = rc == 0
    turn, side = np.divmod(where[sub.indices], slots)  # cell and slot of each column
    broken = NumericalError(f"the mesh is not invariant under turning by one of {n} rays")
    if n < 3 or np.any(turn < 0):
        raise broken
    turn -= rc  # by how many cells each column turns from its row, and slots
    turn %= n
    del rc
    side -= rows.astype(np.int32)[ri]
    bw = int(np.abs(side[at0]).max())
    if np.any(np.abs(side) > bw):
        raise broken
    flat = turn  # (turn * len(rows) + ri) * (2 bw + 1) + side + bw
    flat *= len(rows)
    flat += ri
    flat *= 2 * bw + 1
    flat += side
    flat += bw
    del turn, ri, side
    B = np.zeros(n * len(rows) * (2 * bw + 1))
    B[flat[at0]] = sub.data[at0]
    dev = B[flat]
    dev -= sub.data
    del flat, at0
    B = B.reshape(n, len(rows), 2 * bw + 1)
    nnz = np.diff(sub.indptr).reshape(len(rows), n)
    d_b, fixed_b = d[block], fixed[block]
    tol = 1e-12 * max(K.data.max(), -K.data.min())
    if not (
        np.all(nnz == nnz[:, :1])
        and np.all(np.abs(dev, out=dev) <= tol)
        and np.all(np.abs(B.sum(axis=(0, 2))) <= tol)
        and np.all(np.abs(d_b - d_b[:1]) <= 1e-12 * d.max())
        and np.all(fixed_b == fixed_b[:1])
    ):
        raise broken
    return B


def _sector_schur(K, block, rows, elim, keep, d, fixed):
    """S_j = K_j[keep, keep] - K_j[keep, elim] K_j[elim, elim]^-1 K_j[elim, keep].

    block is an (n, slots) grid of dofs, and K_j is read from the K rows
    of the `rows` slots, zero between two other slots.  Returns (n,
    len(keep), len(keep)), sector j in row j.
    """
    n, slots = block.shape
    B = _turn_twins(K, block, rows, d, fixed)
    bw = B.shape[2] // 2

    # K_j = sum_t w^(jt) K_t as the zero-row-sum K_j at j = 0 plus, over t != 0,
    # (w^(jt) - 1) K_t: the small sector terms carry no cancellation
    R = B.sum(axis=0)
    R[:, bw] = -(R[:, :bw].sum(axis=1) + R[:, bw + 1 :].sum(axis=1))
    theta = 2.0 * np.pi * np.fft.fftfreq(n)[:, None, None]
    for t in np.flatnonzero(B[1:].any(axis=(1, 2))) + 1:
        angle = theta * (t if 2 * t <= n else t - n)
        R = R + (-2.0 * np.sin(0.5 * angle) ** 2 + 1j * np.sin(angle)) * B[t]
    # U[:, p, s] = (K_j)[p, p + s], the mean of rows p and p + s where given
    U = np.zeros((n, slots + bw, bw + 1), dtype=complex)
    U[:, rows] = R[..., bw:]
    for s in range(bw + 1):
        U[:, rows - s, s] += R[..., bw - s].conj()
    given = np.isin(np.arange(slots + bw), rows).astype(int)
    counts = given[:slots, None] + given[np.arange(slots)[:, None] + np.arange(bw + 1)]
    U = U[:, :slots] / np.maximum(counts, 1)
    del B, R  # U holds what the solve reads

    def entry(p, q):
        """(K_j)[p, q] for every sector j, broadcast over slot indices p, q."""
        far = np.abs(q - p)
        near = U[:, np.minimum(p, q), np.minimum(far, bw)]
        return np.where(far <= bw, np.where(q < p, near.conj(), near), 0.0)

    band = np.zeros((bw + 1, n, len(elim)), dtype=complex)  # upper form, sectors apart
    for s in range(1, bw + 1):
        band[bw - s, :, s:] = entry(elim[:-s], elim[s:])
    band[bw] = entry(elim, elim)
    KEK = entry(elim[:, None], keep[None, :])
    with _numerical_errors():
        X = solveh_banded(band.reshape(bw + 1, -1), KEK.reshape(-1, len(keep)))
    return entry(keep[:, None], keep) - KEK.conj().transpose(0, 2, 1) @ X.reshape(KEK.shape)


def _sector_eigs(K, d: np.ndarray, fixed: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Every Steklov eigenvalue of a mesh one block covers (slot i is ring i).

    Returns (n, n_S) eigenvalues, row j ascending for sector j, n_S Steklov rings.
    """
    d0, free0 = d[block[0]], ~fixed[block[0]]
    S, I = np.flatnonzero(free0 & (d0 > 0)), np.flatnonzero(free0 & (d0 == 0))
    schur = _sector_schur(K, block, np.arange(block.shape[1]), I, S, d, fixed)
    scale = 1.0 / np.sqrt(d0[S])
    with _numerical_errors():
        return np.linalg.eigvalsh(scale[:, None] * schur * scale)


def _condense_collars(K, d: np.ndarray, fixed: np.ndarray, blocks):
    """(K, d, fixed) with rings 1..R-1 of each collar block eliminated.

    Slot 0 of a collar block is its hole polygon, its last two slots its
    outer ring R: the rim, whose rows get zero sums again at the end.
    """
    stay = np.ones(K.shape[0], dtype=bool)
    Kc = K.tocoo()
    parts, rims = [(Kc.row, Kc.col, Kc.data)], []
    for block in blocks:
        n, slots = block.shape
        elim, keep = np.arange(1, slots - 2), np.array([0, slots - 2, slots - 1])
        schur = _sector_schur(K, block, elim, elim, keep, d, fixed)
        # cell c couples to cell c + t by (1/n) sum_j S_j w^(-jt)
        coupling = np.fft.fft(schur, axis=0).real / n
        dense = coupling[(np.arange(n) - np.arange(n)[:, None]) % n].transpose(0, 2, 1, 3)
        rims.append(block[:, keep].ravel())
        parts.append((np.repeat(rims[-1], 3 * n), np.tile(rims[-1], 3 * n), dense.ravel()))
        stay[block[:, elim]] = False
    row, col, data = map(np.concatenate, zip(*parts))
    A = sparse.csr_matrix((data, (row, col)), shape=K.shape)[stay][:, stay]
    diag = A.diagonal()
    A.setdiag(0.0)
    rim = np.isin(np.flatnonzero(stay), np.concatenate(rims))
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
    K, dof, ndof = assemble(mesh)
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
    if mesh.blocks and not return_modes:
        blocks = [dof[block] for block in mesh.blocks]
        if blocks[0].size == ndof:  # one block covers the mesh
            sigmas = np.sort(_sector_eigs(K, d_vec, fixed, blocks[0]), axis=None)[:count]
            return np.maximum(sigmas, 0.0)  # as _lam clips rounding below zero
        K, d_vec, fixed = _condense_collars(K, d_vec, fixed, blocks)
    free = np.flatnonzero(~fixed)
    out = _boundary_eigs(K[free][:, free], d_vec[free], count, tau, return_modes)
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
