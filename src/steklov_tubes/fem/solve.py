"""P1 assembly and the two spectral solves used by the benchmarks.

Assembly reads the mesh's cached dof-space edge table and areas, the
ones validate and the Euler characteristic read.  Each triangle gives
three side entries and three diagonal entries of K and of M; a bincount
sums them per unique edge and per dof, and they are written onto one
CSR pattern built from the edge table, whose indices and indptr K and M
share.

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

A mesh that declares rays = n_t (the structured annulus) takes a third
path for Steklov eigenvalues without modes.  Its vertex i*n_t + k sits
on ring i and ray k, and turning by one ray maps the mesh onto itself,
so K is block-circulant in the rays (P. J. Davis, Circulant Matrices,
1979): K0 couples a ray to itself, K1 to the next and K1^T to the one
before.  One pass over K's entries checks that each equals its twin in
the ray-0 rows to 1e-12 max|K| and that those rows sum to zero
(NumericalError otherwise), and the blocks are read off those rows.
The Fourier sector j, u_k = v w^(jk) with w = exp(2 pi i / n_t), turns
the pencil into the tridiagonal Hermitian K_j = K0 + w^j K1 + w^-j K1^T
on the rings, formed as the zero-row-sum K_j at j = 0 plus (w^j - 1) K1
+ (w^-j - 1) K1^T, so the small sector terms carry no cancellation.
One banded Hermitian solve over all sectors eliminates the interior and
Neumann rings onto the at most two Steklov rings, and the eigenvalues
are those of the batched D^-1/2 S_j D^-1/2, rounding below zero
clipped.  No sparse factorization is made.  Modes, Neumann spectra,
tori, disks and loaded meshes (which carry no rays) take the general
path.

Because A is SPD, LU needs no pivoting to be stable, so SuperLU factors
it symmetrically: symmetric mode, zero diagonal-pivot threshold and a
minimum-degree ordering of A + A^T = A (SuperLU Users' Guide, Li,
Demmel et al., section 2.5), which keeps the ordering symmetric and
cuts the fill of partial pivoting by about a third.  A singular A then
fails in the factorization; that failure, an indefinite A in eigh, and
ARPACK running out of iterations all raise NumericalError.
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


def assemble(mesh: Mesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix, np.ndarray, int]:
    """Stiffness and consistent mass in dof space; returns (K, M, dof, ndof).

    Built once per mesh object; K and M have read-only arrays.
    """
    return mesh.cached("operators", _assemble)


def _pattern(edges: np.ndarray, ndof: int):
    """CSR pattern of a P1 operator on the edge table's (a < b) pairs.

    Row r holds its edges (c, r) by ascending c, then r, then its edges
    (r, c) by ascending c, so the indices come out sorted.  Returns
    (indptr, indices, diag, upper, lower): the slots of each dof's
    diagonal and of each edge's (a, b) and (b, a) entries.
    """
    a, b = edges.T
    steps = np.arange(len(edges))
    n_below, n_above = np.bincount(b, minlength=ndof), np.bincount(a, minlength=ndof)
    indptr = np.concatenate([[0], np.cumsum(n_below + 1 + n_above)])
    diag = indptr[:-1] + n_below
    # the table is sorted by (a, b): row a's edges are consecutive from
    # edge first_above[a], and the upper triangle's CSC order, a counting
    # sort, lists the edges by (b, a)
    first_above = np.cumsum(n_above) - n_above
    upper = (diag + 1 - first_above)[a] + steps
    by_b = sparse.csr_matrix(
        (steps, b, np.append(first_above, len(edges))), shape=(ndof, ndof)
    ).tocsc().data
    lower = np.empty_like(upper)
    lower[by_b] = (indptr[:-1] - (np.cumsum(n_below) - n_below))[b[by_b]] + steps
    index = np.int32 if indptr[-1] < 2**31 else np.int64
    indices = np.empty(indptr[-1], dtype=index)
    indices[diag], indices[upper], indices[lower] = np.arange(ndof), b, a
    return indptr.astype(index), indices, diag, upper, lower


def _assemble(mesh: Mesh):
    dof, ndof = mesh.dof_map()
    edges, inverse = mesh.edges()
    area = mesh.areas()
    if np.any(area <= 0):
        raise NumericalError("assembly requires CCW triangles with positive area")
    # rows e_0, e_1, e_2, e_0 of each triangle, e_i the side opposite
    # corner i (from corner i + 1 to i + 2); grad phi_i = perp(e_i) / (2A).
    # Side k of _edge_table joins corners k and k + 1, so its entry is
    # e_k . e_(k+1) / (4A)
    ex, ey = (np.diff(mesh.vertices[:, i][mesh.triangles.T[[1, 2, 0, 1, 2]]], axis=0)
              for i in (0, 1))
    w = 0.25 / area
    k_side = (ex[:3] * ex[1:] + ey[:3] * ey[1:]) * w
    k_diag = (ex[:3] ** 2 + ey[:3] ** 2) * w

    corner_dof = dof[mesh.triangles.T].ravel()
    indptr, indices, diag, upper, lower = _pattern(edges, ndof)

    def operator(side: np.ndarray, corner: np.ndarray) -> sparse.csr_matrix:
        data = np.empty(len(indices))
        data[upper] = data[lower] = np.bincount(inverse, side.ravel(), len(edges))
        data[diag] = np.bincount(corner_dof, corner.ravel(), ndof)
        return sparse.csr_matrix((data, indices, indptr), shape=(ndof, ndof))

    K = operator(k_side, k_diag)
    M = operator(np.tile(area / 12.0, 3), np.tile(area / 6.0, 3))
    for arr in (K.data, K.indices, K.indptr, M.data, M.indices, M.indptr):
        arr.flags.writeable = False
    return K, M, dof, ndof


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
            mu, _ = eigsh(
                b_mat,
                k=count,
                M=A,
                Minv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
                which="LA",
                v0=np.random.default_rng(0).standard_normal(n),
            )
    return _lam(mu, tau)[0]


def _block_lanczos(apply, n: int, count: int):
    """The `count` largest eigenpairs of C, descending; apply(X) = C X."""
    rng, CV, T, check_at = np.random.default_rng(0), np.zeros((n, 0)), np.zeros((0, 0)), count
    V = _extend(CV, CV, rng)
    while True:
        b, m = V.shape[1] - CV.shape[1], V.shape[1]
        CX = apply(V[:, -b:])
        CV, H = np.hstack([CV, CX]), V.T @ CX
        T = np.block([[T, H[:-b]], [H.T]])  # eigh reads the lower triangle
        R = CX - V @ H
        if m >= check_at or m == n:
            mu, S = (a[..., : -count - 1 : -1] for a in np.linalg.eigh(T))
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


def _sector_eigs(K, d: np.ndarray, fixed: np.ndarray, rays: int) -> np.ndarray:
    """Every Steklov eigenvalue of a ray-periodic mesh, row j for sector j.

    Dof i*rays + k is ring i, ray k.  Returns (rays, n_S) eigenvalues,
    each row ascending, n_S the number of Steklov rings.
    """
    n, Kc = K.shape[0], K.tocoo()
    rings = n // rays
    (ri, rk), (ci, ck) = np.divmod(Kc.row, rays), np.divmod(Kc.col, rays)
    off, side = (ck - rk) % rays, ci - ri + 1  # side 0, 1, 2: ring below, same, above
    turn = np.select([off == 0, off == 1, off == rays - 1], [0, 1, 2], -1)  # by 0, +1, -1 rays
    broken = NumericalError(f"the mesh is not invariant under turning by one of {rays} rays")
    if rays < 3 or rings * rays != n or np.any((turn < 0) | (side < 0) | (side > 2)):
        raise broken
    # B[turn, i, side]: the ray-0 row of ring i, where every entry of K has its twin
    at0 = rk == 0
    B = np.zeros((3, rings, 3))
    B[turn[at0], ri[at0], side[at0]] = Kc.data[at0]
    nnz = np.diff(K.indptr).reshape(rings, rays)
    d_r, fixed_r = d.reshape(rings, rays), fixed.reshape(rings, rays)
    tol = 1e-12 * np.abs(Kc.data).max()
    if not (
        np.all(nnz == nnz[:, :1])
        and np.all(np.abs(Kc.data - B[turn, ri, side]) <= tol)
        and np.all(np.abs(B.sum(axis=(0, 2))) <= tol)
        and np.all(np.abs(d_r - d_r[:, :1]) <= 1e-12 * d.max())
        and np.all(fixed_r == fixed_r[:, :1])
    ):
        raise broken

    # sector j: K_j = K0 + w^j K1 + w^-j K1^T as K_j at j = 0, with the
    # zero row sums of a P1 stiffness, plus (w^j - 1) K1 + (w^-j - 1) K1^T
    R0 = B.sum(axis=0)
    R0[:, 1] = -(R0[:, 0] + R0[:, 2])
    theta = 2.0 * np.pi * np.fft.fftfreq(rays)[:, None, None]
    wm1 = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)  # w^j - 1
    R = R0 + wm1 * B[1] + wm1.conj() * B[2]
    diag = R[..., 1].real
    sup = np.zeros((rays, rings), dtype=complex)  # (i, i + 1), zero past the last ring
    sup[:, :-1] = 0.5 * (R[:, :-1, 2] + R[:, 1:, 0].conj())

    def entry(p, q):
        """(K_j)[p, q] for every sector j, broadcast over ring indices p, q."""
        lo = np.minimum(p, q)
        near = np.where(q > p, sup[:, lo], sup[:, lo].conj())
        return np.where(p == q, diag[:, p], np.where(np.abs(p - q) == 1, near, 0.0))

    S = np.flatnonzero((d_r[:, 0] > 0) & ~fixed_r[:, 0])
    I = np.flatnonzero((d_r[:, 0] == 0) & ~fixed_r[:, 0])
    band = np.zeros((2, rays, len(I)), dtype=complex)  # upper form, blocks apart
    band[0, :, 1:] = entry(I[:-1], I[1:])
    band[1] = entry(I, I)
    KIS = entry(I[:, None], S[None, :])
    with _numerical_errors():
        X = solveh_banded(band.reshape(2, -1), KIS.reshape(-1, len(S))).reshape(KIS.shape)
        schur = entry(S[:, None], S[None, :]) - KIS.conj().transpose(0, 2, 1) @ X
        scale = 1.0 / np.sqrt(d_r[S, 0])
        return np.linalg.eigvalsh(scale[:, None] * schur * scale)


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
    K, _, dof, ndof = assemble(mesh)
    d_vec = boundary_mass(mesh, steklov_markers, dof, ndof)

    fixed = np.zeros(ndof, dtype=bool)
    sel = np.isin(mesh.boundary_markers, list(dset))
    fixed[dof[mesh.boundary_edges[sel].ravel()]] = True
    free = np.flatnonzero(~fixed)
    n_steklov = int(np.count_nonzero(d_vec[free] > 0))
    if count > n_steklov:
        raise ConfigurationError(
            f"requested {count} eigenvalues but only {n_steklov} boundary dofs"
        )

    if mesh.rays and not return_modes:
        sigmas = np.sort(_sector_eigs(K, d_vec, fixed, mesh.rays), axis=None)[:count]
        return np.maximum(sigmas, 0.0)  # as _lam clips rounding below zero
    out = _boundary_eigs(
        K[free][:, free],
        d_vec[free],
        count,
        1.0 / float(d_vec.sum()),
        return_modes,
    )
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
    K, M, _, ndof = assemble(mesh)
    if count > ndof:
        raise ConfigurationError(f"requested {count} eigenvalues of {ndof} dofs")
    return mesh.cached(
        ("neumann", count), lambda m: _pencil_eigs(K, M, count, 1.0 / float(M.sum()))
    )
