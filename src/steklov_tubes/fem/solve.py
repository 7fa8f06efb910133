"""P1 assembly and the two spectral solves used by the benchmarks.

Both spectra are the smallest eigenvalues of a symmetric pencil
K u = lam B u with K and B positive semidefinite.  For the Neumann
problem B = M, the consistent mass.  For the Steklov problem
B = diag(D), the lumped boundary mass on the Steklov part of the
boundary: Dirichlet-marked boundary parts are eliminated,
Neumann-marked parts are left free, every other marker is Steklov.

One solver serves both.  A = K + tau B is positive definite for tau > 0
(the constants, K's kernel, carry B-mass), so it is factored once and
shift-invert Lanczos finds the largest mu of B u = mu A u, with lam =
1/mu - tau (ARPACK Users' Guide, Lehoucq, Sorensen and Yang 1998,
sections 3-4).  tau = 1/|B|, the reciprocal area or Steklov boundary
length, keeps the shift at the scale of the lowest eigenvalues.  Steklov
interior dofs have mu = 0 and never surface.  Every lam >= 0, so mu <=
1/tau in exact arithmetic; rounding above that bound is clipped and no
eigenvalue comes out negative.  ARPACK needs fewer eigenvalues than dofs
minus one; at or above that the same pencil goes to a dense eigh.

Because A is SPD, LU needs no pivoting to be stable, so SuperLU factors
it symmetrically: symmetric mode, zero diagonal-pivot threshold and a
minimum-degree ordering of A + A^T = A (SuperLU Users' Guide, Li,
Demmel et al., section 2.5), which keeps the ordering symmetric and
cuts the fill of partial pivoting by about a third.  A singular A then
fails in the factorization; that failure, an indefinite A in eigh, and
ARPACK running out of iterations all raise NumericalError.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from ..errors import ConfigurationError, NumericalError
from .mesh import Mesh


def assemble(mesh: Mesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix, np.ndarray, int]:
    """Stiffness and consistent mass in dof space; returns (K, M, dof, ndof).

    Built once per mesh object; K and M have read-only arrays.
    """
    return mesh.cached("operators", _assemble)


def _assemble(mesh: Mesh):
    dof, ndof = mesh.dof_map()
    p = mesh.vertices[mesh.triangles]
    # edge vectors opposite each vertex; grad phi_i = perp(e_i) / (2A)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    area = 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])
    if np.any(area <= 0):
        raise NumericalError("assembly requires CCW triangles with positive area")
    k_loc = np.einsum("tia,tja->tij", e, e) / (4.0 * area)[:, None, None]
    m_loc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

    td = dof[mesh.triangles]
    rows = np.repeat(td, 3, axis=1).ravel()
    cols = np.tile(td, (1, 3)).ravel()
    K = sparse.coo_matrix(
        (k_loc.ravel(), (rows, cols)), shape=(ndof, ndof)
    ).tocsr()
    M = sparse.coo_matrix(
        (m_loc.ravel(), (rows, cols)), shape=(ndof, ndof)
    ).tocsr()
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


def _marker_sets(mesh, dirichlet_markers, neumann_markers):
    present = set(int(m) for m in np.unique(mesh.boundary_markers))
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


def _pencil_eigs(K, b_mat, count: int, tau: float, return_modes: bool = False):
    """`count` smallest eigenvalues of K u = lam B u, ascending.

    With return_modes also the eigenvectors as columns, normalized so
    that u^T B u = 1.
    """
    n = K.shape[0]
    A = (K + tau * b_mat).tocsc()
    try:
        if count >= n - 1:
            mu, x = eigh(b_mat.toarray(), A.toarray(), subset_by_index=[n - count, n - 1])
        else:
            lu = splu(
                A,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            mu, x = eigsh(
                b_mat,
                k=count,
                M=A,
                Minv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
                which="LA",
                v0=np.random.default_rng(0).standard_normal(n),
            )
    except (RuntimeError, LinAlgError) as exc:
        raise NumericalError(f"pencil eigensolve failed: {exc}") from exc
    order = np.argsort(mu)[::-1]
    mu, x = mu[order], x[:, order]
    # K and B are semidefinite, so lam = 1/mu - tau >= 0; clip the
    # rounding that puts mu of the constant mode above 1/tau
    vals = np.maximum(1.0 / mu - tau, 0.0)
    if not return_modes:
        return vals
    return vals, x / np.sqrt(np.einsum("ij,ij->j", x, b_mat @ x))


def steklov_spectrum(
    mesh: Mesh,
    count: int,
    dirichlet_markers: tuple[int, ...] = (),
    neumann_markers: tuple[int, ...] = (),
    return_modes: bool = False,
):
    """First `count` Steklov eigenvalues (ascending), optionally with modes.

    Modes are returned as vertex-space functions, one column per
    eigenvalue, normalized in the boundary mass.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dset, steklov_markers = _marker_sets(mesh, dirichlet_markers, neumann_markers)
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

    out = _pencil_eigs(
        K[free][:, free],
        sparse.diags(d_vec[free]),
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
    """First `count` Neumann eigenvalues of the mesh, ascending from ~0."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    K, M, _, ndof = assemble(mesh)
    if count > ndof:
        raise ConfigurationError(f"requested {count} eigenvalues of {ndof} dofs")
    return _pencil_eigs(K, M, count, 1.0 / float(M.sum()))
