"""FEM spectra against separated closed forms.

Disk of radius R: sigma = k/R, each k >= 1 twice.  Annulus [1/2, 1]
with Steklov on both circles: quadratic-determinant pairs from the
radial solver.  Mixed conditions on the outer circle reproduce the SN
and SD model families.  The bare unit torus has Neumann spectrum
4 pi^2 (p^2 + q^2) with multiplicity 4 at the first gap.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from steklov_tubes.acceptance import TORUS_CENTERS, _annulus_reference
from steklov_tubes.cli import main
from steklov_tubes.errors import ConfigurationError, NumericalError
from steklov_tubes.fem import (
    Annulus,
    Disk,
    Mesh,
    mesh_planar,
    mesh_torus_minus_disks,
    neumann_spectrum,
    steklov_spectrum,
)
from steklov_tubes.fem import solve
from steklov_tubes.fem.checks import dirichlet_energy_check, poincare_check
from steklov_tubes.fem.solve import _boundary_eigs, _pencil_eigs, assemble, boundary_mass, mass
from steklov_tubes.radial import RadialMode, sigma_mixed


def test_disk_spectrum(disk_mesh):
    vals = steklov_spectrum(disk_mesh, 7)
    assert abs(vals[0]) < 1e-10
    want = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert list(vals[1:]) == pytest.approx(want, rel=4e-3)


def test_annulus_both_steklov(annulus_mesh):
    vals = steklov_spectrum(annulus_mesh, 6)
    exact = _annulus_reference(6)
    assert abs(vals[0]) < 1e-10
    assert list(vals[1:]) == pytest.approx(exact[1:], rel=4e-3)


def test_annulus_mixed_outer_dirichlet(annulus_mesh):
    # inner circle Steklov, outer Dirichlet: the SD model family
    vals = steklov_spectrum(annulus_mesh, 5, dirichlet_markers=(1,))
    sd = [sigma_mixed(RadialMode(1, q, 0.0), 0.5, 1.0, "Dirichlet") for q in range(3)]
    exact = sorted([sd[0]] + [sd[1]] * 2 + [sd[2]] * 2)
    # mixed modes concentrate at the inner circle, so the h = 0.05
    # mesh carries a larger discretization error than the pure case
    assert list(vals) == pytest.approx(exact, rel=1.5e-2)


def test_annulus_mixed_outer_neumann(annulus_mesh):
    # inner circle Steklov, outer Neumann: the SN model family
    vals = steklov_spectrum(annulus_mesh, 5, neumann_markers=(1,))
    sn = [sigma_mixed(RadialMode(1, q, 0.0), 0.5, 1.0, "Neumann") for q in range(3)]
    exact = sorted([sn[0]] + [sn[1]] * 2 + [sn[2]] * 2)
    assert abs(vals[0]) < 1e-10
    assert list(vals[1:]) == pytest.approx(exact[1:], rel=1.5e-2)


def test_steklov_zero_mode_is_constant(annulus_mesh):
    vals, modes = steklov_spectrum(annulus_mesh, 1, return_modes=True)
    assert abs(vals[0]) < 1e-10
    u = modes[:, 0]
    assert float(np.std(u)) < 1e-8 * max(1.0, float(np.abs(u).mean()))


def test_bare_torus_neumann():
    mesh = mesh_torus_minus_disks(1.0, [], 0.05, 0.01)
    vals = neumann_spectrum(mesh, 5)
    base = 4.0 * math.pi**2
    assert abs(vals[0]) < 1e-8
    # first positive eigenvalue has multiplicity 4; mesh error is O(h^2)
    assert list(vals[1:]) == pytest.approx([base] * 4, rel=5e-3)


def test_neumann_dense_sparse_agree():
    cases = [
        (mesh_torus_minus_disks(1.0, [], 0.05, 0.015), 4),
        # 19 dofs and count = ndof: the solver's dense path
        (mesh_planar(Disk(1.0), 0.5), 19),
    ]
    for mesh, count in cases:
        K, M = assemble(mesh)[0], mass(mesh)
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[:count]
        vals = neumann_spectrum(mesh, count)
        assert list(vals) == pytest.approx(list(dense), rel=1e-8, abs=1e-8)


def _schur_reference(mesh, dirichlet=(), neumann=()):
    """Every Steklov eigenvalue from the dense Dirichlet-to-Neumann Schur
    complement on the Steklov dofs S, with the remaining free dofs I
    eliminated; also (K, d, fixed) in dof space."""
    K, dof, ndof = assemble(mesh)
    markers = set(np.unique(mesh.boundary_markers).tolist())
    d = boundary_mass(mesh, markers - set(dirichlet) - set(neumann), dof, ndof)
    fixed = np.zeros(ndof, dtype=bool)
    fixed[dof[mesh.boundary_edges[np.isin(mesh.boundary_markers, dirichlet)].ravel()]] = True
    si = np.flatnonzero((d > 0) & ~fixed)
    ii = np.flatnonzero((d == 0) & ~fixed)
    Kd = K.toarray()
    schur = Kd[np.ix_(si, si)] - Kd[np.ix_(si, ii)] @ np.linalg.solve(
        Kd[np.ix_(ii, ii)], Kd[np.ix_(ii, si)]
    )
    w = 1.0 / np.sqrt(d[si])
    return scipy.linalg.eigvalsh(w[:, None] * schur * w[None, :]), (K, d, fixed)


def _check_modes(mesh, vals, modes, K, d, fixed):
    dof, ndof = mesh.dof_map()
    count = len(vals)
    u = np.zeros((ndof, count))
    u[dof] = modes
    assert np.abs(u[fixed]).max(initial=0.0) == 0.0
    assert np.einsum("ij,i,ij->j", u, d, u) == pytest.approx(np.ones(count), rel=1e-10)
    resid = (K @ u - d[:, None] * u * vals[None, :])[~fixed]
    assert np.abs(resid).max() < 1e-10 * max(1.0, float(vals[-1]))


@pytest.mark.parametrize(
    "dirichlet, neumann", [((), ()), ((1,), ()), ((), (1,)), ((0,), ())]
)
def test_steklov_matches_dense_schur(annulus_mesh, dirichlet, neumann):
    ref, (K, d, fixed) = _schur_reference(annulus_mesh, dirichlet, neumann)
    # without modes the annulus takes the Fourier sectors
    vals = steklov_spectrum(annulus_mesh, 8, dirichlet_markers=dirichlet, neumann_markers=neumann)
    assert list(vals) == pytest.approx(list(ref[:8]), rel=1e-10, abs=1e-10)
    vals, modes = steklov_spectrum(
        annulus_mesh, 8, dirichlet_markers=dirichlet, neumann_markers=neumann, return_modes=True
    )
    assert list(vals) == pytest.approx(list(ref[:8]), rel=1e-10, abs=1e-10)
    _check_modes(annulus_mesh, vals, modes, K, d, fixed)


def test_steklov_boundary_solve_paths(monkeypatch):
    # one block Lanczos on the n_s boundary dofs for every count, up to
    # all n_s eigenvalues, where the basis fills the space and is exact
    mesh = mesh_planar(Disk(1.0), 0.5)
    ref, (K, d, fixed) = _schur_reference(mesh)
    n_s = int(np.count_nonzero(d))
    assert n_s < mesh.dof_map()[1]
    calls = []
    real = solve._block_lanczos
    monkeypatch.setattr(solve, "_block_lanczos", lambda *a: calls.append(a[1:]) or real(*a))
    real_eigh = solve.eigh

    def ritz_eigh(a, *args, **kw):
        # the Ritz step's one-matrix eigh of at most n_s rows; never the dense pencil
        if args or kw.get("b") is not None or a.shape[0] > n_s:
            pytest.fail(f"dense pencil eigh called on {a.shape}")
        return real_eigh(a, *args, **kw)

    monkeypatch.setattr(solve, "eigh", ritz_eigh)
    monkeypatch.setattr(solve, "eigsh", lambda *a, **kw: pytest.fail("eigsh called"))
    for count in (1, n_s - 2, n_s - 1, n_s):
        calls.clear()
        vals, modes = steklov_spectrum(mesh, count, return_modes=True)
        assert calls == [(n_s, count)], count
        assert list(vals) == pytest.approx(list(ref[:count]), rel=1e-10, abs=1e-10)
        _check_modes(mesh, vals, modes, K, d, fixed)


def test_steklov_solves_call_no_numpy_eigh(disk_mesh, monkeypatch):
    # the Ritz step runs scipy's eigh, in the BLAS that SuperLU uses: the
    # Lanczos disk, the condensed collars of criterion 3 and a modes solve
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: pytest.fail("np.linalg.eigh called"))
    disk = dataclasses.replace(disk_mesh)
    torus = mesh_torus_minus_disks(1.0, TORUS_CENTERS, 0.03, 0.005)
    assert torus.blocks
    assert steklov_spectrum(disk, 7)[1] == pytest.approx(1.0, rel=4e-3)
    assert 0.0 <= steklov_spectrum(torus, 10)[0] <= 1e-10
    vals, modes = steklov_spectrum(disk, 3, return_modes=True)
    assert modes.shape == (disk.num_vertices, 3)


def test_steklov_lanczos_on_boundary_space(annulus_mesh, monkeypatch):
    # the Lanczos vectors have length n_s, and each step is one solve
    # with at most two right-hand sides; ARPACK is not used
    sizes, rhs = [], []
    real_lanczos, real_factor = solve._block_lanczos, solve._factor

    class RecordingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            rhs.append(b.shape)
            return self.lu.solve(b)

    monkeypatch.setattr(solve, "_factor", lambda A: RecordingLU(real_factor(A)))
    monkeypatch.setattr(
        solve, "_block_lanczos", lambda apply, n, k: sizes.append(n) or real_lanczos(apply, n, k)
    )
    monkeypatch.setattr(solve, "eigsh", lambda *a, **kw: pytest.fail("eigsh called"))
    # a fresh copy, so that no spectrum of another test is cached on it,
    # that does not declare its block, so that it takes this path
    mesh = dataclasses.replace(annulus_mesh, blocks=())
    steklov_spectrum(mesh, 8)
    _, dof, ndof = assemble(mesh)
    n_s = int(np.count_nonzero(boundary_mass(mesh, {0, 1}, dof, ndof)))
    assert sizes == [n_s]
    assert n_s < ndof
    assert rhs and all(shape[0] == ndof and shape[1] <= 2 for shape in rhs)


@pytest.mark.parametrize(
    "spectrum, count",
    [
        # an exact triple: one and two copies wanted, more than the block
        # size in all
        ([9.0, 7.0, 5.0, 5.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.125], 3),
        ([9.0, 7.0, 5.0, 5.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.125], 4),
        # the identity: the first block spans an invariant subspace
        ([1.0] * 7, 3),
        ([1.0] * 7, 7),
        # one dof, and every eigenvalue of an odd dimension
        ([2.5], 1),
        ([4.0, 3.5, 3.0, 2.0, 1.0, 0.9, 0.8, 0.3, 0.1], 9),
    ],
)
def test_block_lanczos_against_eigh(spectrum, count):
    n = len(spectrum)
    rng = np.random.default_rng(7)
    for C in (np.diag(spectrum), None):
        if C is None:  # the same spectrum in a random orthonormal basis
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            C = Q @ np.diag(spectrum) @ Q.T
        calls = []
        mu, y = solve._block_lanczos(lambda X: calls.append(X.shape[1]) or C @ X, n, count)
        assert max(calls) <= solve.BLOCK
        ref = np.linalg.eigvalsh(C)[::-1][:count]
        assert list(mu) == pytest.approx(list(ref), rel=1e-12)
        assert np.abs(y.T @ y - np.eye(count)).max() < 1e-12
        assert np.abs(C @ y - y * mu).max() <= 1e-10 * mu.max()


def test_lanczos_basis_that_cannot_grow():
    # no vector gets off a non-finite basis, so the extension gives up
    with pytest.raises(scipy.linalg.LinAlgError, match="no direction left"):
        solve._extend(np.full((4, 1), np.nan), np.zeros((4, 0)), np.random.default_rng(0))


FOUR_HOLES = ((0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25))


@pytest.mark.parametrize(
    "eps, h, centers",
    [
        pytest.param(eps, h, TORUS_CENTERS, id=f"{eps}-{h}")
        for eps, h in [(0.03, 0.006), (0.035, 0.035 / 4.5), (0.04, 0.04 / 4.5)]
    ]
    + [
        # the torus of criteria 5-7, and four holes
        pytest.param(0.01, 0.01 / 6.0, TORUS_CENTERS, id="criteria-5-7"),
        pytest.param(0.05, 0.01, FOUR_HOLES, id="four-holes"),
    ],
)
def test_steklov_zero_mode_not_negative(eps, h, centers):
    # K and D are semidefinite, so rounding must not push sigma_0 below 0
    vals = steklov_spectrum(mesh_torus_minus_disks(1.0, centers, eps, h), 1)
    assert 0.0 <= vals[0] <= 1e-10


@pytest.fixture(scope="module")
def small_torus():
    return mesh_torus_minus_disks(1.0, TORUS_CENTERS, 0.05, 0.012)


@pytest.mark.parametrize("problem", ["steklov", "neumann"])
def test_torus_pencil_matches_dense(small_torus, problem):
    # the unpivoted symmetric factorization on a periodic mesh, against a
    # dense eigh of the same pencil: Neumann K u = lam M u directly, and
    # Steklov (D singular) as D u = mu (K + tau D) u with lam = 1/mu - tau
    mesh = small_torus
    K, dof, ndof = assemble(mesh)
    if problem == "neumann":
        vals = neumann_spectrum(mesh, 8)
        ref = scipy.linalg.eigh(
            K.toarray(), mass(mesh).toarray(), eigvals_only=True, subset_by_index=[0, 7]
        )
    else:
        vals = steklov_spectrum(mesh, 8)
        d = boundary_mass(mesh, {0, 1}, dof, ndof)
        tau = 1.0 / d.sum()
        mu = scipy.linalg.eigh(
            np.diag(d),
            K.toarray() + tau * np.diag(d),
            eigvals_only=True,
            subset_by_index=[ndof - 8, ndof - 1],
        )
        ref = 1.0 / mu[::-1] - tau
    assert list(vals) == pytest.approx(list(ref), rel=1e-10, abs=1e-10)


def test_pencil_failures_are_numerical(monkeypatch, capsys):
    # K = 0 and B = diag(1, 0, 1, ...): A = tau B is singular, and the
    # factorization without pivoting reports it
    n = 10
    b = np.ones(n)
    b[1] = 0.0
    with pytest.raises(NumericalError, match="singular"):
        _boundary_eigs(sparse.csr_matrix((n, n)), b, 2, 1.0)

    class NonFiniteLU:
        def solve(self, rhs):
            return rhs * np.nan

    with monkeypatch.context() as patch:
        patch.setattr(solve, "_factor", lambda A: NonFiniteLU())
        with pytest.raises(NumericalError):
            _boundary_eigs(sparse.eye(n, format="csr"), np.ones(n), 2, 1.0)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((n, 0)))

    monkeypatch.setattr(solve, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="No convergence"):
        _pencil_eigs(sparse.eye(n, format="csr"), sparse.eye(n, format="csr"), 2, 1.0)
    # and the CLI exits 2 instead of raising
    assert main(["fem", "--domain", "disk", "--h", "0.2", "--count", "4", "--neumann"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "numerical"


def test_neumann_pencil_returns_no_ritz_vectors(small_torus, monkeypatch):
    # ARPACK forms no Ritz vectors, and the 2-hole torus spectrum is the
    # one computed with them, bit for bit
    real, calls = solve.eigsh, []

    def spy(*args, **kwargs):
        calls.append(kwargs["return_eigenvectors"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solve, "eigsh", spy)
    vals = neumann_spectrum(dataclasses.replace(small_torus), 9)
    assert calls == [False]
    monkeypatch.setattr(
        solve, "eigsh", lambda *a, **kw: real(*a, **{**kw, "return_eigenvectors": True})[0]
    )
    ref = neumann_spectrum(dataclasses.replace(small_torus), 9)
    assert vals.tobytes() == ref.tobytes()


def _count_factors(monkeypatch):
    factored = []
    real = solve._factor
    monkeypatch.setattr(solve, "_factor", lambda A: factored.append(A) or real(A))
    return factored


def test_steklov_shift_keeps_the_stiffness_pattern(monkeypatch):
    # on the two-triangle unit square the diagonal's cotangent weight is
    # exactly 0: K stores 14 entries, two of them 0.0, and the matrix
    # SuperLU factors keeps all 14, so its ordering never follows rounding
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    be = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    mesh = Mesh(verts, tris, be, np.zeros(4, dtype=np.int64))
    K = assemble(mesh)[0]
    assert K.nnz == 14 and np.count_nonzero(K.data == 0.0) == 2
    factored = _count_factors(monkeypatch)
    assert steklov_spectrum(mesh, 3) == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)
    assert [A.nnz for A in factored] == [14]


def test_spectra_solved_once_per_mesh(annulus_mesh, monkeypatch):
    # the marker lists are keyed as sets: a list and a tuple share one solve
    mesh = dataclasses.replace(annulus_mesh, blocks=())
    factored = _count_factors(monkeypatch)
    vals = steklov_spectrum(mesh, 8, dirichlet_markers=[0])
    assert steklov_spectrum(mesh, 8, dirichlet_markers=(0,)) is vals
    assert len(factored) == 1
    lam = neumann_spectrum(mesh, 3)
    assert neumann_spectrum(mesh, 3) is lam
    assert len(factored) == 2
    # return_modes is part of the key
    steklov_spectrum(mesh, 8, dirichlet_markers=(0,), return_modes=True)
    assert len(factored) == 3


def test_cached_spectra_are_read_only(annulus_mesh):
    mesh = dataclasses.replace(annulus_mesh)
    vals, modes = steklov_spectrum(mesh, 3, neumann_markers=(1,), return_modes=True)
    for arr in (vals, modes, steklov_spectrum(mesh, 3), neumann_spectrum(mesh, 3)):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_assemble_partition_of_unity(annulus_mesh):
    K, dof, ndof = assemble(annulus_mesh)
    M = mass(annulus_mesh)
    ones = np.ones(ndof)
    # constants are in the stiffness kernel; mass integrates the area
    assert float(np.abs(K @ ones).max()) < 1e-12
    area = math.pi * (1.0 - 0.25)
    assert float(ones @ (M @ ones)) == pytest.approx(area, rel=5e-3)
    d = boundary_mass(annulus_mesh, {0, 1}, dof, ndof)
    assert float(d.sum()) == pytest.approx(3 * math.pi, rel=5e-3)


def _coo_assembly(mesh):
    """The element-by-element COO assembly that the shared CSR pattern replaced."""
    dof, ndof = mesh.dof_map()
    p = mesh.vertices[mesh.triangles]
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    area = 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])
    k_loc = np.einsum("tia,tja->tij", e, e) / (4.0 * area)[:, None, None]
    m_loc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    td = dof[mesh.triangles]
    rows, cols = np.repeat(td, 3, axis=1).ravel(), np.tile(td, (1, 3)).ravel()
    return [
        sparse.coo_matrix((loc.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
        for loc in (k_loc, m_loc)
    ]


def test_assemble_matches_coo_oracle(disk_mesh, annulus_mesh, torus_mesh):
    for mesh in (disk_mesh, annulus_mesh, torus_mesh):
        K, M = assemble(mesh)[0], mass(mesh)
        K_ref, M_ref = _coo_assembly(mesh)
        for A, ref in ((K, K_ref), (M, M_ref)):
            # the same sorted pattern, explicit zeros included, and K and M share it
            assert A.has_sorted_indices
            assert np.array_equal(A.indptr, ref.indptr)
            assert np.array_equal(A.indices, ref.indices)
            assert np.shares_memory(A.indices, K.indices)
            assert np.shares_memory(A.indptr, K.indptr)
            assert np.abs(A.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    assert len(torus_mesh.periodic_pairs) and len(np.unique(torus_mesh.boundary_markers)) == 2


def test_mass_only_for_neumann(annulus_mesh, torus_mesh, monkeypatch):
    # Steklov solves (sector, Lanczos and collar paths) and both energy
    # checks with lambda_1 given read K alone; a Neumann solve builds M
    # once, on K's own index arrays
    built = []
    real = solve._mass
    monkeypatch.setattr(solve, "_mass", lambda mesh: built.append(mesh) or real(mesh))
    for base in (annulus_mesh, dataclasses.replace(annulus_mesh, blocks=()), torus_mesh):
        mesh = dataclasses.replace(base)
        f = np.linspace(0.0, 1.0, mesh.dof_map()[1])
        steklov_spectrum(mesh, 4)
        dirichlet_energy_check(mesh, f, 1.0, marker=0)
        poincare_check(mesh, f, [0], [1], lambda1=1.0)
        assert built == [] and "mass" not in mesh._cache
        neumann_spectrum(mesh, 3)
        neumann_spectrum(mesh, 4)
        assert built == [mesh]
        K, M = assemble(mesh)[0], mass(mesh)
        assert M.indices is K.indices and M.indptr is K.indptr
        built.clear()


# tracemalloc peak of building the h 0.01 annulus (24021 vertices) and
# solving its Steklov spectrum, per vertex, as measured once assembly
# built K alone, numpy 2.4 and scipy 1.17 (784 bytes with the mass matrix
# and the np.unique edge table)
PEAK_BYTES_PER_VERTEX = 457


def test_annulus_build_and_solve_memory():
    steklov_spectrum(mesh_planar(Annulus(0.5, 1.0), 0.1), 8)  # first-call imports
    tracemalloc.start()
    try:
        mesh = mesh_planar(Annulus(0.5, 1.0), 0.01)
        steklov_spectrum(mesh, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.num_vertices == 24021
    assert peak / mesh.num_vertices <= 1.25 * PEAK_BYTES_PER_VERTEX


def test_boundary_mass_matches_edge_loop(annulus_mesh, torus_mesh):
    # the per-edge loop boundary_mass replaced, as a reference: same sums
    # in the same order, so the vectors are equal, not just close
    cases = ((annulus_mesh, ({0}, {1}, {0, 1})), (torus_mesh, ({0}, {0, 1})))
    for mesh, marker_sets in cases:
        dof, ndof = mesh.dof_map()
        for markers in marker_sets:
            ref = np.zeros(ndof)
            sel = np.isin(mesh.boundary_markers, list(markers))
            for a, b in mesh.boundary_edges[sel]:
                length = float(np.hypot(*(mesh.vertices[a] - mesh.vertices[b])))
                ref[dof[a]] += 0.5 * length
                ref[dof[b]] += 0.5 * length
            assert np.array_equal(boundary_mass(mesh, markers, dof, ndof), ref)


def test_marker_validation(annulus_mesh):
    with pytest.raises(ConfigurationError):
        steklov_spectrum(annulus_mesh, 3, dirichlet_markers=(7,))
    with pytest.raises(ConfigurationError):
        steklov_spectrum(annulus_mesh, 3, dirichlet_markers=(0,), neumann_markers=(0,))
    with pytest.raises(ConfigurationError):
        # nothing left as Steklov
        steklov_spectrum(annulus_mesh, 3, dirichlet_markers=(0, 1))
    with pytest.raises(ValueError):
        steklov_spectrum(annulus_mesh, 0)
    # more eigenvalues than dofs, on every call: an error is never cached
    _, dof, ndof = assemble(annulus_mesh)
    n_s = int(np.count_nonzero(boundary_mass(annulus_mesh, {0, 1}, dof, ndof)))
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="boundary dofs"):
            steklov_spectrum(annulus_mesh, n_s + 1)
        with pytest.raises(ConfigurationError, match="of .* dofs"):
            neumann_spectrum(annulus_mesh, ndof + 1)


MARKER_SETS = [((), ()), ((0,), ()), ((), (0,)), ((1,), ())]


@pytest.mark.parametrize("h", [0.05, 0.02])
@pytest.mark.parametrize("dirichlet, neumann", MARKER_SETS)
def test_sector_path_matches_lanczos(h, dirichlet, neumann, monkeypatch):
    # the same annulus without its block takes SuperLU and block Lanczos
    mesh = mesh_planar(Annulus(0.5, 1.0), h)
    general = dataclasses.replace(mesh, blocks=())
    _, dof, ndof = assemble(mesh)
    steklov = {0, 1} - set(dirichlet) - set(neumann)
    n_s = int(np.count_nonzero(boundary_mass(mesh, steklov, dof, ndof)))
    factored = _count_factors(monkeypatch)
    kw = dict(dirichlet_markers=dirichlet, neumann_markers=neumann)
    for count in (1, 8, n_s):
        vals = steklov_spectrum(mesh, count, **kw)
        assert not factored
        ref = steklov_spectrum(general, count, **kw)
        assert factored and len(vals) == count
        assert list(vals) == pytest.approx(list(ref), rel=1e-10, abs=1e-10)
        factored.clear()


def test_sector_against_mpmath():
    # sector j = 1 of the h = 0.05 annulus, both circles Steklov: K_1 is
    # sum_k K[(i, 0), (i', k)] w^k over the assembled rows of ray 0, and
    # its interior rings are eliminated onto the circles in 30 digits
    mpmath = pytest.importorskip("mpmath")
    mesh = mesh_planar(Annulus(0.5, 1.0), 0.05)
    K, dof, ndof = assemble(mesh)
    d = boundary_mass(mesh, {0, 1}, dof, ndof)
    got = solve._sector_eigs(K, d, np.zeros(ndof, dtype=bool), mesh.blocks[0])[1]
    n_t, rings = mesh.blocks[0].shape
    with mpmath.workdps(30):
        w = mpmath.expjpi(mpmath.mpf(2) / n_t)
        Kj = mpmath.matrix(rings, rings)
        rows = K[np.arange(rings) * n_t].tocoo()
        for i, c, v in zip(rows.row, rows.col, rows.data):
            Kj[int(i), int(c) // n_t] += mpmath.mpf(float(v)) * w ** (int(c) % n_t)
        S, I = [0, rings - 1], list(range(1, rings - 1))
        KII = mpmath.matrix([[Kj[a, b] for b in I] for a in I])
        schur = mpmath.matrix(2, 2)
        for a, p in enumerate(S):
            x = mpmath.lu_solve(KII, mpmath.matrix([Kj[b, p] for b in I]))
            for b, q in enumerate(S):
                back = sum(Kj[q, I[r]] * x[r] for r in range(len(I)))
                schur[b, a] = (Kj[q, p] - back) / mpmath.sqrt(
                    mpmath.mpf(float(d[q * n_t])) * mpmath.mpf(float(d[p * n_t]))
                )
        a, c, b = mpmath.re(schur[0, 0]), mpmath.re(schur[1, 1]), abs(schur[0, 1])
        root = mpmath.sqrt(((a - c) / 2) ** 2 + b**2)
        want = [float((a + c) / 2 - root), float((a + c) / 2 + root)]
    assert list(got) == pytest.approx(want, rel=1e-11)


def test_sector_path_checks_the_rays(annulus_mesh):
    # one interior vertex moved off its ring breaks the turn symmetry
    block = annulus_mesh.blocks[0]
    v = annulus_mesh.vertices.copy()
    v[block[5, 3]] *= 1.01
    moved = dataclasses.replace(annulus_mesh, vertices=v)
    # half as many rays per ring: turning by one cell is no symmetry
    half = dataclasses.replace(annulus_mesh, blocks=(block.T.reshape(-1, len(block) // 2).T,))
    for mesh in (moved, half):
        with pytest.raises(NumericalError, match="rays"):
            steklov_spectrum(mesh, 8)
    # the general path solves the moved mesh
    assert steklov_spectrum(dataclasses.replace(moved, blocks=()), 8)[0] <= 1e-10


def test_loaded_annulus_takes_lanczos(annulus_mesh, tmp_path, monkeypatch):
    path = tmp_path / "annulus.msh"
    annulus_mesh.save(str(path))
    loaded = Mesh.load(str(path))
    assert len(annulus_mesh.blocks) == 1 and loaded.blocks == ()
    factored = _count_factors(monkeypatch)
    vals = steklov_spectrum(loaded, 8)
    assert len(factored) == 1
    ref = steklov_spectrum(annulus_mesh, 8)
    assert len(factored) == 1
    assert list(vals) == pytest.approx(list(ref), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize(
    "centers, eps, h, count, kw",
    [
        pytest.param(TORUS_CENTERS, 0.03, 0.005, 10, {}, id="criterion-3"),
        pytest.param(FOUR_HOLES, 0.05, 0.01, 8, {}, id="four-holes"),
        pytest.param(TORUS_CENTERS, 0.05, 0.01, 8, {"dirichlet_markers": (0,)}, id="dirichlet"),
        pytest.param(TORUS_CENTERS, 0.05, 0.01, 8, {"neumann_markers": (1,)}, id="neumann"),
    ],
)
def test_collar_path_matches_lanczos(centers, eps, h, count, kw, monkeypatch):
    # the same torus without its collar blocks factors every dof
    mesh = mesh_torus_minus_disks(1.0, centers, eps, h)
    general = dataclasses.replace(mesh, blocks=())
    factored = _count_factors(monkeypatch)
    vals = steklov_spectrum(mesh, count, **kw)
    ref = steklov_spectrum(general, count, **kw)
    assert list(vals) == pytest.approx(list(ref), rel=1e-10, abs=1e-10)
    if not kw:  # rings 1..R-1 of every collar were eliminated before the factorization
        assert 0.0 <= vals[0] <= 1e-10
        interior = sum(block[:, 1:-2].size for block in mesh.blocks)
        assert [A.shape[0] for A in factored] == [mesh.dof_map()[1] - interior, mesh.dof_map()[1]]


def test_collar_path_checks_the_turn(torus_mesh):
    # one vertex of an interior collar ring moved outward by 1%
    block = torus_mesh.blocks[1]
    v = torus_mesh.vertices.copy()
    center = v[block[:, 0]].mean(axis=0)
    v[block[4, 3]] = center + 1.01 * (v[block[4, 3]] - center)
    moved = dataclasses.replace(torus_mesh, vertices=v)
    with pytest.raises(NumericalError, match="rays"):
        steklov_spectrum(moved, 3)
    # the general path solves the moved mesh
    assert steklov_spectrum(dataclasses.replace(moved, blocks=()), 3)[0] <= 1e-10


def test_condensed_collars_keep_zero_row_sums(torus_mesh):
    # the Schur complement of a zero-row-sum K has zero row sums; each rim
    # row's diagonal is reset to restore them after the sector solves' rounding
    K, dof, ndof = assemble(torus_mesh)
    d = boundary_mass(torus_mesh, {0, 1}, dof, ndof)
    blocks = [dof[block] for block in torus_mesh.blocks]
    A, d_kept, fixed = solve._condense_collars(K, d, np.zeros(ndof, dtype=bool), blocks)
    assert A.shape[0] == len(d_kept) == len(fixed) == ndof - sum(b[:, 1:-2].size for b in blocks)
    assert np.array_equal(d_kept[d_kept > 0], d[d > 0])
    # the sector solves alone leave rim row sums near 1e-14 max|A|
    assert np.abs(A @ np.ones(A.shape[0])).max() <= 3e-15 * np.abs(A.data).max()


def test_fine_collars_take_the_general_path(monkeypatch):
    # at h = 1e-4 the rounding of the coordinates alone would move the
    # stiffness twins past the sector check's 1e-12, so the generator
    # declares no collar and the torus is factored whole
    mesh = mesh_torus_minus_disks(1.0, TORUS_CENTERS, 0.0005, 0.0001)
    assert mesh.blocks == ()
    factored = _count_factors(monkeypatch)
    assert 0.0 <= steklov_spectrum(mesh, 3)[0] <= 1e-10
    assert [A.shape[0] for A in factored] == [mesh.dof_map()[1]]
