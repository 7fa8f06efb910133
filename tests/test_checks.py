"""Energy inequality checks on random function suites.

The checks are proved for all admissible functions, so seeded random
suites must hold without exception.  Near-equality cases use the actual
extremal functions: the first Steklov-Neumann eigenfunction saturates
the collar energy bound, and indicator-like profiles stress the
two-region Poincare gap.
"""

import dataclasses

import numpy as np
import pytest

from steklov_tubes.errors import ConfigurationError
from steklov_tubes.fem import steklov_spectrum
from steklov_tubes.fem.checks import (
    dirichlet_energy_check,
    metric_scaling_ratio_check,
    poincare_check,
)
from steklov_tubes.fem import solve
from steklov_tubes.fem.solve import assemble
from steklov_tubes.radial import RadialMode, sigma_mixed

# first nonzero SN eigenvalue of the annulus [1/2, 1], Steklov inner
SIGMA1_SN = sigma_mixed(RadialMode(1, 1, 0.0), 0.5, 1.0, "Neumann")


def _dof_coords(mesh):
    _, _, dof, ndof = assemble(mesh)
    xy = np.zeros((ndof, 2))
    xy[dof] = mesh.vertices
    return xy, ndof


def test_energy_random_suite(annulus_mesh):
    xy, ndof = _dof_coords(annulus_mesh)
    rng = np.random.default_rng(7)
    for _ in range(50):
        coef = rng.normal(size=6)
        r = np.hypot(xy[:, 0], xy[:, 1])
        th = np.arctan2(xy[:, 1], xy[:, 0])
        f = (
            coef[0]
            + coef[1] * np.log(r)
            + coef[2] * r * np.cos(th)
            + coef[3] * r * np.sin(th)
            + coef[4] * np.cos(2 * th)
            + coef[5] * xy[:, 0] * xy[:, 1]
        )
        res = dirichlet_energy_check(annulus_mesh, f, SIGMA1_SN, marker=0)
        assert res.holds, (res.lhs, res.rhs)


def test_energy_equality_at_first_eigenfunction(annulus_mesh):
    # the first SN eigenfunction turns the bound into an equality
    vals, modes = steklov_spectrum(
        annulus_mesh, 2, neumann_markers=(1,), return_modes=True
    )
    assert vals[1] == pytest.approx(SIGMA1_SN, rel=1.5e-2)
    f = modes[:, 1]
    res = dirichlet_energy_check(annulus_mesh, f, SIGMA1_SN, marker=0)
    assert res.holds
    # discrete eigenvalue sits slightly above the flat value, so
    # lhs/rhs is 1 + O(h^2)
    assert res.lhs / res.rhs == pytest.approx(1.0, abs=2e-2)


def test_energy_validation(annulus_mesh):
    _, ndof = _dof_coords(annulus_mesh)
    f = np.ones(ndof)
    with pytest.raises(ConfigurationError):
        dirichlet_energy_check(annulus_mesh, f, 0.0)
    with pytest.raises(ConfigurationError):
        dirichlet_energy_check(annulus_mesh, f[:-1], SIGMA1_SN)
    with pytest.raises(ConfigurationError):
        dirichlet_energy_check(annulus_mesh, f, SIGMA1_SN, marker=9)


def test_poincare_random_suite(torus_mesh):
    xy, ndof = _dof_coords(torus_mesh)
    cent = torus_mesh.vertices[torus_mesh.triangles].mean(axis=1)

    def near(p, rad):
        d = cent - np.asarray(p)
        d -= np.round(d)
        return np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < rad)

    tris_a = near((0.25, 0.75), 0.15)
    tris_b = near((0.75, 0.25), 0.15)
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = rng.integers(-3, 4, size=(3, 2))
        phase = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.normal(size=3)
        f = np.zeros(ndof)
        for a, kk, ph in zip(amp, k, phase):
            f += a * np.cos(2 * np.pi * (kk[0] * xy[:, 0] + kk[1] * xy[:, 1]) + ph)
        res = poincare_check(torus_mesh, f, tris_a, tris_b)
        assert res.holds, (res.lhs, res.rhs)


def test_poincare_validation(torus_mesh):
    _, ndof = _dof_coords(torus_mesh)
    f = np.ones(ndof)
    with pytest.raises(ConfigurationError):
        poincare_check(torus_mesh, f, np.array([], dtype=int), np.array([0]))
    with pytest.raises(ConfigurationError):
        poincare_check(torus_mesh, f, np.array([0, 1]), np.array([1, 2]))


def test_scaling_ratio(disk_mesh):
    res = metric_scaling_ratio_check(disk_mesh, 4.0)
    assert res.holds
    assert res.expected == pytest.approx(0.5)
    assert res.bound == pytest.approx(32.0)
    assert all(r == pytest.approx(0.5, rel=1e-10) for r in res.ratios)

    res = metric_scaling_ratio_check(disk_mesh, 0.25)
    assert res.holds
    assert res.expected == pytest.approx(2.0)
    assert res.bound == pytest.approx(32.0)

    with pytest.raises(ConfigurationError):
        metric_scaling_ratio_check(disk_mesh, 0.0)


def test_checks_assemble_once_per_mesh(disk_mesh, monkeypatch):
    built = []
    real = solve._assemble
    monkeypatch.setattr(solve, "_assemble", lambda mesh: built.append(mesh) or real(mesh))
    mesh = dataclasses.replace(disk_mesh)
    xy, _ = _dof_coords(mesh)
    for k in range(5):
        f = xy[:, 0] ** k + xy[:, 1]
        assert dirichlet_energy_check(mesh, f, 1.0, marker=1).holds
    assert built == [mesh]
    # the scaled mesh is a new object: assembled on its own, and its
    # power-of-two scaling gives the ratios c^{-1/2} to rounding
    res = metric_scaling_ratio_check(mesh, 4.0)
    assert len(built) == 2 and built[1] is not mesh
    assert res.ratios == pytest.approx((0.5,) * 5, rel=1e-13)


def test_poincare_solves_lambda1_once_per_mesh(disk_mesh, monkeypatch):
    solves = []
    real = solve._pencil_eigs
    monkeypatch.setattr(
        solve, "_pencil_eigs", lambda *args, **kw: solves.append(1) or real(*args, **kw)
    )
    mesh = dataclasses.replace(disk_mesh)
    xy, _ = _dof_coords(mesh)
    first = poincare_check(mesh, xy[:, 0], np.arange(0, 40), np.arange(40, 80))
    second = poincare_check(mesh, xy[:, 1], np.arange(0, 40), np.arange(40, 80))
    assert len(solves) == 1
    assert first.holds and second.holds
    # the cached lambda_1 is the one a caller would pass
    lambda1 = float(solve.neumann_spectrum(mesh, 2)[1])
    again = poincare_check(mesh, xy[:, 0], np.arange(0, 40), np.arange(40, 80), lambda1)
    assert again == first
