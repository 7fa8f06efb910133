"""Discrete versions of the energy inequalities behind the eigenvalue bounds.

Each check evaluates both sides of an inequality on a concrete mesh and
function and reports whether it holds up to the fixed relative slack
ENERGY_SLACK, which CheckResult.slack reports.  The slack absorbs
quadrature of the boundary terms on polygonal circles; the structural
steps of the proofs (restriction of the Dirichlet energy,
Cauchy-Schwarz, parallelogram) are exact for P1 functions, so failures
indicate real bugs rather than discretization noise.  The eigenvalue
each check is given must be finite and positive.

dirichlet_energy_check: for any f on a mesh containing the collar
A(eps, delta) around a hole,

    ||grad f||^2  >=  sigma_1^SN(A) ||f - mean(f)||^2_{boundary circle},

with sigma_1^SN(A) the first nonzero Steklov-Neumann eigenvalue of the
flat collar, known in closed form from the radial solver.

poincare_check: for disjoint triangle subsets V_1, V_2,

    ||grad f||^2  >=  (lambda_1/2) min(|V_1|, |V_2|) (mean_1 - mean_2)^2,

with lambda_1 the mesh's first nonzero Neumann eigenvalue (neumann_spectrum,
solved once per mesh, unless supplied) and means taken against area measure.

metric_scaling_ratio_check: scaling the flat metric by c multiplies
every Steklov eigenvalue by c^{-1/2} exactly in two dimensions; the
ratios must also respect the quasi-isometry envelope K^{+-(m+1/2)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..bounds import quasi_ratio_bound
from ..errors import ConfigurationError
from .mesh import Mesh
from .solve import assemble, boundary_mass, steklov_spectrum, neumann_spectrum

ENERGY_SLACK = 0.02


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    lhs: float
    rhs: float
    slack: float


def dirichlet_energy_check(
    mesh: Mesh,
    f: np.ndarray,
    sigma1_sn: float,
    marker: int = 0,
) -> CheckResult:
    """Check the collar energy bound; f lives in dof space.

    sigma1_sn is the first nonzero Steklov-Neumann eigenvalue of the
    collar whose Steklov circle carries `marker`, supplied by the
    radial solver (sigma_mixed of the matching annulus).
    """
    if not 0 < sigma1_sn < math.inf:
        raise ConfigurationError(f"sigma1_sn must be finite and > 0, got {sigma1_sn}")
    K, dof, ndof = assemble(mesh)
    f = np.asarray(f, dtype=float)
    if f.shape != (ndof,):
        raise ConfigurationError(f"f must have shape ({ndof},), got {f.shape}")
    d = mesh.cached(f"boundary_mass {marker}", lambda m: boundary_mass(m, {marker}, dof, ndof))
    if not np.any(d > 0):
        raise ConfigurationError(f"marker {marker} has no boundary mass")
    w = d[d > 0]
    fb = f[d > 0]
    mean = float(w @ fb) / float(w.sum())
    lhs = float(f @ (K @ f))
    rhs = sigma1_sn * float(w @ (fb - mean) ** 2)
    holds = lhs >= rhs * (1.0 - ENERGY_SLACK)
    return CheckResult("dirichlet_energy", holds, lhs, rhs, ENERGY_SLACK)


def poincare_check(
    mesh: Mesh,
    f: np.ndarray,
    tris_a: np.ndarray,
    tris_b: np.ndarray,
    lambda1: float | None = None,
) -> CheckResult:
    """Check the two-region mean-gap bound; f lives in dof space."""
    if lambda1 is not None and not 0 < lambda1 < math.inf:
        raise ConfigurationError(f"lambda1 must be finite and > 0, got {lambda1}")
    tris_a = np.asarray(tris_a, dtype=np.int64)
    tris_b = np.asarray(tris_b, dtype=np.int64)
    if len(tris_a) == 0 or len(tris_b) == 0:
        raise ConfigurationError("both triangle subsets must be nonempty")
    if np.intersect1d(tris_a, tris_b).size:
        raise ConfigurationError("triangle subsets must be disjoint")
    K, dof, ndof = assemble(mesh)
    f = np.asarray(f, dtype=float)
    if f.shape != (ndof,):
        raise ConfigurationError(f"f must have shape ({ndof},), got {f.shape}")
    if lambda1 is None:
        lambda1 = float(neumann_spectrum(mesh, 2)[1])
    areas = mesh.areas()
    fd = f[dof[mesh.triangles]]

    def region(tris):
        mu = float(areas[tris].sum())
        integral = float((areas[tris] * fd[tris].mean(axis=1)).sum())
        return mu, integral / mu

    mu_a, mean_a = region(tris_a)
    mu_b, mean_b = region(tris_b)
    lhs = float(f @ (K @ f))
    rhs = 0.5 * lambda1 * min(mu_a, mu_b) * (mean_a - mean_b) ** 2
    holds = lhs >= rhs * (1.0 - ENERGY_SLACK)
    return CheckResult("poincare", holds, lhs, rhs, ENERGY_SLACK)


@dataclass(frozen=True)
class ScalingCheck:
    ratios: tuple[float, ...]
    expected: float
    bound: float
    holds: bool


def metric_scaling_ratio_check(
    mesh: Mesh, c: float, count: int = 6, tol: float = 1e-8
) -> ScalingCheck:
    """Steklov ratio under metric scaling by c: exactly c^{-1/2} in 2D.

    Compares sigma_ell of the mesh and of the mesh with coordinates
    scaled by sqrt(c), for ell = 1..count-1, and also confirms the
    ratios respect the quasi-isometry bound K^{m+1/2} with m = 2.
    """
    if c <= 0:
        raise ConfigurationError(f"scaling factor must be > 0, got {c}")
    base = steklov_spectrum(mesh, count)
    scaled = steklov_spectrum(replace(mesh, vertices=mesh.vertices * math.sqrt(c)), count)
    ratios = tuple(float(scaled[i] / base[i]) for i in range(1, count))
    expected = c ** -0.5
    bound = quasi_ratio_bound(max(c, 1.0 / c), 2)
    holds = all(abs(r - expected) <= tol * expected for r in ratios) and all(
        1.0 / bound - 1e-12 <= r <= bound + 1e-12 for r in ratios
    )
    return ScalingCheck(ratios, expected, bound, holds)
