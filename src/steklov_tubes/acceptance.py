"""The acceptance suite: ten executable checks covering every module.

Each criterion exercises one quantitative claim end to end:

  1   scaled radial eigenvalues reach their predicted limits
  2   sphere-with-caps closed forms agree with the ODE oracle
  3   model SN/SD families bracket the FEM torus spectrum
  4   eps * sigma_2 on the torus trends to its limit 1
  5   eps * sigma_1 stays below the limsup envelope
  6   explicit lower-bound constant and threshold checks
  7   torus Neumann gap is stable under small excisions
  8   energy-inequality property suites on random functions
  9   FEM agrees with separated closed forms (annulus, disk)
  10  Bessel Wronskian identity and the radial scaling law

run() executes a subset and returns one CriterionResult per criterion;
meshes are built once in a SuiteCache and shared, and each mesh solves
its spectra once.  Each criterion yields one (ok, message) pair per
assertion; run() writes them as "ok: " and "FAIL: " lines, and any FAIL
line, kept in failures, fails the criterion.  Everything random is seeded.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import families, spherecaps
from .bessel import iv_scaled, kv_scaled
from .errors import ConfigurationError
from .fem import (
    Annulus,
    Disk,
    dirichlet_energy_check,
    mesh_planar,
    mesh_torus_minus_disks,
    neumann_spectrum,
    poincare_check,
    steklov_spectrum,
)
from .harmonics import (
    Circle,
    ExcisionScenario,
    Point,
    RoundSphere,
    SubmanifoldSpec,
)
from .radial import RadialMode, sigma_annulus_pair, sigma_mixed

LAMBDA1_TORUS = 4.0 * math.pi**2
TORUS_CENTERS = ((0.25, 0.25), (0.75, 0.75))
BRACKET_EPS = 0.03
BRACKET_DELTA = 0.12
TREND_EPS = (0.04, 0.02, 0.01)

# Criterion 4 refines the mesh faster than eps: with the collar meshed
# self-similarly, a fixed h/eps gives an eps-independent eigenvalue bias
# (~0.6%) that would swamp the shrinking distance to the limit.  Scaling
# h by an extra sqrt(eps/eps0) makes the bias itself decrease across the
# grid, so the measured deviation reflects the limit process.
def _trend_h(eps: float) -> float:
    return (eps / 6.0) * math.sqrt(eps / TREND_EPS[0])


def torus_scenario() -> ExcisionScenario:
    """Unit flat torus with two point excisions."""
    point = SubmanifoldSpec(dim=0, volume=1.0, kind=Point())
    return ExcisionScenario(m=2, lambda1_M=LAMBDA1_TORUS, submanifolds=(point, point))


def sphere_scenario() -> ExcisionScenario:
    """Round 2-sphere with two antipodal point excisions."""
    point = SubmanifoldSpec(dim=0, volume=1.0, kind=Point())
    return ExcisionScenario(m=2, lambda1_M=2.0, submanifolds=(point, point))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    checks: tuple[str, ...]
    failures: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def header(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} {status}  {self.name}  [{self.elapsed:.1f}s]"


class SuiteCache:
    """Memoizes the meshes shared between criteria; each mesh memoizes its spectra."""

    def __init__(self):
        self.torus_mesh = functools.cache(
            lambda eps, h: mesh_torus_minus_disks(1.0, TORUS_CENTERS, eps, h)
        )
        self.annulus_mesh = functools.cache(lambda h: mesh_planar(Annulus(0.5, 1.0), h))
        self.disk_mesh = functools.cache(lambda h: mesh_planar(Disk(1.0), h))


# ---------------------------------------------------------------------------
# 1: radial model limits


_KINDS = {
    0: lambda: SubmanifoldSpec(0, 1.0, Point()),
    1: lambda: SubmanifoldSpec(1, 2.0 * math.pi, Circle(2.0 * math.pi)),
    2: lambda: SubmanifoldSpec(2, 4.0 * math.pi, RoundSphere(2, 1.0)),
}

_MN_PAIRS = ((2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0))


def _criterion_1(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    delta = 0.5
    for m, n in _MN_PAIRS:
        scenario = ExcisionScenario(m, 1.0, (_KINDS[n](),))
        for case in families.rate_cases(scenario, q_max=2):
            log_case = case.normalization != "inverse_eps"
            eps = 1e-6 if log_case else 1e-5
            tol = 0.06 if log_case else 0.01
            val = families.scaled_sigma(scenario, case, eps, delta)
            rel = abs(val - case.predicted) / abs(case.predicted)
            yield (
                rel <= tol,
                f"(m={m}, n={n}, q={case.q}, {case.family}, k={case.k}) "
                f"{case.normalization}: {val:.6f} vs {case.predicted} "
                f"(rel {rel:.2e}, tol {tol})",
            )


# ---------------------------------------------------------------------------
# 2: sphere caps closed forms vs oracle


def _criterion_2(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    for n in range(6):
        for eps in (0.1, 0.3, 0.5):
            lo, hi = spherecaps.ode_oracle(n, eps, grid=4000)
            if n == 0:
                exact = spherecaps.sigma_zero(eps)
                yield (
                    abs(lo) <= 1e-5 * exact and abs(hi - exact) <= 1e-5 * exact,
                    f"n=0 eps={eps}: oracle ({lo:.2e}, {hi:.8f}) vs (0, {exact:.8f})",
                )
            else:
                exlo, exhi = spherecaps.sigma_pm(n, eps)
                ok = abs(lo - exlo) <= 1e-5 * exlo and abs(hi - exhi) <= 1e-5 * exhi
                yield (
                    ok,
                    f"n={n} eps={eps}: oracle ({lo:.8f}, {hi:.8f}) "
                    f"vs closed ({exlo:.8f}, {exhi:.8f})",
                )
                res = max(
                    abs(spherecaps.determinant_residual(n, eps, exlo)),
                    abs(spherecaps.determinant_residual(n, eps, exhi)),
                )
                yield res <= 1e-9, f"n={n} eps={eps}: residual {res:.2e}"
    for n in range(1, 6):
        eps = 1e-3
        lo, hi = spherecaps.sigma_pm(n, eps)
        dev = max(abs(eps * lo - n), abs(eps * hi - n)) / n
        yield dev <= 0.005, f"n={n}: eps*sigma dev {dev:.2e} at eps=1e-3"


# ---------------------------------------------------------------------------
# 3: torus bracketing


def _criterion_3(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    h = BRACKET_EPS / 6.0
    fem_vals = steklov_spectrum(cache.torus_mesh(BRACKET_EPS, h), 10)
    scenario = torus_scenario()
    pairs = families.bracket(scenario, BRACKET_EPS, BRACKET_DELTA, 8)
    for ell, (lower, upper) in enumerate(pairs):
        sig = float(fem_vals[ell])
        ok = lower <= sig * 1.02 and sig <= upper * 1.02
        yield ok, f"ell={ell}: {lower:.6f} <= {sig:.6f} <= {upper:.6f} (2% slack)"


# ---------------------------------------------------------------------------
# 4: scaled sigma_2 trend on the torus


def _criterion_4(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    devs = []
    for eps in TREND_EPS:
        vals = steklov_spectrum(cache.torus_mesh(eps, _trend_h(eps)), 3)
        devs.append(abs(eps * float(vals[2]) - 1.0))
    for (eps, dev), prev in zip(zip(TREND_EPS[1:], devs[1:]), devs):
        yield dev < prev, f"deviation {dev:.5f} < {prev:.5f} at eps={eps}"
    yield devs[-1] < 0.15, f"final deviation {devs[-1]:.5f} < 0.15"


# ---------------------------------------------------------------------------
# 5: upper bound proxy


def _criterion_5(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    limit = bounds_mod.upper_bound_limit(torus_scenario())
    eps = 0.01
    sig1 = float(steklov_spectrum(cache.torus_mesh(eps, eps / 6.0), 3)[1])
    yield (
        eps * sig1 <= 1.1 * limit,
        f"torus: eps*sigma_1 = {eps * sig1:.4f} <= {1.1 * limit}",
    )
    cap_limit = bounds_mod.upper_bound_limit(sphere_scenario())
    worst = 0.0
    for eps in (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 1e-4):
        sig1 = spherecaps.full_spectrum(eps, 2)[1].value
        worst = max(worst, eps * sig1)
    yield (
        worst <= 1.1 * cap_limit,
        f"caps: max eps*sigma_1 = {worst:.4f} <= {1.1 * cap_limit}",
    )


# ---------------------------------------------------------------------------
# 6: lower bound constant and thresholds


def _criterion_6(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    report = bounds_mod.constant_C(torus_scenario())
    target = math.pi**2 / 128.0
    yield (
        abs(report.constant_C - target) <= 1e-12,
        f"C = {report.constant_C!r} vs pi^2/128 = {target!r}",
    )
    yield report.binding_term == "spectral", f"binding {report.binding_term}"
    for eps in TREND_EPS:
        sig1 = float(steklov_spectrum(cache.torus_mesh(eps, eps / 6.0), 3)[1])
        res = bounds_mod.lower_bound_check(torus_scenario(), eps, sig1, slack=0.0)
        yield (
            res.holds,
            f"torus eps={eps}: sigma_1 {sig1:.4f} >= threshold {res.threshold:.4f}",
        )
    for eps in (0.1, 0.01, 0.001):
        sig1 = spherecaps.full_spectrum(eps, 2)[1].value
        res = bounds_mod.lower_bound_check(sphere_scenario(), eps, sig1, slack=0.0)
        yield (
            res.holds,
            f"caps eps={eps}: sigma_1 {sig1:.4f} >= threshold {res.threshold:.4f}",
        )


# ---------------------------------------------------------------------------
# 7: torus Neumann gap stability


def _criterion_7(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    eps = 0.01
    lam1 = float(neumann_spectrum(cache.torus_mesh(eps, eps / 6.0), 2)[1])
    rel = abs(lam1 - LAMBDA1_TORUS) / LAMBDA1_TORUS
    yield (
        rel <= 0.05,
        f"lambda_1 = {lam1:.4f} vs 4 pi^2 = {LAMBDA1_TORUS:.4f} (rel {rel:.4f})",
    )


# ---------------------------------------------------------------------------
# 8: energy inequality property suites


def _random_annulus_functions(mesh, rng, count):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    for _ in range(count):
        f = np.zeros(len(r))
        for k in range(4):
            amp = rng.standard_normal()
            phase = rng.uniform(0.0, 2.0 * math.pi)
            power = rng.uniform(-2.0, 2.0)
            f += amp * np.cos(k * theta + phase) * r**power
        yield f


def _random_torus_functions(mesh, dof, ndof, rng, count):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    for _ in range(count):
        fv = np.zeros(len(x))
        for _ in range(3):
            kx, ky = rng.integers(-3, 4), rng.integers(-3, 4)
            amp = rng.standard_normal()
            phase = rng.uniform(0.0, 2.0 * math.pi)
            fv += amp * np.cos(2.0 * math.pi * (kx * x + ky * y) + phase)
        f = np.zeros(ndof)
        f[dof] = fv
        yield f


def _torus_regions(mesh):
    """Triangles within 0.15 (periodic) of (0.25, 0.75) and of (0.75, 0.25).

    On the unit torus with holes at TORUS_CENTERS both discs are clear
    of the holes, as the Poincare check needs.
    """
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)

    def near(cx, cy):
        d = np.abs(centroids - np.array([cx, cy])) % 1.0
        d = np.minimum(d, 1.0 - d)
        return np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < 0.15)

    return near(0.25, 0.75), near(0.75, 0.25)


def _criterion_8(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    rng = np.random.default_rng(seed)

    annulus = cache.annulus_mesh(0.04)
    sigma1_sn = sigma_mixed(RadialMode(1, 1, 0.0), 0.5, 1.0, "Neumann")
    fails = sum(
        not dirichlet_energy_check(annulus, f, sigma1_sn, marker=0).holds
        for f in _random_annulus_functions(annulus, rng, 100)
    )
    yield fails == 0, f"dirichlet energy: {fails}/100 failures"

    torus = cache.torus_mesh(BRACKET_EPS, BRACKET_EPS / 6.0)
    dof, ndof = torus.dof_map()
    tris_a, tris_b = _torus_regions(torus)
    fails = sum(
        not poincare_check(torus, f, tris_a, tris_b).holds
        for f in _random_torus_functions(torus, dof, ndof, rng, 100)
    )
    yield fails == 0, f"poincare: {fails}/100 failures"


# ---------------------------------------------------------------------------
# 9: FEM vs separated closed forms


def _annulus_reference(count: int) -> list[float]:
    vals: list[float] = []
    for q in range(count + 2):
        pair = sigma_annulus_pair(RadialMode(1, q, 0.0), 0.5, 1.0)
        vals += pair * (1 if q == 0 else 2)
    return sorted(vals)[:count]


def _criterion_9(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    disk_exact = (0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0)
    cases = (
        ("annulus", lambda: cache.annulus_mesh(0.005), _annulus_reference(8), ".6f"),
        ("disk", lambda: cache.disk_mesh(0.02), disk_exact, ""),
    )
    for name, mesh, exact, spec in cases:
        for i, (got, want) in enumerate(zip(steklov_spectrum(mesh(), 8), exact)):
            if want == 0.0:
                yield abs(got) <= 1e-8, f"{name} sigma_{i}: {got:.2e} vs 0"
            else:
                rel = abs(got - want) / want
                yield (
                    rel <= 0.01,
                    f"{name} sigma_{i}: {got:.6f} vs {want:{spec}} (rel {rel:.2e})",
                )


# ---------------------------------------------------------------------------
# 10: Bessel Wronskian and radial scaling


def _criterion_10(cache: SuiteCache, seed: int) -> Iterator[tuple[bool, str]]:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(1000):
        nu = rng.uniform(0.0, 50.0)
        x = 10.0 ** rng.uniform(-3.0, math.log10(700.0))
        # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1 (DLMF 10.28.2)
        w = x * (
            iv_scaled(nu, x) * kv_scaled(nu + 1, x)
            + iv_scaled(nu + 1, x) * kv_scaled(nu, x)
        )
        worst = max(worst, abs(w - 1.0))
    yield worst <= 1e-10, f"Wronskian worst residual {worst:.2e}"

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(0, 6))
        lam = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.01, 25.0))
        eps = 10.0 ** rng.uniform(-4.0, -0.7)
        delta = eps * rng.uniform(2.0, 50.0)
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        outer = "Neumann" if rng.random() < 0.5 else "Dirichlet"
        base = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
        scaled = sigma_mixed(
            RadialMode(d, q, lam / c**2), c * eps, c * delta, outer
        )
        if base == 0.0:
            rel = abs(scaled)
        else:
            rel = abs(c * scaled - base) / abs(base)
        worst = max(worst, rel)
    yield worst <= 1e-10, f"scaling law worst residual {worst:.2e}"


# ---------------------------------------------------------------------------
# runner


_CRITERIA: tuple[tuple[str, object], ...] = (
    ("radial model limits", _criterion_1),
    ("sphere caps vs oracle", _criterion_2),
    ("torus bracketing SN <= FEM <= SD", _criterion_3),
    ("scaled sigma_2 torus trend", _criterion_4),
    ("upper bound proxy", _criterion_5),
    ("lower bound constant and thresholds", _criterion_6),
    ("torus Neumann gap stability", _criterion_7),
    ("energy inequality property suites", _criterion_8),
    ("FEM vs separated closed forms", _criterion_9),
    ("Bessel Wronskian and radial scaling", _criterion_10),
)


def run(
    indices: list[int] | None = None,
    seed: int = 0,
    cache: SuiteCache | None = None,
) -> list[CriterionResult]:
    """Run the selected acceptance criteria (all ten by default)."""
    if indices is None:
        indices = list(range(1, len(_CRITERIA) + 1))
    bad = [i for i in indices if not 1 <= i <= len(_CRITERIA)]
    if bad:
        raise ConfigurationError(f"criteria must be in 1..{len(_CRITERIA)}, got {bad}")
    if cache is None:
        cache = SuiteCache()
    results = []
    for i in indices:
        name, fn = _CRITERIA[i - 1]
        start = time.perf_counter()
        verdicts = list(fn(cache, seed))
        elapsed = time.perf_counter() - start
        lines = tuple(("ok: " if ok else "FAIL: ") + msg for ok, msg in verdicts)
        failures = tuple(line for line, (ok, _) in zip(lines, verdicts) if not ok)
        results.append(CriterionResult(i, name, lines, failures, elapsed))
    return results
