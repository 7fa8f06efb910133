"""Radial mode problems on the model annulus [eps, delta] x S^d.

Separating variables on N x [eps, delta] x S^d with metric
h + dr^2 + r^2 g_0 reduces the mixed Steklov problems to the ODE

    a'' + (d/r) a' - (lam + q(q+d-1)/r^2) a = 0,

with the Steklov condition sigma = -a'(eps)/a(eps) at the inner radius
(normal pointing into the excised tube) and either a(delta) = 0
(Dirichlet, family "SD") or a'(delta) = 0 (Neumann, family "SN") at the
outer radius.  lam is a transverse eigenvalue of N and q a spherical
harmonic cluster on S^d.

For lam = 0 the solutions are powers { r^q, r^{-(q+d-1)} } (with
{ 1, log r } when q = 0 and d = 1), giving closed forms.  For lam > 0
the substitution a(r) = r^{-s} w(sqrt(lam) r), s = (d-1)/2, turns the
equation into the modified Bessel equation of order nu = q + s, and the
exponentially scaled kernels keep every intermediate O(1).  sigma =
-sqrt(lam) (w' - (s/x) w)/w is formed from the folded recurrence
Z' - (s/x) Z = +-Z_{nu+1} + (q/x) Z, so nothing cancels where sigma is
small (SN modes near lam = 0, q = 0).  The one kernel failure left is
K_nu overflowing double range for a large order at a small argument;
the mode then takes the power law r^-beta where that is within 2e-12,
and raises NumericalError elsewhere.  Only these lam > 0 paths import
numpy and bessel (and with it scipy.special), so lam = 0 listings run on
the standard library alone.

mixed_spectrum lists the modes of one collar in ascending order by a
best-first walk of the (k, q) lattice, evaluating only the modes it
lists and their frontier.

sigma_annulus_pair treats the genuine Steklov problem on a flat annulus
(Steklov condition on both circles) for lam = 0 modes only.  Its
determinant is a quadratic polynomial in sigma, so the two eigenvalues
per mode come from one exact quadratic solve rather than a root search.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import NumericalError
from .harmonics import ModeEigenvalue, sphere_multiplicity

# the model family of each condition at the outer radius delta
FAMILY_OUTER = {"SD": "Dirichlet", "SN": "Neumann"}
OUTER_CONDITIONS = tuple(FAMILY_OUTER.values())


def outer_condition(family: str) -> str:
    """The condition at delta of model family "SD" or "SN"."""
    if family not in FAMILY_OUTER:
        raise ValueError(f"family must be 'SN' or 'SD', got {family!r}")
    return FAMILY_OUTER[family]


@dataclass(frozen=True)
class RadialMode:
    """One separated mode: sphere dimension d, cluster q, transverse lam."""

    d: int
    q: int
    lam: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.d}")
        if self.q < 0:
            raise ValueError(f"cluster index must be >= 0, got {self.q}")
        if self.lam < 0:
            raise ValueError(f"transverse eigenvalue must be >= 0, got {self.lam}")

    @property
    def beta(self) -> float:
        """Decay exponent q + d - 1 of the singular power solution."""
        return float(self.q + self.d - 1)

    @property
    def nu(self) -> float:
        """Bessel order q + (d-1)/2."""
        return self.q + (self.d - 1) / 2.0


def _check_radii(eps: float, delta: float) -> None:
    if not (0.0 < eps < delta):
        raise ValueError(f"need 0 < eps < delta, got eps={eps}, delta={delta}")


def _sigma_power(mode: RadialMode, eps: float, delta: float, outer: str) -> float:
    # lam = 0: Euler equation, exact power/log solutions.
    q, beta = mode.q, mode.beta
    if outer == "Neumann":
        if q == 0:
            return 0.0
        tau = (eps / delta) ** (q + beta)
        return q * beta * (1.0 - tau) / (eps * (q + beta * tau))
    if q == 0 and mode.d == 1:
        return 1.0 / (eps * math.log(delta / eps))
    tau = (eps / delta) ** (q + beta)
    return (beta + q * tau) / (eps * (1.0 - tau))


@functools.cache
def _bessel_layer():
    """numpy and the Bessel kernels, imported by the first lam > 0 mode.

    Cached: a cached call costs about a tenth of the two import
    statements, and each lam > 0 mode makes two or three calls.
    """
    import numpy as np

    from . import bessel

    return np, bessel


def _kernels(nu: float, q: int, x: float):
    """Scaled I_nu(x), K_nu(x) and their folded derivatives.

    Z' - (s/x) Z = +-Z_{nu+1} + (q/x) Z with q = nu - s (DLMF 10.29),
    + for I and - for K, scaled like Z.  I's two terms are positive, and
    K's difference keeps at least half of K_{nu+1}, as
    K_{nu+1} >= (2 nu / x) K_nu >= (2 q / x) K_nu.
    """
    _, bessel = _bessel_layer()
    i, k = bessel.iv_scaled(nu, x), bessel.kv_scaled(nu, x)
    fi = bessel.iv_scaled(nu + 1, x) + (q / x) * i
    fk = (q / x) * k - bessel.kv_scaled(nu + 1, x)
    return i, k, fi, fk


def _sigma_bessel(mode: RadialMode, eps: float, delta: float, outer: str) -> float:
    np, bessel = _bessel_layer()
    q, nu = mode.q, mode.nu
    rt = math.sqrt(mode.lam)
    x1, x2 = rt * eps, rt * delta
    with np.errstate(all="ignore"):
        ie1, ke1, fi1, fk1 = _kernels(nu, q, x1)
        if outer == "Dirichlet":
            wi, wk = bessel.iv_scaled(nu, x2), bessel.kv_scaled(nu, x2)
        else:
            # sqrt(lam) cancels in num/den; without it, listed d = 1 values
            # move by an ulp, as often away from the exact value as toward it
            _, _, fi2, fk2 = _kernels(nu, q, x2)
            wi, wk = rt * fi2, rt * fk2
        # w(x) = K_nu(x) W_I - I_nu(x) W_K; the shared factor exp(x2 - x1)
        # cancels in the ratio, leaving E = exp(2(x1 - x2)) <= 1.
        e = math.exp(2.0 * (x1 - x2))
        num = fk1 * wi - fi1 * wk * e
        den = ke1 * wi - ie1 * wk * e
        sigma = -rt * num / den
    if not math.isfinite(sigma):
        # K_nu overflows for large nu at tiny x1.  There the mode is the
        # power law r^-beta at the inner radius, to a relative error of
        # x1^2 / (2 (nu - 1) (nu + s)); take it where that is below 2e-12.
        s = nu - q
        if nu > 1 and x1 * x1 <= 4e-12 * (nu - 1) * (nu + s):
            return _sigma_power(mode, eps, delta, outer)
        raise NumericalError(
            f"radial kernel overflow for mode {mode} at eps={eps}, delta={delta}"
        )
    return sigma


def sigma_mixed(mode: RadialMode, eps: float, delta: float, outer: str) -> float:
    """First eigenvalue of the mode problem, sigma = -a'(eps)/a(eps).

    outer selects the condition at delta: "Dirichlet" (family SD) or
    "Neumann" (family SN).
    """
    _check_radii(eps, delta)
    if outer not in OUTER_CONDITIONS:
        raise ValueError(f"outer must be one of {OUTER_CONDITIONS}, got {outer!r}")
    if mode.lam == 0.0:
        return _sigma_power(mode, eps, delta, outer)
    return _sigma_bessel(mode, eps, delta, outer)


def sn_log_normalizer(lam: float, eps: float, delta: float) -> float:
    """Scale factor for SN modes with d = 1, q = 0, lam > 0.

    Those eigenvalues behave like 1 / normalizer with

        normalizer = eps * (|log(sqrt(lam) eps)| - K_0'(sqrt(lam) delta)
                                                   / I_0'(sqrt(lam) delta)),

    so normalizer * sigma -> 1 as eps -> 0.
    """
    if lam <= 0:
        raise ValueError(f"need lam > 0, got {lam}")
    _check_radii(eps, delta)
    _, bessel = _bessel_layer()
    rt = math.sqrt(lam)
    x2 = rt * delta
    # K_0' / I_0' = -K_1 / I_1
    correction = -bessel.kv_scaled(1.0, x2) / bessel.iv_scaled(1.0, x2) * math.exp(-2.0 * x2)
    return eps * (abs(math.log(rt * eps)) - correction)


# ---------------------------------------------------------------------------
# two-sided Steklov annulus


def _pair_columns(mode: RadialMode, eps_in: float, eps_out: float):
    """Values and radial derivatives of two scaled lam = 0 solutions.

    Returns (u1, du1, u2, du2) as pairs evaluated at (eps_in, eps_out).
    Each column carries a constant scaling, which leaves the determinant
    roots unchanged but keeps all entries O(1).
    """
    q, d = mode.q, mode.d
    if q == 0 and d == 1:
        u1 = (1.0, 1.0)
        du1 = (0.0, 0.0)
        u2 = (math.log(eps_in), math.log(eps_out))
        du2 = (1.0 / eps_in, 1.0 / eps_out)
        return u1, du1, u2, du2
    beta = mode.beta
    # u1 = (r/eps_out)^q grows, u2 = (r/eps_in)^(-beta) decays
    t = eps_in / eps_out
    u1 = (t ** q, 1.0)
    du1 = (q * t ** q / eps_in if q else 0.0, q / eps_out if q else 0.0)
    u2 = (1.0, t ** beta)
    du2 = (-beta / eps_in, -beta * t ** beta / eps_out)
    return u1, du1, u2, du2


def sigma_annulus_pair(
    mode: RadialMode, eps_in: float, eps_out: float
) -> tuple[float, float]:
    """Both Steklov eigenvalues of one mode on the annulus [eps_in, eps_out].

    The boundary condition is Steklov on both circles.  The 2x2 boundary
    determinant is exactly quadratic in sigma, so the pair is computed by
    one quadratic solve.  Returned ascending.  Only lam = 0 modes are
    supported; lam > 0 raises ValueError.
    """
    _check_radii(eps_in, eps_out)
    if mode.lam != 0.0:
        raise ValueError(f"annulus pair needs lam = 0, got lam={mode.lam}")
    u1, du1, u2, du2 = _pair_columns(mode, eps_in, eps_out)

    a = u2[0] * u1[1] - u1[0] * u2[1]
    b = u1[0] * du2[1] - du1[0] * u2[1] - u2[0] * du1[1] + du2[0] * u1[1]
    c = du1[0] * du2[1] - du2[0] * du1[1]

    if a == 0.0:
        raise NumericalError(f"degenerate annulus determinant for mode {mode}")
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -1e-12 * b * b:
            disc = 0.0
        else:
            raise NumericalError(f"complex annulus pair for mode {mode}: disc={disc}")
    if c == 0.0:
        roots = sorted((0.0, -b / a))
    else:
        p = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = sorted((p / a, c / p))
    if roots[0] < -1e-9 * max(1.0, abs(roots[1])):
        raise NumericalError(f"negative annulus eigenvalue {roots[0]} for mode {mode}")
    return (max(roots[0], 0.0), roots[1])


# ---------------------------------------------------------------------------
# ordered mode streams


def mixed_spectrum(
    d: int,
    transverse: Callable[[int], tuple[float, int] | None],
    eps: float,
    delta: float,
    outer: str,
    j: int,
) -> Iterator[ModeEigenvalue]:
    """Every mode eigenvalue of one collar, ascending in (value, k, q).

    transverse(k) gives (lambda_k, multiplicity), or None past the end
    of the transverse spectrum (a point has k = 0 only).  Multiplicities
    are mult(lambda_k) * mult(q), and every mode carries submanifold
    index j.  The stream never ends; the caller stops reading it.

    sigma is nondecreasing in lam and in q, so the (k, q) lattice is
    walked best first from (0, 0): popping (k, q) pushes (k, q + 1),
    and (k + 1, 0) when q = 0.  Each mode has exactly one way in, and
    nothing pushed later is smaller than what was popped.  A mode is
    evaluated when it is pushed, so only the listed modes and their
    frontier ever reach the kernel.
    """
    _check_radii(eps, delta)
    # an unknown outer gets no family; sigma_mixed refuses it on the first push
    family = {o: f for f, o in FAMILY_OUTER.items()}.get(outer)
    heap: list[tuple[float, int, int, float, int]] = []

    def push(k: int, q: int, lam: float, mult_k: int) -> None:
        value = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
        heapq.heappush(heap, (value, k, q, lam, mult_k))

    push(0, 0, *transverse(0))
    while True:
        value, k, q, lam, mult_k = heapq.heappop(heap)
        yield ModeEigenvalue(
            value=value,
            j=j,
            k=k,
            q=q,
            multiplicity=mult_k * sphere_multiplicity(d, q),
            family=family,
        )
        push(k, q + 1, lam, mult_k)
        if q == 0 and (following := transverse(k + 1)) is not None:
            push(k + 1, 0, *following)
