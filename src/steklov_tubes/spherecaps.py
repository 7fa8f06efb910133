"""Steklov spectrum of a round sphere band between two polar caps.

Removing two antipodal geodesic caps of aperture eps from the unit S^2
leaves the band eps <= psi <= pi - eps.  Separating f = G(psi) e^{i n
theta} reduces the Steklov problem to

    (sin(psi) G')' = n^2 G / sin(psi),
    -G'(eps) = sigma G(eps),   G'(pi - eps) = sigma G(pi - eps).

For n = 0 the solutions are 1 and log tan(psi/2), giving sigma = 0 and

    sigma_zero(eps) = 1 / (sin(eps) log(cot(eps/2))).

For n >= 1 the solutions are tan^n(psi/2) and cot^n(psi/2); the
even/odd combinations under psi -> pi - psi give, with
T = tan^{2n}(eps/2),

    sigma_n^- = n (1 - T) / (sin(eps) (1 + T)),      (even)
    sigma_n^+ = n (1 + T) / (sin(eps) (1 - T)),      (odd)

each of multiplicity 2 from the theta Fourier pair.  T is evaluated in
log space so the formulas stay accurate up to n = 50.  In particular
sigma_1^- = cot(eps) exactly.

ode_oracle discretizes the same band ODE directly (P1 elements on the
divergence form, Steklov terms as a rank-2 boundary mass) without using
any of the algebra above, so it cross-checks the closed forms; it is the
only part of the module that imports numpy and scipy.  Its grid
is graded by s = log tan(psi/2), the variable in which the exact
solutions are e^{+-ns}; uniform-in-psi grids waste resolution away from
the boundary layer and miss the target accuracy by orders of magnitude.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import CompletenessError

N_MAX = 50
# ode_oracle holds about a dozen float arrays of grid + 1 entries: a grid
# at this cap adds about 145 MB to the process, and a larger one is
# refused before numpy allocates, instead of taking the machine's memory
MAX_ORACLE_GRID = 10**6


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < math.pi / 2.0):
        raise ValueError(f"cap aperture must lie in (0, pi/2), got {eps}")


def _check_n(n: int) -> None:
    if not (0 <= n <= N_MAX):
        raise ValueError(f"mode number must lie in [0, {N_MAX}], got {n}")


def sigma_zero(eps: float) -> float:
    """The nonzero n = 0 eigenvalue (odd log mode)."""
    _check_eps(eps)
    return 1.0 / (math.sin(eps) * math.log(1.0 / math.tan(eps / 2.0)))


def sigma_pm(n: int, eps: float) -> tuple[float, float]:
    """(sigma_n^-, sigma_n^+) for n >= 1, each of multiplicity 2."""
    _check_eps(eps)
    _check_n(n)
    if n < 1:
        raise ValueError("sigma_pm needs n >= 1; the n = 0 pair is (0, sigma_zero)")
    # T = tan^{2n}(eps/2) through log space; 1 - T via expm1 keeps the
    # near-equator regime (T -> 1) accurate.
    ell = 2.0 * n * math.log(math.tan(eps / 2.0))
    t = math.exp(ell)
    one_minus_t = -math.expm1(ell)
    s = math.sin(eps)
    return n * one_minus_t / (s * (1.0 + t)), n * (1.0 + t) / (s * one_minus_t)


def determinant_residual(n: int, eps: float, sigma: float) -> float:
    """Relative residual of the two-cap boundary determinant at sigma.

    The determinant condition for mode n >= 1 is the quadratic

        (1 - T^2) sigma^2 - 2 n (1 + T^2) sigma / sin(eps)
                          + n^2 (1 - T^2) / sin^2(eps) = 0,

    already scaled by tan^{2n}(eps/2) relative to the raw 2x2 expansion
    (a positive factor, so roots and signs are unchanged).  Returns the
    quadratic divided by the magnitude of its largest term, so exact
    roots give ~1e-16 and the value is comparable across n and eps.
    """
    _check_eps(eps)
    _check_n(n)
    if n < 1:
        raise ValueError("determinant_residual is defined for n >= 1")
    ell = 2.0 * n * math.log(math.tan(eps / 2.0))
    t2 = math.exp(2.0 * ell)
    csc = 1.0 / math.sin(eps)
    a = (1.0 - t2) * sigma * sigma
    b = -2.0 * n * (1.0 + t2) * csc * sigma
    c = n * n * (1.0 - t2) * csc * csc
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return 0.0
    return (a + b + c) / scale


# ---------------------------------------------------------------------------
# spectrum assembly


@dataclass(frozen=True)
class CapMode:
    """One eigenvalue of the band: Fourier number n and equator parity."""

    value: float
    n: int
    parity: str
    multiplicity: int


def mode_pair(n: int, eps: float) -> tuple[CapMode, CapMode]:
    """The even and the odd mode of Fourier number n.

    n = 0 gives 0 and sigma_zero, each of multiplicity 1; n >= 1 gives
    sigma_n^- and sigma_n^+, each of multiplicity 2.  sigma_zero and
    sigma_pm check eps and n.
    """
    if n == 0:
        return CapMode(0.0, 0, "even", 1), CapMode(sigma_zero(eps), 0, "odd", 1)
    lo, hi = sigma_pm(n, eps)
    return CapMode(lo, n, "even", 2), CapMode(hi, n, "odd", 2)


def full_spectrum(eps: float, count: int) -> list[CapMode]:
    """First eigenvalues of the band, grouped by mode, ascending.

    Truncated once the cumulative multiplicity reaches count.  With
    a = log cot(eps/2), sin(eps) sigma_n^- = n tanh(n a) and
    sin(eps) sigma_n^+ = n coth(n a) both increase with n (the odd branch
    from sigma_zero, its n -> 0 limit), so merging the even and the odd
    members of mode_pair by (value, n, parity) lists the modes in order.
    A list that needs more than a mode at n = N_MAX raises
    CompletenessError.
    """
    _check_eps(eps)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    # one mode_pair per n, read by both the even and the odd stream
    even, odd = itertools.tee(mode_pair(n, eps) for n in range(N_MAX + 1))
    streams = map(itemgetter(0), even), map(itemgetter(1), odd)
    out = []
    cum = 0
    for m in heapq.merge(*streams, key=lambda m: (m.value, m.n, m.parity)):
        out.append(m)
        cum += m.multiplicity
        if cum >= count:
            return out
        if m.n == N_MAX:
            break
    raise CompletenessError(f"the first {count} eigenvalues need modes past n = {N_MAX}")


# ---------------------------------------------------------------------------
# independent discretization


def ode_oracle(n: int, eps: float, grid: int = 1000) -> tuple[float, float]:
    """Both eigenvalues of mode n from a direct band discretization.

    P1 elements on the divergence form of the psi ODE with midpoint
    coefficients, on the graded grid psi_j = 2 atan(exp(s_j)) with s_j
    uniform in [log tan(eps/2), -log tan(eps/2)].  The Steklov condition
    enters as a rank-2 boundary mass; eliminating interior nodes leaves
    a 2x2 eigenproblem whose two eigenvalues converge at O(grid^-2).

    For n = 0 the pair is (0, ~sigma_zero); for n >= 1 it is
    (~sigma_n^-, ~sigma_n^+).
    """
    _check_eps(eps)
    _check_n(n)
    if not 100 <= grid <= MAX_ORACLE_GRID:
        raise ValueError(f"grid must be in [100, {MAX_ORACLE_GRID}], got {grid}")
    import numpy as np
    from scipy.linalg import solveh_banded

    s0 = math.log(math.tan(eps / 2.0))
    s = np.linspace(s0, -s0, grid + 1)
    psi = 2.0 * np.arctan(np.exp(s))
    he = np.diff(psi)
    mid = 0.5 * (psi[:-1] + psi[1:])
    sin_mid = np.sin(mid)

    kd = sin_mid / he                     # stiffness coefficient per element
    md = (n * n) * he / sin_mid           # mass-like coefficient per element

    npts = grid + 1
    diag = np.zeros(npts)
    off = np.zeros(grid)
    diag[:-1] += kd + md / 3.0
    diag[1:] += kd + md / 3.0
    off = -kd + md / 6.0

    # Schur complement onto the two boundary nodes; the interior block is
    # tridiagonal and positive definite.
    ab = np.zeros((2, npts - 2))
    ab[0, 1:] = off[1:-1]
    ab[1, :] = diag[1:-1]
    rhs = np.zeros((npts - 2, 2))
    rhs[0, 0] = off[0]
    rhs[-1, 1] = off[-1]
    sol = solveh_banded(ab, rhs)
    t00 = diag[0] - off[0] * sol[0, 0]
    t01 = -off[0] * sol[0, 1]
    t10 = -off[-1] * sol[-1, 0]
    t11 = diag[-1] - off[-1] * sol[-1, 1]

    tmat = np.array([[t00, 0.5 * (t01 + t10)], [0.5 * (t01 + t10), t11]])
    vals = np.linalg.eigvalsh(tmat / math.sin(eps))
    return float(vals[0]), float(vals[1])
