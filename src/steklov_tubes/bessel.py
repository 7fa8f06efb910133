"""Modified Bessel kernel used by the radial mode solver.

Thin wrappers around scipy.special with the domain pinned to what the
radial problems actually need: order nu in [0, 50], argument x in
(0, 700].  Outside that window the unscaled functions over/underflow in
double precision, so the wrappers refuse instead of returning garbage.

The scaled variants strip the exponential factor,

    ive(nu, x) = exp(-x) I_nu(x),      kve(nu, x) = exp(+x) K_nu(x),

and are what the solver combines; products like ive * kve stay O(1) for
x up to the domain edge.  Derivatives come from the downward-clean
recurrences

    I'_nu(x) = I_{nu+1}(x) + (nu/x) I_nu(x),
    K'_nu(x) = -K_{nu+1}(x) + (nu/x) K_nu(x),

which avoid the cancellation of the symmetric two-term form near x ~ nu.
"""

from __future__ import annotations

import numpy as np
from scipy import special

NU_MAX = 50.0
X_MAX = 700.0


def _check_domain(nu, x) -> None:
    # scalar fast path: the comparisons are False for nan and +-inf, so
    # only finite in-domain floats return here
    if isinstance(nu, float) and isinstance(x, float):
        if 0.0 <= nu <= NU_MAX and 0.0 < x <= X_MAX:
            return
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(nu)) or np.any(~np.isfinite(x)):
        raise ValueError("nu and x must be finite")
    if np.any(nu < 0) or np.any(nu > NU_MAX):
        raise ValueError(f"order out of range [0, {NU_MAX}]: {nu}")
    if np.any(x <= 0) or np.any(x > X_MAX):
        raise ValueError(f"argument out of range (0, {X_MAX}]: {x}")


def bessel_iv_prime(nu, x):
    """d/dx I_nu(x)."""
    _check_domain(nu, x)
    return special.iv(nu + 1, x) + (nu / np.asarray(x, dtype=float)) * special.iv(nu, x)


def bessel_kv_prime(nu, x):
    """d/dx K_nu(x)."""
    _check_domain(nu, x)
    return -special.kv(nu + 1, x) + (nu / np.asarray(x, dtype=float)) * special.kv(nu, x)


# scaled family: exp(-x) I and exp(+x) K, same recurrences


def iv_scaled(nu, x):
    _check_domain(nu, x)
    return special.ive(nu, x)


def kv_scaled(nu, x):
    _check_domain(nu, x)
    return special.kve(nu, x)


def iv_prime_scaled(nu, x):
    """exp(-x) I'_nu(x)."""
    _check_domain(nu, x)
    return special.ive(nu + 1, x) + (nu / np.asarray(x, dtype=float)) * special.ive(nu, x)


def kv_prime_scaled(nu, x):
    """exp(+x) K'_nu(x)."""
    _check_domain(nu, x)
    return -special.kve(nu + 1, x) + (nu / np.asarray(x, dtype=float)) * special.kve(nu, x)
