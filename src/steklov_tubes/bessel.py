"""Exponentially scaled modified Bessel kernels used by the radial solver.

    iv_scaled(nu, x) = exp(-x) I_nu(x),      kv_scaled(nu, x) = exp(+x) K_nu(x).

Products like iv_scaled * kv_scaled stay O(1) for every x, so the
solver combines only these.  Derivatives are never formed on their own:
the radial solver folds them into the recurrences

    Z'_nu(x) - (s/x) Z_nu(x) = +-Z_{nu+1}(x) + (q/x) Z_nu(x),   q = nu - s,

with + for I and - for K (DLMF 10.29).  Both kernels accept any order
nu >= 0 and argument x > 0.  Where the true value is out of double
range, kv_scaled returns inf and iv_scaled 0; the caller decides what
that means.  A negative order, or an argument that is not finite and
> 0, is refused with ValueError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def _check_domain(nu, x) -> None:
    # scalar fast path: the comparisons are False for nan, so only
    # non-nan in-domain floats return here; +inf is refused below
    if isinstance(nu, float) and isinstance(x, float):
        if 0.0 <= nu < math.inf and 0.0 < x < math.inf:
            return
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(nu)) or np.any(~np.isfinite(x)):
        raise ValueError("nu and x must be finite")
    if np.any(nu < 0):
        raise ValueError(f"order must be >= 0: {nu}")
    if np.any(x <= 0):
        raise ValueError(f"argument must be > 0: {x}")


def iv_scaled(nu, x):
    _check_domain(nu, x)
    return special.ive(nu, x)


def kv_scaled(nu, x):
    _check_domain(nu, x)
    return special.kve(nu, x)
