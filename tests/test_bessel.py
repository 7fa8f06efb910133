"""Bessel kernel against frozen high-precision values (mpmath, dps=40).

The derivative references were generated with the symmetric recurrences
I'_nu = (I_{nu-1} + I_{nu+1})/2 and K'_nu = -(K_{nu-1} + K_{nu+1})/2
evaluated in mpmath; the radial solver folds -(s/x) Z into the one-sided
forms, so agreement here checks both the values and the recurrence
algebra.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import iv, kv

from steklov_tubes.bessel import _check_domain, iv_scaled, kv_scaled
from steklov_tubes.radial import _kernels

REL = 1e-13


def test_point_values():
    # the scaled kernels times exp(+-x) against frozen I and K values
    e = math.exp
    assert iv_scaled(0.0, 1.0) * e(1.0) == pytest.approx(1.2660658777520084, rel=REL)
    assert kv_scaled(0.0, 1.0) * e(-1.0) == pytest.approx(0.42102443824070834, rel=REL)
    assert iv_scaled(0.5, 1.0) * e(1.0) == pytest.approx(0.9376748882454876, rel=REL)
    assert iv_scaled(3.0, 2.5) * e(2.5) == pytest.approx(0.4743704087780356, rel=REL)
    assert kv_scaled(3.0, 2.5) * e(-2.5) == pytest.approx(0.2682271463934492, rel=REL)


def test_derivatives():
    # _kernels(nu, q, x) = (I, K, I' - (s/x) I, K' - (s/x) K), scaled,
    # with s = nu - q; at s = 0 the last two are I' and K'
    _, _, di, dk = _kernels(2.0, 2, 0.7)
    assert di * math.exp(0.7) == pytest.approx(0.18962352569231833, rel=REL)
    assert dk * math.exp(-0.7) == pytest.approx(-11.511226280481926, rel=REL)
    # K_0' = -K_1 and I_0' = I_1
    _, _, di, dk = _kernels(0.0, 0, 1.3)
    assert dk * math.exp(-1.3) == pytest.approx(-kv(1.0, 1.3), rel=REL)
    assert di * math.exp(1.3) == pytest.approx(iv(1.0, 1.3), rel=REL)
    # s = 1/2 and s = 1, and past the order 50 and argument 700 that
    # once bounded the kernels
    for (nu, q, x), want in {
        (1.5, 1, 200.0): (0.027928794859572805, -0.08951335060535583),
        (3.0, 2, 0.02): (1.633746139959292e-05, -204035166.99872658),
        (60.5, 60, 20.0): (1.5810122378996314e-30, -5.037598125148143e28),
    }.items():
        _, _, di, dk = _kernels(nu, q, x)
        assert (di, dk) == pytest.approx(want, rel=REL)


def test_scaled_values():
    assert iv_scaled(2.0, 50.0) == pytest.approx(0.054321901691738374, rel=REL)
    assert kv_scaled(2.0, 50.0) == pytest.approx(0.18394981819978196, rel=REL)


def test_scaled_consistency_moderate_x():
    # where the plain functions do not overflow, scaled = exp(-+x) * plain
    for nu in (0.0, 1.5, 7.0):
        for x in (0.3, 2.0, 20.0):
            assert iv_scaled(nu, x) == pytest.approx(
                math.exp(-x) * iv(nu, x), rel=1e-12
            )
            assert kv_scaled(nu, x) == pytest.approx(
                math.exp(x) * kv(nu, x), rel=1e-12
            )


def test_wronskian_spot_checks():
    # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1 (DLMF 10.28.2), scaled
    # factors cancel
    for nu, x in [(0.0, 0.01), (3.5, 1.0), (12.0, 80.0), (50.0, 700.0),
                  (120.0, 300.0), (7.0, 1e4)]:
        w = x * (iv_scaled(nu, x) * kv_scaled(nu + 1, x)
                 + iv_scaled(nu + 1, x) * kv_scaled(nu, x))
        assert abs(w - 1.0) < 1e-12


def test_vectorized():
    nu = np.array([0.0, 1.0, 2.0])
    x = np.array([1.0, 1.0, 1.0])
    vals = iv_scaled(nu, x)
    assert vals.shape == (3,)
    assert vals[0] * math.e == pytest.approx(1.2660658777520084, rel=REL)


def test_domain_errors():
    # a negative order, a nonpositive argument or a nonfinite one is
    # refused; any other order and argument is evaluated
    for nu, x in [(-0.5, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, math.inf),
                  (math.nan, 1.0), (math.inf, 1.0)]:
        for kernel in (iv_scaled, kv_scaled):
            with pytest.raises(ValueError):
                kernel(nu, x)
    assert iv_scaled(51.0, 701.0) == pytest.approx(0.002356151588013659, rel=REL)
    assert kv_scaled(51.0, 701.0) == pytest.approx(0.3019274012089157, rel=REL)
    # out of double range the kernels saturate without a warning; the
    # radial solver turns that into NumericalError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kv_scaled(80.0, 1e-3) == math.inf
        assert iv_scaled(80.0, 1e-3) == 0.0


def _outcome(nu, x):
    try:
        _check_domain(nu, x)
    except ValueError as exc:
        return str(exc)
    return None


def test_domain_scalars_match_array_path():
    # floats take a fast path; at and just past each edge, and at nan and
    # +-inf, it must accept and refuse exactly as the array path does
    tiny = np.nextafter(0.0, 1.0)
    nus = [0.0, -0.0, -tiny, 1e300, math.nan, math.inf, -math.inf, 1.0]
    xs = [tiny, 0.0, -0.0, 1e300, math.nan, math.inf, -math.inf, 1.0]
    accepted = 0
    for nu in nus:
        for x in xs:
            want = _outcome(np.asarray(nu), np.asarray(x))
            for cast in (float, np.float64):
                assert _outcome(cast(nu), cast(x)) == want, (cast, nu, x)
            accepted += want is None
    # nu in {0, -0, 1e300, 1} with x in {tiny, 1e300, 1}
    assert accepted == 12
    assert _outcome(-tiny, 1.0) == "order must be >= 0: -5e-324"
    assert _outcome(1.0, 0.0) == "argument must be > 0: 0.0"
    assert _outcome(math.nan, 1.0) == "nu and x must be finite"
