"""Bessel kernel against frozen high-precision values (mpmath, dps=40).

The derivative references were generated with the symmetric recurrences
I'_nu = (I_{nu-1} + I_{nu+1})/2 and K'_nu = -(K_{nu-1} + K_{nu+1})/2
evaluated in mpmath; the wrappers use the one-sided forms, so agreement
here checks both the values and the recurrence algebra.
"""

import math

import numpy as np
import pytest
from scipy.special import iv, kv

from steklov_tubes.bessel import (
    _check_domain,
    bessel_iv_prime,
    bessel_kv_prime,
    iv_prime_scaled,
    iv_scaled,
    kv_prime_scaled,
    kv_scaled,
)

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
    assert bessel_iv_prime(2.0, 0.7) == pytest.approx(0.18962352569231833, rel=REL)
    assert bessel_kv_prime(2.0, 0.7) == pytest.approx(-11.511226280481926, rel=REL)
    # K_0' = -K_1
    assert bessel_kv_prime(0.0, 1.3) == pytest.approx(-kv(1.0, 1.3), rel=REL)
    # I_0' = I_1
    assert bessel_iv_prime(0.0, 1.3) == pytest.approx(iv(1.0, 1.3), rel=REL)


def test_scaled_values():
    assert iv_scaled(2.0, 50.0) == pytest.approx(0.054321901691738374, rel=REL)
    assert kv_scaled(2.0, 50.0) == pytest.approx(0.18394981819978196, rel=REL)
    assert iv_prime_scaled(1.5, 200.0) == pytest.approx(0.02799896593902656, rel=REL)
    assert kv_prime_scaled(1.5, 200.0) == pytest.approx(-0.08929068609033582, rel=REL)


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
    # x (I K' - I' K) = -1, scaled factors cancel
    for nu, x in [(0.0, 0.01), (3.5, 1.0), (12.0, 80.0), (50.0, 700.0)]:
        w = x * (
            iv_scaled(nu, x) * kv_prime_scaled(nu, x)
            - iv_prime_scaled(nu, x) * kv_scaled(nu, x)
        )
        assert abs(w + 1.0) < 1e-12


def test_vectorized():
    nu = np.array([0.0, 1.0, 2.0])
    x = np.array([1.0, 1.0, 1.0])
    vals = iv_scaled(nu, x)
    assert vals.shape == (3,)
    assert vals[0] * math.e == pytest.approx(1.2660658777520084, rel=REL)


def test_domain_errors():
    with pytest.raises(ValueError):
        iv_scaled(-0.5, 1.0)
    with pytest.raises(ValueError):
        iv_scaled(51.0, 1.0)
    with pytest.raises(ValueError):
        kv_scaled(0.0, 0.0)
    with pytest.raises(ValueError):
        iv_scaled(0.0, 701.0)
    with pytest.raises(ValueError):
        kv_scaled(0.0, math.inf)


def _outcome(nu, x):
    try:
        _check_domain(nu, x)
    except ValueError as exc:
        return str(exc)
    return None


def test_domain_scalars_match_array_path():
    # floats take a fast path; at and just past each edge, and at nan and
    # +-inf, it must accept and refuse exactly as the array path does
    nus = [0.0, -0.0, 50.0, np.nextafter(50.0, np.inf), math.nan, math.inf, -math.inf, 1.0]
    xs = [700.0, np.nextafter(700.0, np.inf), 0.0, math.nan, math.inf, -math.inf, 1.0]
    accepted = 0
    for nu in nus:
        for x in xs:
            want = _outcome(np.asarray(nu), np.asarray(x))
            for cast in (float, np.float64):
                assert _outcome(cast(nu), cast(x)) == want, (cast, nu, x)
            accepted += want is None
    # nu in {0, -0, 50, 1} with x in {700, 1}
    assert accepted == 8
    assert _outcome(np.nextafter(50.0, np.inf), 1.0) == (
        "order out of range [0, 50.0]: 50.00000000000001"
    )
    assert _outcome(1.0, 0.0) == "argument out of range (0, 700.0]: 0.0"
    assert _outcome(math.nan, 1.0) == "nu and x must be finite"
