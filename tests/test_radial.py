"""Radial mode eigenvalues against closed forms and an mpmath oracle.

The lam > 0 references were produced by an independent mpmath (dps=40)
evaluation of sigma = -R'(eps)/R(eps) with R = r^{-s}(I_nu + c K_nu)
and c fixed by the outer condition; the lam = 0 references are Euler
closed forms evaluated by hand.
"""

import math

import numpy as np
import pytest

from steklov_tubes.errors import NumericalError
from steklov_tubes.harmonics import sphere_multiplicity
from steklov_tubes.radial import (
    OUTER_CONDITIONS,
    RadialMode,
    mixed_spectrum,
    sigma_annulus_pair,
    sigma_mixed,
    sn_log_normalizer,
)

# (d, q, lam, eps, delta, outer) -> sigma, mpmath oracle
BESSEL_ORACLE = {
    (1, 2, 3.0, 0.1, 0.4, "Neumann"): 20.001487199359598,
    (1, 2, 3.0, 0.1, 0.4, "Dirichlet"): 20.2831571096713,
    (1, 0, 1.0, 0.05, 0.5, "Neumann"): 2.069871868591268,
    (1, 0, 1.0, 0.05, 0.5, "Dirichlet"): 8.880295503108282,
    (2, 1, 2.0, 0.1, 0.5, "Neumann"): 19.772065095151493,
    (2, 1, 2.0, 0.1, 0.5, "Dirichlet"): 20.37227431498614,
    (3, 0, 4.0, 0.2, 0.8, "Neumann"): 9.855448033838938,
    (3, 0, 4.0, 0.2, 0.8, "Dirichlet"): 11.257831913443209,
    (4, 3, 7.5, 0.05, 0.3, "Neumann"): 120.05350981110459,
    (4, 3, 7.5, 0.05, 0.3, "Dirichlet"): 120.0535593396083,
}


def test_bessel_cases_match_oracle():
    for (d, q, lam, eps, delta, outer), want in BESSEL_ORACLE.items():
        got = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
        assert got == pytest.approx(want, rel=1e-12)


def test_euler_closed_forms():
    # d = 1, q = 0, lam = 0, SD: sigma = 1/(eps log(delta/eps))
    assert sigma_mixed(
        RadialMode(1, 0, 0.0), 0.25, 0.25 * math.e, "Dirichlet"
    ) == pytest.approx(4.0, rel=1e-14)
    assert sigma_mixed(
        RadialMode(1, 0, 0.0), 1.0 / math.e, 1.0, "Dirichlet"
    ) == pytest.approx(math.e, rel=1e-14)
    # the constant is SN-harmonic: sigma = 0
    assert sigma_mixed(RadialMode(1, 0, 0.0), 0.25, 0.5, "Neumann") == 0.0
    assert sigma_mixed(RadialMode(3, 0, 0.0), 0.25, 0.5, "Neumann") == 0.0
    # d = 1, q = 1 on [1/2, 1]: tau = 1/4, beta = 1
    assert sigma_mixed(RadialMode(1, 1, 0.0), 0.5, 1.0, "Dirichlet") == pytest.approx(
        (1.0 + 0.25) / (0.5 * 0.75), rel=1e-14
    )
    assert sigma_mixed(RadialMode(1, 1, 0.0), 0.5, 1.0, "Neumann") == pytest.approx(
        1.2, rel=1e-14
    )
    # d = 3, q = 0 SD: solutions a + b r^-2, u(delta) = 0 forces
    # u = r^-2 - delta^-2, so sigma = 2/(eps (1 - tau)), tau = (eps/delta)^2
    eps, delta = 0.25, 0.5
    tau = (eps / delta) ** 2
    assert sigma_mixed(RadialMode(3, 0, 0.0), eps, delta, "Dirichlet") == pytest.approx(
        2.0 / (eps * (1.0 - tau)), rel=1e-13
    )


def test_annulus_pairs():
    # Steklov on both circles of [1/2, 1]; q = 1 roots are (5 -+ sqrt 17)/2,
    # q = 2 roots are (51 -+ sqrt 801)/15, q = 0 gives (0, 3/log 2)
    lo, hi = sigma_annulus_pair(RadialMode(1, 0, 0.0), 0.5, 1.0)
    assert lo == 0.0
    assert hi == pytest.approx(3.0 / math.log(2.0), rel=1e-13)
    lo, hi = sigma_annulus_pair(RadialMode(1, 1, 0.0), 0.5, 1.0)
    assert lo == pytest.approx((5.0 - math.sqrt(17.0)) / 2.0, rel=1e-13)
    assert hi == pytest.approx((5.0 + math.sqrt(17.0)) / 2.0, rel=1e-13)
    lo, hi = sigma_annulus_pair(RadialMode(1, 2, 0.0), 0.5, 1.0)
    assert lo == pytest.approx((51.0 - math.sqrt(801.0)) / 15.0, rel=1e-13)
    assert hi == pytest.approx((51.0 + math.sqrt(801.0)) / 15.0, rel=1e-13)
    # frozen spot value further out
    lo, hi = sigma_annulus_pair(RadialMode(1, 4, 0.0), 0.5, 1.0)
    assert lo == pytest.approx(3.9100233967699687, rel=1e-13)
    assert hi == pytest.approx(8.184094250288856, rel=1e-13)


def test_sn_below_sd():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        q = int(rng.integers(0, 5))
        lam = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.01, 30.0))
        eps = 10.0 ** rng.uniform(-3.0, -0.5)
        delta = eps * rng.uniform(1.5, 20.0)
        mode = RadialMode(d, q, lam)
        sn = sigma_mixed(mode, eps, delta, "Neumann")
        sd = sigma_mixed(mode, eps, delta, "Dirichlet")
        assert sn <= sd + 1e-12 * abs(sd)


def test_scaling_law():
    # sigma(d, q, lam/c^2, c eps, c delta) = sigma(d, q, lam, eps, delta)/c
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(0, 6))
        lam = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.01, 25.0))
        eps = 10.0 ** rng.uniform(-4.0, -0.7)
        delta = eps * rng.uniform(2.0, 50.0)
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        outer = "Neumann" if rng.random() < 0.5 else "Dirichlet"
        base = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
        scaled = sigma_mixed(RadialMode(d, q, lam / c**2), c * eps, c * delta, outer)
        assert c * scaled == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_lam_to_zero_continuity():
    for d, q, outer in [(1, 1, "Neumann"), (2, 0, "Dirichlet"), (3, 2, "Neumann")]:
        at_zero = sigma_mixed(RadialMode(d, q, 0.0), 0.1, 0.5, outer)
        near_zero = sigma_mixed(RadialMode(d, q, 1e-10), 0.1, 0.5, outer)
        assert abs(near_zero - at_zero) <= 1e-4 * max(1.0, abs(at_zero))


def test_small_eps_limits():
    # eps * sigma -> d - 1 + q; the SN zero mode (q = 0, lam = 0) is
    # excluded since it is identically 0
    for d, q in [(2, 0), (1, 1), (3, 2)]:
        want = d - 1 + q
        got = 1e-7 * sigma_mixed(RadialMode(d, q, 0.0), 1e-7, 0.5, "Dirichlet")
        assert got == pytest.approx(want, rel=1e-4)
        if q > 0:
            got = 1e-7 * sigma_mixed(RadialMode(d, q, 0.0), 1e-7, 0.5, "Neumann")
            assert got == pytest.approx(want, rel=1e-4)
    # SN q = 0 with lam > 0 is a plain 1/eps mode away from d = 1
    got = 1e-7 * sigma_mixed(RadialMode(2, 0, 1.0), 1e-7, 0.5, "Neumann")
    assert got == pytest.approx(1.0, rel=1e-4)
    # log mode: eps |log eps| sigma -> 1 (slowly; generous tolerance)
    eps = 1e-8
    sd = sigma_mixed(RadialMode(1, 0, 0.0), eps, 0.5, "Dirichlet")
    assert eps * abs(math.log(eps)) * sd == pytest.approx(1.0, rel=0.05)


def test_sn_log_normalizer_product():
    # d = 1, q = 0, lam > 0 SN mode: normalizer * sigma -> 1 like
    # 1/|log eps|, so tolerances shrink slowly
    lam, delta = 2.0, 0.5
    products = []
    for eps, tol in [(1e-6, 1e-2), (1e-8, 6e-3), (1e-10, 5e-3)]:
        sig = sigma_mixed(RadialMode(1, 0, lam), eps, delta, "Neumann")
        product = sn_log_normalizer(lam, eps, delta) * sig
        assert product == pytest.approx(1.0, rel=tol)
        products.append(product)
    assert abs(products[-1] - 1.0) < abs(products[0] - 1.0)
    with pytest.raises(ValueError):
        sn_log_normalizer(0.0, 1e-3, 0.5)


def _stream(d, transverse, outer, count):
    def lookup(k):
        return transverse[k] if k < len(transverse) else None

    stream = mixed_spectrum(d, lookup, 0.1, 0.5, outer, j=3)
    return [next(stream) for _ in range(count)]


def test_mixed_spectrum_structure():
    circle = [(float(k * k), 1 if k == 0 else 2) for k in range(40)]  # length 2 pi
    modes = _stream(1, circle, "Neumann", 30)
    values = [m.value for m in modes]
    assert values == sorted(values)
    # nothing below the last listed value is skipped: sigma grows in k
    # and q, so the lattice corner bounds everything left out
    top = values[-1]
    listed = {(m.k, m.q) for m in modes}
    n = 20
    for k in range(n):
        for q in range(n):
            sig = sigma_mixed(RadialMode(1, q, circle[k][0]), 0.1, 0.5, "Neumann")
            if sig < top:
                assert (k, q) in listed
    assert sigma_mixed(RadialMode(1, 0, circle[n][0]), 0.1, 0.5, "Neumann") > top
    assert sigma_mixed(RadialMode(1, n, 0.0), 0.1, 0.5, "Neumann") > top
    # multiplicities multiply: k = 1 (mult 2) with q = 1 (mult 2 on S^1)
    picked = [m for m in modes if m.k == 1 and m.q == 1]
    assert len(picked) == 1 and picked[0].multiplicity == 4
    # SN zero mode present with value 0
    zero = [m for m in modes if m.k == 0 and m.q == 0]
    assert len(zero) == 1 and zero[0].value == 0.0


def test_mixed_spectrum_point_complete():
    # a point exhausts its transverse spectrum, so its stream is the pure
    # q ladder in order: sigma grows with q
    modes = _stream(3, [(0.0, 1)], "Neumann", 9)
    assert [(m.k, m.q) for m in modes] == [(0, q) for q in range(9)]
    values = [m.value for m in modes]
    assert values == sorted(values) and len(set(values)) == len(values)
    for m in modes:
        assert m.multiplicity == sphere_multiplicity(3, m.q)


def test_mixed_spectrum_stream():
    # a circle of length 2 pi, and a point, which has k = 0 only
    circle = [(float(k * k), 1 if k == 0 else 2) for k in range(40)]
    for d, transverse in ((1, circle), (2, [(0.0, 1)])):
        for outer in OUTER_CONDITIONS:
            modes = _stream(d, transverse, outer, 60)
            keys = [(m.value, m.k, m.q) for m in modes]
            assert keys == sorted(keys)
            assert len(set((m.k, m.q) for m in modes)) == len(modes)
            for m in modes:
                assert m.j == 3
                assert m.multiplicity == transverse[m.k][1] * sphere_multiplicity(d, m.q)
                assert m.value == sigma_mixed(
                    RadialMode(d, m.q, transverse[m.k][0]), 0.1, 0.5, outer
                )
            zeros = [m for m in modes if m.value == 0.0]
            assert len(zeros) == (outer == "Neumann")
            if zeros:
                assert (zeros[0].k, zeros[0].q) == (0, 0) and modes[0] is zeros[0]


def _draws(rng, n):
    """Random modes (d, q, lam) and collars (eps, delta) inside the kernel range."""
    for _ in range(n):
        d = int(rng.integers(1, 5))
        q = int(rng.integers(0, 40))
        lam = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-2.0, 4.0))
        eps = 10.0 ** rng.uniform(-4.0, -0.5)
        delta = min(eps * 10.0 ** rng.uniform(0.1, 3.0), 1.0)
        if eps < delta:
            yield d, q, lam, eps, delta


def test_walk_assumptions():
    # the ordered walk lists modes in order only because sigma is
    # nondecreasing in q and in lam; SN <= SD makes the bracket a bracket
    rng = np.random.default_rng(20)
    for d, q, lam, eps, delta in _draws(rng, 600):
        outer = OUTER_CONDITIONS[int(rng.integers(0, 2))]
        base = sigma_mixed(RadialMode(d, q, lam), eps, delta, outer)
        assert base <= sigma_mixed(RadialMode(d, q + 1, lam), eps, delta, outer)
        bigger = lam + float(10.0 ** rng.uniform(-3.0, 3.0))
        above = sigma_mixed(RadialMode(d, q, bigger), eps, delta, outer)
        assert base <= above * (1.0 + 1e-13)
        sn = sigma_mixed(RadialMode(d, q, lam), eps, delta, "Neumann")
        sd = sigma_mixed(RadialMode(d, q, lam), eps, delta, "Dirichlet")
        assert sn <= sd * (1.0 + 1e-14)


def test_kernel_range_is_numerical():
    # an order past the Bessel ceiling is a kernel limit, not bad input
    with pytest.raises(NumericalError, match="RadialMode"):
        sigma_mixed(RadialMode(1, 51, 1.0), 0.01, 0.5, "Neumann")
    with pytest.raises(NumericalError):
        sigma_mixed(RadialMode(1, 0, 4e6), 0.01, 0.5, "Dirichlet")


def test_argument_validation():
    with pytest.raises(ValueError):
        sigma_mixed(RadialMode(1, 0, 0.0), 0.5, 0.5, "Neumann")
    with pytest.raises(ValueError):
        sigma_mixed(RadialMode(1, 0, 0.0), 0.5, 0.25, "Neumann")
    with pytest.raises(ValueError):
        sigma_mixed(RadialMode(1, 0, 0.0), 0.1, 0.5, "Robin")
    with pytest.raises(ValueError):
        RadialMode(0, 0, 0.0)
    with pytest.raises(ValueError):
        RadialMode(1, -1, 0.0)
    with pytest.raises(ValueError):
        RadialMode(1, 0, -1.0)
