"""Two-caps sphere band: closed forms, determinant roots, ODE oracle.

Frozen references were generated with mpmath (dps=40) from
sigma_0 = 1/(sin eps log cot(eps/2)) and
sigma_n^-+ = n (1 -+ T)/(sin eps (1 +- T)), T = tan^{2n}(eps/2).
"""

import itertools
import math
import os
import subprocess
import sys

import pytest

from steklov_tubes import spherecaps
from steklov_tubes.errors import CompletenessError
from steklov_tubes.spherecaps import (
    N_MAX,
    CapMode,
    determinant_residual,
    full_spectrum,
    mode_pair,
    ode_oracle,
    sigma_pm,
    sigma_zero,
)


def test_sigma_zero_frozen():
    assert sigma_zero(math.pi / 3) == pytest.approx(2.1021074500798456, rel=1e-13)
    assert sigma_zero(0.1) == pytest.approx(3.344582891962102, rel=1e-13)


def test_sigma_pm_frozen():
    lo, hi = sigma_pm(2, 0.3)
    assert lo == pytest.approx(6.760668279490885, rel=1e-13)
    assert hi == pytest.approx(6.774792537141278, rel=1e-13)
    lo, hi = sigma_pm(1, 0.5)
    assert lo == pytest.approx(1.830487721712452, rel=1e-13)
    assert hi == pytest.approx(2.3767902115562425, rel=1e-13)


def test_sigma_1_minus_is_cot():
    # the restriction of the ambient linear coordinate is an exact
    # eigenfunction: sigma_1^- = cot(eps)
    for eps in (0.1, 0.5, 1.0, math.pi / 4):
        lo, _ = sigma_pm(1, eps)
        assert lo == pytest.approx(1.0 / math.tan(eps), rel=1e-12)
    lo, hi = sigma_pm(1, math.pi / 4)
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(2.0, rel=1e-12)


def test_determinant_residual_at_roots():
    for n in range(1, 11):
        for eps in (0.1, 0.5, 1.0):
            lo, hi = sigma_pm(n, eps)
            assert abs(determinant_residual(n, eps, lo)) < 1e-9
            assert abs(determinant_residual(n, eps, hi)) < 1e-9
            # a point between the roots is not a root
            mid = 0.5 * (lo + hi)
            if hi - lo > 1e-6 * hi:
                assert abs(determinant_residual(n, eps, mid)) > 1e-12


def test_full_spectrum_ordering():
    modes = full_spectrum(0.3, 8)
    assert isinstance(modes[0], CapMode)
    values = [m.value for m in modes]
    assert values == sorted(values)
    assert values[0] == 0.0 and modes[0].n == 0 and modes[0].parity == "even"
    # n >= 1 modes carry multiplicity 2, n = 0 modes 1
    for m in modes:
        assert m.multiplicity == (1 if m.n == 0 else 2)
    assert sum(m.multiplicity for m in modes) >= 8
    # near-degenerate pair sigma_2^- < sigma_2^+ both present once the
    # count reaches past the pair
    values10 = [m.value for m in full_spectrum(0.3, 10)]
    lo, hi = sigma_pm(2, 0.3)
    assert lo in values10 and hi in values10


@pytest.mark.parametrize("eps", [0.01, 0.3, 1.5])
def test_mode_pair(eps):
    # n = 0: the constant and the log mode, once each
    assert mode_pair(0, eps) == (
        CapMode(0.0, 0, "even", 1),
        CapMode(sigma_zero(eps), 0, "odd", 1),
    )
    # n >= 1: sigma_n^- even and sigma_n^+ odd, each a Fourier pair
    for n in (1, N_MAX):
        lo, hi = sigma_pm(n, eps)
        want = (CapMode(lo, n, "even", 2), CapMode(hi, n, "odd", 2))
        assert mode_pair(n, eps) == want
    with pytest.raises(ValueError):
        mode_pair(N_MAX + 1, eps)


@pytest.mark.parametrize("count", [1, 8, 99])
def test_full_spectrum_merges_mode_pairs(count):
    for eps in (0.01, 0.3, 1.5):
        members = (m for n in range(N_MAX + 1) for m in mode_pair(n, eps))
        merged = sorted(members, key=lambda m: (m.value, m.n, m.parity))
        cum = itertools.accumulate(m.multiplicity for m in merged)
        size = next(i for i, c in enumerate(cum, 1) if c >= count)
        assert full_spectrum(eps, count) == merged[:size]


def test_full_spectrum_computes_each_pair_once(monkeypatch):
    # the even and the odd stream share one sigma_pm call per Fourier number
    calls = []
    monkeypatch.setattr(
        spherecaps, "sigma_pm", lambda n, eps: calls.append(n) or sigma_pm(n, eps)
    )
    full_spectrum(0.1, 199)
    assert len(calls) == 50
    assert sorted(calls) == list(range(1, N_MAX + 1))


def test_full_spectrum_mode_cap():
    # requests that need modes up to N_MAX once ran forever; in a
    # subprocess with a timeout a hang fails instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "steklov_tubes.cli", "sphere-caps",
         "--eps", "1.55", "--count", "100"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    # both lists end with the last mode there is, n = N_MAX, even
    modes = full_spectrum(0.1, 199)
    assert (modes[-1].n, modes[-1].parity) == (N_MAX, "even")
    assert sum(m.multiplicity for m in modes) == 199 + 1
    assert [m.value for m in modes] == sorted(m.value for m in modes)
    assert full_spectrum(1.55, 100)[-1].n == N_MAX
    with pytest.raises(CompletenessError):
        full_spectrum(0.1, 201)


def test_eps_sigma_approaches_n():
    eps = 1e-3
    for n in range(1, 6):
        lo, hi = sigma_pm(n, eps)
        assert eps * lo == pytest.approx(n, rel=5e-3)
        assert eps * hi == pytest.approx(n, rel=5e-3)


def test_ode_oracle_matches_closed_forms():
    for n in range(4):
        for eps in (0.3, 1.0):
            lo, hi = ode_oracle(n, eps, grid=2000)
            if n == 0:
                want = sigma_zero(eps)
                assert abs(lo) < 1e-5 * want
                assert hi == pytest.approx(want, rel=1e-5)
            else:
                exlo, exhi = sigma_pm(n, eps)
                assert lo == pytest.approx(exlo, rel=1e-5)
                assert hi == pytest.approx(exhi, rel=1e-5)


def test_ode_oracle_second_order():
    # Richardson ratio of errors under grid doubling is ~4 for O(grid^-2)
    n, eps = 2, 0.5
    _, exact = sigma_pm(n, eps)
    errs = [abs(ode_oracle(n, eps, grid=g)[1] - exact) for g in (400, 800, 1600)]
    for a, b in zip(errs, errs[1:]):
        assert 3.0 < a / b < 5.0


def test_argument_validation():
    with pytest.raises(ValueError):
        sigma_zero(0.0)
    with pytest.raises(ValueError):
        sigma_zero(math.pi / 2)
    with pytest.raises(ValueError):
        sigma_pm(0, 0.3)
    with pytest.raises(ValueError):
        determinant_residual(0, 0.3, 1.0)
    with pytest.raises(ValueError):
        ode_oracle(1, 0.3, grid=50)
    # past the cap, before numpy allocates: the grid below would need terabytes
    with pytest.raises(ValueError, match="grid must be in"):
        ode_oracle(1, 0.3, grid=10**12)
