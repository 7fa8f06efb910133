"""Lower bound constant, threshold checks, and ratio envelopes.

For two points in a flat unit torus (m = 2, lambda_1 = 4 pi^2, both
prefactors 2) the three terms are 1/4, pi^2/8, pi^2/128, so the
spectral term binds and C = pi^2 / 128.  For two points on the round
sphere (lambda_1 = 2) the spectral term is 1/256.
"""

import json
import math

import pytest

from steklov_tubes.bounds import (
    constant_C,
    lower_bound_check,
    quasi_ratio_bound,
    upper_bound_limit,
)
from steklov_tubes.errors import ConfigurationError
from steklov_tubes.harmonics import (
    Circle,
    ExcisionScenario,
    Point,
    SubmanifoldSpec,
)


def _points(m, lambda1, volumes):
    subs = tuple(SubmanifoldSpec(0, v, Point()) for v in volumes)
    return ExcisionScenario(m, lambda1, subs)


def test_torus_two_points():
    rep = constant_C(_points(2, 4 * math.pi**2, (1.0, 1.0)))
    assert rep.term_dimension == pytest.approx(0.25, abs=1e-15)
    assert rep.term_volume == pytest.approx(math.pi**2 / 8, abs=1e-12)
    assert rep.term_spectral == pytest.approx(math.pi**2 / 128, abs=1e-12)
    assert rep.binding_term == "spectral"
    assert rep.constant_C == pytest.approx(math.pi**2 / 128, abs=1e-12)
    assert rep.exponent == pytest.approx(1.0 / 3)


def test_sphere_two_points():
    rep = constant_C(_points(2, 2.0, (1.0, 1.0)))
    assert rep.constant_C == pytest.approx(1.0 / 256, abs=1e-15)
    assert rep.binding_term == "spectral"


def test_permutation_invariance():
    subs = (
        SubmanifoldSpec(0, 1.0, Point()),
        SubmanifoldSpec(1, 2.0, Circle(2.0)),
        SubmanifoldSpec(0, 0.5, Point()),
    )
    a = constant_C(ExcisionScenario(4, 3.0, subs))
    b = constant_C(ExcisionScenario(4, 3.0, subs[::-1]))
    assert a == b


def test_volume_scaling():
    base = constant_C(_points(3, 5.0, (1.0, 2.0)))
    scaled = constant_C(_points(3, 5.0, (3.0, 6.0)))
    # volume term picks up min(P)^2; the spectral term uses the ratio
    # min(P)^2 / max(P)^2 and is invariant under a common factor
    assert scaled.term_volume == pytest.approx(9.0 * base.term_volume, rel=1e-12)
    assert scaled.term_spectral == pytest.approx(base.term_spectral, rel=1e-12)
    assert scaled.term_dimension == base.term_dimension


def test_single_submanifold_rejected():
    with pytest.raises(ConfigurationError):
        constant_C(_points(2, 1.0, (1.0,)))


def test_lower_bound_check():
    sc = _points(2, 4 * math.pi**2, (1.0, 1.0))
    c = math.pi**2 / 128
    eps = 0.01
    thr = c * eps ** (-1.0 / 3)
    res = lower_bound_check(sc, eps, sigma1=thr * 1.01)
    assert res.holds
    assert res.threshold == pytest.approx(thr, rel=1e-12)
    assert not lower_bound_check(sc, eps, sigma1=0.0).holds
    assert lower_bound_check(sc, eps, sigma1=0.9 * thr, slack=0.2).holds
    with pytest.raises(ValueError):
        lower_bound_check(sc, 0.0, 1.0)
    # a NaN or infinite argument is refused by name, not reported as a check
    for args, name in (((math.inf, 1.0), "eps"), ((eps, math.nan), "sigma1"),
                       ((eps, 1.0, math.nan), "slack"), ((eps, 1.0, math.inf), "slack")):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            lower_bound_check(sc, *args)
    # so is a slack outside [0, 1): 1 made sigma1 = 0 hold, a negative one
    # tightened the bound
    for slack in (1.0, 1.5, -0.1, -5.0):
        with pytest.raises(ConfigurationError, match=r"^slack must be in \[0, 1\)"):
            lower_bound_check(sc, eps, 0.0, slack)


def test_upper_bound_limit():
    assert upper_bound_limit(_points(2, 1.0, (1.0, 1.0))) == 1.0
    circle = SubmanifoldSpec(1, 2.0, Circle(2.0))
    point = SubmanifoldSpec(0, 1.0, Point())
    assert upper_bound_limit(ExcisionScenario(5, 1.0, (circle,))) == 2.0
    # the smallest n drives the limit: m - 0 - 2 = 3 beats m - 1 - 2 = 2
    assert upper_bound_limit(ExcisionScenario(5, 1.0, (circle, point))) == 3.0
    assert upper_bound_limit(ExcisionScenario(3, 1.0, (circle,))) == 1.0


def test_quasi_ratio_bound():
    assert quasi_ratio_bound(1.0, 3) == 1.0
    assert quasi_ratio_bound(4.0, 2) == pytest.approx(32.0)
    assert quasi_ratio_bound(2.0, 3) == pytest.approx(2.0**3.5)
    with pytest.raises(ValueError):
        quasi_ratio_bound(0.5, 2)
    with pytest.raises(ValueError):
        quasi_ratio_bound(2.0, 1)


def test_report_json():
    obj = constant_C(_points(2, 4 * math.pi**2, (1.0, 1.0))).to_json()
    assert obj["binding"] == "spectral"
    assert obj["C"] == pytest.approx(math.pi**2 / 128)
    assert set(obj["terms"]) == {"dimension", "volume", "spectral"}
    # every value is JSON-native, so the CLI's writer round-trips it exactly
    assert json.loads(json.dumps(obj)) == obj
