"""Sphere spectra, transverse spectra, and scenario plumbing."""

import math

import pytest

from steklov_tubes.errors import ConfigurationError
from steklov_tubes.harmonics import (
    Circle,
    ExcisionScenario,
    FlatTorus,
    ModeEigenvalue,
    Point,
    RoundSphere,
    SubmanifoldSpec,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    sphere_eigenvalue,
    sphere_multiplicity,
    sphere_volume,
    transverse_spectrum,
)

PI = math.pi


def test_sphere_eigenvalues():
    # q(q + d - 1) on S^d
    assert sphere_eigenvalue(1, 0) == 0.0
    assert sphere_eigenvalue(1, 3) == 9.0
    assert sphere_eigenvalue(2, 1) == 2.0
    assert sphere_eigenvalue(2, 3) == 12.0
    assert sphere_eigenvalue(3, 2) == 8.0


def test_sphere_multiplicities():
    assert [sphere_multiplicity(1, i) for i in range(4)] == [1, 2, 2, 2]
    assert [sphere_multiplicity(2, i) for i in range(4)] == [1, 3, 5, 7]
    # S^3 multiplicities are (i+1)^2
    assert [sphere_multiplicity(3, i) for i in range(5)] == [1, 4, 9, 16, 25]


def test_sphere_volume():
    assert sphere_volume(1) == pytest.approx(2.0 * PI, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4.0 * PI, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * PI**2, rel=1e-15)


def test_transverse_spectrum_point():
    assert transverse_spectrum(Point(), 1) == [(0.0, 1)]
    assert transverse_spectrum(Point(), 5) == [(0.0, 1)]


def test_transverse_spectrum_circle():
    spec = transverse_spectrum(Circle(2.0 * PI), 3)
    assert spec[0] == (0.0, 1)
    assert spec[1][0] == pytest.approx(1.0, rel=1e-15)
    assert spec[1][1] == 2
    assert spec[2][0] == pytest.approx(4.0, rel=1e-15)


def test_transverse_spectrum_sphere_radius():
    # radius r divides eigenvalues by r^2
    spec = transverse_spectrum(RoundSphere(2, 2.0), 3)
    assert spec[1][0] == pytest.approx(0.5, rel=1e-15)
    assert spec[1][1] == 3
    assert spec[2][0] == pytest.approx(1.5, rel=1e-15)


def test_transverse_spectrum_flat_torus():
    # 4 pi^2 (p^2 + q^2) on the unit square torus
    spec = transverse_spectrum(FlatTorus((1.0, 1.0)), 5)
    values = [v for v, _ in spec]
    mults = [m for _, m in spec]
    base = 4.0 * PI**2
    assert values == pytest.approx([0.0, base, 2 * base, 4 * base, 5 * base])
    assert mults == [1, 4, 4, 4, 8]


def test_scenario_validation():
    point = SubmanifoldSpec(0, 1.0, Point())
    with pytest.raises(ConfigurationError):
        ExcisionScenario(m=1, lambda1_M=1.0, submanifolds=(point,))
    with pytest.raises(ConfigurationError):
        ExcisionScenario(m=2, lambda1_M=0.0, submanifolds=(point,))
    with pytest.raises(ConfigurationError):
        # codimension < 2
        circle = SubmanifoldSpec(1, 2 * PI, Circle(2 * PI))
        ExcisionScenario(m=2, lambda1_M=1.0, submanifolds=(circle,))
    with pytest.raises(ConfigurationError):
        # declared dim disagrees with the kind
        SubmanifoldSpec(2, 1.0, Circle(2 * PI))
    with pytest.raises(TypeError):
        SubmanifoldSpec(0, 1.0, "point")
    # each kind refuses a size that is not > 0, nan included
    for bad in (lambda: Circle(-1.0), lambda: Circle(math.nan), lambda: RoundSphere(0, 1.0),
                lambda: RoundSphere(2, 0.0), lambda: RoundSphere(2, math.nan),
                lambda: FlatTorus(()), lambda: FlatTorus((1.0, -1.0)),
                lambda: FlatTorus((math.nan, 1.0))):
        with pytest.raises(ConfigurationError):
            bad()


def test_scenario_sphere_dim():
    scenario = ExcisionScenario(
        m=4,
        lambda1_M=1.0,
        submanifolds=(
            SubmanifoldSpec(0, 1.0, Point()),
            SubmanifoldSpec(2, 4 * PI, RoundSphere(2, 1.0)),
        ),
    )
    assert scenario.b == 2
    assert scenario.sphere_dim(0) == 3
    assert scenario.sphere_dim(1) == 1


FOUR_KINDS_TEXT = """{
  "m": 4,
  "lambda1_M": 2.5,
  "submanifolds": [
    {
      "dim": 0,
      "volume": 1.0,
      "kind": {
        "type": "point"
      }
    },
    {
      "dim": 1,
      "volume": 3.0,
      "kind": {
        "type": "circle",
        "length": 3.0
      }
    },
    {
      "dim": 2,
      "volume": 3.141592653589793,
      "kind": {
        "type": "round_sphere",
        "dim": 2,
        "radius": 0.5
      }
    },
    {
      "dim": 2,
      "volume": 2.0,
      "kind": {
        "type": "flat_torus",
        "sides": [
          1.0,
          2.0
        ]
      }
    }
  ]
}
"""


def test_scenario_json_roundtrip(tmp_path):
    # every kind goes through both JSON directions and through a file,
    # whose text is pinned
    scenario = ExcisionScenario(
        m=4,
        lambda1_M=2.5,
        submanifolds=(
            SubmanifoldSpec(0, 1.0, Point()),
            SubmanifoldSpec(1, 3.0, Circle(3.0)),
            SubmanifoldSpec(2, PI, RoundSphere(2, 0.5)),
            SubmanifoldSpec(2, 2.0, FlatTorus((1.0, 2.0))),
        ),
    )
    assert scenario_from_json(scenario_to_json(scenario)) == scenario
    path = tmp_path / "scenario.json"
    save_scenario(scenario, str(path))
    assert path.read_text() == FOUR_KINDS_TEXT
    assert load_scenario(str(path)) == scenario


def test_scenario_json_rejects_garbage():
    with pytest.raises(ConfigurationError):
        scenario_from_json({"m": 2})
    with pytest.raises(ConfigurationError):
        scenario_from_json(
            {"m": 2, "lambda1_M": 1.0, "submanifolds": [{"dim": 0}]}
        )
    # kind objects: unknown tag, missing field, field of the wrong type
    for kind in ({"type": "blob"}, {"type": "circle"},
                 {"type": "round_sphere", "dim": "two", "radius": 1.0}, ["point"]):
        with pytest.raises(ConfigurationError, match="kind"):
            scenario_from_json(
                {"m": 4, "lambda1_M": 1.0,
                 "submanifolds": [{"dim": 0, "volume": 1.0, "kind": kind}]}
            )
    # a fractional dimension is refused by name, not truncated; a whole
    # float is the integer
    point = {"dim": 0, "volume": 1.0, "kind": {"type": "point"}}
    sphere = {"type": "round_sphere", "dim": 2, "radius": 1.0}
    for obj, name in (
        ({"m": 2.7, "lambda1_M": 1.0, "submanifolds": [point]}, "m"),
        ({"m": 2, "lambda1_M": 1.0, "submanifolds": [{**point, "dim": 0.9}]}, "dim"),
        ({"m": 5, "lambda1_M": 1.0, "submanifolds": [
            {"dim": 2, "volume": 1.0, "kind": {**sphere, "dim": 2.9}}]}, "round sphere dim"),
        ({"m": 5, "lambda1_M": 1.0, "submanifolds": [
            {"dim": 2.5, "volume": 1.0, "kind": sphere}]}, "dim"),
        ({"m": math.inf, "lambda1_M": 1.0, "submanifolds": [point]}, "m"),
    ):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            scenario_from_json(obj)
    whole = scenario_from_json({"m": 2.0, "lambda1_M": 1.0, "submanifolds": [{**point, "dim": 0.0}]})
    assert (whole.m, whole.submanifolds[0].dim) == (2, 0)
    # a NaN or infinite gap or volume is refused by name: it printed NaN
    # into the bounds JSON, or a constant of 0
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="^lambda1_M must be finite"):
            scenario_from_json({"m": 2, "lambda1_M": value, "submanifolds": [point]})
        with pytest.raises(ConfigurationError, match="^volume must be finite"):
            scenario_from_json(
                {"m": 2, "lambda1_M": 1.0, "submanifolds": [point, {**point, "volume": value}]}
            )


def test_mode_eigenvalue_family_validation():
    with pytest.raises(ConfigurationError):
        ModeEigenvalue(value=1.0, j=0, k=0, q=0, multiplicity=1, family="XX")
