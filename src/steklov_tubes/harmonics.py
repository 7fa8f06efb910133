"""Core types and closed-form spectra of the transverse model manifolds.

An excision scenario records an ambient dimension m, the first nonzero
Neumann eigenvalue of the ambient manifold, and a list of submanifolds
N_j of dimension n_j <= m - 2.  Removing a tube of radius eps around N_j
creates a boundary component N_j x S^{d_j}, d_j = m - n_j - 1, and the
model problems separate into modes indexed by a transverse eigenvalue
lambda_k of N_j and a spherical harmonic cluster q on S^{d_j}.

Sphere spectra are i(i+d-1) with the usual multiplicity

    mult(d, i) = C(d+i, d) - C(d+i-2, d).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigurationError

# Relative tolerance for grouping numerically equal transverse eigenvalues.
GROUP_RTOL = 1e-12


def _integer(name: str, value) -> int:
    """int(value), refusing by name a float that int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# round sphere S^d


def sphere_eigenvalue(d: int, i: int) -> float:
    """i-th distinct Laplace eigenvalue of the unit round sphere S^d."""
    if d < 1 or i < 0:
        raise ValueError(f"need d >= 1 and i >= 0, got d={d}, i={i}")
    return float(i * (i + d - 1))


def sphere_multiplicity(d: int, i: int) -> int:
    """Multiplicity of the i-th distinct eigenvalue of S^d."""
    if d < 1 or i < 0:
        raise ValueError(f"need d >= 1 and i >= 0, got d={d}, i={i}")
    if i == 0:
        return 1
    return math.comb(d + i, d) - math.comb(d + i - 2, d)


def sphere_volume(d: int) -> float:
    """Riemannian volume of the unit round sphere S^d."""
    if d < 0:
        raise ValueError(f"need d >= 0, got d={d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# ---------------------------------------------------------------------------
# transverse manifolds N_j: each kind names its JSON tag and its dimension
# n, and coerces its fields as the JSON decoder needs; _KINDS maps the tags
# back to the classes


@dataclass(frozen=True)
class Point:
    """A single point (n = 0); its only transverse eigenvalue is 0."""

    tag = "point"
    dim = 0


@dataclass(frozen=True)
class Circle:
    """A circle of the given length (n = 1)."""

    length: float
    tag = "circle"
    dim = 1

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        if not (self.length > 0):
            raise ConfigurationError(f"circle length must be > 0, got {self.length}")


@dataclass(frozen=True)
class RoundSphere:
    """A round sphere S^dim of the given radius (n = dim)."""

    dim: int
    radius: float
    tag = "round_sphere"

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("round sphere dim", self.dim))
        object.__setattr__(self, "radius", float(self.radius))
        if self.dim < 1 or not (self.radius > 0):
            raise ConfigurationError(f"bad round sphere {self!r}")


@dataclass(frozen=True)
class FlatTorus:
    """A flat torus with the given side lengths (n = len(sides))."""

    sides: tuple[float, ...]
    tag = "flat_torus"

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        if len(self.sides) < 1 or not all(s > 0 for s in self.sides):
            raise ConfigurationError(f"bad flat torus {self!r}")

    @property
    def dim(self) -> int:
        return len(self.sides)


SpectrumKind = Point | Circle | RoundSphere | FlatTorus
_KINDS = {kind.tag: kind for kind in (Point, Circle, RoundSphere, FlatTorus)}


def _torus_spectrum(sides: tuple[float, ...], count: int) -> list[tuple[float, int]]:
    # Enumerate 4 pi^2 sum (k_i / L_i)^2 over integer vectors, growing the
    # search box until the count-th distinct value is certified smaller than
    # anything outside the box.
    lmax = max(sides)
    box = 4
    while True:
        values = sorted(
            sum((2.0 * math.pi * k / L) ** 2 for k, L in zip(vec, sides))
            for vec in itertools.product(range(-box, box + 1), repeat=len(sides))
        )
        grouped: list[tuple[float, int]] = []
        for v in values:
            if grouped and v <= grouped[-1][0] * (1 + GROUP_RTOL) + GROUP_RTOL:
                grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
            else:
                grouped.append((v, 1))
        outside = (2.0 * math.pi * (box + 1) / lmax) ** 2
        if len(grouped) >= count and grouped[count - 1][0] < outside:
            return grouped[:count]
        box *= 2


def transverse_spectrum(kind: SpectrumKind, count: int) -> list[tuple[float, int]]:
    """First `count` distinct Laplace eigenvalues of N with multiplicities.

    Returns [(lambda_0, mult_0), ...] in ascending order, starting from
    lambda_0 = 0.  A point has the single eigenvalue 0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if isinstance(kind, Point):
        return [(0.0, 1)][:count]
    if isinstance(kind, Circle):
        out = [(0.0, 1)]
        for k in range(1, count):
            out.append(((2.0 * math.pi * k / kind.length) ** 2, 2))
        return out[:count]
    if isinstance(kind, RoundSphere):
        r2 = kind.radius ** 2
        return [
            (sphere_eigenvalue(kind.dim, i) / r2, sphere_multiplicity(kind.dim, i))
            for i in range(count)
        ]
    if isinstance(kind, FlatTorus):
        return _torus_spectrum(kind.sides, count)
    raise TypeError(f"unknown spectrum kind {kind!r}")


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class SubmanifoldSpec:
    """One excised submanifold: intrinsic dimension, volume, and spectrum."""

    dim: int
    volume: float
    kind: SpectrumKind

    def __post_init__(self):
        if self.dim < 0:
            raise ConfigurationError(f"dim must be >= 0, got {self.dim}")
        if not 0 < self.volume < math.inf:
            raise ConfigurationError(f"volume must be finite and > 0, got {self.volume}")
        if not isinstance(self.kind, SpectrumKind):
            raise TypeError(f"unknown spectrum kind {self.kind!r}")
        if self.kind.dim != self.dim:
            raise ConfigurationError(
                f"kind {self.kind!r} has dimension {self.kind.dim}, spec says {self.dim}"
            )


@dataclass(frozen=True)
class ExcisionScenario:
    """Ambient dimension, ambient spectral gap, and the excised submanifolds."""

    m: int
    lambda1_M: float
    submanifolds: tuple[SubmanifoldSpec, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError(f"ambient dimension must be >= 2, got {self.m}")
        if not 0 < self.lambda1_M < math.inf:
            raise ConfigurationError(
                f"lambda1_M must be finite and > 0, got {self.lambda1_M}"
            )
        if len(self.submanifolds) < 1:
            raise ConfigurationError("need at least one submanifold")
        for s in self.submanifolds:
            if s.dim > self.m - 2:
                raise ConfigurationError(
                    f"submanifold dim {s.dim} exceeds m - 2 = {self.m - 2}"
                )

    @property
    def b(self) -> int:
        return len(self.submanifolds)

    def sphere_dim(self, j: int) -> int:
        """Dimension d_j of the normal sphere around submanifold j."""
        return self.m - self.submanifolds[j].dim - 1


@dataclass(frozen=True)
class ModeEigenvalue:
    """One eigenvalue of a model problem, tagged by its separated mode.

    j is the submanifold index, k the transverse eigenvalue index, q the
    spherical cluster.  multiplicity is mult(lambda_k) * mult(q).
    """

    value: float
    j: int
    k: int
    q: int
    multiplicity: int
    family: str = field(default="Steklov")

    def __post_init__(self):
        if self.family not in ("SN", "SD", "Steklov"):
            raise ConfigurationError(f"unknown family {self.family!r}")


# ---------------------------------------------------------------------------
# JSON serialization


def _kind_from_json(obj: dict) -> SpectrumKind:
    try:
        kind = _KINDS.get(obj["type"])
        if kind is not None:
            return kind(**{f.name: obj[f.name] for f in fields(kind)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed kind object {obj!r}") from exc
    raise ConfigurationError(f"unknown kind type {obj['type']!r}")


def scenario_to_json(scenario: ExcisionScenario) -> dict:
    return {
        "m": scenario.m,
        "lambda1_M": scenario.lambda1_M,
        "submanifolds": [
            {"dim": s.dim, "volume": s.volume, "kind": {"type": s.kind.tag, **asdict(s.kind)}}
            for s in scenario.submanifolds
        ],
    }


def scenario_from_json(obj: dict) -> ExcisionScenario:
    try:
        subs = tuple(
            SubmanifoldSpec(
                dim=_integer("dim", s["dim"]),
                volume=float(s["volume"]),
                kind=_kind_from_json(s["kind"]),
            )
            for s in obj["submanifolds"]
        )
        return ExcisionScenario(
            m=_integer("m", obj["m"]),
            lambda1_M=float(obj["lambda1_M"]),
            submanifolds=subs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed scenario object: {exc}") from exc


def load_scenario(path: str) -> ExcisionScenario:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario file {path} is not valid JSON") from exc
    return scenario_from_json(obj)


def save_scenario(scenario: ExcisionScenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")
